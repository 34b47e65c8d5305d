// Inference surface tests: typed PredictionSet results, the concrete
// backends (scalar and batched entry points), the warm ModelRegistry
// (per-VCA selection, lazy disk loading, fallback, concurrency, counter
// deltas across flow eviction), and the engine integration — backends
// resolved at flow admission, re-resolved after eviction, deterministic
// across worker counts with and without cross-flow inference batching.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "core/media_classifier.hpp"
#include "core/streaming.hpp"
#include "engine/multi_flow_engine.hpp"
#include "engine/synthetic.hpp"
#include "inference/backends.hpp"
#include "inference/model_registry.hpp"
#include "ingest/pcap_replay.hpp"
#include "ingest/replay_driver.hpp"
#include "ml/serialize.hpp"
#include "netflow/pcap.hpp"

namespace vcaqoe::inference {
namespace {

std::shared_ptr<const InferenceBackend> constantForestBackend(
    double value, QoeTarget target, const std::string& name) {
  return std::make_shared<ForestBackend>(engine::syntheticForest(1, 0, value),
                                         target, name);
}

TEST(PredictionSet, SetGetHasClearAndEquality) {
  PredictionSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.has(QoeTarget::kFrameRate));
  EXPECT_EQ(set.get(QoeTarget::kFrameRate), std::nullopt);

  set.set(QoeTarget::kFrameRate, 29.5);
  set.set(QoeTarget::kResolution, 720.0);
  EXPECT_FALSE(set.empty());
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.get(QoeTarget::kFrameRate), std::optional<double>(29.5));
  EXPECT_EQ(set.get(QoeTarget::kResolution), std::optional<double>(720.0));
  EXPECT_FALSE(set.has(QoeTarget::kBitrateKbps));

  PredictionSet same;
  same.set(QoeTarget::kResolution, 720.0);
  same.set(QoeTarget::kFrameRate, 29.5);
  EXPECT_TRUE(set == same);

  PredictionSet different = same;
  different.set(QoeTarget::kFrameRate, 30.0);
  EXPECT_FALSE(set == different);
  PredictionSet extra = same;
  extra.set(QoeTarget::kBitrateKbps, 1.0);
  EXPECT_FALSE(set == extra);

  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set == PredictionSet{});
}

TEST(PredictionSet, TargetNamesRoundTrip) {
  for (const auto target : kAllTargets) {
    const auto slug = toString(target);
    EXPECT_EQ(targetFromString(slug), std::optional<QoeTarget>(target))
        << slug;
  }
  EXPECT_EQ(targetFromString("fps"), std::nullopt);
  EXPECT_EQ(targetFromString(""), std::nullopt);
}

TEST(Backend, ForestBackendPredictsItsSingleTarget) {
  const auto backend = constantForestBackend(30.0, QoeTarget::kFrameRate,
                                             "forest:meet/frame_rate");
  EXPECT_EQ(backend->name(), "forest:meet/frame_rate");
  EXPECT_EQ(backend->targets(),
            std::vector<QoeTarget>{QoeTarget::kFrameRate});

  const std::vector<double> features(14, 1.0);
  PredictionSet out;
  backend->predict(features, out);
  EXPECT_EQ(out.get(QoeTarget::kFrameRate), std::optional<double>(30.0));
  EXPECT_EQ(out.size(), 1u);
}

TEST(Backend, ForestBackendRejectsUntrainedForest) {
  EXPECT_THROW(
      ForestBackend(ml::RandomForest{}, QoeTarget::kFrameRate, "x"),
      std::invalid_argument);
}

TEST(Backend, HeuristicBackendAdaptsWindowContext) {
  HeuristicBackend backend;
  EXPECT_EQ(backend.name(), "heuristic");

  const std::vector<double> features(14, 1.0);
  PredictionSet fromFeatures;
  backend.predict(features, fromFeatures);
  EXPECT_TRUE(fromFeatures.empty());  // frames are invisible to features

  WindowContext context;
  context.features = features;
  context.hasHeuristic = true;
  context.heuristicFps = 24.0;
  context.heuristicBitrateKbps = 1500.0;
  context.heuristicFrameJitterMs = 3.5;
  PredictionSet out;
  backend.predictWindow(context, out);
  EXPECT_EQ(out.get(QoeTarget::kFrameRate), std::optional<double>(24.0));
  EXPECT_EQ(out.get(QoeTarget::kBitrateKbps), std::optional<double>(1500.0));
  EXPECT_EQ(out.get(QoeTarget::kFrameJitterMs), std::optional<double>(3.5));
  EXPECT_FALSE(out.has(QoeTarget::kResolution));
}

TEST(Backend, NullBackendPredictsNothing) {
  NullBackend backend;
  const std::vector<double> features(14, 1.0);
  PredictionSet out;
  backend.predict(features, out);
  WindowContext context;
  context.features = features;
  context.hasHeuristic = true;
  backend.predictWindow(context, out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(backend.targets().empty());
}

TEST(Backend, CompositeMergesChildrenLaterWins) {
  auto fps = constantForestBackend(30.0, QoeTarget::kFrameRate, "fps");
  auto bitrate =
      constantForestBackend(900.0, QoeTarget::kBitrateKbps, "bitrate");
  auto fpsOverride = constantForestBackend(15.0, QoeTarget::kFrameRate, "ovr");
  CompositeBackend composite({fps, bitrate, fpsOverride});
  EXPECT_EQ(composite.name(), "fps+bitrate+ovr");
  EXPECT_EQ(composite.targets(),
            (std::vector<QoeTarget>{QoeTarget::kFrameRate,
                                    QoeTarget::kBitrateKbps}));

  const std::vector<double> features(14, 2.0);
  PredictionSet out;
  composite.predict(features, out);
  EXPECT_EQ(out.get(QoeTarget::kFrameRate), std::optional<double>(15.0));
  EXPECT_EQ(out.get(QoeTarget::kBitrateKbps), std::optional<double>(900.0));
}

TEST(Backend, ForestBackendBatchedMatchesScalarBitExactly) {
  // A real trained forest (not a constant stub), so batched evaluation has
  // actual tree structure to disagree on if it were wrong.
  ml::Dataset data;
  data.featureNames.assign(14, "f");
  common::Rng rng(77);
  for (int i = 0; i < 400; ++i) {
    std::vector<double> row(14);
    for (auto& v : row) v = rng.uniform(0.0, 1100.0);
    data.addRow(row, row[0] * 0.05 + (row[3] > 500.0 ? 12.0 : 3.0));
  }
  ml::RandomForest forest;
  ml::ForestOptions options;
  options.numTrees = 9;
  forest.fit(data, ml::TreeTask::kRegression, options, 5);
  const ForestBackend backend(std::move(forest), QoeTarget::kFrameRate,
                              "forest:test/frame_rate");

  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 64; ++i) {
    std::vector<double> row(14);
    for (auto& v : row) v = rng.uniform(0.0, 1100.0);
    rows.push_back(std::move(row));
  }
  std::vector<WindowContext> contexts(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    contexts[i].features = rows[i];
  }
  std::vector<PredictionSet> windowBatched(contexts.size());
  backend.predictWindowBatch(contexts, windowBatched);

  for (std::size_t i = 0; i < rows.size(); ++i) {
    PredictionSet scalar;
    backend.predict(rows[i], scalar);
    EXPECT_TRUE(windowBatched[i] == scalar) << "row " << i;
  }

  std::vector<PredictionSet> wrong(contexts.size() + 1);
  EXPECT_THROW(backend.predictWindowBatch(contexts, wrong),
               std::invalid_argument);
}

TEST(Backend, CompositeBatchedMatchesScalarBitExactly) {
  // Forest children on two targets plus the heuristic adapter: the batched
  // path must reproduce the scalar merge (later children win, heuristic
  // values re-attached from the window context) to the last bit.
  auto fps = constantForestBackend(30.0, QoeTarget::kFrameRate, "fps");
  auto bitrate =
      constantForestBackend(900.0, QoeTarget::kBitrateKbps, "bitrate");
  auto heuristic = std::make_shared<HeuristicBackend>();
  auto fpsOverride = constantForestBackend(15.0, QoeTarget::kFrameRate, "ovr");
  const CompositeBackend composite({heuristic, fps, bitrate, fpsOverride});

  common::Rng rng(91);
  std::vector<std::vector<double>> rows;
  std::vector<WindowContext> contexts;
  for (int i = 0; i < 48; ++i) {
    std::vector<double> row(14);
    for (auto& v : row) v = rng.uniform(0.0, 1000.0);
    rows.push_back(std::move(row));
  }
  for (int i = 0; i < 48; ++i) {
    WindowContext context;
    context.features = rows[static_cast<std::size_t>(i)];
    context.hasHeuristic = i % 3 != 0;  // exercise both adapter branches
    context.heuristicFps = 20.0 + i;
    context.heuristicBitrateKbps = 800.0 + 3.0 * i;
    context.heuristicFrameJitterMs = 1.0 + 0.25 * i;
    contexts.push_back(context);
  }

  std::vector<PredictionSet> batched(contexts.size());
  composite.predictWindowBatch(contexts, batched);
  for (std::size_t i = 0; i < contexts.size(); ++i) {
    PredictionSet scalar;
    composite.predictWindow(contexts[i], scalar);
    EXPECT_TRUE(batched[i] == scalar) << "window " << i;
    // The real models still win their targets over the heuristic.
    EXPECT_EQ(batched[i].get(QoeTarget::kFrameRate),
              std::optional<double>(15.0));
    EXPECT_EQ(batched[i].get(QoeTarget::kBitrateKbps),
              std::optional<double>(900.0));
  }
}

TEST(ModelRegistry, PerVcaSelectionAndHitCounters) {
  ModelRegistry registry;
  registry.registerBackend("meet", QoeTarget::kFrameRate,
                           constantForestBackend(30.0, QoeTarget::kFrameRate,
                                                 "forest:meet/frame_rate"));
  registry.registerBackend("teams", QoeTarget::kFrameRate,
                           constantForestBackend(15.0, QoeTarget::kFrameRate,
                                                 "forest:teams/frame_rate"));
  EXPECT_EQ(registry.size(), 2u);

  const auto meet = registry.resolve("meet", QoeTarget::kFrameRate);
  const auto teams = registry.resolve("teams", QoeTarget::kFrameRate);
  EXPECT_EQ(meet->name(), "forest:meet/frame_rate");
  EXPECT_EQ(teams->name(), "forest:teams/frame_rate");
  EXPECT_NE(meet, teams);
  // The same key resolves to the same shared instance (model sharing).
  EXPECT_EQ(registry.resolve("meet", QoeTarget::kFrameRate), meet);

  const auto stats = registry.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.loads, 0u);
}

TEST(ModelRegistry, FallbackOnMissingModel) {
  ModelRegistry defaulted;
  const auto fallback = defaulted.resolve("webex", QoeTarget::kFrameRate);
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback->name(), "null");
  EXPECT_EQ(fallback, defaulted.fallback());
  EXPECT_EQ(defaulted.stats().misses, 1u);
  EXPECT_EQ(defaulted.stats().hits, 0u);

  ModelRegistryOptions options;
  options.fallback = std::make_shared<HeuristicBackend>();
  ModelRegistry heuristicFallback(options);
  EXPECT_EQ(heuristicFallback.resolve("webex", QoeTarget::kFrameRate)->name(),
            "heuristic");
}

TEST(ModelRegistry, ResolveSetCompositionRules) {
  ModelRegistry registry;
  registry.registerBackend("meet", QoeTarget::kFrameRate,
                           constantForestBackend(30.0, QoeTarget::kFrameRate,
                                                 "fps"));
  registry.registerBackend(
      "meet", QoeTarget::kBitrateKbps,
      constantForestBackend(900.0, QoeTarget::kBitrateKbps, "bitrate"));

  // Every requested target resolved: composite of the two forests.
  const std::vector<QoeTarget> both = {QoeTarget::kFrameRate,
                                       QoeTarget::kBitrateKbps};
  const auto composite = registry.resolveSet("meet", both);
  PredictionSet out;
  composite->predict(std::vector<double>(14, 0.0), out);
  EXPECT_EQ(out.get(QoeTarget::kFrameRate), std::optional<double>(30.0));
  EXPECT_EQ(out.get(QoeTarget::kBitrateKbps), std::optional<double>(900.0));

  // A single resolved target returns the backend itself, no wrapper.
  const std::vector<QoeTarget> one = {QoeTarget::kFrameRate};
  EXPECT_EQ(registry.resolveSet("meet", one)->name(), "fps");

  // Nothing resolved: the fallback itself.
  EXPECT_EQ(registry.resolveSet("webex", both), registry.fallback());

  // Partially resolved with a predicting fallback: the fallback fills what
  // it can but the real model wins its own target.
  ModelRegistryOptions options;
  options.fallback = std::make_shared<HeuristicBackend>();
  ModelRegistry partial(options);
  partial.registerBackend("meet", QoeTarget::kFrameRate,
                          constantForestBackend(30.0, QoeTarget::kFrameRate,
                                                "fps"));
  const auto mixed = partial.resolveSet("meet", both);
  WindowContext context;
  const std::vector<double> features(14, 0.0);
  context.features = features;
  context.hasHeuristic = true;
  context.heuristicFps = 22.0;
  context.heuristicBitrateKbps = 800.0;
  PredictionSet merged;
  mixed->predictWindow(context, merged);
  EXPECT_EQ(merged.get(QoeTarget::kFrameRate), std::optional<double>(30.0));
  EXPECT_EQ(merged.get(QoeTarget::kBitrateKbps), std::optional<double>(800.0));
}

class ModelRegistryDisk : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vcaqoe_registry_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// A node-tree model at `<vca>/ipudp/<target>.forest`.
  void saveModel(const std::string& vca, QoeTarget target, double constant) {
    saveForestIn(std::filesystem::path(dir_) / vca / "ipudp", target,
                 constant);
  }

  /// The same model at the set-less `<vca>/<target>.forest`, a path the
  /// registry does not probe.
  void saveSetLessModel(const std::string& vca, QoeTarget target,
                        double constant) {
    saveForestIn(std::filesystem::path(dir_) / vca, target, constant);
  }

  static void saveForestIn(const std::filesystem::path& dir, QoeTarget target,
                           double constant) {
    std::filesystem::create_directories(dir);
    const auto path =
        dir / (std::string(toString(target)) + ml::kForestFileExtension);
    ml::saveForestFile(engine::syntheticForest(1, 0, constant), path.string());
  }

  /// A model in the feature-set-keyed layout `<vca>/<set>/<target>.fforest`,
  /// declaring `featureCount`-wide rows.
  void saveSetModel(const std::string& vca, features::FeatureSet set,
                    QoeTarget target, double constant, int featureCount) {
    const auto setDir = std::filesystem::path(dir_) / vca /
                        std::string(features::toString(set));
    std::filesystem::create_directories(setDir);
    ml::saveFlattenedForestFile(
        ml::FlattenedForest(
            engine::syntheticForest(1, 0, constant, featureCount)),
        (setDir / (std::string(toString(target)) +
                   ml::kFlatForestFileExtension))
            .string());
  }

  std::string dir_;
};

TEST_F(ModelRegistryDisk, LazyLoadsFromRegistryLayout) {
  saveModel("teams", QoeTarget::kFrameRate, 21.0);

  ModelRegistryOptions options;
  options.modelDir = dir_;
  ModelRegistry registry(options);

  const auto loaded = registry.resolve("teams", QoeTarget::kFrameRate);
  EXPECT_EQ(loaded->name(), "forest:teams/ipudp/frame_rate");
  PredictionSet out;
  loaded->predict(std::vector<double>(14, 0.0), out);
  EXPECT_EQ(out.get(QoeTarget::kFrameRate), std::optional<double>(21.0));
  auto stats = registry.stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // Second resolution is a cache hit — the disk is not probed again.
  EXPECT_EQ(registry.resolve("teams", QoeTarget::kFrameRate), loaded);
  stats = registry.stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // A target with no file on disk is a (cached) miss served by the
  // fallback, counted once per resolution.
  EXPECT_EQ(registry.resolve("teams", QoeTarget::kBitrateKbps),
            registry.fallback());
  EXPECT_EQ(registry.resolve("teams", QoeTarget::kBitrateKbps),
            registry.fallback());
  stats = registry.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.loads, 1u);
}

TEST_F(ModelRegistryDisk, CountsLoadWallTime) {
  saveModel("teams", QoeTarget::kFrameRate, 21.0);
  ModelRegistryOptions options;
  options.modelDir = dir_;
  ModelRegistry registry(options);
  registry.resolve("teams", QoeTarget::kFrameRate);
  const auto afterLoad = registry.stats().loadWallNs;
  EXPECT_GT(afterLoad, 0u);
  // A cache hit touches no file and adds nothing.
  registry.resolve("teams", QoeTarget::kFrameRate);
  EXPECT_EQ(registry.stats().loadWallNs, afterLoad);

  // Registered backends never go to disk.
  ModelRegistry registered;
  registered.registerBackend("meet", QoeTarget::kFrameRate,
                             constantForestBackend(30.0, QoeTarget::kFrameRate,
                                                   "forest:meet/frame_rate"));
  registered.resolve("meet", QoeTarget::kFrameRate);
  registered.resolve("webex", QoeTarget::kFrameRate);
  EXPECT_EQ(registered.stats().loadWallNs, 0u);
}

TEST_F(ModelRegistryDisk, LazyLoadsFlattenedLayoutFirst) {
  // A deployed `.fforest` is served directly (no node tree on disk at
  // all), and when both layouts exist the flat one wins the probe.
  const auto teamsDir = std::filesystem::path(dir_) / "teams" / "ipudp";
  std::filesystem::create_directories(teamsDir);
  ml::saveFlattenedForestFile(
      ml::FlattenedForest(engine::syntheticForest(1, 0, 33.0)),
      (teamsDir / (std::string(toString(QoeTarget::kFrameRate)) +
                   ml::kFlatForestFileExtension))
          .string());
  saveModel("teams", QoeTarget::kFrameRate, 11.0);  // node-tree sibling

  ModelRegistryOptions options;
  options.modelDir = dir_;
  ModelRegistry registry(options);
  const auto loaded = registry.resolve("teams", QoeTarget::kFrameRate);
  EXPECT_EQ(loaded->name(), "forest:teams/ipudp/frame_rate");
  PredictionSet out;
  loaded->predict(std::vector<double>(14, 0.0), out);
  EXPECT_EQ(out.get(QoeTarget::kFrameRate), std::optional<double>(33.0));
  EXPECT_EQ(registry.stats().loads, 1u);

  // A malformed flat file is loud (counted) but does not suppress a
  // loadable node-tree sibling — a crash mid-write of the .fforest must
  // not take a still-good deployed model out of service.
  const auto meetDir = std::filesystem::path(dir_) / "meet" / "ipudp";
  std::filesystem::create_directories(meetDir);
  {
    std::ofstream bad(meetDir / "frame_rate.fforest");
    bad << "vcaqoe-forest-flat 1\ntask regression\ntruncated";
  }
  saveModel("meet", QoeTarget::kFrameRate, 21.0);
  const auto recovered = registry.resolve("meet", QoeTarget::kFrameRate);
  EXPECT_NE(recovered, registry.fallback());
  PredictionSet fromSibling;
  recovered->predict(std::vector<double>(14, 0.0), fromSibling);
  EXPECT_EQ(fromSibling.get(QoeTarget::kFrameRate),
            std::optional<double>(21.0));
  EXPECT_EQ(registry.stats().loadFailures, 1u);
  EXPECT_EQ(registry.stats().loads, 2u);

  // An otherwise valid flat file with a `layout` line after the task is
  // malformed in the same way.
  const auto webexDir = std::filesystem::path(dir_) / "webex" / "ipudp";
  std::filesystem::create_directories(webexDir);
  std::ostringstream flat;
  ml::saveFlattenedForest(
      ml::FlattenedForest(engine::syntheticForest(1, 0, 33.0)), flat);
  std::string marked = flat.str();
  marked.insert(marked.find('\n', marked.find("task ")) + 1,
                "layout quantized\n");
  {
    std::ofstream bad(webexDir / "frame_rate.fforest");
    bad << marked;
  }
  saveModel("webex", QoeTarget::kFrameRate, 9.0);
  const auto unmarked = registry.resolve("webex", QoeTarget::kFrameRate);
  EXPECT_NE(unmarked, registry.fallback());
  PredictionSet fromUnmarked;
  unmarked->predict(std::vector<double>(14, 0.0), fromUnmarked);
  EXPECT_EQ(fromUnmarked.get(QoeTarget::kFrameRate),
            std::optional<double>(9.0));
  EXPECT_EQ(registry.stats().loadFailures, 2u);
  EXPECT_EQ(registry.stats().loads, 3u);
}

TEST_F(ModelRegistryDisk, MalformedModelFileCountsLoadFailure) {
  const auto vcaDir = std::filesystem::path(dir_) / "meet" / "ipudp";
  std::filesystem::create_directories(vcaDir);
  {
    std::ofstream bad(vcaDir / "frame_rate.forest");
    bad << "this is not a vcaqoe forest\n";
  }

  ModelRegistryOptions options;
  options.modelDir = dir_;
  ModelRegistry registry(options);
  EXPECT_EQ(registry.resolve("meet", QoeTarget::kFrameRate),
            registry.fallback());
  const auto stats = registry.stats();
  EXPECT_EQ(stats.loadFailures, 1u);
  EXPECT_EQ(stats.loads, 0u);
  // The failure is cached; later resolutions are plain misses.
  EXPECT_EQ(registry.resolve("meet", QoeTarget::kFrameRate),
            registry.fallback());
  EXPECT_EQ(registry.stats().loadFailures, 1u);
}

TEST_F(ModelRegistryDisk, ConcurrentResolveFromManyWorkers) {
  saveModel("meet", QoeTarget::kFrameRate, 30.0);
  saveModel("teams", QoeTarget::kFrameRate, 15.0);

  ModelRegistryOptions options;
  options.modelDir = dir_;
  ModelRegistry registry(options);

  // N workers resolving the same keys concurrently (including the lazy
  // first load and negative caching for webex) must agree on the instances
  // and never race — this test runs under the sanitizer CI job.
  constexpr int kThreads = 8;
  constexpr int kResolvesPerThread = 500;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &mismatches] {
      for (int i = 0; i < kResolvesPerThread; ++i) {
        const auto meet = registry.resolve("meet", QoeTarget::kFrameRate);
        const auto teams = registry.resolve("teams", QoeTarget::kFrameRate);
        const auto webex = registry.resolve("webex", QoeTarget::kFrameRate);
        if (meet->name() != "forest:meet/ipudp/frame_rate" ||
            teams->name() != "forest:teams/ipudp/frame_rate" ||
            webex != registry.fallback()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);

  const auto stats = registry.stats();
  EXPECT_EQ(stats.loads, 2u);
  EXPECT_EQ(stats.loadFailures, 0u);
  // Every resolution was counted exactly once.
  EXPECT_EQ(stats.hits + stats.misses + stats.loads,
            static_cast<std::uint64_t>(kThreads) * kResolvesPerThread * 3);
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kThreads) *
                              kResolvesPerThread);
}

TEST_F(ModelRegistryDisk, FeatureSetLayoutAndLegacyCompatibility) {
  // A 24-wide kRtp model in the set-keyed layout.
  saveSetModel("teams", features::FeatureSet::kRtp, QoeTarget::kFrameRate,
               24.0, 24);

  ModelRegistryOptions options;
  options.modelDir = dir_;
  ModelRegistry registry(options);

  const auto rtp = registry.resolve("teams", QoeTarget::kFrameRate,
                                    features::FeatureSet::kRtp);
  EXPECT_EQ(rtp->name(), "forest:teams/rtp/frame_rate");
  PredictionSet out;
  rtp->predict(std::vector<double>(24, 0.0), out);
  EXPECT_EQ(out.get(QoeTarget::kFrameRate), std::optional<double>(24.0));

  // When a legacy set-less file sits beside the set-keyed directory, the
  // set-keyed model serves kIpUdp.
  saveSetModel("meet", features::FeatureSet::kIpUdp, QoeTarget::kFrameRate,
               31.0, 14);
  saveSetLessModel("meet", QoeTarget::kFrameRate, 11.0);
  const auto meet = registry.resolve("meet", QoeTarget::kFrameRate);
  EXPECT_EQ(meet->name(), "forest:meet/ipudp/frame_rate");
  PredictionSet preferred;
  meet->predict(std::vector<double>(14, 0.0), preferred);
  EXPECT_EQ(preferred.get(QoeTarget::kFrameRate),
            std::optional<double>(31.0));

  // The legacy layout is never probed for kRtp: a 14-wide legacy model
  // cannot leak into the 24-wide row path.
  saveSetLessModel("webex", QoeTarget::kFrameRate, 9.0);
  EXPECT_EQ(registry.resolve("webex", QoeTarget::kFrameRate,
                             features::FeatureSet::kRtp),
            registry.fallback());
  EXPECT_EQ(registry.stats().loadFailures, 0u);
}

TEST_F(ModelRegistryDisk, SetLessLayoutIsNotServed) {
  // A model only at the set-less `<vca>/<target>.forest` is found for
  // neither feature set: each resolution serves the fallback and counts a
  // miss, and the file is neither loaded nor counted as a failure.
  saveSetLessModel("teams", QoeTarget::kFrameRate, 14.0);

  ModelRegistryOptions options;
  options.modelDir = dir_;
  ModelRegistry registry(options);
  EXPECT_EQ(registry.resolve("teams", QoeTarget::kFrameRate),
            registry.fallback());
  EXPECT_EQ(registry.resolve("teams", QoeTarget::kFrameRate,
                             features::FeatureSet::kRtp),
            registry.fallback());
  const auto stats = registry.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.loads, 0u);
  EXPECT_EQ(stats.loadFailures, 0u);
}

TEST_F(ModelRegistryDisk, MismatchedWidthModelFailsLoadAndServesFallback) {
  // A 24-wide model parked in the ipudp/ directory: it parses fine, but
  // its declared width exceeds the 14-wide rows the set produces, so the
  // load must fail loudly instead of serving a backend that reads past
  // every feature row.
  saveSetModel("teams", features::FeatureSet::kIpUdp, QoeTarget::kFrameRate,
               24.0, 24);

  ModelRegistryOptions options;
  options.modelDir = dir_;
  ModelRegistry registry(options);
  EXPECT_EQ(registry.resolve("teams", QoeTarget::kFrameRate),
            registry.fallback());
  auto stats = registry.stats();
  EXPECT_EQ(stats.loadFailures, 1u);
  EXPECT_EQ(stats.loads, 0u);
  // Negative-cached like any other failed probe.
  EXPECT_EQ(registry.resolve("teams", QoeTarget::kFrameRate),
            registry.fallback());
  EXPECT_EQ(registry.stats().loadFailures, 1u);

  // A *narrower* model is legal: declared over 14 features, it evaluates
  // the prefix of the 24-wide kRtp rows.
  saveSetModel("meet", features::FeatureSet::kRtp, QoeTarget::kFrameRate,
               19.0, 14);
  const auto narrow = registry.resolve("meet", QoeTarget::kFrameRate,
                                       features::FeatureSet::kRtp);
  ASSERT_NE(narrow, registry.fallback());
  PredictionSet out;
  narrow->predict(std::vector<double>(24, 0.0), out);
  EXPECT_EQ(out.get(QoeTarget::kFrameRate), std::optional<double>(19.0));
}

TEST(Backend, ForestBackendValidatesDeclaredWidthAgainstRows) {
  const auto wide = engine::syntheticForest(2, 2, 10.0, 24);
  EXPECT_THROW(
      ForestBackend(wide, QoeTarget::kFrameRate, "forest:x", 14),
      std::invalid_argument);
  EXPECT_THROW(ForestBackend(ml::FlattenedForest(wide),
                             QoeTarget::kFrameRate, "forest:x", 14),
               std::invalid_argument);
  // Matching or omitted expected width passes.
  EXPECT_NO_THROW(ForestBackend(wide, QoeTarget::kFrameRate, "forest:x", 24));
  EXPECT_NO_THROW(ForestBackend(wide, QoeTarget::kFrameRate, "forest:x"));
  // Narrower than the rows is allowed — prefix evaluation.
  const auto narrow = engine::syntheticForest(2, 2, 10.0, 14);
  EXPECT_NO_THROW(
      ForestBackend(narrow, QoeTarget::kFrameRate, "forest:x", 24));
}

TEST(MediaClassifierVca, PortPriorVerdictOnEitherEndpoint) {
  const core::MediaClassifier classifier;
  netflow::FlowKey key;
  key.srcPort = 51000;
  key.dstPort = 19305;
  EXPECT_EQ(classifier.classifyVca(key), core::VcaClass::kMeet);
  key.dstPort = 3478;
  EXPECT_EQ(classifier.classifyVca(key), core::VcaClass::kTeams);
  key.dstPort = 9000;
  EXPECT_EQ(classifier.classifyVca(key), core::VcaClass::kWebex);
  key.dstPort = 443;
  EXPECT_EQ(classifier.classifyVca(key), core::VcaClass::kUnknown);
  // Upstream capture: the service port sits on the source side.
  key.srcPort = 19309;
  EXPECT_EQ(classifier.classifyVca(key), core::VcaClass::kMeet);

  EXPECT_EQ(core::toString(core::VcaClass::kMeet), "meet");
  EXPECT_EQ(core::toString(core::VcaClass::kTeams), "teams");
  EXPECT_EQ(core::toString(core::VcaClass::kWebex), "webex");
  EXPECT_EQ(core::toString(core::VcaClass::kUnknown), "unknown");
}

// ---------------------------------------------------------------------------
// Engine integration.
// ---------------------------------------------------------------------------

netflow::FlowKey keyWithServicePort(std::uint32_t index,
                                    std::uint16_t servicePort) {
  auto key = engine::syntheticFlowKey(index);
  key.dstPort = servicePort;
  return key;
}

std::shared_ptr<ModelRegistry> twoVcaRegistry() {
  auto registry = std::make_shared<ModelRegistry>();
  registry->registerBackend("meet", QoeTarget::kFrameRate,
                            constantForestBackend(30.0, QoeTarget::kFrameRate,
                                                  "forest:meet/frame_rate"));
  registry->registerBackend("teams", QoeTarget::kFrameRate,
                            constantForestBackend(15.0, QoeTarget::kFrameRate,
                                                  "forest:teams/frame_rate"));
  return registry;
}

/// The acceptance gate of the redesign: a pcap replayed through
/// MultiFlowEngine with a two-VCA ModelRegistry gives every flow the
/// backend its VCA classification selects, and the full results — features,
/// heuristics, and typed predictions — are bit-identical across worker
/// counts.
TEST(EngineInference, ReplayedPcapResolvesPerVcaModelsDeterministically) {
  // 5 flows: 2 Meet (dst 19305), 2 Teams (dst 3478), 1 unknown (dst 443).
  struct FlowSpec {
    netflow::FlowKey key;
    const char* vca;
    std::optional<double> wantFps;
  };
  const std::vector<FlowSpec> specs = {
      {keyWithServicePort(0, 19305), "meet", 30.0},
      {keyWithServicePort(1, 19305), "meet", 30.0},
      {keyWithServicePort(2, 3478), "teams", 15.0},
      {keyWithServicePort(3, 3478), "teams", 15.0},
      {keyWithServicePort(4, 443), "unknown", std::nullopt},
  };

  std::vector<ingest::SourcePacket> stream;
  for (std::size_t f = 0; f < specs.size(); ++f) {
    const auto trace =
        engine::syntheticFlowTrace(100 + f, 800, static_cast<common::TimeNs>(f) *
                                                     47'000);
    for (const auto& packet : trace) stream.push_back({specs[f].key, packet});
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const ingest::SourcePacket& a,
                      const ingest::SourcePacket& b) {
                     return a.packet.arrivalNs < b.packet.arrivalNs;
                   });
  netflow::PcapWriter writer;
  for (const auto& sp : stream) writer.write(sp.flow, sp.packet);
  const auto capture = writer.bytes();

  const auto runWithWorkers = [&](int workers) {
    engine::EngineOptions options;
    options.numWorkers = workers;
    options.dispatchBatch = 32;
    options.registry = twoVcaRegistry();
    options.targets = {QoeTarget::kFrameRate};
    engine::MultiFlowEngine eng(options);
    ingest::PcapReplaySource source{std::span<const std::uint8_t>(capture)};
    auto report = ingest::replay(source, eng, /*pollEvery=*/128);

    // Per-flow verdicts and windows carry the VCA's own model.
    std::size_t checkedFlows = 0;
    for (const auto& spec : specs) {
      const auto id = eng.flows().find(spec.key);
      EXPECT_TRUE(id.has_value()) << spec.vca;
      if (!id.has_value()) continue;
      const auto& stats = eng.flowStats()[*id];
      EXPECT_EQ(stats.vca, spec.vca);
      if (spec.wantFps.has_value()) {
        EXPECT_EQ(stats.backendName(),
                  std::string("forest:") + spec.vca + "/frame_rate");
      } else {
        EXPECT_EQ(stats.backendName(), "null");
      }
      std::size_t windows = 0;
      for (const auto& result : report.results) {
        if (result.flow != *id) continue;
        ++windows;
        EXPECT_EQ(result.output.predictions.get(QoeTarget::kFrameRate),
                  spec.wantFps);
        EXPECT_FALSE(result.output.predictions.has(QoeTarget::kBitrateKbps));
      }
      EXPECT_GT(windows, 0u) << "flow " << spec.vca;
      ++checkedFlows;
    }
    EXPECT_EQ(checkedFlows, specs.size());
    return report;
  };

  const auto one = runWithWorkers(1);
  const auto four = runWithWorkers(4);

  // Bit-identical across worker counts, typed predictions included.
  ASSERT_EQ(one.results.size(), four.results.size());
  for (std::size_t i = 0; i < one.results.size(); ++i) {
    const auto& a = one.results[i];
    const auto& b = four.results[i];
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_EQ(a.output.window, b.output.window);
    EXPECT_EQ(a.output.features, b.output.features);
    EXPECT_EQ(a.output.heuristic.fps, b.output.heuristic.fps);
    EXPECT_EQ(a.output.heuristic.bitrateKbps, b.output.heuristic.bitrateKbps);
    EXPECT_EQ(a.output.heuristic.frameJitterMs,
              b.output.heuristic.frameJitterMs);
    EXPECT_TRUE(a.output.predictions == b.output.predictions);
  }
}

/// Builds a steady 1000-byte / 10 ms flow (all packets above V_min).
netflow::PacketTrace steadyTrace(common::TimeNs startNs, int packets) {
  netflow::PacketTrace trace;
  for (int i = 0; i < packets; ++i) {
    netflow::Packet p;
    p.arrivalNs = startNs + static_cast<common::TimeNs>(i) * 10'000'000LL;
    p.sizeBytes = 1000;
    trace.push_back(p);
  }
  return trace;
}

TEST(EngineInference, EvictedThenReturningFlowReResolvesItsBackend) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->registerBackend("meet", QoeTarget::kFrameRate,
                            constantForestBackend(30.0, QoeTarget::kFrameRate,
                                                  "forest:meet/v1"));

  engine::EngineOptions options;
  options.numWorkers = 2;
  options.dispatchBatch = 1;
  options.idleTimeoutNs = 3 * common::kNanosPerSecond;
  options.registry = registry;
  options.targets = {QoeTarget::kFrameRate};
  engine::MultiFlowEngine eng(options);

  const auto meetKey = keyWithServicePort(1, 19305);
  const auto teamsKey = keyWithServicePort(2, 3478);

  // Generation 0 of the meet flow, then silence while teams advances the
  // clock past the idle timeout.
  for (const auto& p : steadyTrace(0, 200)) eng.onPacket(meetKey, p);
  EXPECT_EQ(eng.stats().registry.hits, 1u);
  for (const auto& p : steadyTrace(2 * common::kNanosPerSecond, 800)) {
    eng.onPacket(teamsKey, p);
  }
  EXPECT_TRUE(eng.flowStats()[0].evicted);

  // A new model generation is deployed while the flow is away.
  registry->registerBackend("meet", QoeTarget::kFrameRate,
                            constantForestBackend(60.0, QoeTarget::kFrameRate,
                                                  "forest:meet/v2"));

  // The returning flow is a fresh generation: admission re-resolves and
  // picks up the new model, never the evicted generation's pointer.
  for (const auto& p : steadyTrace(50 * common::kNanosPerSecond, 200)) {
    eng.onPacket(meetKey, p);
  }
  const auto returnedId = eng.flows().find(meetKey);
  ASSERT_TRUE(returnedId.has_value());
  EXPECT_EQ(*returnedId, 2u);
  EXPECT_EQ(eng.flowStats()[0].backendName(), "forest:meet/v1");
  // No teams model registered: the fallback served the teams flow.
  EXPECT_EQ(eng.flowStats()[1].backendName(), "null");
  EXPECT_EQ(eng.flowStats()[2].backendName(), "forest:meet/v2");
  // One resolution per admission: meet gen 0 (hit), teams (miss -> fallback),
  // meet gen 1 (hit).
  EXPECT_EQ(eng.stats().registry.hits, 2u);
  EXPECT_EQ(eng.stats().registry.misses, 1u);

  const auto results = eng.finish();
  std::size_t gen0 = 0;
  std::size_t gen1 = 0;
  for (const auto& result : results) {
    const auto fps = result.output.predictions.get(QoeTarget::kFrameRate);
    if (result.flow == 0) {
      ++gen0;
      EXPECT_EQ(fps, std::optional<double>(30.0));
    } else if (result.flow == 2) {
      ++gen1;
      EXPECT_EQ(fps, std::optional<double>(60.0));
    }
  }
  EXPECT_GT(gen0, 0u);
  EXPECT_GT(gen1, 0u);
}

/// Registry counters across flow eviction + re-admission, asserted as
/// per-phase deltas (not end totals): every admission charges exactly one
/// hit/miss/load per requested target, eviction charges nothing, and a
/// returning generation re-resolves from cache (no disk re-probe).
TEST_F(ModelRegistryDisk, CountersAcrossEvictionAndReadmissionDeltas) {
  saveModel("meet", QoeTarget::kFrameRate, 30.0);

  ModelRegistryOptions options;
  options.modelDir = dir_;
  auto registry = std::make_shared<ModelRegistry>(options);

  engine::EngineOptions engineOptions;
  engineOptions.numWorkers = 2;
  engineOptions.dispatchBatch = 1;
  engineOptions.idleTimeoutNs = 3 * common::kNanosPerSecond;
  engineOptions.registry = registry;
  engineOptions.targets = {QoeTarget::kFrameRate};
  engine::MultiFlowEngine eng(engineOptions);

  const auto meetKey = keyWithServicePort(1, 19305);
  const auto webexKey = keyWithServicePort(2, 9000);

  const auto delta = [&](const RegistryStats& before) {
    const auto now = registry->stats();
    return RegistryStats{now.hits - before.hits, now.misses - before.misses,
                         now.loads - before.loads,
                         now.loadFailures - before.loadFailures,
                         now.loadWallNs - before.loadWallNs};
  };

  // Phase 1: meet admission — the first probe of the key lazy-loads from
  // disk; exactly one load, no hit, no miss.
  auto before = registry->stats();
  for (const auto& p : steadyTrace(0, 100)) eng.onPacket(meetKey, p);
  auto d = delta(before);
  EXPECT_EQ(d.loads, 1u);
  EXPECT_EQ(d.hits, 0u);
  EXPECT_EQ(d.misses, 0u);

  // Phase 2: webex admission (no model on disk) — exactly one miss; its
  // traffic also advances the clock past meet's idle timeout.
  before = registry->stats();
  for (const auto& p : steadyTrace(2 * common::kNanosPerSecond, 600)) {
    eng.onPacket(webexKey, p);
  }
  d = delta(before);
  EXPECT_EQ(d.misses, 1u);
  EXPECT_EQ(d.hits, 0u);
  EXPECT_EQ(d.loads, 0u);
  ASSERT_TRUE(eng.flowStats()[0].evicted);

  // Phase 3: eviction itself charged nothing further; the returning meet
  // generation re-resolves as exactly one cache hit — the disk is not
  // re-probed.
  before = registry->stats();
  for (const auto& p : steadyTrace(60 * common::kNanosPerSecond, 100)) {
    eng.onPacket(meetKey, p);
  }
  d = delta(before);
  EXPECT_EQ(d.hits, 1u);
  EXPECT_EQ(d.misses, 0u);
  EXPECT_EQ(d.loads, 0u);
  EXPECT_EQ(d.loadFailures, 0u);

  const auto meetId = eng.flows().find(meetKey);
  ASSERT_TRUE(meetId.has_value());
  EXPECT_EQ(*meetId, 2u);
  EXPECT_EQ(eng.flowStats()[2].backendName(), "forest:meet/ipudp/frame_rate");
  (void)eng.finish();
}

// ---------------------------------------------------------------------------
// Cross-flow batched inference.
// ---------------------------------------------------------------------------

/// The batching acceptance gate: a multi-VCA stream (two forest-backed
/// flows, one unknown flow served by a predicting heuristic fallback) run
/// with cross-flow batching enabled — across batch sizes, flush deadlines,
/// and worker counts — produces results bit-identical to the unbatched
/// engine, while the batching counters prove the batched path actually ran.
TEST(EngineInference, BatchedEngineBitIdenticalToUnbatched) {
  const std::vector<netflow::FlowKey> keys = {
      keyWithServicePort(0, 19305),  // meet  -> forest
      keyWithServicePort(1, 3478),   // teams -> forest
      keyWithServicePort(2, 443),    // unknown -> heuristic fallback
  };
  std::vector<ingest::SourcePacket> stream;
  for (std::size_t f = 0; f < keys.size(); ++f) {
    const auto trace = engine::syntheticFlowTrace(
        300 + f, 1200, static_cast<common::TimeNs>(f) * 53'000);
    for (const auto& packet : trace) stream.push_back({keys[f], packet});
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const ingest::SourcePacket& a,
                      const ingest::SourcePacket& b) {
                     return a.packet.arrivalNs < b.packet.arrivalNs;
                   });

  const auto makeRegistry = [] {
    ModelRegistryOptions options;
    options.fallback = std::make_shared<HeuristicBackend>();
    auto registry = std::make_shared<ModelRegistry>(options);
    registry->registerBackend("meet", QoeTarget::kFrameRate,
                              constantForestBackend(
                                  30.0, QoeTarget::kFrameRate, "meet/fps"));
    registry->registerBackend("teams", QoeTarget::kFrameRate,
                              constantForestBackend(
                                  15.0, QoeTarget::kFrameRate, "teams/fps"));
    return registry;
  };

  struct Config {
    int workers;
    std::size_t batch;
    common::DurationNs flushNs;
  };
  const auto run = [&](const Config& config) {
    engine::EngineOptions options;
    options.numWorkers = config.workers;
    options.dispatchBatch = 32;
    options.inferenceBatch = config.batch;
    options.inferenceFlushNs = config.flushNs;
    options.registry = makeRegistry();
    options.targets = {QoeTarget::kFrameRate, QoeTarget::kBitrateKbps};
    engine::MultiFlowEngine eng(options);
    for (const auto& sp : stream) eng.onPacket(sp.flow, sp.packet);
    auto results = eng.finish();
    return std::make_pair(std::move(results), eng.stats());
  };

  const auto [reference, referenceStats] = run({1, 1, 0});
  ASSERT_GT(reference.size(), 0u);
  EXPECT_EQ(referenceStats.batchedWindows, 0u);
  EXPECT_EQ(referenceStats.inferenceBatches, 0u);
  // The heuristic fallback must be predicting (unknown flow included), so
  // batching has heuristic re-attachment to get wrong.
  bool sawHeuristic = false;
  for (const auto& result : reference) {
    sawHeuristic =
        sawHeuristic || result.output.predictions.has(QoeTarget::kBitrateKbps);
  }
  EXPECT_TRUE(sawHeuristic);

  for (const Config& config :
       {Config{1, 8, 0}, Config{4, 8, 0}, Config{4, 4096, 0},
        Config{4, 16, 2 * common::kNanosPerSecond}}) {
    const auto [results, stats] = run(config);
    ASSERT_EQ(results.size(), reference.size())
        << config.workers << "w batch " << config.batch;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& a = reference[i];
      const auto& b = results[i];
      EXPECT_EQ(a.flow, b.flow);
      EXPECT_EQ(a.output.window, b.output.window);
      EXPECT_EQ(a.output.features, b.output.features);
      EXPECT_EQ(a.output.heuristic.fps, b.output.heuristic.fps);
      EXPECT_EQ(a.output.heuristic.bitrateKbps,
                b.output.heuristic.bitrateKbps);
      EXPECT_EQ(a.output.heuristic.frameJitterMs,
                b.output.heuristic.frameJitterMs);
      EXPECT_TRUE(a.output.predictions == b.output.predictions)
          << "window " << i << " at " << config.workers << "w batch "
          << config.batch;
    }
    // Every window went through the batcher, in real batches.
    EXPECT_EQ(stats.batchedWindows, results.size());
    EXPECT_GT(stats.inferenceBatches, 0u);
    EXPECT_LE(stats.inferenceBatches, stats.batchedWindows);
  }
}

TEST(EngineInference, BatchedEvictionFlushesTrailingWindows) {
  // Finalize-on-evict inside the batched path: the evicted flow's trailing
  // windows ride the batcher and still come out predicted.
  auto registry = std::make_shared<ModelRegistry>();
  registry->registerBackend("meet", QoeTarget::kFrameRate,
                            constantForestBackend(30.0, QoeTarget::kFrameRate,
                                                  "forest:meet/v1"));

  engine::EngineOptions options;
  options.numWorkers = 2;
  options.dispatchBatch = 1;
  options.idleTimeoutNs = 3 * common::kNanosPerSecond;
  options.inferenceBatch = 64;
  options.inferenceFlushNs = 100 * common::kNanosPerSecond;  // size/finalize only
  options.registry = registry;
  options.targets = {QoeTarget::kFrameRate};
  engine::MultiFlowEngine eng(options);

  const auto meetKey = keyWithServicePort(1, 19305);
  const auto teamsKey = keyWithServicePort(2, 3478);
  for (const auto& p : steadyTrace(0, 200)) eng.onPacket(meetKey, p);
  for (const auto& p : steadyTrace(2 * common::kNanosPerSecond, 800)) {
    eng.onPacket(teamsKey, p);
  }
  EXPECT_TRUE(eng.flowStats()[0].evicted);

  // Eviction drains the batcher: the evicted flow's trailing windows must
  // become poll()-visible without finish(), even though the batch is far
  // from full and the deadline is far away (the shard could stay quiet
  // forever in a live capture). The worker processes the evict control
  // item asynchronously, so poll until it lands.
  std::vector<engine::EngineResult> polled;
  const auto meetPolled = [&polled] {
    std::size_t n = 0;
    for (const auto& result : polled) n += result.flow == 0 ? 1 : 0;
    return n;
  };
  while (meetPolled() == 0) {
    eng.poll(polled);
    std::this_thread::yield();
  }

  auto results = eng.finish();
  results.insert(results.end(), polled.begin(), polled.end());
  std::size_t meetWindows = 0;
  for (const auto& result : results) {
    if (result.flow != 0) continue;
    ++meetWindows;
    EXPECT_EQ(result.output.predictions.get(QoeTarget::kFrameRate),
              std::optional<double>(30.0));
  }
  EXPECT_GT(meetWindows, 0u);
  EXPECT_EQ(eng.stats().batchedWindows, results.size());
}

}  // namespace
}  // namespace vcaqoe::inference
