// §7 "System considerations" — microbenchmarks for the per-packet /
// per-window costs a network-wide deployment would pay: media
// classification, Algorithm 1 frame assembly, feature extraction, RTP
// parsing, and random-forest inference.
//
// Written against the Google Benchmark API; when the system package is
// missing, bench/CMakeLists.txt builds it against the vendored minimal
// harness in bench_common.hpp instead, so the binary always exists.
#ifdef VCAQOE_USE_MINIBENCH
#include "bench/bench_common.hpp"
#else
#include <benchmark/benchmark.h>
#endif

#include <deque>
#include <random>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "common/stats.hpp"
#include "core/evaluation.hpp"
#include "engine/flow_table.hpp"
#include "engine/synthetic.hpp"
#include "ml/flattened_forest.hpp"
#include "core/frame_heuristic.hpp"
#include "core/lookback_ring.hpp"
#include "core/media_classifier.hpp"
#include "core/session.hpp"
#include "features/columns.hpp"
#include "datasets/generators.hpp"
#include "datasets/vca_profiles.hpp"
#include "features/extractors.hpp"
#include "features/windows.hpp"
#include "ml/random_forest.hpp"
#include "netem/conditions.hpp"
#include "rtp/rtp.hpp"

namespace {

using namespace vcaqoe;

const core::LabeledSession& sampleSession() {
  static const auto session = [] {
    const auto profile = datasets::teamsProfile(datasets::Deployment::kLab);
    netem::NdtTraceSynthesizer synth(5);
    return datasets::simulateSession(profile, synth.synthesize(60), 60.0, 11,
                                     0);
  }();
  return session;
}

void BM_MediaClassification(benchmark::State& state) {
  const auto& trace = sampleSession().packets;
  const core::MediaClassifier classifier;
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.filterVideo(trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_MediaClassification);

void BM_Algorithm1FrameAssembly(benchmark::State& state) {
  const core::MediaClassifier classifier;
  const auto video = classifier.filterVideo(sampleSession().packets);
  const auto params = core::defaultHeuristicParams("teams");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::assembleFramesIpUdp(video, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(video.size()));
}
BENCHMARK(BM_Algorithm1FrameAssembly);

// --- Algorithm-1 lookback matching: deque-of-pairs (the pre-columnar
// streaming layout, replicated here as the baseline column) vs the
// LookbackRing's SoA sweep. Same inputs, same frame-id outputs; the only
// difference is the memory layout of the match scan.

void BM_Algorithm1LookbackDeque(benchmark::State& state) {
  const core::MediaClassifier classifier;
  const auto video = classifier.filterVideo(sampleSession().packets);
  const auto lookback = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kDelta = 2;
  for (auto _ : state) {
    std::deque<std::pair<std::uint32_t, std::uint64_t>> recent;
    std::uint64_t nextFrame = 0;
    std::uint64_t acc = 0;
    for (const auto& pkt : video) {
      const auto size = static_cast<std::int64_t>(pkt.sizeBytes);
      std::int64_t matched = -1;
      for (const auto& [prevSize, frameId] : recent) {
        if (std::llabs(size - static_cast<std::int64_t>(prevSize)) <= kDelta) {
          matched = static_cast<std::int64_t>(frameId);
          break;
        }
      }
      const std::uint64_t frameId =
          matched < 0 ? nextFrame++ : static_cast<std::uint64_t>(matched);
      recent.emplace_front(pkt.sizeBytes, frameId);
      while (recent.size() > lookback) recent.pop_back();
      acc += frameId;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(video.size()));
}
BENCHMARK(BM_Algorithm1LookbackDeque)->Arg(2)->Arg(32);

void BM_Algorithm1LookbackRing(benchmark::State& state) {
  const core::MediaClassifier classifier;
  const auto video = classifier.filterVideo(sampleSession().packets);
  const auto lookback = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::LookbackRing recent(lookback);
    std::uint64_t nextFrame = 0;
    std::uint64_t acc = 0;
    for (const auto& pkt : video) {
      const std::int64_t matched = recent.matchMostRecent(pkt.sizeBytes, 2);
      const std::uint64_t frameId =
          matched < 0 ? nextFrame++ : static_cast<std::uint64_t>(matched);
      recent.push(pkt.sizeBytes, frameId);
      acc += frameId;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(video.size()));
}
BENCHMARK(BM_Algorithm1LookbackRing)->Arg(2)->Arg(32);

// --- SIMD kernels vs their scalar reference arm. Same kernel entry points,
// same inputs; the scalar rows pin the dispatch with forceLevel so both
// columns appear in every report and the speedup is read off directly.

std::vector<std::uint32_t> lookbackSizes(std::size_t n) {
  std::vector<std::uint32_t> sizes(n);
  std::mt19937 rng(42);
  for (auto& s : sizes) s = 900 + rng() % 300;
  return sizes;
}

void runLookbackScan(benchmark::State& state,
                     common::simd::Level forcedLevel) {
  const auto sizes = lookbackSizes(static_cast<std::size_t>(state.range(0)));
  common::simd::forceLevel(forcedLevel);
  std::uint32_t probe = 900;
  for (auto _ : state) {
    // Rotate the probe so the match lands at varying depths (including
    // misses), like Algorithm 1 sweeping a live ring.
    probe = 900 + (probe * 77 + 13) % 300;
    benchmark::DoNotOptimize(common::simd::findLastMatchU32(
        sizes.data(), sizes.size(), probe, 2));
  }
  common::simd::clearForcedLevel();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sizes.size()));
}

void BM_LookbackScanScalar(benchmark::State& state) {
  runLookbackScan(state, common::simd::Level::kScalar);
}
BENCHMARK(BM_LookbackScanScalar)->Arg(32)->Arg(256);

void BM_LookbackScanSimd(benchmark::State& state) {
  runLookbackScan(state, common::simd::activeLevel());
}
BENCHMARK(BM_LookbackScanSimd)->Arg(32)->Arg(256);

std::vector<double> windowSamples(std::size_t n) {
  std::vector<double> xs(n);
  std::mt19937 rng(43);
  std::uniform_real_distribution<double> value(0.0, 2000.0);
  for (auto& x : xs) x = value(rng);
  return xs;
}

void runFiveNumber(benchmark::State& state, common::simd::Level forcedLevel) {
  const auto xs = windowSamples(static_cast<std::size_t>(state.range(0)));
  common::simd::forceLevel(forcedLevel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::fiveNumber(xs));
  }
  common::simd::clearForcedLevel();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xs.size()));
}

void BM_FiveNumberScalar(benchmark::State& state) {
  runFiveNumber(state, common::simd::Level::kScalar);
}
BENCHMARK(BM_FiveNumberScalar)->Arg(64)->Arg(1024);

void BM_FiveNumberSimd(benchmark::State& state) {
  runFiveNumber(state, common::simd::activeLevel());
}
BENCHMARK(BM_FiveNumberSimd)->Arg(64)->Arg(1024);

// --- Batched forest traversal: tree-major, advancing a lane of 8 rows one
// level per round (bit-identical to per-row predict; see
// tests/simd_kernels_test.cpp).

void BM_PredictBatchBlocked(benchmark::State& state) {
  static const auto forest =
      ml::FlattenedForest(engine::syntheticForest(40, 8, 30.0));
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::mt19937 rng(44);
  std::uniform_real_distribution<double> value(0.0, 100.0);
  std::vector<std::vector<double>> rows(batch);
  for (auto& row : rows) {
    row.resize(forest.featureCount());
    for (auto& v : row) v = value(rng);
  }
  const std::vector<ml::FeatureRow> spans(rows.begin(), rows.end());
  std::vector<double> out(batch);
  for (auto _ : state) {
    forest.predictBatch(spans, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PredictBatchBlocked)->Arg(8)->Arg(64);

// --- Dispatcher demux: hashing every packet's 5-tuple through
// FlowTable::intern vs fronting the table with the 64-slot direct-mapped
// FlowDemuxCache the engine dispatcher uses. The stream is bursty (packet
// trains per flow, like real media traffic), which is exactly the locality
// the last-flow cache converts into a slot compare instead of a hash-map
// probe.

std::vector<netflow::FlowKey> burstyKeyStream(std::size_t flows,
                                              std::size_t burst,
                                              std::size_t total) {
  std::vector<netflow::FlowKey> keys;
  keys.reserve(total);
  std::mt19937 rng(45);
  while (keys.size() < total) {
    const auto flow = static_cast<std::uint32_t>(rng() % flows);
    for (std::size_t b = 0; b < burst && keys.size() < total; ++b) {
      keys.push_back(engine::syntheticFlowKey(flow));
    }
  }
  return keys;
}

void BM_FlowDemuxIntern(benchmark::State& state) {
  const auto keys =
      burstyKeyStream(static_cast<std::size_t>(state.range(0)), 24, 65'536);
  for (auto _ : state) {
    engine::FlowTable table;
    std::uint64_t acc = 0;
    for (const auto& key : keys) acc += table.intern(key);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_FlowDemuxIntern)->Arg(16)->Arg(256);

void BM_FlowDemuxCached(benchmark::State& state) {
  const auto keys =
      burstyKeyStream(static_cast<std::size_t>(state.range(0)), 24, 65'536);
  for (auto _ : state) {
    engine::FlowTable table;
    engine::FlowDemuxCache cache;
    std::uint64_t acc = 0;
    for (const auto& key : keys) {
      if (const auto cached = cache.lookup(key)) {
        acc += *cached;
        continue;
      }
      const auto id = table.intern(key);
      cache.remember(key, id);
      acc += id;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_FlowDemuxCached)->Arg(16)->Arg(256);

void BM_RtpHeaderParse(benchmark::State& state) {
  const auto& trace = sampleSession().packets;
  for (auto _ : state) {
    std::size_t parsed = 0;
    for (const auto& pkt : trace) {
      if (rtp::decode(pkt.headBytes())) ++parsed;
    }
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_RtpHeaderParse);

void BM_IpUdpFeatureExtraction(benchmark::State& state) {
  const auto& session = sampleSession();
  const auto windows =
      features::sliceWindows(session.packets, common::kNanosPerSecond);
  const core::MediaClassifier classifier;
  features::ExtractionParams params;
  for (auto _ : state) {
    for (const auto& window : windows) {
      const auto video = classifier.filterVideo(window.packets);
      benchmark::DoNotOptimize(features::extractFeatures(
          window, video, features::FeatureSet::kIpUdp, params));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(windows.size()));
}
BENCHMARK(BM_IpUdpFeatureExtraction);

// Columnar counterpart of BM_IpUdpFeatureExtraction: per window, gather
// the video columns (the filter step, mirroring what the streaming
// estimator does incrementally) and extract from the spans — no
// full-Packet copies, no head bytes touched.
void BM_IpUdpFeatureExtractionColumnar(benchmark::State& state) {
  const auto& session = sampleSession();
  const auto windows =
      features::sliceWindows(session.packets, common::kNanosPerSecond);
  const core::MediaClassifier classifier;
  features::ExtractionParams params;
  const features::WindowColumns kEmpty;
  features::WindowColumns video;  // recycled, like the estimator's pool
  for (auto _ : state) {
    for (const auto& window : windows) {
      video.clear();
      for (const auto& pkt : window.packets) {
        if (classifier.isVideo(pkt)) video.append(pkt);
      }
      benchmark::DoNotOptimize(features::extractFeatures(
          kEmpty, video, window.durationNs, features::FeatureSet::kIpUdp,
          params));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(windows.size()));
}
BENCHMARK(BM_IpUdpFeatureExtractionColumnar);

void BM_WindowRecordPipeline(benchmark::State& state) {
  const auto& session = sampleSession();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::buildWindowRecords(session));
  }
}
BENCHMARK(BM_WindowRecordPipeline);

void BM_ForestInference(benchmark::State& state) {
  static const auto setup = [] {
    const auto records = core::buildWindowRecords(sampleSession());
    const auto data = core::buildMlDataset(
        records, features::FeatureSet::kIpUdp, rxstats::Metric::kFrameRate);
    ml::RandomForest forest;
    ml::ForestOptions options;
    options.numTrees = 40;
    forest.fit(data, ml::TreeTask::kRegression, options, 3);
    return std::make_pair(forest, data);
  }();
  const auto& [forest, data] = setup;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(data.x[i % data.rows()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ForestInference);

void BM_ForestTraining(benchmark::State& state) {
  const auto records = core::buildWindowRecords(sampleSession());
  const auto data = core::buildMlDataset(
      records, features::FeatureSet::kIpUdp, rxstats::Metric::kFrameRate);
  ml::ForestOptions options;
  options.numTrees = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ml::RandomForest forest;
    forest.fit(data, ml::TreeTask::kRegression, options, 7);
    benchmark::DoNotOptimize(forest);
  }
}
BENCHMARK(BM_ForestTraining)->Arg(10)->Arg(40);

void BM_LinkEmulator(benchmark::State& state) {
  netem::SecondCondition c;
  c.throughputKbps = 5'000.0;
  c.delayMs = 20.0;
  c.jitterMs = 2.0;
  c.lossRate = 0.01;
  for (auto _ : state) {
    netem::LinkEmulator link(netem::ConditionSchedule::constant(c, 60), 3);
    for (int i = 0; i < 10'000; ++i) {
      benchmark::DoNotOptimize(link.send(i * common::microsToNs(100.0), 1100));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10'000);
}
BENCHMARK(BM_LinkEmulator);

}  // namespace

BENCHMARK_MAIN();
