// Tests for model persistence (ml/serialize), the flattened forest layout
// (ml/flattened_forest), and the classical baseline models (ml/baselines)
// that back the §4.3 model comparison.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ml/baselines.hpp"
#include "ml/flattened_forest.hpp"
#include "ml/serialize.hpp"
#include "tests/serialize_reference.hpp"

namespace vcaqoe::ml {
namespace {

Dataset linearDataset(int n, std::uint64_t seed, double noise = 0.3) {
  Dataset d;
  d.featureNames = {"x one", "x two", "junk"};  // space in name: escaping path
  common::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double a = rng.uniform(-5.0, 5.0);
    const double b = rng.uniform(-5.0, 5.0);
    d.addRow({a, b, rng.uniform(0.0, 1.0)},
             2.0 * a - 3.0 * b + 1.0 + rng.normal(0.0, noise));
  }
  return d;
}

Dataset classDataset(int n, std::uint64_t seed) {
  Dataset d;
  d.featureNames = {"x"};
  common::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    d.addRow({x}, x > 0.5 ? 1.0 : 0.0);
  }
  return d;
}

// ---------------------------------------------------------------- serialize

TEST(Serialize, RoundTripRegressionForest) {
  const Dataset d = linearDataset(400, 1);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 12;
  forest.fit(d, TreeTask::kRegression, options, 7);

  std::stringstream buffer;
  saveForest(forest, buffer);
  const RandomForest loaded = loadForest(buffer);

  EXPECT_EQ(loaded.task(), TreeTask::kRegression);
  EXPECT_EQ(loaded.treeCount(), forest.treeCount());
  EXPECT_EQ(loaded.featureNames(), forest.featureNames());
  common::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> x = {rng.uniform(-5.0, 5.0),
                                   rng.uniform(-5.0, 5.0),
                                   rng.uniform(0.0, 1.0)};
    EXPECT_DOUBLE_EQ(loaded.predict(x), forest.predict(x));
  }
}

TEST(Serialize, RoundTripClassificationForest) {
  const Dataset d = classDataset(300, 2);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 9;
  forest.fit(d, TreeTask::kClassification, options, 5);

  std::stringstream buffer;
  saveForest(forest, buffer);
  const RandomForest loaded = loadForest(buffer);
  EXPECT_EQ(loaded.task(), TreeTask::kClassification);
  for (double x = 0.05; x < 1.0; x += 0.1) {
    EXPECT_DOUBLE_EQ(loaded.predict(std::vector<double>{x}),
                     forest.predict(std::vector<double>{x}));
  }
}

TEST(Serialize, PreservesImportance) {
  const Dataset d = linearDataset(300, 3);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 8;
  forest.fit(d, TreeTask::kRegression, options, 9);

  std::stringstream buffer;
  saveForest(forest, buffer);
  const RandomForest loaded = loadForest(buffer);
  const auto a = forest.featureImportance();
  const auto b = loaded.featureImportance();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  // Feature names with spaces survive (used by ranked importance).
  EXPECT_EQ(loaded.rankedImportance()[0].first.find('\\'), std::string::npos);
}

TEST(Serialize, FileRoundTrip) {
  const Dataset d = linearDataset(200, 4);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 5;
  forest.fit(d, TreeTask::kRegression, options, 11);
  const std::string path = "/tmp/vcaqoe_model_test.fst";
  saveForestFile(forest, path);
  const RandomForest loaded = loadForestFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.treeCount(), 5u);
}

TEST(Serialize, RejectsGarbageAndTruncation) {
  std::stringstream junk("not-a-model 1");
  EXPECT_THROW(loadForest(junk), std::runtime_error);

  const Dataset d = linearDataset(100, 5);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 3;
  forest.fit(d, TreeTask::kRegression, options, 1);
  std::stringstream buffer;
  saveForest(forest, buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(loadForest(truncated), std::runtime_error);
}

TEST(Serialize, RejectsWrongVersionAndUntrained) {
  std::stringstream wrong("vcaqoe-forest 999\ntask regression\n");
  EXPECT_THROW(loadForest(wrong), std::runtime_error);
  RandomForest empty;
  std::stringstream out;
  EXPECT_THROW(saveForest(empty, out), std::logic_error);
}

TEST(Serialize, RejectsOutOfRangeNodeReferences) {
  std::stringstream bad(
      "vcaqoe-forest 1\n"
      "task regression\n"
      "features 1 x\n"
      "importance 1 1.0\n"
      "trees 1\n"
      "tree 1\n"
      "0 0.5 5 6 0.0\n");  // children out of range
  EXPECT_THROW(loadForest(bad), std::runtime_error);
}

TEST(Serialize, RejectsCyclicNodeReferences) {
  // Regression (found by the fuzz harness work): children that are
  // in-range but point at or behind their parent form a cycle, which used
  // to pass validation and hang DecisionTree::predict / flattening
  // forever. Training emits parents strictly before children, so a
  // well-formed file always points forward.
  const auto load = [](const char* nodes) {
    std::stringstream bad(std::string("vcaqoe-forest 1\n"
                                      "task regression\n"
                                      "features 1 x\n"
                                      "importance 1 1.0\n"
                                      "trees 1\n") +
                          nodes);
    return loadForest(bad);
  };
  // Node 0 pointing at itself: the tightest cycle.
  EXPECT_THROW(load("tree 2\n"
                    "0 0.5 0 1 0.0\n"
                    "-1 0 0 0 3.0\n"),
               std::runtime_error);
  // Two-node loop: 0 -> 1 -> 0.
  EXPECT_THROW(load("tree 3\n"
                    "0 0.5 1 2 0.0\n"
                    "0 0.5 0 2 0.0\n"
                    "-1 0 0 0 3.0\n"),
               std::runtime_error);
  // The forward-pointing equivalent still loads and predicts.
  const RandomForest ok = load(
      "tree 3\n"
      "0 0.5 1 2 0.0\n"
      "-1 0 0 0 3.0\n"
      "-1 0 0 0 7.0\n");
  const std::vector<double> row{0.0};
  EXPECT_EQ(ok.predict(row), 3.0);
}

TEST(Serialize, RejectsTrailingPayloadPastDeclaredCounts) {
  // A file whose declared tree count undershoots the payload must fail
  // loudly instead of silently constructing a truncated forest.
  const Dataset d = linearDataset(150, 21);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 2;
  forest.fit(d, TreeTask::kRegression, options, 3);
  std::stringstream buffer;
  saveForest(forest, buffer);
  std::string text = buffer.str();

  // Understate the tree count: the second tree becomes trailing payload.
  const auto pos = text.find("trees 2");
  ASSERT_NE(pos, std::string::npos);
  std::string understated = text;
  understated.replace(pos, 7, "trees 1");
  std::stringstream bad(understated);
  EXPECT_THROW(loadForest(bad), std::runtime_error);

  // Appending an extra node row past the last declared tree also fails.
  std::stringstream appended(text + "0 0.5 1 2 0.0\n");
  EXPECT_THROW(loadForest(appended), std::runtime_error);

  // The untouched stream still loads.
  std::stringstream good(text);
  EXPECT_EQ(loadForest(good).treeCount(), 2u);
}

TEST(Serialize, CorruptedFileFixtureFailsLoudly) {
  // Regression fixture for the deployment path: a model file corrupted
  // in place (count/payload mismatch) must throw out of the file loaders,
  // not yield a smaller forest.
  const Dataset d = linearDataset(120, 22);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 3;
  forest.fit(d, TreeTask::kRegression, options, 5);
  const std::string path = "/tmp/vcaqoe_corrupt_fixture.forest";
  saveForestFile(forest, path);

  std::string text;
  {
    std::ifstream in(path);
    std::stringstream whole;
    whole << in.rdbuf();
    text = whole.str();
  }
  const auto pos = text.find("trees 3");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 7, "trees 2");
  {
    std::ofstream out(path);
    out << text;
  }
  EXPECT_THROW(loadForestFile(path), std::runtime_error);
  // The registry's lazy path must be equally loud for an existing file.
  EXPECT_THROW(tryLoadForestFile(path), std::runtime_error);
  std::remove(path.c_str());
}

// ------------------------------------------------------- flattened forest

TEST(FlattenedForest, BitExactOnTrainedRegressionForests) {
  // Property over random forests and random rows: the SoA arena must agree
  // with the node-tree form to the last bit, scalar and batched.
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    const Dataset d = linearDataset(350, seed);
    RandomForest forest;
    ForestOptions options;
    options.numTrees = static_cast<int>(3 + seed % 9);
    forest.fit(d, TreeTask::kRegression, options, seed * 7);
    const FlattenedForest flat(forest);
    EXPECT_TRUE(flat.trained());
    EXPECT_EQ(flat.treeCount(), forest.treeCount());

    common::Rng rng(seed + 100);
    std::vector<std::vector<double>> rows;
    for (int i = 0; i < 200; ++i) {
      rows.push_back({rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0),
                      rng.uniform(0.0, 1.0)});
    }
    std::vector<FeatureRow> views(rows.begin(), rows.end());
    std::vector<double> batched(rows.size());
    flat.predictBatch(views, batched);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double reference = forest.predict(rows[i]);
      EXPECT_EQ(flat.predict(rows[i]), reference) << "seed " << seed;
      EXPECT_EQ(batched[i], reference) << "seed " << seed;
    }
  }
}

TEST(FlattenedForest, BitExactOnClassificationForests) {
  const Dataset d = classDataset(400, 41);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 11;
  forest.fit(d, TreeTask::kClassification, options, 17);
  const FlattenedForest flat(forest);
  EXPECT_EQ(flat.task(), TreeTask::kClassification);

  std::vector<std::vector<double>> rows;
  for (double x = 0.005; x < 1.0; x += 0.01) rows.push_back({x});
  std::vector<FeatureRow> views(rows.begin(), rows.end());
  std::vector<double> batched(rows.size());
  flat.predictBatch(views, batched);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double reference = forest.predict(rows[i]);
    EXPECT_EQ(flat.predict(rows[i]), reference);
    EXPECT_EQ(batched[i], reference);
  }
}

TEST(FlattenedForest, NanFeaturesFollowTheNodeTreePath) {
  // `v <= t` is false for NaN, so the node tree sends NaN features right;
  // the flat layout's index-math comparison must agree (regression: the
  // negated `v > t` form sent them left).
  const Dataset d = linearDataset(250, 81);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 6;
  forest.fit(d, TreeTask::kRegression, options, 23);
  const FlattenedForest flat(forest);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  common::Rng rng(82);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x = {rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0),
                             rng.uniform(0.0, 1.0)};
    x[static_cast<std::size_t>(i % 3)] = nan;
    EXPECT_EQ(flat.predict(x), forest.predict(x)) << "row " << i;
  }
}

TEST(FlattenedForest, RejectsUntrainedShortRowsAndShapeMismatch) {
  EXPECT_THROW(FlattenedForest(RandomForest{}), std::invalid_argument);

  const Dataset d = linearDataset(150, 51);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 4;
  forest.fit(d, TreeTask::kRegression, options, 2);
  const FlattenedForest flat(forest);
  EXPECT_THROW(flat.predict(std::vector<double>{1.0}),
               std::invalid_argument);
  const std::vector<double> row(3, 0.0);
  const std::vector<FeatureRow> views = {row, row};
  std::vector<double> wrongSize(3);
  EXPECT_THROW(flat.predictBatch(views, wrongSize), std::invalid_argument);

  FlattenedForest empty;
  EXPECT_FALSE(empty.trained());
  EXPECT_THROW(empty.predict(row), std::logic_error);
}

TEST(FlattenedForest, FromPartsValidatesReferences) {
  // One split over feature 0 with two leaves: the smallest valid arena.
  const auto valid = FlattenedForest::fromParts(
      TreeTask::kRegression, 1, {0}, {0}, {0.5}, {-1}, {-2}, {1.0, 2.0});
  EXPECT_EQ(valid.predict(std::vector<double>{0.0}), 1.0);
  EXPECT_EQ(valid.predict(std::vector<double>{1.0}), 2.0);

  // Child reference past the arena.
  EXPECT_THROW(FlattenedForest::fromParts(TreeTask::kRegression, 1, {0}, {0},
                                          {0.5}, {7}, {-2}, {1.0, 2.0}),
               std::invalid_argument);
  // Leaf reference past the leaf array.
  EXPECT_THROW(FlattenedForest::fromParts(TreeTask::kRegression, 1, {0}, {0},
                                          {0.5}, {-1}, {-9}, {1.0, 2.0}),
               std::invalid_argument);
  // Self-cycle: node 0's left child is node 0.
  EXPECT_THROW(FlattenedForest::fromParts(TreeTask::kRegression, 1, {0}, {0},
                                          {0.5}, {0}, {-1}, {1.0}),
               std::invalid_argument);
  // Unreferenced leaf (declared payload exceeds what the trees reach).
  EXPECT_THROW(
      FlattenedForest::fromParts(TreeTask::kRegression, 1, {0}, {0}, {0.5},
                                 {-1}, {-2}, {1.0, 2.0, 3.0}),
      std::invalid_argument);
}

TEST(Serialize, FlatRoundTripBitExact) {
  const Dataset d = linearDataset(300, 61);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 7;
  forest.fit(d, TreeTask::kRegression, options, 13);
  const FlattenedForest flat(forest);

  std::stringstream buffer;
  saveFlattenedForest(flat, buffer);
  const FlattenedForest loaded = loadFlattenedForest(buffer);
  EXPECT_EQ(loaded.task(), flat.task());
  EXPECT_EQ(loaded.treeCount(), flat.treeCount());
  EXPECT_EQ(loaded.internalNodeCount(), flat.internalNodeCount());
  EXPECT_EQ(loaded.leafCount(), flat.leafCount());

  common::Rng rng(62);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> x = {rng.uniform(-5.0, 5.0),
                                   rng.uniform(-5.0, 5.0),
                                   rng.uniform(0.0, 1.0)};
    // Loaded flat == in-memory flat == the original node-tree form.
    EXPECT_EQ(loaded.predict(x), flat.predict(x));
    EXPECT_EQ(loaded.predict(x), forest.predict(x));
  }

  const std::string path = "/tmp/vcaqoe_flat_test.fforest";
  saveFlattenedForestFile(flat, path);
  const FlattenedForest fromFile = loadFlattenedForestFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(fromFile.treeCount(), flat.treeCount());

  FlattenedForest untrained;
  std::stringstream sink;
  EXPECT_THROW(saveFlattenedForest(untrained, sink), std::logic_error);
}

TEST(Serialize, FlatRejectsCountPayloadMismatches) {
  const Dataset d = linearDataset(200, 71);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 3;
  forest.fit(d, TreeTask::kRegression, options, 19);
  std::stringstream buffer;
  saveFlattenedForest(FlattenedForest(forest), buffer);
  const std::string text = buffer.str();

  {
    std::stringstream junk("not-a-flat-forest 1");
    EXPECT_THROW(loadFlattenedForest(junk), std::runtime_error);
  }
  {
    // Node-tree magic is not a flat forest.
    std::stringstream wrong("vcaqoe-forest 1\ntask regression\n");
    EXPECT_THROW(loadFlattenedForest(wrong), std::runtime_error);
  }
  {
    std::string truncated = text;
    truncated.resize(truncated.size() / 2);
    std::stringstream bad(truncated);
    EXPECT_THROW(loadFlattenedForest(bad), std::runtime_error);
  }
  {
    // Trailing payload past the `end` terminator.
    std::stringstream bad(text + "0 0.5 -1 -2\n");
    EXPECT_THROW(loadFlattenedForest(bad), std::runtime_error);
  }
  {
    // Understate the node count: payload disagrees with the declaration.
    const auto pos = text.find("nodes ");
    ASSERT_NE(pos, std::string::npos);
    const auto lineEnd = text.find('\n', pos);
    std::string bad = text;
    bad.replace(pos, lineEnd - pos, "nodes 1");
    std::stringstream stream(bad);
    EXPECT_THROW(loadFlattenedForest(stream), std::runtime_error);
  }
  {
    // Untouched stream still round-trips.
    std::stringstream good(text);
    EXPECT_EQ(loadFlattenedForest(good).treeCount(), 3u);
  }
}

TEST(Serialize, RejectsAbsurdDeclaredCounts) {
  // A corrupt count must be a loud malformed-file error before any
  // payload-sized allocation happens — not an OOM or std::length_error.
  {
    std::stringstream bad(
        "vcaqoe-forest-flat 1\ntask regression\nfeatures 1\n"
        "roots 4000000000\n");
    EXPECT_THROW(loadFlattenedForest(bad), std::runtime_error);
  }
  {
    // Negative count wraps through unsigned extraction to an absurd value.
    std::stringstream bad(
        "vcaqoe-forest-flat 1\ntask regression\nfeatures 1\n"
        "roots 1 0\nnodes -7\n");
    EXPECT_THROW(loadFlattenedForest(bad), std::runtime_error);
  }
  {
    std::stringstream bad("vcaqoe-forest 1\ntask regression\n"
                          "features 9999999999999\n");
    EXPECT_THROW(loadForest(bad), std::runtime_error);
  }
  {
    // Flat header feature count is guarded too: an absurd value must fail
    // at load, not later as a short-feature-row throw inside a worker.
    std::stringstream bad(
        "vcaqoe-forest-flat 1\ntask regression\nfeatures 9999999999999\n");
    EXPECT_THROW(loadFlattenedForest(bad), std::runtime_error);
  }
  {
    // INT32_MIN child reference: must be rejected (leaf index out of
    // range), not negated as a signed int (UB regression guard).
    EXPECT_THROW(
        FlattenedForest::fromParts(TreeTask::kRegression, 1, {0}, {0}, {0.5},
                                   {-2147483648}, {-1}, {1.0, 2.0}),
        std::invalid_argument);
  }
}

TEST(Serialize, RejectsZeroTrees) {
  // A zero-tree file is malformed, like the flat loader's "no trees":
  // loaded, it would be an unfitted forest whose predict throws.
  std::stringstream in(
      "vcaqoe-forest 1\ntask regression\nfeatures 0\nimportance 0\n"
      "trees 0\n");
  try {
    (void)loadForest(in);
    FAIL() << "a zero-tree forest loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "model load: no trees");
  }
}

TEST(Serialize, RejectsLayoutLine) {
  // The flat format has one layout. A `layout` line after the task (once
  // the marker of an opt-in quantized layout) is malformed whatever name
  // follows it, and the message names the line.
  const Dataset d = linearDataset(200, 73);
  RandomForest forest;
  ForestOptions options;
  options.numTrees = 3;
  forest.fit(d, TreeTask::kRegression, options, 23);
  std::ostringstream saved;
  saveFlattenedForest(FlattenedForest(forest), saved);
  const std::string text = saved.str();
  // The saver writes no layout line, and its output loads.
  EXPECT_EQ(text.find("layout"), std::string::npos);
  std::stringstream good(text);
  EXPECT_EQ(loadFlattenedForest(good).treeCount(), 3u);

  const auto afterTask = text.find('\n', text.find("task ")) + 1;
  for (const char* line : {"layout quantized\n", "layout vanblocks\n"}) {
    std::string bad = text;
    bad.insert(afterTask, line);
    std::stringstream in(bad);
    try {
      (void)loadFlattenedForest(in);
      ADD_FAILURE() << "loaded with " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "model load: unsupported layout line") << line;
    }
  }
}

TEST(Serialize, DeclaredCountPastBytesLeftFailsBeforeAllocating) {
  // Each count is bounded by what is left of the file (two bytes per
  // token at least) before its arrays are sized: these files declare 2^24
  // nodes, which would zero-fill 320 MiB (flat) and 512 MiB (node tree)
  // before failing as truncated.
  const auto message = [](auto load, const std::string& text) {
    std::stringstream in(text);
    try {
      load(in);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("loaded");
  };
  const std::string flat =
      "vcaqoe-forest-flat 1\ntask regression\nfeatures 1\nroots 1 0\n"
      "nodes 16777216\n0 0.5 -1 -2\n";
  EXPECT_NE(message([](std::istream& in) { return loadFlattenedForest(in); },
                    flat)
                .find("bytes left"),
            std::string::npos);
  const std::string tree =
      "vcaqoe-forest 1\ntask regression\nfeatures 1 x\nimportance 1 1\n"
      "trees 1\ntree 16777216\n-1 0 0 0 3.25\n";
  EXPECT_NE(message([](std::istream& in) { return loadForest(in); }, tree)
                .find("bytes left"),
            std::string::npos);
  // The bound is the shortest encoding, not the usual one: a last node of
  // five numbers glued by their signs fills exactly the 10 bytes it allows,
  // and still loads under both parsers.
  const std::string tight =
      "vcaqoe-forest 1\ntask regression\nfeatures 1 x\nimportance 1 1\n"
      "trees 1\ntree 1-1-0-0-0-3";
  EXPECT_EQ(reference::treeDifference(tight), "");
  std::stringstream in(tight);
  EXPECT_EQ(loadForest(in).predict(std::vector<double>{0.0}), -3.0);
}

// ------------------------------------- one-pass parser vs istream reference

/// Saver output of `forest` in both formats: node tree and flat.
std::vector<std::string> savedForms(const RandomForest& forest) {
  std::vector<std::string> forms;
  std::ostringstream tree;
  saveForest(forest, tree);
  forms.push_back(tree.str());
  std::ostringstream flatText;
  saveFlattenedForest(FlattenedForest(forest), flatText);
  forms.push_back(flatText.str());
  return forms;
}

TEST(SerializeDifferential, SaverOutputLoadsAsTheReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const bool classify = seed % 2 == 0;
    const Dataset d = classify ? classDataset(300, seed)
                               : linearDataset(300, seed, 0.5);
    RandomForest forest;
    ForestOptions options;
    options.numTrees = 4 + static_cast<int>(seed);
    forest.fit(d,
               classify ? TreeTask::kClassification : TreeTask::kRegression,
               options, seed);
    for (const auto& text : savedForms(forest)) {
      const bool flat = text.rfind("vcaqoe-forest-flat", 0) == 0;
      EXPECT_EQ(flat ? reference::flatDifference(text)
                     : reference::treeDifference(text),
                "")
          << "seed " << seed << "\n"
          << text.substr(0, 120);
    }
  }
}

TEST(SerializeDifferential, RandomBitPatternsLoadAsTheReference) {
  // Thresholds and leaf values drawn as raw bit patterns cover every
  // exponent, denormals and -0: from_chars must round each printed value to
  // the same double strtod did.
  common::Rng rng(2024);
  const auto randomDouble = [&rng](int i) {
    std::uint64_t bits = 0;
    do {
      bits = static_cast<std::uint64_t>(
          rng.uniformInt(std::numeric_limits<std::int64_t>::min(),
                         std::numeric_limits<std::int64_t>::max()));
      if (i % 4 == 0) bits &= 0x800FFFFFFFFFFFFFull;  // denormal or +/-0
    } while (!std::isfinite(std::bit_cast<double>(bits)));
    return std::bit_cast<double>(bits);
  };
  constexpr std::int32_t kNodes = 2000;
  std::vector<std::int32_t> feature(kNodes, 0);
  std::vector<double> threshold(kNodes);
  std::vector<std::int32_t> left(kNodes);
  std::vector<std::int32_t> right(kNodes);
  std::vector<double> leaves(kNodes + 1);
  for (std::int32_t i = 0; i < kNodes; ++i) {
    threshold[static_cast<std::size_t>(i)] = randomDouble(i);
    left[static_cast<std::size_t>(i)] = -(i + 1);
    right[static_cast<std::size_t>(i)] = i + 1 < kNodes ? i + 1 : -(kNodes + 1);
  }
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    leaves[i] = randomDouble(static_cast<int>(i) + 1);
  }
  const auto flat = FlattenedForest::fromParts(
      TreeTask::kRegression, 1, {0}, std::move(feature), std::move(threshold),
      std::move(left), std::move(right), std::move(leaves));
  std::ostringstream text;
  saveFlattenedForest(flat, text);
  EXPECT_EQ(reference::flatDifference(text.str()), "");
}

TEST(SerializeDifferential, ZeroTreesIsTheListedStricterRejection) {
  // Besides the count bound and the flat `layout` line (below), the one
  // input class the parser rejects and the reference loads: a node-tree
  // file of zero trees, which the reference returns unfitted. Everything
  // else must still agree.
  const std::string treeless =
      "vcaqoe-forest 1\ntask regression\nfeatures 0\nimportance 0\n"
      "trees 0\n";
  const auto want = reference::loadOrReject(
      [](std::istream& in) { return reference::loadForest(in); }, treeless);
  ASSERT_TRUE(want.has_value());
  EXPECT_FALSE(want->trained());
  EXPECT_EQ(reference::treeDifference(treeless),
            "rejected what the reference accepts");
  // With trailing payload both reject, so the loaders agree again.
  EXPECT_EQ(reference::treeDifference(treeless + "tree 1\n-1 0 0 0 1\n"), "");
}

TEST(SerializeDifferential, LayoutLineIsTheListedStricterRejection) {
  // The flat input class the parser rejects and the reference loads: a
  // `layout quantized` line after the task, which the reference reads as a
  // marker before the full-precision payload. Everything else must still
  // agree.
  const std::string head = "vcaqoe-forest-flat 1\ntask regression\n";
  const std::string body =
      "features 1\nroots 1 0\nnodes 1\n0 0.5 -1 -2\nleaves 2 1 2\nend\n";
  const std::string marked = head + "layout quantized\n" + body;
  const auto want = reference::loadOrReject(
      [](std::istream& in) { return reference::loadFlattenedForest(in); },
      marked);
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(want->treeCount(), 1u);
  EXPECT_EQ(reference::flatDifference(marked),
            "rejected what the reference accepts");
  // An unknown layout name both reject, and without the line both load
  // the same arrays, so the loaders agree again.
  EXPECT_EQ(reference::flatDifference(head + "layout vanblocks\n" + body), "");
  EXPECT_EQ(reference::flatDifference(head + body), "");
}

TEST(SerializeDifferential, EdgeTokensMatchTheReference) {
  // Tokens where from_chars and istream >> disagree on their own: each
  // goes into every numeric slot of a small valid file of each format.
  const std::vector<std::string> tokens = {
      "+1", "-0", "inf", "nan", "-inf", "1e400", "-1e400", "1e-400",
      "-1e-400", "4.9406564584124654e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "2147483648", "-2147483649", "12abc",
      "5end", "1e5e", "1e+", "1e", ".5", "5.", "+.5", "+-1", "--1", "0x1p3",
      "-18446744073709551615", "18446744073709551616", "00", "-", "+", ".",
      "1e5.3", "0", "1", "-1", "-2", "3"};
  const std::string flat =
      "vcaqoe-forest-flat 1\ntask regression\nfeatures @\nroots 1 @\n"
      "nodes @\n@ @ @ @\nleaves @ @ @\nend\n";
  const std::vector<std::string> flatSlots = {"1", "0", "1", "0", "0.5",
                                              "-1", "-2", "2", "1.5", "2.5"};
  const std::string tree =
      "vcaqoe-forest 1\ntask regression\nfeatures @ x\nimportance @ @\n"
      "trees @\ntree @\n@ @ @ @ @\n-1 0 0 0 3\n-1 0 0 0 7\n";
  const std::vector<std::string> treeSlots = {
      "1", "1", "1", "1", "3", "0", "0.5", "1", "2", "0"};
  const auto fill = [](const std::string& form,
                       const std::vector<std::string>& slots,
                       std::size_t replaced, const std::string& token) {
    std::string out;
    std::size_t slot = 0;
    for (const char c : form) {
      if (c == '@') {
        out += slot == replaced ? token : slots[slot];
        ++slot;
      } else {
        out += c;
      }
    }
    return out;
  };
  // The untouched templates load under both loaders.
  ASSERT_TRUE(reference::loadOrReject(
                  [](std::istream& in) { return loadFlattenedForest(in); },
                  fill(flat, flatSlots, flatSlots.size(), ""))
                  .has_value());
  ASSERT_TRUE(reference::loadOrReject(
                  [](std::istream& in) { return loadForest(in); },
                  fill(tree, treeSlots, treeSlots.size(), ""))
                  .has_value());
  for (const auto& token : tokens) {
    for (std::size_t slot = 0; slot < flatSlots.size(); ++slot) {
      const auto text = fill(flat, flatSlots, slot, token);
      EXPECT_EQ(reference::flatDifference(text), "") << text;
    }
    for (std::size_t slot = 0; slot < treeSlots.size(); ++slot) {
      const auto text = fill(tree, treeSlots, slot, token);
      EXPECT_EQ(reference::treeDifference(text), "") << text;
    }
  }

  // Separators and line ends: CRLF, tabs, vertical tab and form feed, no
  // final newline, tokens glued by a sign ("1-2"), and trailing blanks.
  const std::string good = fill(flat, flatSlots, flatSlots.size(), "");
  const auto replaceAll = [](std::string text, const std::string& from,
                             const std::string& to) {
    for (auto pos = text.find(from); pos != std::string::npos;
         pos = text.find(from, pos + to.size())) {
      text.replace(pos, from.size(), to);
    }
    return text;
  };
  for (const auto& text :
       {replaceAll(good, "\n", "\r\n"), replaceAll(good, " ", "\t"),
        replaceAll(good, "\n", "\v"), replaceAll(good, " ", "\f"),
        good.substr(0, good.size() - 1), good + "  \n\n", "  \n" + good,
        replaceAll(good, "0.5 -1 -2", "0.5-1-2"),
        replaceAll(good, "\nend", "end"),
        replaceAll(good, "end", std::string("end\0", 4)),
        replaceAll(good, "\n", "\r")}) {
    EXPECT_EQ(reference::flatDifference(text), "") << text;
  }
  const std::string goodTree = fill(tree, treeSlots, treeSlots.size(), "");
  for (const auto& text :
       {replaceAll(goodTree, "\n", "\r\n"), replaceAll(goodTree, " ", "\t"),
        goodTree.substr(0, goodTree.size() - 1),
        replaceAll(goodTree, "0 0.5 1 2 0", "0 0.5 1+2-0")}) {
    EXPECT_EQ(reference::treeDifference(text), "") << text;
  }
}

// ---------------------------------------------------------------- ridge

TEST(Ridge, RecoversLinearFunction) {
  const Dataset d = linearDataset(2'000, 6, 0.1);
  RidgeRegression ridge;
  ridge.fit(d, {0.1});
  common::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const double a = rng.uniform(-4.0, 4.0);
    const double b = rng.uniform(-4.0, 4.0);
    const double truth = 2.0 * a - 3.0 * b + 1.0;
    EXPECT_NEAR(ridge.predict(std::vector<double>{a, b, 0.5}), truth, 0.25);
  }
}

TEST(Ridge, HandlesConstantFeature) {
  Dataset d;
  d.featureNames = {"x", "const"};
  common::Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    d.addRow({x, 7.0}, 5.0 * x);
  }
  RidgeRegression ridge;
  ridge.fit(d);
  EXPECT_NEAR(ridge.predict(std::vector<double>{0.5, 7.0}), 2.5, 0.2);
}

TEST(Ridge, ThrowsOnEmptyAndEarlyPredict) {
  RidgeRegression ridge;
  EXPECT_THROW(ridge.fit(Dataset{}), std::invalid_argument);
  EXPECT_THROW(ridge.predict(std::vector<double>{1.0}), std::logic_error);
}

// ---------------------------------------------------------------- knn

TEST(Knn, RegressionInterpolatesLocally) {
  Dataset d;
  d.featureNames = {"x"};
  for (int i = 0; i <= 100; ++i) {
    const double x = i / 100.0;
    d.addRow({x}, x * x);
  }
  KnnModel knn;
  knn.fit(d, {5, TreeTask::kRegression});
  EXPECT_NEAR(knn.predict(std::vector<double>{0.5}), 0.25, 0.02);
  EXPECT_NEAR(knn.predict(std::vector<double>{0.9}), 0.81, 0.03);
}

TEST(Knn, ClassificationMajority) {
  const Dataset d = classDataset(500, 9);
  KnnModel knn;
  knn.fit(d, {7, TreeTask::kClassification});
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.1}), 0.0);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.9}), 1.0);
}

TEST(Knn, KLargerThanDatasetClamped) {
  Dataset d;
  d.featureNames = {"x"};
  d.addRow({0.0}, 1.0);
  d.addRow({1.0}, 3.0);
  KnnModel knn;
  knn.fit(d, {50, TreeTask::kRegression});
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.5}), 2.0);
}

// --------------------------------------------------------- model comparison

TEST(ModelComparison, ForestBestOnNonlinearTarget) {
  // Non-linear, interaction-heavy target: the regime where the paper found
  // random forests consistently ahead of the alternatives (§4.3).
  Dataset d;
  d.featureNames = {"a", "b", "c"};
  common::Rng rng(10);
  for (int i = 0; i < 1'200; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    const double c = rng.uniform(0.0, 1.0);
    // Substantial label noise: the regime where a single deep tree overfits
    // and bagging pays off.
    const double y = (a > 0.5 ? 10.0 : 2.0) * (b > 0.3 ? 1.0 : -1.0) +
                     5.0 * c * c + rng.normal(0.0, 2.0);
    d.addRow({a, b, c}, y);
  }
  const auto comparison = compareModels(d, TreeTask::kRegression, 5, 13);
  EXPECT_LT(comparison.forestMae, comparison.ridgeMae);
  EXPECT_LT(comparison.forestMae, comparison.knnMae);
  EXPECT_LT(comparison.forestMae, comparison.treeMae);
}

}  // namespace
}  // namespace vcaqoe::ml
