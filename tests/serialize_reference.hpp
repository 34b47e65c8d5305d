// Reference model loaders for the differential tests and the
// fuzz_fforest_load harness: the `std::istream >>` loaders that
// ml/serialize.cpp shipped before its one-buffer `from_chars` parser,
// verbatim apart from `inline` and the lines that re-applied the deleted
// quantized layout after a `layout quantized` marker (the marker's parse is
// kept). ml/serialize.cpp must accept exactly the inputs these accept and
// load the same forest, bit for bit, except for its listed stricter
// rejections.
#pragma once

#include <bit>
#include <cstdint>
#include <istream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/flattened_forest.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"

namespace vcaqoe::ml::reference {

inline std::string unescape(const std::string& token) {
  std::string out;
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] == '\\' && i + 1 < token.size()) {
      out += token[i + 1] == 's' ? ' ' : token[i + 1];
      ++i;
    } else {
      out += token[i];
    }
  }
  return out;
}

[[noreturn]] inline void malformed(const std::string& what) {
  throw std::runtime_error("model load: " + what);
}

/// Count-vs-payload guard: a stream whose declared tree/node counts
/// undershoot the payload would otherwise silently construct a truncated
/// forest and leave the rest of the file on the floor.
inline void rejectTrailingPayload(std::istream& in) {
  std::string extra;
  if (in >> extra) {
    malformed("trailing payload past declared counts ('" + extra + "')");
  }
}

/// Declared counts size vectors before any payload is read, so an absurd
/// (or negative, wrapped through unsigned extraction) count must fail as a
/// loud malformed-file error, not as a multi-GB allocation attempt. The
/// bound is far above any real model while keeping the worst-case upfront
/// allocation bounded: 2^24 nodes across the flat loader's four parallel
/// arrays (20 bytes/node) or the node-tree loader's 40-byte AoS nodes is
/// a few hundred MB, not an OOM from a 60-byte corrupt file.
inline void checkDeclaredCount(std::size_t count, const char* what) {
  constexpr std::size_t kMaxDeclaredCount = std::size_t{1} << 24;
  if (count > kMaxDeclaredCount) {
    malformed(std::string("absurd declared ") + what + " count " +
              std::to_string(count));
  }
}

inline RandomForest loadForest(std::istream& in) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version)) malformed("missing header");
  if (magic != "vcaqoe-forest") malformed("bad magic '" + magic + "'");
  if (version != kModelFormatVersion) {
    malformed("unsupported version " + std::to_string(version));
  }

  std::string key;
  std::string taskName;
  if (!(in >> key >> taskName) || key != "task") malformed("missing task");
  TreeTask task;
  if (taskName == "regression") {
    task = TreeTask::kRegression;
  } else if (taskName == "classification") {
    task = TreeTask::kClassification;
  } else {
    malformed("unknown task '" + taskName + "'");
  }

  std::size_t nameCount = 0;
  if (!(in >> key >> nameCount) || key != "features") {
    malformed("missing features");
  }
  checkDeclaredCount(nameCount, "feature");
  std::vector<std::string> names(nameCount);
  for (auto& name : names) {
    std::string token;
    if (!(in >> token)) malformed("truncated feature names");
    name = unescape(token);
  }

  std::size_t importanceCount = 0;
  if (!(in >> key >> importanceCount) || key != "importance") {
    malformed("missing importance");
  }
  checkDeclaredCount(importanceCount, "importance");
  std::vector<double> importance(importanceCount);
  for (auto& v : importance) {
    if (!(in >> v)) malformed("truncated importance");
  }

  std::size_t treeCount = 0;
  if (!(in >> key >> treeCount) || key != "trees") malformed("missing trees");
  checkDeclaredCount(treeCount, "tree");
  std::vector<DecisionTree> trees;
  trees.reserve(treeCount);
  for (std::size_t t = 0; t < treeCount; ++t) {
    std::size_t nodeCount = 0;
    if (!(in >> key >> nodeCount) || key != "tree") malformed("missing tree");
    checkDeclaredCount(nodeCount, "node");
    if (nodeCount == 0) malformed("empty tree");
    std::vector<DecisionTree::Node> nodes(nodeCount);
    for (auto& node : nodes) {
      if (!(in >> node.featureIndex >> node.threshold >> node.left >>
            node.right >> node.value)) {
        malformed("truncated tree nodes");
      }
      const auto limit = static_cast<std::int32_t>(nodeCount);
      if (node.featureIndex >= 0 &&
          (node.left < 0 || node.left >= limit || node.right < 0 ||
           node.right >= limit ||
           node.featureIndex >= static_cast<std::int32_t>(nameCount))) {
        malformed("node references out of range");
      }
    }
    // Children must point strictly forward (training emits parents before
    // children, so every well-formed file satisfies this). Range checks
    // alone admit cycles — e.g. node 0 with left == right == 0 — which
    // would hang `DecisionTree::predict` and the flattening pass forever
    // on a corrupt or hostile model file.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& node = nodes[i];
      const auto self = static_cast<std::int32_t>(i);
      if (node.featureIndex >= 0 && (node.left <= self || node.right <= self)) {
        malformed("node child references do not point forward (cycle)");
      }
    }
    trees.push_back(DecisionTree::fromNodes(std::move(nodes), task, {}));
  }
  rejectTrailingPayload(in);
  return RandomForest::fromParts(task, std::move(names), std::move(trees),
                                 std::move(importance));
}

inline FlattenedForest loadFlattenedForest(std::istream& in) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version)) malformed("missing header");
  if (magic != "vcaqoe-forest-flat") malformed("bad magic '" + magic + "'");
  if (version != kModelFormatVersion) {
    malformed("unsupported version " + std::to_string(version));
  }

  std::string key;
  std::string taskName;
  if (!(in >> key >> taskName) || key != "task") malformed("missing task");
  TreeTask task;
  if (taskName == "regression") {
    task = TreeTask::kRegression;
  } else if (taskName == "classification") {
    task = TreeTask::kClassification;
  } else {
    malformed("unknown task '" + taskName + "'");
  }

  // Optional `layout quantized` marker (written by saveFlattenedForest for
  // a forest whose quantized layout was applied); anything else here must
  // be the features line.
  if (!(in >> key)) malformed("missing features");
  if (key == "layout") {
    std::string layoutName;
    if (!(in >> layoutName)) malformed("truncated layout");
    if (layoutName != "quantized") {
      malformed("unknown layout '" + layoutName + "'");
    }
    if (!(in >> key)) malformed("missing features");
  }
  std::size_t featureCount = 0;
  if (!(in >> featureCount) || key != "features") {
    malformed("missing features");
  }
  checkDeclaredCount(featureCount, "feature");

  std::size_t treeCount = 0;
  if (!(in >> key >> treeCount) || key != "roots") malformed("missing roots");
  checkDeclaredCount(treeCount, "root");
  std::vector<std::int32_t> roots(treeCount);
  for (auto& root : roots) {
    if (!(in >> root)) malformed("truncated roots");
  }

  std::size_t nodeCount = 0;
  if (!(in >> key >> nodeCount) || key != "nodes") malformed("missing nodes");
  checkDeclaredCount(nodeCount, "node");
  std::vector<std::int32_t> feature(nodeCount);
  std::vector<double> threshold(nodeCount);
  std::vector<std::int32_t> left(nodeCount);
  std::vector<std::int32_t> right(nodeCount);
  for (std::size_t i = 0; i < nodeCount; ++i) {
    if (!(in >> feature[i] >> threshold[i] >> left[i] >> right[i])) {
      malformed("truncated nodes");
    }
  }

  std::size_t leafCount = 0;
  if (!(in >> key >> leafCount) || key != "leaves") {
    malformed("missing leaves (declared node count disagrees with payload)");
  }
  checkDeclaredCount(leafCount, "leaf");
  std::vector<double> leafValue(leafCount);
  for (auto& value : leafValue) {
    if (!(in >> value)) malformed("truncated leaves");
  }

  if (!(in >> key) || key != "end") {
    malformed("missing end (declared leaf count disagrees with payload)");
  }
  rejectTrailingPayload(in);

  try {
    FlattenedForest flat = FlattenedForest::fromParts(
        task, featureCount, std::move(roots), std::move(feature),
        std::move(threshold), std::move(left), std::move(right),
        std::move(leafValue));
    return flat;
  } catch (const std::invalid_argument& e) {
    malformed(e.what());
  }
}


/// The forest `load` makes of `text`, or nullopt when it rejects the text.
template <typename Load>
auto loadOrReject(Load load, const std::string& text)
    -> std::optional<decltype(load(std::declval<std::istream&>()))> {
  std::istringstream in(text);
  try {
    return load(in);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

/// Doubles compare by bit pattern, so -0 differs from +0.
inline bool sameBits(const std::vector<double>& a,
                     const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Empty when both flat loaders make the same decision on `text` and, if
/// they accept it, the same arrays; else what differs.
inline std::string flatDifference(const std::string& text) {
  const auto got = loadOrReject(
      [](std::istream& in) { return ml::loadFlattenedForest(in); }, text);
  const auto want = loadOrReject(
      [](std::istream& in) { return reference::loadFlattenedForest(in); },
      text);
  if (got.has_value() != want.has_value()) {
    return want ? "rejected what the reference accepts"
                : "accepted what the reference rejects";
  }
  if (!got) return "";
  if (got->task() != want->task()) return "task";
  if (got->featureCount() != want->featureCount()) return "feature count";
  if (got->roots() != want->roots()) return "roots";
  if (got->feature() != want->feature()) return "split features";
  if (!sameBits(got->threshold(), want->threshold())) return "thresholds";
  if (got->children() != want->children()) return "children";
  if (!sameBits(got->leafValue(), want->leafValue())) return "leaf values";
  return "";
}

/// `flatDifference` for the node-tree format.
inline std::string treeDifference(const std::string& text) {
  const auto got =
      loadOrReject([](std::istream& in) { return ml::loadForest(in); }, text);
  const auto want = loadOrReject(
      [](std::istream& in) { return reference::loadForest(in); }, text);
  if (got.has_value() != want.has_value()) {
    return want ? "rejected what the reference accepts"
                : "accepted what the reference rejects";
  }
  if (!got) return "";
  if (got->task() != want->task()) return "task";
  if (got->featureNames() != want->featureNames()) return "feature names";
  if (!sameBits(got->featureImportance(), want->featureImportance())) {
    return "importance";
  }
  if (got->treeCount() != want->treeCount()) return "tree count";
  for (std::size_t t = 0; t < got->treeCount(); ++t) {
    const auto& a = got->trees()[t].nodes();
    const auto& b = want->trees()[t].nodes();
    if (a.size() != b.size()) return "node count";
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].featureIndex != b[i].featureIndex || a[i].left != b[i].left ||
          a[i].right != b[i].right ||
          !sameBits({a[i].threshold, a[i].value},
                    {b[i].threshold, b[i].value})) {
        return "tree " + std::to_string(t) + " node " + std::to_string(i);
      }
    }
  }
  return "";
}

}  // namespace vcaqoe::ml::reference
