#include "ml/flattened_forest.hpp"

#include <algorithm>
#include <stdexcept>

namespace vcaqoe::ml {

namespace {

[[noreturn]] void invalid(const std::string& what) {
  throw std::invalid_argument("FlattenedForest: " + what);
}

/// Encodes a leaf index as a negative child reference.
constexpr std::int32_t leafRef(std::size_t leafIndex) {
  return -static_cast<std::int32_t>(leafIndex) - 1;
}

/// Decodes a negative child reference back to a leaf index. Widened before
/// negation: `-ref` would overflow (UB) for INT32_MIN, which a hostile
/// serialized file can carry into `fromParts`.
constexpr std::size_t leafIndex(std::int32_t ref) {
  return static_cast<std::size_t>(-(static_cast<std::int64_t>(ref) + 1));
}

/// Majority vote with ties to the smallest class id — the ascending
/// map-order tie-break of `RandomForest::predict`, computed over a sorted
/// scratch so the hot path never allocates. Sorts `votes` in place.
int majorityClass(std::vector<int>& votes) {
  std::sort(votes.begin(), votes.end());
  int best = 0;
  int bestVotes = -1;
  int run = 0;
  for (std::size_t i = 0; i < votes.size(); ++i) {
    run = (i > 0 && votes[i] == votes[i - 1]) ? run + 1 : 1;
    if (run > bestVotes) {
      bestVotes = run;
      best = votes[i];
    }
  }
  return best;
}

/// One tree level for one node ref: the shared step of both traversals
/// below. `v <= t ? left : right`, phrased as index math; the negated form
/// (`v > t`) would send NaN features left where the node tree sends them
/// right, so the comparison must match DecisionTree::predict.
inline std::int32_t step(std::int32_t ref, FeatureRow x,
                         const std::int32_t* feature, const double* threshold,
                         const std::int32_t* children) {
  const auto node = static_cast<std::size_t>(ref);
  const double v = x[static_cast<std::size_t>(feature[node])];
  return children[2 * node + (v <= threshold[node] ? 0u : 1u)];
}

double evalTreeImpl(std::int32_t ref, FeatureRow x,
                    const std::int32_t* feature, const double* threshold,
                    const std::int32_t* children, const double* leafValue) {
  while (ref >= 0) ref = step(ref, x, feature, threshold, children);
  return leafValue[leafIndex(ref)];
}

/// Rows advanced together through one tree, one level per round.
constexpr std::size_t kRowBlock = 8;

/// Evaluates one tree for up to kRowBlock rows in lockstep: every active
/// row takes one `step` per round, so their data-dependent arena/feature
/// loads are all in flight at once instead of serialized down one row's
/// path. Each row still walks exactly the path `evalTreeImpl` would.
void evalTreeBlock(std::int32_t root, const FeatureRow* rows, std::size_t m,
                   const std::int32_t* feature, const double* threshold,
                   const std::int32_t* children, const double* leafValue,
                   double* treeVal) {
  std::int32_t ref[kRowBlock];
  for (std::size_t j = 0; j < m; ++j) ref[j] = root;
  std::size_t active = root >= 0 ? m : 0;
  while (active > 0) {
    active = 0;
    for (std::size_t j = 0; j < m; ++j) {
      const std::int32_t r = ref[j];
      if (r < 0) continue;
      ref[j] = step(r, rows[j], feature, threshold, children);
      active += ref[j] >= 0 ? 1u : 0u;
    }
  }
  for (std::size_t j = 0; j < m; ++j) treeVal[j] = leafValue[leafIndex(ref[j])];
}

}  // namespace

FlattenedForest::FlattenedForest(const RandomForest& forest) {
  if (!forest.trained()) invalid("forest is untrained");
  task_ = forest.task();

  std::size_t maxFeature = 0;
  std::size_t internals = 0;
  std::size_t leaves = 0;
  for (const auto& tree : forest.trees()) {
    for (const auto& node : tree.nodes()) {
      if (node.featureIndex >= 0) {
        ++internals;
        maxFeature = std::max(
            maxFeature, static_cast<std::size_t>(node.featureIndex) + 1);
      } else {
        ++leaves;
      }
    }
  }
  featureCount_ = std::max(forest.featureNames().size(), maxFeature);
  roots_.reserve(forest.treeCount());
  feature_.reserve(internals);
  threshold_.reserve(internals);
  children_.reserve(2 * internals);
  leafValue_.reserve(leaves);

  std::vector<std::int32_t> ref;  // local node index -> encoded arena ref
  for (const auto& tree : forest.trees()) {
    const auto& nodes = tree.nodes();
    if (nodes.empty()) invalid("empty tree");
    ref.assign(nodes.size(), 0);
    // Pass 1: hand every local node its arena slot (internal) or leaf id.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& node = nodes[i];
      if (node.featureIndex >= 0) {
        ref[i] = static_cast<std::int32_t>(feature_.size());
        feature_.push_back(node.featureIndex);
        threshold_.push_back(node.threshold);
        children_.push_back(0);
        children_.push_back(0);
      } else {
        ref[i] = leafRef(leafValue_.size());
        leafValue_.push_back(node.value);
      }
    }
    // Pass 2: translate child links through the local->arena map.
    const auto limit = static_cast<std::int32_t>(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& node = nodes[i];
      if (node.featureIndex < 0) continue;
      if (node.left < 0 || node.left >= limit || node.right < 0 ||
          node.right >= limit) {
        invalid("tree child reference out of range");
      }
      const auto arena = 2 * static_cast<std::size_t>(ref[i]);
      children_[arena] = ref[static_cast<std::size_t>(node.left)];
      children_[arena + 1] = ref[static_cast<std::size_t>(node.right)];
    }
    roots_.push_back(ref[0]);
  }
}

FlattenedForest FlattenedForest::fromParts(
    TreeTask task, std::size_t featureCount, std::vector<std::int32_t> roots,
    std::vector<std::int32_t> feature, std::vector<double> threshold,
    std::vector<std::int32_t> left, std::vector<std::int32_t> right,
    std::vector<double> leafValue) {
  const std::size_t internals = feature.size();
  if (threshold.size() != internals || left.size() != internals ||
      right.size() != internals) {
    invalid("internal-node arrays disagree in length");
  }
  if (roots.empty()) invalid("no trees");
  if (leafValue.empty()) invalid("no leaves");

  const auto checkRef = [&](std::int32_t ref) {
    if (ref >= 0) {
      if (static_cast<std::size_t>(ref) >= internals) {
        invalid("child reference past the node arena");
      }
    } else if (leafIndex(ref) >= leafValue.size()) {
      invalid("leaf reference past the leaf array");
    }
  };
  std::vector<std::int32_t> children(2 * internals);
  for (std::size_t i = 0; i < internals; ++i) {
    if (feature[i] < 0 ||
        static_cast<std::size_t>(feature[i]) >= featureCount) {
      invalid("split feature index out of range");
    }
    checkRef(left[i]);
    checkRef(right[i]);
    children[2 * i] = left[i];
    children[2 * i + 1] = right[i];
  }

  // Structural check: walking from the roots must visit every internal node
  // and every leaf exactly once. This both rejects truncated/garbled arenas
  // and proves traversal terminates (no cycles can survive exactly-once
  // visitation), so `predict` needs no step budget.
  std::vector<char> nodeSeen(internals, 0);
  std::vector<char> leafSeen(leafValue.size(), 0);
  std::vector<std::int32_t> stack;
  for (const auto root : roots) {
    checkRef(root);
    stack.push_back(root);
    while (!stack.empty()) {
      const auto ref = stack.back();
      stack.pop_back();
      if (ref < 0) {
        auto& seen = leafSeen[leafIndex(ref)];
        if (seen) invalid("leaf referenced twice");
        seen = 1;
        continue;
      }
      auto& seen = nodeSeen[static_cast<std::size_t>(ref)];
      if (seen) invalid("node referenced twice (cycle or shared subtree)");
      seen = 1;
      stack.push_back(children[2 * static_cast<std::size_t>(ref)]);
      stack.push_back(children[2 * static_cast<std::size_t>(ref) + 1]);
    }
  }
  if (std::find(nodeSeen.begin(), nodeSeen.end(), 0) != nodeSeen.end() ||
      std::find(leafSeen.begin(), leafSeen.end(), 0) != leafSeen.end()) {
    invalid("unreferenced arena entries (node/leaf counts exceed payload)");
  }

  FlattenedForest flat;
  flat.task_ = task;
  flat.featureCount_ = featureCount;
  flat.roots_ = std::move(roots);
  flat.feature_ = std::move(feature);
  flat.threshold_ = std::move(threshold);
  flat.children_ = std::move(children);
  flat.leafValue_ = std::move(leafValue);
  return flat;
}

double FlattenedForest::predict(FeatureRow x) const {
  if (roots_.empty()) {
    throw std::logic_error("FlattenedForest::predict before flatten");
  }
  if (x.size() < featureCount_) {
    throw std::invalid_argument("FlattenedForest::predict: short feature row");
  }
  const auto evalTree = [&](std::int32_t root) {
    return evalTreeImpl(root, x, feature_.data(), threshold_.data(),
                        children_.data(), leafValue_.data());
  };
  if (task_ == TreeTask::kRegression) {
    double sum = 0.0;
    for (const auto root : roots_) sum += evalTree(root);
    return sum / static_cast<double>(roots_.size());
  }
  thread_local std::vector<int> votes;
  votes.clear();
  for (const auto root : roots_) {
    votes.push_back(static_cast<int>(evalTree(root)));
  }
  return static_cast<double>(majorityClass(votes));
}

void FlattenedForest::predictBatch(std::span<const FeatureRow> rows,
                                   std::span<double> out) const {
  if (roots_.empty()) {
    throw std::logic_error("FlattenedForest::predictBatch before flatten");
  }
  if (rows.size() != out.size()) {
    throw std::invalid_argument(
        "FlattenedForest::predictBatch: rows/out length mismatch");
  }
  for (const auto& row : rows) {
    if (row.size() < featureCount_) {
      throw std::invalid_argument(
          "FlattenedForest::predictBatch: short feature row");
    }
  }

  const std::size_t n = rows.size();
  // One tree's leaf values for a block of rows; row r's contribution is
  // added in tree order, so the accumulated regression mean (and the vote
  // sequence below) is bit-identical to the single-row path.
  double treeVal[kRowBlock];
  const auto evalBlock = [&](std::int32_t root, std::size_t r0,
                             std::size_t m) {
    evalTreeBlock(root, rows.data() + r0, m, feature_.data(),
                  threshold_.data(), children_.data(), leafValue_.data(),
                  treeVal);
  };

  if (task_ == TreeTask::kRegression) {
    // Tree-major: one tree's arena segment stays hot across the whole batch.
    std::fill(out.begin(), out.end(), 0.0);
    for (const auto root : roots_) {
      for (std::size_t r0 = 0; r0 < n; r0 += kRowBlock) {
        const std::size_t m = std::min(kRowBlock, n - r0);
        evalBlock(root, r0, m);
        for (std::size_t j = 0; j < m; ++j) out[r0 + j] += treeVal[j];
      }
    }
    const double trees = static_cast<double>(roots_.size());
    for (auto& value : out) value /= trees;
    return;
  }

  // Classification, still tree-major into a reused scratch; vote counting
  // goes through the same sorted-run majorityClass as the single-row path.
  const std::size_t trees = roots_.size();
  thread_local std::vector<int> treeOut;  // tree-major, [t * n + r]
  treeOut.resize(trees * n);
  for (std::size_t t = 0; t < trees; ++t) {
    for (std::size_t r0 = 0; r0 < n; r0 += kRowBlock) {
      const std::size_t m = std::min(kRowBlock, n - r0);
      evalBlock(roots_[t], r0, m);
      for (std::size_t j = 0; j < m; ++j) {
        treeOut[t * n + r0 + j] = static_cast<int>(treeVal[j]);
      }
    }
  }
  thread_local std::vector<int> votes;
  for (std::size_t r = 0; r < n; ++r) {
    votes.clear();
    for (std::size_t t = 0; t < trees; ++t) votes.push_back(treeOut[t * n + r]);
    out[r] = static_cast<double>(majorityClass(votes));
  }
}

}  // namespace vcaqoe::ml
