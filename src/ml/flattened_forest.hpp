#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/random_forest.hpp"

/// Cache-friendly forest evaluation.
///
/// `ml::DecisionTree` keeps each tree as a vector of 40-byte AoS nodes and
/// `RandomForest::predict` chases them one window at a time — fine for
/// training and offline evaluation, but the per-window hot path of a
/// network-scale monitor (§7) is dominated by exactly that pointer chasing.
/// `FlattenedForest` re-lays an already-trained forest into one contiguous
/// structure-of-arrays arena shared by every tree:
///
///   feature[]    int32 per internal node — split feature
///   threshold[]  double per internal node — go left when x[f] <= t
///   children[]   int32 pair per internal node — [2n] left, [2n+1] right,
///                interleaved so one cache line serves both outcomes of a
///                split and the taken child is
///                `children[2n + (x[f] <= t ? 0 : 1)]` (branchless index
///                math — comparison sense matches the node tree, so NaN
///                features go right on both layouts)
///   leafValue[]  double per leaf
///
/// A child reference >= 0 is an internal-node index into the arena; a
/// negative reference encodes a leaf as `-(leafIndex + 1)`, so traversal is
/// a branch-free-ish loop over three flat streams with the leaf test folded
/// into the sign bit. Tree roots use the same encoding (a depth-0 tree is a
/// root that is itself a leaf).
///
/// `predict` is bit-exact with `RandomForest::predict` (tested property):
/// trees are evaluated in the same order, the regression mean accumulates in
/// the same order, and classification ties break toward the smallest class
/// id exactly as the node-tree form does. `predictBatch` evaluates
/// tree-major — one tree's arena segment stays hot across the whole batch —
/// which is where the cross-flow batched inference pipeline gets its win.
namespace vcaqoe::ml {

/// One feature vector, borrowed from the caller for the duration of a call.
using FeatureRow = std::span<const double>;

class FlattenedForest {
 public:
  FlattenedForest() = default;

  /// Flattens a trained forest. Throws std::invalid_argument when the forest
  /// is untrained.
  explicit FlattenedForest(const RandomForest& forest);

  /// Reconstruction from raw arrays (deserialization). Validates every child
  /// and root reference; throws std::invalid_argument on any out-of-range
  /// reference or inconsistent array sizes.
  static FlattenedForest fromParts(TreeTask task, std::size_t featureCount,
                                   std::vector<std::int32_t> roots,
                                   std::vector<std::int32_t> feature,
                                   std::vector<double> threshold,
                                   std::vector<std::int32_t> left,
                                   std::vector<std::int32_t> right,
                                   std::vector<double> leafValue);

  bool trained() const { return !roots_.empty(); }
  TreeTask task() const { return task_; }
  std::size_t treeCount() const { return roots_.size(); }
  /// Internal (split) nodes across all trees.
  std::size_t internalNodeCount() const { return feature_.size(); }
  std::size_t leafCount() const { return leafValue_.size(); }
  std::size_t featureCount() const { return featureCount_; }

  /// Mean of tree outputs (regression) or majority vote, ties to the
  /// smallest class id (classification) — bit-exact with
  /// `RandomForest::predict` on the source forest.
  double predict(FeatureRow x) const;

  /// Batched predict: `out[i]` receives the prediction for `rows[i]`,
  /// bit-identical to `predict(rows[i])`. Evaluates tree-major over the
  /// whole batch, advancing a lane of up to 8 rows one tree level per round
  /// so their data-dependent loads overlap. Throws std::invalid_argument
  /// when the spans disagree in length.
  void predictBatch(std::span<const FeatureRow> rows,
                    std::span<double> out) const;

  /// Raw array access for persistence.
  const std::vector<std::int32_t>& roots() const { return roots_; }
  const std::vector<std::int32_t>& feature() const { return feature_; }
  const std::vector<double>& threshold() const { return threshold_; }
  /// Interleaved child pairs: `children()[2n]` left, `children()[2n+1]`
  /// right (the on-disk format keeps separate left/right columns).
  const std::vector<std::int32_t>& children() const { return children_; }
  std::int32_t left(std::size_t node) const { return children_[2 * node]; }
  std::int32_t right(std::size_t node) const {
    return children_[2 * node + 1];
  }
  const std::vector<double>& leafValue() const { return leafValue_; }

 private:
  TreeTask task_ = TreeTask::kRegression;
  std::size_t featureCount_ = 0;
  std::vector<std::int32_t> roots_;      // one child-encoded ref per tree
  std::vector<std::int32_t> feature_;    // per internal node
  std::vector<double> threshold_;        // per internal node
  std::vector<std::int32_t> children_;   // 2 per internal node, interleaved
  std::vector<double> leafValue_;        // per leaf
};

}  // namespace vcaqoe::ml
