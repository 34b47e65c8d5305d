#pragma once

#include <memory>
#include <string>
#include <vector>

#include "inference/backend.hpp"
#include "ml/flattened_forest.hpp"
#include "ml/random_forest.hpp"

/// The concrete backends every layer now shares.
namespace vcaqoe::inference {

/// One trained forest predicting one target from a feature-set row, held
/// only as a `ml::FlattenedForest` — the contiguous SoA arena the hot path
/// scans instead of chasing the node tree — so every registry resolution
/// hands out the flat layout and the warm cache stores exactly one
/// representation per model. A node-tree `ml::RandomForest` passed in is
/// flattened at construction and discarded; both layouts produce
/// bit-identical predictions (tested property). The backend is never
/// mutated after construction, so one instance serves any number of flows.
///
/// Row-width contract: pass `expectedFeatureCount` (the
/// `features::featureCount` of the set this model will be fed) to reject a
/// mismatched model at load time — the forest's declared feature count and
/// every node's split feature index must fit the row. Without the check a
/// too-wide model would throw "short feature row" on the first window
/// mid-stream (or, with a corrupted declared count, misindex); 0 skips it.
class ForestBackend final : public InferenceBackend {
 public:
  /// Flattens and discards the node-tree form. Throws std::invalid_argument
  /// if the forest is untrained or does not fit `expectedFeatureCount`.
  ForestBackend(const ml::RandomForest& forest, QoeTarget target,
                std::string name, std::size_t expectedFeatureCount = 0);
  /// Adopts an already-flattened forest (the `.fforest` lazy-load path).
  /// Throws std::invalid_argument if it is untrained or does not fit
  /// `expectedFeatureCount`.
  ForestBackend(ml::FlattenedForest forest, QoeTarget target,
                std::string name, std::size_t expectedFeatureCount = 0);

  void predict(std::span<const double> features,
               PredictionSet& out) const override;
  void predictWindowBatch(std::span<const WindowContext> contexts,
                          std::span<PredictionSet> out) const override;
  std::vector<QoeTarget> targets() const override { return {target_}; }
  const std::string& name() const override { return name_; }

  const ml::FlattenedForest& flattened() const { return flat_; }

 private:
  ml::FlattenedForest flat_;
  QoeTarget target_;
  std::string name_;
};

/// Adapts the Algorithm-1 heuristic estimates (already computed per window
/// by the streaming estimator) into a `PredictionSet`, so heuristic and ML
/// results flow through the same typed result path. From the feature vector
/// alone it predicts nothing. No vectorizable core, so the inherited
/// batched entry point (a loop over `predictWindow`) is already optimal.
class HeuristicBackend final : public InferenceBackend {
 public:
  HeuristicBackend();

  void predict(std::span<const double> features,
               PredictionSet& out) const override;
  void predictWindow(const WindowContext& context,
                     PredictionSet& out) const override;
  std::vector<QoeTarget> targets() const override;
  const std::string& name() const override { return name_; }

 private:
  std::string name_;
};

/// Predicts nothing — the registry's default fallback, keeping "no model
/// for this flow" on the same code path as every other resolution.
class NullBackend final : public InferenceBackend {
 public:
  NullBackend();

  void predict(std::span<const double> features,
               PredictionSet& out) const override;
  void predictWindowBatch(std::span<const WindowContext> contexts,
                          std::span<PredictionSet> out) const override;
  std::vector<QoeTarget> targets() const override { return {}; }
  const std::string& name() const override { return name_; }

 private:
  std::string name_;
};

/// Fans one window out to several backends (one per resolved target) and
/// merges their predictions. Children are shared immutable backends; later
/// children win on overlapping targets.
class CompositeBackend final : public InferenceBackend {
 public:
  explicit CompositeBackend(
      std::vector<std::shared_ptr<const InferenceBackend>> children);

  void predict(std::span<const double> features,
               PredictionSet& out) const override;
  void predictWindow(const WindowContext& context,
                     PredictionSet& out) const override;
  void predictWindowBatch(std::span<const WindowContext> contexts,
                          std::span<PredictionSet> out) const override;
  std::vector<QoeTarget> targets() const override;
  const std::string& name() const override { return name_; }

 private:
  std::vector<std::shared_ptr<const InferenceBackend>> children_;
  std::string name_;
};

}  // namespace vcaqoe::inference
