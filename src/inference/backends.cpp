#include "inference/backends.hpp"

#include <stdexcept>

namespace vcaqoe::inference {

std::string_view toString(QoeTarget target) {
  switch (target) {
    case QoeTarget::kFrameRate:
      return "frame_rate";
    case QoeTarget::kBitrateKbps:
      return "bitrate_kbps";
    case QoeTarget::kFrameJitterMs:
      return "frame_jitter_ms";
    case QoeTarget::kResolution:
      return "resolution";
  }
  return "unknown";
}

std::optional<QoeTarget> targetFromString(std::string_view slug) {
  for (const auto target : kAllTargets) {
    if (toString(target) == slug) return target;
  }
  return std::nullopt;
}

void InferenceBackend::checkBatchShape(std::size_t rows, std::size_t outs) {
  if (rows != outs) {
    throw std::invalid_argument(
        "InferenceBackend: batch rows/out length mismatch");
  }
}

namespace {

/// Load-time row-width validation: the forest's declared feature count and
/// every node's split feature index must fit the `expected`-wide rows this
/// backend will be fed. `expected == 0` skips the check (caller vouches).
void checkFeatureWidth(const ml::FlattenedForest& flat, std::size_t expected,
                       const std::string& name) {
  if (expected == 0) return;
  std::int32_t maxIndex = -1;
  for (const auto index : flat.feature()) {
    if (index > maxIndex) maxIndex = index;
  }
  if (flat.featureCount() > expected ||
      maxIndex >= static_cast<std::int32_t>(expected)) {
    throw std::invalid_argument(
        "ForestBackend: model '" + name + "' declares " +
        std::to_string(flat.featureCount()) +
        " features (max split index " + std::to_string(maxIndex) +
        ") but the target feature set rows are " + std::to_string(expected) +
        " wide");
  }
}

}  // namespace

ForestBackend::ForestBackend(const ml::RandomForest& forest, QoeTarget target,
                             std::string name,
                             std::size_t expectedFeatureCount)
    : target_(target), name_(std::move(name)) {
  if (!forest.trained()) {
    throw std::invalid_argument("ForestBackend: forest is untrained");
  }
  flat_ = ml::FlattenedForest(forest);
  if (name_.empty()) {
    name_ = "forest:" + std::string(toString(target_));
  }
  checkFeatureWidth(flat_, expectedFeatureCount, name_);
}

ForestBackend::ForestBackend(ml::FlattenedForest forest, QoeTarget target,
                             std::string name,
                             std::size_t expectedFeatureCount)
    : flat_(std::move(forest)), target_(target), name_(std::move(name)) {
  if (!flat_.trained()) {
    throw std::invalid_argument("ForestBackend: forest is untrained");
  }
  if (name_.empty()) {
    name_ = "forest:" + std::string(toString(target_));
  }
  checkFeatureWidth(flat_, expectedFeatureCount, name_);
}

void ForestBackend::predict(std::span<const double> features,
                            PredictionSet& out) const {
  out.set(target_, flat_.predict(features));
}

void ForestBackend::predictWindowBatch(std::span<const WindowContext> contexts,
                                       std::span<PredictionSet> out) const {
  checkBatchShape(contexts.size(), out.size());
  if (contexts.empty()) return;
  // The backend is const and shared across workers, so reusable scratch
  // lives per thread — the batcher flushes on the hot path and must not
  // pay an allocation per flush in steady state.
  thread_local std::vector<ml::FeatureRow> rows;
  thread_local std::vector<double> values;
  rows.clear();
  rows.reserve(contexts.size());
  for (const auto& context : contexts) rows.push_back(context.features);
  values.resize(rows.size());
  flat_.predictBatch(rows, values);
  for (std::size_t i = 0; i < rows.size(); ++i) out[i].set(target_, values[i]);
}

HeuristicBackend::HeuristicBackend() : name_("heuristic") {}

void HeuristicBackend::predict(std::span<const double>,
                               PredictionSet&) const {
  // Algorithm 1 works on frame boundaries, which the 14 IP/UDP features do
  // not carry — only the full-window path can fill anything.
}

void HeuristicBackend::predictWindow(const WindowContext& context,
                                     PredictionSet& out) const {
  if (!context.hasHeuristic) return;
  out.set(QoeTarget::kFrameRate, context.heuristicFps);
  out.set(QoeTarget::kBitrateKbps, context.heuristicBitrateKbps);
  out.set(QoeTarget::kFrameJitterMs, context.heuristicFrameJitterMs);
}

std::vector<QoeTarget> HeuristicBackend::targets() const {
  return {QoeTarget::kFrameRate, QoeTarget::kBitrateKbps,
          QoeTarget::kFrameJitterMs};
}

NullBackend::NullBackend() : name_("null") {}

void NullBackend::predict(std::span<const double>, PredictionSet&) const {}

void NullBackend::predictWindowBatch(std::span<const WindowContext> contexts,
                                     std::span<PredictionSet> out) const {
  checkBatchShape(contexts.size(), out.size());
}

CompositeBackend::CompositeBackend(
    std::vector<std::shared_ptr<const InferenceBackend>> children)
    : children_(std::move(children)) {
  for (const auto& child : children_) {
    if (!child) throw std::invalid_argument("CompositeBackend: null child");
    if (!name_.empty()) name_ += "+";
    name_ += child->name();
  }
  if (name_.empty()) name_ = "composite:empty";
}

void CompositeBackend::predict(std::span<const double> features,
                               PredictionSet& out) const {
  for (const auto& child : children_) child->predict(features, out);
}

void CompositeBackend::predictWindow(const WindowContext& context,
                                     PredictionSet& out) const {
  for (const auto& child : children_) child->predictWindow(context, out);
}

void CompositeBackend::predictWindowBatch(
    std::span<const WindowContext> contexts,
    std::span<PredictionSet> out) const {
  // Child-major (each child sweeps the whole batch) keeps one child's arena
  // hot; per window the children still apply in order, so later children
  // win on overlapping targets exactly like the scalar path.
  checkBatchShape(contexts.size(), out.size());
  for (const auto& child : children_) child->predictWindowBatch(contexts, out);
}

std::vector<QoeTarget> CompositeBackend::targets() const {
  std::vector<QoeTarget> merged;
  for (const auto target : kAllTargets) {
    for (const auto& child : children_) {
      const auto childTargets = child->targets();
      bool found = false;
      for (const auto t : childTargets) found = found || t == target;
      if (found) {
        merged.push_back(target);
        break;
      }
    }
  }
  return merged;
}

}  // namespace vcaqoe::inference
