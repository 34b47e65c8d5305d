#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

/// Multi-target inference surface.
///
/// The paper's deliverable is per-window prediction of *several* QoE metrics
/// (frame rate, bitrate, frame jitter, resolution) from IP/UDP features,
/// with different trained models per VCA (§4.3, §5). An `InferenceBackend`
/// is one immutable predictor shared by every flow that resolved to it; a
/// `PredictionSet` is the typed per-window result that replaces the old
/// anonymous `optional<double>`. Backends are stateless with respect to the
/// stream: `predict` is const and safe to call concurrently from every
/// engine worker.
namespace vcaqoe::inference {

/// A named prediction target — one per QoE metric the paper estimates.
enum class QoeTarget : std::uint8_t {
  kFrameRate = 0,   ///< frames per second (regression)
  kBitrateKbps,     ///< received video kbps (regression)
  kFrameJitterMs,   ///< stdev of inter-frame gaps in ms (regression)
  kResolution,      ///< frame-height class (classification)
};

inline constexpr std::size_t kNumTargets = 4;

inline constexpr std::array<QoeTarget, kNumTargets> kAllTargets = {
    QoeTarget::kFrameRate, QoeTarget::kBitrateKbps, QoeTarget::kFrameJitterMs,
    QoeTarget::kResolution};

/// Stable slug ("frame_rate", "bitrate_kbps", ...) — also the on-disk model
/// file stem the `ModelRegistry` looks for.
std::string_view toString(QoeTarget target);

/// Inverse of `toString`; nullopt on an unknown slug.
std::optional<QoeTarget> targetFromString(std::string_view slug);

/// Typed per-window predictions, one optional value per `QoeTarget`.
///
/// Value semantics, trivially copyable, and comparable bit-for-bit — the
/// engine's determinism contract ("sharded output identical to sequential")
/// extends to predictions through this operator==.
class PredictionSet {
 public:
  void set(QoeTarget target, double value) {
    values_[index(target)] = value;
    mask_ |= bit(target);
  }

  bool has(QoeTarget target) const { return (mask_ & bit(target)) != 0; }

  std::optional<double> get(QoeTarget target) const {
    if (!has(target)) return std::nullopt;
    return values_[index(target)];
  }

  /// Number of targets set.
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto target : kAllTargets) n += has(target) ? 1 : 0;
    return n;
  }

  bool empty() const { return mask_ == 0; }

  void clear() {
    mask_ = 0;
    values_.fill(0.0);
  }

  friend bool operator==(const PredictionSet& a, const PredictionSet& b) {
    if (a.mask_ != b.mask_) return false;
    for (const auto target : kAllTargets) {
      if (a.has(target) && a.values_[index(target)] != b.values_[index(target)])
        return false;
    }
    return true;
  }

 private:
  static constexpr std::size_t index(QoeTarget target) {
    return static_cast<std::size_t>(target);
  }
  static constexpr std::uint8_t bit(QoeTarget target) {
    return static_cast<std::uint8_t>(1u << index(target));
  }

  std::array<double, kNumTargets> values_{};
  std::uint8_t mask_ = 0;
};

/// Everything a backend may look at for one completed window. Plain doubles
/// (not core types) keep this module below `core` in the dependency graph.
struct WindowContext {
  /// The window's IP/UDP feature vector (14 features, Table 1).
  std::span<const double> features;
  /// Algorithm-1 heuristic estimates for the same window, when the caller
  /// computed them (the streaming estimator always does).
  bool hasHeuristic = false;
  double heuristicFps = 0.0;
  double heuristicBitrateKbps = 0.0;
  double heuristicFrameJitterMs = 0.0;
};

/// One immutable multi-target predictor.
///
/// Implementations must be safe for concurrent `predict` calls: the
/// `ModelRegistry` hands the same `shared_ptr<const InferenceBackend>` to
/// every flow (on every worker thread) that resolves to it.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  /// Predicts from the feature vector alone, filling (never clearing) `out`.
  virtual void predict(std::span<const double> features,
                       PredictionSet& out) const = 0;

  /// Full-window entry point; the default forwards to `predict(features)`.
  /// Backends that adapt non-feature signals (the heuristic estimates)
  /// override this one.
  virtual void predictWindow(const WindowContext& context,
                             PredictionSet& out) const {
    predict(context.features, out);
  }

  /// The one batched entry point, called by the engine's per-shard
  /// `InferenceBatcher`: fills `out[i]` from `contexts[i]`. The default
  /// loops over `predictWindow`, so every backend is batch-callable;
  /// backends with a vectorizable core (the flattened forests) override it
  /// to amortize the per-window dispatch. Results must be bit-identical to
  /// calling `predictWindow` per context — the engine's determinism
  /// contract extends through this path. Throws std::invalid_argument when
  /// the spans disagree in length.
  virtual void predictWindowBatch(std::span<const WindowContext> contexts,
                                  std::span<PredictionSet> out) const {
    checkBatchShape(contexts.size(), out.size());
    for (std::size_t i = 0; i < contexts.size(); ++i) {
      predictWindow(contexts[i], out[i]);
    }
  }

  /// The targets this backend fills.
  virtual std::vector<QoeTarget> targets() const = 0;

  /// Stable human-readable identity ("forest:teams/ipudp/frame_rate",
  /// "heuristic", "null"), surfaced in dashboards and per-flow stats.
  virtual const std::string& name() const = 0;

 protected:
  /// Length guard for the batched entry point and its overrides.
  static void checkBatchShape(std::size_t rows, std::size_t outs);
};

}  // namespace vcaqoe::inference
