#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_annotations.hpp"
#include "features/feature_vector.hpp"
#include "inference/backends.hpp"

/// Warm-model registry keyed by (VCA classification, target, feature set).
///
/// A monitoring point serves millions of flows but only a handful of
/// distinct models (one per VCA per QoE target per feature family). The
/// registry holds each model once as an immutable
/// `shared_ptr<const InferenceBackend>`; every flow that classifies to the
/// same VCA and runs the same feature set shares the same backend instance.
/// Models are loaded lazily from a `ml::serialize` directory the first time
/// a (vca, target, set) triple is requested — the layout is
/// `<modelDir>/<vca>/<set>/<target>.fforest` (flattened, probed first) or
/// `<target>.forest` (node tree, flattened on load; e.g.
/// `models/teams/rtp/frame_rate.fforest`); no other path is probed. Loaded
/// forests are width-validated against the feature set's row
/// (`features::featureCount(set)`); a mismatched model counts as a load
/// failure and the fallback is served instead of misindexing mid-stream.
/// Both positive and negative lookups are cached. Counting contract:
/// every `resolve`/`resolveSet` charges one hit, miss, or load per
/// requested target, so steady-state admission cost is one shared-lock map
/// probe *per target* plus one memoized-composition probe; the disk is
/// never re-touched after the first probe of a key.
namespace vcaqoe::inference {

/// Resolution counters, exported through `EngineStats`.
struct RegistryStats {
  /// Resolutions served by a cached backend.
  std::uint64_t hits = 0;
  /// Resolutions with no model anywhere (fallback served).
  std::uint64_t misses = 0;
  /// Lazy loads from disk that produced a backend.
  std::uint64_t loads = 0;
  /// Model files that existed but failed to parse or fit the feature set.
  std::uint64_t loadFailures = 0;
  /// Summed wall time of the disk probes behind lazy loads, hits on disk or
  /// not. They run under the registry's writer lock on the resolving thread
  /// (the dispatcher, for engine admissions), so this is how long flow
  /// admission stalled on model files. Stays 0 without a `modelDir`.
  std::uint64_t loadWallNs = 0;
};

struct ModelRegistryOptions {
  /// Root of the on-disk model tree; empty disables lazy loading.
  std::string modelDir;
  /// Served when a (vca, target, set) has no model. Null means `NullBackend`
  /// (predict nothing); a `HeuristicBackend` here degrades missing models
  /// to Algorithm-1 estimates instead.
  std::shared_ptr<const InferenceBackend> fallback;
};

class ModelRegistry {
 public:
  explicit ModelRegistry(ModelRegistryOptions options = {});

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Installs (or replaces) the backend for one (vca, target, set) key.
  void registerBackend(
      const std::string& vca, QoeTarget target,
      std::shared_ptr<const InferenceBackend> backend,
      features::FeatureSet set = features::FeatureSet::kIpUdp);

  /// Resolves one (vca, target, set): cached backend, else lazy disk load,
  /// else the fallback. Never returns null. Safe to call concurrently from
  /// any number of threads.
  std::shared_ptr<const InferenceBackend> resolve(
      const std::string& vca, QoeTarget target,
      features::FeatureSet set = features::FeatureSet::kIpUdp);

  /// Resolves several targets for one (VCA, feature set) into a single
  /// backend a per-flow estimator can hold: the lone resolved backend, a
  /// `CompositeBackend` over several, or the fallback when nothing
  /// resolved. Children compose in canonical `QoeTarget` order regardless
  /// of the order of `targets`, and when any target went unresolved the
  /// fallback joins the composite first, so real models win on overlapping
  /// targets. Compositions are memoized per (vca, target set, feature set);
  /// steady state allocates nothing.
  std::shared_ptr<const InferenceBackend> resolveSet(
      const std::string& vca, std::span<const QoeTarget> targets,
      features::FeatureSet set = features::FeatureSet::kIpUdp);

  const std::shared_ptr<const InferenceBackend>& fallback() const {
    return fallback_;
  }

  /// Distinct (vca, target, set) keys currently cached (positive entries
  /// only).
  std::size_t size() const;

  RegistryStats stats() const;

 private:
  using Key = std::tuple<std::string, QoeTarget, features::FeatureSet>;

  /// Cached resolution: null backend pointer = known-missing (negative
  /// cache; the fallback is served without re-probing the disk).
  std::shared_ptr<const InferenceBackend> lookupOrLoad(
      const std::string& vca, QoeTarget target, features::FeatureSet set);

  ModelRegistryOptions options_;
  std::shared_ptr<const InferenceBackend> fallback_;

  mutable common::SharedMutex mutex_;
  std::map<Key, std::shared_ptr<const InferenceBackend>> backends_
      GUARDED_BY(mutex_);
  /// Memoized `resolveSet` composites keyed by (vca, target bitmask,
  /// feature set), so steady-state flow admission allocates nothing.
  /// Invalidated whenever `backends_` changes (registration or lazy load).
  std::map<std::tuple<std::string, std::uint32_t, features::FeatureSet>,
           std::shared_ptr<const InferenceBackend>>
      composites_ GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> loads_{0};
  std::atomic<std::uint64_t> loadFailures_{0};
  std::atomic<std::uint64_t> loadWallNs_{0};
};

}  // namespace vcaqoe::inference
