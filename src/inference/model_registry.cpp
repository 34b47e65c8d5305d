#include "inference/model_registry.hpp"

#include <chrono>
#include <utility>

#include "ml/serialize.hpp"

namespace vcaqoe::inference {

ModelRegistry::ModelRegistry(ModelRegistryOptions options)
    : options_(std::move(options)), fallback_(options_.fallback) {
  if (!fallback_) fallback_ = std::make_shared<NullBackend>();
}

void ModelRegistry::registerBackend(
    const std::string& vca, QoeTarget target,
    std::shared_ptr<const InferenceBackend> backend,
    features::FeatureSet set) {
  common::WriterLock lock(mutex_);
  backends_[Key{vca, target, set}] = std::move(backend);
  composites_.clear();  // memoized sets may now compose differently
}

std::shared_ptr<const InferenceBackend> ModelRegistry::lookupOrLoad(
    const std::string& vca, QoeTarget target, features::FeatureSet set) {
  const Key key{vca, target, set};
  {
    common::ReaderLock lock(mutex_);
    const auto it = backends_.find(key);
    if (it != backends_.end()) {
      if (it->second) {
        hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Negative cache: a previous resolve already probed the disk.
        misses_.fetch_add(1, std::memory_order_relaxed);
      }
      return it->second;
    }
  }

  common::WriterLock lock(mutex_);
  // Double-check: another thread may have loaded while we upgraded.
  const auto it = backends_.find(key);
  if (it != backends_.end()) {
    if (it->second) {
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
    }
    return it->second;
  }

  std::shared_ptr<const InferenceBackend> loaded;
  if (!options_.modelDir.empty()) {
    const auto loadStart = std::chrono::steady_clock::now();
    const std::string slug(toString(target));
    // Loaded forests must fit the feature set's row width — a mismatched
    // model is a load failure (fallback served), not a mid-stream
    // "short feature row" throw or a silent misindex.
    const std::size_t rowWidth = features::featureCount(set);
    // <modelDir>/<vca>/<set>/<target>: flat layout first (what the hot
    // path evaluates anyway), node-tree second (flattened on load). The
    // probes fail independently: a malformed file is counted loudly but
    // must neither take the monitor down nor suppress a loadable sibling in
    // the other layout (e.g. a crash mid-write leaving a truncated .fforest
    // beside a good .forest).
    const std::string setName(features::toString(set));
    const std::string stem =
        options_.modelDir + "/" + vca + "/" + setName + "/" + slug;
    const std::string name = "forest:" + vca + "/" + setName + "/" + slug;
    try {
      if (auto flat = ml::tryLoadFlattenedForestFile(
              stem + ml::kFlatForestFileExtension)) {
        loaded = std::make_shared<ForestBackend>(std::move(*flat), target,
                                                 name, rowWidth);
        loads_.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (const std::exception&) {
      loadFailures_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!loaded) {
      try {
        if (auto forest =
                ml::tryLoadForestFile(stem + ml::kForestFileExtension)) {
          loaded = std::make_shared<ForestBackend>(*forest, target, name,
                                                   rowWidth);
          loads_.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::exception&) {
        loadFailures_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    loadWallNs_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - loadStart)
                .count()),
        std::memory_order_relaxed);
  }
  if (!loaded) misses_.fetch_add(1, std::memory_order_relaxed);
  backends_[key] = loaded;
  composites_.clear();  // memoized sets may now compose differently
  return loaded;
}

std::shared_ptr<const InferenceBackend> ModelRegistry::resolve(
    const std::string& vca, QoeTarget target, features::FeatureSet set) {
  auto backend = lookupOrLoad(vca, target, set);
  return backend ? backend : fallback_;
}

std::shared_ptr<const InferenceBackend> ModelRegistry::resolveSet(
    const std::string& vca, std::span<const QoeTarget> targets,
    features::FeatureSet set) {
  // Per-target probes always run, so the hit/miss/load counters see exactly
  // one resolution per (admission, target) and lazy loads happen here; the
  // composition itself is memoized below.
  std::uint32_t mask = 0;
  for (const auto target : targets) {
    mask |= 1u << static_cast<std::uint32_t>(target);
    lookupOrLoad(vca, target, set);
  }
  if (mask == 0) return fallback_;

  // Steady state (millions of admissions, a handful of model sets) must not
  // allocate a fresh composite per flow: memoize per (vca, target set,
  // feature set). The cache is cleared whenever `backends_` changes, and
  // children are built from the map under the write lock in canonical
  // target order — never from the probe results — so neither a racing
  // mutation nor the caller's target ordering can pin a different
  // composition.
  const std::tuple<std::string, std::uint32_t, features::FeatureSet> cacheKey{
      vca, mask, set};
  {
    common::ReaderLock lock(mutex_);
    const auto it = composites_.find(cacheKey);
    if (it != composites_.end()) return it->second;
  }
  common::WriterLock lock(mutex_);
  const auto cached = composites_.find(cacheKey);
  if (cached != composites_.end()) return cached->second;

  std::vector<std::shared_ptr<const InferenceBackend>> children;
  bool missing = false;
  for (const auto target : kAllTargets) {
    if ((mask & (1u << static_cast<std::uint32_t>(target))) == 0) continue;
    const auto entry = backends_.find(Key{vca, target, set});
    if (entry == backends_.end() || !entry->second) {
      missing = true;
      continue;
    }
    const auto& backend = entry->second;
    bool duplicate = false;
    for (const auto& seen : children) duplicate = duplicate || seen == backend;
    if (!duplicate) children.push_back(backend);
  }
  std::shared_ptr<const InferenceBackend> composed;
  if (children.empty()) {
    composed = fallback_;
  } else {
    // Fallback first: real models override it on overlapping targets.
    if (missing) children.insert(children.begin(), fallback_);
    composed = children.size() == 1
                   ? children.front()
                   : std::make_shared<CompositeBackend>(std::move(children));
  }
  return composites_.try_emplace(cacheKey, std::move(composed)).first->second;
}

std::size_t ModelRegistry::size() const {
  common::ReaderLock lock(mutex_);
  std::size_t positive = 0;
  for (const auto& [key, backend] : backends_) {
    if (backend) ++positive;
  }
  return positive;
}

RegistryStats ModelRegistry::stats() const {
  RegistryStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.loads = loads_.load(std::memory_order_relaxed);
  stats.loadFailures = loadFailures_.load(std::memory_order_relaxed);
  stats.loadWallNs = loadWallNs_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace vcaqoe::inference
