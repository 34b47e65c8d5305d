#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "ml/flattened_forest.hpp"
#include "ml/random_forest.hpp"

/// Model persistence.
///
/// A deployment (the paper's §7 "system considerations") trains models
/// offline on labeled lab data and ships them to monitoring points; the
/// monitors must load models without retraining. The format is a versioned,
/// line-oriented text format — easy to diff, inspect, and parse without
/// external dependencies.
namespace vcaqoe::ml {

inline constexpr int kModelFormatVersion = 1;

/// Canonical extension of serialized forests; the inference ModelRegistry
/// looks for `<modelDir>/<vca>/<set>/<target>.forest`.
inline constexpr const char* kForestFileExtension = ".forest";

/// Serializes a trained forest. Throws std::logic_error if untrained.
void saveForest(const RandomForest& forest, std::ostream& out);
void saveForestFile(const RandomForest& forest, const std::string& path);

/// Deserializes a forest. Throws std::runtime_error on malformed input
/// (a forest of zero trees included) or version mismatch.
RandomForest loadForest(std::istream& in);
RandomForest loadForestFile(const std::string& path);

/// Lazy-load variant for registries: nullopt when `path` does not exist (a
/// normal miss), but still throws std::runtime_error when the file exists
/// and is malformed — a corrupt deployed model should be loud, a missing
/// one is routine.
std::optional<RandomForest> tryLoadForestFile(const std::string& path);

/// Canonical extension of serialized flattened forests.
inline constexpr const char* kFlatForestFileExtension = ".fforest";

/// Serializes a flattened forest (same versioned line-oriented family as
/// `saveForest`, magic `vcaqoe-forest-flat`, explicit `end` terminator).
/// Throws std::logic_error if untrained.
void saveFlattenedForest(const FlattenedForest& forest, std::ostream& out);
void saveFlattenedForestFile(const FlattenedForest& forest,
                             const std::string& path);

/// Deserializes a flattened forest. Throws std::runtime_error on malformed
/// input, version mismatch, declared counts that disagree with the payload,
/// trailing payload past the declared counts, or a `layout` line after the
/// task ("model load: unsupported layout line").
FlattenedForest loadFlattenedForest(std::istream& in);
FlattenedForest loadFlattenedForestFile(const std::string& path);

/// Lazy-load variant mirroring `tryLoadForestFile`: nullopt when `path`
/// does not exist, loud std::runtime_error when it exists but is malformed.
/// The `ModelRegistry` probes `<target>.fforest` before `<target>.forest`.
std::optional<FlattenedForest> tryLoadFlattenedForestFile(
    const std::string& path);

}  // namespace vcaqoe::ml
