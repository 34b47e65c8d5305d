#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// Named feature vectors shared by the ML estimators, the importance
/// reports, and the benches.
namespace vcaqoe::features {

/// Which feature family a model consumes (Table 1). One byte, so it packs
/// beside a flow id in the engine's per-packet queue item.
enum class FeatureSet : std::uint8_t {
  /// Flow-level statistics + VCA-semantic features (14 features) — the
  /// paper's IP/UDP ML input.
  kIpUdp,
  /// Flow-level statistics + RTP-header features — the RTP ML baseline.
  kRtp,
};

/// Ordered feature names for a set. The order is the column order of every
/// dataset matrix built from that set.
const std::vector<std::string>& featureNames(FeatureSet set);

/// Number of features in a set.
std::size_t featureCount(FeatureSet set);

/// Stable lowercase identifier for a set ("ipudp" / "rtp"). Used for
/// model-registry directory names and CLI flags.
std::string_view toString(FeatureSet set);

/// Inverse of `toString`; nullopt for unknown identifiers.
std::optional<FeatureSet> featureSetFromString(std::string_view text);

}  // namespace vcaqoe::features
