#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "core/streaming.hpp"
#include "engine/multi_flow_engine.hpp"
#include "features/feature_vector.hpp"
#include "inference/model_registry.hpp"
#include "netflow/packet.hpp"

/// The benchmark's workloads: simulated VCA calls written to a capture file,
/// the engine configuration that replays it, and everything needed to check
/// the engine's output — built once per invocation from the seed.
namespace vcaqoe::bench::pipeline {

/// Engine worker threads. With the caller (dispatcher) thread this is four
/// busy threads, one per vCPU on the 4-vCPU reference host; five busy
/// threads on four vCPUs made replay throughput bimodal (see README).
inline constexpr int kWorkers = 3;

/// The only target the models predict.
inline constexpr inference::QoeTarget kTarget =
    inference::QoeTarget::kFrameRate;

/// Which calls a workload's capture holds.
enum class Traffic : std::uint8_t {
  /// 64 long-lived calls of all three VCAs, all present from the start.
  kLongLived,
  /// Short calls arriving as a Poisson stream (the paper's real-world call
  /// lengths), so flows are admitted and evicted throughout.
  kChurn,
  /// 64 long-lived Teams calls (one payload-type plan for the RTP set).
  kLongLivedTeams,
};

/// What one workload replays, and how its engine is configured.
struct WorkloadShape {
  const char* name;
  Traffic traffic;
  features::FeatureSet featureSet;
  std::size_t inferenceBatch;
};

/// The workload called `name`, or null.
const WorkloadShape* findShape(const std::string& name);

/// A built workload. Per-flow vectors are indexed in first-seen order, which
/// is the engine's `FlowId` order for these captures (no flow returns after
/// eviction; checked after every run).
struct Workload {
  WorkloadShape shape;
  std::string capturePath;
  std::string modelDir;
  /// VCA registry keys the capture's flows resolve to (eagerly loaded in
  /// set-up).
  std::vector<std::string> vcas;
  core::StreamingOptions streaming;

  std::uint64_t packets = 0;
  std::uint64_t calls = 0;
  double streamSeconds = 0.0;

  std::vector<netflow::FlowKey> flowKeys;
  std::vector<std::string> flowVca;
  /// Sequential reference: each flow's windows from a standalone
  /// `StreamingEstimator` with the flow's model attached. Window w of a
  /// flow is element w (windows are emitted from 0 without gaps).
  std::vector<std::vector<core::StreamingOutput>> reference;
  std::uint64_t referenceWindows = 0;
  /// Per flow and window: index into `eventPackets` of the packet whose
  /// processing emits the window; -1 when only the flow's finalization
  /// (eviction or end of stream) emits it, or when the window precedes the
  /// flow's first packet.
  std::vector<std::vector<std::int32_t>> windowEvent;
  /// 0-based capture positions of window-emitting packets, ascending.
  std::vector<std::uint64_t> eventPackets;
  /// Per flow and window: ground-truth frame rate, NaN where the simulated
  /// receiver log has no valid value for every second of the window.
  std::vector<std::vector<double>> truthFps;
  /// The offline path's Algorithm-1 frame-rate MAE on the same calls
  /// (`core::buildWindowRecords` + `core::heuristicSeries`, flows in the
  /// same order). Set for IP/UDP workloads, whose engine heuristic must
  /// reproduce it exactly.
  std::optional<double> offlineHeuristicMae;

  /// Engine options for one run, serving models from `registry`.
  engine::EngineOptions engineOptions(
      std::shared_ptr<inference::ModelRegistry> registry) const;
};

/// Trains per-VCA IP/UDP and RTP frame-rate forests on simulated lab calls
/// (seeds disjoint from every workload's calls) and saves them as
/// `<modelDir>/<vca>/<set>/frame_rate.fforest`, the layout the registry
/// (and `pcap_monitor --model-dir`) reads.
void trainModels(std::uint64_t seed, const std::string& modelDir);

/// Simulates the workload's calls, writes its capture to `workDir`, and
/// computes the sequential reference, emission events and ground truth.
Workload buildWorkload(const WorkloadShape& shape, std::uint64_t seed,
                       const std::string& workDir,
                       const std::string& modelDir);

}  // namespace vcaqoe::bench::pipeline
