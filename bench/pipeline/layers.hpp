#pragma once

#include <cstdint>

#include "measure.hpp"
#include "workload.hpp"

/// Isolated layer passes: each layer's public functions timed on the
/// workload's own capture, one layer at a time, so the per-layer costs can
/// be set against the end-to-end run they add up to.
namespace vcaqoe::bench::pipeline {

struct LayerCosts {
  /// `PcapReplaySource::next` over the whole capture.
  double parseNsPerPkt = 0.0;
  /// `FlowDemuxCache::lookup`, falling back to `FlowTable::intern`.
  double demuxNsPerPkt = 0.0;
  /// Per-flow `StreamingEstimator::onPacket`/`finish` without a backend,
  /// minus the feature extraction it performs.
  double estimatorNsPerPkt = 0.0;
  /// `features::extractFeatures` on each window's columns.
  double extractNsPerWindow = 0.0;
  /// `predictWindowBatch` at the workload's batch size over the reference
  /// windows.
  double predictNsPerWindow = 0.0;
  double videoPktFrac = 0.0;
  double windowsPerKpkt = 0.0;
};

LayerCosts measureLayers(const Workload& workload, Tracer& tracer);

}  // namespace vcaqoe::bench::pipeline
