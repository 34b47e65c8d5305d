#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "engine/multi_flow_engine.hpp"
#include "ingest/packet_source.hpp"

namespace vcaqoe::ingest {

/// What one replay run produced.
struct ReplayReport {
  /// Packets pulled from the source and fed to the engine.
  std::uint64_t packets = 0;
  /// Every window result, in canonical (flow id, window) order.
  std::vector<engine::EngineResult> results;
  /// Engine counters snapshot taken after finish().
  engine::EngineStats engineStats;
};

/// Pumps `source` dry into `engine`, draining result rings every
/// `pollEvery` packets (keeping workers unblocked on bounded rings), then
/// finalizes the engine and returns everything in canonical
/// (flow id, window) order.
///
/// With `pumpIntervalNs > 0` the driver additionally calls
/// `engine.pump(now)` whenever stream time advances by that much — the
/// live-mode idle kick: dispatcher-side pending buffers are flushed and
/// each shard runs its inference-batcher deadline check at a bounded
/// stream-time cadence instead of waiting for dispatch-batch boundaries.
/// The cadence is checked at packet boundaries, so under a real-time paced
/// source this bounds wall-clock result latency *while packets flow*;
/// across a long capture gap the next pump fires with the packet that ends
/// the gap (a true live source would drive `pump` from a wall-clock timer —
/// see ROADMAP). Pumping changes only *when* results surface, never their
/// values or canonical order.
///
/// Per packet the order is fixed: `source.next()` → `hooks.onPacket` →
/// `engine.onPacket`, and packet i's hook runs before packet i+1 is pulled
/// (tested contract). A source may therefore expose state about the packet
/// it pulled last — a paced source's due time, say — and a hook reads it
/// for exactly that packet; pulling ahead in batches would break this.
///
/// Canonical ordering makes the output a pure function of the packet stream:
/// replaying a written capture yields results bit-identical to feeding the
/// same packets to `onPacket` directly, for any worker count (tested
/// property — the acceptance gate of the ingest path).
ReplayReport replay(PacketSource& source, engine::MultiFlowEngine& engine,
                    std::size_t pollEvery = 1024,
                    common::DurationNs pumpIntervalNs = 0);

/// Observation hooks for instrumented replays (latency probes in the
/// benches). Purely passive: they never change what is fed or drained.
struct ReplayHooks {
  /// Called for every packet just before it is fed to the engine.
  std::function<void(const SourcePacket&)> onPacket;
  /// Called with each batch of results drained *while feeding* (poll and
  /// pump drains). The finish() tail is not reported — those windows
  /// surface only because the stream ended, so they have no meaningful
  /// dispatch latency.
  std::function<void(std::span<const engine::EngineResult>)> onDrained;
};

/// As above, with hooks (null members are skipped).
ReplayReport replay(PacketSource& source, engine::MultiFlowEngine& engine,
                    std::size_t pollEvery, common::DurationNs pumpIntervalNs,
                    const ReplayHooks& hooks);

}  // namespace vcaqoe::ingest
