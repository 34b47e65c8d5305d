#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/multi_flow_engine.hpp"
#include "ingest/packet_source.hpp"
#include "ingest/pcap_replay.hpp"
#include "workload.hpp"

/// One repeat of a workload, end to end through the public API, and the
/// spans a traced repeat records from outside the calls it makes.
namespace vcaqoe::bench::pipeline {

/// Steady-clock nanoseconds.
std::int64_t nowNs();

/// Cost of one `nowNs()` read, subtracted from sampled spans so a
/// 1-in-64 span of a ~100 ns call is not inflated by its own clock reads.
std::int64_t clockOverheadNs();

/// Layer boundaries a span can mark. The run spans wrap calls into the
/// engine from the caller thread; the pass spans wrap the isolated layer
/// passes.
enum class SpanKind : std::uint8_t {
  kRepeat,
  kSetup,
  kModelLoad,
  kNext,
  kOnPacket,
  kPoll,
  kFinish,
  kParsePass,
  kDemuxPass,
  kEstimatorPass,
  kExtractPass,
  kPredictPass,
};
std::string_view spanName(SpanKind kind);

/// In-memory span recorder (name, start, end, parent), written at exit as
/// Chrome trace-event JSON. Stops recording at `capacity` spans; ids of
/// unrecorded spans are 0, which also means "no parent".
class Tracer {
 public:
  explicit Tracer(std::size_t capacity) : capacity_(capacity) {}

  /// Opens a span whose end is set by `close`.
  std::uint32_t open(SpanKind kind, std::int64_t startNs,
                     std::uint32_t parent = 0);
  void close(std::uint32_t id, std::int64_t endNs);
  /// Records a finished span.
  std::uint32_t add(SpanKind kind, std::int64_t startNs, std::int64_t endNs,
                    std::uint32_t parent = 0);

  /// Writes {"traceEvents": [...]} to `path`; false on I/O failure.
  bool writeChrome(const std::string& path) const;

 private:
  struct Span {
    SpanKind kind;
    std::int64_t startNs;
    std::int64_t endNs;
    std::uint32_t parent;
  };
  std::size_t capacity_;
  std::vector<Span> spans_;
};

/// Open-loop pacing over another source: packet i is due at
/// start + (arrival_i - arrival_0) / speed. The source waits only when it
/// is more than 200 us ahead of schedule, so it never waits on the engine;
/// it stamps each packet's due time for latency measurement and samples
/// how late packets leave it.
class PacedSource final : public ingest::PacketSource {
 public:
  PacedSource(ingest::PacketSource& inner, double speed)
      : inner_(inner), speed_(speed) {}

  bool next(ingest::SourcePacket& out) override;

  /// Due time of the packet last returned.
  std::int64_t dueNs() const { return dueNs_; }
  /// CPU time the calling thread spent waiting (spinning) so far.
  std::int64_t waitCpuNs() const { return waitCpuNs_; }
  /// For 1 in 64 packets: when it was handed on minus when it was due.
  const std::vector<double>& lagMs() const { return lagMs_; }

 private:
  static constexpr std::int64_t kWaitAheadNs = 200'000;
  static constexpr std::int64_t kSpinNs = 1'000'000;

  ingest::PacketSource& inner_;
  double speed_;
  std::uint64_t packets_ = 0;
  std::int64_t startNs_ = 0;
  common::TimeNs firstArrivalNs_ = 0;
  std::int64_t dueNs_ = 0;
  std::int64_t waitCpuNs_ = 0;
  std::vector<double> lagMs_;
};

/// What a monitor builds before its first packet: a registry over the model
/// directory with every served VCA's model loaded, the engine, and the
/// capture source.
struct Pipeline {
  std::shared_ptr<inference::ModelRegistry> registry;
  std::unique_ptr<engine::MultiFlowEngine> engine;
  std::unique_ptr<ingest::PcapReplaySource> capture;
  std::int64_t startNs = 0;
  std::int64_t modelsNs = 0;
  std::int64_t endNs = 0;
  /// Every served VCA's model loaded, none failed.
  bool modelsLoaded = false;

  double setupS() const { return static_cast<double>(endNs - startNs) / 1e9; }
  double modelLoadMs() const {
    return static_cast<double>(modelsNs - startNs) / 1e6;
  }
};

Pipeline setUp(const Workload& workload);

/// How a repeat feeds the capture; each mode follows `pcap_monitor`'s
/// defaults for it.
enum class Loop : std::uint8_t {
  /// The next packet as soon as the engine takes the previous one; no pump.
  kClosed,
  /// On the capture's own timeline, sped up to a mean of
  /// `kOfferedPktsPerSec`; pump every second of stream time.
  kOpen,
};

/// Mean rate of the open-loop repeats: below every workload's closed-loop
/// rate, even while the host is slow.
inline constexpr double kOfferedPktsPerSec = 2e6;

/// What a traced repeat measured. It alternates traced and plain blocks
/// of packets (see `runRepeat`); spans come from the traced ones.
struct TracedTotals {
  /// Caller-thread time and packets of one kind of block.
  struct Blocks {
    std::int64_t wallNs = 0;
    std::int64_t cpuNs = 0;
    std::uint64_t packets = 0;
  };
  Blocks traced;
  Blocks plain;
  /// next()/onPacket() calls timed (1 in 64 of the traced blocks' packets)
  /// and the sums of their spans.
  std::uint64_t sampled = 0;
  std::int64_t nextNs = 0;
  std::int64_t onPacketNs = 0;
  /// Every poll() of the traced blocks.
  std::int64_t pollNs = 0;
  std::uint64_t resultsPolled = 0;
  /// Largest dispatched-but-unprocessed packet count across the shards,
  /// sampled at those polls.
  std::uint64_t maxBacklog = 0;
  std::int64_t finishNs = 0;
};

struct RepeatOutcome {
  double setupS = 0.0;
  double modelLoadMs = 0.0;
  /// First next() to finish() returning.
  double wallS = 0.0;
  /// Process and caller-thread CPU time of the replay, without the open-loop
  /// generator's waiting.
  double processCpuS = 0.0;
  double callerCpuS = 0.0;
  /// With `measureMemory`: peak RSS during the repeat above the RSS at its
  /// start, and whether the peak mark could be reset.
  double peakRssMb = 0.0;
  bool peakRssReset = false;
  std::uint64_t packets = 0;
  std::uint64_t minorFaults = 0;
  std::uint64_t contextSwitches = 0;
  engine::EngineStats stats;

  /// Open loop only. Window latency: due time of the window's emitting
  /// packet to the poll() that returned the window, over windows returned
  /// while packets were still fed.
  std::size_t latencySamples = 0;
  double latencyP50Ms = 0.0;
  double latencyP95Ms = 0.0;
  /// Open loop only: 99th percentile of the generator's sampled lag.
  double feedLagP99Ms = 0.0;

  /// Reference windows checked and failed (mismatched, missing, or
  /// unexpected), plus any other failure: skipped capture records, a
  /// model that did not load, a flow-order mismatch, a failed anchor.
  std::uint64_t windowsChecked = 0;
  std::uint64_t failures = 0;
  double fpsMaeHeuristic = 0.0;
  double fpsMaeMl = 0.0;

  std::optional<TracedTotals> traced;
};

/// Runs one repeat: set-up (registry over the model directory, eager
/// resolve of every VCA served, engine, capture source), replay, checks.
/// With `measureMemory` the heap is trimmed first (`malloc_trim`, so memory
/// freed earlier does not hide the repeat's own) and the peak-RSS mark
/// reset; without, the repeat runs on the warm heap a long-running monitor
/// would have.
/// Untraced repeats go through `ingest::replay`. A traced repeat (closed
/// loop only) makes the same calls from a bench-side loop that feeds the
/// capture in alternating blocks of 32k packets, timing calls in every
/// other block and none in the rest.
RepeatOutcome runRepeat(const Workload& workload, Loop loop, Tracer* tracer,
                        bool measureMemory);

}  // namespace vcaqoe::bench::pipeline
