#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/streaming.hpp"
#include "engine/flow_table.hpp"
#include "engine/inference_batcher.hpp"
#include "engine/spsc_ring.hpp"
#include "inference/model_registry.hpp"
#include "netflow/packet.hpp"

/// Sharded multi-flow streaming inference.
///
/// §7 of the paper asks for network-scale deployment of the streaming
/// methods. `MultiFlowEngine` is that step: it takes the interleaved packet
/// stream of many concurrent VCA sessions, demultiplexes it by 5-tuple with a
/// `FlowTable` (fronted by a direct-mapped last-flow cache), and shards the
/// flows across a fixed pool of worker threads. Each shard owns one
/// `core::StreamingEstimator` per flow and an SPSC result ring; the caller
/// thread merges the rings into one result stream. A flow generation runs
/// on shard `id % workers` for its whole life: the shard is computed once,
/// at admission, and looked up per packet.
/// Flows may run different feature sets side by side
/// (`EngineOptions::featureSetResolver`); each flow's set is fixed at
/// admission for its whole generation.
///
/// Determinism contract (tested property): for every flow, the sequence of
/// `StreamingOutput`s produced by the engine is bit-identical to feeding that
/// flow's packets through a standalone `StreamingEstimator` configured with
/// the flow's resolved feature set, regardless of worker count or thread
/// timing. `finish()` additionally orders the merged stream by
/// (flow id, window), which is a pure function of the input.
///
/// Flow lifecycle: with `idleTimeoutNs` set, a flow whose last packet is
/// older than the timeout (against the engine clock — the max arrival seen)
/// is evicted: its estimator is finalized on its shard (the trailing window
/// results are emitted like any other result) and both the estimator and the
/// `FlowTable` hash entry are freed. The *heavy* per-flow state (estimator
/// windows/frames, table entry) is thus bounded by concurrent flows; what a
/// long run accumulates is one constant-size `FlowStats` record plus the
/// retired id per generation — deliberately retained so the dashboard can
/// still report sessions that went idle and were reclaimed. A returning
/// flow is a fresh generation with a fresh id and estimator.
namespace vcaqoe::engine {

struct EngineOptions {
  /// Per-flow streaming estimator configuration (window size, feature set,
  /// Algorithm 1 parameters, feature extraction).
  core::StreamingOptions streaming;
  /// Per-flow feature-set resolution at admission: returns the feature
  /// family the flow's estimator computes (and the registry key leg its
  /// models resolve under). Null means every flow runs
  /// `streaming.featureSet`. Like `vcaResolver`, it sees the 5-tuple —
  /// e.g. route flows of an RTP-speaking VCA's media port to kRtp and
  /// everything else to kIpUdp.
  std::function<features::FeatureSet(const netflow::FlowKey&)>
      featureSetResolver;
  /// Worker threads (= shards). 0 or negative means hardware_concurrency.
  int numWorkers = 4;
  /// Packets buffered per shard on the dispatcher side before the batch is
  /// handed to the worker; amortizes queue synchronization. A shard queues
  /// at most `MultiFlowEngine::kBatchPool` batches.
  std::size_t dispatchBatch = 256;
  /// Capacity of each shard's result ring. Workers back-pressure (yield)
  /// when their ring is full and nobody drains it.
  std::size_t resultRingCapacity = 4096;
  /// Warm-model registry shared across flows (and engines): at flow
  /// admission the flow's VCA classification keys a `resolveSet` for
  /// `targets`, and the resolved immutable backend serves the flow for its
  /// whole generation. Null disables inference entirely.
  std::shared_ptr<inference::ModelRegistry> registry;
  /// Targets resolved per flow at admission. Empty = every `QoeTarget`.
  /// Ignored without a registry.
  std::vector<inference::QoeTarget> targets;
  /// Overrides the VCA classification used as the registry key. Default:
  /// the `MediaClassifier` port-prior verdict on the flow's 5-tuple.
  std::function<std::string(const netflow::FlowKey&)> vcaResolver;
  /// Evict flows idle longer than this, measured in stream time (the max
  /// packet arrival seen so far). 0 disables eviction.
  common::DurationNs idleTimeoutNs = 0;
  /// Cross-flow inference batching: windows emitted on a shard are held (up
  /// to this many) and predicted with one `predictWindowBatch` per backend
  /// instead of one virtual call per window. <= 1 keeps per-window
  /// inference inside the estimator; ignored without a registry (nothing
  /// to predict). Output is bit-identical either way; batching only
  /// changes how the same predictions are computed.
  std::size_t inferenceBatch = 1;
  /// Stream-time bound on how long a window may sit in a shard's batch
  /// before a flush is forced (checked at dispatch-batch boundaries). 0 =
  /// flush at every dispatch-batch boundary (lowest latency). Ignored
  /// without batching.
  common::DurationNs inferenceFlushNs = 0;
};

/// Flush deadline that lets a batch of `batch` windows actually fill: a
/// flow completes roughly one window per second of stream time, so any
/// shorter deadline (or the default flush-every-dispatch-boundary, 0) caps
/// the effective batch below the configured size. The benches and the
/// monitor CLI use this when they want the size knob to bind; keep 0 when
/// result latency matters more than batch occupancy.
constexpr common::DurationNs scaledInferenceFlushNs(std::size_t batch) {
  return batch > 1
             ? static_cast<common::DurationNs>(batch) * common::kNanosPerSecond
             : 0;
}

/// One completed window of one flow.
struct EngineResult {
  FlowId flow = 0;
  core::StreamingOutput output;
};

/// Per-flow accounting kept by the dispatcher for the lifetime of the
/// engine. It survives eviction — an ISP dashboard can still report a
/// session that went idle and was reclaimed.
struct FlowStats {
  netflow::FlowKey key;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;  ///< sum of UDP payload sizes
  std::uint64_t windowsEmitted = 0;
  common::TimeNs firstArrivalNs = 0;
  common::TimeNs lastArrivalNs = 0;
  bool evicted = false;
  /// Feature family this flow generation's estimator computed (resolved at
  /// admission; also the registry key leg its models resolved under).
  features::FeatureSet featureSet = features::FeatureSet::kIpUdp;
  /// VCA classification that keyed the registry at admission ("" without a
  /// registry; the built-in verdicts are SSO-short, so no per-flow heap).
  std::string vca;
  /// The shared immutable backend the flow resolved to at admission (null
  /// without a registry). Held by pointer — a handful of instances serve
  /// millions of generations, so this adds no per-flow allocation; use
  /// `backendName()` for dashboards.
  std::shared_ptr<const inference::InferenceBackend> backend;

  std::string_view backendName() const {
    return backend ? std::string_view(backend->name()) : std::string_view();
  }
};

/// One shard's load vector, sampled by the dispatcher: `packetsProcessed`
/// is a relaxed atomic the worker publishes, `packetsDispatched` is
/// dispatcher-confined.
struct ShardLoadStats {
  /// Packets the dispatcher has queued to this shard (pending + batched).
  std::uint64_t packetsDispatched = 0;
  /// Packets the shard's worker has finished processing.
  std::uint64_t packetsProcessed = 0;
  /// `packetsDispatched - packetsProcessed` at sampling time.
  std::uint64_t backlog = 0;
};

/// Counters for observability / benches.
struct EngineStats {
  std::uint64_t packetsIngested = 0;
  std::uint64_t batchesDispatched = 0;
  std::uint64_t resultsMerged = 0;
  /// Flows ever seen (including evicted generations).
  std::size_t flows = 0;
  /// Flows currently resident in the table / on the shards.
  std::size_t activeFlows = 0;
  std::uint64_t flowsEvicted = 0;
  /// Cross-flow batching counters (all zero with `inferenceBatch <= 1`):
  /// windows routed through the per-shard batchers and `predictWindowBatch`
  /// calls issued (one per distinct backend per flush).
  std::uint64_t batchedWindows = 0;
  std::uint64_t inferenceBatches = 0;
  /// Windows drained per feature family (split of `resultsMerged` by the
  /// emitting flow's resolved set).
  std::uint64_t windowsIpUdp = 0;
  std::uint64_t windowsRtp = 0;
  /// Model-registry resolution counters (all zero without a registry).
  inference::RegistryStats registry;
  /// Per-shard load vector (one entry per worker, in shard order).
  std::vector<ShardLoadStats> shardLoads;
  /// Times the dispatcher found a shard's whole batch pool queued and had
  /// to wait for the worker to hand a buffer back (see `kBatchPool`).
  std::uint64_t poolWaits = 0;
  /// Dispatcher demux cache: per-packet 5-tuple lookups served by the
  /// direct-mapped last-flow cache vs falling through to `FlowTable`.
  std::uint64_t demuxCacheLookups = 0;
  std::uint64_t demuxCacheHits = 0;
};

class MultiFlowEngine {
 public:
  /// A shard's dispatch batches live in a pool of at most this many
  /// buffers (`dispatchBatch` items each), allocated as needed and recycled
  /// by the worker. The pool also bounds the dispatcher->worker queue, so a
  /// shard's backlog never exceeds `kBatchPool * dispatchBatch` packets:
  /// with every buffer queued, the dispatcher waits for the worker to hand
  /// one back, draining the result rings meanwhile (see `poll`).
  static constexpr std::size_t kBatchPool = 16;

  explicit MultiFlowEngine(EngineOptions options);

  /// Joins the workers; results never drained are discarded.
  ~MultiFlowEngine();

  MultiFlowEngine(const MultiFlowEngine&) = delete;
  MultiFlowEngine& operator=(const MultiFlowEngine&) = delete;

  /// Feeds one packet of the interleaved stream. Packets of the same flow
  /// must arrive in non-decreasing arrival order (the per-flow estimator
  /// enforces this); distinct flows may interleave arbitrarily.
  void onPacket(const netflow::FlowKey& key, const netflow::Packet& packet);

  /// Drains every result currently available into `out` and returns how many
  /// were appended. Per-flow order is preserved; interleaving across flows
  /// reflects completion order. Must be called from the dispatcher thread.
  /// Results the dispatcher drained while `onPacket` or `pump` waited on a
  /// used-up batch pool are held inside the engine and come first.
  std::size_t poll(std::vector<EngineResult>& out);

  /// Live-mode idle kick: advances the engine clock to `nowNs` (monotone —
  /// an older time is ignored), runs idle-flow eviction against it, flushes
  /// every dispatcher-side pending buffer, and has each shard advance its
  /// stream clock and run the inference batcher's deadline check — all
  /// without requiring a new packet or `finish()`. On a quiet stream this
  /// is what bounds result latency: completed windows held by the per-shard
  /// batcher (and packets parked in `pending`) otherwise wait for the next
  /// dispatch batch. Call it periodically from the dispatcher thread (a
  /// paced replay or a live capture's timer); results surface via `poll`.
  /// Throws std::logic_error after `finish()`.
  void pump(common::TimeNs nowNs);

  /// Flushes all pending batches, finalizes every per-flow estimator, joins
  /// the pool, and returns all not-yet-polled results ordered by
  /// (flow id, window). Idempotent; the engine accepts no packets afterwards.
  std::vector<EngineResult> finish();

  const FlowTable& flows() const { return flowTable_; }
  int numWorkers() const { return static_cast<int>(shards_.size()); }
  EngineStats stats() const;

  /// The shard hosting `flow` (id must be < flows().size()): always
  /// `flow % numWorkers()`, for the flow's whole life.
  std::size_t shardOf(FlowId flow) const { return shardOf_[flow]; }

  /// Accounting for every flow generation ever seen, indexed by `FlowId`.
  /// `windowsEmitted` counts results as they are drained (poll/finish).
  const std::vector<FlowStats>& flowStats() const { return flowStats_; }

 private:
  /// What only a flow generation's admission packet carries. Behind one
  /// pointer so plain packets do not pay for it.
  struct Admission {
    /// The backend the dispatcher resolved at admission, attached when the
    /// worker creates the estimator (a returning re-interned flow
    /// re-resolves).
    core::StreamingEstimator::BackendPtr backend;
  };

  /// One entry of a dispatch batch: 64 bytes, one cache line.
  struct Item {
    enum class Kind : std::uint8_t {
      kPacket,
      /// Finalize and drop the flow's estimator (idle eviction).
      kEvict,
      /// Advance the shard's stream clock to `packet.arrivalNs` (the pump's
      /// `nowNs` rides the packet field) so the batcher deadline check that
      /// follows the batch sees the pumped time.
      kKick,
    };

    FlowId flow = 0;
    Kind kind = Kind::kPacket;
    /// Meaningful on the admission packet only (the item that creates the
    /// estimator): the flow's resolved feature set.
    features::FeatureSet featureSet = features::FeatureSet::kIpUdp;
    netflow::Packet packet{};
    /// Set on a generation's admission packet when a backend resolved;
    /// null on every other item.
    std::unique_ptr<Admission> admission{};
  };

  /// Thread-ownership map (enforced by `-Wthread-safety` on the guarded
  /// members, by the TSan stress suites on the confined ones):
  ///  * `mutex`-guarded: `batches`, `spare`, `done` — filled buffers to the
  ///    worker, recycled ones back.
  ///  * dispatcher-confined: `pending` (moved into `batches` under the
  ///    lock), `buffers`, `packetsDispatched`.
  ///  * worker-confined after construction: `estimators`, `batcher`,
  ///    `streamClock`.
  ///  * `error` is written by the worker and read by the dispatcher only
  ///    after the pool is joined (`finish`), so the join is the fence.
  ///  * `results` is the SPSC ring: worker produces, dispatcher consumes.
  struct Shard {
    // Input side (mutex-guarded, dispatcher <-> worker).
    common::Mutex mutex;
    common::CondVar cv;
    std::deque<std::vector<Item>> batches GUARDED_BY(mutex);
    std::vector<std::vector<Item>> spare GUARDED_BY(mutex);
    bool done GUARDED_BY(mutex) = false;

    // Dispatcher-side buffer, moved to `batches` when full.
    std::vector<Item> pending;
    // Buffers of this shard's pool allocated so far (<= kBatchPool).
    std::size_t buffers = 1;
    // Packets queued to this shard.
    std::uint64_t packetsDispatched = 0;

    // Output side (lock-free SPSC ring, worker -> dispatcher).
    std::unique_ptr<SpscRing<EngineResult>> results;

    // Worker-owned per-flow estimators (keyed by FlowId for deterministic
    // finalization order). The dispatcher writes `pending` and
    // `packetsDispatched` per packet and the worker writes `streamClock`
    // per packet, so the worker's fields start a cache line of their own.
    alignas(64) std::map<FlowId, core::StreamingEstimator> estimators;

    // Worker-owned cross-flow inference batcher (null when
    // `inferenceBatch <= 1`): estimators emit prediction-less windows into
    // it and it re-attaches batched predictions before the result ring.
    std::unique_ptr<InferenceBatcher> batcher;
    // Worker-side stream clock (max arrival processed on this shard),
    // driving the batcher's deadline flush.
    common::TimeNs streamClock = std::numeric_limits<common::TimeNs>::min();

    // Worker-published, dispatcher-sampled (relaxed: the counter is only
    // reported, so it needs to be tear-free, not ordered).
    std::atomic<std::uint64_t> packetsProcessed{0};

    std::string error;  // first exception message seen by the worker
    std::thread thread;
  };

  static constexpr FlowId kNoFlow = std::numeric_limits<FlowId>::max();

  /// Registry resolution for a newly admitted flow (dispatcher side).
  core::StreamingEstimator::BackendPtr resolveBackend(
      const netflow::FlowKey& key, FlowStats& stats,
      features::FeatureSet set) const;

  void workerLoop(Shard& shard);
  void processBatch(Shard& shard, const std::vector<Item>& batch);
  void pushResult(Shard& shard, EngineResult result);
  void flushPending(Shard& shard);
  std::vector<Item> awaitSpare(Shard& shard);
  void drainShard(Shard& shard, std::vector<EngineResult>& out);
  void drainInto(std::vector<EngineResult>& out);
  void throwIfWorkerFailed() const;

  // Flow lifecycle (dispatcher side only).
  void lruLinkTail(FlowId flow);
  void lruUnlink(FlowId flow);
  void evictIdleFlows();
  void evictFlow(FlowId flow);

  EngineOptions options_;
  /// VCA verdicts for registry keys at flow admission (default resolver).
  core::MediaClassifier classifier_;
  FlowTable flowTable_;
  /// Dispatcher-side direct-mapped 5-tuple → id cache in front of
  /// `flowTable_.intern` (invalidated on eviction).
  FlowDemuxCache demuxCache_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int> runningWorkers_{0};
  bool finished_ = false;

  std::uint64_t packetsIngested_ = 0;
  std::uint64_t batchesDispatched_ = 0;
  std::uint64_t resultsMerged_ = 0;
  std::uint64_t flowsEvicted_ = 0;
  std::uint64_t windowsIpUdp_ = 0;
  std::uint64_t windowsRtp_ = 0;
  std::uint64_t poolWaits_ = 0;

  // Per-flow accounting plus an intrusive LRU over live flows, both indexed
  // by FlowId. `clock_` is the engine's notion of "now": the max arrival
  // seen across all flows.
  std::vector<FlowStats> flowStats_;
  std::vector<FlowId> lruPrev_;
  std::vector<FlowId> lruNext_;
  FlowId lruHead_ = kNoFlow;
  FlowId lruTail_ = kNoFlow;
  common::TimeNs clock_ = std::numeric_limits<common::TimeNs>::min();

  /// Flow → shard, indexed by FlowId: `id % workers`, computed once at
  /// admission so the per-packet route is a lookup, not a divide.
  std::vector<std::uint32_t> shardOf_;
  /// Results the dispatcher pulled off the rings while it waited on a
  /// used-up batch pool (so a worker parked on a full ring can finish),
  /// delivered ahead of everything else by the next poll()/finish().
  std::vector<EngineResult> stash_;
};

}  // namespace vcaqoe::engine
