#include "engine/multi_flow_engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace vcaqoe::engine {

namespace {

/// Best-effort round-robin core pinning for shard worker `index`. Failure
/// (e.g. a cpuset restricting the process below hardware_concurrency) is
/// ignored: pinning is a throughput hint, never a correctness dependency.
void pinThreadRoundRobin([[maybe_unused]] std::thread& thread,
                         [[maybe_unused]] std::size_t index) {
#if defined(__linux__)
  // Deliberately not hardwareThreadsOr: when the CPU count is unknowable,
  // pinning every worker to CPU 0 would be worse than not pinning at all.
  const unsigned cpus = std::thread::hardware_concurrency();
  if (cpus == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(index % cpus), &set);
  (void)pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set);
#endif
}

/// How many dispatch batches between migration scans: the imbalance scan
/// walks the live-flow list, so it must not run per packet. Low enough to
/// react within a few batches, high enough to amortize the walk.
constexpr std::uint64_t kMigrateScanEveryBatches = 4;

}  // namespace

std::optional<Placement> placementFromString(std::string_view text) {
  if (text == "hash") return Placement::kHash;
  if (text == "least-loaded") return Placement::kLeastLoaded;
  return std::nullopt;
}

MultiFlowEngine::MultiFlowEngine(EngineOptions options)
    : options_(std::move(options)),
      classifier_(options_.streaming.classifier) {
  static_assert(sizeof(Item) == 64, "a queued packet should fill one line");
  if (options_.streaming.windowNs <= 0) {
    // Estimators are created lazily on the workers; a bad window size must
    // fail here, at engine construction, not as a worker error mid-stream.
    throw std::invalid_argument("MultiFlowEngine: windowNs must be positive");
  }
  int workers = options_.numWorkers;
  if (workers <= 0) {
    workers = static_cast<int>(common::hardwareThreadsOr(1));
  }
  if (options_.dispatchBatch == 0) options_.dispatchBatch = 1;
  if (options_.expectedFlows > 0) flowTable_.reserve(options_.expectedFlows);

  shards_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->results =
        std::make_unique<SpscRing<EngineResult>>(options_.resultRingCapacity);
    shard->pending.reserve(options_.dispatchBatch);
    // No registry means no backend can ever resolve: routing windows
    // through the batcher would add copy/latency for zero predictions.
    if (options_.inferenceBatch > 1 && options_.registry) {
      InferenceBatcher::Options batcherOptions;
      batcherOptions.batchSize = options_.inferenceBatch;
      batcherOptions.flushNs = std::max<common::DurationNs>(
          options_.inferenceFlushNs, 0);
      auto* raw = shard.get();
      shard->batcher = std::make_unique<InferenceBatcher>(
          batcherOptions,
          [this, raw](FlowId flow, core::StreamingOutput&& out) {
            pushResult(*raw, EngineResult{flow, std::move(out)});
          });
    }
    shards_.push_back(std::move(shard));
  }
  runningWorkers_.store(workers, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, raw = shard.get()] { workerLoop(*raw); });
  }
  if (options_.pinWorkers) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      pinThreadRoundRobin(shards_[i]->thread, i);
    }
  }
}

MultiFlowEngine::~MultiFlowEngine() {
  if (finished_) return;
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; worker errors are lost at this point.
  }
}

void MultiFlowEngine::onPacket(const netflow::FlowKey& key,
                               const netflow::Packet& packet) {
  if (finished_) {
    throw std::logic_error("MultiFlowEngine: onPacket after finish");
  }
  maybeCompleteMigration();
  FlowId flow;
  if (const auto cached = demuxCache_.lookup(key)) {
    // Bursty interleaves make this the common case: one array compare
    // instead of the flow-table hash probe.
    flow = *cached;
  } else {
    flow = flowTable_.intern(key);
    demuxCache_.remember(key, flow);
  }
  std::unique_ptr<Control> admission;
  features::FeatureSet admissionSet = options_.streaming.featureSet;
  const bool admitted = flow >= flowStats_.size();
  if (admitted) {
    // First packet of a fresh flow generation: resolve the flow's feature
    // set and inference backend now, while the 5-tuple is at hand — a
    // returning (evicted) flow is a fresh generation and re-resolves here
    // too.
    FlowStats stats;
    stats.key = key;
    stats.firstArrivalNs = packet.arrivalNs;
    if (options_.featureSetResolver) {
      admissionSet = options_.featureSetResolver(key);
    }
    stats.featureSet = admissionSet;
    if (auto backend = resolveBackend(key, stats, admissionSet)) {
      admission = std::make_unique<Control>();
      admission->backend = std::move(backend);
    }
    flowStats_.push_back(std::move(stats));
    lruPrev_.push_back(kNoFlow);
    lruNext_.push_back(kNoFlow);
    lruLinkTail(flow);
    const std::size_t placed = placeNewFlow(flow);
    shardOf_.push_back(static_cast<std::uint32_t>(placed));
    ++shards_[placed]->residentFlows;
  } else {
    lruUnlink(flow);
    lruLinkTail(flow);
  }
  FlowStats& stats = flowStats_[flow];
  ++stats.packets;
  stats.bytes += packet.sizeBytes;
  stats.lastArrivalNs = packet.arrivalNs;
  ++packetsIngested_;
  if (packet.arrivalNs > clock_) clock_ = packet.arrivalNs;
  if (options_.idleTimeoutNs > 0) evictIdleFlows();

  if (migration_ && migration_->flow == flow) {
    // The flow is mid-handover: park the packet so its stream has a clean
    // cut — everything before the kMigrateOut runs on the source shard,
    // everything parked here replays on the target right after the
    // estimator lands there.
    migration_->parked.push_back(packet);
    return;
  }

  // A flow lives on exactly one shard at a time (`shardOf_`), so per-flow
  // packet order survives the fan-out under any placement policy. (A
  // re-interned generation may land on a different shard; its id is fresh,
  // so no state aliases.)
  Shard& shard = *shards_[shardOf_[flow]];
  shard.pending.push_back(Item{.flow = flow,
                               .featureSet = admissionSet,
                               .packet = packet,
                               .control = std::move(admission)});
  ++shard.packetsDispatched;
  if (shard.pending.size() >= options_.dispatchBatch) {
    flushPending(shard);
    // Dispatch-batch boundary: the migration safe point.
    maybeStartMigration();
  }
}

core::StreamingEstimator::BackendPtr MultiFlowEngine::resolveBackend(
    const netflow::FlowKey& key, FlowStats& stats,
    features::FeatureSet set) const {
  if (!options_.registry) return nullptr;
  std::string vca;
  if (options_.vcaResolver) {
    vca = options_.vcaResolver(key);
  } else {
    vca = std::string(core::toString(classifier_.classifyVca(key)));
  }
  auto backend = options_.registry->resolveSet(
      vca,
      options_.targets.empty()
          ? std::span<const inference::QoeTarget>(inference::kAllTargets)
          : std::span<const inference::QoeTarget>(options_.targets),
      set);
  stats.vca = std::move(vca);
  stats.backend = backend;
  return backend;
}

std::uint64_t MultiFlowEngine::shardBacklog(const Shard& shard) const {
  const std::uint64_t processed =
      shard.packetsProcessed.load(std::memory_order_relaxed);
  // The worker's counter trails the dispatcher's, so this never wraps; the
  // guard is belt-and-braces against a torn read on exotic platforms.
  return shard.packetsDispatched > processed
             ? shard.packetsDispatched - processed
             : 0;
}

std::size_t MultiFlowEngine::placeNewFlow(FlowId flow) const {
  if (options_.placement == Placement::kHash || shards_.size() == 1) {
    return flow % shards_.size();
  }
  // Least-loaded: backlog dominates under load; resident flows break ties
  // between idle shards so a quiet start still spreads round-robin-ish.
  std::size_t best = 0;
  std::uint64_t bestScore = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::uint64_t score =
        shardBacklog(*shards_[i]) + shards_[i]->residentFlows;
    if (score < bestScore) {
      bestScore = score;
      best = i;
    }
  }
  return best;
}

void MultiFlowEngine::maybeStartMigration() {
  if (!options_.migrateFlows || migration_ || shards_.size() < 2) return;
  if (batchesDispatched_ - lastMigrateScanBatch_ < kMigrateScanEveryBatches) {
    return;
  }
  lastMigrateScanBatch_ = batchesDispatched_;
  std::size_t maxShard = 0;
  std::size_t minShard = 0;
  std::uint64_t maxBacklog = 0;
  std::uint64_t minBacklog = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::uint64_t backlog = shardBacklog(*shards_[i]);
    if (backlog > maxBacklog) {
      maxBacklog = backlog;
      maxShard = i;
    }
    if (backlog < minBacklog) {
      minBacklog = backlog;
      minShard = i;
    }
  }
  if (maxShard == minShard) return;
  // Trigger policy: enough work queued for the move to matter at all, and
  // the configured skew ratio exceeded (min+1 so an idle shard divides).
  if (maxBacklog < options_.dispatchBatch) return;
  if (static_cast<double>(maxBacklog) <
      options_.migrateImbalance * static_cast<double>(minBacklog + 1)) {
    return;
  }
  if (shards_[maxShard]->residentFlows < 2) {
    // Moving a shard's only flow just relocates the hotspot.
    return;
  }
  // Victim: the heaviest live flow on the overloaded shard. The LRU chain
  // links exactly the live flows, so the walk is bounded by concurrency,
  // and the scan-throttle above keeps it off the per-packet path.
  FlowId victim = kNoFlow;
  std::uint64_t victimPackets = 0;
  for (FlowId f = lruHead_; f != kNoFlow; f = lruNext_[f]) {
    if (shardOf_[f] != maxShard) continue;
    if (flowStats_[f].packets > victimPackets) {
      victim = f;
      victimPackets = flowStats_[f].packets;
    }
  }
  if (victim == kNoFlow) return;

  auto ticket = std::make_shared<MigrationTicket>();
  PendingMigration migration;
  migration.flow = victim;
  migration.from = maxShard;
  migration.to = minShard;
  migration.ticket = ticket;
  migration_ = std::move(migration);

  // The quiesce request rides the source FIFO behind every packet of the
  // flow dispatched so far; flush immediately so the worker reaches it
  // without waiting for the pending buffer to fill.
  Shard& src = *shards_[maxShard];
  auto control = std::make_unique<Control>();
  control->ticket = std::move(ticket);
  src.pending.push_back(Item{.flow = victim,
                             .kind = Item::Kind::kMigrateOut,
                             .control = std::move(control)});
  flushPending(src);
}

void MultiFlowEngine::maybeCompleteMigration() {
  if (!migration_ ||
      !migration_->ticket->ready.load(std::memory_order_acquire)) {
    return;
  }
  Shard& src = *shards_[migration_->from];
  Shard& dst = *shards_[migration_->to];
  const FlowId flow = migration_->flow;
  // Every window the flow emitted on the source sits in its ring now (the
  // worker flushed the batcher before publishing the ticket). Stash the
  // ring so the next poll()/finish() delivers these ahead of anything the
  // target emits — per-flow order survives the shard switch.
  drainShard(src, stash_);

  auto control = std::make_unique<Control>();
  control->ticket = migration_->ticket;
  control->backend = flowStats_[flow].backend;
  dst.pending.push_back(Item{.flow = flow,
                             .kind = Item::Kind::kMigrateIn,
                             .featureSet = flowStats_[flow].featureSet,
                             .control = std::move(control)});
  // Replay the packets parked during the handover, in arrival order,
  // behind the install item; subsequent packets route here directly. Full
  // buffers go out as they fill, so no batch outgrows `dispatchBatch`.
  std::vector<netflow::Packet> parked = std::move(migration_->parked);
  shardOf_[flow] = static_cast<std::uint32_t>(migration_->to);
  --src.residentFlows;
  ++dst.residentFlows;
  ++src.migrationsOut;
  ++dst.migrationsIn;
  ++migrationsDone_;
  migration_.reset();
  for (const auto& packet : parked) {
    if (dst.pending.size() >= options_.dispatchBatch) flushPending(dst);
    dst.pending.push_back(Item{.flow = flow, .packet = packet});
    ++dst.packetsDispatched;
  }
  if (dst.pending.size() >= options_.dispatchBatch) flushPending(dst);
}

void MultiFlowEngine::lruLinkTail(FlowId flow) {
  lruPrev_[flow] = lruTail_;
  lruNext_[flow] = kNoFlow;
  if (lruTail_ != kNoFlow) {
    lruNext_[lruTail_] = flow;
  } else {
    lruHead_ = flow;
  }
  lruTail_ = flow;
}

void MultiFlowEngine::lruUnlink(FlowId flow) {
  if (lruPrev_[flow] != kNoFlow) {
    lruNext_[lruPrev_[flow]] = lruNext_[flow];
  } else {
    lruHead_ = lruNext_[flow];
  }
  if (lruNext_[flow] != kNoFlow) {
    lruPrev_[lruNext_[flow]] = lruPrev_[flow];
  } else {
    lruTail_ = lruPrev_[flow];
  }
  lruPrev_[flow] = kNoFlow;
  lruNext_[flow] = kNoFlow;
}

void MultiFlowEngine::evictIdleFlows() {
  // The LRU head is the least recently dispatched flow. Per-flow last
  // arrival is checked against the engine clock, so a globally
  // arrival-ordered stream evicts exactly the flows whose silence exceeds
  // the timeout.
  while (lruHead_ != kNoFlow &&
         flowStats_[lruHead_].lastArrivalNs + options_.idleTimeoutNs <=
             clock_) {
    if (migration_ && migration_->flow == lruHead_) {
      // Mid-handover: its estimator is in flight between shards, so there
      // is nowhere to send an evict item yet. The next sweep (migrations
      // resolve within a few batches) reclaims it.
      break;
    }
    evictFlow(lruHead_);
  }
}

void MultiFlowEngine::evictFlow(FlowId flow) {
  lruUnlink(flow);
  flowStats_[flow].evicted = true;
  ++flowsEvicted_;
  // The demux cache must never serve a retired generation.
  demuxCache_.forget(flowTable_.keyOf(flow));
  flowTable_.erase(flow);
  // The control item rides the same FIFO as the flow's packets, so the
  // worker finalizes the estimator only after every dispatched packet of
  // this generation has been processed.
  Shard& shard = *shards_[shardOf_[flow]];
  --shard.residentFlows;
  shard.pending.push_back(Item{.flow = flow, .kind = Item::Kind::kEvict});
  if (shard.pending.size() >= options_.dispatchBatch) flushPending(shard);
}

void MultiFlowEngine::pump(common::TimeNs nowNs) {
  if (finished_) {
    throw std::logic_error("MultiFlowEngine: pump after finish");
  }
  maybeCompleteMigration();
  if (nowNs > clock_) clock_ = nowNs;
  if (options_.idleTimeoutNs > 0) evictIdleFlows();
  netflow::Packet kick;
  kick.arrivalNs = clock_;  // the shard clock is monotone like the engine's
  for (auto& shard : shards_) {
    // The kick rides the same FIFO as packets, so the worker observes it —
    // and runs the batcher deadline check — only after everything
    // dispatched before the pump.
    shard->pending.push_back(
        Item{.flow = kNoFlow, .kind = Item::Kind::kKick, .packet = kick});
    flushPending(*shard);
  }
}

void MultiFlowEngine::flushPending(Shard& shard) {
  if (shard.pending.empty()) return;
  std::vector<Item> next;
  {
    common::MutexLock lock(shard.mutex);
    shard.batches.push_back(std::move(shard.pending));
    if (!shard.spare.empty()) {
      next = std::move(shard.spare.back());
      shard.spare.pop_back();
    }
  }
  shard.cv.notify_one();
  ++batchesDispatched_;
  // After finish() the shard takes no more items, so it needs no buffer.
  if (finished_ || next.capacity() > 0) {
    shard.pending = std::move(next);
  } else if (shard.buffers < kBatchPool) {
    ++shard.buffers;
    shard.pending.reserve(options_.dispatchBatch);
  } else {
    shard.pending = awaitSpare(shard);
  }
}

std::vector<MultiFlowEngine::Item> MultiFlowEngine::awaitSpare(Shard& shard) {
  // Every buffer of the pool is queued or in the worker's hands. Drain the
  // result rings while waiting — the worker may be parked on a full ring
  // and can finish its batch only once there is room — and yield rather
  // than sleep: in the bench a sleeping dispatcher left later set-ups
  // (model parsing) slower more often, which a yielding one did not.
  for (;;) {
    drainInto(stash_);
    {
      common::MutexLock lock(shard.mutex);
      if (!shard.spare.empty()) {
        std::vector<Item> next = std::move(shard.spare.back());
        shard.spare.pop_back();
        return next;
      }
    }
    std::this_thread::yield();
  }
}

void MultiFlowEngine::workerLoop(Shard& shard) {
  std::vector<Item> batch;
  for (;;) {
    {
      common::MutexLock lock(shard.mutex);
      if (batch.capacity() > 0) {
        // Hand the processed buffer back to the dispatcher's pool.
        shard.spare.push_back(std::move(batch));
      }
      while (!shard.done && shard.batches.empty()) shard.cv.wait(shard.mutex);
      if (shard.batches.empty()) break;  // done and drained
      batch = std::move(shard.batches.front());
      shard.batches.pop_front();
    }
    if (shard.error.empty()) {
      try {
        processBatch(shard, batch);
      } catch (const std::exception& e) {
        shard.error = e.what();
      } catch (...) {
        shard.error = "unknown worker exception";
      }
    }
    batch.clear();
  }
  if (shard.error.empty()) {
    try {
      // FlowId order: finalization output order is a function of the input
      // stream, not of map insertion races (there are none, but be explicit).
      for (auto& [flow, estimator] : shard.estimators) {
        (void)flow;
        estimator.finish();
      }
      if (shard.batcher) shard.batcher->flush();
    } catch (const std::exception& e) {
      shard.error = e.what();
    } catch (...) {
      shard.error = "unknown worker exception";
    }
  }
  runningWorkers_.fetch_sub(1, std::memory_order_release);
}

void MultiFlowEngine::processBatch(Shard& shard,
                                   const std::vector<Item>& batch) {
  const auto wallStart = std::chrono::steady_clock::now();
  std::uint64_t packetItems = 0;
  bool evicted = false;
  for (const Item& item : batch) {
    switch (item.kind) {
      case Item::Kind::kKick:
        // Pump control item: advance the shard's stream clock so the
        // batcher's deadline check below sees the pumped time.
        if (item.packet.arrivalNs > shard.streamClock) {
          shard.streamClock = item.packet.arrivalNs;
        }
        continue;
      case Item::Kind::kEvict: {
        const auto evictee = shard.estimators.find(item.flow);
        if (evictee != shard.estimators.end()) {
          // Finalize-on-evict: the flow's trailing windows are emitted
          // through the normal result path before the state is dropped.
          evictee->second.finish();
          shard.estimators.erase(evictee);
          evicted = true;
        }
        continue;
      }
      case Item::Kind::kMigrateOut: {
        // Quiesce: the FIFO guarantees every dispatched packet of the flow
        // was processed above/before this item. Flush the batcher so every
        // window the flow emitted here reaches the ring, hand the estimator
        // over, publish. The dispatcher picks the ticket up at its next
        // safe point.
        if (shard.batcher) shard.batcher->flush();
        auto node = shard.estimators.extract(item.flow);
        if (node.empty()) {
          throw std::logic_error(
              "MultiFlowEngine: migrate-out for a flow with no estimator");
        }
        MigrationTicket& ticket = *item.control->ticket;
        ticket.estimator.emplace(std::move(node.mapped()));
        ticket.ready.store(true, std::memory_order_release);
        continue;
      }
      case Item::Kind::kMigrateIn: {
        // Install: `ready` was acquire-checked by the dispatcher before it
        // routed this item, so the estimator is here, fully quiesced.
        MigrationTicket& ticket = *item.control->ticket;
        if (!ticket.estimator.has_value()) {
          throw std::logic_error(
              "MultiFlowEngine: migrate-in with an empty ticket");
        }
        core::StreamingEstimator estimator = std::move(*ticket.estimator);
        ticket.estimator.reset();
        const FlowId flow = item.flow;
        // Rebind the emission callback to THIS shard — the old one
        // referenced the source shard's ring/batcher. Same capture shapes
        // as estimator creation below.
        if (shard.batcher) {
          estimator.rebindCallback(
              [&shard, flow, backend = item.control->backend](
                  const core::StreamingOutput& out) {
                shard.batcher->add(flow, out, backend, shard.streamClock);
              });
        } else {
          estimator.rebindCallback(
              [this, &shard, flow](const core::StreamingOutput& out) {
                pushResult(shard, EngineResult{flow, out});
              });
        }
        shard.estimators.try_emplace(flow, std::move(estimator));
        continue;
      }
      case Item::Kind::kPacket:
        break;
    }
    ++packetItems;
    if (item.packet.arrivalNs > shard.streamClock) {
      shard.streamClock = item.packet.arrivalNs;
    }
    auto it = shard.estimators.find(item.flow);
    if (it == shard.estimators.end()) {
      const FlowId flow = item.flow;
      // The backend (in `control`, null without one) and the feature set
      // were resolved at admission and ride the generation's first packet;
      // the FIFO guarantees that packet creates the estimator.
      core::StreamingEstimator::BackendPtr backend =
          item.control ? item.control->backend : nullptr;
      core::StreamingOptions streaming = options_.streaming;
      streaming.featureSet = item.featureSet;
      if (shard.batcher) {
        // Batched inference: the estimator emits prediction-less windows
        // (no backend attached) and the admission backend rides the
        // batcher callback instead, which re-attaches batched predictions.
        it = shard.estimators
                 .try_emplace(
                     flow, std::move(streaming),
                     [&shard, flow, backend = std::move(backend)](
                         const core::StreamingOutput& out) {
                       shard.batcher->add(flow, out, backend,
                                          shard.streamClock);
                     },
                     nullptr)
                 .first;
      } else {
        it = shard.estimators
                 .try_emplace(flow, std::move(streaming),
                              [this, &shard, flow](
                                  const core::StreamingOutput& out) {
                                pushResult(shard, EngineResult{flow, out});
                              },
                              std::move(backend))
                 .first;
      }
    }
    it->second.onPacket(item.packet);
  }
  if (shard.batcher) {
    if (evicted) {
      // Eviction drains the batcher (the finalize leg of its flush
      // policy): evicted flows' trailing windows must reach poll() even
      // if this shard then goes quiet past the deadline horizon. Once per
      // dispatch batch — an idle sweep evicting K flows shares one flush.
      shard.batcher->flush();
    } else {
      // Dispatch-batch boundary: the deadline half of the flush policy
      // (the size half triggers inside add()).
      shard.batcher->onClock(shard.streamClock);
    }
  }
  // Publish this batch's load sample (relaxed: the dispatcher's placement
  // heuristics tolerate stale values; only tear-freedom matters).
  if (packetItems > 0) {
    shard.packetsProcessed.fetch_add(packetItems, std::memory_order_relaxed);
  }
  const double batchNs =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - wallStart)
                              .count());
  shard.batchEwma.update(batchNs);
  shard.batchEwmaNsBits.store(std::bit_cast<std::uint64_t>(
                                  shard.batchEwma.value()),
                              std::memory_order_relaxed);
}

void MultiFlowEngine::pushResult(Shard& shard, EngineResult result) {
  // Back-pressure: the ring is bounded, so a worker that outruns the
  // dispatcher parks until poll()/finish() makes room.
  while (!shard.results->tryPush(std::move(result))) {
    std::this_thread::yield();
  }
}

std::size_t MultiFlowEngine::poll(std::vector<EngineResult>& out) {
  if (!finished_) maybeCompleteMigration();
  const std::size_t before = out.size();
  // Results stashed at a migration handover go first: they are the
  // migrated flow's source-side windows, which must precede anything its
  // new shard emits.
  for (auto& result : stash_) out.push_back(std::move(result));
  stash_.clear();
  drainInto(out);
  const std::size_t drained = out.size() - before;
  resultsMerged_ += drained;
  return drained;
}

void MultiFlowEngine::drainShard(Shard& shard,
                                 std::vector<EngineResult>& out) {
  while (auto result = shard.results->tryPop()) {
    ++flowStats_[result->flow].windowsEmitted;
    if (flowStats_[result->flow].featureSet == features::FeatureSet::kRtp) {
      ++windowsRtp_;
    } else {
      ++windowsIpUdp_;
    }
    out.push_back(std::move(*result));
  }
}

void MultiFlowEngine::drainInto(std::vector<EngineResult>& out) {
  for (auto& shard : shards_) drainShard(*shard, out);
}

std::vector<EngineResult> MultiFlowEngine::finish() {
  if (finished_) return {};
  finished_ = true;

  // Results already stashed are older than anything still in a ring, so
  // they lead. Then resolve an in-flight migration: the parked packets
  // must reach the target shard before the pools wind down. Keep draining
  // while we wait — the source worker may be parked on a full result ring.
  std::vector<EngineResult> merged = std::move(stash_);
  stash_.clear();
  while (migration_) {
    maybeCompleteMigration();
    if (migration_) {
      drainInto(merged);
      std::this_thread::yield();
    }
  }
  for (auto& result : stash_) merged.push_back(std::move(result));
  stash_.clear();

  for (auto& shard : shards_) {
    flushPending(*shard);
    {
      common::MutexLock lock(shard->mutex);
      shard->done = true;
    }
    shard->cv.notify_one();
  }

  // Keep draining while the pool winds down: a worker blocked on a full
  // result ring can only exit once we make room.
  while (runningWorkers_.load(std::memory_order_acquire) > 0) {
    drainInto(merged);
    std::this_thread::yield();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  drainInto(merged);
  throwIfWorkerFailed();

  // Deterministic merge: bucket by flow (per-flow order is already correct
  // — one shard at a time per flow, and migration stashes preserved it),
  // then concatenate in flow-id order.
  std::vector<std::vector<EngineResult>> byFlow(flowTable_.size());
  for (auto& result : merged) {
    byFlow[result.flow].push_back(std::move(result));
  }
  std::vector<EngineResult> ordered;
  ordered.reserve(merged.size());
  for (auto& bucket : byFlow) {
    for (auto& result : bucket) ordered.push_back(std::move(result));
  }
  resultsMerged_ += ordered.size();
  return ordered;
}

void MultiFlowEngine::throwIfWorkerFailed() const {
  for (const auto& shard : shards_) {
    if (!shard->error.empty()) {
      throw std::runtime_error("MultiFlowEngine worker failed: " +
                               shard->error);
    }
  }
}

EngineStats MultiFlowEngine::stats() const {
  EngineStats stats;
  stats.packetsIngested = packetsIngested_;
  stats.batchesDispatched = batchesDispatched_;
  stats.resultsMerged = resultsMerged_;
  stats.flows = flowTable_.size();
  stats.activeFlows = flowTable_.activeSize();
  stats.flowsEvicted = flowsEvicted_;
  stats.windowsIpUdp = windowsIpUdp_;
  stats.windowsRtp = windowsRtp_;
  for (const auto& shard : shards_) {
    if (!shard->batcher) continue;
    stats.batchedWindows += shard->batcher->batchedWindows();
    stats.inferenceBatches += shard->batcher->inferenceBatches();
  }
  if (options_.registry) stats.registry = options_.registry->stats();
  stats.shardLoads.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardLoadStats load;
    load.packetsDispatched = shard->packetsDispatched;
    load.packetsProcessed =
        shard->packetsProcessed.load(std::memory_order_relaxed);
    load.backlog = shardBacklog(*shard);
    load.residentFlows = shard->residentFlows;
    load.ewmaBatchNs =
        std::bit_cast<double>(shard->batchEwmaNsBits.load(
            std::memory_order_relaxed));
    load.migrationsIn = shard->migrationsIn;
    load.migrationsOut = shard->migrationsOut;
    stats.shardLoads.push_back(load);
  }
  stats.migrations = migrationsDone_;
  stats.demuxCacheLookups = demuxCache_.lookups();
  stats.demuxCacheHits = demuxCache_.hits();
  return stats;
}

}  // namespace vcaqoe::engine
