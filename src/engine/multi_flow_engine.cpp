#include "engine/multi_flow_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/load.hpp"

namespace vcaqoe::engine {

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
  FlowId flow;
  if (const auto cached = demuxCache_.lookup(key)) {
    // Bursty interleaves make this the common case: one array compare
    // instead of the flow-table hash probe.
    flow = *cached;
  } else {
    flow = flowTable_.intern(key);
    demuxCache_.remember(key, flow);
  }
  std::unique_ptr<Admission> admission;
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
      admission = std::make_unique<Admission>();
      admission->backend = std::move(backend);
    }
    flowStats_.push_back(std::move(stats));
    lruPrev_.push_back(kNoFlow);
    lruNext_.push_back(kNoFlow);
    lruLinkTail(flow);
    shardOf_.push_back(static_cast<std::uint32_t>(flow % shards_.size()));
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

  // A flow lives on exactly one shard (`shardOf_`), so per-flow packet
  // order survives the fan-out. (A re-interned generation may land on a
  // different shard; its id is fresh, so no state aliases.)
  Shard& shard = *shards_[shardOf_[flow]];
  shard.pending.push_back(Item{.flow = flow,
                               .featureSet = admissionSet,
                               .packet = packet,
                               .admission = std::move(admission)});
  ++shard.packetsDispatched;
  if (shard.pending.size() >= options_.dispatchBatch) flushPending(shard);
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
  // The evict item rides the same FIFO as the flow's packets, so the
  // worker finalizes the estimator only after every dispatched packet of
  // this generation has been processed.
  Shard& shard = *shards_[shardOf_[flow]];
  shard.pending.push_back(Item{.flow = flow, .kind = Item::Kind::kEvict});
  if (shard.pending.size() >= options_.dispatchBatch) flushPending(shard);
}

void MultiFlowEngine::pump(common::TimeNs nowNs) {
  if (finished_) {
    throw std::logic_error("MultiFlowEngine: pump after finish");
  }
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
  ++poolWaits_;
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
      // The backend (in `admission`, null without one) and the feature set
      // were resolved at admission and ride the generation's first packet;
      // the FIFO guarantees that packet creates the estimator.
      core::StreamingEstimator::BackendPtr backend =
          item.admission ? item.admission->backend : nullptr;
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
  if (packetItems > 0) {
    shard.packetsProcessed.fetch_add(packetItems, std::memory_order_relaxed);
  }
}

void MultiFlowEngine::pushResult(Shard& shard, EngineResult result) {
  // Back-pressure: the ring is bounded, so a worker that outruns the
  // dispatcher parks until poll()/finish() makes room.
  while (!shard.results->tryPush(std::move(result))) {
    std::this_thread::yield();
  }
}

std::size_t MultiFlowEngine::poll(std::vector<EngineResult>& out) {
  const std::size_t before = out.size();
  // Stashed results go first: they left their rings before anything still
  // there, so per-flow order holds.
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
  // they lead; the per-flow bucketing below keeps that order.
  std::vector<EngineResult> merged = std::move(stash_);
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
  // — one shard per flow, stash first), then concatenate in flow-id order.
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
    // The worker's counter trails the dispatcher's, so this never wraps;
    // the guard is belt-and-braces against a torn read.
    load.backlog = load.packetsDispatched > load.packetsProcessed
                       ? load.packetsDispatched - load.packetsProcessed
                       : 0;
    stats.shardLoads.push_back(load);
  }
  stats.poolWaits = poolWaits_;
  stats.demuxCacheLookups = demuxCache_.lookups();
  stats.demuxCacheHits = demuxCache_.hits();
  return stats;
}

}  // namespace vcaqoe::engine
