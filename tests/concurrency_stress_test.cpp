#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/time.hpp"
#include "core/streaming.hpp"
#include "engine/multi_flow_engine.hpp"
#include "engine/spsc_ring.hpp"
#include "engine/synthetic.hpp"
#include "inference/backends.hpp"
#include "inference/model_registry.hpp"
#include "ml/flattened_forest.hpp"
#include "ml/serialize.hpp"
#include "netflow/packet.hpp"

/// Purpose-built two-thread (and more) stress tests for the concurrent
/// substrate, written to run under TSan (the CI `tsan` job) as well as ASan
/// and plain builds. The determinism suites exercise these pieces through
/// the engine; here each one is tortured directly, at capacity edges and
/// with deliberately adversarial interleavings, with the invariants
/// (FIFO order, exactly-once delivery, exactly-one disk load) asserted
/// explicitly.
namespace vcaqoe::engine {
namespace {

/// Non-trivial payload so moves through the ring are exercised, not just
/// scalar copies.
struct RingItem {
  std::uint64_t seq = 0;
  std::vector<std::uint32_t> payload;
};

TEST(SpscRingStress, FifoNoLossNoDupAcrossCapacityEdges) {
  // 0 and 1 clamp to the 2-slot minimum (maximal producer/consumer
  // contention); 3 and 1000 round up past non-powers of two; 1024 is the
  // pow2 fast path.
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{1},
                                     std::size_t{2}, std::size_t{3},
                                     std::size_t{4}, std::size_t{1000},
                                     std::size_t{1024}}) {
    SCOPED_TRACE("capacity=" + std::to_string(capacity));
    SpscRing<RingItem> ring(capacity);
    constexpr std::uint64_t kItems = 8'000;

    std::thread producer([&ring] {
      for (std::uint64_t i = 0; i < kItems; ++i) {
        RingItem item;
        item.seq = i;
        item.payload = {static_cast<std::uint32_t>(i),
                        static_cast<std::uint32_t>(i >> 32), 0xABCDu};
        while (!ring.tryPush(std::move(item))) std::this_thread::yield();
      }
    });

    // Consumer (this thread): every item arrives exactly once, in order.
    std::uint64_t next = 0;
    while (next < kItems) {
      auto item = ring.tryPop();
      if (!item) {
        std::this_thread::yield();
        continue;
      }
      ASSERT_EQ(item->seq, next);
      ASSERT_EQ(item->payload.size(), 3u);
      ASSERT_EQ(item->payload[0], static_cast<std::uint32_t>(next));
      ++next;
    }
    producer.join();
    EXPECT_FALSE(ring.tryPop().has_value());  // nothing invented
    EXPECT_EQ(ring.sizeApprox(), 0u);
  }
}

TEST(SpscRingStress, FailedPushLeavesValueIntactForRetry) {
  // Regression: tryPush used to take its argument by value, so a push that
  // hit a full ring destroyed the payload before the capacity check and the
  // back-pressure retry (the engine's pushResult loop) delivered a
  // moved-from shell. A failed push must leave the value untouched.
  SpscRing<RingItem> ring(2);
  ASSERT_TRUE(ring.tryPush(RingItem{0, {0xA}}));
  ASSERT_TRUE(ring.tryPush(RingItem{1, {0xB}}));

  RingItem blocked;
  blocked.seq = 2;
  blocked.payload = {1, 2, 3};
  ASSERT_FALSE(ring.tryPush(std::move(blocked)));
  EXPECT_EQ(blocked.seq, 2u);
  ASSERT_EQ(blocked.payload.size(), 3u);  // survived the failed push

  ASSERT_TRUE(ring.tryPop().has_value());
  ASSERT_TRUE(ring.tryPush(std::move(blocked)));  // retry succeeds intact
  auto item = ring.tryPop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->seq, 1u);
  item = ring.tryPop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->seq, 2u);
  EXPECT_EQ(item->payload, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(SpscRingStress, BurstyConsumerKeepsOrderUnderBackpressure) {
  // A consumer that drains in bursts parks the producer on a full ring for
  // long stretches — the interleaving where a stale cached index would
  // lose or duplicate a slot.
  SpscRing<RingItem> ring(2);
  constexpr std::uint64_t kItems = 8'000;
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kItems; ++i) {
      RingItem item;
      item.seq = i;
      while (!ring.tryPush(std::move(item))) std::this_thread::yield();
    }
  });
  std::uint64_t next = 0;
  while (next < kItems) {
    if ((next & 0x3FF) == 0) std::this_thread::yield();  // let it back up
    auto item = ring.tryPop();
    if (!item) continue;
    ASSERT_EQ(item->seq, next);
    ++next;
  }
  producer.join();
}

class ModelRegistryStress : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vcaqoe_registry_stress_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// A flat model at `<vca>/ipudp/<target>.fforest`.
  void saveModel(const std::string& vca, inference::QoeTarget target,
                 double constant) {
    const auto vcaDir = std::filesystem::path(dir_) / vca / "ipudp";
    std::filesystem::create_directories(vcaDir);
    ml::saveFlattenedForestFile(
        ml::FlattenedForest(syntheticForest(1, 0, constant)),
        (vcaDir / (std::string(toString(target)) +
                   ml::kFlatForestFileExtension))
            .string());
  }

  std::string dir_;
};

TEST_F(ModelRegistryStress, ConcurrentResolveLoadsFromDiskExactlyOnce) {
  using inference::QoeTarget;
  saveModel("teams", QoeTarget::kFrameRate, 24.0);
  saveModel("teams", QoeTarget::kBitrateKbps, 800.0);
  saveModel("meet", QoeTarget::kFrameRate, 30.0);

  inference::ModelRegistryOptions options;
  options.modelDir = dir_;
  inference::ModelRegistry registry(options);

  // Every thread races the same cold keys: the double-checked upgrade in
  // `lookupOrLoad` must serialize the disk probe to exactly one load per
  // key, and every racer must observe the same backend instance.
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::vector<std::shared_ptr<const inference::InferenceBackend>> first(
      kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> gate{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.fetch_add(1);
      while (gate.load() < kThreads) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        auto teams = registry.resolve("teams", QoeTarget::kFrameRate);
        ASSERT_NE(teams, nullptr);
        if (!first[static_cast<std::size_t>(t)]) {
          first[static_cast<std::size_t>(t)] = teams;
        }
        ASSERT_EQ(teams, first[static_cast<std::size_t>(t)]);
        ASSERT_NE(registry.resolve("meet", QoeTarget::kFrameRate), nullptr);
        // Missing target: fallback via the negative cache, never a reprobe.
        ASSERT_EQ(registry.resolve("meet", QoeTarget::kBitrateKbps),
                  registry.fallback());
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(first[static_cast<std::size_t>(t)], first[0]);
  }
  const auto stats = registry.stats();
  EXPECT_EQ(stats.loads, 2u);  // teams/frame_rate + meet/frame_rate
  EXPECT_EQ(stats.loadFailures, 0u);
  // Exactly one resolution per (thread, round, target); each was a hit or
  // a miss except the two that loaded.
  const std::uint64_t resolutions = 3ull * kThreads * kRounds;
  EXPECT_EQ(stats.hits + stats.misses + stats.loads, resolutions);
}

TEST_F(ModelRegistryStress, ResolveSetRacesRegistrationChurn) {
  using inference::QoeTarget;
  saveModel("teams", QoeTarget::kFrameRate, 24.0);

  inference::ModelRegistryOptions options;
  options.modelDir = dir_;
  inference::ModelRegistry registry(options);

  // Readers hammer the memoized composite path while a writer churns
  // registrations (each one invalidates the composite cache, forcing the
  // readers through the rebuild-under-write-lock path). The reader
  // invariant: a composite never comes back null and always serves the
  // frame-rate target. Readers run a fixed iteration count so the test's
  // runtime is bounded even on a single-CPU box; the writer spins only as
  // long as the readers do.
  std::atomic<bool> stop{false};
  constexpr int kReaders = 3;
  constexpr int kReaderRounds = 200;
  const std::vector<QoeTarget> targets = {QoeTarget::kFrameRate,
                                          QoeTarget::kBitrateKbps};
  std::thread writer([&] {
    int round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      registry.registerBackend(
          "synthetic", QoeTarget::kBitrateKbps,
          std::make_shared<inference::ForestBackend>(
              syntheticForest(1, 0, static_cast<double>(round++)),
              QoeTarget::kBitrateKbps, "churn"));
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      const std::vector<double> row(14, 0.0);
      for (int round = 0; round < kReaderRounds; ++round) {
        auto composed = registry.resolveSet("teams", targets);
        ASSERT_NE(composed, nullptr);
        inference::WindowContext context;
        context.features = row;
        inference::PredictionSet out;
        composed->predictWindow(context, out);
        ASSERT_EQ(out.get(QoeTarget::kFrameRate), std::optional<double>(24.0));
      }
    });
  }
  for (auto& thread : readers) thread.join();
  stop.store(true);
  writer.join();
  EXPECT_NE(registry.resolve("synthetic", QoeTarget::kBitrateKbps), nullptr);
}

/// The engine stressed the way a live deployment drives it: tiny result
/// rings (max backpressure), tiny dispatch batches (max queue traffic),
/// batched inference with deadline flushes, pump() interleaved with the
/// feed, idle eviction on, and a finish() that lands while the workers are
/// mid-stream. Output must still be bit-identical to a 1-worker engine
/// given the exact same call sequence.
TEST(EngineStress, PumpedBackpressuredFeedMatchesSingleWorker) {
  constexpr int kFlows = 16;
  constexpr int kPacketsPerFlow = 220;
  std::vector<netflow::FlowKey> keys;
  std::vector<std::pair<std::uint32_t, netflow::Packet>> stream;
  for (int f = 0; f < kFlows; ++f) {
    keys.push_back(syntheticFlowKey(static_cast<std::uint32_t>(f)));
    for (const auto& packet :
         syntheticFlowTrace(11u + static_cast<std::uint64_t>(f),
                            kPacketsPerFlow, /*startNs=*/f * 41'000)) {
      stream.emplace_back(static_cast<std::uint32_t>(f), packet);
    }
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.arrivalNs < b.second.arrivalNs;
                   });

  const auto run = [&](int workers) {
    auto registry = std::make_shared<inference::ModelRegistry>();
    registry->registerBackend(
        "synthetic", inference::QoeTarget::kFrameRate,
        std::make_shared<inference::ForestBackend>(
            syntheticForest(2, 2, 27.0), inference::QoeTarget::kFrameRate,
            "stress"));

    EngineOptions options;
    options.numWorkers = workers;
    options.dispatchBatch = 2;
    options.resultRingCapacity = 0;  // clamps to 2: constant backpressure
    options.registry = registry;
    options.vcaResolver = [](const netflow::FlowKey&) {
      return std::string("synthetic");
    };
    options.idleTimeoutNs = 800 * common::kNanosPerMilli;
    options.inferenceBatch = 8;
    options.inferenceFlushNs = scaledInferenceFlushNs(8);

    MultiFlowEngine engine(options);
    std::vector<EngineResult> results;
    std::size_t fed = 0;
    for (const auto& [flow, packet] : stream) {
      engine.onPacket(keys[flow], packet);
      ++fed;
      // Same pump/poll cadence on every run: both are deterministic
      // functions of the feed position, so outputs stay comparable.
      if (fed % 97 == 0) engine.pump(packet.arrivalNs);
      if (fed % 311 == 0) engine.poll(results);
    }
    for (auto& result : engine.finish()) results.push_back(std::move(result));

    // Canonical (flow, window) order for comparison across worker counts.
    std::stable_sort(results.begin(), results.end(),
                     [](const auto& a, const auto& b) {
                       if (a.flow != b.flow) return a.flow < b.flow;
                       return a.output.window < b.output.window;
                     });
    return results;
  };

  const auto sequential = run(1);
  const auto sharded = run(4);
  ASSERT_GT(sequential.size(), 0u);
  ASSERT_EQ(sharded.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_EQ(sharded[i].flow, sequential[i].flow);
    ASSERT_EQ(sharded[i].output.window, sequential[i].output.window);
    ASSERT_EQ(sharded[i].output.features, sequential[i].output.features);
    ASSERT_TRUE(sharded[i].output.predictions ==
                sequential[i].output.predictions);
  }
}

TEST(EngineStress, ImmediateFinishWhileWorkersBlockedOnFullRings) {
  // No poll() at all during the feed: every worker ends up parked on a
  // full 2-slot ring, and finish() must unblock them by draining while the
  // pool winds down.
  EngineOptions options;
  options.numWorkers = 4;
  options.dispatchBatch = 1;
  options.resultRingCapacity = 0;  // clamps to 2
  MultiFlowEngine engine(options);
  // ~2500 packets at the synthetic trace's ~1.35ms mean spacing span ~3.4s
  // of stream time, so every flow emits several 1s windows — more results
  // than the 2-slot rings can hold, guaranteeing parked producers.
  for (int f = 0; f < 8; ++f) {
    const auto key = syntheticFlowKey(static_cast<std::uint32_t>(f));
    for (const auto& packet :
         syntheticFlowTrace(99u + static_cast<std::uint64_t>(f), 2500,
                            /*startNs=*/0)) {
      engine.onPacket(key, packet);
    }
  }
  const auto results = engine.finish();
  EXPECT_GT(results.size(), 16u);  // > total ring slots: workers had to park
}

/// The batch pool's backpressure: no poll() during the feed and 2-slot
/// result rings park every worker on a full ring, so the dispatcher uses
/// up each shard's pool and must wait for buffers, draining the rings
/// itself into the stash meanwhile. The feed must complete, the waits must
/// be counted, no shard may ever hold more than the pool's packets, the
/// stash must leave finish() ahead of the rings (each flow's windows in
/// strictly increasing order), and the output must match one worker
/// exactly.
TEST(EngineStress, UsedUpBatchPoolWithoutPollingMatchesSingleWorker) {
  constexpr int kFlows = 12;
  constexpr std::size_t kDispatchBatch = 4;
  constexpr std::uint64_t kPoolPackets =
      MultiFlowEngine::kBatchPool * kDispatchBatch;
  std::vector<netflow::FlowKey> keys;
  std::vector<std::pair<std::uint32_t, netflow::Packet>> stream;
  for (int f = 0; f < kFlows; ++f) {
    keys.push_back(syntheticFlowKey(static_cast<std::uint32_t>(f)));
    for (const auto& packet :
         syntheticFlowTrace(61u + static_cast<std::uint64_t>(f), 1800,
                            /*startNs=*/f * 29'000)) {
      stream.emplace_back(static_cast<std::uint32_t>(f), packet);
    }
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.arrivalNs < b.second.arrivalNs;
                   });

  const auto run = [&](int workers) {
    EngineOptions options;
    options.numWorkers = workers;
    options.dispatchBatch = kDispatchBatch;
    options.resultRingCapacity = 2;
    MultiFlowEngine engine(options);
    std::uint64_t maxBacklog = 0;
    for (const auto& [flow, packet] : stream) {
      engine.onPacket(keys[flow], packet);
      for (const auto& load : engine.stats().shardLoads) {
        maxBacklog = std::max(maxBacklog, load.backlog);
      }
    }
    EXPECT_LE(maxBacklog, kPoolPackets) << workers << " workers";
    EXPECT_GT(engine.stats().poolWaits, 0u) << workers << " workers";
    // Nothing polled: a window already counted as drained was drained by
    // the dispatcher waiting on a used-up pool.
    std::uint64_t drainedWhileFeeding = 0;
    for (const auto& flow : engine.flowStats()) {
      drainedWhileFeeding += flow.windowsEmitted;
    }
    EXPECT_GT(drainedWhileFeeding, 0u) << workers << " workers";
    auto results = engine.finish();  // canonical (flow, window) order
    std::map<FlowId, std::int64_t> lastWindow;
    for (const auto& result : results) {
      const auto [it, fresh] =
          lastWindow.try_emplace(result.flow, result.output.window);
      if (!fresh) {
        EXPECT_GT(result.output.window, it->second)
            << "flow " << result.flow << ", " << workers << " workers";
        it->second = result.output.window;
      }
    }
    return results;
  };

  const auto sequential = run(1);
  const auto sharded = run(4);
  ASSERT_GT(sequential.size(),
            static_cast<std::size_t>(2 * kFlows));  // > every ring's slots
  ASSERT_EQ(sharded.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    ASSERT_EQ(sharded[i].flow, sequential[i].flow);
    ASSERT_EQ(sharded[i].output.window, sequential[i].output.window);
    ASSERT_EQ(sharded[i].output.features, sequential[i].output.features);
    ASSERT_EQ(sharded[i].output.heuristic.fps,
              sequential[i].output.heuristic.fps);
    ASSERT_EQ(sharded[i].output.heuristic.bitrateKbps,
              sequential[i].output.heuristic.bitrateKbps);
    ASSERT_EQ(sharded[i].output.heuristic.frameJitterMs,
              sequential[i].output.heuristic.frameJitterMs);
    ASSERT_EQ(sharded[i].output.heuristic.frameCount,
              sequential[i].output.heuristic.frameCount);
  }
}

}  // namespace
}  // namespace vcaqoe::engine
