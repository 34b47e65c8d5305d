#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "core/streaming.hpp"
#include "engine/flow_table.hpp"
#include "engine/multi_flow_engine.hpp"
#include "engine/spsc_ring.hpp"
#include "engine/synthetic.hpp"
#include "inference/backends.hpp"
#include "inference/model_registry.hpp"
#include "netflow/packet.hpp"

namespace vcaqoe::engine {
namespace {

netflow::FlowKey makeKey(std::uint32_t i) { return syntheticFlowKey(i); }

struct Interleaved {
  std::vector<netflow::FlowKey> keys;            // per flow
  std::vector<netflow::PacketTrace> perFlow;     // per flow, arrival order
  std::vector<std::pair<std::uint32_t, netflow::Packet>> stream;  // merged
};

Interleaved makeInterleaved(int flows, int packetsPerFlow,
                            std::uint64_t seed = 7) {
  Interleaved in;
  for (int f = 0; f < flows; ++f) {
    in.keys.push_back(makeKey(static_cast<std::uint32_t>(f)));
    in.perFlow.push_back(
        syntheticFlowTrace(seed + static_cast<std::uint64_t>(f),
                           packetsPerFlow, /*startNs=*/f * 37'000));
  }
  for (int f = 0; f < flows; ++f) {
    for (const auto& packet : in.perFlow[static_cast<std::size_t>(f)]) {
      in.stream.emplace_back(static_cast<std::uint32_t>(f), packet);
    }
  }
  std::stable_sort(in.stream.begin(), in.stream.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.arrivalNs < b.second.arrivalNs;
                   });
  return in;
}

/// Ground truth: each flow through its own standalone streaming estimator.
std::vector<std::vector<core::StreamingOutput>> sequentialReference(
    const Interleaved& in, const core::StreamingOptions& options) {
  std::vector<std::vector<core::StreamingOutput>> outputs(in.perFlow.size());
  for (std::size_t f = 0; f < in.perFlow.size(); ++f) {
    core::StreamingEstimator estimator(
        options,
        [&outputs, f](const core::StreamingOutput& out) {
          outputs[f].push_back(out);
        });
    for (const auto& packet : in.perFlow[f]) estimator.onPacket(packet);
    estimator.finish();
  }
  return outputs;
}

void expectSameOutput(const core::StreamingOutput& got,
                      const core::StreamingOutput& want) {
  EXPECT_EQ(got.window, want.window);
  EXPECT_EQ(got.features, want.features);  // bit-identical doubles
  EXPECT_EQ(got.heuristic.window, want.heuristic.window);
  EXPECT_EQ(got.heuristic.bitrateKbps, want.heuristic.bitrateKbps);
  EXPECT_EQ(got.heuristic.fps, want.heuristic.fps);
  EXPECT_EQ(got.heuristic.frameJitterMs, want.heuristic.frameJitterMs);
  EXPECT_EQ(got.heuristic.frameCount, want.heuristic.frameCount);
  EXPECT_TRUE(got.predictions == want.predictions);  // bit-identical doubles
}

TEST(FlowTable, InternAssignsDenseIdsInFirstSeenOrder) {
  FlowTable table;
  const auto a = makeKey(1);
  const auto b = makeKey(2);
  const auto c = makeKey(3);
  EXPECT_EQ(table.intern(a), 0u);
  EXPECT_EQ(table.intern(b), 1u);
  EXPECT_EQ(table.intern(a), 0u);  // stable on re-sight
  EXPECT_EQ(table.intern(c), 2u);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.keyOf(1), b);
  EXPECT_EQ(table.find(c), std::optional<FlowId>(2u));
  EXPECT_FALSE(table.find(makeKey(99)).has_value());
}

TEST(FlowTable, DistinguishesEveryTupleField) {
  FlowTable table;
  netflow::FlowKey base = makeKey(5);
  table.intern(base);
  for (auto mutate : {0, 1, 2, 3}) {
    netflow::FlowKey other = base;
    if (mutate == 0) other.srcIp ^= 1;
    if (mutate == 1) other.dstIp ^= 1;
    if (mutate == 2) other.srcPort ^= 1;
    if (mutate == 3) other.dstPort ^= 1;
    EXPECT_NE(table.intern(other), 0u);
  }
  EXPECT_EQ(table.size(), 5u);
}

TEST(SpscRing, PushPopPreservesFifoOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.tryPush(i));
  EXPECT_FALSE(ring.tryPush(99));  // full
  for (int i = 0; i < 8; ++i) {
    auto v = ring.tryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.tryPop().has_value());  // empty
}

TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.tryPush(i));
    auto v = ring.tryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

/// Capacity edges: 0 and 1 clamp to the minimum of 2, non-powers round up,
/// and a capacity with no power-of-two above it throws instead of spinning
/// the old round-up loop forever (or silently wrapping to 0 slots).
TEST(SpscRing, CapacityEdgesClampRoundAndReject) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_THROW(SpscRing<int>(SpscRing<int>::kMaxCapacity + 1),
               std::length_error);
  EXPECT_THROW(SpscRing<int>(std::numeric_limits<std::size_t>::max()),
               std::length_error);
}

TEST(SpscRing, MinimumCapacityRingStillMovesData) {
  SpscRing<int> ring(0);  // clamps to 2 usable slots
  ASSERT_TRUE(ring.tryPush(1));
  ASSERT_TRUE(ring.tryPush(2));
  EXPECT_FALSE(ring.tryPush(3));  // full at the clamped capacity
  EXPECT_EQ(ring.tryPop(), std::optional<int>(1));
  EXPECT_EQ(ring.tryPop(), std::optional<int>(2));
  EXPECT_FALSE(ring.tryPop().has_value());
}

/// Worker count x backpressure.
class EngineDeterminism
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

/// The tentpole property: sharded output must equal the sequential
/// per-flow streaming estimator, window for window, bit for bit, for any
/// worker count. The backpressured leg gives every shard a 2-slot result
/// ring and polls once, halfway: each worker parks on its full ring
/// mid-stream, the dispatcher uses up that shard's batch pool and drains
/// the rings into its stash while it waits, and the stash must still come
/// out ahead of the rings, from poll() and from finish().
TEST_P(EngineDeterminism, ShardedEqualsSequential) {
  const int workers = std::get<0>(GetParam());
  const bool backpressured = std::get<1>(GetParam());
  const int flows = 13;  // coprime with worker counts: shards get uneven load
  // About 5 windows per flow when backpressured: a worker parks by its
  // shard's third window, with more than a batch pool of packets to come.
  const auto in = makeInterleaved(flows, backpressured ? 4000 : 900);

  core::StreamingOptions streaming;
  const auto want = sequentialReference(in, streaming);

  EngineOptions options;
  options.streaming = streaming;
  options.numWorkers = workers;
  options.dispatchBatch = 64;
  if (backpressured) options.resultRingCapacity = 0;  // clamps to 2
  MultiFlowEngine engine(options);
  std::vector<EngineResult> polled;
  std::size_t fed = 0;
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
    if (backpressured && ++fed == in.stream.size() / 2) engine.poll(polled);
  }
  const auto got = engine.finish();
  if (backpressured) {
    EXPECT_GT(engine.stats().poolWaits, 0u);
  }

  ASSERT_EQ(engine.flows().size(), static_cast<std::size_t>(flows));
  // Engine ids are first-seen dense (arrival order of first packets), which
  // need not match our key index; map key index -> engine id explicitly.
  std::vector<FlowId> idOfKey(static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f) {
    const auto id = engine.flows().find(in.keys[static_cast<std::size_t>(f)]);
    ASSERT_TRUE(id.has_value());
    idOfKey[static_cast<std::size_t>(f)] = *id;
  }

  std::vector<std::vector<core::StreamingOutput>> byFlow(
      static_cast<std::size_t>(flows));
  for (const auto& result : polled) {
    byFlow[result.flow].push_back(result.output);
  }
  std::size_t previousFlow = 0;
  std::int64_t previousWindow = -1;
  for (const auto& result : got) {
    // finish() merges ordered by (flow, window).
    if (result.flow != previousFlow) {
      EXPECT_GT(result.flow, previousFlow);
      previousWindow = -1;
    }
    EXPECT_GT(result.output.window, previousWindow);
    previousFlow = result.flow;
    previousWindow = result.output.window;
    byFlow[result.flow].push_back(result.output);
  }

  for (int f = 0; f < flows; ++f) {
    const auto& gotFlow = byFlow[idOfKey[static_cast<std::size_t>(f)]];
    const auto& wantFlow = want[static_cast<std::size_t>(f)];
    ASSERT_EQ(gotFlow.size(), wantFlow.size()) << "flow " << f;
    for (std::size_t w = 0; w < wantFlow.size(); ++w) {
      expectSameOutput(gotFlow[w], wantFlow[w]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, EngineDeterminism,
                         ::testing::Combine(::testing::Values(1, 2, 4, 7, 8),
                                            ::testing::Bool()));

/// Mixed feature sets in one engine: odd flows resolve kRtp at admission
/// (RTP-headed traffic, payload-type classification, 24-wide features),
/// even flows stay kIpUdp. Output must be bit-identical across worker
/// counts and with cross-flow batching on — the batcher may never mix 14-
/// and 24-wide rows in one backend call, and the per-set window counters
/// must agree with the resolver split on every configuration.
TEST(EngineDeterminismMixedSets, WorkersAndBatchingBitExact) {
  const int flows = 9;
  const int packetsPerFlow = 700;
  Interleaved in;
  for (int f = 0; f < flows; ++f) {
    in.keys.push_back(makeKey(static_cast<std::uint32_t>(f)));
    const auto seed = 400 + static_cast<std::uint64_t>(f);
    in.perFlow.push_back(
        f % 2 == 1
            ? syntheticRtpFlowTrace(seed, packetsPerFlow, f * 37'000)
            : syntheticFlowTrace(seed, packetsPerFlow, f * 37'000));
  }
  for (int f = 0; f < flows; ++f) {
    for (const auto& packet : in.perFlow[static_cast<std::size_t>(f)]) {
      in.stream.emplace_back(static_cast<std::uint32_t>(f), packet);
    }
  }
  std::stable_sort(in.stream.begin(), in.stream.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.arrivalNs < b.second.arrivalNs;
                   });

  // Synthetic keys are 10.0.0.0/8 + index, so key parity == flow parity.
  const auto setOf = [](const netflow::FlowKey& key) {
    return (key.srcIp & 1u) != 0 ? features::FeatureSet::kRtp
                                 : features::FeatureSet::kIpUdp;
  };

  // One registry serving both widths for the same (vca, target).
  auto registry = std::make_shared<inference::ModelRegistry>();
  registry->registerBackend(
      "teams", inference::QoeTarget::kFrameRate,
      std::make_shared<inference::ForestBackend>(
          syntheticForest(6, 5, 30.0, 14), inference::QoeTarget::kFrameRate,
          "forest:teams/ipudp/frame_rate", 14));
  registry->registerBackend(
      "teams", inference::QoeTarget::kFrameRate,
      std::make_shared<inference::ForestBackend>(
          syntheticForest(6, 5, 24.0, 24), inference::QoeTarget::kFrameRate,
          "forest:teams/rtp/frame_rate", 24),
      features::FeatureSet::kRtp);

  core::StreamingOptions streaming;
  streaming.extraction.videoPt = kSyntheticVideoPt;
  streaming.extraction.rtxPt = kSyntheticRtxPt;

  struct Run {
    std::vector<std::vector<core::StreamingOutput>> byKey;
    EngineStats stats;
  };
  const auto run = [&](int workers, std::size_t batch) {
    EngineOptions options;
    options.streaming = streaming;
    options.numWorkers = workers;
    options.dispatchBatch = 64;
    options.registry = registry;
    options.targets = {inference::QoeTarget::kFrameRate};
    options.featureSetResolver = setOf;
    options.inferenceBatch = batch;
    options.inferenceFlushNs = scaledInferenceFlushNs(batch);
    MultiFlowEngine engine(options);
    for (const auto& [flow, packet] : in.stream) {
      engine.onPacket(in.keys[flow], packet);
    }
    const auto got = engine.finish();
    Run result;
    result.byKey.resize(static_cast<std::size_t>(flows));
    std::vector<std::vector<core::StreamingOutput>> byId(
        engine.flows().size());
    for (const auto& r : got) byId[r.flow].push_back(r.output);
    for (int f = 0; f < flows; ++f) {
      const auto id =
          engine.flows().find(in.keys[static_cast<std::size_t>(f)]);
      EXPECT_TRUE(id.has_value()) << "flow " << f;
      if (id.has_value()) {
        result.byKey[static_cast<std::size_t>(f)] = std::move(byId[*id]);
      }
    }
    result.stats = engine.stats();
    return result;
  };

  const auto baseline = run(1, 1);

  // Shape of the baseline: both families present, widths per resolver, a
  // frame-rate prediction on every window, counters matching the split.
  std::uint64_t wantIpUdp = 0;
  std::uint64_t wantRtp = 0;
  for (int f = 0; f < flows; ++f) {
    const auto& outputs = baseline.byKey[static_cast<std::size_t>(f)];
    ASSERT_FALSE(outputs.empty()) << "flow " << f;
    const std::size_t width = f % 2 == 1 ? 24u : 14u;
    for (const auto& out : outputs) {
      ASSERT_EQ(out.features.size(), width) << "flow " << f;
      EXPECT_TRUE(out.predictions.has(inference::QoeTarget::kFrameRate))
          << "flow " << f << " window " << out.window;
    }
    (f % 2 == 1 ? wantRtp : wantIpUdp) +=
        static_cast<std::uint64_t>(outputs.size());
  }
  EXPECT_GT(wantIpUdp, 0u);
  EXPECT_GT(wantRtp, 0u);
  EXPECT_EQ(baseline.stats.windowsIpUdp, wantIpUdp);
  EXPECT_EQ(baseline.stats.windowsRtp, wantRtp);

  for (const int workers : {1, 4}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      if (workers == 1 && batch == 1) continue;
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " batch=" + std::to_string(batch));
      const auto got = run(workers, batch);
      EXPECT_EQ(got.stats.windowsIpUdp, wantIpUdp);
      EXPECT_EQ(got.stats.windowsRtp, wantRtp);
      if (batch > 1) {
        EXPECT_GT(got.stats.inferenceBatches, 0u);
      }
      for (int f = 0; f < flows; ++f) {
        const auto& gotFlow = got.byKey[static_cast<std::size_t>(f)];
        const auto& wantFlow = baseline.byKey[static_cast<std::size_t>(f)];
        ASSERT_EQ(gotFlow.size(), wantFlow.size()) << "flow " << f;
        for (std::size_t w = 0; w < wantFlow.size(); ++w) {
          expectSameOutput(gotFlow[w], wantFlow[w]);
        }
      }
    }
  }
}

TEST(MultiFlowEngine, PollPreservesPerFlowOrder) {
  const auto in = makeInterleaved(5, 600);
  EngineOptions options;
  options.numWorkers = 3;
  options.dispatchBatch = 32;
  options.resultRingCapacity = 16;  // tiny ring: forces mid-run draining
  MultiFlowEngine engine(options);

  std::vector<EngineResult> polled;
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
    engine.poll(polled);
  }
  auto rest = engine.finish();
  polled.insert(polled.end(), rest.begin(), rest.end());

  // Map engine flow ids back to our key indices.
  std::vector<std::size_t> keyIndexOfId(in.keys.size());
  for (std::size_t f = 0; f < in.keys.size(); ++f) {
    const auto id = engine.flows().find(in.keys[f]);
    ASSERT_TRUE(id.has_value());
    keyIndexOfId[*id] = f;
  }

  const auto want = sequentialReference(in, options.streaming);
  std::map<FlowId, std::size_t> cursor;
  for (const auto& result : polled) {
    const auto f = keyIndexOfId[result.flow];
    const auto index = cursor[result.flow]++;
    ASSERT_LT(index, want[f].size());
    // Windows per flow must come out in emission order even when drained
    // through a ring that overflowed many times.
    expectSameOutput(result.output, want[f][index]);
  }
  std::size_t verified = 0;
  for (const auto& [id, count] : cursor) verified += count;
  std::size_t expected = 0;
  for (const auto& flow : want) expected += flow.size();
  EXPECT_EQ(verified, expected);
}

TEST(MultiFlowEngine, TinyBatchAndManyFlowsStillDeterministic) {
  const auto in = makeInterleaved(31, 120);
  const auto want = sequentialReference(in, {});
  EngineOptions options;
  options.numWorkers = 4;
  options.dispatchBatch = 1;  // worst-case dispatch granularity
  MultiFlowEngine engine(options);
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
  }
  const auto got = engine.finish();
  std::size_t total = 0;
  for (const auto& flow : want) total += flow.size();
  ASSERT_EQ(got.size(), total);
}

TEST(MultiFlowEngine, FinishIsIdempotentAndRejectsLatePackets) {
  const auto in = makeInterleaved(2, 200);
  MultiFlowEngine engine(EngineOptions{});
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
  }
  const auto first = engine.finish();
  EXPECT_FALSE(first.empty());
  EXPECT_TRUE(engine.finish().empty());
  netflow::Packet packet;
  packet.arrivalNs = 1;
  packet.sizeBytes = 1000;
  EXPECT_THROW(engine.onPacket(in.keys[0], packet), std::logic_error);
}

TEST(MultiFlowEngine, WorkerErrorSurfacesAtFinish) {
  MultiFlowEngine engine(EngineOptions{});
  const auto key = makeKey(0);
  netflow::Packet packet;
  packet.sizeBytes = 1000;
  packet.arrivalNs = common::kNanosPerSecond;
  engine.onPacket(key, packet);
  packet.arrivalNs = 0;  // out of order within the flow
  engine.onPacket(key, packet);
  EXPECT_THROW(engine.finish(), std::runtime_error);
}

TEST(FlowTable, EraseRetiresIdAndReinternsAsFreshGeneration) {
  FlowTable table;
  const auto key = makeKey(1);
  EXPECT_EQ(table.intern(key), 0u);
  table.erase(0);
  EXPECT_FALSE(table.find(key).has_value());
  EXPECT_EQ(table.activeSize(), 0u);
  EXPECT_EQ(table.size(), 1u);  // retired ids stay counted
  EXPECT_EQ(table.keyOf(0), key);

  // The returning flow gets a fresh id — the retired one is never reused,
  // so shard state keyed by id 0 can never alias the new generation.
  EXPECT_EQ(table.intern(key), 1u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.activeSize(), 1u);

  // Erasing the stale generation must not disturb the live one.
  table.erase(0);
  EXPECT_EQ(table.find(key), std::optional<FlowId>(1u));
}

/// Builds a hand-timed flow: `packets` packets of 1000 bytes every 10 ms
/// starting at `startNs`.
netflow::PacketTrace steadyTrace(common::TimeNs startNs, int packets) {
  netflow::PacketTrace trace;
  for (int i = 0; i < packets; ++i) {
    netflow::Packet p;
    p.arrivalNs = startNs + static_cast<common::TimeNs>(i) * 10'000'000LL;
    p.sizeBytes = 1000;
    trace.push_back(p);
  }
  return trace;
}

TEST(MultiFlowEngine, IdleFlowIsEvictedFinalizedAndReinternedFresh) {
  EngineOptions options;
  options.numWorkers = 2;
  options.dispatchBatch = 1;  // dispatch (and evict) without buffering delay
  options.idleTimeoutNs = 3 * common::kNanosPerSecond;
  MultiFlowEngine engine(options);

  const auto keyA = makeKey(1);
  const auto keyB = makeKey(2);

  // Flow A: 2 seconds of traffic, then silence.
  const auto burstA = steadyTrace(0, 200);
  for (const auto& p : burstA) engine.onPacket(keyA, p);
  // Flow B keeps the clock advancing well past A's idle timeout.
  for (const auto& p : steadyTrace(2 * common::kNanosPerSecond, 800)) {
    engine.onPacket(keyB, p);
  }

  auto stats = engine.stats();
  EXPECT_EQ(stats.flowsEvicted, 1u);
  EXPECT_EQ(stats.activeFlows, 1u);
  EXPECT_EQ(stats.flows, 2u);
  EXPECT_TRUE(engine.flowStats()[0].evicted);
  EXPECT_FALSE(engine.flows().find(keyA).has_value());

  // A returns: fresh generation, fresh id, fresh estimator (an arrival far
  // from the evicted generation's timeline must be accepted).
  netflow::Packet back;
  back.arrivalNs = 50 * common::kNanosPerSecond;
  back.sizeBytes = 1000;
  engine.onPacket(keyA, back);
  EXPECT_EQ(engine.flows().find(keyA), std::optional<FlowId>(2u));
  EXPECT_EQ(engine.stats().flows, 3u);

  const auto results = engine.finish();

  // Finalize-on-evict: generation 0 emitted exactly what a standalone
  // estimator fed the same burst emits, windows and fields bit-identical.
  std::vector<core::StreamingOutput> want;
  core::StreamingEstimator reference(
      options.streaming,
      [&want](const core::StreamingOutput& out) { want.push_back(out); });
  for (const auto& p : burstA) reference.onPacket(p);
  reference.finish();

  std::vector<core::StreamingOutput> gotA;
  for (const auto& result : results) {
    if (result.flow == 0) gotA.push_back(result.output);
  }
  ASSERT_EQ(gotA.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    expectSameOutput(gotA[w], want[w]);
  }

  // Per-flow stats survived the eviction.
  const auto& flowStats = engine.flowStats();
  ASSERT_EQ(flowStats.size(), 3u);
  EXPECT_EQ(flowStats[0].key, keyA);
  EXPECT_EQ(flowStats[0].packets, burstA.size());
  EXPECT_EQ(flowStats[0].bytes, burstA.size() * 1000u);
  EXPECT_EQ(flowStats[0].firstArrivalNs, burstA.front().arrivalNs);
  EXPECT_EQ(flowStats[0].lastArrivalNs, burstA.back().arrivalNs);
  EXPECT_EQ(flowStats[0].windowsEmitted, want.size());
  EXPECT_EQ(flowStats[2].key, keyA);
  EXPECT_FALSE(flowStats[2].evicted);
  EXPECT_EQ(flowStats[2].packets, 1u);
}

TEST(MultiFlowEngine, EvictionBoundsResidentFlowsOnLongRuns) {
  EngineOptions options;
  options.numWorkers = 2;
  options.dispatchBatch = 16;
  options.idleTimeoutNs = 2 * common::kNanosPerSecond;
  MultiFlowEngine engine(options);

  // 120 flows, each a half-second burst starting one second after the
  // previous — a long tail of dead sessions a monitor must not accumulate.
  constexpr int kFlows = 120;
  constexpr int kPacketsPerFlow = 50;
  std::size_t maxActive = 0;
  for (int f = 0; f < kFlows; ++f) {
    const auto start = static_cast<common::TimeNs>(f) * common::kNanosPerSecond;
    for (const auto& p : steadyTrace(start, kPacketsPerFlow)) {
      engine.onPacket(makeKey(static_cast<std::uint32_t>(f)), p);
    }
    maxActive = std::max(maxActive, engine.stats().activeFlows);
  }
  std::vector<EngineResult> drained;
  engine.poll(drained);
  const auto results = engine.finish();

  // Resident state stayed bounded by concurrency, not by flows ever seen.
  EXPECT_LE(maxActive, 8u);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.flows, static_cast<std::size_t>(kFlows));
  EXPECT_GE(stats.flowsEvicted, static_cast<std::uint64_t>(kFlows - 8));

  // Accounting remains queryable for every evicted generation, and every
  // drained result was attributed.
  ASSERT_EQ(engine.flowStats().size(), static_cast<std::size_t>(kFlows));
  std::uint64_t windowsAccounted = 0;
  for (const auto& fs : engine.flowStats()) {
    EXPECT_EQ(fs.packets, static_cast<std::uint64_t>(kPacketsPerFlow));
    windowsAccounted += fs.windowsEmitted;
  }
  EXPECT_EQ(windowsAccounted, drained.size() + results.size());
}

// ------------------------------------------------- live-mode pump (PR 5)

TEST(MultiFlowEngine, RejectsNonPositiveWindowAtConstruction) {
  EngineOptions options;
  options.streaming.windowNs = 0;
  EXPECT_THROW(MultiFlowEngine{options}, std::invalid_argument);
  options.streaming.windowNs = -1;
  EXPECT_THROW(MultiFlowEngine{options}, std::invalid_argument);
}

/// Drains `engine` until `atLeast` results arrived or ~5 s of wall time
/// passed (the workers process pump control items asynchronously).
std::size_t pollUntil(MultiFlowEngine& engine,
                      std::vector<EngineResult>& results,
                      std::size_t atLeast) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (results.size() < atLeast &&
         std::chrono::steady_clock::now() < deadline) {
    engine.poll(results);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.poll(results);
  return results.size();
}

TEST(MultiFlowEngine, PumpEvictsIdleFlowsAndFlushesPendingWithoutPackets) {
  EngineOptions options;
  options.numWorkers = 2;
  // Large dispatch batch: without the pump, everything would sit in the
  // dispatcher-side pending buffer until finish().
  options.dispatchBatch = 100'000;
  options.idleTimeoutNs = 3 * common::kNanosPerSecond;
  MultiFlowEngine engine(options);

  const auto burst = steadyTrace(0, 300);  // ~3 s of traffic, then silence
  for (const auto& p : burst) engine.onPacket(makeKey(1), p);

  // Reference: a standalone estimator over the same burst, finalized.
  std::vector<core::StreamingOutput> want;
  core::StreamingEstimator reference(
      options.streaming,
      [&want](const core::StreamingOutput& out) { want.push_back(out); });
  for (const auto& p : burst) reference.onPacket(p);
  reference.finish();
  ASSERT_GE(want.size(), 2u);

  // No packet will ever arrive again; the pump alone must evict, finalize,
  // and surface the flow's windows.
  engine.pump(burst.back().arrivalNs + options.idleTimeoutNs + 1);
  auto stats = engine.stats();
  EXPECT_EQ(stats.flowsEvicted, 1u);
  EXPECT_EQ(stats.activeFlows, 0u);
  EXPECT_TRUE(engine.flowStats()[0].evicted);

  std::vector<EngineResult> results;
  ASSERT_EQ(pollUntil(engine, results, want.size()), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(results[w].flow, 0u);
    expectSameOutput(results[w].output, want[w]);
  }

  // finish() has nothing left for the evicted generation.
  EXPECT_TRUE(engine.finish().empty());
}

TEST(MultiFlowEngine, PumpFlushesBatcherDeadlineOnQuietStream) {
  auto registry = std::make_shared<inference::ModelRegistry>();
  registry->registerBackend(
      "teams", inference::QoeTarget::kFrameRate,
      std::make_shared<inference::ForestBackend>(
          syntheticForest(4, 4, 30.0), inference::QoeTarget::kFrameRate,
          "forest:teams/frame_rate"));

  EngineOptions options;
  options.numWorkers = 1;
  options.dispatchBatch = 1;  // windows reach the shard batcher immediately
  options.registry = registry;
  options.targets = {inference::QoeTarget::kFrameRate};
  options.inferenceBatch = 64;  // far more than the trace produces
  options.inferenceFlushNs = 60 * common::kNanosPerSecond;  // never mid-trace
  MultiFlowEngine engine(options);

  const auto burst = steadyTrace(0, 500);  // ~5 s of traffic
  for (const auto& p : burst) engine.onPacket(makeKey(1), p);

  std::vector<core::StreamingOutput> want;
  core::StreamingEstimator reference(
      options.streaming,
      [&want](const core::StreamingOutput& out) { want.push_back(out); },
      registry->resolve("teams", inference::QoeTarget::kFrameRate));
  for (const auto& p : burst) reference.onPacket(p);
  // No finish(): only windows already emitted mid-stream are expected —
  // those are exactly what the batcher is holding hostage.
  ASSERT_GE(want.size(), 3u);

  // The stream is quiet and the deadline far away: pumping a stream time
  // past the deadline is the only way these windows can surface.
  engine.pump(burst.back().arrivalNs + options.inferenceFlushNs + 1);
  std::vector<EngineResult> results;
  ASSERT_EQ(pollUntil(engine, results, want.size()), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(results[w].flow, 0u);
    expectSameOutput(results[w].output, want[w]);
    EXPECT_TRUE(results[w].output.predictions.has(
        inference::QoeTarget::kFrameRate));
  }
  EXPECT_GT(engine.stats().inferenceBatches, 0u);
  engine.finish();
}

TEST(MultiFlowEngine, PumpIsMonotoneAndRejectedAfterFinish) {
  EngineOptions options;
  options.numWorkers = 1;
  MultiFlowEngine engine(options);
  for (const auto& p : steadyTrace(0, 50)) engine.onPacket(makeKey(1), p);
  // An old timestamp must not rewind the engine clock (no spurious
  // evictions, no clock regressions on the shards).
  engine.pump(-100);
  engine.pump(common::kNanosPerSecond);
  const auto results = engine.finish();
  EXPECT_FALSE(results.empty());
  EXPECT_THROW(engine.pump(2 * common::kNanosPerSecond), std::logic_error);
}

TEST(MultiFlowEngine, StatsCountPacketsFlowsAndResults) {
  const auto in = makeInterleaved(4, 300);
  EngineOptions options;
  options.numWorkers = 2;
  MultiFlowEngine engine(options);
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
  }
  const auto results = engine.finish();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.packetsIngested, in.stream.size());
  EXPECT_EQ(stats.flows, 4u);
  EXPECT_EQ(stats.resultsMerged, results.size());
  EXPECT_GT(stats.batchesDispatched, 0u);
}

// --- Load-adaptive sharding -----------------------------------------------

/// `FlowKeyHash` feeds both the flow table's buckets and the kHash shard
/// modulo; random 5-tuples must land near-uniformly over small shard
/// counts or one worker inherits a biased share of every deployment.
TEST(FlowKeyHash, DistributesRandomTuplesNearUniformlyOverShards) {
  constexpr int kTuples = 8192;
  common::Rng rng(2026);
  std::vector<std::size_t> hashes;
  hashes.reserve(kTuples);
  FlowKeyHash hash;
  for (int i = 0; i < kTuples; ++i) {
    netflow::FlowKey key;
    key.srcIp = static_cast<std::uint32_t>(rng.engine()());
    key.dstIp = static_cast<std::uint32_t>(rng.engine()());
    key.srcPort = static_cast<std::uint16_t>(rng.engine()());
    key.dstPort = static_cast<std::uint16_t>(rng.engine()());
    hashes.push_back(hash(key));
  }
  for (const std::size_t shards : {2u, 4u, 8u}) {
    std::vector<int> buckets(shards, 0);
    for (const auto h : hashes) ++buckets[h % shards];
    const double expected = static_cast<double>(kTuples) / shards;
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_GT(buckets[s], expected * 0.75)
          << "shards=" << shards << " bucket=" << s;
      EXPECT_LT(buckets[s], expected * 1.25)
          << "shards=" << shards << " bucket=" << s;
    }
  }
}

TEST(FlowDemuxCache, ServesLiveIdsAndForgetsEvicted) {
  FlowDemuxCache cache;
  const auto a = makeKey(1);
  const auto b = makeKey(2);
  EXPECT_FALSE(cache.lookup(a).has_value());
  cache.remember(a, 7);
  cache.remember(b, 9);
  EXPECT_EQ(cache.lookup(a), std::optional<FlowId>(7u));
  EXPECT_EQ(cache.lookup(b), std::optional<FlowId>(9u));
  // Eviction invalidates; a later generation re-installs under a new id.
  cache.forget(a);
  EXPECT_FALSE(cache.lookup(a).has_value());
  cache.remember(a, 12);
  EXPECT_EQ(cache.lookup(a), std::optional<FlowId>(12u));
  EXPECT_EQ(cache.lookups(), 5u);
  EXPECT_EQ(cache.hits(), 3u);
}

TEST(FlowDemuxCache, DirectMappedCollisionDisplacesNotCorrupts) {
  // Find two keys sharing a slot; the second displaces the first, and a
  // forget() of the displaced key must not clobber the resident one.
  FlowDemuxCache cache;
  FlowKeyHash hash;
  const auto a = makeKey(0);
  netflow::FlowKey colliding;
  bool found = false;
  for (std::uint32_t i = 1; i < 100'000; ++i) {
    colliding = makeKey(i);
    if ((hash(colliding) % FlowDemuxCache::kSlots) ==
        (hash(a) % FlowDemuxCache::kSlots)) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  cache.remember(a, 1);
  cache.remember(colliding, 2);
  EXPECT_FALSE(cache.lookup(a).has_value());  // displaced
  EXPECT_EQ(cache.lookup(colliding), std::optional<FlowId>(2u));
  cache.forget(a);  // displaced long ago: must be a no-op
  EXPECT_EQ(cache.lookup(colliding), std::optional<FlowId>(2u));
}

/// The one shard rule: shard = id mod workers, for the flow's whole life.
TEST(MultiFlowEngine, HashPlacementKeepsModuloContract) {
  const auto in = makeInterleaved(13, 200);
  EngineOptions options;
  options.numWorkers = 4;
  MultiFlowEngine engine(options);
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
  }
  (void)engine.finish();
  ASSERT_EQ(engine.flows().size(), 13u);
  for (FlowId id = 0; id < 13; ++id) {
    EXPECT_EQ(engine.shardOf(id), id % 4u) << "flow " << id;
  }
}

class MultiFlowEngineShardRule : public ::testing::TestWithParam<int> {};

/// The one shard rule under flow churn, for worker counts that do and do
/// not divide the key count: five keys come back in three rounds, each
/// round a fresh generation (the previous one went idle and was evicted),
/// so one key's generations land on different shards. Every generation
/// runs on `id % workers`, and each shard is dispatched exactly the packets
/// of the generations the rule gives it.
TEST_P(MultiFlowEngineShardRule, EveryGenerationRoutesToIdModuloWorkers) {
  const int workers = GetParam();
  constexpr std::uint32_t kKeys = 5;
  constexpr int kRounds = 3;
  EngineOptions options;
  options.numWorkers = workers;
  options.dispatchBatch = 8;
  options.idleTimeoutNs = 2 * common::kNanosPerSecond;
  MultiFlowEngine engine(options);
  for (int round = 0; round < kRounds; ++round) {
    // The idle kick retires the previous round's generations before any
    // key returns.
    engine.pump(round * 10 * common::kNanosPerSecond);
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      const auto start = round * 10 * common::kNanosPerSecond +
                         static_cast<common::TimeNs>(k) * 50'000'000LL;
      for (const auto& p : steadyTrace(start, 40 + static_cast<int>(k))) {
        engine.onPacket(makeKey(k), p);
      }
    }
  }
  const auto results = engine.finish();

  const auto& flowStats = engine.flowStats();
  ASSERT_EQ(flowStats.size(), kKeys * kRounds);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.flowsEvicted, kKeys * (kRounds - 1));
  std::vector<std::uint64_t> wantDispatched(
      static_cast<std::size_t>(workers), 0);
  std::uint64_t windows = 0;
  for (FlowId id = 0; id < flowStats.size(); ++id) {
    // Ids are first-seen dense: round r, key k is generation 5r + k.
    EXPECT_EQ(flowStats[id].key, makeKey(id % kKeys)) << "flow " << id;
    EXPECT_EQ(flowStats[id].packets, 40u + id % kKeys) << "flow " << id;
    EXPECT_EQ(engine.shardOf(id), id % static_cast<std::size_t>(workers))
        << "flow " << id;
    wantDispatched[engine.shardOf(id)] += flowStats[id].packets;
    windows += flowStats[id].windowsEmitted;
  }
  ASSERT_EQ(stats.shardLoads.size(), static_cast<std::size_t>(workers));
  for (std::size_t shard = 0; shard < stats.shardLoads.size(); ++shard) {
    EXPECT_EQ(stats.shardLoads[shard].packetsDispatched,
              wantDispatched[shard])
        << "shard " << shard;
    EXPECT_EQ(stats.shardLoads[shard].packetsProcessed,
              wantDispatched[shard])
        << "shard " << shard;
  }
  EXPECT_GT(results.size(), 0u);
  EXPECT_EQ(windows, results.size());
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, MultiFlowEngineShardRule,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

/// `poolWaits` counts only real waits. 15 full dispatch batches fit a
/// shard's pool however slow its worker, so feeding them never waits; a
/// worker parked on a 2-slot result ring that nobody polls makes the
/// dispatcher use the pool up and wait.
TEST(MultiFlowEngine, PoolWaitsCountOnlyAUsedUpPool) {
  constexpr std::size_t kBatch = 64;
  const auto key = makeKey(1);
  const auto feed = [&](int packets, std::size_t ringCapacity) {
    EngineOptions options;
    options.numWorkers = 1;
    options.dispatchBatch = kBatch;
    options.resultRingCapacity = ringCapacity;
    MultiFlowEngine engine(options);
    // 100 packets a second: one window per 100 packets.
    for (const auto& p : steadyTrace(0, packets)) engine.onPacket(key, p);
    const auto waits = engine.stats().poolWaits;
    (void)engine.finish();
    return waits;
  };
  EXPECT_EQ(feed(static_cast<int>((MultiFlowEngine::kBatchPool - 1) * kBatch),
                 0),
            0u);
  // The worker parks by its third window (~300 packets, a few batches
  // handed back); 3000 packets outrun the 16-batch pool by far.
  EXPECT_GT(feed(3000, 0), 0u);
}

/// One elephant among mice: flow 0 carries most of the packets, so one
/// shard runs far hotter than its siblings.
Interleaved makeSkewedInterleaved(int flows, int elephantPackets,
                                  int mousePackets) {
  Interleaved in;
  for (int f = 0; f < flows; ++f) {
    in.keys.push_back(makeKey(static_cast<std::uint32_t>(f)));
    in.perFlow.push_back(syntheticFlowTrace(
        31 + static_cast<std::uint64_t>(f),
        f == 0 ? elephantPackets : mousePackets, /*startNs=*/f * 23'000));
  }
  for (int f = 0; f < flows; ++f) {
    for (const auto& packet : in.perFlow[static_cast<std::size_t>(f)]) {
      in.stream.emplace_back(static_cast<std::uint32_t>(f), packet);
    }
  }
  std::stable_sort(in.stream.begin(), in.stream.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.arrivalNs < b.second.arrivalNs;
                   });
  return in;
}

/// Worker count x poll cadence x pump cadence, in packets fed (0 = never).
class EngineSkewedDeterminism
    : public ::testing::TestWithParam<
          std::tuple<int, std::size_t, std::size_t>> {};

/// The skewed leg of the determinism contract: on a one-elephant stream,
/// fed with or without polls and live-mode pumps in between, every worker
/// count must stay bit-identical to the sequential per-flow reference, and
/// the load accounting must close.
TEST_P(EngineSkewedDeterminism, SkewedStreamBitIdenticalToSequential) {
  const auto [workers, pollEvery, pumpEvery] = GetParam();
  const int flows = 9;
  const auto in = makeSkewedInterleaved(flows, 2600, 260);

  core::StreamingOptions streaming;
  const auto want = sequentialReference(in, streaming);

  EngineOptions options;
  options.streaming = streaming;
  options.numWorkers = workers;
  options.dispatchBatch = 16;
  MultiFlowEngine engine(options);
  std::vector<EngineResult> polled;
  std::size_t fed = 0;
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
    ++fed;
    if (pumpEvery != 0 && fed % pumpEvery == 0) engine.pump(packet.arrivalNs);
    if (pollEvery != 0 && fed % pollEvery == 0) engine.poll(polled);
  }
  for (auto& result : engine.finish()) polled.push_back(std::move(result));

  std::vector<FlowId> idOfKey(static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f) {
    const auto id = engine.flows().find(in.keys[static_cast<std::size_t>(f)]);
    ASSERT_TRUE(id.has_value());
    idOfKey[static_cast<std::size_t>(f)] = *id;
  }
  std::vector<std::vector<core::StreamingOutput>> byFlow(
      static_cast<std::size_t>(flows));
  for (auto& result : polled) {
    byFlow[result.flow].push_back(std::move(result.output));
  }
  for (int f = 0; f < flows; ++f) {
    const auto& gotFlow = byFlow[idOfKey[static_cast<std::size_t>(f)]];
    const auto& wantFlow = want[static_cast<std::size_t>(f)];
    ASSERT_EQ(gotFlow.size(), wantFlow.size()) << "flow " << f;
    for (std::size_t w = 0; w < wantFlow.size(); ++w) {
      expectSameOutput(gotFlow[w], wantFlow[w]);
    }
  }
  // Load accounting closes: every ingested packet was dispatched to some
  // shard and processed there by the time finish() returned.
  const auto stats = engine.stats();
  ASSERT_EQ(stats.shardLoads.size(), static_cast<std::size_t>(workers));
  std::uint64_t dispatched = 0;
  std::uint64_t processed = 0;
  for (const auto& load : stats.shardLoads) {
    dispatched += load.packetsDispatched;
    processed += load.packetsProcessed;
    EXPECT_EQ(load.backlog, 0u);
  }
  EXPECT_EQ(dispatched, stats.packetsIngested);
  EXPECT_EQ(processed, stats.packetsIngested);
  if (pumpEvery != 0) {
    // Each pump hands every shard its pending items as one batch.
    EXPECT_GE(stats.batchesDispatched,
              fed / pumpEvery * static_cast<std::size_t>(workers));
  }
}

INSTANTIATE_TEST_SUITE_P(
    CadenceMatrix, EngineSkewedDeterminism,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(std::size_t{0}, std::size_t{113}),
                       ::testing::Values(std::size_t{0}, std::size_t{89})));

/// The dispatcher-side demux cache is accounted and actually hit on bursty
/// interleaves, and an evicted generation is never served stale.
TEST(MultiFlowEngine, DemuxCacheCountsHitsAndSurvivesEviction) {
  EngineOptions options;
  options.numWorkers = 2;
  options.idleTimeoutNs = 500 * common::kNanosPerMilli;
  MultiFlowEngine engine(options);
  const auto key = makeKey(3);
  // Burst, long gap (evicts), burst again: the second generation must get
  // a fresh id through the cache-miss path.
  for (const auto& packet : steadyTrace(0, 200)) engine.onPacket(key, packet);
  const auto firstGen = engine.flows().find(key);
  ASSERT_TRUE(firstGen.has_value());
  engine.pump(10 * common::kNanosPerSecond);
  EXPECT_FALSE(engine.flows().find(key).has_value());
  for (const auto& packet : steadyTrace(11 * common::kNanosPerSecond, 50)) {
    engine.onPacket(key, packet);
  }
  const auto secondGen = engine.flows().find(key);
  ASSERT_TRUE(secondGen.has_value());
  EXPECT_NE(*secondGen, *firstGen);
  (void)engine.finish();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.demuxCacheLookups, stats.packetsIngested);
  // All but the two admission packets hit the single-flow cache line.
  EXPECT_EQ(stats.demuxCacheHits, stats.packetsIngested - 2);
}

}  // namespace
}  // namespace vcaqoe::engine
