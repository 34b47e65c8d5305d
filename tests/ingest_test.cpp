#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "core/streaming.hpp"
#include "engine/multi_flow_engine.hpp"
#include "engine/synthetic.hpp"
#include "inference/backends.hpp"
#include "inference/model_registry.hpp"
#include "ingest/packet_source.hpp"
#include "ingest/pcap_replay.hpp"
#include "ingest/replay_driver.hpp"
#include "netflow/pcap.hpp"

namespace vcaqoe::ingest {
namespace {

/// A globally arrival-ordered interleaved stream of synthetic VCA flows —
/// exactly what a capture point records.
std::vector<SourcePacket> makeStream(int flows, int packetsPerFlow,
                                     std::uint64_t seed = 21) {
  std::vector<SourcePacket> stream;
  for (int f = 0; f < flows; ++f) {
    const auto key = engine::syntheticFlowKey(static_cast<std::uint32_t>(f));
    const auto trace = engine::syntheticFlowTrace(
        seed + static_cast<std::uint64_t>(f), packetsPerFlow,
        /*startNs=*/f * 53'000);
    for (const auto& packet : trace) stream.push_back({key, packet});
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const SourcePacket& a, const SourcePacket& b) {
                     return a.packet.arrivalNs < b.packet.arrivalNs;
                   });
  return stream;
}

std::vector<std::uint8_t> writeCapture(const std::vector<SourcePacket>& s) {
  netflow::PcapWriter writer;
  for (const auto& sp : s) writer.write(sp.flow, sp.packet);
  return writer.bytes();
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

/// Direct feed reference: same packets straight into onPacket, canonical
/// order via finish().
std::vector<engine::EngineResult> directFeed(
    const std::vector<SourcePacket>& stream,
    const engine::EngineOptions& options) {
  engine::MultiFlowEngine eng(options);
  for (const auto& sp : stream) eng.onPacket(sp.flow, sp.packet);
  return eng.finish();
}

class ReplayDeterminism : public ::testing::TestWithParam<int> {};

/// The acceptance gate of the ingest path: a capture written by PcapWriter
/// and replayed through PcapReplaySource -> MultiFlowEngine yields
/// bit-identical EngineResults to feeding the same packets directly.
TEST_P(ReplayDeterminism, ReplayedCaptureMatchesDirectFeed) {
  engine::EngineOptions options;
  options.numWorkers = GetParam();
  options.dispatchBatch = 64;
  options.resultRingCapacity = 128;  // small ring: exercises mid-replay polls

  const auto stream = makeStream(9, 700);
  const auto want = directFeed(stream, options);

  const auto capture = writeCapture(stream);
  engine::MultiFlowEngine eng(options);
  PcapReplaySource source{std::span<const std::uint8_t>(capture)};
  const auto report = replay(source, eng, /*pollEvery=*/256);

  EXPECT_EQ(report.packets, stream.size());
  EXPECT_EQ(source.parseStats().recordsYielded, stream.size());
  ASSERT_EQ(report.results.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(report.results[i].flow, want[i].flow);
    expectSameOutput(report.results[i].output, want[i].output);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ReplayDeterminism,
                         ::testing::Values(1, 4));

/// The live-mode idle kick must change only *when* results surface, never
/// their values or canonical order — including through the cross-flow
/// inference batcher whose deadline flushes it forces.
TEST(Replay, PumpedReplayBitIdenticalToDirectFeed) {
  auto registry = std::make_shared<inference::ModelRegistry>();
  registry->registerBackend(
      "teams", inference::QoeTarget::kFrameRate,
      std::make_shared<inference::ForestBackend>(
          engine::syntheticForest(4, 4, 30.0),
          inference::QoeTarget::kFrameRate, "forest:teams/frame_rate"));

  engine::EngineOptions options;
  options.numWorkers = 4;
  options.dispatchBatch = 64;
  options.registry = registry;
  options.targets = {inference::QoeTarget::kFrameRate};
  options.inferenceBatch = 16;
  options.inferenceFlushNs = 2 * common::kNanosPerSecond;

  const auto stream = makeStream(6, 600);
  const auto want = directFeed(stream, options);

  const auto capture = writeCapture(stream);
  engine::MultiFlowEngine eng(options);
  PcapReplaySource source{std::span<const std::uint8_t>(capture)};
  const auto report = replay(source, eng, /*pollEvery=*/128,
                             /*pumpIntervalNs=*/common::kNanosPerSecond / 2);

  ASSERT_EQ(report.results.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(report.results[i].flow, want[i].flow);
    expectSameOutput(report.results[i].output, want[i].output);
  }
}

TEST(PcapReplaySource, FileConstructorStreamsFromDisk) {
  const auto stream = makeStream(3, 150);
  netflow::PcapWriter writer;
  for (const auto& sp : stream) writer.write(sp.flow, sp.packet);
  const std::string path =
      (std::filesystem::temp_directory_path() / "vcaqoe_replay.pcap").string();
  writer.save(path);

  PcapReplaySource source(path);
  std::size_t count = 0;
  SourcePacket sp;
  while (source.next(sp)) ++count;
  std::remove(path.c_str());
  EXPECT_EQ(count, stream.size());
}

TEST(PcapReplaySource, PacedReplayReproducesCaptureGaps) {
  netflow::PcapWriter writer;
  const auto key = engine::syntheticFlowKey(0);
  for (int i = 0; i < 3; ++i) {
    netflow::Packet p;
    p.arrivalNs = static_cast<common::TimeNs>(i) * 20'000'000LL;  // 20 ms
    p.sizeBytes = 500;
    writer.write(key, p);
  }

  ReplayOptions paced;
  paced.paceMultiplier = 2.0;  // 40 ms of capture in ~20 ms of wall time
  PcapReplaySource source(std::span<const std::uint8_t>(writer.bytes()),
                          paced);
  const auto start = std::chrono::steady_clock::now();
  SourcePacket sp;
  std::size_t count = 0;
  while (source.next(sp)) ++count;
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(count, 3u);
  EXPECT_GE(elapsed, 15.0);  // >= the paced span, minus scheduler slack
}

/// Serves a fixed stream and logs every pull, so a test can see how the
/// driver interleaves pulls with its hook and the engine.
class RecordingSource final : public PacketSource {
 public:
  explicit RecordingSource(const std::vector<SourcePacket>& stream)
      : stream_(stream) {}

  bool next(SourcePacket& out) override {
    log.push_back("pull " + std::to_string(pulled_));
    if (pulled_ == stream_.size()) return false;
    out = stream_[pulled_++];
    return true;
  }

  /// Packets handed out so far.
  std::size_t pulled() const { return pulled_; }

  std::vector<std::string> log;

 private:
  const std::vector<SourcePacket>& stream_;
  std::size_t pulled_ = 0;
};

// The per-packet contract replay() documents: next -> hooks.onPacket ->
// engine.onPacket, with packet i's hook before packet i+1 is pulled. A
// source may expose state about the packet it pulled last (the bench's
// paced source exposes its due time) and the hook reads it for exactly
// that packet. Held with poll and pump drains interleaved.
TEST(Replay, HookRunsForEachPacketBeforeTheNextPull) {
  const auto stream = makeStream(3, 200);
  engine::EngineOptions options;
  options.numWorkers = 2;
  options.dispatchBatch = 8;
  engine::MultiFlowEngine eng(options);
  RecordingSource source(stream);

  ReplayHooks hooks;
  std::size_t hooked = 0;
  hooks.onPacket = [&](const SourcePacket& sp) {
    // The packet just pulled, not yet fed to the engine.
    EXPECT_EQ(source.pulled(), hooked + 1);
    EXPECT_EQ(eng.stats().packetsIngested, hooked);
    EXPECT_EQ(sp.flow, stream[hooked].flow);
    EXPECT_EQ(sp.packet.arrivalNs, stream[hooked].packet.arrivalNs);
    source.log.push_back("hook " + std::to_string(hooked));
    ++hooked;
  };
  const auto report = replay(source, eng, /*pollEvery=*/7,
                             /*pumpIntervalNs=*/common::kNanosPerSecond / 4,
                             hooks);

  EXPECT_EQ(report.packets, stream.size());
  ASSERT_EQ(source.log.size(), 2 * stream.size() + 1);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(source.log[2 * i], "pull " + std::to_string(i));
    EXPECT_EQ(source.log[2 * i + 1], "hook " + std::to_string(i));
  }
  EXPECT_EQ(source.log.back(), "pull " + std::to_string(stream.size()));
}

/// Long replay with eviction: resident state stays bounded by concurrency
/// while the per-flow dashboard stats remain queryable after eviction.
TEST(Replay, EvictionKeepsReplayMemoryBoundedWithStatsIntact) {
  // 60 short sessions starting 1 s apart over a ~60 s capture: a long tail
  // of dead flows that an unbounded monitor would accumulate forever.
  constexpr int kFlows = 60;
  constexpr int kPacketsPerFlow = 80;
  std::vector<SourcePacket> stream;
  for (int f = 0; f < kFlows; ++f) {
    const auto key = engine::syntheticFlowKey(static_cast<std::uint32_t>(f));
    const auto trace = engine::syntheticFlowTrace(
        7 + static_cast<std::uint64_t>(f), kPacketsPerFlow,
        static_cast<common::TimeNs>(f) * common::kNanosPerSecond);
    for (const auto& packet : trace) stream.push_back({key, packet});
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const SourcePacket& a, const SourcePacket& b) {
                     return a.packet.arrivalNs < b.packet.arrivalNs;
                   });
  const auto capture = writeCapture(stream);

  engine::EngineOptions options;
  options.numWorkers = 2;
  options.idleTimeoutNs = 2 * common::kNanosPerSecond;
  engine::MultiFlowEngine eng(options);
  PcapReplaySource source{std::span<const std::uint8_t>(capture)};
  const auto report = replay(source, eng);

  EXPECT_EQ(report.packets, stream.size());
  EXPECT_EQ(report.engineStats.flows, static_cast<std::size_t>(kFlows));
  EXPECT_GE(report.engineStats.flowsEvicted,
            static_cast<std::uint64_t>(kFlows - 10));
  EXPECT_LE(report.engineStats.activeFlows, 10u);

  const auto& flowStats = eng.flowStats();
  ASSERT_EQ(flowStats.size(), static_cast<std::size_t>(kFlows));
  std::uint64_t windowsAccounted = 0;
  for (const auto& fs : flowStats) {
    EXPECT_EQ(fs.packets, static_cast<std::uint64_t>(kPacketsPerFlow));
    EXPECT_GT(fs.bytes, 0u);
    EXPECT_GE(fs.lastArrivalNs, fs.firstArrivalNs);
    windowsAccounted += fs.windowsEmitted;
  }
  EXPECT_EQ(windowsAccounted, report.results.size());
}

}  // namespace
}  // namespace vcaqoe::ingest
