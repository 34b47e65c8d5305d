// Streaming estimator tests: single-pass results must match the batch
// pipeline (the §7 "streaming versions of the methods" requirement), and
// the columnar/SoA per-flow layout must be bit-identical to the node-based
// one it replaced.
#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/evaluation.hpp"
#include "core/lookback_ring.hpp"
#include "core/session.hpp"
#include "core/streaming.hpp"
#include "datasets/generators.hpp"
#include "datasets/vca_profiles.hpp"
#include "engine/synthetic.hpp"
#include "features/windows.hpp"
#include "inference/backends.hpp"
#include "netem/conditions.hpp"
#include "rtp/rtp.hpp"

namespace vcaqoe::core {
namespace {

core::LabeledSession makeSession(const std::string& vca, std::uint64_t seed,
                                 double durationSec = 30.0,
                                 datasets::Deployment deployment =
                                     datasets::Deployment::kLab) {
  const auto profile = datasets::profileByName(vca, deployment);
  netem::NdtTraceSynthesizer synth(seed);
  return datasets::simulateSession(
      profile, synth.synthesize(static_cast<std::size_t>(durationSec) + 1),
      durationSec, seed * 31 + 7, seed);
}

StreamingOptions optionsFor(const std::string& vca) {
  StreamingOptions options;
  options.heuristic = defaultHeuristicParams(vca);
  return options;
}

TEST(Streaming, RequiresCallback) {
  EXPECT_THROW(StreamingEstimator(StreamingOptions{}, nullptr),
               std::invalid_argument);
}

TEST(Streaming, RejectsOutOfOrderPackets) {
  StreamingEstimator streaming(StreamingOptions{},
                               [](const StreamingOutput&) {});
  netflow::Packet p;
  p.arrivalNs = 100;
  p.sizeBytes = 1000;
  streaming.onPacket(p);
  p.arrivalNs = 50;
  EXPECT_THROW(streaming.onPacket(p), std::invalid_argument);
}

TEST(Streaming, EmitsOneOutputPerWindow) {
  const auto session = makeSession("teams", 5);
  std::vector<StreamingOutput> outputs;
  StreamingEstimator streaming(
      optionsFor("teams"),
      [&](const StreamingOutput& out) { outputs.push_back(out); });
  for (const auto& pkt : session.packets) streaming.onPacket(pkt);
  streaming.finish();

  ASSERT_GE(outputs.size(), 29u);
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i].window, static_cast<std::int64_t>(i));
    EXPECT_EQ(outputs[i].features.size(), 14u);
  }
}

class StreamingParity
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(StreamingParity, MatchesBatchPipeline) {
  const auto [vca, seed] = GetParam();
  const auto session = makeSession(vca, static_cast<std::uint64_t>(seed));

  // Batch reference.
  const auto records = buildWindowRecords(session);

  // Streaming pass.
  std::vector<StreamingOutput> outputs;
  StreamingEstimator streaming(
      optionsFor(vca),
      [&](const StreamingOutput& out) { outputs.push_back(out); });
  for (const auto& pkt : session.packets) streaming.onPacket(pkt);
  streaming.finish();

  const std::size_t n = std::min(outputs.size(), records.size());
  ASSERT_GT(n, 20u);
  for (std::size_t w = 0; w < n; ++w) {
    ASSERT_EQ(outputs[w].window, records[w].window);
    // Identical feature vectors.
    ASSERT_EQ(outputs[w].features.size(), records[w].ipudpFeatures.size());
    for (std::size_t f = 0; f < outputs[w].features.size(); ++f) {
      EXPECT_DOUBLE_EQ(outputs[w].features[f], records[w].ipudpFeatures[f])
          << vca << " window " << w << " feature " << f;
    }
    // Identical heuristic estimates.
    EXPECT_DOUBLE_EQ(outputs[w].heuristic.fps, records[w].ipudpHeuristic.fps)
        << vca << " window " << w;
    EXPECT_NEAR(outputs[w].heuristic.bitrateKbps,
                records[w].ipudpHeuristic.bitrateKbps, 1e-6)
        << vca << " window " << w;
    EXPECT_NEAR(outputs[w].heuristic.frameJitterMs,
                records[w].ipudpHeuristic.frameJitterMs, 1e-6)
        << vca << " window " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    VcasAndSeeds, StreamingParity,
    ::testing::Combine(::testing::Values("meet", "teams", "webex"),
                       ::testing::Values(11, 22, 33)));

TEST(Streaming, AttachedBackendPredictsEveryWindow) {
  const auto session = makeSession("teams", 44);
  const auto records = buildWindowRecords(session);
  const auto data = buildMlDataset(records, features::FeatureSet::kIpUdp,
                                   rxstats::Metric::kFrameRate);
  ml::RandomForest forest;
  ml::ForestOptions forestOptions;
  forestOptions.numTrees = 10;
  forest.fit(data, ml::TreeTask::kRegression, forestOptions, 3);

  int withPrediction = 0;
  StreamingEstimator streaming(
      optionsFor("teams"), [&](const StreamingOutput& out) {
        const auto fps = out.predictions.get(inference::QoeTarget::kFrameRate);
        if (fps.has_value()) {
          ++withPrediction;
          EXPECT_GE(*fps, 0.0);
          EXPECT_LE(*fps, 40.0);
        }
        // The forest was trained on frame rate only; nothing else is set.
        EXPECT_FALSE(
            out.predictions.has(inference::QoeTarget::kBitrateKbps));
      });
  streaming.attachBackend(std::make_shared<inference::ForestBackend>(
      std::move(forest), inference::QoeTarget::kFrameRate,
      "forest:teams/frame_rate"));
  for (const auto& pkt : session.packets) streaming.onPacket(pkt);
  streaming.finish();
  EXPECT_GE(withPrediction, 28);
}

TEST(Streaming, HeuristicBackendMirrorsAlgorithmOneEstimates) {
  const auto session = makeSession("meet", 9);
  int windows = 0;
  StreamingEstimator streaming(
      optionsFor("meet"),
      [&](const StreamingOutput& out) {
        ++windows;
        // One code path: the heuristic estimates arrive as typed
        // predictions, bit-identical to the heuristic struct.
        using inference::QoeTarget;
        EXPECT_EQ(out.predictions.get(QoeTarget::kFrameRate),
                  std::optional<double>(out.heuristic.fps));
        EXPECT_EQ(out.predictions.get(QoeTarget::kBitrateKbps),
                  std::optional<double>(out.heuristic.bitrateKbps));
        EXPECT_EQ(out.predictions.get(QoeTarget::kFrameJitterMs),
                  std::optional<double>(out.heuristic.frameJitterMs));
        EXPECT_FALSE(out.predictions.has(QoeTarget::kResolution));
      },
      std::make_shared<inference::HeuristicBackend>());
  for (const auto& pkt : session.packets) streaming.onPacket(pkt);
  streaming.finish();
  EXPECT_GE(windows, 25);
}

TEST(Streaming, AttachAfterFirstEmittedWindowThrows) {
  // The codified mid-stream rule: a backend can only be attached while no
  // window has been emitted; afterwards the swap would race the emission
  // point, so it throws instead.
  std::vector<StreamingOutput> outputs;
  StreamingEstimator streaming(
      StreamingOptions{},
      [&](const StreamingOutput& out) { outputs.push_back(out); });

  netflow::Packet p;
  p.sizeBytes = 1000;
  p.arrivalNs = 100;
  streaming.onPacket(p);
  // No window emitted yet: attaching is still legal and applies to every
  // window (emission is a pure function of the packet stream).
  auto backend = std::make_shared<inference::HeuristicBackend>();
  streaming.attachBackend(backend);
  EXPECT_EQ(streaming.backend(), backend.get());

  p.arrivalNs = 5 * common::kNanosPerSecond;  // forces window 0 out
  streaming.onPacket(p);
  ASSERT_GE(streaming.emittedWindows(), 1);
  EXPECT_THROW(streaming.attachBackend(nullptr), std::logic_error);
  EXPECT_THROW(
      streaming.attachBackend(std::make_shared<inference::HeuristicBackend>()),
      std::logic_error);
  // The early-attached backend kept predicting despite the failed swaps.
  ASSERT_FALSE(outputs.empty());
  EXPECT_TRUE(outputs[0].predictions.has(inference::QoeTarget::kFrameRate));
}

TEST(Streaming, EmptyStreamFinishIsNoop) {
  int calls = 0;
  StreamingEstimator streaming(
      StreamingOptions{}, [&](const StreamingOutput&) { ++calls; });
  streaming.finish();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(streaming.emittedWindows(), 0);
}

// ------------------------------------------------------------ lookback ring

TEST(LookbackRing, ZeroCapacityThrows) {
  EXPECT_THROW(LookbackRing(0), std::invalid_argument);
}

TEST(LookbackRing, MostRecentMatchWins) {
  LookbackRing ring(4);
  ring.push(100, 7);
  ring.push(200, 8);
  ring.push(102, 9);
  EXPECT_EQ(ring.size(), 3u);
  // 101 is within delta 2 of both 100 (id 7) and 102 (id 9); Algorithm 1
  // takes the most recent.
  EXPECT_EQ(ring.matchMostRecent(101, 2), 9);
  EXPECT_EQ(ring.matchMostRecent(199, 2), 8);
  EXPECT_EQ(ring.matchMostRecent(500, 2), -1);
  // Exact boundary: diff == deltaMax matches.
  EXPECT_EQ(ring.matchMostRecent(98, 2), 7);
  EXPECT_EQ(ring.matchMostRecent(97, 2), -1);
}

TEST(LookbackRing, OldEntriesFallOffAfterWrap) {
  LookbackRing ring(2);
  ring.push(100, 0);
  ring.push(200, 1);
  ring.push(300, 2);  // evicts (100, 0)
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.matchMostRecent(100, 0), -1);
  EXPECT_EQ(ring.matchMostRecent(200, 0), 1);
  EXPECT_EQ(ring.matchMostRecent(300, 0), 2);
  // Most-recent-first across the wrap boundary: a fresh 200 beats id 1.
  ring.push(200, 3);
  EXPECT_EQ(ring.matchMostRecent(200, 0), 3);
}

TEST(LookbackRing, ClearForgetsEntriesButKeepsCapacity) {
  LookbackRing ring(3);
  ring.push(100, 1);
  ring.push(200, 2);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.matchMostRecent(100, 2), -1);
  // Reusable after clear: pushes and wrap behave like a fresh ring.
  for (std::uint64_t id = 7; id < 11; ++id) {
    ring.push(300 + static_cast<std::uint32_t>(id), id);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.matchMostRecent(310, 0), 10);
  EXPECT_EQ(ring.matchMostRecent(307, 0), -1);  // fell off
}

TEST(LookbackRing, CapacityEdgesMatchADequeModelAcrossTheVectorWidths) {
  // Regression for the forward-span rewrite of the old backward `i-- > lo`
  // scan: capacities straddling the 8/16-wide SIMD sweep (and the wrap
  // boundary inside each) must agree with a naive newest-first model at
  // every push, including the push that lands exactly on the capacity edge.
  for (const std::size_t capacity : {1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u}) {
    LookbackRing ring(capacity);
    std::vector<std::pair<std::uint32_t, std::uint64_t>> model;  // oldest first
    std::uint32_t seed = 12345;
    for (std::uint64_t id = 0; id < 2 * capacity + 3; ++id) {
      seed = seed * 1664525 + 1013904223;  // deterministic LCG sizes
      const std::uint32_t size = 900 + seed % 300;
      const std::uint32_t probe = 900 + (seed >> 16) % 300;
      std::int64_t expected = -1;
      for (const auto& [s, fid] : model) {  // later entries overwrite: newest wins
        const std::uint32_t diff = s > probe ? s - probe : probe - s;
        if (diff <= 30) expected = static_cast<std::int64_t>(fid);
      }
      EXPECT_EQ(ring.matchMostRecent(probe, 30), expected)
          << "capacity=" << capacity << " push=" << id;
      ring.push(size, id);
      model.emplace_back(size, id);
      if (model.size() > capacity) model.erase(model.begin());
    }
    EXPECT_EQ(ring.size(), capacity);
  }
}

TEST(LookbackRing, CapacityOneSeesOnlyThePreviousPacket) {
  LookbackRing ring(1);
  ring.push(1000, 4);
  EXPECT_EQ(ring.matchMostRecent(1000, 2), 4);
  ring.push(1200, 5);
  EXPECT_EQ(ring.matchMostRecent(1000, 2), -1);
  EXPECT_EQ(ring.matchMostRecent(1201, 2), 5);
}

TEST(HeuristicParams, EffectiveLookbackClampsToOne) {
  HeuristicParams params;
  params.lookback = 0;
  EXPECT_EQ(params.effectiveLookback(), 1);
  params.lookback = -5;
  EXPECT_EQ(params.effectiveLookback(), 1);
  params.lookback = 3;
  EXPECT_EQ(params.effectiveLookback(), 3);
}

TEST(Streaming, RejectsNonPositiveWindowAtConstruction) {
  StreamingOptions bad;
  bad.windowNs = 0;
  EXPECT_THROW(StreamingEstimator(bad, [](const StreamingOutput&) {}),
               std::invalid_argument);
  bad.windowNs = -common::kNanosPerSecond;
  EXPECT_THROW(StreamingEstimator(bad, [](const StreamingOutput&) {}),
               std::invalid_argument);
}

// --------------------------------------- columnar-layout equivalence (PR 5)

/// The pre-refactor streaming estimator, verbatim: deque lookback,
/// map/multimap frame bookkeeping, full-Packet window buffers, AoS feature
/// extraction. Kept here as the bit-exactness reference for the columnar
/// layout (the same pattern bench_engine_throughput uses for the node-tree
/// forest baseline).
class LegacyStreamingEstimator {
 public:
  using Callback = std::function<void(const StreamingOutput&)>;

  LegacyStreamingEstimator(StreamingOptions options, Callback callback)
      : options_(std::move(options)),
        callback_(std::move(callback)),
        classifier_(options_.classifier) {}

  void onPacket(const netflow::Packet& packet) {
    lastArrival_ = packet.arrivalNs;
    const auto window =
        common::windowIndex(packet.arrivalNs, options_.windowNs);
    if (window >= nextWindowToEmit_) windowPackets_[window].push_back(packet);
    if (classifier_.isVideo(packet)) {
      ingestVideoPacket(packet);
      closeStaleFrames();
    }
    emitReadyWindows(packet.arrivalNs);
  }

  void finish() {
    for (auto& [id, open] : openFrames_) {
      closedFrames_.emplace(open.frame.endNs, open.frame);
    }
    openFrames_.clear();
    emitReadyWindows(std::nullopt);
  }

 private:
  struct OpenFrame {
    HeuristicFrame frame;
    std::uint64_t lastTouchedPacket = 0;
  };

  void ingestVideoPacket(const netflow::Packet& packet) {
    const auto size = static_cast<std::int64_t>(packet.sizeBytes);
    std::int64_t matched = -1;
    for (const auto& [prevSize, frameId] : recent_) {
      const auto diff = std::llabs(size - static_cast<std::int64_t>(prevSize));
      if (diff <= static_cast<std::int64_t>(options_.heuristic.deltaMaxBytes)) {
        matched = static_cast<std::int64_t>(frameId);
        break;
      }
    }
    std::uint64_t frameId;
    if (matched < 0) {
      frameId = nextFrameId_++;
      OpenFrame open;
      open.frame.firstNs = packet.arrivalNs;
      open.frame.endNs = packet.arrivalNs;
      open.frame.bytes = packet.sizeBytes;
      open.frame.packetCount = 1;
      open.lastTouchedPacket = videoPacketIndex_;
      openFrames_.emplace(frameId, open);
    } else {
      frameId = static_cast<std::uint64_t>(matched);
      auto it = openFrames_.find(frameId);
      if (it != openFrames_.end()) {
        it->second.frame.endNs =
            std::max(it->second.frame.endNs, packet.arrivalNs);
        it->second.frame.firstNs =
            std::min(it->second.frame.firstNs, packet.arrivalNs);
        it->second.frame.bytes += packet.sizeBytes;
        ++it->second.frame.packetCount;
        it->second.lastTouchedPacket = videoPacketIndex_;
      }
    }
    recent_.emplace_front(packet.sizeBytes, frameId);
    const auto lookback =
        static_cast<std::size_t>(std::max(options_.heuristic.lookback, 1));
    while (recent_.size() > lookback) recent_.pop_back();
    ++videoPacketIndex_;
  }

  void closeStaleFrames() {
    const auto lookback =
        static_cast<std::uint64_t>(std::max(options_.heuristic.lookback, 1));
    for (auto it = openFrames_.begin(); it != openFrames_.end();) {
      if (videoPacketIndex_ - it->second.lastTouchedPacket > lookback) {
        closedFrames_.emplace(it->second.frame.endNs, it->second.frame);
        it = openFrames_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void emitReadyWindows(std::optional<common::TimeNs> now) {
    std::int64_t lastWindow = nextWindowToEmit_ - 1;
    if (!windowPackets_.empty()) {
      lastWindow = std::max(lastWindow, windowPackets_.rbegin()->first);
    }
    if (!closedFrames_.empty()) {
      lastWindow = std::max(lastWindow,
                            common::windowIndex(closedFrames_.rbegin()->first,
                                                options_.windowNs));
    }
    while (nextWindowToEmit_ <= lastWindow) {
      const std::int64_t w = nextWindowToEmit_;
      const common::TimeNs windowEnd = (w + 1) * options_.windowNs;
      if (now.has_value()) {
        if (*now < windowEnd) break;
        bool blocked = false;
        for (const auto& [id, open] : openFrames_) {
          if (open.frame.endNs < windowEnd) {
            blocked = true;
            break;
          }
        }
        if (blocked) break;
      }
      StreamingOutput out;
      out.window = w;
      const double seconds = common::nsToSeconds(options_.windowNs);
      std::vector<double> gaps;
      auto it = closedFrames_.begin();
      while (it != closedFrames_.end() && it->first < windowEnd) {
        const HeuristicFrame& frame = it->second;
        ++out.heuristic.frameCount;
        out.heuristic.bitrateKbps +=
            (static_cast<double>(frame.bytes) -
             12.0 * static_cast<double>(frame.packetCount)) *
            8.0 / seconds / 1e3;
        if (lastEmittedFrameEnd_ >= 0) {
          gaps.push_back(
              common::nsToMillis(frame.endNs - lastEmittedFrameEnd_));
        }
        lastEmittedFrameEnd_ = frame.endNs;
        it = closedFrames_.erase(it);
      }
      out.heuristic.window = w;
      out.heuristic.fps =
          static_cast<double>(out.heuristic.frameCount) / seconds;
      out.heuristic.frameJitterMs =
          gaps.size() >= 2 ? common::sampleStdev(gaps) : 0.0;

      features::Window window;
      window.index = w;
      window.startNs = w * options_.windowNs;
      window.durationNs = options_.windowNs;
      const auto bufferIt = windowPackets_.find(w);
      static const std::vector<netflow::Packet> kEmpty;
      window.packets =
          bufferIt != windowPackets_.end() ? bufferIt->second : kEmpty;
      const auto video = classifier_.filterVideo(window.packets);
      out.features = features::extractFeatures(
          window, video, features::FeatureSet::kIpUdp, options_.extraction);
      callback_(out);
      if (bufferIt != windowPackets_.end()) windowPackets_.erase(bufferIt);
      ++nextWindowToEmit_;
    }
  }

  StreamingOptions options_;
  Callback callback_;
  MediaClassifier classifier_;
  common::TimeNs lastArrival_ = -1;
  std::deque<std::pair<std::uint32_t, std::uint64_t>> recent_;
  std::map<std::uint64_t, OpenFrame> openFrames_;
  std::uint64_t nextFrameId_ = 0;
  std::uint64_t videoPacketIndex_ = 0;
  std::multimap<common::TimeNs, HeuristicFrame> closedFrames_;
  common::TimeNs lastEmittedFrameEnd_ = -1;
  std::map<std::int64_t, std::vector<netflow::Packet>> windowPackets_;
  std::int64_t nextWindowToEmit_ = 0;
};

/// Random VCA-shaped stream: frames of similar-sized packets, sub-V_min
/// audio sprinkled in, silences producing empty windows, single-packet
/// frames, and (when `rtx`) late duplicates of earlier frame sizes that
/// exercise deep lookback matches. Arrivals strictly increase.
netflow::PacketTrace randomStream(common::Rng& rng, bool rtx, int frames) {
  netflow::PacketTrace trace;
  common::TimeNs t = rng.uniformInt(0, 5'000'000);
  std::vector<std::uint32_t> frameSizes;
  for (int f = 0; f < frames; ++f) {
    if (rng.bernoulli(0.05)) {
      // Stalled call: one to four whole windows with no packet at all.
      t += rng.uniformInt(1, 4) * common::kNanosPerSecond;
    }
    const auto base = static_cast<std::uint32_t>(rng.uniformInt(500, 1400));
    const int packets = static_cast<int>(rng.uniformInt(1, 6));
    for (int p = 0; p < packets; ++p) {
      t += rng.uniformInt(50'000, 2'000'000);
      netflow::Packet pkt;
      pkt.arrivalNs = t;
      pkt.sizeBytes = base + static_cast<std::uint32_t>(rng.uniformInt(0, 2));
      trace.push_back(pkt);
    }
    frameSizes.push_back(base);
    if (rng.bernoulli(0.3)) {
      t += rng.uniformInt(50'000, 1'000'000);
      netflow::Packet pkt;
      pkt.arrivalNs = t;
      pkt.sizeBytes = static_cast<std::uint32_t>(rng.uniformInt(80, 380));
      trace.push_back(pkt);
    }
    if (rtx && frameSizes.size() > 4 && rng.bernoulli(0.25)) {
      // Retransmission-shaped: an old frame's size shows up again late.
      t += rng.uniformInt(100'000, 3'000'000);
      netflow::Packet pkt;
      pkt.arrivalNs = t;
      pkt.sizeBytes =
          frameSizes[frameSizes.size() - 2 -
                     static_cast<std::size_t>(rng.uniformInt(0, 2))];
      trace.push_back(pkt);
    }
    t += rng.uniformInt(5'000'000, 40'000'000);
  }
  return trace;
}

std::vector<StreamingOutput> runStreaming(const netflow::PacketTrace& trace,
                                          const StreamingOptions& options) {
  std::vector<StreamingOutput> outputs;
  StreamingEstimator streaming(
      options, [&](const StreamingOutput& out) { outputs.push_back(out); });
  for (const auto& pkt : trace) streaming.onPacket(pkt);
  streaming.finish();
  return outputs;
}

/// The tentpole acceptance property: across lookbacks, window sizes, and
/// RTX-like traffic, the columnar estimator is bit-identical to the
/// node-based pre-refactor implementation and matches the seed batch path.
TEST(StreamingColumnarEquivalence, RandomizedAcrossLookbacksAndWindows) {
  for (const int lookback : {1, 4, 32}) {
    for (const common::DurationNs windowNs :
         {common::kNanosPerSecond / 2, common::kNanosPerSecond,
          2 * common::kNanosPerSecond}) {
      for (const bool rtx : {false, true}) {
        SCOPED_TRACE("lookback=" + std::to_string(lookback) +
                     " windowNs=" + std::to_string(windowNs) +
                     " rtx=" + std::to_string(rtx));
        common::Rng rng(0x5EEDu ^
                        (static_cast<std::uint64_t>(lookback) * 1000003u) ^
                        (static_cast<std::uint64_t>(windowNs) >> 8) ^
                        (rtx ? 1u : 0u));
        const auto trace = randomStream(rng, rtx, 120);
        ASSERT_FALSE(trace.empty());

        StreamingOptions options;
        options.windowNs = windowNs;
        options.heuristic.lookback = lookback;

        const auto outputs = runStreaming(trace, options);

        // (a) Bit-identical to the pre-refactor node-based layout.
        std::vector<StreamingOutput> legacy;
        LegacyStreamingEstimator legacyEstimator(
            options,
            [&](const StreamingOutput& out) { legacy.push_back(out); });
        for (const auto& pkt : trace) legacyEstimator.onPacket(pkt);
        legacyEstimator.finish();

        ASSERT_EQ(outputs.size(), legacy.size());
        for (std::size_t w = 0; w < outputs.size(); ++w) {
          EXPECT_EQ(outputs[w].window, legacy[w].window);
          EXPECT_EQ(outputs[w].features, legacy[w].features);
          EXPECT_EQ(outputs[w].heuristic.fps, legacy[w].heuristic.fps);
          EXPECT_EQ(outputs[w].heuristic.bitrateKbps,
                    legacy[w].heuristic.bitrateKbps);
          EXPECT_EQ(outputs[w].heuristic.frameJitterMs,
                    legacy[w].heuristic.frameJitterMs);
          EXPECT_EQ(outputs[w].heuristic.frameCount,
                    legacy[w].heuristic.frameCount);
        }

        // (b) Matches the seed batch path (heuristic + features).
        const MediaClassifier classifier(options.classifier);
        const auto video = classifier.filterVideo(trace);
        const auto assembly = assembleFramesIpUdp(video, options.heuristic);
        const auto timeline =
            qoeFromFrames(assembly.frames, windowNs,
                          static_cast<std::int64_t>(outputs.size()));
        const auto windows = features::sliceWindows(trace, windowNs);
        ASSERT_EQ(windows.size(), outputs.size());
        for (std::size_t w = 0; w < outputs.size(); ++w) {
          const auto windowVideo = classifier.filterVideo(windows[w].packets);
          const auto batchFeatures = features::extractFeatures(
              windows[w], windowVideo, features::FeatureSet::kIpUdp,
              options.extraction);
          EXPECT_EQ(outputs[w].features, batchFeatures) << "window " << w;
          EXPECT_EQ(outputs[w].heuristic.frameCount, timeline[w].frameCount)
              << "window " << w;
          EXPECT_DOUBLE_EQ(outputs[w].heuristic.fps, timeline[w].fps)
              << "window " << w;
          EXPECT_NEAR(outputs[w].heuristic.bitrateKbps,
                      timeline[w].bitrateKbps, 1e-6)
              << "window " << w;
          EXPECT_NEAR(outputs[w].heuristic.frameJitterMs,
                      timeline[w].frameJitterMs, 1e-6)
              << "window " << w;
        }
      }
    }
  }
}

TEST(StreamingColumnarEquivalence, SinglePacketStream) {
  StreamingOptions options;
  netflow::Packet pkt;
  pkt.arrivalNs = 250'000'000;
  pkt.sizeBytes = 1100;
  const netflow::PacketTrace trace = {pkt};
  const auto outputs = runStreaming(trace, options);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0].window, 0);
  EXPECT_EQ(outputs[0].heuristic.frameCount, 1u);
  EXPECT_DOUBLE_EQ(outputs[0].heuristic.fps, 1.0);
  // Features equal the batch extraction of the same single-packet window.
  const auto windows = features::sliceWindows(trace, options.windowNs);
  ASSERT_EQ(windows.size(), 1u);
  const MediaClassifier classifier(options.classifier);
  const auto video = classifier.filterVideo(windows[0].packets);
  EXPECT_EQ(outputs[0].features,
            features::extractFeatures(windows[0], video,
                                      features::FeatureSet::kIpUdp,
                                      options.extraction));
}

TEST(StreamingColumnarEquivalence, TrailingAudioOnlyWindowsStillEmit) {
  // Sub-V_min packets carry no features but still define prediction
  // intervals: the trailing windows they occupy must emit (empty-video),
  // exactly as the packet-buffering layout did.
  StreamingOptions options;
  netflow::PacketTrace trace;
  netflow::Packet video;
  video.arrivalNs = 100'000'000;
  video.sizeBytes = 1200;
  trace.push_back(video);
  netflow::Packet audio;
  audio.arrivalNs = 5 * common::kNanosPerSecond + 1;
  audio.sizeBytes = 120;  // below V_min
  trace.push_back(audio);
  const auto outputs = runStreaming(trace, options);
  ASSERT_EQ(outputs.size(), 6u);  // windows 0..5
  for (std::size_t w = 1; w < outputs.size(); ++w) {
    EXPECT_EQ(outputs[w].heuristic.frameCount, 0u);
  }
}

// ------------------------------------------------ kRtp feature set (PR 7)

StreamingOptions rtpOptionsFor(const simcall::VcaProfile& profile) {
  StreamingOptions options;
  options.featureSet = features::FeatureSet::kRtp;
  options.heuristic = defaultHeuristicParams(profile.name);
  options.extraction.videoPt = profile.videoPt;
  options.extraction.rtxPt = profile.rtxPt;
  return options;
}

/// Payload-type video filter, exactly the offline session pipeline's rule.
netflow::PacketTrace filterVideoByPt(std::span<const netflow::Packet> packets,
                                     std::uint8_t videoPt) {
  netflow::PacketTrace video;
  for (const auto& pkt : packets) {
    const auto header = rtp::decode(pkt.headBytes());
    if (header && header->payloadType == videoPt) video.push_back(pkt);
  }
  return video;
}

/// Streaming kRtp vs the offline session pipeline: features must be
/// bit-exact against `buildWindowRecords`' rtpFeatures, and the Algorithm-1
/// heuristic — unchanged machinery, PT-based classification — must match
/// the batch assembly over the PT-filtered trace. The deployment axis
/// covers RTX on (lab profiles carry a distinct rtxPt) and RTX off (the
/// real-world Webex profile has rtxPt == 0).
class StreamingRtpParity
    : public ::testing::TestWithParam<
          std::tuple<std::string, int, datasets::Deployment>> {};

TEST_P(StreamingRtpParity, MatchesOfflineSessionPipeline) {
  const auto [vca, seed, deployment] = GetParam();
  const auto session =
      makeSession(vca, static_cast<std::uint64_t>(seed), 30.0, deployment);

  // The RTX-off axis is real: real-world Webex advertises no RTX stream.
  if (vca == "webex" && deployment == datasets::Deployment::kRealWorld) {
    ASSERT_EQ(session.profile.rtxPt, 0);
  }

  const auto records = buildWindowRecords(session);
  const auto options = rtpOptionsFor(session.profile);
  const auto outputs = runStreaming(session.packets, options);

  const std::size_t n = std::min(outputs.size(), records.size());
  ASSERT_GT(n, 20u);

  // Heuristic reference: Algorithm 1 over the PT-classified video stream.
  const auto video = filterVideoByPt(session.packets, session.profile.videoPt);
  ASSERT_FALSE(video.empty());
  const auto assembly = assembleFramesIpUdp(video, options.heuristic);
  const auto timeline =
      qoeFromFrames(assembly.frames, options.windowNs,
                    static_cast<std::int64_t>(outputs.size()));

  for (std::size_t w = 0; w < n; ++w) {
    ASSERT_EQ(outputs[w].window, records[w].window);
    ASSERT_EQ(outputs[w].features.size(),
              features::featureCount(features::FeatureSet::kRtp));
    EXPECT_EQ(outputs[w].features, records[w].rtpFeatures)
        << vca << " window " << w;
    EXPECT_EQ(outputs[w].heuristic.frameCount, timeline[w].frameCount)
        << vca << " window " << w;
    EXPECT_DOUBLE_EQ(outputs[w].heuristic.fps, timeline[w].fps)
        << vca << " window " << w;
    EXPECT_NEAR(outputs[w].heuristic.bitrateKbps, timeline[w].bitrateKbps,
                1e-6)
        << vca << " window " << w;
    EXPECT_NEAR(outputs[w].heuristic.frameJitterMs, timeline[w].frameJitterMs,
                1e-6)
        << vca << " window " << w;
  }
}

INSTANTIATE_TEST_SUITE_P(
    VcasSeedsDeployments, StreamingRtpParity,
    ::testing::Combine(::testing::Values("meet", "teams", "webex"),
                       ::testing::Values(17, 28),
                       ::testing::Values(datasets::Deployment::kLab,
                                         datasets::Deployment::kRealWorld)));

/// Sequence-number wraparound: a video stream whose 16-bit sequence counter
/// wraps mid-trace must produce windows bit-exact with the batch extraction
/// of the same trace (the RTP loss features straddle the wrap).
TEST(StreamingRtpParity, SequenceWraparoundWindowsBitExact) {
  const auto trace = engine::syntheticRtpFlowTrace(
      91, 600, /*startNs=*/0, /*videoSeqStart=*/65500);

  // The wrap actually happened: some video packet carries a low sequence
  // number again.
  bool wrapped = false;
  for (const auto& pkt : trace) {
    const auto header = rtp::decode(pkt.headBytes());
    if (header && header->payloadType == engine::kSyntheticVideoPt &&
        header->sequenceNumber < 100) {
      wrapped = true;
      break;
    }
  }
  ASSERT_TRUE(wrapped);

  StreamingOptions options;
  options.featureSet = features::FeatureSet::kRtp;
  options.extraction.videoPt = engine::kSyntheticVideoPt;
  options.extraction.rtxPt = engine::kSyntheticRtxPt;
  const auto outputs = runStreaming(trace, options);
  ASSERT_FALSE(outputs.empty());

  const auto windows = features::sliceWindows(trace, options.windowNs);
  ASSERT_EQ(windows.size(), outputs.size());
  for (std::size_t w = 0; w < outputs.size(); ++w) {
    const auto video =
        filterVideoByPt(windows[w].packets, engine::kSyntheticVideoPt);
    const auto batch =
        features::extractFeatures(windows[w], video, features::FeatureSet::kRtp,
                                  options.extraction);
    EXPECT_EQ(outputs[w].features, batch) << "window " << w;
  }
}

/// RTX on/off over the synthetic RTP source: declaring the RTX payload type
/// vs declaring none (rtxPt = 0) must change the RTX-aware features and
/// both must stay bit-exact with their batch extractions.
TEST(StreamingRtpParity, RtxDeclarationTogglesRtxFeatures) {
  const auto trace = engine::syntheticRtpFlowTrace(12, 800, /*startNs=*/0);

  StreamingOptions rtxOn;
  rtxOn.featureSet = features::FeatureSet::kRtp;
  rtxOn.extraction.videoPt = engine::kSyntheticVideoPt;
  rtxOn.extraction.rtxPt = engine::kSyntheticRtxPt;
  StreamingOptions rtxOff = rtxOn;
  rtxOff.extraction.rtxPt = 0;

  const auto onOutputs = runStreaming(trace, rtxOn);
  const auto offOutputs = runStreaming(trace, rtxOff);
  ASSERT_EQ(onOutputs.size(), offOutputs.size());
  ASSERT_FALSE(onOutputs.empty());

  const auto windows = features::sliceWindows(trace, rtxOn.windowNs);
  ASSERT_EQ(windows.size(), onOutputs.size());
  bool differed = false;
  for (std::size_t w = 0; w < onOutputs.size(); ++w) {
    const auto video =
        filterVideoByPt(windows[w].packets, engine::kSyntheticVideoPt);
    EXPECT_EQ(onOutputs[w].features,
              features::extractFeatures(windows[w], video,
                                        features::FeatureSet::kRtp,
                                        rtxOn.extraction))
        << "window " << w;
    EXPECT_EQ(offOutputs[w].features,
              features::extractFeatures(windows[w], video,
                                        features::FeatureSet::kRtp,
                                        rtxOff.extraction))
        << "window " << w;
    differed = differed || onOutputs[w].features != offOutputs[w].features;
  }
  // The synthetic source does emit RTX packets, so the declaration matters.
  EXPECT_TRUE(differed);
}

TEST(Streaming, LargerWindowSizes) {
  const auto session = makeSession("webex", 55);
  StreamingOptions options = optionsFor("webex");
  options.windowNs = 2 * common::kNanosPerSecond;
  std::vector<StreamingOutput> outputs;
  StreamingEstimator streaming(
      options, [&](const StreamingOutput& out) { outputs.push_back(out); });
  for (const auto& pkt : session.packets) streaming.onPacket(pkt);
  streaming.finish();
  ASSERT_GE(outputs.size(), 14u);
  // fps is per second even with W=2.
  double meanFps = 0.0;
  for (const auto& out : outputs) meanFps += out.heuristic.fps;
  meanFps /= static_cast<double>(outputs.size());
  EXPECT_GT(meanFps, 15.0);
  EXPECT_LT(meanFps, 40.0);
}

}  // namespace
}  // namespace vcaqoe::core
