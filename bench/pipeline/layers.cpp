#include "layers.hpp"

#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "engine/flow_table.hpp"
#include "features/extractors.hpp"
#include "ingest/pcap_replay.hpp"
#include "rtp/rtp.hpp"

namespace vcaqoe::bench::pipeline {

namespace {

constexpr std::size_t kChunkPackets = 1 << 16;

/// Reads the capture in bounded chunks, so a pass can time its layer on a
/// chunk at a time without holding the whole capture in memory.
template <typename Fn>
void forEachChunk(const std::string& path, Fn&& fn) {
  ingest::PcapReplaySource source(path);
  std::vector<ingest::SourcePacket> chunk(kChunkPackets);
  for (;;) {
    std::size_t n = 0;
    while (n < kChunkPackets && source.next(chunk[n])) ++n;
    if (n > 0) fn(std::span<const ingest::SourcePacket>(chunk.data(), n));
    if (n < kChunkPackets) return;
  }
}

/// Keeps a pass's results observable so the timed loop is not elided.
volatile std::uint64_t gSink = 0;

double parsePass(const Workload& w, Tracer& tracer) {
  const auto start = nowNs();
  ingest::PcapReplaySource source(w.capturePath);
  ingest::SourcePacket sp;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  while (source.next(sp)) {
    ++packets;
    bytes += sp.packet.sizeBytes;
  }
  const auto end = nowNs();
  tracer.add(SpanKind::kParsePass, start, end);
  gSink = gSink + bytes;
  return static_cast<double>(end - start) / static_cast<double>(packets);
}

double demuxPass(const Workload& w, Tracer& tracer) {
  engine::FlowTable table;
  engine::FlowDemuxCache cache;
  std::int64_t busyNs = 0;
  std::uint64_t packets = 0;
  std::uint64_t ids = 0;
  forEachChunk(w.capturePath, [&](std::span<const ingest::SourcePacket> chunk) {
    const auto start = nowNs();
    for (const auto& sp : chunk) {
      engine::FlowId id;
      if (const auto cached = cache.lookup(sp.flow)) {
        id = *cached;
      } else {
        id = table.intern(sp.flow);
        cache.remember(sp.flow, id);
      }
      ids += id;
    }
    const auto end = nowNs();
    tracer.add(SpanKind::kDemuxPass, start, end);
    busyNs += end - start;
    packets += chunk.size();
  });
  gSink = gSink + ids;
  return static_cast<double>(busyNs) / static_cast<double>(packets);
}

/// One flow of the estimator pass: its estimator, plus a replica of the
/// window columns the estimator buffers, so `extractFeatures` can be timed
/// on the same windows by itself.
struct FlowState {
  std::optional<core::StreamingEstimator> estimator;
  std::int64_t window = -1;      // window the columns hold
  std::int64_t nextWindow = 0;   // next window to extract
  features::WindowColumns video;
  features::WindowColumns whole;
};

void estimatorPass(const Workload& w, Tracer& tracer, LayerCosts& costs) {
  const auto& streaming = w.streaming;
  const bool rtp = streaming.featureSet == features::FeatureSet::kRtp;
  const core::MediaClassifier classifier(streaming.classifier);
  const features::WindowColumns empty;
  const std::int64_t overhead = clockOverheadNs();

  std::uint64_t windows = 0;
  std::uint64_t extracted = 0;
  std::uint64_t packets = 0;
  std::uint64_t video = 0;
  std::int64_t estimatorNs = 0;
  std::int64_t extractNs = 0;
  double sink = 0.0;

  const auto extract = [&](const features::WindowColumns& whole,
                           const features::WindowColumns& videoColumns) {
    const auto start = nowNs();
    const auto row = features::extractFeatures(
        whole, videoColumns, streaming.windowNs, streaming.featureSet,
        streaming.extraction);
    const auto end = nowNs();
    tracer.add(SpanKind::kExtractPass, start, end);
    extractNs += end - start - overhead;
    ++extracted;
    sink += row.front();
  };
  const auto closeWindowsBefore = [&](FlowState& flow, std::int64_t window) {
    if (flow.window >= 0) {
      extract(flow.whole, flow.video);
      flow.nextWindow = flow.window + 1;
    }
    // The estimator emits every window from 0, packets or not.
    for (; flow.nextWindow < window; ++flow.nextWindow) extract(empty, empty);
  };

  std::unordered_map<netflow::FlowKey, std::size_t, netflow::FlowKeyHash>
      index;
  std::deque<FlowState> flows;
  std::vector<FlowState*> ofPacket(kChunkPackets);
  forEachChunk(w.capturePath, [&](std::span<const ingest::SourcePacket> chunk) {
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const auto [it, fresh] = index.try_emplace(chunk[i].flow, flows.size());
      if (fresh) {
        auto& flow = flows.emplace_back();
        flow.estimator.emplace(
            streaming,
            [&windows, &sink](const core::StreamingOutput& out) {
              ++windows;
              sink += static_cast<double>(out.features.size());
            },
            nullptr);
        flow.whole.captureHeads = true;
      }
      ofPacket[i] = &flows[it->second];
    }

    const auto start = nowNs();
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      ofPacket[i]->estimator->onPacket(chunk[i].packet);
    }
    const auto end = nowNs();
    tracer.add(SpanKind::kEstimatorPass, start, end);
    estimatorNs += end - start;

    // Replay the estimator's window buffering and time extraction alone.
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const auto& packet = chunk[i].packet;
      FlowState& flow = *ofPacket[i];
      const auto window =
          common::windowIndex(packet.arrivalNs, streaming.windowNs);
      if (window != flow.window) {
        closeWindowsBefore(flow, window);
        flow.window = window;
        flow.video.clear();
        flow.whole.clear();
      }
      bool isVideo = false;
      if (rtp) {
        flow.whole.append(packet);
        const auto header = rtp::decode(packet.headBytes());
        isVideo = header && header->payloadType == streaming.extraction.videoPt;
      } else {
        isVideo = classifier.isVideo(packet);
      }
      if (isVideo) {
        flow.video.append(packet);
        ++video;
      }
    }
    packets += chunk.size();
  });

  const auto start = nowNs();
  for (auto& flow : flows) flow.estimator->finish();
  estimatorNs += nowNs() - start;
  for (auto& flow : flows) closeWindowsBefore(flow, flow.window + 1);

  gSink = gSink + static_cast<std::uint64_t>(sink);
  const double n = static_cast<double>(packets);
  costs.estimatorNsPerPkt = static_cast<double>(estimatorNs - extractNs) / n;
  costs.extractNsPerWindow =
      static_cast<double>(extractNs) / static_cast<double>(extracted);
  costs.videoPktFrac = static_cast<double>(video) / n;
  costs.windowsPerKpkt = static_cast<double>(windows) * 1e3 / n;
}

double predictPass(const Workload& w, Tracer& tracer) {
  inference::ModelRegistryOptions registryOptions;
  registryOptions.modelDir = w.modelDir;
  inference::ModelRegistry registry(registryOptions);
  const inference::QoeTarget targets[] = {kTarget};
  const std::size_t batch = std::max<std::size_t>(w.shape.inferenceBatch, 1);

  struct Group {
    std::vector<inference::WindowContext> contexts;
    std::vector<inference::PredictionSet> predictions;
  };
  std::unordered_map<const inference::InferenceBackend*, Group> groups;
  std::int64_t busyNs = 0;
  std::uint64_t windows = 0;
  double sink = 0.0;
  const auto run = [&](const inference::InferenceBackend& backend,
                       Group& group) {
    if (group.contexts.empty()) return;
    group.predictions.assign(group.contexts.size(), {});
    const auto start = nowNs();
    backend.predictWindowBatch(group.contexts, group.predictions);
    const auto end = nowNs();
    tracer.add(SpanKind::kPredictPass, start, end);
    busyNs += end - start;
    windows += group.contexts.size();
    sink += group.predictions.front().get(kTarget).value_or(0.0);
    group.contexts.clear();
  };

  std::unordered_map<std::string,
                     std::shared_ptr<const inference::InferenceBackend>>
      backends;
  for (std::size_t f = 0; f < w.reference.size(); ++f) {
    auto& backend = backends[w.flowVca[f]];
    if (!backend) {
      backend = registry.resolveSet(w.flowVca[f], targets, w.shape.featureSet);
    }
    Group& group = groups[backend.get()];
    for (const auto& out : w.reference[f]) {
      group.contexts.push_back(core::makeWindowContext(out));
      if (group.contexts.size() == batch) run(*backend, group);
    }
  }
  for (const auto& [vca, backend] : backends) {
    run(*backend, groups[backend.get()]);
  }
  gSink = gSink + static_cast<std::uint64_t>(sink);
  return static_cast<double>(busyNs) / static_cast<double>(windows);
}

}  // namespace

LayerCosts measureLayers(const Workload& w, Tracer& tracer) {
  LayerCosts costs;
  costs.parseNsPerPkt = parsePass(w, tracer);
  costs.demuxNsPerPkt = demuxPass(w, tracer);
  estimatorPass(w, tracer, costs);
  costs.predictNsPerWindow = predictPass(w, tracer);
  return costs;
}

}  // namespace vcaqoe::bench::pipeline
