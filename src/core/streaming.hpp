#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/frame_heuristic.hpp"
#include "core/heuristic_estimators.hpp"
#include "core/lookback_ring.hpp"
#include "core/media_classifier.hpp"
#include "features/columns.hpp"
#include "features/extractors.hpp"
#include "features/feature_vector.hpp"
#include "inference/backend.hpp"
#include "netflow/packet.hpp"

/// Streaming (single-pass, bounded-memory) per-window estimation.
///
/// §7 of the paper flags deployment at network scale as future work and
/// calls for "streaming versions of the methods". This module processes
/// packets one at a time in arrival order and emits one result per
/// completed prediction window:
///  * the ML feature vector of the configured `FeatureSet` — 14 IP/UDP
///    features or the 24-wide RTP row,
///  * the Heuristic estimates (Algorithm 1 run incrementally), and
///  * typed model predictions, when an inference backend is attached.
///
/// Memory is O(packets per window + Nmax); no trace is ever materialized.
/// Windows are finalized one window behind the stream head so that frames
/// whose packets straddle a boundary are attributed to the window of their
/// true end time, matching the batch estimator exactly (tested property).
///
/// Feature-set dispatch (`StreamingOptions::featureSet`):
///  * kIpUdp (default): video is classified by the size threshold
///    (`MediaClassifier::isVideo`) and only video arrival/size columns are
///    buffered.
///  * kRtp: video is classified by RTP payload type
///    (`ExtractionParams::videoPt`, matching the offline session path), a
///    second head-capturing `WindowColumns` record buffers *every* packet of
///    the window (RTP features read the whole window's headers), and the
///    emitted features come from `features::rtpFeatures` columnar.
///
/// Per-flow state is columnar and flat — no node-based container is touched
/// on the packet path:
///  * the Algorithm-1 lookback is a fixed-capacity `LookbackRing` (parallel
///    size[]/frameId[] arrays; the size-match scan sweeps contiguous
///    uint32_t),
///  * open frames live in a small id-sorted vector (append-only ids keep it
///    sorted; at most Nmax+1 frames are ever open),
///  * closed frames pending window attribution sit in an endNs-sorted flat
///    vector consumed from the front,
///  * per-window packets are buffered as `features::WindowColumns` records
///    recycled through a pool, so steady state does not allocate.
namespace vcaqoe::core {

struct StreamingOptions {
  common::DurationNs windowNs = common::kNanosPerSecond;
  /// Which feature family the emitted rows carry. kRtp requires
  /// `extraction.videoPt` to be set (and `rtxPt` when the VCA retransmits).
  features::FeatureSet featureSet = features::FeatureSet::kIpUdp;
  MediaClassifierOptions classifier;
  HeuristicParams heuristic;
  features::ExtractionParams extraction;
};

/// One completed window.
struct StreamingOutput {
  std::int64_t window = 0;
  std::vector<double> features;  // featureCount(options.featureSet) wide
  EstimatedQoe heuristic;
  /// Typed predictions of the attached backend; empty when none attached
  /// (or when the backend declined, e.g. the registry fallback).
  inference::PredictionSet predictions;
};

/// Builds the inference input for one completed window — the single source
/// of truth for `WindowContext` construction. The estimator's per-window
/// path and the engine's cross-flow `InferenceBatcher` both go through it,
/// so batched and unbatched predictions see identical inputs by
/// construction. The context borrows `out.features`; `out` must outlive it.
inline inference::WindowContext makeWindowContext(const StreamingOutput& out) {
  inference::WindowContext context;
  context.features = out.features;
  context.hasHeuristic = true;
  context.heuristicFps = out.heuristic.fps;
  context.heuristicBitrateKbps = out.heuristic.bitrateKbps;
  context.heuristicFrameJitterMs = out.heuristic.frameJitterMs;
  return context;
}

class StreamingEstimator {
 public:
  using Callback = std::function<void(const StreamingOutput&)>;
  using BackendPtr = std::shared_ptr<const inference::InferenceBackend>;

  /// `backend` may be null (no inference); it is shared and immutable, so
  /// any number of estimators across any number of threads may hold it.
  /// Throws std::invalid_argument on a null callback or a non-positive
  /// `windowNs` — a bad window size must fail loudly at construction, not
  /// misbucket every packet.
  StreamingEstimator(StreamingOptions options, Callback callback,
                     BackendPtr backend = nullptr);

  /// Attaches the inference backend whose input is the completed window;
  /// every window emitted afterwards carries its `predictions`.
  ///
  /// Mid-stream rule (deterministic by construction): attaching is allowed
  /// only while no window has been emitted yet — it then applies to every
  /// emitted window, a pure function of the packet stream. Attaching after
  /// the first emission throws std::logic_error; resolve the backend at
  /// flow admission (the engine does) instead of swapping it mid-flight.
  void attachBackend(BackendPtr backend);

  /// The attached backend; null when none.
  const inference::InferenceBackend* backend() const { return backend_.get(); }

  /// The feature set this estimator emits.
  features::FeatureSet featureSet() const { return options_.featureSet; }

  /// Feeds one packet; packets must arrive in non-decreasing arrival order
  /// (out-of-order feeding throws std::invalid_argument).
  void onPacket(const netflow::Packet& packet);

  /// Flushes all remaining windows (end of capture).
  void finish();

  /// Windows emitted so far.
  std::int64_t emittedWindows() const { return nextWindowToEmit_; }

 private:
  struct OpenFrame {
    std::uint64_t id = 0;
    HeuristicFrame frame;
    std::uint64_t lastTouchedPacket = 0;  // global video-packet index
  };

  /// kIpUdp: size-threshold classifier; kRtp: RTP header decodes and its
  /// payload type equals `extraction.videoPt` (the offline session rule).
  bool isVideoPacket(const netflow::Packet& packet) const;
  void ingestVideoPacket(const netflow::Packet& packet);
  void closeStaleFrames();
  /// Inserts into `closedFrames_` keeping (endNs, close order) — the flat
  /// equivalent of the old multimap emplace.
  void insertClosedFrame(const HeuristicFrame& frame);
  /// Appends one packet to the columnar buffer of `window`. kIpUdp callers
  /// only pass video packets; kRtp passes every packet (whole-window
  /// columns) with `video` flagging membership in the video columns too.
  void bufferPacket(std::int64_t window, const netflow::Packet& packet,
                    bool video);
  /// Emits every window whose content can no longer change given the
  /// current stream head (`now`); pass nullopt to flush everything.
  void emitReadyWindows(std::optional<common::TimeNs> now);

  StreamingOptions options_;
  Callback callback_;
  BackendPtr backend_;
  MediaClassifier classifier_;
  bool rtpMode_ = false;

  common::TimeNs lastArrival_ = -1;

  // Incremental Algorithm-1 state (SoA ring + flat id-sorted open set).
  LookbackRing recent_;
  std::vector<OpenFrame> openFrames_;
  std::uint64_t nextFrameId_ = 0;
  std::uint64_t videoPacketIndex_ = 0;

  // Closed frames not yet attributed to an emitted window, sorted by
  // (endNs, close order); fully pending (consumed prefixes are compacted
  // away before emitReadyWindows returns).
  std::vector<HeuristicFrame> closedFrames_;
  common::TimeNs lastEmittedFrameEnd_ = -1;

  // Columnar per-window buffers: parallel (window index, video columns)
  // queues appended in non-decreasing window order, consumed from
  // `bufferedHead_`. In kRtp mode a third parallel queue holds
  // head-capturing whole-window columns (every packet, not just video).
  // Drained records recycle through the pools.
  std::vector<std::int64_t> bufferedWindows_;
  std::vector<features::WindowColumns> bufferedColumns_;
  std::vector<features::WindowColumns> bufferedWholeColumns_;  // kRtp only
  std::size_t bufferedHead_ = 0;
  std::vector<features::WindowColumns> columnsPool_;
  std::vector<features::WindowColumns> wholeColumnsPool_;

  /// Highest window index any packet (video or not) has been seen in —
  /// empty trailing windows are still prediction intervals and must emit.
  std::int64_t lastSeenWindow_ = -1;

  std::int64_t nextWindowToEmit_ = 0;
};

}  // namespace vcaqoe::core
