#include "core/streaming.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/stats.hpp"
#include "rtp/rtp.hpp"

namespace vcaqoe::core {

StreamingEstimator::StreamingEstimator(StreamingOptions options,
                                       Callback callback, BackendPtr backend)
    : options_(std::move(options)),
      callback_(std::move(callback)),
      backend_(std::move(backend)),
      classifier_(options_.classifier),
      rtpMode_(options_.featureSet == features::FeatureSet::kRtp),
      recent_(static_cast<std::size_t>(options_.heuristic.effectiveLookback())) {
  if (!callback_) {
    throw std::invalid_argument("StreamingEstimator: null callback");
  }
  if (options_.windowNs <= 0) {
    throw std::invalid_argument(
        "StreamingEstimator: windowNs must be positive");
  }
}

void StreamingEstimator::attachBackend(BackendPtr backend) {
  if (nextWindowToEmit_ > 0) {
    throw std::logic_error(
        "StreamingEstimator: attachBackend after a window was emitted — "
        "resolve the backend at flow admission");
  }
  backend_ = std::move(backend);
}

bool StreamingEstimator::isVideoPacket(const netflow::Packet& packet) const {
  if (!rtpMode_) return classifier_.isVideo(packet);
  // The offline session path's rule: a packet is video iff its head parses
  // as RTP and the payload type matches the profile's video PT.
  const auto header = rtp::decode(packet.headBytes());
  return header.has_value() &&
         header->payloadType == options_.extraction.videoPt;
}

void StreamingEstimator::onPacket(const netflow::Packet& packet) {
  if (packet.arrivalNs < lastArrival_) {
    throw std::invalid_argument(
        "StreamingEstimator: packets must be fed in arrival order");
  }
  lastArrival_ = packet.arrivalNs;

  const auto window = common::windowIndex(packet.arrivalNs, options_.windowNs);
  if (window > lastSeenWindow_) lastSeenWindow_ = window;

  const bool video = isVideoPacket(packet);
  // kIpUdp buffers only video packets (its features read nothing else);
  // kRtp buffers every packet — the RTP features parse the whole window.
  if ((video || rtpMode_) && window >= nextWindowToEmit_) {
    bufferPacket(window, packet, video);
  }
  if (video) {
    ingestVideoPacket(packet);
    closeStaleFrames();
  }
  emitReadyWindows(packet.arrivalNs);
}

void StreamingEstimator::bufferPacket(std::int64_t window,
                                      const netflow::Packet& packet,
                                      bool video) {
  if (bufferedHead_ == bufferedWindows_.size() ||
      bufferedWindows_.back() != window) {
    // Arrival order makes window indices non-decreasing, so a window not at
    // the back is a new back entry.
    features::WindowColumns columns;
    if (!columnsPool_.empty()) {
      columns = std::move(columnsPool_.back());
      columnsPool_.pop_back();
    }
    bufferedWindows_.push_back(window);
    bufferedColumns_.push_back(std::move(columns));
    if (rtpMode_) {
      features::WindowColumns whole;
      if (!wholeColumnsPool_.empty()) {
        whole = std::move(wholeColumnsPool_.back());
        wholeColumnsPool_.pop_back();
      }
      whole.captureHeads = true;
      bufferedWholeColumns_.push_back(std::move(whole));
    }
  }
  if (rtpMode_) bufferedWholeColumns_.back().append(packet);
  if (video) bufferedColumns_.back().append(packet);
}

void StreamingEstimator::ingestVideoPacket(const netflow::Packet& packet) {
  // Algorithm 1, incremental: match against the previous Nmax video packets,
  // most recent first — one contiguous sweep over the lookback ring.
  const std::int64_t matched = recent_.matchMostRecent(
      packet.sizeBytes, options_.heuristic.deltaMaxBytes);

  std::uint64_t frameId;
  if (matched < 0) {
    frameId = nextFrameId_++;
    OpenFrame open;
    open.id = frameId;
    open.frame.firstNs = packet.arrivalNs;
    open.frame.endNs = packet.arrivalNs;
    open.frame.bytes = packet.sizeBytes;
    open.frame.packetCount = 1;
    open.lastTouchedPacket = videoPacketIndex_;
    // Ids are assigned in increasing order, so appending keeps the vector
    // sorted by id.
    openFrames_.push_back(open);
  } else {
    frameId = static_cast<std::uint64_t>(matched);
    const auto it = std::lower_bound(
        openFrames_.begin(), openFrames_.end(), frameId,
        [](const OpenFrame& open, std::uint64_t id) { return open.id < id; });
    if (it != openFrames_.end() && it->id == frameId) {
      it->frame.endNs = std::max(it->frame.endNs, packet.arrivalNs);
      it->frame.firstNs = std::min(it->frame.firstNs, packet.arrivalNs);
      it->frame.bytes += packet.sizeBytes;
      ++it->frame.packetCount;
      it->lastTouchedPacket = videoPacketIndex_;
    }
  }

  recent_.push(packet.sizeBytes, frameId);
  ++videoPacketIndex_;
}

void StreamingEstimator::insertClosedFrame(const HeuristicFrame& frame) {
  // Keep (endNs, close order): insert after every pending frame with an
  // equal or earlier end — the flat equivalent of multimap::emplace.
  const auto at = std::upper_bound(
      closedFrames_.begin(), closedFrames_.end(), frame.endNs,
      [](common::TimeNs end, const HeuristicFrame& pending) {
        return end < pending.endNs;
      });
  closedFrames_.insert(at, frame);
}

void StreamingEstimator::closeStaleFrames() {
  // A frame can only be extended through the lookback horizon; once its
  // newest packet is more than Nmax video packets old, it is final. One
  // stable in-place pass keeps the survivors in id order.
  const auto lookback =
      static_cast<std::uint64_t>(options_.heuristic.effectiveLookback());
  std::size_t keep = 0;
  for (std::size_t i = 0; i < openFrames_.size(); ++i) {
    if (videoPacketIndex_ - openFrames_[i].lastTouchedPacket > lookback) {
      insertClosedFrame(openFrames_[i].frame);
    } else {
      if (keep != i) openFrames_[keep] = openFrames_[i];
      ++keep;
    }
  }
  openFrames_.resize(keep);
}

void StreamingEstimator::emitReadyWindows(std::optional<common::TimeNs> now) {
  // Latest window that can possibly still be emitted.
  std::int64_t lastWindow = std::max(nextWindowToEmit_ - 1, lastSeenWindow_);
  if (!closedFrames_.empty()) {
    lastWindow = std::max(
        lastWindow,
        common::windowIndex(closedFrames_.back().endNs, options_.windowNs));
  }

  std::size_t consumedFrames = 0;  // emitted prefix of closedFrames_

  while (nextWindowToEmit_ <= lastWindow) {
    const std::int64_t w = nextWindowToEmit_;
    const common::TimeNs windowEnd = (w + 1) * options_.windowNs;

    if (now.has_value()) {
      if (*now < windowEnd) break;
      // An open frame whose current end is inside window w could still be
      // extended (moving it into a later window): not final yet.
      bool blocked = false;
      for (const auto& open : openFrames_) {
        if (open.frame.endNs < windowEnd) {
          blocked = true;
          break;
        }
      }
      if (blocked) break;
    }

    StreamingOutput out;
    out.window = w;

    // Heuristic metrics from closed frames ending inside this window,
    // consumed in global end order (gap chain mirrors the batch estimator).
    const double seconds = common::nsToSeconds(options_.windowNs);
    std::vector<double> gaps;
    while (consumedFrames < closedFrames_.size() &&
           closedFrames_[consumedFrames].endNs < windowEnd) {
      const HeuristicFrame& frame = closedFrames_[consumedFrames];
      ++out.heuristic.frameCount;
      out.heuristic.bitrateKbps +=
          (static_cast<double>(frame.bytes) -
           12.0 * static_cast<double>(frame.packetCount)) *
          8.0 / seconds / 1e3;
      if (lastEmittedFrameEnd_ >= 0) {
        gaps.push_back(common::nsToMillis(frame.endNs - lastEmittedFrameEnd_));
      }
      lastEmittedFrameEnd_ = frame.endNs;
      ++consumedFrames;
    }
    out.heuristic.window = w;
    out.heuristic.fps = static_cast<double>(out.heuristic.frameCount) / seconds;
    out.heuristic.frameJitterMs =
        gaps.size() >= 2 ? common::sampleStdev(gaps) : 0.0;

    // Features over the window's buffered columns. The IP/UDP set reads
    // only video arrival/size; the RTP set additionally gets the
    // head-capturing whole-window columns.
    static const features::WindowColumns kEmptyColumns;
    const bool haveColumns = bufferedHead_ < bufferedWindows_.size() &&
                             bufferedWindows_[bufferedHead_] == w;
    const features::WindowColumns& video =
        haveColumns ? bufferedColumns_[bufferedHead_] : kEmptyColumns;
    const features::WindowColumns& whole =
        (rtpMode_ && haveColumns) ? bufferedWholeColumns_[bufferedHead_]
                                  : kEmptyColumns;
    out.features =
        features::extractFeatures(whole, video, options_.windowNs,
                                  options_.featureSet, options_.extraction);
    if (backend_ != nullptr) {
      backend_->predictWindow(makeWindowContext(out), out.predictions);
    }

    callback_(out);
    if (haveColumns) {
      // Recycle the drained records: steady state allocates nothing.
      bufferedColumns_[bufferedHead_].clear();
      columnsPool_.push_back(std::move(bufferedColumns_[bufferedHead_]));
      if (rtpMode_) {
        bufferedWholeColumns_[bufferedHead_].clear();
        wholeColumnsPool_.push_back(
            std::move(bufferedWholeColumns_[bufferedHead_]));
      }
      ++bufferedHead_;
    }
    ++nextWindowToEmit_;
  }

  if (consumedFrames > 0) {
    closedFrames_.erase(closedFrames_.begin(),
                        closedFrames_.begin() +
                            static_cast<std::ptrdiff_t>(consumedFrames));
  }
  // Compact the drained prefix: fully drained resets for free; otherwise a
  // bounded prefix erase keeps the queues from growing with flow lifetime.
  if (bufferedHead_ == bufferedWindows_.size()) {
    bufferedWindows_.clear();
    bufferedColumns_.clear();
    if (rtpMode_) bufferedWholeColumns_.clear();
    bufferedHead_ = 0;
  } else if (bufferedHead_ >= 16) {
    const auto head = static_cast<std::ptrdiff_t>(bufferedHead_);
    bufferedWindows_.erase(bufferedWindows_.begin(),
                           bufferedWindows_.begin() + head);
    bufferedColumns_.erase(bufferedColumns_.begin(),
                           bufferedColumns_.begin() + head);
    if (rtpMode_) {
      bufferedWholeColumns_.erase(bufferedWholeColumns_.begin(),
                                  bufferedWholeColumns_.begin() + head);
    }
    bufferedHead_ = 0;
  }
}

void StreamingEstimator::finish() {
  for (const auto& open : openFrames_) insertClosedFrame(open.frame);
  openFrames_.clear();
  emitReadyWindows(std::nullopt);
}

}  // namespace vcaqoe::core
