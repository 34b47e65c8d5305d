#include "ingest/pcap_replay.hpp"

#include <thread>

namespace vcaqoe::ingest {

PcapReplaySource::PcapReplaySource(const std::string& path,
                                   ReplayOptions options)
    : options_(options), file_(std::in_place, path) {}

PcapReplaySource::PcapReplaySource(std::span<const std::uint8_t> data,
                                   ReplayOptions options)
    : options_(options), memory_(std::in_place, data) {}

bool PcapReplaySource::next(SourcePacket& out) {
  if (!(file_ ? file_->next(out) : memory_->next(out))) return false;
  if (options_.paceMultiplier > 0.0) pace(out.packet.arrivalNs);
  return true;
}

void PcapReplaySource::pace(common::TimeNs arrivalNs) {
  if (!sawFirst_) {
    sawFirst_ = true;
    firstArrivalNs_ = arrivalNs;
    replayStart_ = std::chrono::steady_clock::now();
    return;
  }
  const auto elapsedCapture = arrivalNs - firstArrivalNs_;
  if (elapsedCapture <= 0) return;
  const auto target =
      replayStart_ + std::chrono::nanoseconds(static_cast<std::int64_t>(
                         static_cast<double>(elapsedCapture) /
                         options_.paceMultiplier));
  std::this_thread::sleep_until(target);
}

const netflow::PcapParseStats& PcapReplaySource::parseStats() const {
  return file_ ? file_->stats() : memory_->stats();
}

}  // namespace vcaqoe::ingest
