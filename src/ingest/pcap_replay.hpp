#pragma once

#include <chrono>
#include <optional>
#include <span>
#include <string>

#include "ingest/packet_source.hpp"
#include "netflow/pcap.hpp"

namespace vcaqoe::ingest {

struct ReplayOptions {
  /// Replay speed relative to the capture's own timeline. 0 (default)
  /// replays as fast as the consumer accepts; 1.0 reproduces the capture's
  /// inter-arrival gaps in wall-clock time; 2.0 replays twice as fast.
  double paceMultiplier = 0.0;
};

/// Streams the UDP records of a classic-pcap capture, in file order, through
/// the `PacketSource` interface. File-backed construction streams through
/// one 64 KiB block buffer parsed in place (`netflow::PcapFileReader`), so
/// replaying a multi-GB capture never materializes it in memory, and each
/// record is decoded straight into the caller's `SourcePacket`.
class PcapReplaySource final : public PacketSource {
 public:
  /// Opens a capture file. Throws std::runtime_error on I/O failure or a
  /// malformed global header.
  explicit PcapReplaySource(const std::string& path, ReplayOptions options = {});

  /// Replays an in-memory capture (must outlive the source).
  explicit PcapReplaySource(std::span<const std::uint8_t> data,
                            ReplayOptions options = {});

  bool next(SourcePacket& out) override;

  /// Skip/clamp counters of the underlying parser (live, grows as records
  /// are pulled).
  const netflow::PcapParseStats& parseStats() const;

 private:
  void pace(common::TimeNs arrivalNs);

  ReplayOptions options_;
  std::optional<netflow::PcapFileReader> file_;
  std::optional<netflow::PcapReader> memory_;

  bool sawFirst_ = false;
  common::TimeNs firstArrivalNs_ = 0;
  std::chrono::steady_clock::time_point replayStart_;
};

}  // namespace vcaqoe::ingest
