#pragma once

#include "netflow/pcap.hpp"

/// Capture front-ends for the multi-flow engine.
///
/// Everything upstream of `MultiFlowEngine::onPacket` — capture-file replay
/// today, live capture tomorrow — implements one pull interface, so the
/// demux/shard/estimate pipeline downstream is byte-identical for replayed
/// and live traffic. The replay driver (`replay()`) is the only consumer.
namespace vcaqoe::ingest {

/// One packet observation as delivered by a capture front-end: the
/// capture reader's own record type, so a replayed packet is decoded
/// straight into the caller's `SourcePacket` with no copy in between.
using SourcePacket = netflow::PcapRecord;

/// Pull interface over a stream of packet observations in arrival order.
class PacketSource {
 public:
  virtual ~PacketSource() = default;

  PacketSource() = default;
  PacketSource(const PacketSource&) = delete;
  PacketSource& operator=(const PacketSource&) = delete;

  /// Fills `out` with the next packet; returns false at end of stream. May
  /// block (time-paced replay, live capture waiting for traffic).
  virtual bool next(SourcePacket& out) = 0;
};

}  // namespace vcaqoe::ingest
