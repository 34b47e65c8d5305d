#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "netflow/ip.hpp"
#include "netflow/packet.hpp"

/// Classic-pcap (libpcap) capture file reader/writer.
///
/// Files are written with the nanosecond-resolution magic (0xA1B23C4D) and
/// LINKTYPE_RAW (101, raw IPv4) so timestamps round-trip exactly. A small
/// snap length is used deliberately: the monitoring model of the paper only
/// needs IP/UDP headers plus at most the 12-byte RTP prefix.
///
/// Parsing is deliberately forgiving at the record level: a capture taken at
/// an ISP vantage point contains truncated tails (capture stopped mid-write),
/// non-UDP traffic, and occasionally corrupt headers. A malformed *record*
/// is skipped and counted in `PcapParseStats`, never fatal — only a malformed
/// *file* (bad magic, unsupported linktype, short global header) throws.
namespace vcaqoe::netflow {

inline constexpr std::uint32_t kPcapMagicNano = 0xA1B23C4D;
inline constexpr std::uint32_t kPcapMagicMicro = 0xA1B2C3D4;
inline constexpr std::uint32_t kLinktypeRawIpv4 = 101;
inline constexpr std::size_t kPcapGlobalHeaderSize = 24;
inline constexpr std::size_t kPcapRecordHeaderSize = 16;

/// One record as stored in a capture: the flow it belongs to plus the packet
/// observation derived from the headers. Both readers decode straight into
/// a caller-owned record, and the ingest layer hands the same type on as
/// `ingest::SourcePacket`, so a packet is written once between the capture
/// bytes and the engine.
struct PcapRecord {
  FlowKey flow;
  Packet packet;
};

/// What a parse pass accepted and skipped. Skips are silent per record (one
/// bad record must not discard a multi-hour capture) but observable here.
struct PcapParseStats {
  /// UDP records decoded and handed to the caller.
  std::uint64_t recordsYielded = 0;
  /// Skipped: not IPv4/UDP, or the IP/UDP headers did not decode.
  std::uint64_t skippedNonUdp = 0;
  /// Skipped: the UDP length field was below the 8-byte header size (would
  /// otherwise underflow into a ~4 GB payload size) or larger than the
  /// checksum-verified IP payload (would inflate it up to ~65 KB).
  std::uint64_t skippedBadUdpLength = 0;
  /// Skipped: an IPv4 fragment (more-fragments set or a non-zero offset).
  /// Only a datagram's first fragment carries its UDP header; reading the
  /// bytes after a later fragment's IP header as one would invent a flow.
  std::uint64_t skippedFragments = 0;
  /// Timestamps whose fractional part was >= one second and was saturated to
  /// keep `arrivalNs` monotonic-safe.
  std::uint64_t clampedTimestamps = 0;
  /// The byte stream ended mid-record (or a record claimed more bytes than
  /// remain, or more than `kPcapMaxRecordBytes`). Parsing stops there;
  /// records before the cut are kept.
  std::uint64_t truncatedRecords = 0;

  friend bool operator==(const PcapParseStats&,
                         const PcapParseStats&) = default;
};

/// A record claiming more captured bytes than this is lost framing, not a
/// packet (no sane snap length comes near it): both readers stop there and
/// count it as truncated, instead of allocating for the claim.
inline constexpr std::uint32_t kPcapMaxRecordBytes = 1u << 24;

/// Serializes packets into an in-memory pcap byte stream.
class PcapWriter {
 public:
  /// `snaplen` bounds the stored bytes per packet (link-layer onwards).
  explicit PcapWriter(std::uint32_t snaplen = kIpv4HeaderSize +
                                              kUdpHeaderSize + kHeadCapacity);

  /// Appends one UDP datagram. Payload bytes beyond `packet.headLen` are not
  /// available and are captured as a truncated record (caplen < origlen),
  /// exactly like a snap-length-limited real capture.
  ///
  /// Throws std::invalid_argument when `packet.arrivalNs` does not fit the
  /// format's unsigned 32-bit seconds field (before 1970 or past 2106):
  /// silently truncating would round-trip to a different timestamp.
  void write(const FlowKey& flow, const Packet& packet);

  /// The complete file contents (global header + records so far).
  const std::vector<std::uint8_t>& bytes() const { return buffer_; }

  /// Writes the buffer to a file. Throws std::runtime_error on I/O failure.
  void save(const std::string& path) const;

 private:
  std::uint32_t snaplen_;
  std::vector<std::uint8_t> buffer_;
};

/// The record framing and decode both readers share, so the same bytes
/// yield the same records and the same `PcapParseStats` whether they sit in
/// memory or stream from a file in blocks.
class PcapRecordWalker {
 public:
  /// Validates the 24-byte global header. Throws std::runtime_error on bad
  /// magic, a short header, or an unsupported linktype.
  explicit PcapRecordWalker(std::span<const std::uint8_t> globalHeader);

  /// Walks the complete records of `bytes` from `pos` on, advancing `pos`
  /// past each, until one decodes as IPv4/UDP: returns true with it in
  /// `out`. Returns false once the bytes from `pos` hold no complete record
  /// (`pos` is left at its first byte) or the stream is `done()`. Skipped
  /// records are counted; `out` is written only for a returned record.
  bool next(std::span<const std::uint8_t> bytes, std::size_t& pos,
            PcapRecord& out);

  /// Total bytes (header included) of the record starting at `bytes[pos]`;
  /// the header size when even the header is incomplete.
  std::size_t recordBytesAt(std::span<const std::uint8_t> bytes,
                            std::size_t pos) const;

  /// The stream ended with `leftover` bytes of an incomplete record (0 at a
  /// clean end); counts the cut-off record and stops the walk.
  void endOfStream(std::size_t leftover);

  bool done() const { return done_; }
  const PcapParseStats& stats() const { return stats_; }
  bool nanosecondResolution() const { return nano_; }
  bool byteSwapped() const { return swap_; }

 private:
  bool swap_ = false;
  bool nano_ = false;
  bool done_ = false;
  PcapParseStats stats_;
};

/// Incremental pull parser over an in-memory pcap byte stream. The global
/// header is validated on construction (throws std::runtime_error on bad
/// magic, short header, or unsupported linktype); `next()` then yields one
/// UDP record at a time, skipping malformed records per `PcapParseStats`.
class PcapReader {
 public:
  explicit PcapReader(std::span<const std::uint8_t> data);

  /// Decodes the next UDP record into `out`; false at end of stream.
  bool next(PcapRecord& out);

  const PcapParseStats& stats() const { return walker_.stats(); }
  bool nanosecondResolution() const { return walker_.nanosecondResolution(); }
  bool byteSwapped() const { return walker_.byteSwapped(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = kPcapGlobalHeaderSize;
  PcapRecordWalker walker_;
};

/// Streams records straight from a capture file through one fixed
/// `kBlockBytes` buffer, parsed in place: a multi-GB capture never needs to
/// be materialized in memory, and a record is copied only when it straddles
/// two blocks (moved to the front before the next read). The buffer grows
/// only for a record larger than a block, and then stays that size. Opening
/// reads the global header and nothing more; the buffer is allocated on
/// the first `next()`. Same validation, records and skip counts as
/// `PcapReader` on the same bytes.
class PcapFileReader {
 public:
  static constexpr std::size_t kBlockBytes = std::size_t{64} * 1024;

  /// Throws std::runtime_error when the file cannot be opened or its global
  /// header is malformed.
  explicit PcapFileReader(const std::string& path);

  /// Decodes the next UDP record into `out`; false at end of file.
  bool next(PcapRecord& out);

  const PcapParseStats& stats() const { return walker_.stats(); }
  bool nanosecondResolution() const { return walker_.nanosecondResolution(); }
  bool byteSwapped() const { return walker_.byteSwapped(); }

 private:
  /// Moves the incomplete record at `pos_` to the front of the buffer
  /// (growing it if the record exceeds it) and reads after it; false when
  /// the file had nothing more.
  bool refill();

  std::ifstream in_;
  PcapRecordWalker walker_;
  std::vector<std::uint8_t> block_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

/// Parses an in-memory pcap byte stream into a vector (convenience wrapper
/// over `PcapReader` for small captures; prefer the readers for streaming).
/// Throws std::runtime_error on a malformed global header; malformed records
/// are skipped and counted in `*stats` when provided.
std::vector<PcapRecord> parsePcap(std::span<const std::uint8_t> data,
                                  PcapParseStats* stats = nullptr);

/// Loads a capture file from disk (streamed, then collected). Throws
/// std::runtime_error on I/O failure or a malformed global header.
std::vector<PcapRecord> loadPcap(const std::string& path,
                                 PcapParseStats* stats = nullptr);

/// Convenience: extracts only the packets of the given flow, in file order.
PacketTrace packetsForFlow(const std::vector<PcapRecord>& records,
                           const FlowKey& flow);

/// Convenience: the flow with the most packets in the capture (a VCA media
/// flow dominates its session's traffic). Ties break to the first-seen flow,
/// so the result is a deterministic function of record order.
FlowKey dominantFlow(const std::vector<PcapRecord>& records);

}  // namespace vcaqoe::netflow
