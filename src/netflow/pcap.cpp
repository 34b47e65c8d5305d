#include "netflow/pcap.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "netflow/bytes.hpp"

namespace vcaqoe::netflow {

namespace {

// pcap headers are in the writer's native order; we always emit little-endian
// and accept either on read.

void le16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void le32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t u32At(const std::uint8_t* p, bool swap) {
  if (swap) {
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) |
           static_cast<std::uint32_t>(p[3]);
  }
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

struct PcapFormat {
  bool swap = false;
  bool nano = false;
};

/// Validates the 24-byte global header; throws on anything this reader
/// cannot interpret (a wrong magic means the rest of the framing is noise).
PcapFormat parseGlobalHeader(std::span<const std::uint8_t> data) {
  if (data.size() < kPcapGlobalHeaderSize) {
    throw std::runtime_error("pcap: file too short");
  }
  PcapFormat format;
  const std::uint32_t magicLe = u32At(data.data(), /*swap=*/false);
  if (magicLe == kPcapMagicNano) {
    format.nano = true;
  } else if (magicLe == kPcapMagicMicro) {
    format.nano = false;
  } else {
    const std::uint32_t magicBe = __builtin_bswap32(magicLe);
    if (magicBe == kPcapMagicNano) {
      format.nano = true;
      format.swap = true;
    } else if (magicBe == kPcapMagicMicro) {
      format.swap = true;
    } else {
      throw std::runtime_error("pcap: bad magic");
    }
  }
  const std::uint32_t linktype = u32At(data.data() + 20, format.swap);
  if (linktype != kLinktypeRawIpv4) {
    throw std::runtime_error("pcap: unsupported linktype " +
                             std::to_string(linktype));
  }
  return format;
}

struct RecordHeader {
  std::uint32_t tsSec = 0;
  std::uint32_t tsFrac = 0;
  std::uint32_t capLen = 0;
  std::uint32_t origLen = 0;
};

RecordHeader parseRecordHeader(const std::uint8_t* p, bool swap) {
  RecordHeader h;
  h.tsSec = u32At(p, swap);
  h.tsFrac = u32At(p + 4, swap);
  h.capLen = u32At(p + 8, swap);
  h.origLen = u32At(p + 12, swap);
  return h;
}

/// Decodes one captured record's wire bytes into `out`, or skips it
/// (updating `stats`, leaving `out` untouched) when the headers are not a
/// well-formed IPv4/UDP pair of an unfragmented datagram.
bool decodeRecord(std::span<const std::uint8_t> wire,
                  const RecordHeader& header, bool nano, PcapParseStats& stats,
                  PcapRecord& out) {
  std::size_t ipLen = 0;
  const auto ip = decodeIpv4(wire, ipLen);
  if (!ip) {
    ++stats.skippedNonUdp;
    return false;
  }
  if (ip->isFragment()) {
    ++stats.skippedFragments;
    return false;
  }
  if (ip->protocol != kIpProtoUdp) {
    ++stats.skippedNonUdp;
    return false;
  }
  const auto rest = wire.subspan(ipLen);
  if (rest.size() < kUdpHeaderSize) {
    ++stats.skippedNonUdp;
    return false;
  }
  // Check the UDP length field before deriving a payload size from it: a
  // corrupt length below the 8-byte header would underflow
  // `length - kUdpHeaderSize` into a ~4 GB sizeBytes, and one above the
  // checksum-verified IP payload would inflate it up to ~65 KB. The UDP
  // header carries no checksum over its own length here (0 = unused is
  // legal), so the IP total length is the trustworthy bound.
  const std::uint16_t udpLength =
      static_cast<std::uint16_t>((rest[4] << 8) | rest[5]);
  const std::size_t ipPayload =
      ip->totalLength >= ipLen ? ip->totalLength - ipLen : 0;
  if (udpLength < kUdpHeaderSize || udpLength > ipPayload) {
    ++stats.skippedBadUdpLength;
    return false;
  }
  const auto udp = decodeUdp(rest);
  if (!udp) {
    ++stats.skippedNonUdp;
    return false;
  }

  out.flow.srcIp = ip->srcAddr;
  out.flow.dstIp = ip->dstAddr;
  out.flow.srcPort = udp->srcPort;
  out.flow.dstPort = udp->dstPort;

  // A corrupt fractional part >= one second would spill into the next
  // second and break the non-decreasing arrival order the estimators
  // require; saturate it just below the carry instead.
  const std::uint32_t fracLimit = nano ? 999'999'999u : 999'999u;
  std::uint32_t frac = header.tsFrac;
  if (frac > fracLimit) {
    frac = fracLimit;
    ++stats.clampedTimestamps;
  }
  Packet& packet = out.packet;
  packet.arrivalNs =
      static_cast<common::TimeNs>(header.tsSec) * common::kNanosPerSecond +
      (nano ? frac : frac * static_cast<common::TimeNs>(1000));
  packet.departureNs = 0;
  packet.sizeBytes = static_cast<std::uint32_t>(udp->length) -
                     static_cast<std::uint32_t>(kUdpHeaderSize);
  // The caller's record is reused across calls: the bytes past the new
  // head are zeroed, so it reads exactly like a freshly decoded one.
  packet.setHead(rest.subspan(kUdpHeaderSize));
  std::fill(packet.head.begin() + packet.headLen, packet.head.end(),
            std::uint8_t{0});
  ++stats.recordsYielded;
  return true;
}

/// Opens `path` unbuffered and returns its global header bytes. Unbuffered
/// because `PcapFileReader` reads whole blocks into its own buffer: a
/// stream buffer would add a copy, and read ahead at open.
std::array<std::uint8_t, kPcapGlobalHeaderSize> openCapture(
    std::ifstream& in, const std::string& path) {
  in.rdbuf()->pubsetbuf(nullptr, 0);
  in.open(path, std::ios::binary);
  if (!in) throw std::runtime_error("pcap: cannot open " + path);
  std::array<std::uint8_t, kPcapGlobalHeaderSize> header{};
  in.read(reinterpret_cast<char*>(header.data()),
          static_cast<std::streamsize>(header.size()));
  if (in.gcount() != static_cast<std::streamsize>(header.size())) {
    throw std::runtime_error("pcap: file too short");
  }
  return header;
}

}  // namespace

PcapWriter::PcapWriter(std::uint32_t snaplen) : snaplen_(snaplen) {
  le32(buffer_, kPcapMagicNano);
  le16(buffer_, 2);  // version major
  le16(buffer_, 4);  // version minor
  le32(buffer_, 0);  // thiszone
  le32(buffer_, 0);  // sigfigs
  le32(buffer_, snaplen_);
  le32(buffer_, kLinktypeRawIpv4);
}

void PcapWriter::write(const FlowKey& flow, const Packet& packet) {
  const auto ts = packet.arrivalNs;
  if (ts < 0 ||
      ts / common::kNanosPerSecond >
          static_cast<common::TimeNs>(std::numeric_limits<std::uint32_t>::max())) {
    throw std::invalid_argument(
        "pcap: arrivalNs outside the format's unsigned 32-bit seconds range "
        "(1970..2106) would not round-trip");
  }

  // Assemble the on-wire bytes we actually have: IPv4 + UDP headers plus the
  // captured payload prefix.
  std::vector<std::uint8_t> wire;
  wire.reserve(kIpv4HeaderSize + kUdpHeaderSize + packet.headLen);

  Ipv4Header ip;
  ip.totalLength = static_cast<std::uint16_t>(
      kIpv4HeaderSize + kUdpHeaderSize + packet.sizeBytes);
  ip.srcAddr = flow.srcIp;
  ip.dstAddr = flow.dstIp;
  encodeIpv4(ip, wire);

  UdpHeader udp;
  udp.srcPort = flow.srcPort;
  udp.dstPort = flow.dstPort;
  udp.length = static_cast<std::uint16_t>(kUdpHeaderSize + packet.sizeBytes);
  encodeUdp(udp, wire);

  auto headSpan = packet.headBytes();
  wire.insert(wire.end(), headSpan.begin(), headSpan.end());

  const std::uint32_t origLen = static_cast<std::uint32_t>(
      kIpv4HeaderSize + kUdpHeaderSize + packet.sizeBytes);
  const std::uint32_t capLen =
      std::min({static_cast<std::uint32_t>(wire.size()), snaplen_, origLen});

  le32(buffer_, static_cast<std::uint32_t>(ts / common::kNanosPerSecond));
  le32(buffer_, static_cast<std::uint32_t>(ts % common::kNanosPerSecond));
  le32(buffer_, capLen);
  le32(buffer_, origLen);
  buffer_.insert(buffer_.end(), wire.begin(), wire.begin() + capLen);
}

void PcapWriter::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("pcap: cannot open " + path);
  out.write(reinterpret_cast<const char*>(buffer_.data()),
            static_cast<std::streamsize>(buffer_.size()));
  if (!out) throw std::runtime_error("pcap: write failed for " + path);
}

PcapRecordWalker::PcapRecordWalker(
    std::span<const std::uint8_t> globalHeader) {
  const auto format = parseGlobalHeader(globalHeader);
  swap_ = format.swap;
  nano_ = format.nano;
}

bool PcapRecordWalker::next(std::span<const std::uint8_t> bytes,
                            std::size_t& pos, PcapRecord& out) {
  while (!done_) {
    const std::size_t remaining = bytes.size() - pos;
    if (remaining < kPcapRecordHeaderSize) return false;
    const auto header = parseRecordHeader(bytes.data() + pos, swap_);
    if (header.capLen > kPcapMaxRecordBytes) {
      // Lost framing: nothing after this header can be trusted.
      ++stats_.truncatedRecords;
      done_ = true;
      return false;
    }
    if (header.capLen > remaining - kPcapRecordHeaderSize) return false;
    const auto wire = bytes.subspan(pos + kPcapRecordHeaderSize, header.capLen);
    pos += kPcapRecordHeaderSize + header.capLen;
    if (decodeRecord(wire, header, nano_, stats_, out)) return true;
  }
  return false;
}

std::size_t PcapRecordWalker::recordBytesAt(
    std::span<const std::uint8_t> bytes, std::size_t pos) const {
  if (bytes.size() - pos < kPcapRecordHeaderSize) return kPcapRecordHeaderSize;
  return kPcapRecordHeaderSize +
         parseRecordHeader(bytes.data() + pos, swap_).capLen;
}

void PcapRecordWalker::endOfStream(std::size_t leftover) {
  // A cut-off tail (capture stopped mid-write): keep everything parsed so
  // far, drop the rest.
  if (leftover > 0) ++stats_.truncatedRecords;
  done_ = true;
}

PcapReader::PcapReader(std::span<const std::uint8_t> data)
    : data_(data), walker_(data) {}

bool PcapReader::next(PcapRecord& out) {
  if (walker_.next(data_, pos_, out)) return true;
  if (!walker_.done()) walker_.endOfStream(data_.size() - pos_);
  return false;
}

PcapFileReader::PcapFileReader(const std::string& path)
    : walker_(openCapture(in_, path)) {}

bool PcapFileReader::next(PcapRecord& out) {
  for (;;) {
    if (walker_.next({block_.data(), end_}, pos_, out)) return true;
    if (walker_.done()) return false;
    if (!refill()) {
      walker_.endOfStream(end_ - pos_);
      return false;
    }
  }
}

bool PcapFileReader::refill() {
  const std::size_t leftover = end_ - pos_;
  const std::size_t size = std::max(
      kBlockBytes, walker_.recordBytesAt({block_.data(), end_}, pos_));
  if (block_.size() < size) block_.resize(size);
  std::memmove(block_.data(), block_.data() + pos_, leftover);
  pos_ = 0;
  end_ = leftover;
  in_.read(reinterpret_cast<char*>(block_.data() + end_),
           static_cast<std::streamsize>(block_.size() - end_));
  const auto got = static_cast<std::size_t>(in_.gcount());
  end_ += got;
  return got > 0;
}

std::vector<PcapRecord> parsePcap(std::span<const std::uint8_t> data,
                                  PcapParseStats* stats) {
  PcapReader reader(data);
  std::vector<PcapRecord> records;
  PcapRecord rec;
  while (reader.next(rec)) records.push_back(rec);
  if (stats != nullptr) *stats = reader.stats();
  return records;
}

std::vector<PcapRecord> loadPcap(const std::string& path,
                                 PcapParseStats* stats) {
  PcapFileReader reader(path);
  std::vector<PcapRecord> records;
  PcapRecord rec;
  while (reader.next(rec)) records.push_back(rec);
  if (stats != nullptr) *stats = reader.stats();
  return records;
}

PacketTrace packetsForFlow(const std::vector<PcapRecord>& records,
                           const FlowKey& flow) {
  PacketTrace trace;
  for (const auto& rec : records) {
    if (rec.flow == flow) trace.push_back(rec.packet);
  }
  return trace;
}

FlowKey dominantFlow(const std::vector<PcapRecord>& records) {
  // O(1) per record via the shared 5-tuple hash; first-seen order is kept on
  // the side so ties resolve deterministically (never by hash iteration).
  std::unordered_map<FlowKey, std::size_t, FlowKeyHash> indexOf;
  std::vector<std::pair<FlowKey, std::size_t>> counts;
  for (const auto& rec : records) {
    const auto [it, inserted] = indexOf.try_emplace(rec.flow, counts.size());
    if (inserted) counts.emplace_back(rec.flow, 0);
    ++counts[it->second].second;
  }
  FlowKey best{};
  std::size_t bestCount = 0;
  for (const auto& [key, count] : counts) {
    if (count > bestCount) {
      bestCount = count;
      best = key;
    }
  }
  return best;
}

}  // namespace vcaqoe::netflow
