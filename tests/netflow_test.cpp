#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.hpp"
#include "netflow/bytes.hpp"
#include "netflow/ip.hpp"
#include "netflow/packet.hpp"
#include "netflow/pcap.hpp"

namespace vcaqoe::netflow {
namespace {

// ---------------------------------------------------------------- bytes

TEST(Bytes, WriterBigEndian) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(out[0], 0xAB);
  EXPECT_EQ(out[1], 0x12);
  EXPECT_EQ(out[2], 0x34);
  EXPECT_EQ(out[3], 0xDE);
  EXPECT_EQ(out[6], 0xEF);
}

TEST(Bytes, ReaderRoundTrip) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(0xCAFEBABE);
  w.u16(0x0102);
  w.u8(0x7F);
  ByteReader r(out);
  EXPECT_EQ(r.u32(), 0xCAFEBABEu);
  EXPECT_EQ(r.u16(), 0x0102u);
  EXPECT_EQ(r.u8(), 0x7Fu);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, ReaderThrowsOnTruncation) {
  const std::vector<std::uint8_t> data = {0x01, 0x02};
  ByteReader r(data);
  EXPECT_THROW(r.u32(), std::out_of_range);
  ByteReader r2(data);
  r2.u16();
  EXPECT_THROW(r2.u8(), std::out_of_range);
}

TEST(Bytes, InternetChecksumKnownVector) {
  // Classic RFC 1071 example bytes.
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xf2, 0x03,
                                          0xf4, 0xf5, 0xf6, 0xf7};
  const std::uint16_t sum = internetChecksum(data);
  // Verifying: appending the checksum makes the total sum 0xFFFF.
  std::vector<std::uint8_t> withSum = data;
  withSum.push_back(static_cast<std::uint8_t>(sum >> 8));
  withSum.push_back(static_cast<std::uint8_t>(sum));
  EXPECT_EQ(internetChecksum(withSum), 0);
}

// The word-at-a-time checksum against the byte-pair definition of RFC 1071
// (a big-endian 16-bit sum, an odd last byte padded on the right), over
// every length up to 64 and every alignment of the data.
TEST(Bytes, ChecksumMatchesBytePairDefinition) {
  const auto reference = [](std::span<const std::uint8_t> data) {
    std::uint32_t sum = 0;
    std::size_t i = 0;
    for (; i + 1 < data.size(); i += 2) {
      sum += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
    }
    if (i < data.size()) sum += static_cast<std::uint32_t>(data[i]) << 8;
    while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum);
  };
  common::Rng rng(1071);
  std::vector<std::uint8_t> bytes(80);
  for (int round = 0; round < 50; ++round) {
    for (auto& b : bytes) {
      // Mostly 0xFF to drive the end-around carries.
      b = static_cast<std::uint8_t>(round % 2 == 0 ? rng.uniformInt(0, 255)
                                                   : 0xFF - rng.uniformInt(0, 1));
    }
    for (std::size_t offset = 0; offset < 4; ++offset) {
      for (std::size_t length = 0; length <= 64; ++length) {
        const std::span<const std::uint8_t> data(bytes.data() + offset,
                                                 length);
        ASSERT_EQ(internetChecksum(data), reference(data))
            << "offset " << offset << " length " << length;
      }
    }
  }
}

TEST(Bytes, ChecksumOddLength) {
  const std::vector<std::uint8_t> data = {0xFF, 0x00, 0xAB};
  // Should not crash and be stable.
  EXPECT_EQ(internetChecksum(data), internetChecksum(data));
}

// ---------------------------------------------------------------- ip/udp

TEST(Ip, EncodeDecodeRoundTrip) {
  Ipv4Header h;
  h.totalLength = 1200;
  h.identification = 77;
  h.ttl = 61;
  h.srcAddr = 0x0A000001;
  h.dstAddr = 0xC0A80102;
  std::vector<std::uint8_t> buf;
  encodeIpv4(h, buf);
  ASSERT_EQ(buf.size(), kIpv4HeaderSize);

  std::size_t consumed = 0;
  const auto decoded = decodeIpv4(buf, consumed);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(consumed, kIpv4HeaderSize);
  EXPECT_EQ(*decoded, h);
}

TEST(Ip, FragmentFieldRoundTripsAndClassifies) {
  Ipv4Header h;
  h.totalLength = 100;
  std::vector<std::uint8_t> buf;
  for (const std::uint16_t field : {0x0000, 0x4000, 0x2000, 0x00B9, 0x40B9}) {
    h.flagsFragment = field;
    buf.clear();
    encodeIpv4(h, buf);
    std::size_t consumed = 0;
    const auto decoded = decodeIpv4(buf, consumed);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->flagsFragment, field);
    // Don't-fragment alone is a whole datagram; MF or an offset is not.
    EXPECT_EQ(decoded->isFragment(), field != 0x0000 && field != 0x4000);
  }
}

TEST(Ip, DecodeRejectsBadChecksum) {
  Ipv4Header h;
  h.totalLength = 100;
  std::vector<std::uint8_t> buf;
  encodeIpv4(h, buf);
  buf[10] ^= 0xFF;  // corrupt checksum
  std::size_t consumed = 0;
  EXPECT_FALSE(decodeIpv4(buf, consumed).has_value());
}

TEST(Ip, DecodeRejectsWrongVersion) {
  Ipv4Header h;
  std::vector<std::uint8_t> buf;
  encodeIpv4(h, buf);
  buf[0] = 0x65;  // version 6
  std::size_t consumed = 0;
  EXPECT_FALSE(decodeIpv4(buf, consumed).has_value());
}

TEST(Ip, DecodeRejectsTruncated) {
  const std::vector<std::uint8_t> tiny(10, 0);
  std::size_t consumed = 0;
  EXPECT_FALSE(decodeIpv4(tiny, consumed).has_value());
}

TEST(Udp, EncodeDecodeRoundTrip) {
  UdpHeader h;
  h.srcPort = 3478;
  h.dstPort = 50000;
  h.length = 108;
  std::vector<std::uint8_t> buf;
  encodeUdp(h, buf);
  ASSERT_EQ(buf.size(), kUdpHeaderSize);
  const auto decoded = decodeUdp(buf);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, h);
}

TEST(Udp, DecodeRejectsShortLengthField) {
  UdpHeader h;
  h.length = 4;  // below header size
  std::vector<std::uint8_t> buf;
  encodeUdp(h, buf);
  EXPECT_FALSE(decodeUdp(buf).has_value());
}

TEST(Ip, AddressStringRoundTrip) {
  EXPECT_EQ(ipToString(0xC0A80101), "192.168.1.1");
  EXPECT_EQ(parseIp("192.168.1.1"), 0xC0A80101u);
  EXPECT_EQ(parseIp("0.0.0.0"), 0u);
  EXPECT_EQ(parseIp("255.255.255.255"), 0xFFFFFFFFu);
  EXPECT_FALSE(parseIp("1.2.3").has_value());
  EXPECT_FALSE(parseIp("1.2.3.4.5").has_value());
  EXPECT_FALSE(parseIp("1.2.3.999").has_value());
  EXPECT_FALSE(parseIp("a.b.c.d").has_value());
}

// ---------------------------------------------------------------- packet

TEST(Packet, SetHeadClamps) {
  Packet p;
  std::vector<std::uint8_t> big(64, 0x5A);
  p.setHead(big);
  EXPECT_EQ(p.headLen, kHeadCapacity);
  EXPECT_EQ(p.headBytes().size(), kHeadCapacity);
  EXPECT_EQ(p.headBytes()[0], 0x5A);
}

TEST(Packet, SortByArrivalStable) {
  PacketTrace trace(3);
  trace[0].arrivalNs = 30;
  trace[0].sizeBytes = 1;
  trace[1].arrivalNs = 10;
  trace[1].sizeBytes = 2;
  trace[2].arrivalNs = 30;
  trace[2].sizeBytes = 3;
  EXPECT_FALSE(isArrivalOrdered(trace));
  sortByArrival(trace);
  EXPECT_TRUE(isArrivalOrdered(trace));
  EXPECT_EQ(trace[0].sizeBytes, 2u);
  EXPECT_EQ(trace[1].sizeBytes, 1u);  // stable: 1 stays before 3
  EXPECT_EQ(trace[2].sizeBytes, 3u);
}

// ---------------------------------------------------------------- pcap

FlowKey testFlow() {
  FlowKey f;
  f.srcIp = *parseIp("10.0.0.1");
  f.dstIp = *parseIp("192.168.7.2");
  f.srcPort = 3478;
  f.dstPort = 51000;
  return f;
}

TEST(Pcap, WriteParseRoundTrip) {
  PcapWriter writer;
  Packet p;
  p.arrivalNs = 3 * common::kNanosPerSecond + 123'456'789;
  p.sizeBytes = 1176;
  const std::vector<std::uint8_t> head = {0x80, 0x66, 0x00, 0x07,
                                          0x00, 0x00, 0x12, 0x34};
  p.setHead(head);
  writer.write(testFlow(), p);

  const auto records = parsePcap(writer.bytes());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].flow, testFlow());
  EXPECT_EQ(records[0].packet.arrivalNs, p.arrivalNs);
  EXPECT_EQ(records[0].packet.sizeBytes, p.sizeBytes);
  ASSERT_GE(records[0].packet.headLen, head.size());
  for (std::size_t i = 0; i < head.size(); ++i) {
    EXPECT_EQ(records[0].packet.head[i], head[i]);
  }
}

TEST(Pcap, SaveAndLoadFile) {
  PcapWriter writer;
  Packet p;
  p.arrivalNs = 42;
  p.sizeBytes = 100;
  writer.write(testFlow(), p);
  const std::string path =
      (std::filesystem::temp_directory_path() / "vcaqoe_test.pcap").string();
  writer.save(path);
  const auto records = loadPcap(path);
  std::remove(path.c_str());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].packet.sizeBytes, 100u);
}

TEST(Pcap, RejectsBadMagic) {
  std::vector<std::uint8_t> junk(64, 0x11);
  EXPECT_THROW(parsePcap(junk), std::runtime_error);
}

TEST(Pcap, RejectsShortGlobalHeader) {
  const std::vector<std::uint8_t> stub(10, 0);
  EXPECT_THROW(parsePcap(stub), std::runtime_error);
}

TEST(Pcap, RejectsUnsupportedLinktype) {
  PcapWriter writer;
  auto bytes = writer.bytes();
  bytes[20] = 1;  // LINKTYPE_ETHERNET instead of RAW
  EXPECT_THROW(parsePcap(bytes), std::runtime_error);
}

// A capture cut off mid-record (monitor crashed, disk filled) must keep
// every complete record instead of discarding the whole file.
TEST(Pcap, TruncatedTrailingRecordIsSkippedNotFatal) {
  PcapWriter writer;
  Packet good;
  good.arrivalNs = 5;
  good.sizeBytes = 700;
  writer.write(testFlow(), good);
  Packet cut;
  cut.arrivalNs = 6;
  cut.sizeBytes = 500;
  writer.write(testFlow(), cut);
  auto bytes = writer.bytes();
  bytes.resize(bytes.size() - 5);

  PcapParseStats stats;
  const auto records = parsePcap(bytes, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].packet.sizeBytes, 700u);
  EXPECT_EQ(stats.recordsYielded, 1u);
  EXPECT_EQ(stats.truncatedRecords, 1u);
}

TEST(Pcap, TruncatedRecordHeaderIsSkippedNotFatal) {
  PcapWriter writer;
  Packet good;
  good.sizeBytes = 300;
  writer.write(testFlow(), good);
  auto bytes = writer.bytes();
  bytes.insert(bytes.end(), 10, 0xEE);  // stray half record header

  PcapParseStats stats;
  const auto records = parsePcap(bytes, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.truncatedRecords, 1u);
}

TEST(Pcap, DominantFlowAndFilter) {
  PcapWriter writer;
  FlowKey media = testFlow();
  FlowKey other = testFlow();
  other.dstPort = 9;
  for (int i = 0; i < 10; ++i) {
    Packet p;
    p.arrivalNs = i;
    p.sizeBytes = 1000;
    writer.write(media, p);
  }
  Packet small;
  small.arrivalNs = 100;
  small.sizeBytes = 50;
  writer.write(other, small);

  const auto records = parsePcap(writer.bytes());
  ASSERT_EQ(records.size(), 11u);
  EXPECT_EQ(dominantFlow(records), media);
  EXPECT_EQ(packetsForFlow(records, media).size(), 10u);
  EXPECT_EQ(packetsForFlow(records, other).size(), 1u);
}

// Property: arbitrary packet sizes and times survive the pcap round trip.
class PcapRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PcapRoundTrip, PreservesSizeAndTime) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  PcapWriter writer;
  std::vector<Packet> sent;
  for (int i = 0; i < 50; ++i) {
    Packet p;
    p.arrivalNs = rng.uniformInt(0, 1'000'000'000'000LL);
    p.sizeBytes = static_cast<std::uint32_t>(rng.uniformInt(1, 65'000));
    std::vector<std::uint8_t> head(
        static_cast<std::size_t>(rng.uniformInt(0, 20)));
    for (auto& b : head) {
      b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    }
    p.setHead(head);
    sent.push_back(p);
    writer.write(testFlow(), p);
  }
  const auto records = parsePcap(writer.bytes());
  ASSERT_EQ(records.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(records[i].packet.arrivalNs, sent[i].arrivalNs);
    EXPECT_EQ(records[i].packet.sizeBytes, sent[i].sizeBytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcapRoundTrip, ::testing::Range(1, 9));

// ------------------------------------------------- malformed-record corpus
//
// Hand-crafted captures (both byte orders, both timestamp resolutions,
// deliberately corrupt records) — the parser must skip what it cannot trust
// and keep everything else.

void put16(std::vector<std::uint8_t>& out, std::uint16_t v, bool bigEndian) {
  if (bigEndian) {
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v));
  } else {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
  }
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v, bool bigEndian) {
  if (bigEndian) {
    out.push_back(static_cast<std::uint8_t>(v >> 24));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v));
  } else {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
  }
}

std::vector<std::uint8_t> craftGlobalHeader(std::uint32_t magic,
                                            bool bigEndian) {
  std::vector<std::uint8_t> out;
  put32(out, magic, bigEndian);
  put16(out, 2, bigEndian);
  put16(out, 4, bigEndian);
  put32(out, 0, bigEndian);
  put32(out, 0, bigEndian);
  put32(out, 64, bigEndian);
  put32(out, kLinktypeRawIpv4, bigEndian);
  return out;
}

void craftRecord(std::vector<std::uint8_t>& out, std::uint32_t tsSec,
                 std::uint32_t tsFrac, std::span<const std::uint8_t> wire,
                 bool bigEndian) {
  put32(out, tsSec, bigEndian);
  put32(out, tsFrac, bigEndian);
  put32(out, static_cast<std::uint32_t>(wire.size()), bigEndian);
  put32(out, static_cast<std::uint32_t>(wire.size()), bigEndian);
  out.insert(out.end(), wire.begin(), wire.end());
}

/// IPv4+UDP wire bytes with an arbitrary (possibly lying) UDP length field.
/// The IP total length covers the claimed UDP length (as any real stack
/// emits) unless `ipTotalLength` overrides it.
std::vector<std::uint8_t> craftUdpWire(const FlowKey& flow,
                                       std::uint16_t udpLengthField,
                                       std::uint8_t ipProtocol = kIpProtoUdp,
                                       std::uint16_t ipTotalLength = 0) {
  std::vector<std::uint8_t> wire;
  Ipv4Header ip;
  ip.totalLength =
      ipTotalLength != 0
          ? ipTotalLength
          : static_cast<std::uint16_t>(
                kIpv4HeaderSize +
                std::max<std::uint16_t>(udpLengthField, kUdpHeaderSize));
  ip.protocol = ipProtocol;
  ip.srcAddr = flow.srcIp;
  ip.dstAddr = flow.dstIp;
  encodeIpv4(ip, wire);
  UdpHeader udp;
  udp.srcPort = flow.srcPort;
  udp.dstPort = flow.dstPort;
  udp.length = udpLengthField;
  encodeUdp(udp, wire);
  return wire;
}

// The seed parser computed `udp->length - kUdpHeaderSize` unchecked: a
// length field below 8 wrapped into a ~4 GB sizeBytes. Such records must be
// skipped, and surrounding good records kept.
TEST(Pcap, UdpLengthUnderflowIsSkipped) {
  auto file = craftGlobalHeader(kPcapMagicNano, false);
  const auto bad = craftUdpWire(testFlow(), /*udpLengthField=*/4);
  craftRecord(file, 1, 0, bad, false);
  const auto good = craftUdpWire(testFlow(), kUdpHeaderSize + 100);
  craftRecord(file, 2, 0, good, false);

  PcapParseStats stats;
  const auto records = parsePcap(file, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].packet.sizeBytes, 100u);
  EXPECT_EQ(stats.skippedBadUdpLength, 1u);
  EXPECT_EQ(stats.recordsYielded, 1u);
}

// The mirror image of the underflow: a corrupt UDP length *above* the
// checksum-verified IP payload must not inflate sizeBytes (~65 KB for a
// ~100-byte packet would skew every byte-derived feature downstream).
TEST(Pcap, UdpLengthBeyondIpPayloadIsSkipped) {
  auto file = craftGlobalHeader(kPcapMagicNano, false);
  const auto bad = craftUdpWire(
      testFlow(), /*udpLengthField=*/0xFF28, kIpProtoUdp,
      /*ipTotalLength=*/kIpv4HeaderSize + kUdpHeaderSize + 100);
  craftRecord(file, 1, 0, bad, false);
  const auto good = craftUdpWire(testFlow(), kUdpHeaderSize + 100);
  craftRecord(file, 2, 0, good, false);

  PcapParseStats stats;
  const auto records = parsePcap(file, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].packet.sizeBytes, 100u);
  EXPECT_EQ(stats.skippedBadUdpLength, 1u);
}

/// IPv4 header with the given flags/fragment field, then `payload` as the
/// bytes after it (a UDP header only for a first fragment).
std::vector<std::uint8_t> craftIpWire(const FlowKey& flow,
                                      std::uint16_t flagsFragment,
                                      std::uint16_t ipTotalLength,
                                      std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> wire;
  Ipv4Header ip;
  ip.totalLength = ipTotalLength;
  ip.flagsFragment = flagsFragment;
  ip.srcAddr = flow.srcIp;
  ip.dstAddr = flow.dstIp;
  encodeIpv4(ip, wire);
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

// A later fragment's payload is datagram bytes, not a UDP header. Read as
// one, offset 185 with payload 12 34 56 78 00 32 00 00 used to come back as
// a 42-byte packet of a phantom flow 4660 -> 22136. Every fragment (MF set
// or a non-zero offset) is skipped and counted; don't-fragment is not a
// fragment.
TEST(Pcap, IpFragmentsAreSkippedAndCounted) {
  auto file = craftGlobalHeader(kPcapMagicNano, false);
  const std::vector<std::uint8_t> lookalike = {0x12, 0x34, 0x56, 0x78,
                                               0x00, 0x32, 0x00, 0x00};
  craftRecord(file, 1, 0,
              craftIpWire(testFlow(), /*offset*/ 185, kIpv4HeaderSize + 50,
                          lookalike),
              false);
  // First fragment (MF, offset 0): a real UDP header whose length covers
  // the whole datagram.
  auto first = craftUdpWire(testFlow(), kUdpHeaderSize + 3000, kIpProtoUdp,
                            kIpv4HeaderSize + 1480);
  first[6] = 0x20;  // MF
  first[10] = first[11] = 0;
  const auto firstSum =
      internetChecksum(std::span<const std::uint8_t>(first).first(20));
  first[10] = static_cast<std::uint8_t>(firstSum >> 8);
  first[11] = static_cast<std::uint8_t>(firstSum);
  craftRecord(file, 2, 0, first, false);
  // Last fragment (offset only, MF clear).
  craftRecord(file, 3, 0,
              craftIpWire(testFlow(), 370, kIpv4HeaderSize + 48, lookalike),
              false);
  // Don't-fragment set: a whole datagram, kept.
  auto whole = craftUdpWire(testFlow(), kUdpHeaderSize + 100);
  whole[6] = 0x40;  // DF
  whole[10] = whole[11] = 0;
  const auto wholeSum =
      internetChecksum(std::span<const std::uint8_t>(whole).first(20));
  whole[10] = static_cast<std::uint8_t>(wholeSum >> 8);
  whole[11] = static_cast<std::uint8_t>(wholeSum);
  craftRecord(file, 4, 0, whole, false);

  PcapParseStats stats;
  const auto records = parsePcap(file, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].flow, testFlow());
  EXPECT_EQ(records[0].packet.sizeBytes, 100u);
  EXPECT_EQ(stats.skippedFragments, 3u);
  EXPECT_EQ(stats.skippedNonUdp, 0u);
  EXPECT_EQ(stats.skippedBadUdpLength, 0u);
  EXPECT_EQ(stats.recordsYielded, 1u);
}

TEST(Pcap, NonUdpRecordsAreSkipped) {
  auto file = craftGlobalHeader(kPcapMagicNano, false);
  const auto tcp = craftUdpWire(testFlow(), kUdpHeaderSize + 50,
                                /*ipProtocol=*/6);
  craftRecord(file, 1, 0, tcp, false);
  const auto udp = craftUdpWire(testFlow(), kUdpHeaderSize + 50);
  craftRecord(file, 2, 0, udp, false);

  PcapParseStats stats;
  const auto records = parsePcap(file, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.skippedNonUdp, 1u);
}

TEST(Pcap, ByteSwappedFileParses) {
  auto file = craftGlobalHeader(kPcapMagicNano, /*bigEndian=*/true);
  const auto wire = craftUdpWire(testFlow(), kUdpHeaderSize + 250);
  craftRecord(file, 7, 42, wire, /*bigEndian=*/true);

  const auto records = parsePcap(file);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].flow, testFlow());
  EXPECT_EQ(records[0].packet.sizeBytes, 250u);
  EXPECT_EQ(records[0].packet.arrivalNs, 7 * common::kNanosPerSecond + 42);
}

TEST(Pcap, MicrosecondMagicScalesToNanos) {
  for (bool bigEndian : {false, true}) {
    auto file = craftGlobalHeader(kPcapMagicMicro, bigEndian);
    const auto wire = craftUdpWire(testFlow(), kUdpHeaderSize + 10);
    craftRecord(file, 3, 123'456, wire, bigEndian);
    const auto records = parsePcap(file);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].packet.arrivalNs,
              3 * common::kNanosPerSecond + 123'456'000LL);
  }
}

// A corrupt fractional timestamp must saturate below the next second so the
// stream stays non-decreasing (the estimators reject time running backwards).
TEST(Pcap, CorruptTimestampFractionSaturates) {
  const auto wire = craftUdpWire(testFlow(), kUdpHeaderSize + 10);

  auto nanoFile = craftGlobalHeader(kPcapMagicNano, false);
  craftRecord(nanoFile, 1, 3'000'000'000u, wire, false);  // frac >= 1e9
  craftRecord(nanoFile, 2, 0, wire, false);
  PcapParseStats nanoStats;
  const auto nanoRecords = parsePcap(nanoFile, &nanoStats);
  ASSERT_EQ(nanoRecords.size(), 2u);
  EXPECT_EQ(nanoRecords[0].packet.arrivalNs,
            1 * common::kNanosPerSecond + 999'999'999LL);
  EXPECT_LT(nanoRecords[0].packet.arrivalNs, nanoRecords[1].packet.arrivalNs);
  EXPECT_EQ(nanoStats.clampedTimestamps, 1u);

  auto microFile = craftGlobalHeader(kPcapMagicMicro, false);
  craftRecord(microFile, 1, 5'000'000u, wire, false);  // frac >= 1e6
  craftRecord(microFile, 2, 0, wire, false);
  PcapParseStats microStats;
  const auto microRecords = parsePcap(microFile, &microStats);
  ASSERT_EQ(microRecords.size(), 2u);
  EXPECT_EQ(microRecords[0].packet.arrivalNs,
            1 * common::kNanosPerSecond + 999'999'000LL);
  EXPECT_LT(microRecords[0].packet.arrivalNs,
            microRecords[1].packet.arrivalNs);
  EXPECT_EQ(microStats.clampedTimestamps, 1u);
}

TEST(Pcap, RecordClaimingMoreBytesThanRemainIsSkipped) {
  auto file = craftGlobalHeader(kPcapMagicNano, false);
  const auto wire = craftUdpWire(testFlow(), kUdpHeaderSize + 10);
  craftRecord(file, 1, 0, wire, false);
  put32(file, 2, false);  // tsSec
  put32(file, 0, false);  // tsFrac
  put32(file, 0xFFFFFF00u, false);  // capLen far beyond the buffer
  put32(file, 64, false);  // origLen

  PcapParseStats stats;
  const auto records = parsePcap(file, &stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.truncatedRecords, 1u);
}

// The writer's tsSec field is 32-bit: timestamps past 2106 (or before the
// epoch) must be rejected up front instead of silently round-tripping wrong.
TEST(Pcap, WriterRejectsTimestampsOutsideEpochRange) {
  PcapWriter writer;
  Packet p;
  p.sizeBytes = 100;
  p.arrivalNs = -1;
  EXPECT_THROW(writer.write(testFlow(), p), std::invalid_argument);
  p.arrivalNs = 5'000'000'000LL * common::kNanosPerSecond;  // year ~2128
  EXPECT_THROW(writer.write(testFlow(), p), std::invalid_argument);
  // Largest representable second still round-trips.
  p.arrivalNs = 4'294'967'295LL * common::kNanosPerSecond + 1;
  writer.write(testFlow(), p);
  const auto records = parsePcap(writer.bytes());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].packet.arrivalNs, p.arrivalNs);
}

// ------------------------------------------------- streaming readers

TEST(Pcap, StreamingReaderMatchesBatchParse) {
  common::Rng rng(99);
  PcapWriter writer;
  FlowKey other = testFlow();
  other.srcPort = 4000;
  for (int i = 0; i < 40; ++i) {
    Packet p;
    p.arrivalNs = i * 10'000'000LL;
    p.sizeBytes = static_cast<std::uint32_t>(rng.uniformInt(50, 1400));
    writer.write(i % 3 == 0 ? other : testFlow(), p);
  }
  const auto want = parsePcap(writer.bytes());

  PcapReader reader(writer.bytes());
  std::vector<PcapRecord> got;
  PcapRecord rec;
  while (reader.next(rec)) got.push_back(rec);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].flow, want[i].flow);
    EXPECT_EQ(got[i].packet.arrivalNs, want[i].packet.arrivalNs);
    EXPECT_EQ(got[i].packet.sizeBytes, want[i].packet.sizeBytes);
  }
  EXPECT_EQ(reader.stats().recordsYielded, want.size());
}

TEST(Pcap, FileReaderStreamsWithoutLoadingWholeFile) {
  PcapWriter writer;
  for (int i = 0; i < 25; ++i) {
    Packet p;
    p.arrivalNs = i * 1'000'000LL;
    p.sizeBytes = 600;
    writer.write(testFlow(), p);
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "vcaqoe_stream.pcap").string();
  writer.save(path);

  PcapFileReader reader(path);
  std::size_t count = 0;
  common::TimeNs lastArrival = -1;
  PcapRecord rec;
  while (reader.next(rec)) {
    EXPECT_GT(rec.packet.arrivalNs, lastArrival);
    lastArrival = rec.packet.arrivalNs;
    ++count;
  }
  std::remove(path.c_str());
  EXPECT_EQ(count, 25u);
  EXPECT_EQ(reader.stats().recordsYielded, 25u);
}

TEST(Pcap, FileReaderSkipsTruncatedTail) {
  PcapWriter writer;
  Packet p;
  p.sizeBytes = 400;
  writer.write(testFlow(), p);
  p.arrivalNs = 1;
  writer.write(testFlow(), p);
  auto bytes = writer.bytes();
  bytes.resize(bytes.size() - 7);
  const std::string path =
      (std::filesystem::temp_directory_path() / "vcaqoe_trunc.pcap").string();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  PcapParseStats stats;
  const auto records = loadPcap(path, &stats);
  std::remove(path.c_str());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.truncatedRecords, 1u);
}

// ------------------------------------------- block reader at the edges

/// Reads `bytes` with both readers, the file reader through a temp file,
/// and expects the same records and the same skip counters.
void expectReadersAgree(const std::vector<std::uint8_t>& bytes,
                        std::size_t expectRecords) {
  // One file per test: ctest runs the tests as parallel processes.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("vcaqoe_" +
        std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
        ".pcap"))
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  PcapReader memory(bytes);
  PcapFileReader file(path);
  PcapRecord a;
  PcapRecord b;
  std::size_t records = 0;
  for (;;) {
    const bool gotA = memory.next(a);
    const bool gotB = file.next(b);
    ASSERT_EQ(gotA, gotB) << "record " << records;
    if (!gotA) break;
    EXPECT_EQ(a.flow, b.flow) << "record " << records;
    EXPECT_EQ(a.packet.arrivalNs, b.packet.arrivalNs) << "record " << records;
    EXPECT_EQ(a.packet.sizeBytes, b.packet.sizeBytes) << "record " << records;
    EXPECT_EQ(a.packet.head, b.packet.head) << "record " << records;
    EXPECT_EQ(a.packet.headLen, b.packet.headLen) << "record " << records;
    ++records;
  }
  std::remove(path.c_str());
  EXPECT_EQ(records, expectRecords);
  EXPECT_TRUE(memory.stats() == file.stats());
}

/// Appends a record of `capLen` zero bytes (not IPv4: skipped as non-UDP).
void appendJunkRecord(std::vector<std::uint8_t>& out, std::uint32_t capLen) {
  const std::vector<std::uint8_t> junk(capLen, 0);
  craftRecord(out, 0, 0, junk, false);
}

/// One RTP-headed record as the writer emits it (16 + 48 bytes).
std::vector<std::uint8_t> headedRecord(std::int64_t second) {
  PcapWriter writer;
  Packet p;
  p.arrivalNs = second * common::kNanosPerSecond + 17;
  p.sizeBytes = 900;
  std::array<std::uint8_t, kHeadCapacity> head{};
  for (std::size_t i = 0; i < head.size(); ++i) {
    head[i] = static_cast<std::uint8_t>(0x80 + i);
  }
  p.setHead(head);
  writer.write(testFlow(), p);
  const auto& bytes = writer.bytes();
  return {bytes.begin() + kPcapGlobalHeaderSize, bytes.end()};
}

// The file reader's first read fills one block from just after the global
// header. Place a record so the block boundary falls on each of its bytes,
// header and body alike (k = 0: the record starts the next block).
TEST(Pcap, FileReaderMatchesMemoryAtEveryBlockEdgeOffset) {
  const auto target = headedRecord(5);
  const auto trailer = headedRecord(6);
  for (std::size_t k = 0; k <= target.size(); ++k) {
    SCOPED_TRACE("boundary at byte " + std::to_string(k) + " of the record");
    auto file = craftGlobalHeader(kPcapMagicNano, false);
    appendJunkRecord(file, static_cast<std::uint32_t>(
                               PcapFileReader::kBlockBytes - k -
                               kPcapRecordHeaderSize));
    file.insert(file.end(), target.begin(), target.end());
    file.insert(file.end(), trailer.begin(), trailer.end());
    ASSERT_EQ(file.size() - kPcapGlobalHeaderSize,
              PcapFileReader::kBlockBytes - k + target.size() + trailer.size());
    expectReadersAgree(file, 2);
  }
}

TEST(Pcap, FileReaderGrowsForRecordLargerThanBlock) {
  auto file = craftGlobalHeader(kPcapMagicNano, false);
  auto huge = craftUdpWire(testFlow(), kUdpHeaderSize + 1000);
  huge.resize(PcapFileReader::kBlockBytes + 5000, 0xAB);  // snap beyond IP
  craftRecord(file, 1, 0, huge, false);
  const auto normal = headedRecord(2);
  file.insert(file.end(), normal.begin(), normal.end());
  expectReadersAgree(file, 2);

  PcapParseStats stats;
  const auto records = parsePcap(file, &stats);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].packet.sizeBytes, 1000u);
  EXPECT_EQ(records[1].packet.sizeBytes, 900u);
  EXPECT_EQ(stats.truncatedRecords, 0u);
}

TEST(Pcap, FileReaderTruncatedTailInsideStraddlingRecord) {
  const auto straddler = headedRecord(3);
  // The record starts 10 bytes before the block boundary; the file ends
  // inside its header, inside its body, or one byte short of its end.
  for (const std::size_t cut : {std::size_t{12}, std::size_t{40},
                                straddler.size() - 1}) {
    SCOPED_TRACE("cut after " + std::to_string(cut) + " bytes");
    auto file = craftGlobalHeader(kPcapMagicNano, false);
    appendJunkRecord(file,
                     static_cast<std::uint32_t>(PcapFileReader::kBlockBytes -
                                                10 - kPcapRecordHeaderSize));
    file.insert(file.end(), straddler.begin(),
                straddler.begin() + static_cast<std::ptrdiff_t>(cut));
    expectReadersAgree(file, 0);
    PcapParseStats stats;
    (void)parsePcap(file, &stats);
    EXPECT_EQ(stats.truncatedRecords, 1u);
    EXPECT_EQ(stats.skippedNonUdp, 1u);
  }
}

TEST(Pcap, FileReaderMatchesMemoryReaderAcrossManyBlocks) {
  common::Rng rng(7);
  PcapWriter writer(/*snaplen=*/kIpv4HeaderSize + kUdpHeaderSize + 13);
  FlowKey other = testFlow();
  other.dstPort = 7000;
  for (int i = 0; i < 6000; ++i) {
    Packet p;
    p.arrivalNs = i * 1'000'000LL;
    p.sizeBytes = static_cast<std::uint32_t>(rng.uniformInt(0, 1400));
    std::array<std::uint8_t, kHeadCapacity> head{};
    head.fill(static_cast<std::uint8_t>(i));
    p.setHead(std::span<const std::uint8_t>(head).first(
        std::min<std::size_t>(p.sizeBytes, head.size())));
    writer.write(i % 5 == 0 ? other : testFlow(), p);
  }
  ASSERT_GT(writer.bytes().size(), 3 * PcapFileReader::kBlockBytes);
  expectReadersAgree(writer.bytes(), 6000);
}

// dominantFlow dropped its ordered map for the shared FlowKeyHash; ties must
// still resolve deterministically — by first appearance, not hash order.
TEST(Pcap, DominantFlowTieBreaksToFirstSeen) {
  FlowKey late = testFlow();  // numerically smaller tuple than `early`
  late.srcIp = 1;
  FlowKey early = testFlow();
  early.srcIp = 0xFFFFFFFFu;

  PcapWriter writer;
  for (int i = 0; i < 4; ++i) {
    Packet p;
    p.arrivalNs = 2 * i;
    p.sizeBytes = 100;
    writer.write(early, p);
    p.arrivalNs = 2 * i + 1;
    writer.write(late, p);
  }
  const auto records = parsePcap(writer.bytes());
  EXPECT_EQ(dominantFlow(records), early);
}

}  // namespace
}  // namespace vcaqoe::netflow
