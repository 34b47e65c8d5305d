#include "netflow/ip.hpp"

#include <charconv>
#include <string>

#include "netflow/bytes.hpp"

namespace vcaqoe::netflow {

void encodeIpv4(const Ipv4Header& h, std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  ByteWriter w(out);
  w.u8(0x45);  // version 4, IHL 5
  w.u8(h.tos);
  w.u16(h.totalLength);
  w.u16(h.identification);
  w.u16(h.flagsFragment);
  w.u8(h.ttl);
  w.u8(h.protocol);
  w.u16(0);  // checksum placeholder
  w.u32(h.srcAddr);
  w.u32(h.dstAddr);
  const std::uint16_t csum = internetChecksum(
      std::span<const std::uint8_t>(out).subspan(start, kIpv4HeaderSize));
  out[start + 10] = static_cast<std::uint8_t>(csum >> 8);
  out[start + 11] = static_cast<std::uint8_t>(csum);
}

std::optional<Ipv4Header> decodeIpv4(std::span<const std::uint8_t> data,
                                     std::size_t& consumed) {
  if (data.size() < kIpv4HeaderSize) return std::nullopt;
  const std::uint8_t versionIhl = data[0];
  if ((versionIhl >> 4) != 4) return std::nullopt;
  const std::size_t ihl = static_cast<std::size_t>(versionIhl & 0x0F) * 4;
  if (ihl < kIpv4HeaderSize || data.size() < ihl) return std::nullopt;
  if (internetChecksum(data.subspan(0, ihl)) != 0) return std::nullopt;

  ByteReader r(data);
  Ipv4Header h;
  r.skip(1);
  h.tos = r.u8();
  h.totalLength = r.u16();
  h.identification = r.u16();
  h.flagsFragment = r.u16();
  h.ttl = r.u8();
  h.protocol = r.u8();
  r.skip(2);  // checksum (verified above)
  h.srcAddr = r.u32();
  h.dstAddr = r.u32();
  consumed = ihl;
  return h;
}

void encodeUdp(const UdpHeader& h, std::vector<std::uint8_t>& out) {
  ByteWriter w(out);
  w.u16(h.srcPort);
  w.u16(h.dstPort);
  w.u16(h.length);
  w.u16(h.checksum);
}

std::optional<UdpHeader> decodeUdp(std::span<const std::uint8_t> data) {
  if (data.size() < kUdpHeaderSize) return std::nullopt;
  ByteReader r(data);
  UdpHeader h;
  h.srcPort = r.u16();
  h.dstPort = r.u16();
  h.length = r.u16();
  h.checksum = r.u16();
  if (h.length < kUdpHeaderSize) return std::nullopt;
  return h;
}

std::string ipToString(std::uint32_t addr) {
  return std::to_string((addr >> 24) & 0xFF) + "." +
         std::to_string((addr >> 16) & 0xFF) + "." +
         std::to_string((addr >> 8) & 0xFF) + "." +
         std::to_string(addr & 0xFF);
}

std::optional<std::uint32_t> parseIp(const std::string& dotted) {
  std::uint32_t addr = 0;
  const char* p = dotted.data();
  const char* end = dotted.data() + dotted.size();
  for (int octet = 0; octet < 4; ++octet) {
    unsigned value = 0;
    auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc{} || value > 255) return std::nullopt;
    addr = (addr << 8) | value;
    p = next;
    if (octet < 3) {
      if (p == end || *p != '.') return std::nullopt;
      ++p;
    }
  }
  if (p != end) return std::nullopt;
  return addr;
}

}  // namespace vcaqoe::netflow
