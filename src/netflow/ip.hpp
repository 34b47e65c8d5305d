#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <span>
#include <vector>

/// Minimal IPv4 + UDP header codecs.
///
/// These exist so the library can ingest and emit real capture files (pcap)
/// rather than only in-memory simulation output — a monitoring deployment
/// parses exactly these headers (§2.2 of the paper: "existing network
/// monitoring systems can readily extract such information at scale").
namespace vcaqoe::netflow {

inline constexpr std::uint8_t kIpProtoUdp = 17;
inline constexpr std::size_t kIpv4HeaderSize = 20;  // no options
inline constexpr std::size_t kUdpHeaderSize = 8;

struct Ipv4Header {
  std::uint8_t tos = 0;
  std::uint16_t totalLength = 0;  // header + payload
  std::uint16_t identification = 0;
  /// Flags (top 3 bits) and fragment offset (low 13 bits, in 8-byte units)
  /// as on the wire.
  std::uint16_t flagsFragment = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kIpProtoUdp;
  std::uint32_t srcAddr = 0;
  std::uint32_t dstAddr = 0;

  /// True for any fragment of a larger datagram: more-fragments set, or a
  /// non-zero offset. Only the first fragment carries the transport header.
  bool isFragment() const { return (flagsFragment & 0x3FFF) != 0; }

  friend bool operator==(const Ipv4Header&, const Ipv4Header&) = default;
};

struct UdpHeader {
  std::uint16_t srcPort = 0;
  std::uint16_t dstPort = 0;
  std::uint16_t length = 0;  // header + payload
  std::uint16_t checksum = 0;

  friend bool operator==(const UdpHeader&, const UdpHeader&) = default;
};

/// Serializes a 20-byte option-less IPv4 header with a valid checksum.
void encodeIpv4(const Ipv4Header& h, std::vector<std::uint8_t>& out);

/// Parses an IPv4 header. Returns nullopt on truncation, wrong version, or
/// checksum mismatch. On success `consumed` is set to the header length
/// (IHL*4, options skipped).
std::optional<Ipv4Header> decodeIpv4(std::span<const std::uint8_t> data,
                                     std::size_t& consumed);

/// Serializes an 8-byte UDP header (checksum left as provided; 0 = unused,
/// which is legal for UDP over IPv4).
void encodeUdp(const UdpHeader& h, std::vector<std::uint8_t>& out);

/// Parses a UDP header; nullopt on truncation or length < 8.
std::optional<UdpHeader> decodeUdp(std::span<const std::uint8_t> data);

/// Renders a dotted-quad string for logging.
std::string ipToString(std::uint32_t addr);

/// Parses "a.b.c.d"; returns nullopt on malformed input.
std::optional<std::uint32_t> parseIp(const std::string& dotted);

}  // namespace vcaqoe::netflow
