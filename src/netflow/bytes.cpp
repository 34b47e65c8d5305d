#include "netflow/bytes.hpp"

#include <bit>
#include <cstring>

namespace vcaqoe::netflow {

std::uint16_t internetChecksum(std::span<const std::uint8_t> data) {
  // One's-complement addition does not care about byte order (RFC 1071
  // §2(B)): sum the bytes as host-order 32-bit words, fold, and swap the
  // result back to network order on a little-endian host. Five loads for
  // an option-less IPv4 header instead of twenty byte loads.
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 4 <= data.size(); i += 4) {
    std::uint32_t word = 0;
    std::memcpy(&word, data.data() + i, sizeof(word));
    sum += word;
  }
  if (i + 2 <= data.size()) {
    std::uint16_t half = 0;
    std::memcpy(&half, data.data() + i, sizeof(half));
    sum += half;
    i += 2;
  }
  if (i < data.size()) {
    // An odd trailing byte is padded with a zero byte after it.
    const std::uint8_t pad[2] = {data[i], 0};
    std::uint16_t half = 0;
    std::memcpy(&half, pad, sizeof(half));
    sum += half;
  }
  // Fold 64 -> 16 bits in a fixed number of steps (no data-dependent loop
  // branch to mispredict): <= 2^33, <= 2^32, <= 0x1FFFF, <= 0x10000,
  // <= 0xFFFF.
  sum = (sum & 0xFFFFFFFF) + (sum >> 32);
  sum = (sum & 0xFFFFFFFF) + (sum >> 32);
  sum = (sum & 0xFFFF) + (sum >> 16);
  sum = (sum & 0xFFFF) + (sum >> 16);
  sum = (sum & 0xFFFF) + (sum >> 16);
  auto folded = static_cast<std::uint16_t>(~sum);
  if constexpr (std::endian::native == std::endian::little) {
    folded = static_cast<std::uint16_t>((folded << 8) | (folded >> 8));
  }
  return folded;
}

}  // namespace vcaqoe::netflow
