// Fuzz target: the binary pcap framing layer.
//
// `PcapReader` must never read out of bounds, loop forever, or throw
// anything but the documented std::runtime_error on a bad global header —
// per-record damage is forgiving-by-design (malformed records are skipped
// and counted, not fatal).
//
// Differential leg: the block-buffered `PcapFileReader` must yield exactly
// the records and skip counters `PcapReader` yields on the same bytes. The
// input's record bytes are repeated until the capture spans more than two
// read blocks, so records straddle block boundaries at offsets the input
// decides; any disagreement aborts.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "netflow/pcap.hpp"

namespace {

using vcaqoe::netflow::kPcapGlobalHeaderSize;
using vcaqoe::netflow::PcapFileReader;
using vcaqoe::netflow::PcapReader;
using vcaqoe::netflow::PcapRecord;

bool sameRecord(const PcapRecord& a, const PcapRecord& b) {
  return a.flow == b.flow && a.packet.arrivalNs == b.packet.arrivalNs &&
         a.packet.sizeBytes == b.packet.sizeBytes &&
         a.packet.headLen == b.packet.headLen && a.packet.head == b.packet.head;
}

void checkFileReaderAgrees(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> capture(bytes.begin(),
                                    bytes.begin() + kPcapGlobalHeaderSize);
  const auto records = bytes.subspan(kPcapGlobalHeaderSize);
  while (!records.empty() &&
         capture.size() <=
             kPcapGlobalHeaderSize + 2 * PcapFileReader::kBlockBytes) {
    capture.insert(capture.end(), records.begin(), records.end());
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("vcaqoe_fuzz_pcap_" + std::to_string(::getpid()) + ".pcap"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(capture.data()),
              static_cast<std::streamsize>(capture.size()));
    if (!out) std::abort();
  }
  PcapReader memory(capture);
  PcapFileReader file(path);
  PcapRecord a;
  PcapRecord b;
  for (;;) {
    const bool gotA = memory.next(a);
    const bool gotB = file.next(b);
    if (gotA != gotB || (gotA && !sameRecord(a, b))) std::abort();
    if (!gotA) break;
  }
  if (!(memory.stats() == file.stats())) std::abort();
  std::remove(path.c_str());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);
  try {
    PcapReader reader(bytes);
    PcapRecord record;
    while (reader.next(record)) {
      // Touch everything the reader handed out so sanitizers see every
      // byte as in-bounds.
      std::uint64_t checksum = record.packet.sizeBytes;
      for (std::uint8_t i = 0; i < record.packet.headLen; ++i) {
        checksum += record.packet.head[i];
      }
      checksum += record.flow.srcIp + record.flow.dstIp;
      (void)checksum;
    }
    (void)reader.stats();
  } catch (const std::runtime_error&) {
    // Bad global header: the one documented failure mode.
    return 0;
  }

  (void)vcaqoe::netflow::parsePcap(bytes);
  checkFileReaderAgrees(bytes);
  return 0;
}
