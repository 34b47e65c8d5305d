// Seed-corpus generator: `fuzz_corpus_gen <corpus-root>` (re)writes the
// seed inputs under `<corpus-root>/<target>/`.
//
// Seeds come from the repo's own writers (PcapWriter, rtp::encode,
// saveForest/saveFlattenedForest, JsonValue::dump) so every happy-path
// format feature is represented, plus hand-built regression inputs for the
// bugs the tooling has found — a fuzzer that starts from valid artifacts
// reaches the deep parser states orders of magnitude faster than from
// garbage. Crash artifacts found later get minimized and added next to
// these (see fuzz/README.md).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json_writer.hpp"
#include "engine/synthetic.hpp"
#include "ml/serialize.hpp"
#include "netflow/pcap.hpp"
#include "rtp/rtp.hpp"

namespace {

namespace fs = std::filesystem;

void writeFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

void writeFile(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  writeFile(path, std::string(bytes.begin(), bytes.end()));
}

void genPcap(const fs::path& dir) {
  using namespace vcaqoe;
  // A small but real capture: two interleaved synthetic flows, one of them
  // RTP-headed, written by the repo's own PcapWriter.
  netflow::PcapWriter writer;
  const auto keyA = engine::syntheticFlowKey(0);
  const auto keyB = engine::syntheticFlowKey(1);
  const auto traceA = engine::syntheticFlowTrace(7, 20, common::secondsToNs(1));
  const auto traceB =
      engine::syntheticRtpFlowTrace(8, 20, common::secondsToNs(1));
  for (std::size_t i = 0; i < traceA.size(); ++i) {
    writer.write(keyA, traceA[i]);
    writer.write(keyB, traceB[i]);
  }
  writeFile(dir / "two-flows.pcap", writer.bytes());

  // Header-only capture and a mid-record truncation: the skip/stats paths.
  netflow::PcapWriter empty;
  writeFile(dir / "header-only.pcap", empty.bytes());
  auto truncated = writer.bytes();
  truncated.resize(truncated.size() - 11);
  writeFile(dir / "truncated-record.pcap", truncated);

  // Regression: a later IPv4 fragment whose payload looks like a UDP header
  // (offset 185, bytes 12 34 56 78 00 32 00 00) used to come back as a
  // 42-byte packet of a phantom flow 4660 -> 22136. It must be skipped and
  // counted; the whole datagram after it is kept.
  auto fragments = empty.bytes();
  const auto appendRecord = [&fragments](std::uint32_t tsSec,
                                         const std::vector<std::uint8_t>& wire) {
    for (const std::uint32_t field :
         {tsSec, 0u, static_cast<std::uint32_t>(wire.size()),
          static_cast<std::uint32_t>(wire.size())}) {
      for (int shift = 0; shift < 32; shift += 8) {
        fragments.push_back(static_cast<std::uint8_t>(field >> shift));
      }
    }
    fragments.insert(fragments.end(), wire.begin(), wire.end());
  };
  netflow::Ipv4Header ip;
  ip.totalLength = netflow::kIpv4HeaderSize + 50;
  ip.flagsFragment = 185;
  ip.srcAddr = keyA.srcIp;
  ip.dstAddr = keyA.dstIp;
  std::vector<std::uint8_t> wire;
  netflow::encodeIpv4(ip, wire);
  wire.insert(wire.end(), {0x12, 0x34, 0x56, 0x78, 0x00, 0x32, 0x00, 0x00});
  appendRecord(1, wire);
  netflow::PcapWriter whole;
  whole.write(keyA, traceA.front());
  const auto& wholeBytes = whole.bytes();
  fragments.insert(fragments.end(),
                   wholeBytes.begin() + netflow::kPcapGlobalHeaderSize,
                   wholeBytes.end());
  writeFile(dir / "fragment-lookalike.pcap", fragments);
}

void genRtp(const fs::path& dir) {
  using namespace vcaqoe;
  rtp::RtpHeader header;
  header.payloadType = engine::kSyntheticVideoPt;
  header.marker = true;
  header.sequenceNumber = 65534;  // near wraparound
  header.timestamp = 0x12345678;
  header.ssrc = 0xDEADBEEF;
  std::vector<std::uint8_t> encoded;
  rtp::encode(header, encoded);
  writeFile(dir / "video-marker.rtp", encoded);

  encoded.clear();
  header.marker = false;
  header.payloadType = engine::kSyntheticAudioPt;
  rtp::encode(header, encoded);
  encoded.insert(encoded.end(), {0x01, 0x02, 0x03, 0x04});  // payload tail
  writeFile(dir / "audio-with-payload.rtp", encoded);

  // Version != 2 (rejected: how DTLS/STUN on the same flow is skipped) and
  // a short buffer.
  writeFile(dir / "wrong-version.rtp", std::string("\x00\x60 short", 8));
  writeFile(dir / "short.rtp", std::string("\x80", 1));
}

void genForest(const fs::path& dir) {
  using namespace vcaqoe;
  const auto forest = engine::syntheticForest(3, 3, 25.0);
  std::ostringstream tree;
  ml::saveForest(forest, tree);
  writeFile(dir / "synthetic.forest", tree.str());

  std::ostringstream flat;
  ml::saveFlattenedForest(ml::FlattenedForest(forest), flat);
  writeFile(dir / "synthetic.fforest", flat.str());

  const auto stump = engine::syntheticForest(1, 0, 30.0);
  std::ostringstream stumpText;
  ml::saveForest(stump, stumpText);
  writeFile(dir / "stump.forest", stumpText.str());

  // A `layout quantized` line between the task and features lines, the
  // marker of a deleted opt-in layout: the flat loader must reject it, where
  // the reference still loads the full-precision payload after it.
  std::string quantized = flat.str();
  quantized.insert(quantized.find('\n', quantized.find("task ")) + 1,
                   "layout quantized\n");
  writeFile(dir / "quantized.fforest", quantized);

  // Regression: node 0 pointing at itself passed the pure range checks and
  // hung DecisionTree::predict / flattening forever. loadForest must
  // reject it ("child references do not point forward").
  writeFile(dir / "cyclic-tree.forest",
            "vcaqoe-forest 1\n"
            "task regression\n"
            "features 1 f0\n"
            "importance 1 1\n"
            "trees 1\n"
            "tree 2\n"
            "0 0.5 0 1 0\n"
            "-1 0 0 0 3.25\n");

  // Declared counts past the bytes left: the loaders used to zero-fill the
  // arrays (320 MiB flat, 512 MiB node tree) before failing as truncated.
  // The count bound must reject both before allocating.
  writeFile(dir / "nodes-past-eof.fforest",
            "vcaqoe-forest-flat 1\ntask regression\nfeatures 1\n"
            "roots 1 0\nnodes 16777216\n0 0.5 -1 -2\n");
  writeFile(dir / "tree-past-eof.forest",
            "vcaqoe-forest 1\ntask regression\nfeatures 1 x\n"
            "importance 1 1\ntrees 1\ntree 16777216\n-1 0 0 0 3.25\n");

  // Regression: zero trees loaded as an unfitted forest whose predict threw
  // std::logic_error, aborting the harness. loadForest must reject it.
  writeFile(dir / "trees-zero.forest",
            "vcaqoe-forest 1\ntask regression\nfeatures 0\nimportance 0\n"
            "trees 0\n");

  // Tokens where from_chars and istream >> disagree, which the loaders must
  // read as istream did. These load: CRLF line ends, tabs, '+' signs, an
  // underflowing threshold (reads as 0), -0 and a denormal leaf, numbers
  // glued by their signs, no final newline.
  writeFile(dir / "edge-tokens.fforest",
            "vcaqoe-forest-flat 1\r\ntask\tregression\r\nfeatures +1\r\n"
            "roots 1 +0\r\nnodes 2\r\n0 +.5 -1 1\r\n0 1e-400-2-3\r\n"
            "leaves 3 -0 4.9406564584124654e-324 1e5\r\nend");
  writeFile(dir / "edge-tokens.forest",
            "vcaqoe-forest 1\r\ntask\tregression\r\nfeatures +1 x\r\n"
            "importance 1 +1\r\ntrees 1\r\ntree 3\r\n0 0.5 1+2-0\r\n"
            "-1 0 0 0 -1e-400\r\n-1\t0\t0\t0\t7");
  // These fail: "inf", an exponent without digits ("5end"), an int32
  // child reference one past INT32_MAX.
  const std::string flatHead =
      "vcaqoe-forest-flat 1\ntask regression\nfeatures 1\nroots 1 0\n"
      "nodes 1\n";
  writeFile(dir / "inf-threshold.fforest",
            flatHead + "0 inf -1 -2\nleaves 2 1 2\nend\n");
  writeFile(dir / "dangling-exponent.fforest",
            flatHead + "0 0.5 -1 -2\nleaves 2 1 5end\n");
  writeFile(dir / "child-overflow.fforest",
            flatHead + "0 0.5 2147483648 -2\nleaves 2 1 2\nend\n");
}

void genJson(const fs::path& dir) {
  using namespace vcaqoe;
  // A bench-report-shaped document via the repo's own writer.
  auto doc = common::JsonValue::object();
  doc.set("bench", "fig04_error");
  doc.set("windows", 128);
  auto& series = doc.set("series", common::JsonValue::array());
  for (int i = 0; i < 4; ++i) {
    auto row = common::JsonValue::object();
    row.set("fps", 27.5 + i);
    row.set("ok", i % 2 == 0);
    row.set("label", "w" + std::to_string(i));
    series.push(std::move(row));
  }
  writeFile(dir / "bench-report.json", doc.dump(2));

  // Escapes and surrogate pairs through the string decoder.
  writeFile(dir / "strings.json",
            R"(["Aé中😀", "\"\\\/\b\f\n\r\t"])");

  // Depth-cap edges: exactly at the cap (parses) and just past it
  // (rejected without unbounded recursion).
  writeFile(dir / "depth-at-cap.json",
            std::string(64, '[') + std::string(64, ']'));
  writeFile(dir / "depth-past-cap.json",
            std::string(66, '[') + std::string(66, ']'));

  // Regression: out-of-range exponents used to come back 0.0 because
  // from_chars leaves the output unmodified on result_out_of_range; they
  // must clamp to +/-inf / +/-0 by sign like strtod.
  writeFile(dir / "huge-exponent.json",
            R"([1e999999, -1e999999, 1e-999999, -1e-999999, 1e308, 5e-324])");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  for (const auto* target : {"pcap_reader", "rtp_decode", "fforest_load",
                             "json_parse"}) {
    fs::create_directories(root / target);
  }
  genPcap(root / "pcap_reader");
  genRtp(root / "rtp_decode");
  genForest(root / "fforest_load");
  genJson(root / "json_parse");
  std::fprintf(stderr, "corpus written under %s\n", root.string().c_str());
  return 0;
}
