// pcap_monitor: capture -> replay -> engine, the full ingest path.
//
// The ISP deployment loop of the paper (§1, §7) on real capture files: a
// classic-pcap capture (or a synthesized stand-in) is streamed through
// PcapReplaySource into the sharded MultiFlowEngine with idle-flow eviction
// enabled, and the per-flow lifecycle stats come out as a monitor dashboard.
//
// Usage:
//   pcap_monitor [capture.pcap] [options]
//     --workers N          engine worker threads (default 4)
//     --batch N            cross-flow inference batch size per shard: hold
//                          up to N completed windows (bounded by ~N seconds
//                          of stream time) and predict them with one
//                          batched call per backend; <= 1 = per-window
//                          inference (default 1). Output is bit-identical
//                          either way.
//     --idle-timeout-s S   evict flows idle > S seconds, 0 = never (default 30)
//     --pace X             replay speed: 0 = as fast as possible (default),
//                          1 = real time, 2 = twice real time, ...
//     --pump-s S           live-mode idle kick: every S seconds of stream
//                          time (checked at packet boundaries), flush
//                          pending dispatch buffers and run the shards'
//                          inference-batcher deadline checks so results
//                          keep surfacing while packets flow (default:
//                          1 s when paced, off otherwise; 0 disables)
//     --synth-flows K      no capture file: synthesize K flows (default 6)
//     --feature-set S      feature family every flow's estimator computes:
//                          ipudp (14-wide, default) or rtp (24-wide; packet
//                          heads are parsed as RTP, video classified by
//                          payload type). Synthesized captures carry real
//                          RTP headers when rtp is selected. Anything else
//                          exits 2 with usage.
//     --model-dir DIR      warm-model registry root; per-VCA forests are
//                          lazy-loaded from DIR/<vca>/<set>/<target>.fforest
//                          or .forest at flow admission, <set> being the
//                          --feature-set name (see README "Registry layout
//                          on disk")
//     --synth-model        instead of --model-dir: register a synthetic
//                          teams frame-rate forest (sized to the selected
//                          feature set) so the inference (and
//                          batched-inference) path runs out of the box
//     --target LIST        comma-separated prediction targets to resolve
//                          (frame_rate,bitrate_kbps,frame_jitter_ms,
//                          resolution; default: all)
//
// Without a capture argument the tool synthesizes a multi-flow capture to a
// temp file first, so the example is runnable out of the box. An unreadable
// capture or one yielding zero packets is an error (non-zero exit), not an
// all-zero report.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "common/time.hpp"
#include "engine/multi_flow_engine.hpp"
#include "features/feature_vector.hpp"
#include "engine/synthetic.hpp"
#include "inference/model_registry.hpp"
#include "ingest/pcap_replay.hpp"
#include "ingest/replay_driver.hpp"
#include "netflow/pcap.hpp"

using namespace vcaqoe;

namespace {

struct Args {
  std::string capturePath;
  int workers = 4;
  int batch = 1;
  double idleTimeoutS = 30.0;
  double pace = 0.0;
  double pumpS = -1.0;  // -1 = auto: 1 s of stream time when paced, else off
  int synthFlows = 6;
  features::FeatureSet featureSet = features::FeatureSet::kIpUdp;
  std::string modelDir;
  bool synthModel = false;
  std::vector<inference::QoeTarget> targets;
};

void usage(const char* flag, const char* expected, const char* got) {
  std::fprintf(stderr,
               "pcap_monitor: %s expects %s, got '%s'\n"
               "usage: pcap_monitor [capture.pcap] [--workers N] [--batch N] "
               "[--idle-timeout-s S] [--pace X] [--pump-s S] "
               "[--synth-flows K] [--feature-set rtp|ipudp] "
               "[--model-dir DIR] [--synth-model] [--target LIST]\n",
               flag, expected, got);
}

bool parseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Strict numeric operands: the whole token must parse (from_chars with
    // full consumption) and sit in the flag's valid range. `--workers abc`
    // or `--pace 1x` is a usage error with a non-zero exit, never a silent
    // 0 the way atof would have it.
    auto intValue = [&](int& out, int min) {
      if (i + 1 >= argc) {
        usage(arg.c_str(), "an integer operand", "(nothing)");
        return false;
      }
      const char* token = argv[++i];
      const auto parsed = common::parseInt(token);
      if (!parsed || *parsed < min || *parsed > 1'000'000) {
        usage(arg.c_str(),
              min > 0 ? "a positive integer" : "a non-negative integer",
              token);
        return false;
      }
      out = static_cast<int>(*parsed);
      return true;
    };
    auto doubleValue = [&](double& out, double min) {
      if (i + 1 >= argc) {
        usage(arg.c_str(), "a numeric operand", "(nothing)");
        return false;
      }
      const char* token = argv[++i];
      const auto parsed = common::parseDouble(token);
      if (!parsed || *parsed < min) {
        usage(arg.c_str(), "a non-negative number", token);
        return false;
      }
      out = *parsed;
      return true;
    };
    auto text = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string s;
    if (arg == "--workers") {
      if (!intValue(args.workers, 1)) return false;
    } else if (arg == "--batch") {
      if (!intValue(args.batch, 1)) return false;
    } else if (arg == "--idle-timeout-s") {
      if (!doubleValue(args.idleTimeoutS, 0.0)) return false;
    } else if (arg == "--pace") {
      if (!doubleValue(args.pace, 0.0)) return false;
    } else if (arg == "--pump-s") {
      if (!doubleValue(args.pumpS, 0.0)) return false;
    } else if (arg == "--synth-flows") {
      if (!intValue(args.synthFlows, 1)) return false;
    } else if (arg == "--feature-set") {
      // Strict enum operand, same contract as the numeric flags: an unknown
      // value is a usage error (exit 2), never a silent default.
      if (!text(s)) {
        usage(arg.c_str(), "rtp or ipudp", "(nothing)");
        return false;
      }
      const auto set = features::featureSetFromString(s);
      if (!set.has_value()) {
        usage(arg.c_str(), "rtp or ipudp", s.c_str());
        return false;
      }
      args.featureSet = *set;
    } else if (arg == "--model-dir" && text(s)) {
      args.modelDir = s;
    } else if (arg == "--synth-model") {
      args.synthModel = true;
    } else if (arg == "--target" && text(s)) {
      // Comma-separated target slugs.
      std::size_t start = 0;
      while (start <= s.size()) {
        const auto comma = s.find(',', start);
        const auto token =
            s.substr(start, comma == std::string::npos ? comma : comma - start);
        if (!token.empty()) {
          const auto target = inference::targetFromString(token);
          if (!target.has_value()) {
            std::fprintf(stderr,
                         "unknown --target '%s' (expected one of: frame_rate, "
                         "bitrate_kbps, frame_jitter_ms, resolution)\n",
                         token.c_str());
            return false;
          }
          args.targets.push_back(*target);
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (!arg.empty() && arg[0] != '-' && args.capturePath.empty()) {
      args.capturePath = arg;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Synthesizes a staggered multi-flow capture: sessions start (and end) at
/// different times so idle eviction has something to reclaim mid-replay.
/// With kRtp the packets carry real encoded RTP headers (the pcap writer
/// persists payload heads, so they survive the round trip).
std::string synthesizeCapture(int flows, features::FeatureSet set) {
  const bool rtp = set == features::FeatureSet::kRtp;
  std::vector<ingest::SourcePacket> stream;
  for (int f = 0; f < flows; ++f) {
    const auto key = engine::syntheticFlowKey(static_cast<std::uint32_t>(f));
    const auto seed = 0xC0FFEE + static_cast<std::uint64_t>(f);
    const int packets = 2500 + 500 * (f % 3);
    const auto startNs =
        static_cast<common::TimeNs>(f) * 2 * common::kNanosPerSecond;
    const auto trace = rtp
                           ? engine::syntheticRtpFlowTrace(seed, packets,
                                                           startNs)
                           : engine::syntheticFlowTrace(seed, packets, startNs);
    for (const auto& packet : trace) stream.push_back({key, packet});
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const ingest::SourcePacket& a,
                      const ingest::SourcePacket& b) {
                     return a.packet.arrivalNs < b.packet.arrivalNs;
                   });
  netflow::PcapWriter writer;
  for (const auto& sp : stream) writer.write(sp.flow, sp.packet);
  const std::string path =
      (std::filesystem::temp_directory_path() / "vcaqoe_monitor_synth.pcap")
          .string();
  writer.save(path);
  std::printf("synthesized %zu-packet / %d-flow capture at %s\n\n",
              stream.size(), flows, path.c_str());
  return path;
}

std::string flowLabel(const netflow::FlowKey& key) {
  return netflow::ipToString(key.srcIp) + ":" + std::to_string(key.srcPort) +
         " > " + netflow::ipToString(key.dstIp) + ":" +
         std::to_string(key.dstPort);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) return 2;

  const bool synthesized = args.capturePath.empty();
  if (synthesized) {
    args.capturePath = synthesizeCapture(args.synthFlows, args.featureSet);
  }

  engine::EngineOptions options;
  options.streaming.featureSet = args.featureSet;
  if (args.featureSet == features::FeatureSet::kRtp) {
    // The RTP estimator classifies video by payload type; wire the
    // synthetic traffic's PTs (a real deployment would set these from the
    // VCA profile under observation).
    options.streaming.extraction.videoPt = engine::kSyntheticVideoPt;
    options.streaming.extraction.rtxPt = engine::kSyntheticRtxPt;
  }
  options.numWorkers = args.workers;
  options.inferenceBatch =
      args.batch > 1 ? static_cast<std::size_t>(args.batch) : 1;
  // Batch-scaled flush deadline so "hold up to N windows" is what actually
  // runs (the default 0 would flush at every dispatch boundary).
  options.inferenceFlushNs =
      engine::scaledInferenceFlushNs(options.inferenceBatch);
  options.idleTimeoutNs = common::secondsToNs(args.idleTimeoutS);
  if (args.synthModel && !args.modelDir.empty()) {
    std::fprintf(stderr, "--synth-model and --model-dir are exclusive\n");
    return 2;
  }
  const bool withModels = !args.modelDir.empty() || args.synthModel;
  if (withModels) {
    inference::ModelRegistryOptions registryOptions;
    registryOptions.modelDir = args.modelDir;
    options.registry =
        std::make_shared<inference::ModelRegistry>(registryOptions);
    if (args.synthModel) {
      // The synthesized flows carry the Teams media port, so every flow
      // admission resolves this shared backend. The forest is sized (and
      // the registry keyed) to the selected feature set.
      const auto width =
          static_cast<int>(features::featureCount(args.featureSet));
      const std::string name =
          "forest:teams/" + std::string(features::toString(args.featureSet)) +
          "/frame_rate";
      options.registry->registerBackend(
          "teams", inference::QoeTarget::kFrameRate,
          std::make_shared<inference::ForestBackend>(
              engine::syntheticForest(10, 6, 30.0, width),
              inference::QoeTarget::kFrameRate, name,
              features::featureCount(args.featureSet)),
          args.featureSet);
    }
    options.targets = args.targets;  // empty = all targets
  } else if (!args.targets.empty()) {
    std::fprintf(stderr, "--target requires --model-dir or --synth-model\n");
    return 2;
  }
  engine::MultiFlowEngine eng(options);

  ingest::ReplayOptions replayOptions;
  replayOptions.paceMultiplier = args.pace;
  // Paced (live-shaped) mode defaults the idle kick on: stream time tracks
  // wall time, so pumping each second bounds wall-clock result latency.
  const double pumpS = args.pumpS >= 0 ? args.pumpS : (args.pace > 0 ? 1.0 : 0);
  const common::DurationNs pumpIntervalNs = common::secondsToNs(pumpS);

  // The engine ignores inferenceBatch without a registry (nothing to
  // predict); the banner must reflect what actually runs.
  const bool batching = withModels && options.inferenceBatch > 1;
  const std::string batchLabel =
      batching ? std::to_string(options.inferenceBatch) : "off";
  if (args.batch > 1 && !withModels) {
    std::fprintf(stderr,
                 "note: --batch has no effect without --model-dir or "
                 "--synth-model (no models to predict with)\n");
  }
  const std::string pumpLabel =
      pumpIntervalNs > 0 ? common::TextTable::num(pumpS, 1) + " s" : "off";
  std::printf(
      "replaying %s (%d workers, feature set %s, batch %s, idle timeout "
      "%.0f s, pace %s, pump %s%s%s)\n\n",
      args.capturePath.c_str(), eng.numWorkers(),
      std::string(features::toString(args.featureSet)).c_str(),
      batchLabel.c_str(), args.idleTimeoutS,
      args.pace > 0 ? std::to_string(args.pace).c_str() : "off",
      pumpLabel.c_str(), withModels ? ", models from " : "",
      withModels ? (args.synthModel ? "synthetic" : args.modelDir.c_str())
                 : "");

  ingest::ReplayReport report;
  netflow::PcapParseStats parse;
  try {
    ingest::PcapReplaySource source(args.capturePath, replayOptions);
    report = ingest::replay(source, eng, /*pollEvery=*/1024, pumpIntervalNs);
    parse = source.parseStats();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: cannot replay %s: %s\n",
                 args.capturePath.c_str(), e.what());
    if (synthesized) std::remove(args.capturePath.c_str());
    return 1;
  }
  if (report.packets == 0) {
    std::fprintf(stderr,
                 "error: %s yielded no UDP packets (empty or non-UDP "
                 "capture) — nothing to monitor\n",
                 args.capturePath.c_str());
    if (synthesized) std::remove(args.capturePath.c_str());
    return 1;
  }

  // ---- per-flow dashboard
  std::vector<std::string> columns = {"id",      "flow",     "packets", "KB",
                                      "windows", "span [s]", "state"};
  if (withModels) {
    columns.push_back("vca");
    columns.push_back("backend");
  }
  common::TextTable table(columns);
  for (std::size_t id = 0; id < eng.flowStats().size(); ++id) {
    const auto& fs = eng.flowStats()[id];
    const double spanS =
        common::nsToSeconds(fs.lastArrivalNs - fs.firstArrivalNs);
    std::vector<std::string> row = {
        std::to_string(id),
        flowLabel(fs.key),
        std::to_string(fs.packets),
        common::TextTable::num(static_cast<double>(fs.bytes) / 1024.0, 1),
        std::to_string(fs.windowsEmitted),
        common::TextTable::num(spanS, 1),
        fs.evicted ? "evicted" : "active"};
    if (withModels) {
      row.push_back(fs.vca.empty() ? "-" : fs.vca);
      const auto backendName = fs.backendName();
      row.push_back(backendName.empty() ? "-" : std::string(backendName));
    }
    table.addRow(row);
  }
  std::printf("%s\n", table.render().c_str());

  // ---- totals
  const auto& stats = report.engineStats;
  std::size_t predictedWindows = 0;
  for (const auto& result : report.results) {
    if (!result.output.predictions.empty()) ++predictedWindows;
  }
  std::printf("packets replayed   %llu\n",
              static_cast<unsigned long long>(report.packets));
  std::printf("window results     %zu (ipudp %llu, rtp %llu)\n",
              report.results.size(),
              static_cast<unsigned long long>(stats.windowsIpUdp),
              static_cast<unsigned long long>(stats.windowsRtp));
  if (withModels) {
    std::printf("windows predicted  %zu\n", predictedWindows);
    if (options.inferenceBatch > 1) {
      std::printf(
          "inference batches  %llu (%llu windows batched, ~%.1f "
          "windows/batch)\n",
          static_cast<unsigned long long>(stats.inferenceBatches),
          static_cast<unsigned long long>(stats.batchedWindows),
          stats.inferenceBatches > 0
              ? static_cast<double>(stats.batchedWindows) /
                    static_cast<double>(stats.inferenceBatches)
              : 0.0);
    }
    std::printf(
        "model registry     hits %llu, misses %llu, loads %llu, "
        "load failures %llu, load time %.2f ms\n",
        static_cast<unsigned long long>(stats.registry.hits),
        static_cast<unsigned long long>(stats.registry.misses),
        static_cast<unsigned long long>(stats.registry.loads),
        static_cast<unsigned long long>(stats.registry.loadFailures),
        static_cast<double>(stats.registry.loadWallNs) / 1e6);
  }
  std::printf("flows seen         %zu (peak resident bounded by eviction)\n",
              stats.flows);
  std::printf("flows evicted      %llu\n",
              static_cast<unsigned long long>(stats.flowsEvicted));
  std::printf("flows resident     %zu\n", stats.activeFlows);
  std::printf("demux cache        %llu/%llu lookups served (%.1f%%)\n",
              static_cast<unsigned long long>(stats.demuxCacheHits),
              static_cast<unsigned long long>(stats.demuxCacheLookups),
              stats.demuxCacheLookups > 0
                  ? 100.0 * static_cast<double>(stats.demuxCacheHits) /
                        static_cast<double>(stats.demuxCacheLookups)
                  : 0.0);
  std::printf("batch pool waits   %llu\n",
              static_cast<unsigned long long>(stats.poolWaits));
  for (std::size_t s = 0; s < stats.shardLoads.size(); ++s) {
    std::printf("shard %-2zu           %llu pkts\n", s,
                static_cast<unsigned long long>(
                    stats.shardLoads[s].packetsProcessed));
  }
  if (parse.skippedNonUdp + parse.skippedBadUdpLength +
          parse.skippedFragments + parse.truncatedRecords +
          parse.clampedTimestamps >
      0) {
    std::printf(
        "parser skips       non-UDP %llu, bad UDP length %llu, IP fragments "
        "%llu, truncated %llu, clamped timestamps %llu\n",
        static_cast<unsigned long long>(parse.skippedNonUdp),
        static_cast<unsigned long long>(parse.skippedBadUdpLength),
        static_cast<unsigned long long>(parse.skippedFragments),
        static_cast<unsigned long long>(parse.truncatedRecords),
        static_cast<unsigned long long>(parse.clampedTimestamps));
  }

  if (synthesized) std::remove(args.capturePath.c_str());
  return 0;
}
