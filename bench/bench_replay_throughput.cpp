// Capture-replay ingest throughput.
//
// Generates a multi-flow capture with PcapWriter, then measures the stages
// of the ingest path on it, without and with per-window model inference:
//   parse      — PcapFileReader streaming decode alone (records/s)
//   replay 1/N — PcapReplaySource -> MultiFlowEngine, idle eviction on the
//                N-worker rows, each without a model, with a per-VCA
//                (flattened) forest resolved from a ModelRegistry at flow
//                admission, and with the same forest behind the cross-flow
//                InferenceBatcher (batched rows)
// The replayed packet count is checked against what was written before any
// number is trusted; a mismatch fails the exit code, as does a with-model
// run whose windows carry no predictions.
//
// With `--json-out DIR` (or VCAQOE_BENCH_JSON_DIR) every row — records/s,
// pkts/s, and p50/p99 per-window dispatch latency observed through the
// replay driver's hooks — is persisted as BENCH_replay_throughput.json
// (schema in bench/bench_report.hpp).
//
// Scale knobs (environment):
//   VCAQOE_BENCH_REPLAY_PACKETS — total packets in the capture (default 1M)
//   VCAQOE_BENCH_REPLAY_FLOWS   — concurrent flows (default 64)
//   VCAQOE_BENCH_REPLAY_WORKERS — engine workers for the N-worker rows
//                                 (default 4)
//   VCAQOE_BENCH_REPLAY_TREES   — synthetic-forest size (default 40)
//   VCAQOE_BENCH_REPLAY_BATCH   — cross-flow inference batch size for the
//                                 batched rows (default 32)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_report.hpp"
#include "common/time.hpp"
#include "engine/multi_flow_engine.hpp"
#include "engine/synthetic.hpp"
#include "inference/model_registry.hpp"
#include "ingest/pcap_replay.hpp"
#include "ingest/replay_driver.hpp"
#include "netflow/pcap.hpp"

namespace vcaqoe {
namespace {

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string writeCapture(int flows, int totalPackets) {
  std::vector<std::pair<netflow::FlowKey, netflow::Packet>> stream;
  const int perFlow = std::max(totalPackets / flows, 64);
  for (int f = 0; f < flows; ++f) {
    const auto key = engine::syntheticFlowKey(static_cast<std::uint32_t>(f));
    const auto trace = engine::syntheticFlowTrace(
        500 + static_cast<std::uint64_t>(f), perFlow,
        /*startNs=*/static_cast<common::TimeNs>(f) * 41'000);
    for (const auto& packet : trace) stream.emplace_back(key, packet);
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.arrivalNs < b.second.arrivalNs;
                   });
  netflow::PcapWriter writer;
  for (const auto& [key, packet] : stream) writer.write(key, packet);
  const std::string path =
      (std::filesystem::temp_directory_path() / "vcaqoe_bench_replay.pcap")
          .string();
  writer.save(path);
  return path;
}

}  // namespace
}  // namespace vcaqoe

int main(int argc, char** argv) {
  using namespace vcaqoe;
  std::string argError;
  const auto jsonDir = bench::jsonOutDir(argc, argv, argError);
  if (!argError.empty()) {
    std::fprintf(stderr, "bench_replay_throughput: %s\n", argError.c_str());
    return 2;
  }

  const int totalPackets =
      bench::envInt("VCAQOE_BENCH_REPLAY_PACKETS", 1'000'000);
  const int flows = std::max(bench::envInt("VCAQOE_BENCH_REPLAY_FLOWS", 64), 1);
  const int workers =
      std::max(bench::envInt("VCAQOE_BENCH_REPLAY_WORKERS", 4), 1);
  const int trees = bench::envInt("VCAQOE_BENCH_REPLAY_TREES", 40);
  const int batch = std::max(bench::envInt("VCAQOE_BENCH_REPLAY_BATCH", 32), 2);

  bench::BenchReport report("replay_throughput");
  auto& cfg = report.config();
  cfg.set("packets", totalPackets);
  cfg.set("flows", flows);
  cfg.set("workers", workers);
  cfg.set("trees", trees);
  cfg.set("batch", batch);

  std::printf("writing %d-flow / ~%d-packet capture...\n", flows,
              totalPackets);
  const auto path = writeCapture(flows, totalPackets);
  const auto fileBytes = std::filesystem::file_size(path);
  std::printf("capture: %s (%.1f MB)\n\n", path.c_str(),
              static_cast<double>(fileBytes) / (1024.0 * 1024.0));
  cfg.set("capture_mb",
          static_cast<double>(fileBytes) / (1024.0 * 1024.0));

  bool ok = true;
  std::uint64_t written = 0;

  // ---- parse only
  {
    const auto start = std::chrono::steady_clock::now();
    netflow::PcapFileReader reader(path);
    netflow::PcapRecord record;
    while (reader.next(record)) ++written;
    const double s = secondsSince(start);
    std::printf("%-28s %12llu records %12.0f rec/s\n", "parse (stream decode)",
                static_cast<unsigned long long>(written),
                static_cast<double>(written) / s);
    auto& row = report.addScenario("parse");
    auto tp = common::JsonValue::object();
    tp.set("records_per_s", static_cast<double>(written) / s);
    row.set("throughput", std::move(tp));
    row.set("records", static_cast<std::int64_t>(written));
  }

  // ---- replay through the engine, without and with model inference
  // (per-window and cross-flow batched). The synthetic 5-tuples carry the
  // Teams media port, so with a registry every flow admission resolves the
  // shared per-VCA frame-rate forest.
  struct Mode {
    const char* label;
    const char* slug;  // scenario-name stem in the JSON document
    bool withModel;
    std::size_t inferenceBatch;
  };
  const Mode modes[] = {
      {"replay -> engine", "replay_engine", false, 1},
      {"replay+model -> eng", "replay_model", true, 1},
      {"replay+batch -> eng", "replay_batch", true,
       static_cast<std::size_t>(batch)},
  };
  for (const auto& mode : modes) {
    for (const int w : {1, workers}) {
      engine::EngineOptions options;
      options.numWorkers = w;
      options.idleTimeoutNs = 30 * common::kNanosPerSecond;
      options.inferenceBatch = mode.inferenceBatch;
      // Deadline scaled to the batch size so the configured size binds
      // rather than the dispatch-boundary flush capping it.
      options.inferenceFlushNs =
          engine::scaledInferenceFlushNs(mode.inferenceBatch);
      if (mode.withModel) {
        options.registry = std::make_shared<inference::ModelRegistry>();
        options.registry->registerBackend(
            "teams", inference::QoeTarget::kFrameRate,
            std::make_shared<inference::ForestBackend>(
                engine::syntheticForest(trees, 10, 30.0),
                inference::QoeTarget::kFrameRate, "forest:teams/frame_rate"));
        options.targets = {inference::QoeTarget::kFrameRate};
      }
      engine::MultiFlowEngine eng(options);
      ingest::PcapReplaySource source(path);
      // Latency probe riding the driver's passive hooks: ready times from
      // the fed stream head, samples from the in-flight drains (the
      // finish() tail is excluded by the hook contract).
      bench::WindowLatencyProbe probe(options.streaming.windowNs);
      ingest::ReplayHooks hooks;
      hooks.onPacket = [&probe](const ingest::SourcePacket& sp) {
        probe.noteFeed(sp.packet.arrivalNs);
      };
      hooks.onDrained =
          [&probe](std::span<const engine::EngineResult> drained) {
            for (const auto& r : drained) probe.noteResult(r.output.window);
          };
      const auto start = std::chrono::steady_clock::now();
      const auto replayReport =
          ingest::replay(source, eng, /*pollEvery=*/1024,
                         /*pumpIntervalNs=*/0, hooks);
      const double s = secondsSince(start);
      ok = ok && replayReport.packets == written;
      std::size_t predicted = 0;
      for (const auto& result : replayReport.results) {
        if (!result.output.predictions.empty()) ++predicted;
      }
      // With a model every window must carry a prediction; without, none.
      ok = ok &&
           predicted == (mode.withModel ? replayReport.results.size() : 0u);
      const double pps = static_cast<double>(replayReport.packets) / s;
      std::printf(
          "%-20s %d wrk %12llu packets %12.0f pkt/s  (%zu windows, %zu "
          "predicted)\n",
          mode.label, w, static_cast<unsigned long long>(replayReport.packets),
          pps, replayReport.results.size(), predicted);
      auto& row = report.addScenario(std::string(mode.slug) + "_w" +
                                     std::to_string(w));
      row.set("workers", w);
      row.set("with_model", mode.withModel);
      row.set("inference_batch",
              static_cast<std::int64_t>(mode.inferenceBatch));
      auto tp = common::JsonValue::object();
      tp.set("pkts_per_s", pps);
      row.set("throughput", std::move(tp));
      row.set("latency_ms", probe.toJson());
      row.set("windows",
              static_cast<std::int64_t>(replayReport.results.size()));
      const auto stats = replayReport.engineStats;
      if (mode.inferenceBatch > 1 && w == workers) {
        // Batched rows must actually batch: every window through the
        // batcher, several windows per predictWindowBatch call.
        ok = ok && stats.batchedWindows == replayReport.results.size();
        std::printf(
            "%-20s       %llu batches, %llu windows batched (~%.1f "
            "windows/batch)\n",
            "  batching",
            static_cast<unsigned long long>(stats.inferenceBatches),
            static_cast<unsigned long long>(stats.batchedWindows),
            stats.inferenceBatches > 0
                ? static_cast<double>(stats.batchedWindows) /
                      static_cast<double>(stats.inferenceBatches)
                : 0.0);
      }
      if (mode.withModel && mode.inferenceBatch <= 1 && w == workers) {
        const auto registryStats = stats.registry;
        std::printf(
            "%-20s       hits %llu, misses %llu, loads %llu (shared "
            "immutable model)\n",
            "  registry",
            static_cast<unsigned long long>(registryStats.hits),
            static_cast<unsigned long long>(registryStats.misses),
            static_cast<unsigned long long>(registryStats.loads));
      }
    }
  }

  std::filesystem::remove(path);
  std::printf("\nreplayed counts and prediction coverage match: %s\n",
              ok ? "yes" : "NO");
  if (jsonDir && !report.writeTo(*jsonDir)) return 1;
  return ok ? 0 : 1;
}
