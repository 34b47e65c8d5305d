// bench_pipeline: the end-to-end benchmark of the capture -> QoE pipeline.
//
// For each workload it simulates VCA calls from the seed, trains per-VCA
// frame-rate forests on separate simulated lab calls, writes the calls as
// one capture file, and replays that file through the public API
// (PcapReplaySource -> ingest::replay -> MultiFlowEngine with a disk-backed
// ModelRegistry) in interleaved closed-loop and open-loop repeats for
// --seconds. Every window of every repeat is checked against a sequential
// reference; every metric is printed by name and unit; BENCH_pipeline.json
// (and, traced, TRACE_<workload>.json) land in --out. Names, units and
// bounds come from BENCHMARK.json.
//
// Usage:
//   bench_pipeline [--workload NAME|all] [--seed N] [--seconds S]
//                  [--trace 0|1] --out DIR [--spec BENCHMARK.json]
//   bench_pipeline --compare PARENT.json... -- CHANGE.json...
//                  [--claim METRIC@WORKLOAD]... [--spec BENCHMARK.json]
//
// --trace 0 runs untraced repeats and ends with the end-to-end metrics;
// --trace 1 alternates traced closed-loop repeats in, adds the isolated
// layer passes, and ends with the per-layer metrics. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.hpp"
#include "common/parse.hpp"
#include "compare.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "spec.hpp"
#include "workload.hpp"

using namespace vcaqoe;
using namespace vcaqoe::bench::pipeline;

namespace {

/// Closed-loop repeats run before measuring, so cold caches in a process's
/// first replays never count; they measure memory instead.
constexpr int kWarmupRepeats = 2;
constexpr std::size_t kMinMeasured = 3;
/// Spans kept for the trace file (one traced repeat plus the passes).
constexpr std::size_t kTraceCapacity = 600'000;

struct Args {
  std::string workload = "all";
  std::uint64_t seed = 1;
  int seconds = 0;  // 0 = BENCHMARK.json's run_seconds
  bool trace = true;
  std::string outDir;
  std::string specPath = "BENCHMARK.json";
  std::vector<std::string> compareParent;
  std::vector<std::string> compareChange;
  std::vector<std::string> claims;
  bool compare = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: bench_pipeline [--workload NAME|all] [--seed N] [--seconds S] "
      "[--trace 0|1] --out DIR [--spec BENCHMARK.json]\n"
      "       bench_pipeline --compare PARENT.json... -- CHANGE.json... "
      "[--claim METRIC@WORKLOAD]... [--spec BENCHMARK.json]\n");
}

bool parseArgs(int argc, char** argv, Args& args) {
  bool inChange = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto operand = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--compare") {
      args.compare = true;
    } else if (arg == "--") {
      inChange = true;
    } else if (arg == "--workload" || arg == "--out" || arg == "--spec" ||
               arg == "--claim") {
      const char* value = operand();
      if (value == nullptr) return false;
      if (arg == "--workload") args.workload = value;
      if (arg == "--out") args.outDir = value;
      if (arg == "--spec") args.specPath = value;
      if (arg == "--claim") args.claims.push_back(value);
    } else if (arg == "--seed" || arg == "--seconds" || arg == "--trace") {
      const char* value = operand();
      const auto parsed = value ? common::parseInt(value) : std::nullopt;
      if (!parsed || *parsed < 0) return false;
      if (arg == "--seed") args.seed = static_cast<std::uint64_t>(*parsed);
      if (arg == "--seconds") {
        if (*parsed < 1 || *parsed > 60) return false;
        args.seconds = static_cast<int>(*parsed);
      }
      if (arg == "--trace") {
        if (*parsed > 1) return false;
        args.trace = *parsed == 1;
      }
    } else if (args.compare && !arg.empty() && arg[0] != '-') {
      (inChange ? args.compareChange : args.compareParent).push_back(arg);
    } else {
      return false;
    }
  }
  if (args.compare) {
    return !args.compareParent.empty() && !args.compareChange.empty();
  }
  return !args.outDir.empty();
}

using Repeats = std::vector<RepeatOutcome>;

template <typename Fn>
std::vector<double> each(const Repeats& repeats, Fn&& fn) {
  std::vector<double> values;
  values.reserve(repeats.size());
  for (const auto& repeat : repeats) values.push_back(fn(repeat));
  return values;
}

double perPacket(double total, const RepeatOutcome& r) {
  return total / static_cast<double>(r.packets);
}

double workerCpuS(const RepeatOutcome& r) {
  return r.processCpuS - r.callerCpuS;
}

using MetricValues = std::map<std::string, std::vector<double>>;

/// Throughput and CPU from the closed loop, memory from its warmups, latency
/// from the open loop at a fixed offered rate.
MetricValues endToEndMetrics(const Repeats& closed, const Repeats& open,
                             const std::vector<double>& peakRssMb,
                             const std::vector<double>& setupS) {
  using R = RepeatOutcome;
  MetricValues m;
  m["pkts_per_s"] = each(closed, [](const R& r) {
    return static_cast<double>(r.packets) / r.wallS;
  });
  m["cpu_s_per_mpkt"] = each(
      closed, [](const R& r) { return perPacket(r.processCpuS, r) * 1e6; });
  m["window_latency_p50_ms"] =
      each(open, [](const R& r) { return r.latencyP50Ms; });
  m["window_latency_p95_ms"] =
      each(open, [](const R& r) { return r.latencyP95Ms; });
  m["peak_rss_mb"] = peakRssMb;
  m["setup_s"] = setupS;
  m["fps_mae_ml"] = each(closed, [](const R& r) { return r.fpsMaeMl; });
  m["fps_mae_heuristic"] =
      each(closed, [](const R& r) { return r.fpsMaeHeuristic; });
  return m;
}

MetricValues perLayerMetrics(const Workload& w, const Repeats& untraced,
                             const Repeats& traced, const Repeats& open,
                             const std::vector<double>& modelLoadMs,
                             const LayerCosts& costs) {
  using R = RepeatOutcome;
  MetricValues m;
  const double overhead = static_cast<double>(clockOverheadNs());
  // Isolated passes: one value each.
  m["netflow.parse_ns_per_pkt"] = {costs.parseNsPerPkt};
  m["engine.demux_ns_per_pkt"] = {costs.demuxNsPerPkt};
  m["core.estimator_ns_per_pkt"] = {costs.estimatorNsPerPkt};
  m["core.video_pkt_frac"] = {costs.videoPktFrac};
  m["core.windows_per_kpkt"] = {costs.windowsPerKpkt};
  m["features.extract_ns_per_window"] = {costs.extractNsPerWindow};
  m["inference.predict_ns_per_window"] = {costs.predictNsPerWindow};

  // Counters and CPU splits: the untraced closed-loop repeats.
  const auto perKpkt = [&](auto field) {
    return each(untraced, [&](const R& r) {
      return perPacket(static_cast<double>(field(r)), r) * 1e3;
    });
  };
  m["engine.demux_cache_hit_ratio"] = each(untraced, [](const R& r) {
    return static_cast<double>(r.stats.demuxCacheHits) /
           static_cast<double>(r.stats.demuxCacheLookups);
  });
  m["engine.batches_per_kpkt"] =
      perKpkt([](const R& r) { return r.stats.batchesDispatched; });
  m["engine.minor_faults_per_kpkt"] =
      perKpkt([](const R& r) { return r.minorFaults; });
  m["engine.ctx_switches_per_kpkt"] =
      perKpkt([](const R& r) { return r.contextSwitches; });
  m["engine.dispatcher_cpu_ns_per_pkt"] = each(
      untraced, [](const R& r) { return perPacket(r.callerCpuS, r) * 1e9; });
  m["engine.worker_cpu_ns_per_pkt"] = each(
      untraced, [](const R& r) { return perPacket(workerCpuS(r), r) * 1e9; });
  // Worker CPU not explained by the per-flow work the passes priced:
  // estimator, extraction and inference per packet.
  const double usefulNsPerPkt =
      costs.estimatorNsPerPkt +
      (costs.extractNsPerWindow + costs.predictNsPerWindow) *
          costs.windowsPerKpkt / 1e3;
  m["engine.worker_overhead_ns_per_pkt"] = each(untraced, [&](const R& r) {
    return perPacket(workerCpuS(r), r) * 1e9 - usefulNsPerPkt;
  });
  m["engine.shard_imbalance"] = each(untraced, [](const R& r) {
    double max = 0.0;
    double sum = 0.0;
    for (const auto& load : r.stats.shardLoads) {
      max = std::max(max, static_cast<double>(load.packetsProcessed));
      sum += static_cast<double>(load.packetsProcessed);
    }
    return max * static_cast<double>(r.stats.shardLoads.size()) / sum;
  });
  const auto batch = static_cast<double>(w.shape.inferenceBatch);
  m["inference.batch_occupancy"] = each(untraced, [&](const R& r) {
    // Without batching every window is its own batch of one.
    return batch <= 1.0 ? 1.0
                        : static_cast<double>(r.stats.batchedWindows) /
                              (static_cast<double>(r.stats.inferenceBatches) *
                               batch);
  });
  m["inference.model_load_ms"] = modelLoadMs;

  m["ingest.feed_lag_p99_ms"] =
      each(open, [](const R& r) { return r.feedLagP99Ms; });

  // Spans: the traced closed-loop repeats.
  m["engine.on_packet_ns_per_pkt"] = each(traced, [&](const R& r) {
    return static_cast<double>(r.traced->onPacketNs) /
               static_cast<double>(r.traced->sampled) -
           overhead;
  });
  m["engine.poll_ns_per_result"] = each(traced, [](const R& r) {
    const auto results = std::max<std::uint64_t>(r.traced->resultsPolled, 1);
    return static_cast<double>(r.traced->pollNs) /
           static_cast<double>(results);
  });
  m["engine.finish_wait_frac"] = each(traced, [](const R& r) {
    return static_cast<double>(r.traced->finishNs) / (r.wallS * 1e9);
  });
  m["engine.backlog_max_pkts"] = each(traced, [](const R& r) {
    return static_cast<double>(r.traced->maxBacklog);
  });
  // Caller-thread spans of the traced blocks (sampled ones scaled up) over
  // those blocks' wall time: how much of the dispatcher's time the
  // breakdown accounts for. Spans are wall-clock, so the denominator is
  // too; preemption inflates both alike.
  m["breakdown.dispatcher_coverage"] = each(traced, [&](const R& r) {
    const auto& t = *r.traced;
    const double scale = static_cast<double>(t.traced.packets) /
                         static_cast<double>(t.sampled);
    const double sampledNs = static_cast<double>(t.nextNs + t.onPacketNs) -
                             2.0 * overhead * static_cast<double>(t.sampled);
    return (scale * sampledNs + static_cast<double>(t.pollNs)) /
           static_cast<double>(t.traced.wallNs);
  });
  // Caller CPU per packet in traced blocks over plain ones.
  const auto cpuPerPacket = [](const TracedTotals::Blocks& b) {
    return static_cast<double>(b.cpuNs) / static_cast<double>(b.packets);
  };
  const auto overheads = each(traced, [&](const R& r) {
    return cpuPerPacket(r.traced->traced) / cpuPerPacket(r.traced->plain) -
           1.0;
  });
  m["trace.overhead_frac"] = overheads;
  return m;
}

/// Checks that `values` names exactly the metrics of `listed`.
bool matchesSpec(const MetricValues& values,
                 const std::vector<MetricSpec>& listed,
                 const std::string& workload) {
  bool ok = values.size() == listed.size();
  for (const auto& metric : listed) {
    if (values.find(metric.name) == values.end()) {
      std::fprintf(stderr, "%s: listed metric %s was not measured\n",
                   workload.c_str(), metric.name.c_str());
      ok = false;
    }
  }
  for (const auto& [name, v] : values) {
    const bool listedHere =
        std::any_of(listed.begin(), listed.end(),
                    [&](const MetricSpec& m) { return m.name == name; });
    if (!listedHere) {
      std::fprintf(stderr, "%s: metric %s is not listed in BENCHMARK.json\n",
                   workload.c_str(), name.c_str());
      ok = false;
    }
  }
  return ok;
}

struct WorkloadReport {
  std::string name;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  common::JsonValue json;
  /// Metrics of the last stdout line: end-to-end, or per-layer when traced.
  common::JsonValue lineMetrics = common::JsonValue::object();
};

void addMetrics(const std::vector<MetricSpec>& listed,
                const MetricValues& values, common::JsonValue& json,
                common::JsonValue* line) {
  for (const auto& metric : listed) {
    const auto s = summarize(values.at(metric.name));
    std::printf(
        "  %-36s %14.6g %-11s q1 %-12.6g q3 %-12.6g min %-12.6g max %-12.6g "
        "n=%zu\n",
        metric.name.c_str(), s.median, metric.unit.c_str(), s.q1, s.q3, s.min,
        s.max, s.n);
    auto& entry = json.set(metric.name, common::JsonValue::object());
    entry.set("unit", metric.unit);
    entry.set("value", s.median);
    entry.set("q1", s.q1);
    entry.set("q3", s.q3);
    entry.set("min", s.min);
    entry.set("max", s.max);
    entry.set("n", static_cast<std::int64_t>(s.n));
    auto& raw = entry.set("values", common::JsonValue::array());
    for (const double v : values.at(metric.name)) raw.push(v);
    if (line != nullptr) {
      auto& lineEntry = line->set(metric.name, common::JsonValue::object());
      lineEntry.set("value", s.median);
      lineEntry.set("unit", metric.unit);
    }
  }
}

std::optional<WorkloadReport> runWorkload(const BenchSpec& spec,
                                          const WorkloadShape& shape,
                                          const Args& args, int seconds,
                                          const std::string& modelDir) {
  const auto prepStart = nowNs();
  const Workload w = buildWorkload(shape, args.seed,
                                   (std::filesystem::path(args.outDir) / "work")
                                       .string(),
                                   modelDir);
  std::fprintf(stderr,
               "[prep] %s: %llu calls, %llu packets over %.1f s of stream, "
               "%llu reference windows (%.1f s)\n",
               shape.name, static_cast<unsigned long long>(w.calls),
               static_cast<unsigned long long>(w.packets), w.streamSeconds,
               static_cast<unsigned long long>(w.referenceWindows),
               static_cast<double>(nowNs() - prepStart) / 1e9);

  Tracer fileTracer(kTraceCapacity);
  Tracer noTrace(0);
  Repeats untraced;
  Repeats traced;
  Repeats open;
  WorkloadReport report;
  report.name = shape.name;
  const auto account = [&](const RepeatOutcome& r) {
    report.attempted += r.windowsChecked;
    report.failed += r.failures;
  };

  const auto runStart = nowNs();
  const auto elapsedS = [&] {
    return static_cast<double>(nowNs() - runStart) / 1e9;
  };
  std::vector<double> setupS;
  std::vector<double> modelLoadMs;
  const auto timeSetUp = [&](const double setupSeconds,
                             const double modelMs) {
    setupS.push_back(setupSeconds);
    modelLoadMs.push_back(modelMs);
  };

  const auto measured = [&](RepeatOutcome r, Repeats& into) {
    account(r);
    timeSetUp(r.setupS, r.modelLoadMs);
    into.push_back(std::move(r));
  };

  // Warmup repeats (closed loop) are reported apart and are the memory
  // repeats: each starts from a trimmed heap, so it also shows how much a
  // replay pays for touching fresh memory. Measured repeats run on the warm
  // heap.
  auto warmups = common::JsonValue::array();
  std::vector<double> peakRssMb;
  bool peakRssReset = true;
  for (int i = 0; i < kWarmupRepeats; ++i) {
    const RepeatOutcome r = runRepeat(w, Loop::kClosed, nullptr, true);
    account(r);
    peakRssMb.push_back(r.peakRssMb);
    peakRssReset = peakRssReset && r.peakRssReset;
    auto& row = warmups.push(common::JsonValue::object());
    row.set("pkts_per_s", static_cast<double>(r.packets) / r.wallS);
    row.set("minor_faults_per_kpkt",
            perPacket(static_cast<double>(r.minorFaults), r) * 1e3);
  }

  // Closed and open loop repeats interleave, each kind getting half the
  // time, so both sample the host across the whole run: its speed drifts
  // over seconds. Each measured repeat is followed by one set-up timed on
  // its own.
  double closedS = 0.0;
  double openS = 0.0;
  for (int closedRepeats = 0;;) {
    if (elapsedS() >= seconds && untraced.size() >= kMinMeasured &&
        open.size() >= kMinMeasured &&
        (!args.trace || traced.size() >= kMinMeasured)) {
      break;
    }
    const auto started = nowNs();
    if (openS < closedS) {
      RepeatOutcome r = runRepeat(w, Loop::kOpen, nullptr, false);
      openS += static_cast<double>(nowNs() - started) / 1e9;
      measured(std::move(r), open);
    } else {
      const bool tracedRepeat = args.trace && closedRepeats++ % 2 == 1;
      Tracer* tracer = nullptr;
      if (tracedRepeat) tracer = traced.empty() ? &fileTracer : &noTrace;
      RepeatOutcome r = runRepeat(w, Loop::kClosed, tracer, false);
      closedS += static_cast<double>(nowNs() - started) / 1e9;
      measured(std::move(r), tracedRepeat ? traced : untraced);
    }
    const Pipeline pipeline = setUp(w);
    if (!pipeline.modelsLoaded) ++report.failed;
    timeSetUp(pipeline.setupS(), pipeline.modelLoadMs());
  }

  report.json = common::JsonValue::object();
  auto& json = report.json;
  json.set("packets", static_cast<std::int64_t>(w.packets));
  json.set("calls", static_cast<std::int64_t>(w.calls));
  json.set("stream_seconds", w.streamSeconds);
  json.set("reference_windows", static_cast<std::int64_t>(w.referenceWindows));
  json.set("latency_samples_per_repeat",
           summarize(each(open, [](const RepeatOutcome& r) {
             return static_cast<double>(r.latencySamples);
           })).median);
  json.set("peak_rss_reset", peakRssReset);
  auto& repeats = json.set("repeats", common::JsonValue::object());
  repeats.set("warmup", std::move(warmups));
  repeats.set("closed", static_cast<std::int64_t>(untraced.size()));
  repeats.set("closed_traced", static_cast<std::int64_t>(traced.size()));
  repeats.set("open", static_cast<std::int64_t>(open.size()));
  auto& metricsJson = json.set("metrics", common::JsonValue::object());

  std::printf(
      "%s (seed %llu; closed loop %zu + %zu traced, open loop %zu repeats; "
      "%.1f s)\n",
      shape.name, static_cast<unsigned long long>(args.seed), untraced.size(),
      traced.size(), open.size(), elapsedS());
  const auto e2e = endToEndMetrics(untraced, open, peakRssMb, setupS);
  if (!matchesSpec(e2e, spec.endToEnd, shape.name)) return std::nullopt;
  addMetrics(spec.endToEnd, e2e, metricsJson,
             args.trace ? nullptr : &report.lineMetrics);

  if (args.trace) {
    const auto costs = measureLayers(w, fileTracer);
    const auto layers =
        perLayerMetrics(w, untraced, traced, open, modelLoadMs, costs);
    if (!matchesSpec(layers, spec.perLayer, shape.name)) return std::nullopt;
    addMetrics(spec.perLayer, layers, metricsJson, &report.lineMetrics);
    const auto tracePath = (std::filesystem::path(args.outDir) /
                            ("TRACE_" + std::string(shape.name) + ".json"))
                               .string();
    if (!fileTracer.writeChrome(tracePath)) {
      std::fprintf(stderr, "cannot write %s\n", tracePath.c_str());
      return std::nullopt;
    }
  }

  // The capture is an input of this invocation only.
  std::filesystem::remove(w.capturePath);

  report.correct = report.failed == 0;
  json.set("correct", report.correct);
  json.set("attempted", static_cast<std::int64_t>(report.attempted));
  json.set("failed", static_cast<std::int64_t>(report.failed));
  std::printf("  windows checked %llu, failed %llu%s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              w.offlineHeuristicMae
                  ? ", heuristic MAE anchored to the offline path"
                  : "");
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    usage();
    return 2;
  }
  std::string error;
  const auto spec = loadSpec(args.specPath, error);
  if (!spec) {
    std::fprintf(stderr, "bench_pipeline: %s\n", error.c_str());
    return 2;
  }
  if (args.compare) {
    return runCompare(*spec, args.compareParent, args.compareChange,
                      args.claims);
  }

  std::vector<const WorkloadShape*> shapes;
  for (const auto& name : spec->workloads) {
    const auto* shape = findShape(name);
    if (shape == nullptr) {
      std::fprintf(stderr, "bench_pipeline: BENCHMARK.json names unknown "
                           "workload %s\n", name.c_str());
      return 2;
    }
    if (args.workload == "all" || args.workload == name) {
      shapes.push_back(shape);
    }
  }
  if (shapes.empty()) {
    std::fprintf(stderr, "bench_pipeline: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const int seconds = args.seconds > 0 ? args.seconds : spec->runSeconds;

  const unsigned nproc = std::thread::hardware_concurrency();
  const bool shapeMatches = nproc == static_cast<unsigned>(kWorkers + 1);
  if (!shapeMatches) {
    std::fprintf(stderr,
                 "note: %u hardware threads; the run shape (dispatcher + %d "
                 "workers) assumes %d, so numbers are not comparable with "
                 "runs on the reference host\n",
                 nproc, kWorkers, kWorkers + 1);
  }

  auto doc = common::JsonValue::object();
  doc.set("bench", "pipeline");
  doc.set("seed", static_cast<std::int64_t>(args.seed));
  doc.set("seconds", seconds);
  doc.set("trace", args.trace);
  auto& host = doc.set("host", common::JsonValue::object());
  host.set("nproc", static_cast<std::int64_t>(nproc));
  host.set("workers", kWorkers);
  host.set("nproc_matches_run_shape", shapeMatches);
  auto& workloadsJson = doc.set("workloads", common::JsonValue::object());

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  common::JsonValue lineMetrics = common::JsonValue::object();
  // Captures live under <out>/work only while their workload runs.
  struct RemoveTree {
    std::filesystem::path path;
    ~RemoveTree() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } removeWork{std::filesystem::path(args.outDir) / "work"};
  try {
    std::filesystem::create_directories(args.outDir);
    const auto modelDir =
        (std::filesystem::path(args.outDir) / "models").string();
    const auto trainStart = nowNs();
    trainModels(args.seed, modelDir);
    std::fprintf(stderr, "[prep] models trained into %s (%.1f s)\n",
                 modelDir.c_str(),
                 static_cast<double>(nowNs() - trainStart) / 1e9);
    for (const auto* shape : shapes) {
      auto report = runWorkload(*spec, *shape, args, seconds, modelDir);
      if (!report) return 2;
      correct = correct && report->correct;
      attempted += report->attempted;
      failed += report->failed;
      if (shapes.size() == 1) lineMetrics = std::move(report->lineMetrics);
      workloadsJson.set(report->name, std::move(report->json));
    }
    const auto benchPath =
        (std::filesystem::path(args.outDir) / "BENCH_pipeline.json").string();
    std::ofstream out(benchPath, std::ios::binary | std::ios::trunc);
    out << doc.dump(2) << '\n';
    if (!out) {
      std::fprintf(stderr, "bench_pipeline: cannot write %s\n",
                   benchPath.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_pipeline: %s\n", e.what());
    return 2;
  }

  auto line = common::JsonValue::object();
  line.set("correct", correct);
  line.set("attempted",
           static_cast<std::int64_t>(std::max<std::uint64_t>(attempted, 1)));
  line.set("failed", static_cast<std::int64_t>(failed));
  line.set("metrics", std::move(lineMetrics));
  std::printf("%s\n", line.dump(0).c_str());
  return correct ? 0 : 1;
}
