#include "measure.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <span>
#include <string>
#include <thread>

#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "ingest/replay_driver.hpp"

namespace vcaqoe::bench::pipeline {

namespace {

/// pcap_monitor's poll cadence.
constexpr std::size_t kPollEvery = 1024;
/// pcap_monitor's pump cadence when paced: every second of stream time.
constexpr common::DurationNs kPumpNs = common::kNanosPerSecond;
/// One in this many packets is sampled: next()/onPacket() spans in a traced
/// repeat, the generator's lag in an open-loop one.
constexpr std::uint64_t kSampleEvery = 64;

struct Usage {
  double cpuS = 0.0;
  std::uint64_t minorFaults = 0;
  std::uint64_t contextSwitches = 0;
};

Usage processUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage usage;
  usage.cpuS = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                   1e-6;
  usage.minorFaults = static_cast<std::uint64_t>(ru.ru_minflt);
  usage.contextSwitches =
      static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return usage;
}

std::int64_t threadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// A "Vm...:" line of /proc/self/status, in MiB (0 when absent).
double statusMb(std::string_view field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Returns freed heap to the kernel, resets the peak-RSS mark (VmHWM) to
/// the current RSS, and returns that RSS in MiB (0 when the mark cannot be
/// reset). The bench's own data (reference windows, freed preparation
/// buffers that fragment the heap) sets this baseline and differs from
/// seed to seed, so a repeat's memory is its peak above the baseline.
double resetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) return 0.0;
  return statusMb("VmRSS:");
}

/// Window-latency bookkeeping riding the replay hooks. The emitting packet
/// of every window is known from the sequential reference, so the per-packet
/// hook is one counter compare.
class LatencyProbe {
 public:
  LatencyProbe(const Workload& workload, const PacedSource& paced)
      : workload_(workload),
        paced_(paced),
        dueNs_(workload.eventPackets.size(), 0) {
    samplesMs_.reserve(workload.eventPackets.size());
  }
  LatencyProbe(const LatencyProbe&) = delete;
  LatencyProbe& operator=(const LatencyProbe&) = delete;

  void onPacket() {
    if (next_ < workload_.eventPackets.size() &&
        fed_ == workload_.eventPackets[next_]) {
      dueNs_[next_++] = paced_.dueNs();
    }
    ++fed_;
  }

  void onDrained(std::span<const engine::EngineResult> results) {
    const std::int64_t now = nowNs();
    for (const auto& result : results) {
      if (result.flow >= workload_.windowEvent.size()) continue;
      const auto& events = workload_.windowEvent[result.flow];
      const auto window = result.output.window;
      if (window < 0 || static_cast<std::size_t>(window) >= events.size()) {
        continue;
      }
      const std::int32_t event = events[static_cast<std::size_t>(window)];
      if (event >= 0 && static_cast<std::size_t>(event) < next_) {
        const auto dueNs = dueNs_[static_cast<std::size_t>(event)];
        samplesMs_.push_back(static_cast<double>(now - dueNs) / 1e6);
      }
    }
  }

  const std::vector<double>& samplesMs() const { return samplesMs_; }

 private:
  const Workload& workload_;
  const PacedSource& paced_;
  std::vector<std::int64_t> dueNs_;
  std::size_t next_ = 0;
  std::uint64_t fed_ = 0;
  std::vector<double> samplesMs_;
};

bool sameOutput(const core::StreamingOutput& a,
                const core::StreamingOutput& b) {
  return a.window == b.window && a.features == b.features &&
         a.heuristic.fps == b.heuristic.fps &&
         a.heuristic.bitrateKbps == b.heuristic.bitrateKbps &&
         a.heuristic.frameJitterMs == b.heuristic.frameJitterMs &&
         a.heuristic.frameCount == b.heuristic.frameCount &&
         a.predictions == b.predictions;
}

/// Walks the canonical (flow, window) result stream against the reference
/// and computes the frame-rate MAEs over windows with valid ground truth.
void checkResults(const Workload& w,
                  const std::vector<engine::EngineResult>& results,
                  RepeatOutcome& out) {
  // Both sides are in canonical (flow, window) order; walk them together.
  std::uint64_t matched = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t unexpected = 0;
  std::size_t flow = 0;
  std::size_t window = 0;
  const auto skipEmptyFlows = [&] {
    while (flow < w.reference.size() && window >= w.reference[flow].size()) {
      ++flow;
      window = 0;
    }
  };
  skipEmptyFlows();

  std::vector<double> truth;
  std::vector<double> heuristic;
  std::vector<double> ml;
  for (const auto& result : results) {
    const auto key = std::make_pair(static_cast<std::size_t>(result.flow),
                                    result.output.window);
    const auto expected = [&] {
      return std::make_pair(flow, static_cast<std::int64_t>(window));
    };
    while (flow < w.reference.size() && expected() < key) {
      ++window;  // a reference window the engine did not return
      skipEmptyFlows();
    }
    if (flow >= w.reference.size() || expected() != key) {
      ++unexpected;
      continue;
    }
    if (sameOutput(result.output, w.reference[flow][window])) {
      ++matched;
    } else {
      ++mismatched;
    }
    const double truthFps = w.truthFps[flow][window];
    if (!std::isnan(truthFps)) {
      const auto prediction = result.output.predictions.get(kTarget);
      if (!prediction) ++out.failures;
      truth.push_back(truthFps);
      heuristic.push_back(result.output.heuristic.fps);
      ml.push_back(prediction.value_or(0.0));
    }
    ++window;
    skipEmptyFlows();
  }
  const std::uint64_t missing = w.referenceWindows - matched - mismatched;
  out.windowsChecked += w.referenceWindows;
  out.failures += mismatched + unexpected + missing;
  out.fpsMaeHeuristic = common::meanAbsoluteError(heuristic, truth);
  out.fpsMaeMl = common::meanAbsoluteError(ml, truth);
  // Correctness anchor: the engine's Algorithm-1 estimates over the same
  // windows must reproduce the offline path's MAE bit for bit.
  if (w.offlineHeuristicMae && out.fpsMaeHeuristic != *w.offlineHeuristicMae) {
    ++out.failures;
  }
}

/// `ingest::replay` (closed loop) with its calls timed. The capture is fed
/// in alternating blocks of kBlockPackets: in the odd ("traced") blocks 1 in
/// 64 next/onPacket calls and every poll are timed, in the even ones nothing
/// is. The caller's CPU time per packet in the two kinds of block, adjacent
/// in time and so on the same host conditions, prices the tracing. Same
/// calls, same cadence, same canonical output order as `ingest::replay`.
ingest::ReplayReport tracedReplay(ingest::PacketSource& source,
                                  engine::MultiFlowEngine& eng,
                                  Tracer& tracer, std::uint32_t parent,
                                  TracedTotals& totals) {
  constexpr std::uint64_t kBlockPackets = 1 << 15;
  static_assert(kBlockPackets % kPollEvery == 0);
  ingest::ReplayReport report;
  ingest::SourcePacket sp;
  std::int64_t blockWallNs = nowNs();
  std::int64_t blockCpuNs = threadCpuNs();
  const auto closeBlock = [&](bool traced) {
    const std::int64_t wall = nowNs();
    const std::int64_t cpu = threadCpuNs();
    auto& block = traced ? totals.traced : totals.plain;
    block.wallNs += wall - blockWallNs;
    block.cpuNs += cpu - blockCpuNs;
    blockWallNs = wall;
    blockCpuNs = cpu;
  };
  bool tracedBlock = false;
  for (;;) {
    if (report.packets % kBlockPackets == 0 && report.packets > 0) {
      closeBlock(tracedBlock);
      tracedBlock = !tracedBlock;
    }
    if (!tracedBlock || report.packets % kSampleEvery != kSampleEvery / 2) {
      if (!source.next(sp)) break;
      eng.onPacket(sp.flow, sp.packet);
    } else {
      // All stamps first, bookkeeping after: writing the spans between the
      // calls would evict the lines the timed onPacket() then misses on.
      const auto t0 = nowNs();
      if (!source.next(sp)) break;
      const auto t1 = nowNs();
      eng.onPacket(sp.flow, sp.packet);
      const auto t2 = nowNs();
      tracer.add(SpanKind::kNext, t0, t1, parent);
      tracer.add(SpanKind::kOnPacket, t1, t2, parent);
      totals.nextNs += t1 - t0;
      totals.onPacketNs += t2 - t1;
      ++totals.sampled;
    }
    ++(tracedBlock ? totals.traced : totals.plain).packets;
    if (++report.packets % kPollEvery == 0) {
      const std::size_t before = report.results.size();
      if (!tracedBlock) {
        eng.poll(report.results);
        continue;
      }
      const auto t0 = nowNs();
      eng.poll(report.results);
      const auto t1 = nowNs();
      tracer.add(SpanKind::kPoll, t0, t1, parent);
      totals.pollNs += t1 - t0;
      totals.resultsPolled += report.results.size() - before;
      std::uint64_t backlog = 0;
      for (const auto& load : eng.stats().shardLoads) backlog += load.backlog;
      totals.maxBacklog = std::max(totals.maxBacklog, backlog);
    }
  }
  closeBlock(tracedBlock);
  const auto t0 = nowNs();
  auto rest = eng.finish();
  const auto t1 = nowNs();
  tracer.add(SpanKind::kFinish, t0, t1, parent);
  totals.finishNs += t1 - t0;
  report.results.insert(report.results.end(),
                        std::make_move_iterator(rest.begin()),
                        std::make_move_iterator(rest.end()));
  std::stable_sort(report.results.begin(), report.results.end(),
                   [](const engine::EngineResult& a,
                      const engine::EngineResult& b) {
                     if (a.flow != b.flow) return a.flow < b.flow;
                     return a.output.window < b.output.window;
                   });
  report.engineStats = eng.stats();
  return report;
}

}  // namespace

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t clockOverheadNs() {
  static const std::int64_t overhead = [] {
    std::vector<double> deltas;
    deltas.reserve(1001);
    for (int i = 0; i < 1001; ++i) {
      const auto a = nowNs();
      const auto b = nowNs();
      deltas.push_back(static_cast<double>(b - a));
    }
    return static_cast<std::int64_t>(common::median(deltas));
  }();
  return overhead;
}

std::string_view spanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRepeat:
      return "repeat";
    case SpanKind::kSetup:
      return "setup";
    case SpanKind::kModelLoad:
      return "inference.model_load";
    case SpanKind::kNext:
      return "ingest.next";
    case SpanKind::kOnPacket:
      return "engine.onPacket";
    case SpanKind::kPoll:
      return "engine.poll";
    case SpanKind::kFinish:
      return "engine.finish";
    case SpanKind::kParsePass:
      return "pass.netflow.parse";
    case SpanKind::kDemuxPass:
      return "pass.engine.demux";
    case SpanKind::kEstimatorPass:
      return "pass.core.estimator";
    case SpanKind::kExtractPass:
      return "pass.features.extract";
    case SpanKind::kPredictPass:
      return "pass.inference.predict";
  }
  return "unknown";
}

std::uint32_t Tracer::open(SpanKind kind, std::int64_t startNs,
                           std::uint32_t parent) {
  return add(kind, startNs, startNs, parent);
}

void Tracer::close(std::uint32_t id, std::int64_t endNs) {
  if (id != 0) spans_[id - 1].endNs = endNs;
}

std::uint32_t Tracer::add(SpanKind kind, std::int64_t startNs,
                          std::int64_t endNs, std::uint32_t parent) {
  if (spans_.size() >= capacity_) return 0;
  spans_.push_back(Span{kind, startNs, endNs, parent});
  return static_cast<std::uint32_t>(spans_.size());
}

bool Tracer::writeChrome(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << spanName(span.kind)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << common::jsonNumber(static_cast<double>(span.startNs - origin) / 1e3)
        << ",\"dur\":"
        << common::jsonNumber(static_cast<double>(span.endNs - span.startNs) /
                              1e3)
        << ",\"args\":{\"id\":" << (i + 1) << ",\"parent\":" << span.parent
        << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

bool PacedSource::next(ingest::SourcePacket& out) {
  if (!inner_.next(out)) return false;
  std::int64_t now = nowNs();
  if (packets_ == 0) {
    startNs_ = now;
    firstArrivalNs_ = out.packet.arrivalNs;
  }
  dueNs_ = startNs_ +
           static_cast<std::int64_t>(
               static_cast<double>(out.packet.arrivalNs - firstArrivalNs_) /
               speed_);
  if (dueNs_ - now > kWaitAheadNs) {
    // A sleeping vCPU halts, and the hypervisor wakes it milliseconds late
    // often enough to dominate the schedule's tail, so only the part of
    // the wait beyond kSpinNs sleeps; the rest spins.
    const std::int64_t cpuBefore = threadCpuNs();
    if (dueNs_ - now > kSpinNs) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(dueNs_ - kSpinNs)));
    }
    while ((now = nowNs()) < dueNs_) {
    }
    waitCpuNs_ += threadCpuNs() - cpuBefore;
  }
  if (packets_++ % kSampleEvery == 0) {
    lagMs_.push_back(static_cast<double>(now - dueNs_) / 1e6);
  }
  return true;
}

Pipeline setUp(const Workload& w) {
  Pipeline p;
  p.startNs = nowNs();
  inference::ModelRegistryOptions registryOptions;
  registryOptions.modelDir = w.modelDir;
  p.registry = std::make_shared<inference::ModelRegistry>(registryOptions);
  const inference::QoeTarget targets[] = {kTarget};
  for (const auto& vca : w.vcas) {
    p.registry->resolveSet(vca, targets, w.shape.featureSet);
  }
  p.modelsNs = nowNs();
  p.engine = std::make_unique<engine::MultiFlowEngine>(
      w.engineOptions(p.registry));
  p.capture = std::make_unique<ingest::PcapReplaySource>(w.capturePath);
  p.endNs = nowNs();
  const auto stats = p.registry->stats();
  p.modelsLoaded = stats.loads == w.vcas.size() && stats.loadFailures == 0;
  return p;
}

RepeatOutcome runRepeat(const Workload& w, Loop loop, Tracer* tracer,
                        bool measureMemory) {
  RepeatOutcome out;
  const double baselineMb = measureMemory ? resetPeakRss() : 0.0;
  out.peakRssReset = baselineMb > 0.0;

  Pipeline pipeline = setUp(w);
  out.setupS = pipeline.setupS();
  out.modelLoadMs = pipeline.modelLoadMs();
  if (!pipeline.modelsLoaded) ++out.failures;
  engine::MultiFlowEngine& eng = *pipeline.engine;

  std::optional<PacedSource> paced;
  std::optional<LatencyProbe> probe;
  ingest::ReplayHooks hooks;
  if (loop == Loop::kOpen) {
    // Stream seconds per wall second that offer the target mean rate.
    paced.emplace(*pipeline.capture, kOfferedPktsPerSec * w.streamSeconds /
                                         static_cast<double>(w.packets));
    probe.emplace(w, *paced);
    hooks.onPacket = [&probe](const ingest::SourcePacket&) {
      probe->onPacket();
    };
    hooks.onDrained = [&probe](std::span<const engine::EngineResult> drained) {
      probe->onDrained(drained);
    };
  }

  const Usage before = processUsage();
  const auto callerBefore = threadCpuNs();
  const auto start = nowNs();
  ingest::ReplayReport report;
  if (paced) {
    report = ingest::replay(*paced, eng, kPollEvery, kPumpNs, hooks);
  } else if (tracer == nullptr) {
    report = ingest::replay(*pipeline.capture, eng, kPollEvery);
  } else {
    out.traced.emplace();
    const auto repeatSpan = tracer->open(SpanKind::kRepeat, pipeline.startNs);
    tracer->add(SpanKind::kSetup, pipeline.startNs, pipeline.endNs,
                repeatSpan);
    tracer->add(SpanKind::kModelLoad, pipeline.startNs, pipeline.modelsNs,
                repeatSpan);
    report = tracedReplay(*pipeline.capture, eng, *tracer, repeatSpan,
                          *out.traced);
    tracer->close(repeatSpan, nowNs());
  }
  const auto end = nowNs();
  const auto callerAfter = threadCpuNs();
  const Usage after = processUsage();
  if (measureMemory) out.peakRssMb = statusMb("VmHWM:") - baselineMb;

  // The open-loop generator's waiting is the bench's, not the pipeline's.
  const double waitCpuS =
      paced ? static_cast<double>(paced->waitCpuNs()) / 1e9 : 0.0;
  out.wallS = static_cast<double>(end - start) / 1e9;
  out.processCpuS = after.cpuS - before.cpuS - waitCpuS;
  out.callerCpuS =
      static_cast<double>(callerAfter - callerBefore) / 1e9 - waitCpuS;
  out.minorFaults = after.minorFaults - before.minorFaults;
  out.contextSwitches = after.contextSwitches - before.contextSwitches;
  out.packets = report.packets;
  out.stats = report.engineStats;
  if (paced) {
    out.latencySamples = probe->samplesMs().size();
    out.latencyP50Ms = common::percentile(probe->samplesMs(), 50.0);
    out.latencyP95Ms = common::percentile(probe->samplesMs(), 95.0);
    out.feedLagP99Ms = common::percentile(paced->lagMs(), 99.0);
  }

  const auto& parse = pipeline.capture->parseStats();
  out.failures += parse.skippedNonUdp + parse.skippedBadUdpLength +
                  parse.truncatedRecords + parse.clampedTimestamps;
  if (report.packets != w.packets) ++out.failures;
  // The reference is indexed by first-seen order; it must be the engine's
  // flow-id order.
  const auto& flows = eng.flowStats();
  bool sameFlows = flows.size() == w.flowKeys.size();
  for (std::size_t f = 0; sameFlows && f < flows.size(); ++f) {
    sameFlows = flows[f].key == w.flowKeys[f];
  }
  if (!sameFlows) ++out.failures;
  checkResults(w, report.results, out);
  return out;
}

}  // namespace vcaqoe::bench::pipeline
