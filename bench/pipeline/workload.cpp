#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <queue>
#include <stdexcept>
#include <thread>

#include "common/load.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/evaluation.hpp"
#include "core/session.hpp"
#include "datasets/generators.hpp"
#include "datasets/vca_profiles.hpp"
#include "ml/flattened_forest.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "netem/conditions.hpp"
#include "netflow/pcap.hpp"

namespace vcaqoe::bench::pipeline {

namespace {

// Traffic sizes. Each workload replays a few million packets per repeat,
// so a run of BENCHMARK.json's run_seconds holds several repeats.
constexpr int kLongLivedCalls = 64;
constexpr double kLongLivedSeconds = 240.0;
constexpr int kChurnCalls = 1500;
// §4.2: real-world calls last 15-25 s.
constexpr double kChurnMinSeconds = 15.0;
constexpr double kChurnMaxSeconds = 25.0;
constexpr double kChurnConcurrent = 512.0;
constexpr int kTrainCallsPerVca = 30;
constexpr double kTrainSeconds = 60.0;
constexpr int kTrainTrees = 32;
// pcap_monitor's default idle timeout.
constexpr common::DurationNs kIdleTimeoutNs = 30 * common::kNanosPerSecond;
constexpr std::size_t kCaptureChunkPackets = 1 << 16;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Independent seed stream per purpose, so training calls never share a
/// generator (or a seed) with any workload's calls.
std::uint64_t streamSeed(std::uint64_t seed, std::string_view purpose) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  for (const char c : purpose) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  return splitmix64(seed ^ h);
}

/// Runs fn(i) for i in [0, n) on the hardware threads; rethrows the first
/// exception after every thread has joined.
template <typename Fn>
void parallelFor(std::size_t n, Fn&& fn) {
  const std::size_t threads =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   common::hardwareThreadsOr(1), n));
  std::atomic<std::size_t> next{0};
  std::exception_ptr failure;
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      try {
        for (std::size_t i = next.fetch_add(1); i < n && !failed.load();
             i = next.fetch_add(1)) {
          fn(i);
        }
      } catch (...) {
        if (!failed.exchange(true)) failure = std::current_exception();
      }
    });
  }
  for (auto& thread : pool) thread.join();
  if (failure) std::rethrow_exception(failure);
}

struct CallPlan {
  simcall::VcaProfile profile;
  netem::ConditionSchedule schedule;
  double durationSec = 0.0;
  std::uint64_t seed = 0;
  std::int64_t offsetSec = 0;
  netflow::FlowKey key;
};

/// Server side of a call: the VCA's relay address and media port, which is
/// what `MediaClassifier::classifyVca` keys the registry on.
netflow::FlowKey callKey(const std::string& vca, std::uint32_t index) {
  netflow::FlowKey key;
  if (vca == "meet") {
    key.srcIp = 0x4A7D0001u;  // 74.125.0.1
    key.srcPort = 19305;
  } else if (vca == "teams") {
    key.srcIp = 0x34700001u;  // 52.112.0.1
    key.srcPort = 3478;
  } else {
    key.srcIp = 0x42A30001u;  // 66.163.0.1
    key.srcPort = 9000;
  }
  key.dstIp = 0x0A000001u + index;  // one client per call
  key.dstPort = static_cast<std::uint16_t>(50000 + index % 10000);
  return key;
}

std::vector<CallPlan> planCalls(Traffic traffic, std::uint64_t seed) {
  common::Rng rng(seed);
  const auto profiles = datasets::allProfiles(datasets::Deployment::kLab);
  const auto teams = datasets::teamsProfile(datasets::Deployment::kLab);
  std::vector<CallPlan> calls;
  const auto add = [&](const simcall::VcaProfile& profile, double seconds,
                       std::int64_t offsetSec) {
    CallPlan call;
    call.profile = profile;
    call.durationSec = seconds;
    netem::NdtTraceSynthesizer synth(rng.engine()());
    call.schedule =
        synth.synthesize(static_cast<std::size_t>(std::ceil(seconds)) + 1);
    call.seed = rng.engine()();
    call.offsetSec = offsetSec;
    call.key = callKey(profile.name, static_cast<std::uint32_t>(calls.size()));
    calls.push_back(std::move(call));
  };
  switch (traffic) {
    case Traffic::kLongLived:
    case Traffic::kLongLivedTeams:
      for (int i = 0; i < kLongLivedCalls; ++i) {
        const auto& profile =
            traffic == Traffic::kLongLivedTeams
                ? teams
                : profiles[static_cast<std::size_t>(i) % profiles.size()];
        add(profile, kLongLivedSeconds, rng.uniformInt(0, 3));
      }
      break;
    case Traffic::kChurn: {
      // Poisson arrivals at the rate that holds kChurnConcurrent calls of
      // the mean length (Little's law); each call starts on the next whole
      // second so its windows line up with its ground-truth seconds.
      const double meanSeconds = (kChurnMinSeconds + kChurnMaxSeconds) / 2.0;
      const double interArrival = meanSeconds / kChurnConcurrent;
      double t = 0.0;
      for (int i = 0; i < kChurnCalls; ++i) {
        t += rng.exponential(interArrival);
        const auto& profile = profiles[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(profiles.size()) - 1))];
        add(profile, rng.uniform(kChurnMinSeconds, kChurnMaxSeconds),
            static_cast<std::int64_t>(std::ceil(t)));
      }
      break;
    }
  }
  return calls;
}

std::vector<core::LabeledSession> simulate(const std::vector<CallPlan>& calls) {
  std::vector<core::LabeledSession> sessions(calls.size());
  parallelFor(calls.size(), [&](std::size_t i) {
    const auto& call = calls[i];
    sessions[i] = datasets::simulateSession(call.profile, call.schedule,
                                            call.durationSec, call.seed, i);
  });
  return sessions;
}

/// Streams packets into a capture file in chunks, so the whole capture is
/// never held in memory twice.
class CaptureFile {
 public:
  explicit CaptureFile(const std::string& path)
      : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
    if (!out_) throw std::runtime_error("cannot create " + path);
  }

  void write(const netflow::FlowKey& key, const netflow::Packet& packet) {
    chunk_.write(key, packet);
    if (++inChunk_ == kCaptureChunkPackets) flush();
  }

  void close() {
    flush();
    out_.close();
    if (!out_) throw std::runtime_error("write to " + path_ + " failed");
  }

 private:
  void flush() {
    if (inChunk_ == 0 && wroteHeader_) return;
    // Every chunk writer starts with the global header; keep the first.
    const auto& bytes = chunk_.bytes();
    const std::size_t skip = wroteHeader_ ? netflow::kPcapGlobalHeaderSize : 0;
    out_.write(reinterpret_cast<const char*>(bytes.data() + skip),
               static_cast<std::streamsize>(bytes.size() - skip));
    wroteHeader_ = true;
    chunk_ = netflow::PcapWriter();
    inChunk_ = 0;
  }

  std::string path_;
  std::ofstream out_;
  netflow::PcapWriter chunk_;
  std::size_t inChunk_ = 0;
  bool wroteHeader_ = false;
};

}  // namespace

const WorkloadShape* findShape(const std::string& name) {
  static const WorkloadShape kShapes[] = {
      {"steady64", Traffic::kLongLived, features::FeatureSet::kIpUdp, 32},
      {"churn_calls", Traffic::kChurn, features::FeatureSet::kIpUdp, 32},
      {"rtp64", Traffic::kLongLivedTeams, features::FeatureSet::kRtp, 32},
      // pcap_monitor's default: per-window inference, no batching.
      {"paced_calls", Traffic::kChurn, features::FeatureSet::kIpUdp, 1},
  };
  for (const auto& shape : kShapes) {
    if (name == shape.name) return &shape;
  }
  return nullptr;
}

engine::EngineOptions Workload::engineOptions(
    std::shared_ptr<inference::ModelRegistry> registry) const {
  engine::EngineOptions options;
  options.streaming = streaming;
  options.numWorkers = kWorkers;
  options.idleTimeoutNs = kIdleTimeoutNs;
  options.inferenceBatch = shape.inferenceBatch;
  options.inferenceFlushNs =
      engine::scaledInferenceFlushNs(shape.inferenceBatch);
  options.registry = std::move(registry);
  options.targets = {kTarget};
  return options;
}

void trainModels(std::uint64_t seed, const std::string& modelDir) {
  common::Rng rng(streamSeed(seed, "train"));
  std::vector<CallPlan> calls;
  for (const auto& profile :
       datasets::allProfiles(datasets::Deployment::kLab)) {
    for (int i = 0; i < kTrainCallsPerVca; ++i) {
      CallPlan call;
      call.profile = profile;
      call.durationSec = kTrainSeconds;
      netem::NdtTraceSynthesizer synth(rng.engine()());
      call.schedule =
          synth.synthesize(static_cast<std::size_t>(kTrainSeconds) + 1);
      call.seed = rng.engine()();
      calls.push_back(std::move(call));
    }
  }
  const auto sessions = simulate(calls);
  const auto records = datasets::recordsForSessions(sessions);

  ml::ForestOptions forestOptions;
  forestOptions.numTrees = kTrainTrees;
  for (const auto& profile :
       datasets::allProfiles(datasets::Deployment::kLab)) {
    std::vector<core::WindowRecord> own;
    for (const auto& record : records) {
      if (sessions[record.sessionId].profile.name == profile.name) {
        own.push_back(record);
      }
    }
    for (const auto set :
         {features::FeatureSet::kIpUdp, features::FeatureSet::kRtp}) {
      const auto data =
          core::buildMlDataset(own, set, rxstats::Metric::kFrameRate);
      ml::RandomForest forest;
      forest.fit(data, ml::TreeTask::kRegression, forestOptions,
                 rng.engine()());
      const auto dir = std::filesystem::path(modelDir) / profile.name /
                       std::string(features::toString(set));
      std::filesystem::create_directories(dir);
      ml::saveFlattenedForestFile(
          ml::FlattenedForest(forest),
          (dir / (std::string(inference::toString(kTarget)) +
                  ml::kFlatForestFileExtension))
              .string());
    }
  }
}

Workload buildWorkload(const WorkloadShape& shape, std::uint64_t seed,
                       const std::string& workDir,
                       const std::string& modelDir) {
  Workload w;
  w.shape = shape;
  w.modelDir = modelDir;
  w.streaming.featureSet = shape.featureSet;
  if (shape.featureSet == features::FeatureSet::kRtp) {
    // The RTP estimator classifies video by payload type; every call of an
    // RTP workload uses the Teams lab plan.
    const auto teams = datasets::teamsProfile(datasets::Deployment::kLab);
    w.streaming.extraction.videoPt = teams.videoPt;
    w.streaming.extraction.rtxPt = teams.rtxPt;
  }

  // paced_calls replays churn_calls' capture, so both draw the same calls.
  const std::string trafficName =
      shape.traffic == Traffic::kChurn ? "churn" : shape.name;
  const auto calls = planCalls(shape.traffic, streamSeed(seed, trafficName));
  auto sessions = simulate(calls);
  w.calls = calls.size();

  // Offline path (anchor and ground truth), on each call's own timeline and
  // with the engine's Algorithm-1 parameters.
  core::RecordBuilderOptions recordOptions;
  recordOptions.windowNs = w.streaming.windowNs;
  recordOptions.classifier = w.streaming.classifier;
  recordOptions.heuristicFromProfile = false;
  recordOptions.heuristic = w.streaming.heuristic;
  std::vector<std::vector<core::WindowRecord>> records(calls.size());
  parallelFor(calls.size(), [&](std::size_t i) {
    records[i] = core::buildWindowRecords(sessions[i], recordOptions);
  });

  // Place each call on the capture timeline.
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const auto shift = calls[i].offsetSec * common::kNanosPerSecond;
    for (auto& packet : sessions[i].packets) {
      packet.arrivalNs += shift;
      packet.departureNs += shift;
      if (packet.arrivalNs < 0) {
        throw std::runtime_error("simulated packet before capture start");
      }
    }
  }

  // Sequential reference: one standalone estimator per call, with the
  // model the engine's registry serves that call's VCA.
  inference::ModelRegistryOptions registryOptions;
  registryOptions.modelDir = modelDir;
  inference::ModelRegistry registry(registryOptions);
  const inference::QoeTarget targets[] = {kTarget};
  const core::MediaClassifier classifier(w.streaming.classifier);
  std::vector<std::string> vcaOf(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    vcaOf[i] = std::string(
        core::toString(classifier.classifyVca(calls[i].key)));
    if (std::find(w.vcas.begin(), w.vcas.end(), vcaOf[i]) == w.vcas.end()) {
      w.vcas.push_back(vcaOf[i]);
      registry.resolveSet(vcaOf[i], targets, shape.featureSet);
    }
  }
  if (registry.stats().loads != w.vcas.size() ||
      registry.stats().loadFailures != 0) {
    throw std::runtime_error("models missing or unreadable under " + modelDir);
  }
  std::vector<std::vector<core::StreamingOutput>> outputs(calls.size());
  std::vector<std::vector<std::int64_t>> triggerLocal(calls.size());
  parallelFor(calls.size(), [&](std::size_t i) {
    std::int64_t current = -1;
    core::StreamingEstimator estimator(
        w.streaming,
        [&](const core::StreamingOutput& out) {
          outputs[i].push_back(out);
          triggerLocal[i].push_back(current);
        },
        registry.resolveSet(vcaOf[i], targets, shape.featureSet));
    const auto& packets = sessions[i].packets;
    for (std::size_t p = 0; p < packets.size(); ++p) {
      current = static_cast<std::int64_t>(p);
      estimator.onPacket(packets[p]);
    }
    current = -1;
    estimator.finish();
    for (std::size_t k = 0; k < outputs[i].size(); ++k) {
      if (outputs[i][k].window != static_cast<std::int64_t>(k)) {
        throw std::runtime_error("reference windows are not contiguous");
      }
    }
  });

  // Merge the calls into one arrival-ordered capture; record first-seen
  // flow order and the capture position of every window-emitting packet.
  std::filesystem::create_directories(workDir);
  w.capturePath =
      (std::filesystem::path(workDir) / (std::string(shape.name) + ".pcap"))
          .string();
  CaptureFile capture(w.capturePath);
  struct Head {
    common::TimeNs arrivalNs;
    std::uint32_t call;
    std::uint32_t pos;
    bool operator>(const Head& other) const {
      return arrivalNs != other.arrivalNs ? arrivalNs > other.arrivalNs
                                          : call > other.call;
    }
  };
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (!sessions[i].packets.empty()) {
      heads.push({sessions[i].packets.front().arrivalNs,
                  static_cast<std::uint32_t>(i), 0});
    }
  }
  std::vector<std::uint32_t> flowOf(calls.size(), 0);
  std::vector<std::int64_t> firstWindow(calls.size(), 0);
  std::vector<std::size_t> cursor(calls.size(), 0);
  std::vector<std::vector<std::int32_t>> eventOf(calls.size());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    eventOf[i].assign(outputs[i].size(), -1);
  }
  std::uint32_t nextFlow = 0;
  common::TimeNs firstNs = 0;
  common::TimeNs lastNs = 0;
  while (!heads.empty()) {
    const Head head = heads.top();
    heads.pop();
    const auto& packets = sessions[head.call].packets;
    const auto& packet = packets[head.pos];
    if (w.packets == 0) firstNs = packet.arrivalNs;
    lastNs = packet.arrivalNs;
    if (head.pos == 0) {
      flowOf[head.call] = nextFlow++;
      firstWindow[head.call] =
          common::windowIndex(packet.arrivalNs, w.streaming.windowNs);
    }
    // Windows before the call's first packet are emitted by that packet
    // (every estimator starts at window 0); they carry no call data and are
    // not latency samples.
    auto& c = cursor[head.call];
    while (c < outputs[head.call].size() &&
           triggerLocal[head.call][c] == static_cast<std::int64_t>(head.pos)) {
      if (static_cast<std::int64_t>(c) >= firstWindow[head.call]) {
        if (w.eventPackets.empty() || w.eventPackets.back() != w.packets) {
          w.eventPackets.push_back(w.packets);
        }
        eventOf[head.call][c] =
            static_cast<std::int32_t>(w.eventPackets.size() - 1);
      }
      ++c;
    }
    capture.write(calls[head.call].key, packet);
    ++w.packets;
    if (head.pos + 1 < packets.size()) {
      heads.push({packets[head.pos + 1].arrivalNs, head.call, head.pos + 1});
    }
  }
  capture.close();
  w.streamSeconds = common::nsToSeconds(lastNs - firstNs);
  sessions.clear();
  sessions.shrink_to_fit();

  // Per-flow arrays in the engine's FlowId order.
  const std::size_t flows = calls.size();
  w.flowKeys.resize(flows);
  w.flowVca.resize(flows);
  w.reference.resize(flows);
  w.windowEvent.resize(flows);
  w.truthFps.resize(flows);
  std::vector<std::size_t> callOfFlow(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    const std::size_t f = flowOf[i];
    callOfFlow[f] = i;
    w.flowKeys[f] = calls[i].key;
    w.flowVca[f] = vcaOf[i];
    w.referenceWindows += outputs[i].size();
    w.truthFps[f].assign(outputs[i].size(),
                         std::numeric_limits<double>::quiet_NaN());
    for (const auto& record : records[i]) {
      const auto window = record.window + calls[i].offsetSec;
      if (record.truthValid && window >= 0 &&
          window < static_cast<std::int64_t>(outputs[i].size())) {
        w.truthFps[f][static_cast<std::size_t>(window)] = record.truthFps;
      }
    }
    w.reference[f] = std::move(outputs[i]);
    w.windowEvent[f] = std::move(eventOf[i]);
  }

  if (shape.featureSet == features::FeatureSet::kIpUdp) {
    std::vector<core::WindowRecord> inFlowOrder;
    for (const std::size_t call : callOfFlow) {
      inFlowOrder.insert(inFlowOrder.end(), records[call].begin(),
                         records[call].end());
    }
    const auto series = core::heuristicSeries(
        inFlowOrder, core::Method::kIpUdpHeuristic,
        rxstats::Metric::kFrameRate);
    w.offlineHeuristicMae =
        common::meanAbsoluteError(series.predicted, series.truth);
  }
  return w;
}

}  // namespace vcaqoe::bench::pipeline
