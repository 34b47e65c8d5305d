// Schema validator for persisted bench documents (BENCH_*.json).
//
// Usage: bench_schema_check FILE [FILE...]
//
// Parses each file with the strict common::JsonValue reader and checks the
// BenchReport document contract (bench/bench_report.hpp): schema_version,
// bench name, host metadata, config object, and a non-empty scenarios array
// whose rows each carry a name and a non-empty numeric throughput object.
// For bench == "engine_throughput" it additionally requires the
// worker_sweep section to cover workers {1,2,4,8}, each entry with
// pkts_per_s and p50/p99 latency — the shape the checked-in scaling curve
// and CI artifact promise — and that every flow-table row declares its
// feature_set ("ipudp" or "rtp") with both families present in the
// document (the kRtp hot path is benchmarked, not just the seed kIpUdp
// one), that config.simd names the dispatch arm the kernels ran on
// (scalar/sse2/avx2/neon), that a kernel_micro scenario carries both
// columns of the two SIMD kernel comparisons and the batched-predict rate,
// and that a skewed_flows
// scenario persists its sequential and engine columns digest-verified and
// a non-empty per-shard "load" array with dispatched, processed and
// backlog per shard.
//
// Exit code 0 only when every file validates; failures are printed with the
// file and the violated rule. CI runs this on the bench-smoke artifacts so
// a malformed document fails the build instead of landing in the
// trajectory.

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.hpp"

namespace {

using vcaqoe::common::JsonValue;

struct Checker {
  const std::string& file;
  std::vector<std::string> errors;

  void fail(std::string message) { errors.push_back(std::move(message)); }

  const JsonValue* requireMember(const JsonValue& object, const char* key,
                                 bool (JsonValue::*is)() const,
                                 const char* type,
                                 const std::string& where) {
    const JsonValue* value = object.find(key);
    if (!value) {
      fail(where + ": missing \"" + key + "\"");
      return nullptr;
    }
    if (!((*value).*is)()) {
      fail(where + ": \"" + key + "\" is not " + type);
      return nullptr;
    }
    return value;
  }

  void checkLatency(const JsonValue& row, const std::string& where) {
    const auto* latency = requireMember(row, "latency_ms", &JsonValue::isObject,
                                        "an object", where);
    if (!latency) return;
    for (const char* key : {"p50", "p99", "max"}) {
      requireMember(*latency, key, &JsonValue::isNumber, "a number",
                    where + ".latency_ms");
    }
    requireMember(*latency, "samples", &JsonValue::isNumber, "a number",
                  where + ".latency_ms");
  }

  void checkThroughput(const JsonValue& row, const std::string& where) {
    const auto* throughput = requireMember(
        row, "throughput", &JsonValue::isObject, "an object", where);
    if (!throughput) return;
    if (throughput->size() == 0) {
      fail(where + ".throughput: empty object (no rates recorded)");
      return;
    }
    for (std::size_t i = 0; i < throughput->size(); ++i) {
      const auto& [key, value] = throughput->entry(i);
      if (!value.isNumber()) {
        fail(where + ".throughput." + key + ": not a number");
      }
    }
  }

  void checkDocument(const JsonValue& doc) {
    if (!doc.isObject()) {
      fail("top level: not an object");
      return;
    }
    const auto* version = requireMember(doc, "schema_version",
                                        &JsonValue::isNumber, "a number",
                                        "top level");
    if (version && version->asInt() != 1) {
      fail("top level: schema_version " + std::to_string(version->asInt()) +
           " (this checker knows version 1)");
    }
    const auto* bench = requireMember(doc, "bench", &JsonValue::isString,
                                      "a string", "top level");
    requireMember(doc, "generated_unix_s", &JsonValue::isNumber, "a number",
                  "top level");
    if (const auto* host = requireMember(doc, "host", &JsonValue::isObject,
                                         "an object", "top level")) {
      requireMember(*host, "hardware_threads", &JsonValue::isNumber,
                    "a number", "host");
      requireMember(*host, "build_type", &JsonValue::isString, "a string",
                    "host");
      requireMember(*host, "git_describe", &JsonValue::isString, "a string",
                    "host");
    }
    requireMember(doc, "config", &JsonValue::isObject, "an object",
                  "top level");
    const auto* scenarios = requireMember(doc, "scenarios",
                                          &JsonValue::isArray, "an array",
                                          "top level");
    if (scenarios) {
      if (scenarios->size() == 0) fail("scenarios: empty array");
      for (std::size_t i = 0; i < scenarios->size(); ++i) {
        const auto& row = scenarios->at(i);
        const std::string where = "scenarios[" + std::to_string(i) + "]";
        if (!row.isObject()) {
          fail(where + ": not an object");
          continue;
        }
        requireMember(row, "name", &JsonValue::isString, "a string", where);
        checkThroughput(row, where);
      }
    }
    if (bench && bench->asString() == "engine_throughput") {
      checkWorkerSweep(doc);
      checkFeatureSets(doc);
      checkSimd(doc);
      checkSkewedFlows(doc);
    }
  }

  /// Engine-bench skew contract: the document carries the skewed_flows
  /// (elephant) scenario with its sequential and engine columns
  /// digest-verified and the engine run's per-shard load vector.
  void checkSkewedFlows(const JsonValue& doc) {
    const auto* scenarios = doc.find("scenarios");
    if (!scenarios || !scenarios->isArray()) return;  // reported already
    const JsonValue* skewed = nullptr;
    std::size_t at = 0;
    for (std::size_t i = 0; i < scenarios->size(); ++i) {
      const auto& row = scenarios->at(i);
      if (!row.isObject()) continue;
      if (const auto* name = row.find("name");
          name && name->isString() && name->asString() == "skewed_flows") {
        skewed = &row;
        at = i;
      }
    }
    if (!skewed) {
      fail("scenarios: no \"skewed_flows\" row (elephant scenario missing)");
      return;
    }
    const std::string where = "scenarios[" + std::to_string(at) + "]";
    if (const auto* throughput = skewed->find("throughput");
        throughput && throughput->isObject()) {
      for (const char* key : {"seq_pkts_per_s", "eng_hash_pkts_per_s"}) {
        requireMember(*throughput, key, &JsonValue::isNumber, "a number",
                      where + ".throughput");
      }
    }
    if (const auto* identical = requireMember(
            *skewed, "identical", &JsonValue::isBool, "a bool", where)) {
      if (!identical->asBool()) {
        fail(where + ": identical=false (digest mismatch persisted)");
      }
    }
    const auto* load = requireMember(*skewed, "load", &JsonValue::isArray,
                                     "an array", where);
    if (!load) return;
    if (load->size() == 0) {
      fail(where + ".load: empty array (no per-shard load vector)");
      return;
    }
    for (std::size_t i = 0; i < load->size(); ++i) {
      const auto& shard = load->at(i);
      const std::string shardWhere =
          where + ".load[" + std::to_string(i) + "]";
      if (!shard.isObject()) {
        fail(shardWhere + ": not an object");
        continue;
      }
      for (const char* key : {"dispatched", "processed", "backlog"}) {
        requireMember(shard, key, &JsonValue::isNumber, "a number",
                      shardWhere);
      }
    }
  }

  /// Engine-bench SIMD contract: the config declares which dispatch arm the
  /// kernels ran on (so trajectory points are comparable), and the document
  /// carries the kernel_micro scenario with both columns of the two kernel
  /// comparisons and the batched-predict rate.
  void checkSimd(const JsonValue& doc) {
    if (const auto* config = doc.find("config");
        config && config->isObject()) {
      if (const auto* simd = requireMember(*config, "simd",
                                           &JsonValue::isString, "a string",
                                           "config")) {
        const auto name = simd->asString();
        if (name != "scalar" && name != "sse2" && name != "avx2" &&
            name != "neon") {
          fail("config: simd \"" + name +
               "\" (expected scalar, sse2, avx2, or neon)");
        }
      }
    }
    const auto* scenarios = doc.find("scenarios");
    if (!scenarios || !scenarios->isArray()) return;  // reported already
    const JsonValue* kernels = nullptr;
    std::size_t at = 0;
    for (std::size_t i = 0; i < scenarios->size(); ++i) {
      const auto& row = scenarios->at(i);
      if (!row.isObject()) continue;
      if (const auto* name = row.find("name");
          name && name->isString() && name->asString() == "kernel_micro") {
        kernels = &row;
        at = i;
      }
    }
    if (!kernels) {
      fail("scenarios: no \"kernel_micro\" row (SIMD kernel columns missing)");
      return;
    }
    const std::string where = "scenarios[" + std::to_string(at) + "]";
    const auto* throughput = kernels->find("throughput");
    if (!throughput || !throughput->isObject()) return;  // reported already
    for (const char* key :
         {"lookback_scan_scalar_elems_per_s", "lookback_scan_simd_elems_per_s",
          "window_stats_scalar_elems_per_s", "window_stats_simd_elems_per_s",
          "predict_blocked_rows_per_s"}) {
      requireMember(*throughput, key, &JsonValue::isNumber, "a number",
                    where + ".throughput");
    }
  }

  /// Engine-bench feature-set contract: every scenario row with a "flows"
  /// count carries feature_set "ipudp" or "rtp", and both families appear
  /// in the document.
  void checkFeatureSets(const JsonValue& doc) {
    const auto* scenarios = doc.find("scenarios");
    if (!scenarios || !scenarios->isArray()) return;  // reported already
    std::set<std::string> seen;
    for (std::size_t i = 0; i < scenarios->size(); ++i) {
      const auto& row = scenarios->at(i);
      if (!row.isObject() || !row.find("flows")) continue;
      const std::string where = "scenarios[" + std::to_string(i) + "]";
      const auto* set = requireMember(row, "feature_set", &JsonValue::isString,
                                      "a string", where);
      if (!set) continue;
      const auto name = set->asString();
      if (name != "ipudp" && name != "rtp") {
        fail(where + ": feature_set \"" + name +
             "\" (expected \"ipudp\" or \"rtp\")");
        continue;
      }
      seen.insert(name);
    }
    for (const char* required : {"ipudp", "rtp"}) {
      if (!seen.count(required)) {
        fail(std::string("scenarios: no flow row with feature_set \"") +
             required + "\"");
      }
    }
  }

  /// The engine bench's scaling-curve contract: workers {1,2,4,8}, each
  /// with a pkts_per_s rate and a latency block.
  void checkWorkerSweep(const JsonValue& doc) {
    const auto* sweep = requireMember(doc, "worker_sweep", &JsonValue::isArray,
                                      "an array", "top level");
    if (!sweep) return;
    std::set<std::int64_t> seen;
    for (std::size_t i = 0; i < sweep->size(); ++i) {
      const auto& entry = sweep->at(i);
      const std::string where = "worker_sweep[" + std::to_string(i) + "]";
      if (!entry.isObject()) {
        fail(where + ": not an object");
        continue;
      }
      const auto* workers = requireMember(entry, "workers",
                                          &JsonValue::isNumber, "a number",
                                          where);
      if (const auto* identical =
              requireMember(entry, "identical", &JsonValue::isBool, "a bool",
                            where)) {
        if (!identical->asBool()) {
          fail(where + ": identical=false (digest mismatch persisted)");
        }
      }
      const auto* throughput = requireMember(
          entry, "throughput", &JsonValue::isObject, "an object", where);
      if (throughput) {
        requireMember(*throughput, "pkts_per_s", &JsonValue::isNumber,
                      "a number", where + ".throughput");
      }
      checkLatency(entry, where);
      if (workers) seen.insert(workers->asInt());
    }
    for (const std::int64_t w : {1, 2, 4, 8}) {
      if (!seen.count(w)) {
        fail("worker_sweep: missing workers=" + std::to_string(w));
      }
    }
  }
};

bool checkFile(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", file.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string parseError;
  const auto doc = JsonValue::parse(buffer.str(), &parseError);
  if (!doc) {
    std::fprintf(stderr, "%s: parse error: %s\n", file.c_str(),
                 parseError.c_str());
    return false;
  }
  Checker checker{file, {}};
  checker.checkDocument(*doc);
  for (const auto& error : checker.errors) {
    std::fprintf(stderr, "%s: %s\n", file.c_str(), error.c_str());
  }
  if (checker.errors.empty()) {
    std::printf("%s: ok (bench=%s, %zu scenarios)\n", file.c_str(),
                doc->find("bench") ? doc->find("bench")->asString().c_str()
                                   : "?",
                doc->find("scenarios") ? doc->find("scenarios")->size() : 0);
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bench_schema_check FILE [FILE...]\n");
    return 2;
  }
  bool ok = true;
  for (int i = 1; i < argc; ++i) ok = checkFile(argv[i]) && ok;
  return ok ? 0 : 1;
}
