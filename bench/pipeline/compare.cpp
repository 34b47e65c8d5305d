#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/json_writer.hpp"

namespace vcaqoe::bench::pipeline {

namespace {

std::optional<common::JsonValue> readDocument(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "compare: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  auto doc = common::JsonValue::parse(text.str(), &error);
  if (!doc || doc->find("workloads") == nullptr) {
    std::fprintf(stderr, "compare: %s is not a BENCH_pipeline.json (%s)\n",
                 path.c_str(), error.c_str());
    return std::nullopt;
  }
  return doc;
}

/// One value per document that has `workload` and `metric`.
std::vector<double> valuesOf(const std::vector<common::JsonValue>& docs,
                             const std::string& workload,
                             const std::string& metric) {
  std::vector<double> values;
  for (const auto& doc : docs) {
    const auto* w = doc.find("workloads")->find(workload);
    const auto* metrics = w != nullptr ? w->find("metrics") : nullptr;
    const auto* m = metrics != nullptr ? metrics->find(metric) : nullptr;
    const auto* value = m != nullptr ? m->find("value") : nullptr;
    if (value != nullptr && value->isNumber()) {
      values.push_back(value->asDouble());
    }
  }
  return values;
}

bool better(const MetricSpec& metric, double a, double b) {
  return metric.higherIsBetter ? a > b : a < b;
}

}  // namespace

int runCompare(const BenchSpec& spec, const std::vector<std::string>& parent,
               const std::vector<std::string>& change,
               const std::vector<std::string>& claims) {
  std::vector<common::JsonValue> parentDocs;
  std::vector<common::JsonValue> changeDocs;
  for (const auto& [paths, docs] :
       {std::pair{&parent, &parentDocs}, std::pair{&change, &changeDocs}}) {
    for (const auto& path : *paths) {
      auto doc = readDocument(path);
      if (!doc) return 2;
      docs->push_back(std::move(*doc));
    }
  }
  for (const auto& claim : claims) {
    const auto at = claim.find('@');
    if (at == std::string::npos || spec.find(claim.substr(0, at)) == nullptr) {
      std::fprintf(stderr, "compare: claim '%s' is not METRIC@WORKLOAD\n",
                   claim.c_str());
      return 2;
    }
  }

  int status = 0;
  std::printf("%-12s %-34s %12s %12s %12s | %12s %12s %12s  %s\n", "workload",
              "metric", "parent q1", "median", "q3", "change q1", "median",
              "q3", "verdict");
  for (const auto& workload : spec.workloads) {
    for (const auto* list : {&spec.endToEnd, &spec.perLayer}) {
      for (const auto& metric : *list) {
        const auto p = valuesOf(parentDocs, workload, metric.name);
        const auto c = valuesOf(changeDocs, workload, metric.name);
        if (p.empty() || c.empty()) continue;
        const auto pq = quartiles(p);
        const auto cq = quartiles(c);
        std::string verdict = "-";
        if (list == &spec.endToEnd) {
          const double worse =
              (metric.higherIsBetter ? pq.median - cq.median
                                     : cq.median - pq.median) /
              std::abs(pq.median);
          const double spread = (pq.q3 - pq.q1) / std::abs(pq.median);
          const bool allBetter = std::all_of(c.begin(), c.end(), [&](double x) {
            return std::all_of(p.begin(), p.end(),
                               [&](double y) { return better(metric, x, y); });
          });
          if (worse > metric.bound) {
            verdict = "regressed";
            status = 1;
          } else if (spread > metric.bound && !allBetter) {
            verdict = "unresolved";
          } else {
            verdict = "within bound";
          }
        }
        const std::string claimKey = metric.name + "@" + workload;
        if (std::find(claims.begin(), claims.end(), claimKey) != claims.end()) {
          const std::size_t pairs = std::min(p.size(), c.size());
          std::size_t wins = 0;
          for (std::size_t i = 0; i < pairs; ++i) {
            if (better(metric, c[i], p[i])) ++wins;
          }
          const bool gain = pairs > 0 && wins * 10 >= pairs * 9 &&
                            better(metric, cq.median, pq.median) &&
                            std::abs(cq.median - pq.median) > pq.q3 - pq.q1;
          verdict += ", claim " + std::string(gain ? "met" : "not met") +
                     " (" + std::to_string(wins) + "/" +
                     std::to_string(pairs) + " pairs won)";
          if (!gain) status = 1;
        }
        std::printf(
            "%-12s %-34s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g  %s\n",
            workload.c_str(), (metric.name + " [" + metric.unit + "]").c_str(),
            pq.q1, pq.median, pq.q3, cq.q1, cq.median, cq.q3, verdict.c_str());
      }
    }
  }
  return status;
}

}  // namespace vcaqoe::bench::pipeline
