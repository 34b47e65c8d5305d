#include "spec.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/json_writer.hpp"

namespace vcaqoe::bench::pipeline {

const MetricSpec* BenchSpec::find(std::string_view name) const {
  for (const auto* list : {&endToEnd, &perLayer}) {
    for (const auto& metric : *list) {
      if (metric.name == name) return &metric;
    }
  }
  return nullptr;
}

namespace {

bool readMetrics(const common::JsonValue& doc, std::string_view key,
                 bool needBound, std::vector<MetricSpec>& out,
                 std::string& error) {
  const auto* list = doc.find(key);
  if (list == nullptr || !list->isArray() || list->size() == 0) {
    error = std::string(key) + " must be a non-empty array";
    return false;
  }
  for (std::size_t i = 0; i < list->size(); ++i) {
    const auto& entry = list->at(i);
    const auto* name = entry.find("name");
    const auto* unit = entry.find("unit");
    const auto* better = entry.find("better");
    const auto* bound = entry.find("bound");
    if (name == nullptr || !name->isString() || unit == nullptr ||
        !unit->isString() || better == nullptr || !better->isString() ||
        (better->asString() != "higher" && better->asString() != "lower") ||
        (needBound && (bound == nullptr || !bound->isNumber()))) {
      error = std::string(key) + " entry " + std::to_string(i) +
              " is malformed";
      return false;
    }
    MetricSpec metric;
    metric.name = name->asString();
    metric.unit = unit->asString();
    metric.higherIsBetter = better->asString() == "higher";
    metric.bound = needBound ? bound->asDouble() : 0.0;
    out.push_back(std::move(metric));
  }
  return true;
}

}  // namespace

std::optional<BenchSpec> loadSpec(const std::string& path,
                                  std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string parseError;
  const auto doc = common::JsonValue::parse(text.str(), &parseError);
  if (!doc || !doc->isObject()) {
    error = path + ": " + (parseError.empty() ? "not an object" : parseError);
    return std::nullopt;
  }

  BenchSpec spec;
  const auto* seconds = doc->find("run_seconds");
  if (seconds == nullptr || !seconds->isNumber()) {
    error = path + ": \"run_seconds\" must be a number";
    return std::nullopt;
  }
  spec.runSeconds = static_cast<int>(seconds->asInt());

  const auto* workloads = doc->find("workloads");
  if (workloads == nullptr || !workloads->isArray()) {
    error = path + ": \"workloads\" must be an array";
    return std::nullopt;
  }
  for (std::size_t i = 0; i < workloads->size(); ++i) {
    const auto* name = workloads->at(i).find("name");
    if (name == nullptr || !name->isString()) {
      error = path + ": workload " + std::to_string(i) + " has no name";
      return std::nullopt;
    }
    spec.workloads.push_back(name->asString());
  }

  std::string metricError;
  if (!readMetrics(*doc, "end_to_end", true, spec.endToEnd, metricError) ||
      !readMetrics(*doc, "per_layer", false, spec.perLayer, metricError)) {
    error = path + ": " + metricError;
    return std::nullopt;
  }
  return spec;
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) {
    q.q1 = q.median = q.q3 = values.front();
    return q;
  }
  // statistics.quantiles(method="exclusive"): cut point i of 4 sits at
  // position i*(n+1)/4 (1-based), interpolated between neighbours.
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.median = cut(2);
  q.q3 = cut(3);
  return q;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  const auto q = quartiles(values);
  s.median = q.median;
  s.q1 = q.q1;
  s.q3 = q.q3;
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  s.min = *lo;
  s.max = *hi;
  return s;
}

}  // namespace vcaqoe::bench::pipeline
