#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// BENCHMARK.json is the single source of the benchmark's workload names,
/// metric names, units, directions and regression bounds. This module reads
/// it (with `common::JsonValue::parse`) and summarizes per-repeat values the
/// way the comparison rules read them.
namespace vcaqoe::bench::pipeline {

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higherIsBetter = false;
  /// Share of the parent's median by which the metric may worsen before a
  /// change counts as a regression. End-to-end metrics only; per-layer
  /// metrics carry none (0).
  double bound = 0.0;
};

struct BenchSpec {
  int runSeconds = 0;
  std::vector<std::string> workloads;
  std::vector<MetricSpec> endToEnd;
  std::vector<MetricSpec> perLayer;

  /// The end-to-end or per-layer metric called `name`, or null.
  const MetricSpec* find(std::string_view name) const;
};

/// Reads and validates BENCHMARK.json. Returns nullopt with `error` set when
/// the file is unreadable, is not strict JSON, or lacks a required field.
std::optional<BenchSpec> loadSpec(const std::string& path, std::string& error);

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so the numbers printed here match the acceptance
/// arithmetic applied to them. A single value is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// One metric's per-repeat values: quartiles plus range and count.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};
Summary summarize(const std::vector<double>& values);

}  // namespace vcaqoe::bench::pipeline
