#pragma once

#include <string>
#include <vector>

#include "spec.hpp"

/// `bench_pipeline --compare`: a parent's and a change's BENCH_pipeline.json
/// documents judged by the comparison rules, with the bounds from
/// BENCHMARK.json.
namespace vcaqoe::bench::pipeline {

/// Prints, per workload and metric, each side's median and quartiles over
/// its runs and a verdict for every end-to-end metric:
///  * "regressed"    the change's median is worse than the parent's by more
///                   than the metric's bound;
///  * "unresolved"   the parent's own spread (q3 - q1 over its median) is
///                   wider than the bound and not every change run beats
///                   every parent run;
///  * "within bound" otherwise.
/// For each claimed `metric@workload` it also prints the pair-win count
/// (run i of the change against run i of the parent) and reports a gain
/// only when the change wins at least nine tenths of the pairs and the
/// medians differ by more than the parent's quartile distance.
/// Returns 0, or 1 when any metric regressed or any claim is not met, or 2
/// on unreadable input.
int runCompare(const BenchSpec& spec, const std::vector<std::string>& parent,
               const std::vector<std::string>& change,
               const std::vector<std::string>& claims);

}  // namespace vcaqoe::bench::pipeline
