#pragma once

#include <thread>

/// Concurrency helper shared by every module that sizes a thread pool.
namespace vcaqoe::common {

/// `std::thread::hardware_concurrency()` with the standard-permitted 0
/// ("not computable") mapped to `fallback`. Every pool-sizing call site
/// goes through this one helper so the degenerate platform behaves the
/// same everywhere instead of five slightly different guards.
inline unsigned hardwareThreadsOr(unsigned fallback) {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : fallback;
}

}  // namespace vcaqoe::common
