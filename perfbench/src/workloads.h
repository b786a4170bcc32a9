// The benchmark's workloads.  Each is a closed loop with one client: the
// next request starts when the previous one has finished and been
// checked.  End-to-end numbers come from untraced runs; a traced run
// reports the per-layer numbers instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Tiny sizes for the benchmark's own tests; every metric is still
  /// emitted.
  bool smoke{false};
  /// Test hook: "counter" or "digest" corrupts the reference a workload
  /// checks its requests against, so every checked request fails.
  std::string inject;
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
  /// Measurements behind the value (1 for an exact count).
  std::uint64_t samples{1};
};

struct Result {
  std::vector<Metric> metrics;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
};

/// Names run_workload accepts.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument on bad options.
[[nodiscard]] Result run_workload(const Options& options);

}  // namespace perfbench
