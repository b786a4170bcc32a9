// One-stop experiment pipeline: wires sources -> (shapers) -> offered-
// traffic tap -> scheduler+buffer-manager -> link -> stats, runs a warmup
// plus a measured interval, and returns per-flow steady-state counters.
// Every simulation figure of the paper is a sweep over these runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "core/flow_spec.h"
#include "core/scheme.h"
#include "obs/metrics.h"
#include "sim/packet.h"
#include "traffic/sources.h"
#include "stats/collector.h"
#include "traffic/profile.h"
#include "util/units.h"

namespace bufq {

struct ExperimentConfig {
  Rate link_rate;
  ByteSize buffer;
  std::vector<TrafficProfile> flows;
  SchemeConfig scheme;
  /// Transient discarded before measurement starts.
  Time warmup{Time::seconds(5)};
  /// Measured interval.
  Time duration{Time::seconds(20)};
  std::uint64_t seed{1};
  std::int64_t packet_bytes{500};
  /// When true, per-flow queueing-delay statistics are collected over the
  /// measured interval (slightly more work per delivery).
  bool record_delays{false};
  /// ON-period law for every source (robustness experiments swap the
  /// paper's exponential bursts for heavy-tailed or deterministic ones).
  BurstDistribution burst_distribution{BurstDistribution::kExponential};
  double pareto_shape{1.5};
  /// When non-null, a metrics time series is appended here: one CSV row per
  /// `metrics_sample_period` of *simulated* time (obs::TimeSeriesCsv format),
  /// driven by a recurring calendar event.  Null = no time series.
  std::ostream* metrics_csv{nullptr};
  Time metrics_sample_period{Time::seconds(1)};
};

/// Per-flow delay digest for the measured interval.
struct DelaySummary {
  double mean_s{0.0};
  double max_s{0.0};
  double p50_s{0.0};
  double p99_s{0.0};
  std::uint64_t packets{0};
};

struct ExperimentResult {
  /// Counter deltas over the measured interval, per flow.
  std::vector<FlowCounters> per_flow;
  /// Filled only when ExperimentConfig::record_delays was set.
  std::vector<DelaySummary> delays;
  Time interval{Time::zero()};
  /// Invariant audit of this run (src/check): every run executes under its
  /// own ScopedChecker, so these count exactly this run's checks — both
  /// stay zero in builds without BUFQ_ENABLE_CHECKS.
  std::uint64_t checks_run{0};
  std::uint64_t check_violations{0};
  /// Observability snapshot of this run (src/obs): every run executes under
  /// its own ScopedMetrics, so these are exactly this run's counters,
  /// gauges and histograms.  Includes the wall-clock `sim.wall_ns` counter
  /// and so is NOT deterministic across machines; event-count and occupancy
  /// metrics within it are seed-deterministic.
  obs::RegistrySnapshot metrics;

  [[nodiscard]] double aggregate_throughput_mbps() const;
  [[nodiscard]] double utilization(Rate link_rate) const;
  [[nodiscard]] double flow_throughput_mbps(FlowId flow) const;
  /// Dropped/offered bytes aggregated over a set of flows.
  [[nodiscard]] double loss_ratio(const std::vector<FlowId>& flows) const;
};

/// Extracts the (sigma, rho) envelopes the buffer managers need.
[[nodiscard]] std::vector<FlowSpec> flow_specs(const std::vector<TrafficProfile>& flows);

/// Runs one experiment to completion.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// When run_experiment_with_checkpoint snapshots.  `events` > 0 wins:
/// checkpoint once that many events (lifetime count) have dispatched.
/// Otherwise the snapshot is taken at simulated time `at`; Time::zero()
/// defaults to the end of warmup.  Either way the trigger never schedules
/// an event of its own, so the trajectory is identical to an untriggered
/// run.
struct CheckpointTrigger {
  std::uint64_t events{0};
  Time at{Time::zero()};
};

/// A completed run plus the mid-run snapshot it took along the way.
struct CheckpointedRun {
  ExperimentResult result;
  /// Serialized checkpoint (see sim/checkpoint.h for the format).
  std::vector<std::byte> checkpoint;
  /// Where the snapshot was taken.
  std::uint64_t events_at_checkpoint{0};
  Time time_at_checkpoint{Time::zero()};
};

/// Scenario fingerprint of a configuration: every field that shapes the
/// event trajectory is mixed in, so restoring a checkpoint into a
/// different scenario throws CheckpointScenarioError instead of silently
/// diverging.  (The metrics_csv *pointer* is not mixed — only whether a
/// time series is sampled, and at what period.)
[[nodiscard]] std::uint64_t experiment_fingerprint(const ExperimentConfig& config);

/// Runs the experiment to completion like run_experiment, but snapshots
/// the entire simulation state when `trigger` fires.  The returned result
/// is bit-identical to run_experiment(config).
[[nodiscard]] CheckpointedRun run_experiment_with_checkpoint(
    const ExperimentConfig& config, const CheckpointTrigger& trigger = {});

/// Restores `checkpoint` into a freshly built pipeline for `config` and
/// runs to completion.  The result is bit-identical to the run that wrote
/// the checkpoint.  Throws a CheckpointError subclass on corruption,
/// version skew, or a scenario mismatch.
[[nodiscard]] ExperimentResult resume_experiment(const ExperimentConfig& config,
                                                 std::span<const std::byte> checkpoint);

}  // namespace bufq
