// Sweep-engine tests: the determinism contract (bit-identical CSV at any
// --jobs), replication seeding, the mean / 95% CI summary, the shared
// checkpoint-flag parser, and exception containment.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "expt/churn_experiment.h"
#include "expt/sweep.h"
#include "expt/workloads.h"
#include "util/csv.h"
#include "util/flags.h"

namespace bufq {
namespace {

/// A small but real Table-1 run: long enough to queue and drop packets,
/// short enough to keep the suite fast.
ExperimentConfig short_config(double buffer_mb) {
  ExperimentConfig config;
  config.link_rate = paper_link_rate();
  config.flows = table1_flows();
  config.buffer = ByteSize::megabytes(buffer_mb);
  config.scheme.scheduler = SchedulerKind::kFifo;
  config.scheme.manager = ManagerKind::kThreshold;
  config.warmup = Time::from_seconds(0.1);
  config.duration = Time::from_seconds(0.3);
  return config;
}

std::vector<SweepCase> small_grid() {
  std::vector<SweepCase> cases;
  for (double buffer_mb : {0.2, 0.5, 1.0}) {
    for (const char* scheme : {"fifo", "wfq"}) {
      SweepCase c;
      c.label = scheme;
      c.params = {{"buffer_mb", format_double(buffer_mb)}};
      c.config = short_config(buffer_mb);
      if (scheme[0] == 'w') c.config.scheme.scheduler = SchedulerKind::kWfq;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

MetricExtractor throughput_and_loss() {
  return [conformant = table1_conformant_flows()](const ExperimentResult& r) {
    return std::map<std::string, double>{
        {"throughput_mbps", r.aggregate_throughput_mbps()},
        {"loss_ratio", r.loss_ratio(conformant)},
    };
  };
}

std::string csv_at_jobs(std::size_t jobs, std::size_t replications,
                        SeedMode mode = SeedMode::kIndependent) {
  SweepOptions options;
  options.jobs = jobs;
  options.replications = replications;
  options.base_seed = 42;
  options.seed_mode = mode;
  const SweepResult result = run_sweep(small_grid(), throughput_and_loss(), options);
  std::ostringstream out;
  write_sweep_csv(out, result);
  return out.str();
}

TEST(SweepEngineTest, CsvIsByteIdenticalAcrossJobCounts) {
  const std::string serial = csv_at_jobs(1, 3);
  EXPECT_EQ(serial, csv_at_jobs(2, 3));
  EXPECT_EQ(serial, csv_at_jobs(8, 3));
}

TEST(SweepEngineTest, SharedSeedModeCsvAlsoJobInvariant) {
  const std::string serial = csv_at_jobs(1, 2, SeedMode::kSharedAcrossCases);
  EXPECT_EQ(serial, csv_at_jobs(8, 2, SeedMode::kSharedAcrossCases));
}

TEST(SweepEngineTest, ReplicationsGetDistinctSeedsAndRuns) {
  SweepOptions options;
  options.jobs = 4;
  options.replications = 5;
  options.base_seed = 7;
  const SweepResult result = run_sweep(small_grid(), throughput_and_loss(), options);
  ASSERT_TRUE(result.ok());
  for (const SweepRow& row : result.rows) {
    const std::set<std::uint64_t> unique(row.seeds.begin(), row.seeds.end());
    EXPECT_EQ(unique.size(), 5u) << "replication seeds collided in case " << row.index;
    // Distinct seeds must actually produce distinct runs: at these buffer
    // sizes the throughput samples cannot all coincide bit-for-bit.
    const auto& samples = row.samples.at("throughput_mbps");
    ASSERT_EQ(samples.size(), 5u);
    const std::set<double> distinct(samples.begin(), samples.end());
    EXPECT_GT(distinct.size(), 1u) << "all replications identical in case " << row.index;
  }
}

TEST(SweepEngineTest, SeedModeControlsSeedSharing) {
  SweepOptions options;
  options.replications = 3;
  options.base_seed = 11;
  options.seed_mode = SeedMode::kSharedAcrossCases;
  const SweepResult shared = run_sweep(small_grid(), throughput_and_loss(), options);
  for (const SweepRow& row : shared.rows) {
    EXPECT_EQ(row.seeds, shared.rows.front().seeds)
        << "kSharedAcrossCases must reuse one seed set";
  }

  options.seed_mode = SeedMode::kIndependent;
  const SweepResult independent = run_sweep(small_grid(), throughput_and_loss(), options);
  std::set<std::uint64_t> all_seeds;
  for (const SweepRow& row : independent.rows) {
    all_seeds.insert(row.seeds.begin(), row.seeds.end());
  }
  EXPECT_EQ(all_seeds.size(), independent.rows.size() * 3)
      << "kIndependent must give every run its own seed";
}

TEST(SweepEngineTest, ConfigSeedFieldIsIgnored) {
  auto cases = small_grid();
  for (auto& c : cases) c.config.seed = 987654321;
  SweepOptions options;
  options.replications = 2;
  options.base_seed = 42;
  const SweepResult tagged = run_sweep(std::move(cases), throughput_and_loss(), options);
  const SweepResult plain = run_sweep(small_grid(), throughput_and_loss(), options);
  std::ostringstream a, b;
  write_sweep_csv(a, tagged);
  write_sweep_csv(b, plain);
  EXPECT_EQ(a.str(), b.str());
}

TEST(SweepEngineTest, SummaryMatchesManualComputation) {
  SweepOptions options;
  options.replications = 4;
  options.base_seed = 3;
  const SweepResult result = run_sweep(small_grid(), throughput_and_loss(), options);
  ASSERT_TRUE(result.ok());
  for (const SweepRow& row : result.rows) {
    const auto& samples = row.samples.at("throughput_mbps");
    const MetricSummary& m = row.metrics.at("throughput_mbps");
    ASSERT_EQ(samples.size(), 4u);
    const double mean = (samples[0] + samples[1] + samples[2] + samples[3]) / 4.0;
    double ss = 0.0;
    for (double x : samples) ss += (x - mean) * (x - mean);
    const double stddev = std::sqrt(ss / 3.0);
    EXPECT_DOUBLE_EQ(m.mean, mean);
    EXPECT_DOUBLE_EQ(m.stddev, stddev);
    EXPECT_DOUBLE_EQ(m.ci95, 3.182 * stddev / 2.0);  // t(3) * s / sqrt(4)
    EXPECT_EQ(m.n, 4u);
  }
}

TEST(SweepEngineTest, ZeroReplicationsIsRejected) {
  SweepOptions options;
  options.replications = 0;
  EXPECT_THROW(static_cast<void>(run_sweep(small_grid(), throughput_and_loss(), options)),
               std::invalid_argument);
}

TEST(SweepEngineTest, ExceptionInOneRunIsContainedAndPoolDrains) {
  auto cases = small_grid();
  // A hybrid scheme without a grouping makes run_experiment throw
  // std::invalid_argument for every replication of this case.
  SweepCase bad;
  bad.label = "bad-hybrid";
  bad.params = {{"buffer_mb", "0.5"}};
  bad.config = short_config(0.5);
  bad.config.scheme.scheduler = SchedulerKind::kHybrid;
  bad.config.scheme.groups.clear();
  cases.insert(cases.begin() + 2, std::move(bad));

  SweepOptions options;
  options.jobs = 8;
  options.replications = 3;
  const SweepResult result = run_sweep(std::move(cases), throughput_and_loss(), options);

  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.rows.size(), 7u);  // 6 good + 1 bad, all reduced
  for (const SweepRow& row : result.rows) {
    if (row.label == "bad-hybrid") {
      EXPECT_FALSE(row.error.empty());
      EXPECT_TRUE(row.samples.empty());
    } else {
      EXPECT_TRUE(row.error.empty()) << row.error;
      EXPECT_EQ(row.samples.at("throughput_mbps").size(), 3u);
    }
  }

  // The CSV still serializes, with the error in the last column.
  std::ostringstream out;
  write_sweep_csv(out, result);
  EXPECT_NE(out.str().find("bad-hybrid"), std::string::npos);
  EXPECT_NE(out.str().find("grouping"), std::string::npos);
}

TEST(SweepEngineTest, RowsComeBackInInputOrderWithParamEcho) {
  SweepOptions options;
  options.jobs = 8;
  const SweepResult result = run_sweep(small_grid(), throughput_and_loss(), options);
  ASSERT_EQ(result.rows.size(), 6u);
  const auto reference = small_grid();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(result.rows[i].index, i);
    EXPECT_EQ(result.rows[i].label, reference[i].label);
    EXPECT_EQ(result.rows[i].params, reference[i].params);
  }
}

TEST(ReplicationTest, ParallelMatchesSerialOnRealSimulations) {
  // Full churn simulations per replication through a custom runner, not
  // just the built-in pipeline: this catches shared mutable state anywhere
  // in the admission/simulation stack (RNG streams, collectors, flow
  // tables, allocator-order dependence) that the figure grids never touch.
  auto churn_cases = [] {
    SweepCase c;
    c.label = "churn";
    c.runner = [](std::uint64_t seed) {
      const ChurnResult r = run_churn_experiment(ChurnConfig{
          .link_rate = Rate::megabits_per_second(48.0),
          .buffer = ByteSize::megabytes(1.0),
          .scheme = admission::Scheme::kFifoThreshold,
          .max_flows = 64,
          .churn = {.arrival_rate_hz = 80.0,
                    .mean_holding = Time::milliseconds(300),
                    .mix = {{.profile = {.peak_rate = Rate::megabits_per_second(8.0),
                                         .avg_rate = Rate::megabits_per_second(1.0),
                                         .bucket = ByteSize::kilobytes(16.0),
                                         .token_rate = Rate::megabits_per_second(1.0),
                                         .mean_burst = ByteSize::kilobytes(16.0),
                                         .regulated = true},
                             .weight = 1.0}}},
          .warmup = Time::milliseconds(500),
          .duration = Time::seconds(2),
          .seed = seed,
      });
      ExperimentResult out;
      out.per_flow = {r.traffic};
      out.interval = r.interval;
      out.metrics.counters = {{"churn.arrivals", r.counters.arrivals},
                              {"churn.admitted", r.counters.admitted}};
      return out;
    };
    return std::vector<SweepCase>{c, c};
  };
  const MetricExtractor extract = [](const ExperimentResult& r) {
    return std::map<std::string, double>{
        {"utilization", r.utilization(Rate::megabits_per_second(48.0))},
        {"arrivals", static_cast<double>(r.metrics.counters.at("churn.arrivals"))},
        {"admitted", static_cast<double>(r.metrics.counters.at("churn.admitted"))},
    };
  };
  auto csv_at = [&](std::size_t jobs) {
    SweepOptions options;
    options.jobs = jobs;
    options.replications = 4;
    options.base_seed = 11;
    const SweepResult result = run_sweep(churn_cases(), extract, options);
    EXPECT_TRUE(result.ok());
    EXPECT_GT(result.rows.front().metrics.at("admitted").mean, 0.0);
    std::ostringstream out;
    write_sweep_csv(out, result);
    return out.str();
  };
  EXPECT_EQ(csv_at(1), csv_at(4));
}

// ------------------------------------------------------------ summaries

TEST(SummarizeTest, SingleSampleHasZeroHalfWidth) {
  const MetricSummary s = summarize({5.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
  EXPECT_EQ(s.n, 1u);
}

TEST(SummarizeTest, IdenticalSamplesHaveZeroHalfWidth) {
  const MetricSummary s = summarize({2.0, 2.0, 2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
}

TEST(SummarizeTest, KnownFiveSampleCase) {
  // Samples 1..5: mean 3, sd sqrt(2.5), t(4) = 2.776.
  const MetricSummary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(s.ci95, 2.776 * std::sqrt(2.5) / std::sqrt(5.0), 1e-9);
  EXPECT_EQ(s.n, 5u);
}

TEST(TCriticalTest, TableValuesAndTail) {
  EXPECT_DOUBLE_EQ(t_critical_95(1), 12.706);
  EXPECT_DOUBLE_EQ(t_critical_95(4), 2.776);
  EXPECT_DOUBLE_EQ(t_critical_95(30), 2.042);
  EXPECT_DOUBLE_EQ(t_critical_95(1000), 1.960);
}

TEST(TCriticalTest, MonotoneDecreasing) {
  for (std::size_t df = 1; df < 30; ++df) {
    EXPECT_GT(t_critical_95(df), t_critical_95(df + 1));
  }
}

// ------------------------------------------------- checkpoint flag parser

SweepCheckpoint checkpoint_from(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  const Flags flags{static_cast<int>(args.size()), args.data()};
  return parse_sweep_checkpoint(flags);
}

TEST(SweepCheckpointFlagsTest, ModesTriggerAndDefaults) {
  EXPECT_EQ(checkpoint_from({}).mode, SweepCheckpointMode::kOff);
  const SweepCheckpoint out = checkpoint_from({"--checkpoint-out=d", "--checkpoint-events=7"});
  EXPECT_EQ(out.mode, SweepCheckpointMode::kWrite);
  EXPECT_EQ(out.dir, "d");
  EXPECT_EQ(out.trigger.events, 7u);
  const SweepCheckpoint in = checkpoint_from({"--checkpoint-in=e", "--checkpoint-at=1.5"});
  EXPECT_EQ(in.mode, SweepCheckpointMode::kRead);
  EXPECT_EQ(in.dir, "e");
  EXPECT_EQ(in.trigger.at, Time::from_seconds(1.5));
  EXPECT_EQ(checkpoint_from({"--checkpoint-roundtrip"}).mode, SweepCheckpointMode::kRoundtrip);
}

TEST(SweepCheckpointFlagsTest, ModeFlagsAreMutuallyExclusive) {
  EXPECT_THROW(checkpoint_from({"--checkpoint-out=d", "--checkpoint-roundtrip"}),
               std::invalid_argument);
  EXPECT_THROW(checkpoint_from({"--checkpoint-out=d", "--checkpoint-in=d"}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bufq
