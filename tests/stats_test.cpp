#include "stats/collector.h"
#include "stats/replication.h"

#include "expt/churn_experiment.h"

#include <gtest/gtest.h>

#include <cmath>

namespace bufq {
namespace {

Packet make_packet(FlowId flow, std::int64_t size = 500) {
  return Packet{.flow = flow, .size_bytes = size, .seq = 0, .created = Time::zero()};
}

TEST(CollectorTest, CountsPerFlowEvents) {
  StatsCollector stats{2};
  stats.on_offered(make_packet(0));
  stats.on_offered(make_packet(0));
  stats.on_offered(make_packet(1, 300));
  stats.on_delivered(make_packet(0), Time::zero());
  stats.on_dropped(make_packet(1, 300), Time::zero());
  EXPECT_EQ(stats.flow(0).offered_bytes, 1'000);
  EXPECT_EQ(stats.flow(0).offered_packets, 2u);
  EXPECT_EQ(stats.flow(0).delivered_bytes, 500);
  EXPECT_EQ(stats.flow(1).dropped_bytes, 300);
  EXPECT_EQ(stats.flow(1).dropped_packets, 1u);
}

TEST(CollectorTest, TotalAggregates) {
  StatsCollector stats{3};
  for (FlowId f = 0; f < 3; ++f) {
    stats.on_offered(make_packet(f));
    stats.on_delivered(make_packet(f), Time::zero());
  }
  const auto total = stats.total();
  EXPECT_EQ(total.offered_bytes, 1'500);
  EXPECT_EQ(total.delivered_bytes, 1'500);
  EXPECT_EQ(total.offered_packets, 3u);
}

TEST(CollectorTest, SnapshotDiffIsolatesInterval) {
  StatsCollector stats{1};
  stats.on_offered(make_packet(0));
  const auto before = stats.snapshot();
  stats.on_offered(make_packet(0));
  stats.on_offered(make_packet(0));
  const auto after = stats.snapshot();
  const auto delta = after[0] - before[0];
  EXPECT_EQ(delta.offered_bytes, 1'000);
  EXPECT_EQ(delta.offered_packets, 2u);
}

TEST(CollectorTest, LossRatio) {
  FlowCounters c;
  c.offered_bytes = 1'000;
  c.dropped_bytes = 250;
  EXPECT_DOUBLE_EQ(c.loss_ratio(), 0.25);
  EXPECT_DOUBLE_EQ(FlowCounters{}.loss_ratio(), 0.0);
}

TEST(CollectorTest, ThroughputFromDelta) {
  FlowCounters delta;
  delta.delivered_bytes = 1'000'000;
  const Rate r = StatsCollector::throughput(delta, Time::seconds(2));
  EXPECT_DOUBLE_EQ(r.mbps(), 4.0);
}

// ------------------------------------------------------------ summaries

TEST(SummarizeTest, SingleSampleHasZeroHalfWidth) {
  const auto s = summarize({5.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.half_width_95, 0.0);
  EXPECT_EQ(s.n, 1u);
}

TEST(SummarizeTest, IdenticalSamplesHaveZeroHalfWidth) {
  const auto s = summarize({2.0, 2.0, 2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.half_width_95, 0.0);
}

TEST(SummarizeTest, KnownFiveSampleCase) {
  // Samples 1..5: mean 3, sd sqrt(2.5), t(4) = 2.776.
  const auto s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  const double expected = 2.776 * std::sqrt(2.5) / std::sqrt(5.0);
  EXPECT_NEAR(s.half_width_95, expected, 1e-9);
  EXPECT_NEAR(s.lower(), 3.0 - expected, 1e-9);
  EXPECT_NEAR(s.upper(), 3.0 + expected, 1e-9);
}

TEST(SummarizeTest, RelativeHalfWidth) {
  Summary s{10.0, 0.2, 5};
  EXPECT_DOUBLE_EQ(s.relative_half_width(), 0.02);
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

// --------------------------------------------------------- replication

TEST(ReplicationTest, RunsOncePerSeed) {
  ReplicationRunner runner{100, 5};
  int calls = 0;
  // Serial mode so the plain counter is race-free.
  const auto result = runner.run(
      [&](std::uint64_t seed) {
        ++calls;
        return std::map<std::string, double>{{"seed", static_cast<double>(seed)}};
      },
      /*parallel=*/false);
  EXPECT_EQ(calls, 5);
  EXPECT_DOUBLE_EQ(result.at("seed").mean, 102.0);  // mean of 100..104
}

TEST(ReplicationTest, SummarizesEachMetric) {
  ReplicationRunner runner{std::vector<std::uint64_t>{1, 2, 3}};
  const auto result = runner.run([](std::uint64_t seed) {
    return std::map<std::string, double>{
        {"x", static_cast<double>(seed)},
        {"y", 10.0 * static_cast<double>(seed)},
    };
  });
  EXPECT_DOUBLE_EQ(result.at("x").mean, 2.0);
  EXPECT_DOUBLE_EQ(result.at("y").mean, 20.0);
  EXPECT_EQ(result.at("x").n, 3u);
}

TEST(ReplicationTest, ThrowsOnInconsistentMetrics) {
  ReplicationRunner runner{std::vector<std::uint64_t>{1, 2}};
  EXPECT_THROW(runner.run([](std::uint64_t seed) {
                 std::map<std::string, double> m{{"always", 1.0}};
                 if (seed == 2) m["sometimes"] = 1.0;
                 return m;
               }),
               std::runtime_error);
}

TEST(ReplicationTest, ParallelMatchesSerial) {
  ReplicationRunner runner{7, 6};
  const auto trial = [](std::uint64_t seed) {
    // Deterministic pseudo-work.
    double x = static_cast<double>(seed);
    for (int i = 0; i < 1000; ++i) x = x * 1.000001 + 0.5;
    return std::map<std::string, double>{{"x", x}};
  };
  const auto parallel = runner.run(trial, true);
  const auto serial = runner.run(trial, false);
  EXPECT_DOUBLE_EQ(parallel.at("x").mean, serial.at("x").mean);
  EXPECT_DOUBLE_EQ(parallel.at("x").half_width_95, serial.at("x").half_width_95);
}

TEST(ReplicationTest, ParallelMatchesSerialOnRealSimulations) {
  // Full churn simulations per seed, not just pseudo-work: this catches
  // shared mutable state anywhere in the simulation stack (RNG streams,
  // collectors, allocator-order dependence) that a pure function cannot.
  ReplicationRunner runner{11, 4};
  const auto trial = [](std::uint64_t seed) {
    ChurnConfig config{
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
    };
    const ChurnResult r = run_churn_experiment(config);
    return std::map<std::string, double>{
        {"blocking", r.blocking_probability},
        {"utilization", r.utilization},
        {"admitted", static_cast<double>(r.counters.admitted)},
    };
  };
  const auto parallel = runner.run(trial, true);
  const auto serial = runner.run(trial, false);
  for (const char* metric : {"blocking", "utilization", "admitted"}) {
    EXPECT_DOUBLE_EQ(parallel.at(metric).mean, serial.at(metric).mean) << metric;
    EXPECT_DOUBLE_EQ(parallel.at(metric).half_width_95, serial.at(metric).half_width_95)
        << metric;
  }
}

TEST(ReplicationTest, SeedsAccessor) {
  ReplicationRunner runner{7, 3};
  EXPECT_EQ(runner.seeds(), (std::vector<std::uint64_t>{7, 8, 9}));
}

}  // namespace
}  // namespace bufq
