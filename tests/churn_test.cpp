// End-to-end property tests for the churn pipeline: flows admitted by the
// paper's tests and shaped to their declared envelopes must never lose a
// packet, across seeds, even while the admission controller is blocking a
// large fraction of arrivals.
#include "expt/churn_experiment.h"

#include <gtest/gtest.h>

#include "invariant_audit.h"

namespace bufq {
namespace {

using admission::Scheme;

TrafficProfile regulated_profile(double token_mbps, double bucket_kb) {
  return TrafficProfile{.peak_rate = Rate::megabits_per_second(8.0 * token_mbps),
                        .avg_rate = Rate::megabits_per_second(token_mbps),
                        .bucket = ByteSize::kilobytes(bucket_kb),
                        .token_rate = Rate::megabits_per_second(token_mbps),
                        .mean_burst = ByteSize::kilobytes(bucket_kb),
                        .regulated = true};
}

ChurnConfig base_config(Scheme scheme, std::uint64_t seed) {
  return ChurnConfig{
      .link_rate = Rate::megabits_per_second(48.0),
      .buffer = ByteSize::megabytes(1.0),
      .scheme = scheme,
      .headroom = ByteSize::kilobytes(100.0),
      .max_flows = 128,
      .churn = {.arrival_rate_hz = 120.0,
                .mean_holding = Time::milliseconds(400),
                .mix = {{.profile = regulated_profile(1.0, 16.0), .weight = 3.0},
                        {.profile = regulated_profile(4.0, 64.0), .weight = 1.0}}},
      .warmup = Time::seconds(1),
      .duration = Time::seconds(6),
      .seed = seed,
  };
}

TEST(ChurnTest, AdmittedConformantFlowsNeverDropUnderThresholds) {
  // The headline guarantee (Props 1/2 + eq. 10): whatever the admission
  // controller lets in must be served losslessly, across seeds.  The
  // offered load is ~2x what the buffer can cover, so the controller is
  // actively blocking while admitted flows keep their guarantee.
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const ChurnResult r = run_churn_experiment(base_config(Scheme::kFifoThreshold, seed));
    EXPECT_GT(r.counters.admitted, 0u) << "seed " << seed;
    EXPECT_GT(r.counters.rejected_buffer, 0u) << "seed " << seed;
    EXPECT_EQ(r.counters.conformant_drops, 0u) << "seed " << seed;
  }
}

TEST(ChurnTest, AdmittedConformantFlowsNeverDropUnderSharing) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const ChurnResult r = run_churn_experiment(base_config(Scheme::kFifoSharing, seed));
    EXPECT_GT(r.counters.admitted, 0u) << "seed " << seed;
    EXPECT_EQ(r.counters.conformant_drops, 0u) << "seed " << seed;
  }
}

TEST(ChurnTest, OversubscriptionIsBlockedNotViolated) {
  // A buffer far too small for the offered load: the controller must
  // convert the overload into blocking, never into guarantee violations.
  auto config = base_config(Scheme::kFifoThreshold, 9);
  config.buffer = ByteSize::kilobytes(150.0);
  const ChurnResult r = run_churn_experiment(config);
  EXPECT_GT(r.blocking_probability, 0.5);
  EXPECT_GT(r.counters.admitted, 0u);
  EXPECT_EQ(r.counters.conformant_drops, 0u);
}

TEST(ChurnTest, CountersAreConserved) {
  const ChurnResult r = run_churn_experiment(base_config(Scheme::kFifoThreshold, 5));
  EXPECT_EQ(r.counters.arrivals, r.counters.admitted + r.counters.rejected());
  EXPECT_LE(r.counters.reaped, r.counters.departures);
  EXPECT_LE(r.counters.departures, r.counters.admitted);
  EXPECT_EQ(r.active_at_end,
            static_cast<std::size_t>(r.counters.admitted - r.counters.reaped));
}

TEST(ChurnTest, SameSeedIsBitIdentical) {
  const ChurnResult a = run_churn_experiment(base_config(Scheme::kFifoThreshold, 11));
  const ChurnResult b = run_churn_experiment(base_config(Scheme::kFifoThreshold, 11));
  EXPECT_EQ(a.counters.arrivals, b.counters.arrivals);
  EXPECT_EQ(a.counters.admitted, b.counters.admitted);
  EXPECT_EQ(a.counters.reaped, b.counters.reaped);
  EXPECT_EQ(a.traffic.delivered_bytes, b.traffic.delivered_bytes);
  EXPECT_EQ(a.traffic.dropped_packets, b.traffic.dropped_packets);
  EXPECT_DOUBLE_EQ(a.mean_active_flows, b.mean_active_flows);

  const ChurnResult c = run_churn_experiment(base_config(Scheme::kFifoThreshold, 12));
  EXPECT_NE(a.counters.arrivals, c.counters.arrivals);
}

TEST(ChurnTest, WfqChurnAlsoHonorsItsAllocations) {
  // Under WFQ each admitted flow owns a sigma-sized allocation (eq. 6);
  // shaped flows must fit inside it under churn too.
  const ChurnResult r = run_churn_experiment(base_config(Scheme::kWfq, 3));
  EXPECT_GT(r.counters.admitted, 0u);
  EXPECT_EQ(r.counters.conformant_drops, 0u);
}

}  // namespace
}  // namespace bufq
