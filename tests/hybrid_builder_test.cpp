#include "sched/hybrid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/sharing.h"
#include "expt/experiment.h"
#include "expt/workloads.h"

namespace bufq {
namespace {

const Rate kLink = Rate::megabits_per_second(48.0);

HybridBuilder case1_builder(ByteSize buffer) {
  return HybridBuilder{kLink, buffer, flow_specs(table1_flows()), case1_groups()};
}

TEST(HybridBuilderTest, FlowToQueueMappingMatchesGroups) {
  const auto b = case1_builder(ByteSize::megabytes(1.0));
  const auto& map = b.flow_to_queue();
  ASSERT_EQ(map.size(), 9u);
  for (FlowId f = 0; f < 3; ++f) EXPECT_EQ(map[static_cast<std::size_t>(f)], 0u);
  for (FlowId f = 3; f < 6; ++f) EXPECT_EQ(map[static_cast<std::size_t>(f)], 1u);
  for (FlowId f = 6; f < 9; ++f) EXPECT_EQ(map[static_cast<std::size_t>(f)], 2u);
}

TEST(HybridBuilderTest, QueueRatesSumToLinkAndCoverReservations) {
  const auto b = case1_builder(ByteSize::megabytes(1.0));
  const auto& rates = b.queue_rates();
  ASSERT_EQ(rates.size(), 3u);
  double sum = 0.0;
  for (const auto& r : rates) sum += r.bps();
  EXPECT_NEAR(sum, kLink.bps(), 1.0);
  // Reservations: 6, 24, 2.8 Mb/s.
  EXPECT_GT(rates[0].mbps(), 6.0);
  EXPECT_GT(rates[1].mbps(), 24.0);
  EXPECT_GT(rates[2].mbps(), 2.8);
}

TEST(HybridBuilderTest, QueueBuffersPartitionTotal) {
  const auto buffer = ByteSize::megabytes(2.0);
  const auto b = case1_builder(buffer);
  std::int64_t sum = 0;
  for (const auto& qb : b.queue_buffers()) sum += qb.count();
  EXPECT_NEAR(static_cast<double>(sum), static_cast<double>(buffer.count()), 2.0);
}

TEST(HybridBuilderTest, BufferSplitProportionalToMinima) {
  const auto b = case1_builder(ByteSize::megabytes(2.0));
  const auto aggregates = aggregate_groups({
      {flow_specs(table1_flows())[0], flow_specs(table1_flows())[1],
       flow_specs(table1_flows())[2]},
      {flow_specs(table1_flows())[3], flow_specs(table1_flows())[4],
       flow_specs(table1_flows())[5]},
      {flow_specs(table1_flows())[6], flow_specs(table1_flows())[7],
       flow_specs(table1_flows())[8]},
  });
  const auto rates = b.queue_rates();
  std::vector<double> minima;
  double msum = 0.0;
  for (std::size_t q = 0; q < 3; ++q) {
    minima.push_back(queue_min_buffer_bytes(aggregates[q], rates[q]));
    msum += minima.back();
  }
  for (std::size_t q = 0; q < 3; ++q) {
    const double expected = 2e6 * minima[q] / msum;
    EXPECT_NEAR(static_cast<double>(b.queue_buffers()[q].count()), expected, 1.0);
  }
}

TEST(HybridBuilderTest, FlowThresholdMatchesSection42Formula) {
  const auto b = case1_builder(ByteSize::megabytes(1.0));
  // Flow 0: sigma 50 KB, rho 2 Mb/s, in queue 0 with rate R_0, buffer B_0:
  // threshold = sigma + rho/R_0 * B_0.
  const double expected = 50'000.0 +
                          (2e6 / b.queue_rates()[0].bps()) *
                              static_cast<double>(b.queue_buffers()[0].count());
  EXPECT_NEAR(static_cast<double>(b.flow_threshold(0)), expected, 1.0);
}

TEST(HybridBuilderTest, ThresholdManagerReflectsQueueCapacities) {
  const auto b = case1_builder(ByteSize::megabytes(1.0));
  const auto mgr = b.make_threshold_manager();
  ASSERT_EQ(mgr->queue_count(), 3u);
  std::int64_t cap = 0;
  for (std::size_t q = 0; q < 3; ++q) cap += mgr->queue_manager(q).capacity().count();
  EXPECT_NEAR(static_cast<double>(cap), 1e6, 2.0);
}

TEST(HybridBuilderTest, SharingManagerSplitsHeadroomProportionally) {
  const auto b = case1_builder(ByteSize::megabytes(1.0));
  const auto mgr = b.make_sharing_manager(ByteSize::kilobytes(100.0));
  // Headroom shares are proportional to queue buffers, so their sum is
  // the global headroom (up to rounding).
  std::int64_t headroom_sum = 0;
  for (std::size_t q = 0; q < 3; ++q) {
    const auto* sharing =
        dynamic_cast<const BufferSharingManager*>(&mgr->queue_manager(q));
    ASSERT_NE(sharing, nullptr);
    headroom_sum += sharing->max_headroom().count();
  }
  EXPECT_NEAR(static_cast<double>(headroom_sum), 100'000.0, 3.0);
}

TEST(HybridBuilderTest, SchedulerUsesQueueClasses) {
  const auto b = case1_builder(ByteSize::megabytes(1.0));
  auto mgr = b.make_threshold_manager();
  const auto sched = b.make_scheduler(*mgr);
  EXPECT_EQ(sched->class_count(), 3u);
}

TEST(HybridBuilderTest, AdmissionIsolatesQueues) {
  const auto b = case1_builder(ByteSize::megabytes(1.0));
  auto mgr = b.make_threshold_manager();
  // Saturate the aggressive queue (flows 6-8).
  constexpr Time kNow = Time::zero();
  for (FlowId f = 6; f < 9; ++f) {
    while (mgr->try_admit(f, 500, kNow)) {
    }
  }
  // Conformant queues still admit.
  EXPECT_TRUE(mgr->try_admit(0, 500, kNow));
  EXPECT_TRUE(mgr->try_admit(3, 500, kNow));
}

TEST(HybridBuilderTest, SingletonGroupsSupported) {
  // One flow per queue degenerates the hybrid into per-flow WFQ.
  const auto specs = flow_specs(table1_flows());
  std::vector<std::vector<FlowId>> groups;
  for (FlowId f = 0; f < 9; ++f) groups.push_back({f});
  HybridBuilder b{kLink, ByteSize::megabytes(1.0), specs, groups};
  EXPECT_EQ(b.queue_rates().size(), 9u);
  auto mgr = b.make_threshold_manager();
  EXPECT_EQ(mgr->queue_count(), 9u);
}

TEST(HybridBuilderTest, NegativeHeadroomErrorNamesTheConfiguredValue) {
  // H is validated before it is split, so the message carries H itself,
  // not one queue's share of it.
  const auto b = case1_builder(ByteSize::megabytes(1.0));
  try {
    static_cast<void>(b.make_sharing_manager(ByteSize::bytes(-1000)));
    FAIL() << "negative headroom accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("got -1000"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace bufq
