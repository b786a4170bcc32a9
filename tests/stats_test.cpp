#include "stats/collector.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace bufq
