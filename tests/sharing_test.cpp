#include "core/sharing.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "admission/dynamic_manager.h"
#include "admission/flow_table.h"

namespace bufq {
namespace {

constexpr Time kNow = Time::zero();

/// 10 KB buffer, two flows with 2 KB thresholds each, 2 KB headroom cap.
BufferSharingManager small_manager() {
  return BufferSharingManager{ByteSize::bytes(10'000),
                              std::vector<std::int64_t>{2'000, 2'000}, ByteSize::bytes(2'000)};
}

TEST(BufferSharingTest, InitialPoolsPartitionBuffer) {
  auto mgr = small_manager();
  EXPECT_EQ(mgr.headroom(), 2'000);
  EXPECT_EQ(mgr.holes(), 8'000);
  EXPECT_EQ(mgr.holes() + mgr.headroom() + mgr.total_occupancy(), 10'000);
}

TEST(BufferSharingTest, HeadroomCapAboveCapacityClamps) {
  BufferSharingManager mgr{ByteSize::bytes(1'000), std::vector<std::int64_t>{500},
                           ByteSize::bytes(5'000)};
  EXPECT_EQ(mgr.headroom(), 1'000);
  EXPECT_EQ(mgr.holes(), 0);
}

TEST(BufferSharingTest, BelowThresholdAdmissionUsesHolesFirst) {
  auto mgr = small_manager();
  ASSERT_TRUE(mgr.try_admit(0, 1'000, kNow));
  EXPECT_EQ(mgr.holes(), 7'000);
  EXPECT_EQ(mgr.headroom(), 2'000);  // untouched while holes suffice
}

TEST(BufferSharingTest, BelowThresholdFallsBackToHeadroom) {
  auto mgr = small_manager();
  // Flow 1 (above threshold path takes holes): exhaust holes via flow 0's
  // below-threshold… flow 0 can only go to 2000.  Use explicit small pool
  // instead: capacity 3k, thresholds 2k, headroom cap 2k -> holes = 1k.
  BufferSharingManager tight{ByteSize::bytes(3'000), std::vector<std::int64_t>{2'000},
                             ByteSize::bytes(2'000)};
  EXPECT_EQ(tight.holes(), 1'000);
  EXPECT_EQ(tight.headroom(), 2'000);
  // 2 KB below-threshold arrival: 1 KB from holes + 1 KB from headroom.
  ASSERT_TRUE(tight.try_admit(0, 2'000, kNow));
  EXPECT_EQ(tight.holes(), 0);
  EXPECT_EQ(tight.headroom(), 1'000);
  (void)mgr;
}

TEST(BufferSharingTest, BelowThresholdDropsWhenBothPoolsEmpty) {
  BufferSharingManager mgr{ByteSize::bytes(2'000), std::vector<std::int64_t>{2'000, 2'000},
                           ByteSize::zero()};
  ASSERT_TRUE(mgr.try_admit(0, 2'000, kNow));  // fills the whole buffer
  EXPECT_FALSE(mgr.try_admit(1, 500, kNow));   // entitled, but no space at all
}

TEST(BufferSharingTest, AboveThresholdUsesHolesOnly) {
  auto mgr = small_manager();
  // Fill flow 0 to its threshold, then beyond.
  ASSERT_TRUE(mgr.try_admit(0, 2'000, kNow));
  ASSERT_TRUE(mgr.try_admit(0, 1'000, kNow));  // above threshold, from holes
  // Initial holes 8000; below-threshold 2000 took holes -> 6000; above-
  // threshold 1000 took holes -> 5000.
  EXPECT_EQ(mgr.holes(), 5'000);
  EXPECT_EQ(mgr.headroom(), 2'000);
}

TEST(BufferSharingTest, AboveThresholdNeverTouchesHeadroom) {
  BufferSharingManager mgr{ByteSize::bytes(4'000), std::vector<std::int64_t>{1'000, 1'000},
                           ByteSize::bytes(2'000)};
  EXPECT_EQ(mgr.holes(), 2'000);
  ASSERT_TRUE(mgr.try_admit(0, 1'000, kNow));  // below threshold: holes -> 1000
  // Above threshold: wants 1000 from holes (1000 left), excess after =
  // 1000, holes after = 0 -> 1000 > 0, refused by the fairness rule.
  EXPECT_FALSE(mgr.try_admit(0, 1'000, kNow));
  EXPECT_EQ(mgr.headroom(), 2'000);
}

TEST(BufferSharingTest, FairnessRuleLimitsExcessToRemainingHoles) {
  // Large holes: excess growth allowed while excess <= remaining holes.
  BufferSharingManager mgr{ByteSize::bytes(20'000), std::vector<std::int64_t>{1'000, 1'000},
                           ByteSize::zero()};
  EXPECT_EQ(mgr.holes(), 20'000);
  ASSERT_TRUE(mgr.try_admit(0, 1'000, kNow));  // to threshold; holes 19000
  std::int64_t admitted_excess = 0;
  while (mgr.try_admit(0, 500, kNow)) admitted_excess += 500;
  // Stop condition: excess_after > holes_after, i.e. e+500 > h-500.
  // Starting e=0, h=19000: each admit raises e by 500 and lowers h by 500.
  // Stops when e+500 > h-500  ->  e >= 9500.
  EXPECT_EQ(admitted_excess, 9'500);
  EXPECT_EQ(mgr.occupancy(0), 10'500);
}

TEST(BufferSharingTest, DepartureRefillsHeadroomFirst) {
  BufferSharingManager tight{ByteSize::bytes(3'000), std::vector<std::int64_t>{2'000},
                             ByteSize::bytes(2'000)};
  ASSERT_TRUE(tight.try_admit(0, 2'000, kNow));  // holes 0, headroom 1000
  tight.release(0, 500, kNow);
  EXPECT_EQ(tight.headroom(), 1'500);
  EXPECT_EQ(tight.holes(), 0);
  tight.release(0, 1'000, kNow);
  // headroom 1500+1000 = 2500 -> capped at 2000, overflow 500 to holes.
  EXPECT_EQ(tight.headroom(), 2'000);
  EXPECT_EQ(tight.holes(), 500);
}

TEST(BufferSharingTest, InvariantHolds) {
  auto mgr = small_manager();
  // Drive an arbitrary admit/release sequence; the pools plus occupancy
  // must always equal the capacity.
  auto check = [&] {
    EXPECT_EQ(mgr.holes() + mgr.headroom() + mgr.total_occupancy(), 10'000);
    EXPECT_GE(mgr.holes(), 0);
    EXPECT_GE(mgr.headroom(), 0);
    EXPECT_LE(mgr.headroom(), 2'000);
  };
  for (int round = 0; round < 4; ++round) {
    while (mgr.try_admit(0, 700, kNow)) check();
    while (mgr.try_admit(1, 300, kNow)) check();
    while (mgr.occupancy(0) >= 700) {
      mgr.release(0, 700, kNow);
      check();
    }
    while (mgr.occupancy(1) >= 300) {
      mgr.release(1, 300, kNow);
      check();
    }
  }
}

TEST(BufferSharingTest, SharingBeatsFixedPartitionUtilization) {
  // With fixed partition, total usable space is the sum of thresholds;
  // with sharing a single active flow can use nearly the whole buffer.
  BufferSharingManager mgr{ByteSize::bytes(10'000), std::vector<std::int64_t>{2'000, 2'000},
                           ByteSize::bytes(1'000)};
  std::int64_t admitted = 0;
  while (mgr.try_admit(0, 500, kNow)) admitted += 500;
  EXPECT_GT(admitted, 2'000) << "sharing must exceed the fixed threshold";
}

TEST(BufferSharingTest, EnvelopeDerivedConstructorMatchesThresholds) {
  const std::vector<FlowSpec> flows{
      FlowSpec{Rate::megabits_per_second(12.0), ByteSize::kilobytes(10.0)},
      FlowSpec{Rate::megabits_per_second(24.0), ByteSize::kilobytes(20.0)},
  };
  BufferSharingManager mgr{ByteSize::kilobytes(100.0), Rate::megabits_per_second(48.0), flows,
                           ByteSize::kilobytes(10.0)};
  EXPECT_EQ(mgr.threshold(0), 35'000);
  EXPECT_EQ(mgr.threshold(1), 70'000);
}

TEST(BufferSharingTest, ZeroHeadroomDegeneratesToPureSharing) {
  BufferSharingManager mgr{ByteSize::bytes(5'000), std::vector<std::int64_t>{1'000, 1'000},
                           ByteSize::zero()};
  EXPECT_EQ(mgr.headroom(), 0);
  EXPECT_EQ(mgr.holes(), 5'000);
  ASSERT_TRUE(mgr.try_admit(0, 1'000, kNow));
  mgr.release(0, 1'000, kNow);
  EXPECT_EQ(mgr.headroom(), 0);
  EXPECT_EQ(mgr.holes(), 5'000);
}

TEST(BufferSharingTest, NegativeHeadroomIsRejected) {
  // A negative H would make every below-threshold packet overdraw the
  // headroom: a silent 100% loss run.
  const auto negative = ByteSize::bytes(-1'000);
  EXPECT_THROW((BufferSharingManager{ByteSize::bytes(5'000),
                                     std::vector<std::int64_t>{1'000}, negative}),
               std::invalid_argument);
  admission::FlowTable table{1};
  EXPECT_THROW((admission::DynamicBufferManager{ByteSize::bytes(5'000), table,
                                                admission::DynamicBufferManager::Policy::kSharing,
                                                negative}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bufq
