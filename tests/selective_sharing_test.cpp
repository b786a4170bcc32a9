#include "core/sharing.h"

#include <gtest/gtest.h>

namespace bufq {
namespace {

constexpr Time kNow = Time::zero();

/// 10 KB buffer; flows 0 (adaptive), 1 (blocked), 2 (reserved); 2 KB
/// thresholds each; 1 KB headroom.
BufferSharingManager make_manager() {
  return BufferSharingManager{
      ByteSize::bytes(10'000),
      std::vector<std::int64_t>{2'000, 2'000, 2'000},
      {SharingClass::kAdaptive, SharingClass::kBlocked, SharingClass::kReserved},
      ByteSize::bytes(1'000)};
}

TEST(SelectiveSharingTest, PoolsInitializedLikeBufferSharing) {
  auto mgr = make_manager();
  EXPECT_EQ(mgr.headroom(), 1'000);
  EXPECT_EQ(mgr.holes(), 9'000);
}

TEST(SelectiveSharingTest, EveryClassGetsItsReservation) {
  auto mgr = make_manager();
  for (FlowId f = 0; f < 3; ++f) {
    EXPECT_TRUE(mgr.try_admit(f, 2'000, kNow)) << "flow " << f;
    EXPECT_EQ(mgr.occupancy(f), 2'000);
  }
}

TEST(SelectiveSharingTest, AdaptiveFlowBorrowsExcess) {
  auto mgr = make_manager();
  ASSERT_TRUE(mgr.try_admit(0, 2'000, kNow));
  EXPECT_TRUE(mgr.try_admit(0, 1'000, kNow)) << "adaptive flow should borrow holes";
  EXPECT_GT(mgr.occupancy(0), 2'000);
}

TEST(SelectiveSharingTest, BlockedFlowStopsAtThreshold) {
  auto mgr = make_manager();
  ASSERT_TRUE(mgr.try_admit(1, 2'000, kNow));
  EXPECT_FALSE(mgr.try_admit(1, 500, kNow)) << "blocked flow must not borrow";
  EXPECT_EQ(mgr.occupancy(1), 2'000);
}

TEST(SelectiveSharingTest, ReservedFlowStopsAtThreshold) {
  auto mgr = make_manager();
  ASSERT_TRUE(mgr.try_admit(2, 2'000, kNow));
  EXPECT_FALSE(mgr.try_admit(2, 500, kNow));
}

TEST(SelectiveSharingTest, BlockedFlowCannotBeSqueezedOutOfReservation) {
  // The adaptive flow grabs everything it can; the blocked flow's
  // reserved threshold must survive.
  auto mgr = make_manager();
  while (mgr.try_admit(0, 500, kNow)) {
  }
  EXPECT_TRUE(mgr.try_admit(1, 500, kNow));
  EXPECT_TRUE(mgr.try_admit(1, 500, kNow));
  EXPECT_TRUE(mgr.try_admit(1, 500, kNow));
  EXPECT_TRUE(mgr.try_admit(1, 500, kNow));
  EXPECT_EQ(mgr.occupancy(1), 2'000);
}

TEST(SelectiveSharingTest, AdaptiveExcessLimitedByFairnessRule) {
  auto mgr = make_manager();
  ASSERT_TRUE(mgr.try_admit(0, 2'000, kNow));  // to threshold, holes 7000
  std::int64_t excess = 0;
  while (mgr.try_admit(0, 500, kNow)) excess += 500;
  // Same rule as BufferSharingManager: excess_after <= holes_after.
  // e + 500 <= 7000 - (e + 500)  =>  e <= 3000; admits until e = 3500
  // would violate, so excess = 3'500? step check: e=3000 -> admit makes
  // e=3500, holes_after = 3500: 3500 <= 3500 ok; next e=4000 > 3000. So
  // excess = 3'500.
  EXPECT_EQ(excess, 3'500);
}

TEST(SelectiveSharingTest, DepartureRefillsHeadroomFirst) {
  auto mgr = make_manager();
  // Drain the headroom via a below-threshold admit when holes are gone.
  BufferSharingManager tight{ByteSize::bytes(3'000),
                             std::vector<std::int64_t>{3'000},
                             {SharingClass::kReserved},
                             ByteSize::bytes(2'000)};
  ASSERT_TRUE(tight.try_admit(0, 2'000, kNow));  // holes 1000 -> 0, headroom -1000 -> 1000
  EXPECT_EQ(tight.headroom(), 1'000);
  tight.release(0, 1'500, kNow);
  EXPECT_EQ(tight.headroom(), 2'000);
  EXPECT_EQ(tight.holes(), 500);
  (void)mgr;
}

TEST(SelectiveSharingTest, InvariantAcrossChurn) {
  auto mgr = make_manager();
  for (int round = 0; round < 5; ++round) {
    while (mgr.try_admit(0, 700, kNow)) {
    }
    while (mgr.try_admit(1, 300, kNow)) {
    }
    ASSERT_EQ(mgr.holes() + mgr.headroom() + mgr.total_occupancy(), 10'000);
    while (mgr.occupancy(0) >= 700) mgr.release(0, 700, kNow);
    while (mgr.occupancy(1) >= 300) mgr.release(1, 300, kNow);
    ASSERT_EQ(mgr.holes() + mgr.headroom() + mgr.total_occupancy(), 10'000);
  }
}

TEST(SelectiveSharingTest, ClassAccessors) {
  auto mgr = make_manager();
  // Only the adaptive class may borrow; blocked and reserved share a bit.
  EXPECT_TRUE(mgr.may_borrow(0));
  EXPECT_FALSE(mgr.may_borrow(1));
  EXPECT_FALSE(mgr.may_borrow(2));
  EXPECT_EQ(mgr.threshold(0), 2'000);
}

}  // namespace
}  // namespace bufq
