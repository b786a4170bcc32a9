// Randomized invariant checks applied uniformly to every BufferManager
// implementation.  A deterministic pseudo-random client issues admit /
// release operations (releases only of bytes actually admitted) and after
// every step the universal manager invariants are asserted:
//
//   * per-flow occupancy is non-negative and sums to the total,
//   * the total never exceeds the physical capacity,
//   * a refused admission leaves all accounting untouched,
//   * draining everything returns the manager to an admitting state.
//
// A second, lockstep test drives each static manager and its churn-table
// counterpart (DynamicBufferManager over a FlowTable without churn) with
// one operation stream and requires identical verdicts and state.
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "admission/dynamic_manager.h"
#include "admission/flow_table.h"
#include "core/buffer_manager.h"
#include "core/dynamic_threshold.h"
#include "core/red.h"
#include "core/sharing.h"
#include "core/threshold.h"
#include "util/rng.h"

namespace bufq {
namespace {

constexpr std::size_t kFlows = 4;
constexpr auto kCapacity = ByteSize::bytes(40'000);
constexpr auto kHeadroom = ByteSize::bytes(5'000);

/// Admits flows 0..n-1 into a fresh table with the given thresholds; with
/// no teardowns the table is a static flow set and slot i is FlowId i.
void fill_table(admission::FlowTable& table, const std::vector<std::int64_t>& thresholds) {
  for (std::size_t f = 0; f < thresholds.size(); ++f) {
    const FlowSpec spec{.rho = Rate::megabits_per_second(1.0 + static_cast<double>(f)),
                        .sigma = ByteSize::bytes(thresholds[f])};
    ASSERT_EQ(table.admit(spec, thresholds[f]).slot, f);
  }
}

struct ManagerCase {
  std::string name;
  /// `table` is a fresh, empty FlowTable that outlives the manager; only
  /// the churn-table managers use it.
  std::function<std::unique_ptr<BufferManager>(admission::FlowTable& table)> make;
};

std::vector<ManagerCase> manager_cases() {
  const std::vector<std::int64_t> thresholds{12'000, 12'000, 8'000, 8'000};
  using Dynamic = admission::DynamicBufferManager;
  return {
      {"tail_drop",
       [](admission::FlowTable&) {
         return std::make_unique<TailDropManager>(kCapacity, kFlows);
       }},
      {"threshold",
       [=](admission::FlowTable&) {
         return std::make_unique<ThresholdManager>(kCapacity, thresholds);
       }},
      {"sharing",
       [=](admission::FlowTable&) {
         return std::make_unique<BufferSharingManager>(kCapacity, thresholds, kHeadroom);
       }},
      {"selective_sharing",
       [=](admission::FlowTable&) {
         return std::make_unique<BufferSharingManager>(
             kCapacity, thresholds,
             std::vector<SharingClass>{SharingClass::kAdaptive, SharingClass::kBlocked,
                                       SharingClass::kReserved, SharingClass::kAdaptive},
             kHeadroom);
       }},
      {"dynamic_threshold",
       [](admission::FlowTable&) {
         return std::make_unique<DynamicThresholdManager>(kCapacity, kFlows, 1.0);
       }},
      {"red",
       [](admission::FlowTable&) {
         return std::make_unique<RedManager>(
             kCapacity, kFlows,
             RedParams{.weight = 0.02, .min_threshold = 10'000, .max_threshold = 30'000,
                       .max_p = 0.1},
             Rng{77});
       }},
      {"fred",
       [](admission::FlowTable&) {
         return std::make_unique<FredManager>(
             kCapacity, kFlows,
             FredParams{.red = RedParams{.weight = 0.02, .min_threshold = 10'000,
                                         .max_threshold = 30'000, .max_p = 0.1},
                        .min_q = 1'000,
                        .strike_limit = 1},
             Rng{78});
       }},
      {"table_threshold",
       [=](admission::FlowTable& table) {
         fill_table(table, thresholds);
         return std::make_unique<Dynamic>(kCapacity, table, Dynamic::Policy::kThreshold);
       }},
      {"table_sharing",
       [=](admission::FlowTable& table) {
         fill_table(table, thresholds);
         return std::make_unique<Dynamic>(kCapacity, table, Dynamic::Policy::kSharing,
                                          kHeadroom);
       }},
  };
}

class ManagerFuzzTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ManagerFuzzTest, InvariantsSurviveRandomChurn) {
  const auto cases = manager_cases();
  const auto& mgr_case = cases[GetParam()];
  admission::FlowTable table{kFlows};
  const auto mgr = mgr_case.make(table);
  Rng rng{GetParam() * 1000 + 17};

  // Outstanding admitted chunks per flow, so releases are always legal.
  std::array<std::deque<std::int64_t>, kFlows> outstanding;
  std::array<std::int64_t, kFlows> expected{};

  auto check_invariants = [&] {
    std::int64_t sum = 0;
    for (std::size_t f = 0; f < kFlows; ++f) {
      const auto q = mgr->occupancy(static_cast<FlowId>(f));
      ASSERT_GE(q, 0);
      ASSERT_EQ(q, expected[f]) << mgr_case.name << " flow " << f;
      sum += q;
    }
    ASSERT_EQ(mgr->total_occupancy(), sum);
    ASSERT_LE(sum, mgr->capacity().count());
  };

  for (int step = 0; step < 20'000; ++step) {
    const auto flow = static_cast<std::size_t>(rng.uniform_u64(kFlows));
    const bool admit = rng.bernoulli(0.55);
    if (admit) {
      const std::int64_t bytes = 100 + static_cast<std::int64_t>(rng.uniform_u64(900));
      const auto before_total = mgr->total_occupancy();
      const auto before_flow = mgr->occupancy(static_cast<FlowId>(flow));
      if (mgr->try_admit(static_cast<FlowId>(flow), bytes, Time::zero())) {
        outstanding[flow].push_back(bytes);
        expected[flow] += bytes;
      } else {
        // Refusal must be side-effect free on the accounting.
        ASSERT_EQ(mgr->total_occupancy(), before_total) << mgr_case.name;
        ASSERT_EQ(mgr->occupancy(static_cast<FlowId>(flow)), before_flow)
            << mgr_case.name;
      }
    } else if (!outstanding[flow].empty()) {
      const std::int64_t bytes = outstanding[flow].front();
      outstanding[flow].pop_front();
      mgr->release(static_cast<FlowId>(flow), bytes, Time::zero());
      expected[flow] -= bytes;
    }
    if (step % 64 == 0) check_invariants();
  }

  // Drain everything; the manager must come back to a clean state that
  // admits again.
  for (std::size_t f = 0; f < kFlows; ++f) {
    while (!outstanding[f].empty()) {
      mgr->release(static_cast<FlowId>(f), outstanding[f].front(), Time::zero());
      expected[f] -= outstanding[f].front();
      outstanding[f].pop_front();
    }
  }
  check_invariants();
  EXPECT_EQ(mgr->total_occupancy(), 0);
  // RED's EWMA may keep refusing briefly; every manager must admit within
  // a bounded number of attempts once empty.
  bool admitted = false;
  for (int attempt = 0; attempt < 1'000 && !admitted; ++attempt) {
    admitted = mgr->try_admit(0, 500, Time::zero());
    if (admitted) mgr->release(0, 500, Time::zero());
  }
  EXPECT_TRUE(admitted) << mgr_case.name;
}

INSTANTIATE_TEST_SUITE_P(AllManagers, ManagerFuzzTest,
                         ::testing::Range<std::size_t>(0, 9),
                         [](const auto& test_param) {
                           return manager_cases()[test_param.param].name;
                         });

/// Per-flow and total occupancy of two managers must agree.
void expect_same_accounting(const BufferManager& a, const BufferManager& b, int step) {
  for (std::size_t f = 0; f < kFlows; ++f) {
    ASSERT_EQ(a.occupancy(static_cast<FlowId>(f)), b.occupancy(static_cast<FlowId>(f)))
        << "step " << step << " flow " << f;
  }
  ASSERT_EQ(a.total_occupancy(), b.total_occupancy()) << "step " << step;
}

/// Drives `a` and `b` with one seeded admit/release stream and calls
/// `same_state` after every operation.  Thresholds sum past the capacity,
/// so the capacity test, the headroom and the holes all refuse at times.
template <typename SameState>
void run_lockstep(BufferManager& a, BufferManager& b, std::uint64_t seed,
                  SameState same_state) {
  Rng rng{seed};
  std::array<std::deque<std::int64_t>, kFlows> outstanding;
  std::size_t refusals = 0;
  for (int step = 0; step < 20'000; ++step) {
    const auto flow = static_cast<std::size_t>(rng.uniform_u64(kFlows));
    const auto id = static_cast<FlowId>(flow);
    if (rng.bernoulli(0.55)) {
      const std::int64_t bytes = 100 + static_cast<std::int64_t>(rng.uniform_u64(1'900));
      const bool admitted = a.try_admit(id, bytes, Time::zero());
      ASSERT_EQ(b.try_admit(id, bytes, Time::zero()), admitted) << "step " << step;
      if (admitted) {
        outstanding[flow].push_back(bytes);
      } else {
        ++refusals;
      }
    } else if (!outstanding[flow].empty()) {
      a.release(id, outstanding[flow].front(), Time::zero());
      b.release(id, outstanding[flow].front(), Time::zero());
      outstanding[flow].pop_front();
    }
    expect_same_accounting(a, b, step);
    same_state(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(refusals, 0u) << "the stream never reached a refusal";
}

const std::vector<std::int64_t> kLockstepThresholds{16'000, 12'000, 8'000, 6'000};

TEST(ManagerLockstepTest, ThresholdMatchesChurnTableThreshold) {
  ThresholdManager fixed{kCapacity, kLockstepThresholds};
  admission::FlowTable table{kFlows};
  fill_table(table, kLockstepThresholds);
  admission::DynamicBufferManager dynamic{kCapacity, table,
                                          admission::DynamicBufferManager::Policy::kThreshold};
  run_lockstep(fixed, dynamic, 4'242, [](int) {});
}

TEST(ManagerLockstepTest, SharingMatchesChurnTableSharing) {
  BufferSharingManager fixed{kCapacity, kLockstepThresholds, kHeadroom};
  admission::FlowTable table{kFlows};
  fill_table(table, kLockstepThresholds);
  admission::DynamicBufferManager dynamic{
      kCapacity, table, admission::DynamicBufferManager::Policy::kSharing, kHeadroom};
  run_lockstep(fixed, dynamic, 4'243, [&](int step) {
    ASSERT_EQ(fixed.holes(), dynamic.holes()) << "step " << step;
    ASSERT_EQ(fixed.headroom(), dynamic.headroom()) << "step " << step;
  });
}

}  // namespace
}  // namespace bufq
