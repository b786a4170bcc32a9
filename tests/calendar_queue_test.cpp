#include "sim/calendar_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"

namespace bufq {
namespace {

CalendarQueue::Event make_event(std::int64_t ns, std::uint64_t seq) {
  return CalendarQueue::Event{Time::nanoseconds(ns), seq, InlineAction{}};
}

// Equal timestamps must pop in push (sequence) order even when the
// burst of ties straddles every structural boundary the queue has:
// bucket-edge timestamps, neighbouring windows, and the resize rebuilds
// a deep same-time bucket triggers.
TEST(CalendarQueueTest, EqualTimestampFifoAcrossBucketBoundaries) {
  CalendarQueue q{/*width_shift=*/4, /*bucket_count_log2=*/3};  // 16ns x 8 buckets
  std::uint64_t seq = 0;
  std::vector<std::pair<std::int64_t, std::uint64_t>> expected;
  // Ties exactly on a bucket edge (32 = 2 * 16ns), just before it, and
  // in the next window, interleaved so the per-bucket vectors are
  // unsorted.
  for (const std::int64_t ns : {32, 31, 32, 33, 31, 32, 48, 33, 32, 31, 48, 32}) {
    expected.emplace_back(ns, seq);
    q.push(make_event(ns, seq++));
  }
  // A same-time pile deep enough to trigger the width narrowing (the
  // rebuild must not reorder the ties).
  for (int i = 0; i < 20; ++i) {
    expected.emplace_back(64, seq);
    q.push(make_event(64, seq++));
  }
  std::sort(expected.begin(), expected.end());
  for (const auto& [ns, s] : expected) {
    const CalendarQueue::Event ev = q.pop_min();
    EXPECT_EQ(ev.time.ns(), ns);
    EXPECT_EQ(ev.seq, s);
  }
  EXPECT_TRUE(q.empty());
}

// The two lazy-resize levers are observable: pushing past the average
// depth doubles the bucket count, and piling events into one window
// narrows the width.
TEST(CalendarQueueTest, LazyResizeGrowsBucketCountAndNarrowsWidth) {
  {
    CalendarQueue q{/*width_shift=*/0, /*bucket_count_log2=*/3};
    const std::size_t before = q.bucket_count();
    // All times inside the initial 8-window horizon, so this is the
    // ring-occupancy lever alone (far-tier pressure is the other one,
    // see DeepHoldKeepsMostEventsInTheRing); width 0 cannot narrow, so
    // occupancy must double the bucket count.
    for (std::int64_t i = 0; i < 200; ++i) {
      q.push(make_event(i % 8, static_cast<std::uint64_t>(i)));
    }
    EXPECT_GT(q.bucket_count(), before);
    EXPECT_EQ(q.width_shift(), 0);
  }
  {
    CalendarQueue q{/*width_shift=*/10, /*bucket_count_log2=*/3};
    // Distinct times, one 1024ns window: depth alone must narrow the width.
    for (std::int64_t i = 0; i < 20; ++i) q.push(make_event(i, static_cast<std::uint64_t>(i)));
    EXPECT_LT(q.width_shift(), 10);
  }
}

// run_until() landing exactly on a bucket-edge timestamp processes that
// timestamp (<= horizon), leaves strictly later events pending, and
// parks the clock on the horizon.
TEST(CalendarQueueTest, RunUntilExactlyOnBucketEdge) {
  Simulator sim;
  // Default width is 2^13 ns, so 8192 is the first bucket edge.
  const std::int64_t edge = std::int64_t{1} << CalendarQueue::kDefaultWidthShift;
  std::vector<std::int64_t> fired;
  for (const std::int64_t ns : {edge - 1, edge, edge + 1}) {
    sim.at(Time::nanoseconds(ns), [&fired, ns] { fired.push_back(ns); });
  }
  sim.run_until(Time::nanoseconds(edge));
  EXPECT_EQ(fired, (std::vector<std::int64_t>{edge - 1, edge}));
  EXPECT_EQ(sim.now().ns(), edge);
  EXPECT_EQ(sim.events_pending(), 1u);
  sim.run_until(Time::nanoseconds(edge + 1));
  EXPECT_EQ(fired.size(), 3u);
}

// stop() inside an event ends the run with the rest of the bucket still
// pending; a later run() resumes from exactly where it left off.
TEST(CalendarQueueTest, StopAndResumeMidBucket) {
  Simulator sim;
  std::vector<int> fired;
  // All three land in the same default-width bucket (window 0).
  sim.at(Time::nanoseconds(100), [&fired] { fired.push_back(1); });
  sim.at(Time::nanoseconds(200), [&] {
    fired.push_back(2);
    sim.stop();
  });
  sim.at(Time::nanoseconds(300), [&fired] { fired.push_back(3); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_pending(), 1u);
  EXPECT_EQ(sim.now().ns(), 200);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(sim.stopped() == false);
}

// The same holds for run_until: a stop mid-horizon must not advance the
// clock to the horizon, and the next run_until picks the bucket back up.
TEST(CalendarQueueTest, StopDoesNotAdvanceRunUntilHorizon) {
  Simulator sim;
  int fired = 0;
  sim.at(Time::nanoseconds(10), [&] {
    ++fired;
    sim.stop();
  });
  sim.at(Time::nanoseconds(20), [&] { ++fired; });
  sim.run_until(Time::nanoseconds(1000));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ns(), 10);
  sim.run_until(Time::nanoseconds(1000));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now().ns(), 1000);
}

// A CalendarQueue and a reference heap ordered by (time, seq), fed the
// same pushes.  Every event's action records its own seq when invoked,
// so a pop that returns the right key with another slot's action (a slab
// mix-up) fails as surely as a pop out of order.
class Differential {
 public:
  Differential(int width_shift, std::size_t bucket_count_log2)
      : q_{width_shift, bucket_count_log2} {}

  CalendarQueue& queue() { return q_; }
  [[nodiscard]] std::size_t size() const { return reference_.size(); }
  /// Time of the last pop, or the run_until() horizon if later: pushes
  /// must not precede it (the simulator's no-scheduling-in-the-past
  /// contract).
  [[nodiscard]] std::int64_t now() const { return now_; }

  void push(std::int64_t ns) {
    const std::uint64_t seq = next_seq_++;
    q_.push(CalendarQueue::Event{Time::nanoseconds(ns), seq, [this, seq] { fired_ = seq; }});
    reference_.emplace(ns, seq);
  }

  /// Pops the minimum and checks its key and its payload.
  void pop() {
    ASSERT_FALSE(reference_.empty());
    const Key expected = reference_.top();
    reference_.pop();
    ASSERT_EQ(q_.min_time().ns(), expected.first);
    CalendarQueue::Event ev = q_.pop_min();
    check(ev, expected);
  }

  /// The simulator's run_until(): pops every event at or before `limit`
  /// through the fused pop, then parks the clock on `limit`.
  void run_until(std::int64_t limit) {
    CalendarQueue::Event ev;
    while (q_.pop_min_at_or_before(Time::nanoseconds(limit), ev)) {
      ASSERT_FALSE(reference_.empty());
      const Key expected = reference_.top();
      reference_.pop();
      check(ev, expected);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_TRUE(reference_.empty() || reference_.top().first > limit);
    now_ = std::max(now_, limit);
  }

  void drain() {
    while (!reference_.empty()) {
      pop();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(q_.empty());
  }

 private:
  using Key = std::pair<std::int64_t, std::uint64_t>;  // (time, seq)

  void check(CalendarQueue::Event& ev, const Key& expected) {
    ASSERT_EQ(ev.time.ns(), expected.first);
    ASSERT_EQ(ev.seq, expected.second);
    ASSERT_TRUE(static_cast<bool>(ev.action));
    fired_ = ~std::uint64_t{0};
    ev.action();
    ASSERT_EQ(fired_, expected.second) << "popped event carries another event's action";
    ASSERT_EQ(q_.size(), reference_.size());
    now_ = expected.first;
  }

  CalendarQueue q_;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> reference_;
  std::uint64_t next_seq_{0};
  std::uint64_t fired_{0};
  std::int64_t now_{0};
};

/// Steady hold model: `depth` resident events, each pop re-pushing one
/// exponential increment (mean 1 ms, the fabric's propagation delay)
/// after the popped time.
void hold(Differential& d, Rng& rng, std::size_t depth, std::size_t holds) {
  constexpr double kMeanIncrementNs = 1e6;
  const auto increment = [&rng] {
    return static_cast<std::int64_t>(rng.exponential(kMeanIncrementNs));
  };
  while (d.size() < depth) d.push(d.now() + increment());
  for (std::size_t i = 0; i < holds; ++i) {
    d.pop();
    if (::testing::Test::HasFatalFailure()) return;
    d.push(d.now() + increment());
  }
}

// Differential check against the reference heap: one million operations
// of near-monotone pushes interleaved with pops, across configurations
// that exercise the default geometry, a tiny ring that forces constant
// far-tier traffic, and a zero-width ring where every distinct time is
// its own window; then three targeted workloads (a deep steady hold,
// pushes into a live batch, and pushes below the cursor after
// run_until()).
TEST(CalendarQueueTest, MatchesReferenceHeapOverRandomizedWorkload) {
  struct Config {
    int width_shift;
    std::size_t bucket_count_log2;
    std::uint64_t seed;
  };
  const Config configs[] = {
      {CalendarQueue::kDefaultWidthShift, CalendarQueue::kDefaultBucketCountLog2, 1},
      {2, 3, 2},   // 4ns x 8 buckets: 32ns horizon, heavy overflow churn
      {0, 4, 3},   // width 1ns: rebase + drain dominate
      {20, 6, 4},  // ~1ms windows: everything piles into few buckets
  };
  for (const Config& config : configs) {
    Differential d{config.width_shift, config.bucket_count_log2};
    Rng rng{config.seed};
    constexpr std::size_t kOps = 250'000;  // x4 configs = 1M operations
    for (std::size_t op = 0; op < kOps; ++op) {
      if (d.size() == 0 || rng.uniform_u64(100) < 55) {
        // Mixed horizons: mostly near-future, a tail of far-future times
        // that must detour through the overflow tier.
        const std::uint64_t kind = rng.uniform_u64(100);
        std::int64_t delta;
        if (kind < 60) {
          delta = static_cast<std::int64_t>(rng.uniform_u64(64));  // incl. ties
        } else if (kind < 95) {
          delta = static_cast<std::int64_t>(rng.uniform_u64(10'000));
        } else {
          delta = static_cast<std::int64_t>(rng.uniform_u64(5'000'000));
        }
        d.push(d.now() + delta);
      } else {
        d.pop();
      }
      ASSERT_FALSE(HasFatalFailure()) << "config seed " << config.seed;
    }
    d.drain();
    ASSERT_FALSE(HasFatalFailure()) << "config seed " << config.seed;
  }

  {
    // A steady hold at depth 16k: the deep-calendar regime, where the
    // ring grows with the far tier and slots recycle constantly.
    Differential d{CalendarQueue::kDefaultWidthShift, CalendarQueue::kDefaultBucketCountLog2};
    Rng rng{5};
    hold(d, rng, 16'384, 65'536);
    ASSERT_FALSE(HasFatalFailure());
    d.drain();
    ASSERT_FALSE(HasFatalFailure());
  }

  {
    // Pushes into a live batch: 2^16 ns windows, so after the first pop
    // drains a deep bucket, pushes a few hundred ns out (ties included)
    // land inside the drained window and are spliced into the sorted
    // keys, interleaved with pops.
    Differential d{16, 6};
    Rng rng{6};
    for (std::size_t round = 0; round < 200; ++round) {
      const std::int64_t base = d.now();
      for (int i = 0; i < 10; ++i) {
        d.push(base + static_cast<std::int64_t>(rng.uniform_u64(4096)));
      }
      for (int i = 0; i < 40; ++i) {
        d.pop();
        ASSERT_FALSE(HasFatalFailure());
        const int pushes = static_cast<int>(rng.uniform_u64(3));  // 0..2 per pop
        for (int p = 0; p < pushes; ++p) {
          d.push(d.now() + static_cast<std::int64_t>(rng.uniform_u64(300)));
        }
        if (d.size() == 0) break;
      }
      d.drain();
      ASSERT_FALSE(HasFatalFailure());
    }
  }

  {
    // Below-cursor pushes after run_until(): a run_until that empties
    // the ring jumps the cursor to the far tier's earliest window and
    // then stops short of it; the clock parks at the limit, and pushes
    // just after the clock land below the cursor window and must take
    // the rebuild path.  A 32 ns horizon keeps the far tier busy.
    Differential d{2, 3};
    Rng rng{7};
    for (std::size_t round = 0; round < 20'000; ++round) {
      const std::int64_t now = d.now();
      const int far = 1 + static_cast<int>(rng.uniform_u64(4));
      for (int i = 0; i < far; ++i) {
        d.push(now + 1'000 + static_cast<std::int64_t>(rng.uniform_u64(100'000)));
      }
      const int near = static_cast<int>(rng.uniform_u64(4));
      for (int i = 0; i < near; ++i) {
        d.push(now + static_cast<std::int64_t>(rng.uniform_u64(64)));
      }
      d.run_until(now + 64 + static_cast<std::int64_t>(rng.uniform_u64(900)));
      ASSERT_FALSE(HasFatalFailure());
      const int late = static_cast<int>(rng.uniform_u64(4));
      for (int i = 0; i < late; ++i) {
        d.push(d.now() + static_cast<std::int64_t>(rng.uniform_u64(16)));
      }
      if (d.size() > 64) d.run_until(d.now() + 50'000);
      ASSERT_FALSE(HasFatalFailure());
    }
    d.drain();
    ASSERT_FALSE(HasFatalFailure());
  }
}

// The depth cliff: a 16k-deep calendar with millisecond spacing used to
// keep its ring at 256 buckets once the width narrowed, parking ~80% of
// its events in the far tier's heap.  After one full turnover of the
// hold model, the ring must hold most of them.
TEST(CalendarQueueTest, DeepHoldKeepsMostEventsInTheRing) {
  constexpr std::size_t kDepth = 16'384;
  Differential d{CalendarQueue::kDefaultWidthShift, CalendarQueue::kDefaultBucketCountLog2};
  Rng rng{8};
  hold(d, rng, kDepth, kDepth);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(d.queue().size(), kDepth);
  EXPECT_LT(d.queue().far_size(), kDepth / 2);
  EXPECT_GT(d.queue().bucket_count(), std::size_t{1} << CalendarQueue::kDefaultBucketCountLog2);
}

}  // namespace
}  // namespace bufq
