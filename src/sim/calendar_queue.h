// Two-tier bucketed calendar queue over an event slab: the simulator's
// event calendar.
//
// The classic DES answer (Brown's calendar queue) to a priority queue
// whose keys are near-monotone timestamps.  Simulated time is integer
// nanoseconds, so bucketing is a shift: bucket widths are powers of two
// of the Time base and an event's window is time.ns() >> width_shift.
//
//   slab        every pending event lives exactly once, in one slot of
//               a pool allocated in fixed chunks: its (time, seq) key,
//               an intrusive `next` link and, beside them, its
//               InlineAction.  Freed slots go on an intrusive free-list
//               stack threaded through `next`, so the most recently
//               vacated (cache-hot) slot is reused first and steady
//               state allocates nothing.  The pool only grows, one chunk
//               at a time, to the peak pending depth; growing it never
//               moves a live event.
//   near tier   a ring of `bucket_count` consecutive aligned windows
//               starting at the cursor window.  Each bucket is an
//               intrusive singly-linked list of slot indices plus a
//               depth counter: push prepends, pop walks the (short) list
//               for the exact (time, seq) minimum and unlinks it.  No
//               event record moves while it waits, and a 64-bit
//               occupancy bitmap skips empty buckets without touching
//               their cache lines.
//   far tier    one flat 4-ary min-heap of 24-byte (time, seq, slot)
//               keys holding everything beyond the ring's horizon;
//               events migrate into the ring lazily as the cursor
//               approaches their window.  Sifts move keys, never the
//               event's action.
//
// Determinism: pop_min() always returns the pending event with the
// smallest (time, seq) — exactly the order the original binary-heap
// calendar produced — so runs are bit-identical to it.  The contract
// that makes the ring cheap is the simulator's own: pushed times never
// precede the last popped time (Simulator::at rejects scheduling in the
// past).  Pushes below the cursor window (possible after run_until()
// advanced the clock past every pending event) take a rare rebuild path
// instead of corrupting the ring.
//
// Lazy resize, two levers, each re-filing the ring:
//   * grow: the bucket count doubles (up to kMaxBucketCountLog2) when
//     ring occupancy outgrows kMaxAvgPerBucket.  It also grows when the
//     far tier holds more events than the ring while there are fewer
//     than two buckets per pending event, and then straight to two per
//     event.  This second trigger is what keeps a deep calendar out of
//     the heap: narrowing shrinks the horizon, and without it a 16k-deep
//     calendar with millisecond spacing parks 80% of its events in the
//     far tier.  Two buckets per event rather than one leave the horizon
//     room for a later narrowing (which divides it by four) without
//     sending most of the calendar back to the heap.  A grow also drains
//     the far tier into the widened horizon.
//   * narrow: when a push lands in a bucket deeper than kMaxBucketDepth
//     the window width divides by 2^kWidthShrinkStep (distinct times
//     then hash to distinct windows).
// Both are deterministic functions of the event sequence, so identical
// runs resize identically; neither changes pop order.
//
// Batched same-bucket dispatch: popping from a bucket of depth k would
// re-walk the bucket's list (and the occupancy bitmap) on every pop —
// O(k) per event, O(k^2) to empty the bucket.  Instead, the first pop
// from a bucket at least kBatchMinDepth deep drains the WHOLE bucket
// into a reusable array of (time, seq, slot) keys, sorts it once, and
// subsequent pops hand out events in key order at O(1) each.  Pushes
// that land inside the drained window while the batch is live (an event
// at `now` scheduling another a few ns out) are spliced into the key
// array at their sorted position, so pop order remains exactly the
// global (time, seq) minimum.  Shallower buckets pop directly: for a
// couple of events the list walk is cheaper than the sort.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_action.h"
#include "util/annotations.h"
#include "util/dary_heap.h"
#include "util/units.h"

namespace bufq {

class CalendarQueue {
 public:
  struct Event {
    Time time;
    std::uint64_t seq;
    InlineAction action;
  };

  /// Default bucket width 2^13 ns (~8.2 us) x 256 buckets: a ~2.1 ms
  /// near horizon, a few packet times wide per bucket at the paper's
  /// link rates.  The lazy resize handles denser calendars.
  static constexpr int kDefaultWidthShift = 13;
  static constexpr std::size_t kDefaultBucketCountLog2 = 8;
  static constexpr std::size_t kMaxBucketCountLog2 = 20;
  /// Ring occupancy (events per bucket, on average) that triggers a
  /// bucket-count doubling.
  static constexpr std::size_t kMaxAvgPerBucket = 8;
  /// Single-bucket depth that triggers a width narrowing: beyond this
  /// the pop-side list walk costs more than re-filing amortizes to.
  static constexpr std::size_t kMaxBucketDepth = 12;
  /// How much one narrowing divides the window width by (2^2 = 4x).
  static constexpr int kWidthShrinkStep = 2;
  /// Buckets at least this deep drain into the sorted batch; shallower
  /// ones pop directly (the list walk is a couple of compares, cheaper
  /// than gathering every key and sorting).
  static constexpr std::size_t kBatchMinDepth = 5;

  explicit CalendarQueue(int width_shift = kDefaultWidthShift,
                         std::size_t bucket_count_log2 = kDefaultBucketCountLog2);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Files an event.  `time` must not precede the last popped event's
  /// time (the simulator's no-scheduling-in-the-past contract); later
  /// than-cursor times are always fine, including far-future ones.
  /// Defined inline below: one push runs per simulated event, and the
  /// ring link is a handful of instructions once visible to the caller.
  void push(Event event);

  /// Timestamp of the pending event with the smallest (time, seq).
  /// Requires a non-empty calendar.  Does not mutate cursor state.
  [[nodiscard]] Time min_time() const;

  /// Removes and returns the pending event with the smallest
  /// (time, seq).  Requires a non-empty calendar.
  Event pop_min();

  /// pop_min() fused with the time test: pops only when the minimum's
  /// timestamp is <= `limit` (else leaves the calendar unchanged and
  /// returns false).  Saves run-until loops a second scan per event.
  bool pop_min_at_or_before(Time limit, Event& out);

  /// Current bucket count (tests observe the lazy resize).
  [[nodiscard]] std::size_t bucket_count() const {
    return std::size_t{1} << bucket_count_log2_;
  }

  /// Current window width as a shift (tests observe the narrowing).
  [[nodiscard]] int width_shift() const { return width_shift_; }

  /// Pending events parked in the far tier (tests observe that a deep
  /// calendar keeps most of its events in the ring).
  [[nodiscard]] std::size_t far_size() const { return overflow_.size(); }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  /// Slab chunk: 64 slots (6 KiB), so a shallow calendar stays small.
  static constexpr unsigned kChunkLog2 = 6;
  static constexpr std::uint32_t kChunkMask = (std::uint32_t{1} << kChunkLog2) - 1;

  /// Slab slot: the event's key, the intrusive link of whichever list
  /// holds the slot (a ring bucket or the free list), and the action.
  struct Slot {
    Time time;
    std::uint64_t seq;
    std::uint32_t next;
    InlineAction action;
  };
  /// Far-tier and batch entry: a pending event's key and its slot.
  struct Key {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct EarlierKey {
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };
  struct Bucket {
    std::uint32_t head{kNil};
    std::uint32_t depth{0};
  };

  [[nodiscard]] std::int64_t window_of(Time t) const { return t.ns() >> width_shift_; }
  [[nodiscard]] std::size_t index_of(std::int64_t window) const {
    return static_cast<std::size_t>(window) & (bucket_count() - 1);
  }
  [[nodiscard]] std::int64_t horizon() const {
    return cursor_window_ + static_cast<std::int64_t>(bucket_count());
  }

  /// Slot `s` of the slab.
  [[nodiscard]] Slot& slot(std::uint32_t s) { return chunks_[s >> kChunkLog2][s & kChunkMask]; }
  [[nodiscard]] const Slot& slot(std::uint32_t s) const {
    return chunks_[s >> kChunkLog2][s & kChunkMask];
  }

  /// Moves `event` into the free list's top slot and returns its index.
  BUFQ_HOT std::uint32_t acquire_slot(Event& event) {
    if (free_head_ == kNil) add_chunk();
    const std::uint32_t index = free_head_;
    Slot& s = slot(index);
    free_head_ = s.next;
    s.time = event.time;
    s.seq = event.seq;
    s.action = std::move(event.action);
    return index;
  }

  /// Moves slot `index`'s event into `out` and pushes the slot on the
  /// free list.
  BUFQ_HOT void release_slot(std::uint32_t index, Event& out) {
    Slot& s = slot(index);
    out.time = s.time;
    out.seq = s.seq;
    out.action = std::move(s.action);
    s.next = free_head_;
    free_head_ = index;
  }

  BUFQ_HOT void file_into_ring(std::uint32_t index, std::int64_t window) {
    assert(window >= cursor_window_ && window < horizon());
    const std::size_t idx = index_of(window);
    Bucket& bucket = buckets_[idx];
    slot(index).next = bucket.head;
    bucket.head = index;
    ++bucket.depth;
    occupancy_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    ++ring_size_;
  }

  /// Slot of the (time, seq)-smallest event in a non-empty bucket, and
  /// the slot linking to it (kNil when it is the head).
  BUFQ_HOT [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> bucket_min(
      const Bucket& bucket) const {
    assert(bucket.head != kNil);
    const EarlierKey earlier{};
    std::uint32_t best = bucket.head;
    std::uint32_t best_prev = kNil;
    for (std::uint32_t prev = best, s = slot(best).next; s != kNil;
         prev = s, s = slot(s).next) {
      if (earlier(slot(s), slot(best))) {
        best = s;
        best_prev = prev;
      }
    }
    return {best, best_prev};
  }

  /// Moves far-tier events whose window entered the ring's horizon into
  /// their buckets.
  BUFQ_HOT void drain_overflow() {
    while (!overflow_.empty()) {
      const std::int64_t w = window_of(overflow_.top().time);
      if (w >= horizon()) break;
      file_into_ring(overflow_.pop().slot, w);
    }
  }
  /// First non-empty ring window at or after `cursor_window_`, found by
  /// scanning the occupancy bitmap; requires ring_size_ > 0.
  BUFQ_HOT [[nodiscard]] std::int64_t first_occupied_window() const {
    assert(ring_size_ > 0);
    const std::size_t n = bucket_count();
    const std::size_t start = index_of(cursor_window_);
    const std::size_t words = occupancy_.size();
    std::size_t word = start >> 6;
    // First word masked to bits at or after the cursor; the wrap-around
    // revisit of this word at the end of the scan sees the full word.
    std::uint64_t bits = occupancy_[word] & (~std::uint64_t{0} << (start & 63));
    for (std::size_t i = 0; i <= words; ++i) {
      if (bits != 0) {
        const std::size_t idx =
            (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        const std::size_t dist = (idx - start) & (n - 1);
        return cursor_window_ + static_cast<std::int64_t>(dist);
      }
      word = word + 1 == words ? 0 : word + 1;
      bits = occupancy_[word];
    }
    assert(false && "occupancy bitmap disagrees with ring_size_");
    return cursor_window_;
  }

  /// A live batch is the drained cursor bucket, handed out through
  /// `batch_keys_` in (time, seq) order.  batch_end_ns_ doubles as the
  /// liveness flag (-1 when no batch), so the per-event checks in
  /// push()/pop are one register compare.
  [[nodiscard]] bool batch_live() const { return batch_end_ns_ >= 0; }

  /// Drains the bucket at ring index `idx` (window `w`) into the sorted
  /// key array — but only after confirming the bucket's minimum is
  /// <= `limit`, so a false return leaves the calendar untouched (the
  /// pop_min_at_or_before contract).  The limit pre-check also
  /// guarantees the caller pops the batch head immediately, which pins
  /// `now` at or past the batch window: no later push can land below
  /// the cursor while the batch is live, so rebuild_at() can never run
  /// under a live batch.
  bool begin_batch(std::size_t idx, std::int64_t w, Time limit);

  /// Files a push that lands inside the live batch's window at its
  /// sorted position in the key array.  The new event carries the
  /// largest seq yet issued, so it sorts after every equal-time key:
  /// scan from the back comparing times only (almost always an append).
  BUFQ_HOT void splice_into_batch(const Key& key) {
    std::size_t at = batch_keys_.size();
    while (at > batch_pos_ && key.time < batch_keys_[at - 1].time) --at;
    BUFQ_LINT_SUPPRESS("hot-path-container-growth", "key splice reuses batch scratch capacity; insertion point is almost always the back");
    batch_keys_.insert(batch_keys_.begin() + static_cast<std::ptrdiff_t>(at), key);
  }

  /// Appends one chunk to the slab and pushes its slots on the free
  /// list, lowest index on top (cold: runs until the slab reaches the
  /// peak pending depth, then never).
  void add_chunk();

  /// Should the ring grow?  See the header comment's "grow" lever.
  [[nodiscard]] bool wants_grow() const {
    if (bucket_count_log2_ >= kMaxBucketCountLog2) return false;
    return ring_size_ > (kMaxAvgPerBucket << bucket_count_log2_) ||
           (overflow_.size() > ring_size_ && bucket_count() < 2 * size_);
  }

  /// Unlinks every ring event, clears the ring to `bucket_count_log2`
  /// buckets anchored at `window`, and re-files each event into the
  /// ring or (beyond the new horizon) the far tier.  Rare: only pushes
  /// below the cursor window and resizes need it.
  void refile_ring(std::int64_t window, std::size_t bucket_count_log2);
  void rebuild_at(std::int64_t window) { refile_ring(window, bucket_count_log2_); }
  /// Doubles the bucket count (under far-tier pressure, raises it to two
  /// buckets per pending event), re-files the ring and drains the far
  /// tier into the widened horizon.
  void grow();
  /// Divides the window width by 2^kWidthShrinkStep and re-files the
  /// ring, splitting clustered buckets whose events have distinct times.
  void narrow();

  std::vector<Bucket> buckets_;
  /// One bit per bucket, indexed like buckets_.
  std::vector<std::uint64_t> occupancy_;
  DaryMinHeap<Key, 4, EarlierKey> overflow_;
  /// The slab, in fixed chunks of 2^kChunkLog2 slots: growing it never
  /// moves a live event, and its footprint is the peak pending depth
  /// rounded up to one chunk (a doubling vector would briefly hold 1.5x
  /// that while it copies).
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_{kNil};
  int width_shift_;
  std::size_t bucket_count_log2_;
  /// Window of the last popped event (or of the ring's base after a
  /// rebuild); every pending event's window is >= this.
  std::int64_t cursor_window_{0};
  std::size_t ring_size_{0};
  std::size_t size_{0};
  /// Sorted keys of the live batch; keeps its capacity across batches
  /// so steady state allocates nothing.
  std::vector<Key> batch_keys_;
  std::size_t batch_pos_{0};
  /// Last nanosecond covered by the live batch's window (absolute, so
  /// a later narrow()'s shift change cannot skew it), or -1 when no
  /// batch is live — the batch_live() flag itself.
  std::int64_t batch_end_ns_{-1};
};

// The per-event operations are defined here, out of line but in the
// header: the event loop calls each exactly once per simulated event,
// and having the ring link / bitmap scan visible at the call site is
// worth measurably more than a compact translation unit.  The rare
// paths (refile_ring, narrow, grow) stay in calendar_queue.cpp.

BUFQ_HOT inline void CalendarQueue::push(Event event) {
  const std::uint32_t index = acquire_slot(event);
  ++size_;
  // batch_end_ns_ is -1 with no live batch and times are non-negative,
  // so this one compare is also the liveness check.
  if (event.time.ns() <= batch_end_ns_) {
    // The event lands inside the drained window: every other pending
    // event is strictly later, so it belongs in the live batch.
    splice_into_batch(Key{event.time, event.seq, index});
    return;
  }
  const std::int64_t w = window_of(event.time);
  if (size_ == 1) {
    // Empty calendar: re-anchor the ring at the new event so the first
    // pop never scans a stale cursor position.
    cursor_window_ = w;
  } else if (w < cursor_window_) {
    // Below the cursor window.  Legal only when the clock itself is
    // below the cursor (run_until() advanced `now` past every pending
    // event, then something scheduled close to `now`); rare, so re-file
    // the ring at the earlier anchor rather than complicating the ring
    // indexing for it.
    rebuild_at(w);
  }
  if (w >= horizon()) {
    overflow_.push(Key{event.time, event.seq, index});
    if (wants_grow()) grow();
    return;
  }
  const std::size_t depth = buckets_[index_of(w)].depth;
  file_into_ring(index, w);
  if (depth >= kMaxBucketDepth && width_shift_ > 0) {
    // One bucket is hogging events: distinct times split apart under a
    // narrower window, and a bucket of same-time events stops re-firing
    // this once width_shift_ bottoms out.
    narrow();
  } else if (wants_grow()) {
    grow();
  }
}

BUFQ_HOT inline bool CalendarQueue::pop_min_at_or_before(Time limit, Event& out) {
  if (!batch_live()) {
    if (size_ == 0) return false;
    if (!overflow_.empty()) {
      drain_overflow();
      if (ring_size_ == 0) {
        // Ring exhausted: jump the cursor to the far tier's earliest
        // window and pull its near future in.
        cursor_window_ = window_of(overflow_.top().time);
        drain_overflow();
      }
    }
    // After the drain every far-tier window is >= the horizon, so the
    // ring's minimum is the global one (equal times share a window).
    const std::int64_t w = first_occupied_window();
    const std::size_t idx = index_of(w);
    Bucket& bucket = buckets_[idx];
    if (bucket.depth < kBatchMinDepth) {
      // Shallow bucket (the sparse-calendar common case): pop directly,
      // no batch bookkeeping.
      const auto [best, prev] = bucket_min(bucket);
      if (slot(best).time > limit) return false;
      cursor_window_ = w;
      (prev == kNil ? bucket.head : slot(prev).next) = slot(best).next;
      if (--bucket.depth == 0) occupancy_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
      --ring_size_;
      --size_;
      release_slot(best, out);
      return true;
    }
    if (!begin_batch(idx, w, limit)) return false;
  }
  // Live batch: its head is the global (time, seq) minimum — every
  // non-batch pending event is beyond batch_end_ns_.
  const Key& key = batch_keys_[batch_pos_];
  if (key.time > limit) return false;
  release_slot(key.slot, out);
  if (++batch_pos_ == batch_keys_.size()) {
    // clear() keeps capacity: steady state reuses the scratch.
    batch_keys_.clear();
    batch_pos_ = 0;
    batch_end_ns_ = -1;
  }
  --size_;
  return true;
}

BUFQ_HOT inline CalendarQueue::Event CalendarQueue::pop_min() {
  assert(size_ > 0);
  Event out;
  [[maybe_unused]] const bool popped = pop_min_at_or_before(Time::max(), out);
  assert(popped);
  return out;
}

}  // namespace bufq
