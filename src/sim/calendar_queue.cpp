#include "sim/calendar_queue.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace bufq {

CalendarQueue::CalendarQueue(int width_shift, std::size_t bucket_count_log2)
    : width_shift_{width_shift}, bucket_count_log2_{bucket_count_log2} {
  assert(width_shift >= 0 && width_shift < 62);
  assert(bucket_count_log2 >= 1 && bucket_count_log2 <= kMaxBucketCountLog2);
  buckets_.assign(bucket_count(), Bucket{});
  occupancy_.assign((bucket_count() + 63) / 64, 0);
}

void CalendarQueue::add_chunk() {
  assert(free_head_ == kNil);
  assert(chunks_.size() + 1 < (std::size_t{1} << (32 - kChunkLog2)) &&
         "slot index would reach kNil");
  const auto base = static_cast<std::uint32_t>(chunks_.size() << kChunkLog2);
  chunks_.push_back(std::make_unique<Slot[]>(std::size_t{1} << kChunkLog2));
  for (std::uint32_t i = kChunkMask + 1; i-- > 0;) {
    slot(base + i).next = free_head_;
    free_head_ = base + i;
  }
}

Time CalendarQueue::min_time() const {
  assert(size_ > 0);
  // A live batch holds the global minimum: everything outside it is
  // beyond the batch window.
  if (batch_live()) return batch_keys_[batch_pos_].time;
  Time best = Time::max();
  if (ring_size_ > 0) {
    const Bucket& bucket = buckets_[index_of(first_occupied_window())];
    best = slot(bucket_min(bucket).first).time;
  }
  // The far tier may hold an event whose window slid inside the horizon
  // since the last pop (drains are lazy), so it can beat the ring.
  if (!overflow_.empty() && overflow_.top().time < best) best = overflow_.top().time;
  return best;
}

bool CalendarQueue::begin_batch(std::size_t idx, std::int64_t w, Time limit) {
  Bucket& bucket = buckets_[idx];
  // Honor the no-mutation contract: only drain once we know the head
  // will actually be popped (its time is <= limit).
  if (slot(bucket_min(bucket).first).time > limit) return false;
  assert(!batch_live() && batch_keys_.empty());
  cursor_window_ = w;
  batch_end_ns_ = ((w + 1) << width_shift_) - 1;
  for (std::uint32_t s = bucket.head; s != kNil; s = slot(s).next) {
    batch_keys_.push_back(Key{slot(s).time, slot(s).seq, s});
  }
  ring_size_ -= bucket.depth;
  bucket = Bucket{};
  occupancy_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  std::sort(batch_keys_.begin(), batch_keys_.end(), EarlierKey{});
  return true;
}

void CalendarQueue::refile_ring(std::int64_t window, std::size_t bucket_count_log2) {
  std::vector<Bucket> old_buckets(std::size_t{1} << bucket_count_log2, Bucket{});
  old_buckets.swap(buckets_);
  std::vector<std::uint64_t> old_occupancy(((std::size_t{1} << bucket_count_log2) + 63) / 64, 0);
  old_occupancy.swap(occupancy_);
  bucket_count_log2_ = bucket_count_log2;
  ring_size_ = 0;
  cursor_window_ = window;
  // Visit only the occupied old buckets: a sparse ring can be far larger
  // than the events it holds.
  for (std::size_t word = 0; word < old_occupancy.size(); ++word) {
    for (std::uint64_t bits = old_occupancy[word]; bits != 0; bits &= bits - 1) {
      const std::size_t idx = (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      for (std::uint32_t s = old_buckets[idx].head; s != kNil;) {
        // Read the link before file_into_ring() overwrites it.
        const std::uint32_t next = slot(s).next;
        const std::int64_t w = window_of(slot(s).time);
        if (w >= horizon()) {
          overflow_.push(Key{slot(s).time, slot(s).seq, s});
        } else {
          file_into_ring(s, w);
        }
        s = next;
      }
    }
  }
}

void CalendarQueue::narrow() {
  assert(width_shift_ > 0);
  // Re-anchor in absolute time: the cursor's window index changes
  // meaning when the shift does.
  const std::int64_t anchor_ns = cursor_window_ << width_shift_;
  width_shift_ = std::max(width_shift_ - kWidthShrinkStep, 0);
  // Every pending event's time is >= the old cursor window's start, so
  // the re-derived cursor window is still a lower bound for all of them.
  rebuild_at(anchor_ns >> width_shift_);
}

void CalendarQueue::grow() {
  // Ring occupancy doubles the bucket count.  Far-tier pressure jumps
  // straight to two buckets per pending event: the far tier's split is
  // only re-measured after the drain below, so doubling one step at a
  // time would re-file the ring once per step for the same outcome.
  std::size_t log2 = bucket_count_log2_ + 1;
  if (overflow_.size() > ring_size_) {
    log2 = std::max(log2, static_cast<std::size_t>(std::bit_width(2 * size_ - 1)));
  }
  // The old horizon is inside the new one, so every ring event re-files
  // into the ring (never the far tier); then the far tier's head moves
  // into the widened horizon.
  refile_ring(cursor_window_, std::min(log2, kMaxBucketCountLog2));
  drain_overflow();
}

}  // namespace bufq
