#include "sched/rpq.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "check/invariants.h"
#include "sim/checkpoint.h"
#include "util/annotations.h"

namespace bufq {
namespace {

constexpr std::size_t kMinRingSlots = 8;

std::size_t ring_size_for(std::int64_t span) {
  const auto wanted = static_cast<std::size_t>(std::max<std::int64_t>(
      span, static_cast<std::int64_t>(kMinRingSlots)));
  return std::bit_ceil(wanted);
}

}  // namespace

RpqScheduler::RpqScheduler(BufferManager& manager, std::vector<Time> delay_targets,
                           Time granularity)
    : manager_{manager}, delay_targets_{std::move(delay_targets)}, granularity_{granularity} {
  assert(granularity_ > Time::zero());
  Time max_target = Time::zero();
  for (const Time& d : delay_targets_) {
    assert(d >= Time::zero());
    max_target = std::max(max_target, d);
  }
  // Steady state spans at most max_target / granularity slots (+2 for the
  // partial slots at both ends); overdue backlog can stretch it, in which
  // case the ring doubles on demand.
  const std::size_t slots = ring_size_for(max_target.ns() / granularity_.ns() + 2);
  ring_.resize(slots);
  occupancy_.assign((slots + 63) / 64, 0);
}

std::int64_t RpqScheduler::slot_for(Time deadline) const {
  return deadline.ns() / granularity_.ns();
}

BUFQ_HOT std::int64_t RpqScheduler::first_occupied_slot() const {
  assert(occupied_ > 0);
  const std::size_t n = ring_.size();
  const std::size_t start = index_of(min_slot_);
  std::size_t word = start / 64;
  const std::size_t words = occupancy_.size();
  // First word: ignore bits before the cursor; they belong to slots a
  // full ring-span ahead, which the span invariant rules out.
  std::uint64_t bits = occupancy_[word] & (~std::uint64_t{0} << (start % 64));
  for (std::size_t i = 0; i <= words; ++i) {
    if (bits != 0) {
      const std::size_t idx =
          word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      return min_slot_ + static_cast<std::int64_t>((idx - start) & (n - 1));
    }
    word = (word + 1 == words) ? 0 : word + 1;
    bits = occupancy_[word];
  }
  assert(false && "occupancy bitmap disagrees with occupied_ count");
  return min_slot_;
}

void RpqScheduler::grow(std::int64_t span) {
  const std::size_t new_size = ring_size_for(span + 1);
  assert(new_size > ring_.size());
  std::vector<std::deque<Packet>> bigger(new_size);
  std::vector<std::uint64_t> bits((new_size + 63) / 64, 0);
  const std::size_t old_mask = ring_.size() - 1;
  // Walk absolute slots from the cursor: every occupied slot lies within
  // one old-ring span of min_slot_, so this visits each exactly once.
  for (std::int64_t s = min_slot_;
       s < min_slot_ + static_cast<std::int64_t>(ring_.size()); ++s) {
    const std::size_t old_idx = static_cast<std::size_t>(s) & old_mask;
    if ((occupancy_[old_idx / 64] >> (old_idx % 64)) & 1U) {
      const std::size_t new_idx = static_cast<std::size_t>(s) & (new_size - 1);
      bigger[new_idx] = std::move(ring_[old_idx]);
      bits[new_idx / 64] |= std::uint64_t{1} << (new_idx % 64);
    }
  }
  ring_ = std::move(bigger);
  occupancy_ = std::move(bits);
}

BUFQ_HOT bool RpqScheduler::enqueue(const Packet& packet, Time now) {
  if (!manager_.try_admit(packet.flow, packet.size_bytes, now)) {
    drops_metric_.add();
    if (on_drop_) on_drop_(packet, now);
    return false;
  }
  accepts_metric_.add();
  assert(packet.flow >= 0 &&
         static_cast<std::size_t>(packet.flow) < delay_targets_.size());
  const Time deadline = now + delay_targets_[static_cast<std::size_t>(packet.flow)];
  const std::int64_t slot = slot_for(deadline);

  if (backlogged_packets_ == 0) {
    min_slot_ = slot;
    max_slot_ = slot;
  } else {
    const std::int64_t new_min = std::min(min_slot_, slot);
    const std::int64_t new_max = std::max(max_slot_, slot);
    // Grow before moving the cursor: the relocation walk is anchored at
    // the current min_slot_, below which nothing is filed yet.
    if (new_max - new_min >= static_cast<std::int64_t>(ring_.size())) {
      grow(new_max - new_min);
    }
    min_slot_ = new_min;
    max_slot_ = new_max;
  }

  const std::size_t idx = index_of(slot);
  BUFQ_LINT_SUPPRESS("hot-path-container-growth", "per-slot deque needs pop_front; chunked growth amortizes and chunks are reused");
  ring_[idx].push_back(packet);
  if (ring_[idx].size() == 1) {
    occupancy_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    ++occupied_;
  }
  ++backlogged_packets_;
  backlog_bytes_ += packet.size_bytes;
  return true;
}

BUFQ_HOT std::optional<Packet> RpqScheduler::dequeue(Time now) {
  if (backlogged_packets_ == 0) return std::nullopt;
  const std::int64_t slot = first_occupied_slot();
  min_slot_ = slot;
  const std::size_t idx = index_of(slot);
  std::deque<Packet>& fifo = ring_[idx];
  assert(!fifo.empty());
  const Packet packet = fifo.front();
  fifo.pop_front();
  if (fifo.empty()) {
    occupancy_[idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
    --occupied_;
  }
  --backlogged_packets_;
  backlog_bytes_ -= packet.size_bytes;
  BUFQ_CHECK(backlog_bytes_ >= 0, check::Invariant::kConservation, packet.flow, now,
             static_cast<double>(backlog_bytes_), 0.0, "RPQ backlog bytes went negative");
  manager_.release(packet.flow, packet.size_bytes, now);
  return packet;
}

void RpqScheduler::save_state(CheckpointWriter& w) const {
  w.begin_section("sched.rpq");
  w.write_u64(ring_.size());
  w.write_i64(min_slot_);
  w.write_i64(max_slot_);
  w.write_u64(backlogged_packets_);
  w.write_i64(backlog_bytes_);
  // Occupied slots by absolute slot number, cursor order.  Every occupied
  // slot lies within one ring span of min_slot_ (the span invariant), so
  // this walk visits each exactly once.
  w.write_u64(occupied_);
  if (occupied_ > 0) {
    for (std::int64_t s = min_slot_;
         s < min_slot_ + static_cast<std::int64_t>(ring_.size()); ++s) {
      const std::size_t idx = index_of(s);
      if (((occupancy_[idx / 64] >> (idx % 64)) & 1U) == 0) continue;
      w.write_i64(s);
      w.write_u64(ring_[idx].size());
      for (const Packet& packet : ring_[idx]) save_packet(w, packet);
    }
  }
  w.end_section();
}

void RpqScheduler::restore_state(CheckpointReader& r) {
  r.begin_section("sched.rpq");
  const std::uint64_t slots = r.read_u64();
  min_slot_ = r.read_i64();
  max_slot_ = r.read_i64();
  backlogged_packets_ = r.read_u64();
  backlog_bytes_ = r.read_i64();
  ring_.assign(slots, {});
  occupancy_.assign((slots + 63) / 64, 0);
  occupied_ = 0;
  const std::uint64_t occupied = r.read_u64();
  for (std::uint64_t i = 0; i < occupied; ++i) {
    const std::int64_t slot = r.read_i64();
    const std::size_t idx = index_of(slot);
    const std::uint64_t depth = r.read_u64();
    for (std::uint64_t p = 0; p < depth; ++p) ring_[idx].push_back(load_packet(r));
    occupancy_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    ++occupied_;
  }
  r.end_section();
}

}  // namespace bufq
