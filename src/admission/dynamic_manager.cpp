#include "admission/dynamic_manager.h"

#include <cassert>

#include "check/invariants.h"
#include "sim/checkpoint.h"

namespace bufq::admission {

DynamicBufferManager::DynamicBufferManager(ByteSize capacity, FlowTable& table, Policy policy,
                                           ByteSize max_headroom)
    : capacity_{capacity},
      table_{table},
      policy_{policy},
      pools_{capacity.count(), max_headroom.count()} {
  assert(capacity.count() >= 0);
}

BUFQ_HOT bool DynamicBufferManager::try_admit(FlowId flow, std::int64_t bytes, Time now) {
  static_cast<void>(now);
  assert(flow >= 0);
  const auto slot = static_cast<std::uint32_t>(flow);
  // A packet can outlive its flow only through a bug in the churn driver's
  // reap ordering; refuse rather than corrupt a recycled slot's counters.
  if (!table_.active(slot)) return false;

  const std::int64_t q = table_.occupancy(slot);
  const std::int64_t t = table_.threshold(slot);

  if (policy_ == Policy::kThreshold) {
    if (!threshold_admits(q, t, total_, capacity_.count(), bytes)) return false;
    table_.add_occupancy(slot, bytes);
    total_ += bytes;
    BUFQ_CHECK(table_.occupancy(slot) <= t, check::Invariant::kFlowBound, flow, now,
               static_cast<double>(table_.occupancy(slot)), static_cast<double>(t),
               "churn-table admit left flow above its threshold");
    BUFQ_CHECK(total_ <= capacity_.count(), check::Invariant::kCapacity, flow, now,
               static_cast<double>(total_), static_cast<double>(capacity_.count()),
               "churn-table admit overflowed the buffer");
    return true;
  }

  if (!pools_.admit(q, t, bytes, /*may_borrow=*/true)) return false;
  table_.add_occupancy(slot, bytes);
  total_ += bytes;
  pools_.check_pools(flow, now, total_, capacity_.count());
  return true;
}

BUFQ_HOT void DynamicBufferManager::release(FlowId flow, std::int64_t bytes, Time now) {
  static_cast<void>(now);
  assert(flow >= 0);
  const auto slot = static_cast<std::uint32_t>(flow);
  assert(table_.active(slot) && "release for a flow that was already recycled");
  table_.add_occupancy(slot, -bytes);
  total_ -= bytes;
  BUFQ_CHECK(table_.occupancy(slot) >= 0, check::Invariant::kConservation, flow, now,
             static_cast<double>(table_.occupancy(slot)), 0.0,
             "release drove churn-table occupancy negative");
  BUFQ_CHECK(total_ >= 0, check::Invariant::kConservation, flow, now,
             static_cast<double>(total_), 0.0, "release drove total occupancy negative");
  if (policy_ == Policy::kSharing) {
    pools_.release(bytes);
    pools_.check_pools(flow, now, total_, capacity_.count());
  }
}

std::int64_t DynamicBufferManager::occupancy(FlowId flow) const {
  assert(flow >= 0);
  const auto slot = static_cast<std::uint32_t>(flow);
  return table_.active(slot) ? table_.occupancy(slot) : 0;
}

void DynamicBufferManager::save_state(CheckpointWriter& w) const {
  w.begin_section("bm.dynamic");
  w.write_i64(total_);
  w.write_i64(pools_.holes);
  w.write_i64(pools_.headroom);
  w.end_section();
}

void DynamicBufferManager::restore_state(CheckpointReader& r) {
  r.begin_section("bm.dynamic");
  total_ = r.read_i64();
  pools_.holes = r.read_i64();
  pools_.headroom = r.read_i64();
  r.end_section();
}

}  // namespace bufq::admission
