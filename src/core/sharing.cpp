#include "core/sharing.h"

#include <cassert>

#include "check/invariants.h"
#include "sim/checkpoint.h"

namespace bufq {

BufferSharingManager::BufferSharingManager(ByteSize capacity, Rate link_rate,
                                           const std::vector<FlowSpec>& flows,
                                           ByteSize max_headroom, ThresholdScaling scaling)
    : BufferSharingManager{capacity, compute_thresholds(flows, capacity, link_rate, scaling),
                           max_headroom} {}

BufferSharingManager::BufferSharingManager(ByteSize capacity, std::vector<std::int64_t> thresholds,
                                           ByteSize max_headroom)
    : AccountingBufferManager{capacity, thresholds.size()},
      thresholds_{std::move(thresholds)},
      may_borrow_(thresholds_.size(), true),
      max_headroom_{max_headroom},
      pools_{capacity.count(), max_headroom.count()} {}

BufferSharingManager::BufferSharingManager(ByteSize capacity, Rate link_rate,
                                           const std::vector<FlowSpec>& flows,
                                           const std::vector<SharingClass>& classes,
                                           ByteSize max_headroom, ThresholdScaling scaling)
    : BufferSharingManager{capacity, compute_thresholds(flows, capacity, link_rate, scaling),
                           classes, max_headroom} {}

BufferSharingManager::BufferSharingManager(ByteSize capacity, std::vector<std::int64_t> thresholds,
                                           const std::vector<SharingClass>& classes,
                                           ByteSize max_headroom)
    : BufferSharingManager{capacity, std::move(thresholds), max_headroom} {
  assert(classes.size() == may_borrow_.size());
  for (std::size_t f = 0; f < classes.size(); ++f) {
    may_borrow_[f] = classes[f] == SharingClass::kAdaptive;
  }
}

std::int64_t BufferSharingManager::threshold(FlowId flow) const {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < thresholds_.size());
  return thresholds_[static_cast<std::size_t>(flow)];
}

bool BufferSharingManager::may_borrow(FlowId flow) const {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < may_borrow_.size());
  return may_borrow_[static_cast<std::size_t>(flow)];
}

BUFQ_HOT bool BufferSharingManager::try_admit(FlowId flow, std::int64_t bytes, Time now) {
  if (!pools_.admit(occupancy(flow), threshold(flow), bytes, may_borrow(flow))) return false;
  account_admit(flow, bytes, now);
  check_pools(flow, now);
  return true;
}

BUFQ_HOT void BufferSharingManager::release(FlowId flow, std::int64_t bytes, Time now) {
  account_release(flow, bytes, now);
  pools_.release(bytes);
  check_pools(flow, now);
}

void BufferSharingManager::check_pools(FlowId flow, Time now) const {
  holes_metric_.set(pools_.holes);
  headroom_metric_.set(pools_.headroom);
  pools_.check_pools(flow, now, total_occupancy(), capacity().count());
  // Only flows that may borrow can sit above their threshold.
  if (!may_borrow(flow)) {
    BUFQ_CHECK(occupancy(flow) <= threshold(flow), check::Invariant::kFlowBound, flow, now,
               static_cast<double>(occupancy(flow)), static_cast<double>(threshold(flow)),
               "non-adaptive flow sits above its threshold");
  }
}

void BufferSharingManager::save_extra(CheckpointWriter& w) const {
  w.write_i64(pools_.holes);
  w.write_i64(pools_.headroom);
}

void BufferSharingManager::restore_extra(CheckpointReader& r) {
  pools_.holes = r.read_i64();
  pools_.headroom = r.read_i64();
}

}  // namespace bufq
