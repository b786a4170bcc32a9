// BufferManager over a FlowTable: the per-packet admission rule of
// Sections 3.2/3.3 with flows that come and go at run time.
//
// The static managers in src/core size their per-flow vectors once from a
// fixed flow set; under churn the flow population changes every few
// milliseconds.  This manager reads occupancy and threshold from the
// FlowTable instead, so flow admit/teardown is slot recycling in the
// table and the per-packet path stays the paper's O(1) counter test.
//
// Two policies:
//   * kThreshold — fixed partition (S3.2): admit iff the packet fits the
//     buffer and keeps the flow at or below its threshold.  Because a
//     flow's Prop-2 threshold depends only on its own envelope and (B, R),
//     thresholds never need recomputation when other flows churn.
//   * kSharing — holes/headroom sharing (S3.3).  Flow churn leaves the
//     pools untouched since flows are admitted empty and recycled only
//     after draining.
//
// Both rules are the ones in core/admit_policy.h, shared with the static
// managers; this class adds only the FlowTable storage and the
// stale-slot refusal.
#pragma once

#include <cstdint>

#include "admission/flow_table.h"
#include "core/admit_policy.h"
#include "core/buffer_manager.h"
#include "util/units.h"

namespace bufq::admission {

class DynamicBufferManager final : public BufferManager {
 public:
  enum class Policy { kThreshold, kSharing };

  /// The manager does not own the table; packets are attributed by
  /// FlowId == table slot.  Throws std::invalid_argument for a negative
  /// headroom.
  DynamicBufferManager(ByteSize capacity, FlowTable& table, Policy policy,
                       ByteSize max_headroom = ByteSize::zero());

  [[nodiscard]] bool try_admit(FlowId flow, std::int64_t bytes, Time now) override;
  void release(FlowId flow, std::int64_t bytes, Time now) override;

  [[nodiscard]] std::int64_t occupancy(FlowId flow) const override;
  [[nodiscard]] std::int64_t total_occupancy() const override { return total_; }
  [[nodiscard]] ByteSize capacity() const override { return capacity_; }

  [[nodiscard]] std::int64_t holes() const { return pools_.holes; }
  [[nodiscard]] std::int64_t headroom() const { return pools_.headroom; }

  /// Checkpointable: totals and pool state — per-flow occupancy lives in
  /// the FlowTable, which checkpoints itself.
  void save_state(CheckpointWriter& w) const override;
  void restore_state(CheckpointReader& r) override;

 private:
  ByteSize capacity_;
  FlowTable& table_;
  Policy policy_;
  std::int64_t total_{0};
  // Updated under kSharing only; kThreshold keeps (and checkpoints) the
  // empty-buffer pools.
  SharingPools pools_;
};

}  // namespace bufq::admission
