// Buffer Sharing with thresholds (Section 3.3), and its selective
// variant (Section 5).
//
// Reserved shares are the fixed-partition thresholds T_i; unused buffer
// space is made available to all active flows, except for a *headroom* of
// up to H bytes kept aside for flows still below their threshold.  The
// buffer space available for sharing is called the *holes*.  The pool
// rules themselves live in core/admit_policy.h; this manager stores the
// per-flow thresholds and occupancy they read.  This sharing model is a
// flow-aware variant of the Choudhury-Hahne Dynamic Threshold scheme [1].
//
// Selective sharing is the extension sketched in the paper's conclusion:
// "one could also envision allowing adaptive flows to share buffers with
// reserved flows, while non-adaptive ones would be prevented from doing
// so."  Each flow then carries a SharingClass, stored as one may-borrow
// bit: only kAdaptive flows may take holes beyond their threshold; every
// class is admitted to its reservation from holes/headroom like anyone
// else.
#pragma once

#include <cstdint>
#include <vector>

#include "core/admit_policy.h"
#include "core/buffer_manager.h"
#include "core/flow_spec.h"
#include "core/threshold.h"
#include "obs/metrics.h"
#include "util/units.h"

namespace bufq {

enum class SharingClass {
  kReserved,  ///< its reservation only, never excess space
  kAdaptive,  ///< full Section 3.3 behavior (reservation + holes)
  kBlocked,   ///< a non-adaptive over-subscriber; same mechanism as
              ///< kReserved, kept distinct so policy intent shows in configs
};

class BufferSharingManager final : public AccountingBufferManager {
 public:
  /// Thresholds derived from the flows' declared envelopes.  Sharing keeps
  /// the analytic (unscaled) thresholds by default: the slack *is* the
  /// shared space.
  BufferSharingManager(ByteSize capacity, Rate link_rate, const std::vector<FlowSpec>& flows,
                       ByteSize max_headroom,
                       ThresholdScaling scaling = ThresholdScaling::kExact);

  /// Explicit thresholds (hybrid scheduler path).
  BufferSharingManager(ByteSize capacity, std::vector<std::int64_t> thresholds,
                       ByteSize max_headroom);

  /// Selective sharing: one class per flow.
  BufferSharingManager(ByteSize capacity, Rate link_rate, const std::vector<FlowSpec>& flows,
                       const std::vector<SharingClass>& classes, ByteSize max_headroom,
                       ThresholdScaling scaling = ThresholdScaling::kExact);
  BufferSharingManager(ByteSize capacity, std::vector<std::int64_t> thresholds,
                       const std::vector<SharingClass>& classes, ByteSize max_headroom);

  [[nodiscard]] bool try_admit(FlowId flow, std::int64_t bytes, Time now) override;
  void release(FlowId flow, std::int64_t bytes, Time now) override;

  [[nodiscard]] std::int64_t threshold(FlowId flow) const;
  /// False for a selective-sharing flow held to its reservation.
  [[nodiscard]] bool may_borrow(FlowId flow) const;
  [[nodiscard]] std::int64_t holes() const { return pools_.holes; }
  [[nodiscard]] std::int64_t headroom() const { return pools_.headroom; }
  [[nodiscard]] ByteSize max_headroom() const { return max_headroom_; }

 private:
  /// Audits the pools (and a non-borrowing flow's threshold) and
  /// publishes the pool gauges after every update.
  void check_pools(FlowId flow, Time now) const;
  /// Checkpoint hooks: holes/headroom raw fields only (no gauge updates —
  /// the engine overwrites the metrics registry after restore).
  void save_extra(CheckpointWriter& w) const override;
  void restore_extra(CheckpointReader& r) override;

  std::vector<std::int64_t> thresholds_;
  std::vector<bool> may_borrow_;
  ByteSize max_headroom_;
  SharingPools pools_;
  obs::GaugeHandle holes_metric_{obs::GaugeHandle::lookup("bm.holes_bytes")};
  obs::GaugeHandle headroom_metric_{obs::GaugeHandle::lookup("bm.headroom_bytes")};
};

}  // namespace bufq
