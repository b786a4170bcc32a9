// The paper's per-packet admission rules, once, over plain integers.
//
// Every buffer manager that enforces them — ThresholdManager and
// BufferSharingManager over per-flow vectors, and
// admission::DynamicBufferManager over FlowTable lanes — is a storage
// adapter around the functions here.  They read a flow's occupancy q and
// threshold T from wherever they keep them and apply:
//
//   * Prop. 1/2 (Section 3.2): admit a packet of L bytes iff it fits the
//     buffer and keeps the flow at or below its threshold,
//
//         total + L <= B   and   q + L <= T,   with T = sigma + (rho/R) B;
//
//   * Section 3.3 sharing: the unreserved buffer is split into *holes*
//     (shared by every active flow) and a *headroom* of up to H bytes kept
//     for flows still below their threshold.  A below-threshold packet
//     takes holes first, then headroom; an above-threshold packet takes
//     holes only, and only if the flow's excess after admission
//     (q + L - T) does not exceed the holes that would remain.  On
//     departure the freed bytes refill the headroom up to its cap first
//     and only the overflow returns to the holes (the paper's pseudocode):
//
//         headroom += packetlength;
//         holes    += MAX(headroom - H, 0);
//         headroom  = MIN(headroom, H);
//
//     Invariant: holes + headroom + occupancy == B.
//
// Selective sharing (the Section 5 extension) is the same mechanism with
// one per-flow bit: a flow that may not borrow is refused wherever the
// Section 3.3 rule would hand it holes beyond its threshold.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "check/invariants.h"
#include "core/flow_spec.h"
#include "sim/packet.h"
#include "util/annotations.h"
#include "util/units.h"

namespace bufq {

/// The Prop. 2 threshold sigma + (rho / R) * B, unrounded; each caller
/// rounds it its own way.
[[nodiscard]] inline double prop2_threshold(const FlowSpec& flow, double buffer_bytes,
                                            Rate link_rate) {
  return static_cast<double>(flow.sigma.count()) + (flow.rho / link_rate) * buffer_bytes;
}

/// The Prop. 1/2 fixed-partition test for a packet of `bytes` on a flow
/// holding `q` of its threshold `t`, with `total` of `capacity` in use.
[[nodiscard]] BUFQ_HOT inline bool threshold_admits(std::int64_t q, std::int64_t t,
                                                    std::int64_t total, std::int64_t capacity,
                                                    std::int64_t bytes) {
  return total + bytes <= capacity && q + bytes <= t;
}

/// The Section 3.3 holes/headroom pools of one buffer.
struct SharingPools {
  std::int64_t holes{0};
  std::int64_t headroom{0};
  /// The headroom cap min(H, B).
  std::int64_t cap{0};

  /// An empty buffer of `capacity` bytes: the headroom at its cap and
  /// everything else holes.  A negative H would refuse every packet, so it
  /// is rejected here.
  SharingPools(std::int64_t capacity, std::int64_t max_headroom)
      : holes{capacity - std::min(max_headroom, capacity)},
        headroom{std::min(max_headroom, capacity)},
        cap{headroom} {
    require_headroom(max_headroom);
  }

  /// Throws std::invalid_argument, naming H, when H < 0.
  static void require_headroom(std::int64_t max_headroom) {
    if (max_headroom < 0) {
      throw std::invalid_argument("sharing headroom must be >= 0 bytes, got " +
                                  std::to_string(max_headroom));
    }
  }

  /// Takes `bytes` for a flow at occupancy `q` with threshold `t`, or
  /// returns false and leaves the pools untouched.
  [[nodiscard]] BUFQ_HOT bool admit(std::int64_t q, std::int64_t t, std::int64_t bytes,
                                    bool may_borrow) {
    if (q + bytes <= t) {
      // Below threshold: entitled to space.  Holes first, headroom second.
      const std::int64_t from_holes = std::min(holes, bytes);
      const std::int64_t from_headroom = bytes - from_holes;
      if (from_headroom > headroom) return false;
      holes -= from_holes;
      headroom -= from_headroom;
      return true;
    }
    // Above threshold: holes only, and the excess after admission may not
    // exceed the holes that remain.
    if (!may_borrow || bytes > holes) return false;
    if (q + bytes - t > holes - bytes) return false;
    holes -= bytes;
    return true;
  }

  /// Returns `bytes` of a departing packet: headroom first, up to its cap.
  BUFQ_HOT void release(std::int64_t bytes) {
    headroom += bytes;
    holes += std::max<std::int64_t>(headroom - cap, 0);
    headroom = std::min(headroom, cap);
  }

  /// Audits the pool discipline against the buffer's live occupancy: both
  /// pools within bounds and, with `total`, exactly tiling `capacity`.
  void check_pools(FlowId flow, Time now, std::int64_t total, std::int64_t capacity) const {
    BUFQ_CHECK(holes >= 0, check::Invariant::kSharingPools, flow, now,
               static_cast<double>(holes), 0.0, "sharing holes went negative");
    BUFQ_CHECK(headroom >= 0 && headroom <= cap, check::Invariant::kSharingPools, flow, now,
               static_cast<double>(headroom), static_cast<double>(cap),
               "sharing headroom outside [0, H]");
    BUFQ_CHECK(holes + headroom + total == capacity, check::Invariant::kSharingPools, flow, now,
               static_cast<double>(holes + headroom + total), static_cast<double>(capacity),
               "holes + headroom + occupancy no longer tile the buffer");
    static_cast<void>(flow);
    static_cast<void>(now);
    static_cast<void>(total);
    static_cast<void>(capacity);
  }
};

}  // namespace bufq
