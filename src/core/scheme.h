// One scheme vocabulary: every experiment is a point of SchedulerKind x
// ManagerKind, spelled once here with its command-line names and the
// factories that build it.  The single-link pipeline, the fabric and the
// CLIs all share it; the Section 4 hybrid is assembled by HybridBuilder
// (sched/hybrid.h), which owns the Prop-3 split.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/buffer_manager.h"
#include "core/sharing.h"
#include "sim/packet.h"
#include "sim/queue_discipline.h"
#include "util/units.h"

namespace bufq {

enum class SchedulerKind {
  kFifo,    ///< single FIFO queue
  kWfq,     ///< per-flow WFQ, weights = token rates
  kHybrid,  ///< k FIFO queues under WFQ (Section 4)
};

enum class ManagerKind {
  kNone,              ///< shared tail drop ("no buffer management")
  kThreshold,         ///< fixed-partition thresholds (Section 3.2)
  kSharing,           ///< buffer sharing with holes/headroom (Section 3.3)
  kSelectiveSharing,  ///< Section 5 extension: per-flow sharing classes
  kDynamicThreshold,  ///< Choudhury-Hahne DT (the paper's reference [1])
  kRed,               ///< RED (reference [3]) — congestion signaling baseline
  kFred,              ///< Flow RED (reference [5]) — per-flow RED baseline
};

struct SchemeConfig {
  SchedulerKind scheduler{SchedulerKind::kFifo};
  ManagerKind manager{ManagerKind::kThreshold};
  /// Headroom H for the sharing managers (the paper's default is 2 MB).
  ByteSize headroom{ByteSize::megabytes(2.0)};
  /// Flow grouping for SchedulerKind::kHybrid; ignored otherwise.
  std::vector<std::vector<FlowId>> groups{};
  /// Per-flow classes for kSelectiveSharing.  Empty = derive from the
  /// profiles: regulated flows are adaptive, unregulated ones blocked.
  std::vector<SharingClass> sharing_classes{};
  /// DT multiplier for kDynamicThreshold.
  double dt_alpha{1.0};
  /// RED/FRED EWMA thresholds as fractions of the buffer.
  double red_min_fraction{0.25};
  double red_max_fraction{0.75};
  double red_max_p{0.1};
};

/// Command-line names: fifo | wfq | hybrid and none | threshold | sharing |
/// selective | dt | red | fred.  Parsing an unknown name throws
/// std::invalid_argument listing the valid ones.
[[nodiscard]] const char* to_string(SchedulerKind kind);
[[nodiscard]] const char* to_string(ManagerKind kind);
[[nodiscard]] SchedulerKind parse_scheduler(std::string_view name);
[[nodiscard]] ManagerKind parse_manager(std::string_view name);

/// Builds `scheme.manager` over `buffer`, one flow per threshold (only the
/// threshold and sharing managers admit against them).  kSelectiveSharing
/// takes one class per flow from `scheme.sharing_classes`; `rng_seed`
/// seeds the RED/FRED drop coin and FRED's minimum is two `packet_bytes`.
[[nodiscard]] std::unique_ptr<BufferManager> make_manager(
    const SchemeConfig& scheme, ByteSize buffer, std::vector<std::int64_t> thresholds,
    std::uint64_t rng_seed = 0, std::int64_t packet_bytes = 500);

/// FIFO, or per-flow WFQ at `link_rate` with one weight per flow, in front
/// of `manager`.  kHybrid throws: HybridBuilder builds that one.
[[nodiscard]] std::unique_ptr<QueueDiscipline> make_discipline(
    SchedulerKind scheduler, BufferManager& manager, Rate link_rate,
    const std::vector<double>& weights);

}  // namespace bufq
