#include "core/scheme.h"

#include <array>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/dynamic_threshold.h"
#include "core/red.h"
#include "core/threshold.h"
#include "sched/fifo.h"
#include "sched/wfq.h"
#include "util/rng.h"

namespace bufq {
namespace {

// Indexed by enumerator value.
constexpr std::array<const char*, 3> kSchedulerNames{"fifo", "wfq", "hybrid"};
constexpr std::array<const char*, 7> kManagerNames{"none", "threshold", "sharing", "selective",
                                                   "dt",   "red",       "fred"};
static_assert(kSchedulerNames.size() == static_cast<std::size_t>(SchedulerKind::kHybrid) + 1);
static_assert(kManagerNames.size() == static_cast<std::size_t>(ManagerKind::kFred) + 1);

template <typename Kind, std::size_t N>
Kind parse_name(const std::array<const char*, N>& names, std::string_view name, const char* axis) {
  std::string valid;
  for (std::size_t i = 0; i < N; ++i) {
    if (name == names[i]) return static_cast<Kind>(i);
    valid += i == 0 ? "" : " | ";
    valid += names[i];
  }
  throw std::invalid_argument("unknown " + std::string{axis} + " '" + std::string{name} +
                              "' (valid: " + valid + ")");
}

RedParams red_params(const SchemeConfig& scheme, ByteSize buffer) {
  const auto b = static_cast<double>(buffer.count());
  return RedParams{.weight = 0.002,
                   .min_threshold = static_cast<std::int64_t>(b * scheme.red_min_fraction),
                   .max_threshold = static_cast<std::int64_t>(b * scheme.red_max_fraction),
                   .max_p = scheme.red_max_p};
}

}  // namespace

const char* to_string(SchedulerKind kind) {
  return kSchedulerNames.at(static_cast<std::size_t>(kind));
}
const char* to_string(ManagerKind kind) { return kManagerNames.at(static_cast<std::size_t>(kind)); }

SchedulerKind parse_scheduler(std::string_view name) {
  return parse_name<SchedulerKind>(kSchedulerNames, name, "scheduler");
}
ManagerKind parse_manager(std::string_view name) {
  return parse_name<ManagerKind>(kManagerNames, name, "manager");
}

std::unique_ptr<BufferManager> make_manager(const SchemeConfig& scheme, ByteSize buffer,
                                            std::vector<std::int64_t> thresholds,
                                            std::uint64_t rng_seed, std::int64_t packet_bytes) {
  const std::size_t n = thresholds.size();
  switch (scheme.manager) {
    case ManagerKind::kNone:
      return std::make_unique<TailDropManager>(buffer, n);
    case ManagerKind::kThreshold:
      return std::make_unique<ThresholdManager>(buffer, std::move(thresholds));
    case ManagerKind::kSharing:
      return std::make_unique<BufferSharingManager>(buffer, std::move(thresholds),
                                                    scheme.headroom);
    case ManagerKind::kSelectiveSharing:
      if (scheme.sharing_classes.size() != n) {
        throw std::invalid_argument("selective sharing needs one sharing class per flow: got " +
                                    std::to_string(scheme.sharing_classes.size()) + " for " +
                                    std::to_string(n) + " flows");
      }
      return std::make_unique<BufferSharingManager>(buffer, std::move(thresholds),
                                                    scheme.sharing_classes, scheme.headroom);
    case ManagerKind::kDynamicThreshold:
      return std::make_unique<DynamicThresholdManager>(buffer, n, scheme.dt_alpha);
    case ManagerKind::kRed:
      return std::make_unique<RedManager>(buffer, n, red_params(scheme, buffer), Rng{rng_seed});
    case ManagerKind::kFred:
      return std::make_unique<FredManager>(
          buffer, n,
          FredParams{.red = red_params(scheme, buffer),
                     .min_q = 2 * packet_bytes,
                     .strike_limit = 1},
          Rng{rng_seed});
  }
  throw std::invalid_argument("unknown manager kind");
}

std::unique_ptr<QueueDiscipline> make_discipline(SchedulerKind scheduler, BufferManager& manager,
                                                 Rate link_rate,
                                                 const std::vector<double>& weights) {
  if (scheduler == SchedulerKind::kHybrid) {
    throw std::invalid_argument("the hybrid scheduler is built by HybridBuilder");
  }
  if (scheduler == SchedulerKind::kWfq) {
    return std::make_unique<WfqScheduler>(manager, link_rate, weights);
  }
  return std::make_unique<FifoScheduler>(manager);
}

}  // namespace bufq
