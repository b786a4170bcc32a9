#include "core/threshold.h"

#include <cassert>
#include <cmath>
#include <numeric>

#include "check/invariants.h"
#include "core/admit_policy.h"
#include "util/annotations.h"

namespace bufq {

std::vector<std::int64_t> compute_thresholds(const std::vector<FlowSpec>& flows, ByteSize buffer,
                                             Rate link_rate, ThresholdScaling scaling) {
  assert(link_rate.bps() > 0.0);
  std::vector<std::int64_t> thresholds;
  thresholds.reserve(flows.size());
  const double buffer_bytes = static_cast<double>(buffer.count());
  for (const auto& flow : flows) {
    thresholds.push_back(
        static_cast<std::int64_t>(std::llround(prop2_threshold(flow, buffer_bytes, link_rate))));
  }
  if (scaling == ThresholdScaling::kScaleToFill) {
    const std::int64_t sum = std::accumulate(thresholds.begin(), thresholds.end(),
                                             static_cast<std::int64_t>(0));
    if (sum > 0 && sum < buffer.count()) {
      const double scale = buffer_bytes / static_cast<double>(sum);
      for (auto& t : thresholds) {
        t = static_cast<std::int64_t>(std::llround(static_cast<double>(t) * scale));
      }
    }
  }
  return thresholds;
}

ThresholdManager::ThresholdManager(ByteSize capacity, Rate link_rate,
                                   const std::vector<FlowSpec>& flows, ThresholdScaling scaling)
    : AccountingBufferManager{capacity, flows.size()},
      thresholds_{compute_thresholds(flows, capacity, link_rate, scaling)} {}

ThresholdManager::ThresholdManager(ByteSize capacity, std::vector<std::int64_t> thresholds)
    : AccountingBufferManager{capacity, thresholds.size()}, thresholds_{std::move(thresholds)} {}

std::int64_t ThresholdManager::threshold(FlowId flow) const {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < thresholds_.size());
  return thresholds_[static_cast<std::size_t>(flow)];
}

BUFQ_HOT bool ThresholdManager::try_admit(FlowId flow, std::int64_t bytes, Time now) {
  if (!threshold_admits(occupancy(flow), threshold(flow), total_occupancy(), capacity().count(),
                        bytes)) {
    return false;
  }
  account_admit(flow, bytes, now);
  BUFQ_CHECK(occupancy(flow) <= threshold(flow), check::Invariant::kFlowBound, flow, now,
             static_cast<double>(occupancy(flow)), static_cast<double>(threshold(flow)),
             "fixed-partition admit left flow above its Prop-2 threshold");
  return true;
}

BUFQ_HOT void ThresholdManager::release(FlowId flow, std::int64_t bytes, Time now) {
  account_release(flow, bytes, now);
}

}  // namespace bufq
