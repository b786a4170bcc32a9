#include "expt/churn_experiment.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <vector>

#include "admission/dynamic_manager.h"
#include "admission/flow_table.h"
#include "core/scheme.h"
#include "sched/wfq.h"
#include "sim/inline_action.h"
#include "sim/link.h"
#include "sim/simulator.h"

namespace bufq {

ChurnResult run_churn_experiment(const ChurnConfig& config) {
  using admission::Scheme;
  if (config.scheme == Scheme::kHybrid) {
    throw std::invalid_argument(
        "churn runs fifo+thresholds, fifo+sharing or wfq, not the hybrid scheme");
  }
  assert(!config.churn.mix.empty());
  assert(config.duration > Time::zero());
  assert(config.max_flows > 0);

  const bool sharing = config.scheme == Scheme::kFifoSharing;
  const ByteSize headroom = sharing ? config.headroom : ByteSize::zero();

  Simulator sim;
  admission::FlowTable table{config.max_flows};
  admission::AdmissionController controller{{
      .scheme = config.scheme,
      .link_rate = config.link_rate,
      .buffer = config.buffer,
      .headroom = headroom,
  }};

  // Per-packet manager: WFQ gets sigma-sized private allocations (its
  // thresholds are the controller's sigma thresholds), the FIFO schemes
  // get Prop-2 thresholds with or without the sharing pools.
  admission::DynamicBufferManager manager{
      config.buffer, table,
      sharing ? admission::DynamicBufferManager::Policy::kSharing
              : admission::DynamicBufferManager::Policy::kThreshold,
      headroom};

  // WFQ gets one class per table slot; weights are rebound as slots are
  // recycled.
  const std::unique_ptr<QueueDiscipline> discipline =
      make_discipline(config.scheme == Scheme::kWfq ? SchedulerKind::kWfq : SchedulerKind::kFifo,
                      manager, config.link_rate, std::vector<double>(config.max_flows, 1.0));
  auto* const wfq = dynamic_cast<WfqScheduler*>(discipline.get());

  Link link{sim, *discipline, config.link_rate};
  StatsCollector stats{config.max_flows};
  link.set_delivery_handler([&](const Packet& p, Time t) { stats.on_delivered(p, t); });
  OfferedTrafficTap tap{stats, link};

  auto churn = config.churn;
  churn.max_concurrent = std::min(churn.max_concurrent, config.max_flows);
  Rng master{config.seed};
  admission::ChurnDriver driver{sim, controller, table, tap, churn, master.fork(0)};
  if (wfq != nullptr) {
    driver.set_admit_hook([wfq](FlowId slot, const TrafficProfile& profile) {
      wfq->set_class_weight(static_cast<std::size_t>(slot), profile.token_rate.bps());
    });
  }
  discipline->set_drop_handler([&](const Packet& p, Time t) {
    stats.on_dropped(p, t);
    driver.record_drop(p, t);
  });

  driver.start();

  std::vector<FlowCounters> at_warmup;
  const auto snap_warmup = [&] { at_warmup = stats.snapshot(); };
  static_assert(InlineAction::stores_inline<decltype(snap_warmup)>,
                "warmup snapshot event must not allocate");
  sim.at(config.warmup, snap_warmup);
  sim.run_until(config.warmup + config.duration);

  ChurnResult result;
  result.counters = driver.counters();
  result.traffic = StatsCollector::total_delta(at_warmup, stats.snapshot());
  result.interval = config.duration;
  result.blocking_probability = driver.counters().blocking_probability();
  result.utilization = static_cast<double>(result.traffic.delivered_bytes) * 8.0 /
                       (config.link_rate.bps() * config.duration.to_seconds());
  result.mean_active_flows = driver.mean_active_flows();
  result.mean_reserved_utilization = driver.mean_reserved_utilization();
  result.active_at_end = table.active_count();
  return result;
}

}  // namespace bufq
