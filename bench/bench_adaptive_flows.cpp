// Adaptive (AIMD) traffic under different buffer-management schemes — the
// operational question behind the paper's Section 5 proposal: which
// manager lets congestion-responsive flows use idle capacity without
// letting non-adaptive blasters take over?
//
// Four AIMD flows (reservation 4 Mb/s each) share the link with two
// non-adaptive greedy flows (reservation 2 Mb/s each); total reservation
// 20 of 48 Mb/s.  For each manager we report the adaptive and
// non-adaptive goodput and the adaptive flows' loss (which AIMD pays for
// with rate collapses).
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "common.h"
#include "core/scheme.h"
#include "core/threshold.h"
#include "obs/metrics.h"
#include "sched/fifo.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "traffic/aimd.h"
#include "traffic/sources.h"
#include "util/csv.h"

namespace {

using namespace bufq;
using namespace bufq::bench;

constexpr std::size_t kAdaptive = 4;
constexpr std::size_t kBlasters = 2;
constexpr std::size_t kFlows = kAdaptive + kBlasters;
constexpr std::int64_t kPkt = 500;

std::unique_ptr<BufferManager> build_manager(ManagerKind kind, ByteSize buffer, Rate link,
                                             std::uint64_t seed) {
  // Adaptive flows reserve 4 Mb/s each, blasters 2 Mb/s.
  std::vector<FlowSpec> specs(kFlows, {Rate::megabits_per_second(4.0), ByteSize::kilobytes(20.0)});
  specs[4].rho = specs[5].rho = Rate::megabits_per_second(2.0);
  SchemeConfig scheme{.manager = kind, .headroom = ByteSize::kilobytes(100.0)};
  // selective: adaptive flows may borrow, blasters may not.
  scheme.sharing_classes.assign(kFlows, SharingClass::kAdaptive);
  scheme.sharing_classes[4] = scheme.sharing_classes[5] = SharingClass::kBlocked;
  return make_manager(scheme, buffer,
                      compute_thresholds(specs, buffer, link,
                                         kind == ManagerKind::kThreshold
                                             ? ThresholdScaling::kScaleToFill
                                             : ThresholdScaling::kExact),
                      seed);
}

/// One run of the AIMD pipeline.  per_flow carries each flow's bytes
/// delivered over the measured interval and its bytes dropped over the
/// whole run, warmup included: AIMD pays for every loss with a rate
/// collapse.
ExperimentResult run_once(ManagerKind kind, ByteSize buffer, Time warmup, Time duration,
                          std::uint64_t seed) {
  obs::ScopedMetrics run_metrics;
  const Rate link_rate = paper_link_rate();
  Simulator sim;
  auto manager = build_manager(kind, buffer, link_rate, seed ^ 0xA1Dull);
  FifoScheduler fifo{*manager};
  Link link{sim, fifo, link_rate};

  std::vector<std::unique_ptr<AimdSource>> adaptive;
  for (std::size_t f = 0; f < kAdaptive; ++f) {
    adaptive.push_back(std::make_unique<AimdSource>(
        sim, link,
        AimdSource::Params{
            .flow = static_cast<FlowId>(f),
            .initial_rate = Rate::megabits_per_second(4.0),
            .floor_rate = Rate::megabits_per_second(1.0),
            .ceiling_rate = Rate::megabits_per_second(48.0),
            .additive_increase = Rate::megabits_per_second(0.4),
            .multiplicative_decrease = 0.5,
            .rtt = Time::milliseconds(20 + 3 * static_cast<std::int64_t>(f)),
            .packet_bytes = kPkt,
        }));
  }
  std::vector<std::unique_ptr<GreedySource>> blasters;
  for (std::size_t f = kAdaptive; f < kFlows; ++f) {
    blasters.push_back(std::make_unique<GreedySource>(
        sim, link, static_cast<FlowId>(f), Rate::megabits_per_second(30.0), kPkt));
  }

  ExperimentResult result;
  result.per_flow.resize(kFlows);
  result.interval = duration;
  fifo.set_drop_handler([&](const Packet& p, Time) {
    const auto f = static_cast<std::size_t>(p.flow);
    result.per_flow[f].dropped_bytes += p.size_bytes;
    if (f < kAdaptive) adaptive[f]->on_loss();
  });
  link.set_delivery_handler([&](const Packet& p, Time t) {
    if (t < warmup) return;
    result.per_flow[static_cast<std::size_t>(p.flow)].delivered_bytes += p.size_bytes;
  });

  for (auto& s : adaptive) s->start();
  for (auto& s : blasters) s->start();
  sim.run_until(warmup + duration);
  result.metrics = run_metrics.registry().snapshot();
  return result;
}

std::map<std::string, double> adaptive_metrics(const ExperimentResult& r) {
  double adaptive_mbps = 0.0, blaster_mbps = 0.0, adaptive_dropped = 0.0;
  for (std::size_t f = 0; f < kFlows; ++f) {
    const double mbps = r.flow_throughput_mbps(static_cast<FlowId>(f));
    if (f < kAdaptive) {
      adaptive_mbps += mbps;
      adaptive_dropped += static_cast<double>(r.per_flow[f].dropped_bytes);
    } else {
      blaster_mbps += mbps;
    }
  }
  return {
      {"adaptive_mbps", adaptive_mbps},
      {"blaster_mbps", blaster_mbps},
      {"adaptive_dropped_kb", adaptive_dropped * 1e-3},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse_options(argc, argv, {0.25, 0.5, 1.0});

  FigureSweep sweep;
  sweep.name = "Adaptive traffic";
  sweep.what = "4 AIMD flows (16 Mb/s reserved) vs 2 greedy blasters (4 Mb/s reserved)";
  sweep.columns = {"buffer_mb", "manager", "adaptive_mbps", "blaster_mbps",
                   "adaptive_dropped_kb"};
  for (double buffer_mb : options.buffers_mb) {
    for (const auto& [label, kind] :
         {std::pair{"tail-drop", ManagerKind::kNone}, std::pair{"red", ManagerKind::kRed},
          std::pair{"thresholds", ManagerKind::kThreshold},
          std::pair{"sharing", ManagerKind::kSharing},
          std::pair{"selective", ManagerKind::kSelectiveSharing}}) {
      SweepCase c;
      c.label = label;
      c.params = {{"buffer_mb", format_double(buffer_mb)}};
      c.runner = [kind, buffer = ByteSize::megabytes(buffer_mb), warmup = options.warmup,
                  duration = options.duration](std::uint64_t seed) {
        return run_once(kind, buffer, warmup, duration, seed);
      };
      sweep.cases.push_back(std::move(c));
    }
  }
  sweep.extract = adaptive_metrics;
  sweep.format_row = [](const SweepRow& row) {
    return std::vector<std::string>{row.params[0].second, row.label,
                                    format_double(summary_of(row, "adaptive_mbps").mean),
                                    format_double(summary_of(row, "blaster_mbps").mean),
                                    format_double(summary_of(row, "adaptive_dropped_kb").mean)};
  };

  const int rc = run_bench_sweep(std::move(sweep), options);
  if (rc == 0) {
    std::cout << "\n# adaptive flows are entitled to 16 Mb/s plus a fair slice of the\n"
                 "# ~28 Mb/s of unreserved capacity; blasters are entitled to 4 Mb/s.\n";
  }
  return rc;
}
