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
#include <vector>

#include "common.h"
#include "core/scheme.h"
#include "core/threshold.h"
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

std::map<std::string, double> run_once(ManagerKind kind, ByteSize buffer,
                                       const BenchOptions& options, std::uint64_t seed) {
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

  std::vector<std::int64_t> delivered(kFlows, 0);
  std::vector<std::int64_t> dropped(kFlows, 0);
  fifo.set_drop_handler([&](const Packet& p, Time) {
    dropped[static_cast<std::size_t>(p.flow)] += p.size_bytes;
    if (static_cast<std::size_t>(p.flow) < kAdaptive) {
      adaptive[static_cast<std::size_t>(p.flow)]->on_loss();
    }
  });
  link.set_delivery_handler([&](const Packet& p, Time t) {
    if (t >= options.warmup) delivered[static_cast<std::size_t>(p.flow)] += p.size_bytes;
  });

  for (auto& s : adaptive) s->start();
  for (auto& s : blasters) s->start();
  sim.run_until(options.warmup + options.duration);

  const double secs = options.duration.to_seconds();
  double adaptive_mbps = 0.0, blaster_mbps = 0.0, adaptive_dropped = 0.0;
  for (std::size_t f = 0; f < kFlows; ++f) {
    const double mbps = static_cast<double>(delivered[f]) * 8.0 / secs * 1e-6;
    if (f < kAdaptive) {
      adaptive_mbps += mbps;
      adaptive_dropped += static_cast<double>(dropped[f]);
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
  print_banner(std::cout, "Adaptive traffic",
               "4 AIMD flows (16 Mb/s reserved) vs 2 greedy blasters (4 Mb/s reserved)",
               options);

  CsvWriter csv{std::cout, {"buffer_mb", "manager", "adaptive_mbps", "blaster_mbps",
                            "adaptive_dropped_kb"}};
  for (double buffer_mb : options.buffers_mb) {
    for (const auto& [label, kind] :
         {std::pair{"tail-drop", ManagerKind::kNone}, std::pair{"red", ManagerKind::kRed},
          std::pair{"thresholds", ManagerKind::kThreshold},
          std::pair{"sharing", ManagerKind::kSharing},
          std::pair{"selective", ManagerKind::kSelectiveSharing}}) {
      ReplicationRunner runner{options.base_seed, options.seeds};
      const auto metrics = runner.run([&](std::uint64_t seed) {
        return run_once(kind, ByteSize::megabytes(buffer_mb), options, seed);
      });
      csv.row({format_double(buffer_mb), label,
               format_double(metrics.at("adaptive_mbps").mean),
               format_double(metrics.at("blaster_mbps").mean),
               format_double(metrics.at("adaptive_dropped_kb").mean)});
    }
  }
  std::cout << "\n# adaptive flows are entitled to 16 Mb/s plus a fair slice of the\n"
               "# ~28 Mb/s of unreserved capacity; blasters are entitled to 4 Mb/s.\n";
  return 0;
}
