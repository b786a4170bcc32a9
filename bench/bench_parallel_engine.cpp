// Parallel fabric engine throughput: serial vs sharded on one dense
// leaf-spine (8 leaves + 8 spines, 8 hosts per leaf), the tentpole
// target of the sharded-PDES work.  Each configuration runs the exact
// same scenario; the bench times every run by its own sim.wall_ns /
// sim.events counters, verifies the sharded results are bit-identical
// to serial (per-flow counters + egress audit digest + event count —
// any mismatch is a hard failure), and reports
//
//     events_per_sec            serial engine event throughput
//     events_per_sec_shardsN    sharded throughput at N shards
//     speedup_shardsN           serial wall / sharded wall
//     hardware_threads          std::thread::hardware_concurrency()
//
// hardware_threads is recorded so the perf floor (scripts/
// check_perf_floor.py) can gate speedups only on machines with enough
// cores to express them: on a single-core container every speedup is
// ~1x by construction and only the throughput sanity floor applies.
//
// Flags:
//   --warmup=SECS        transient discarded (default 0.25)
//   --duration=SECS      measured interval (default 1.0)
//   --seed=S             scenario seed (default 1)
//   --link-mbps=R        uniform link rate (default 480)
//   --shards-list=a,b,c  shard counts to time (default 2,4,8)
//   --min-speedup=X      exit 1 unless the best speedup reaches X
//                        (default 0 = no gate; CI sets it on multi-core
//                        runners only)
//   --metrics-out=PATH   write the BENCH_parallel_engine.json artifact
#include <cstdint>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "expt/experiment.h"
#include "fabric/scenario.h"
#include "obs/export.h"
#include "util/flags.h"

namespace {

using namespace bufq;
using namespace bufq::fabric;

struct Sample {
  ExperimentResult result;
  double wall_s{0.0};
  std::uint64_t events{0};
};

std::uint64_t counter_or_zero(const ExperimentResult& r, const char* name) {
  const auto it = r.metrics.counters.find(name);
  return it == r.metrics.counters.end() ? 0u : it->second;
}

Sample run_once(const FabricConfig& config) {
  Sample s;
  s.result = run_fabric_experiment(config);
  s.events = counter_or_zero(s.result, "sim.events");
  s.wall_s = static_cast<double>(counter_or_zero(s.result, "sim.wall_ns")) * 1e-9;
  return s;
}

/// The contract fields a sharded run must reproduce exactly.  The full
/// comparison lives in tests/parallel_diff_test.cpp; the bench re-checks
/// the cheap core so a perf artifact can never come from a divergent run.
bool identical(const Sample& serial, const Sample& sharded) {
  if (serial.result.per_flow.size() != sharded.result.per_flow.size()) return false;
  for (std::size_t f = 0; f < serial.result.per_flow.size(); ++f) {
    const auto& a = serial.result.per_flow[f];
    const auto& b = sharded.result.per_flow[f];
    if (a.offered_bytes != b.offered_bytes || a.delivered_bytes != b.delivered_bytes ||
        a.dropped_bytes != b.dropped_bytes || a.offered_packets != b.offered_packets ||
        a.delivered_packets != b.delivered_packets ||
        a.dropped_packets != b.dropped_packets) {
      return false;
    }
  }
  return serial.events == sharded.events &&
         counter_or_zero(serial.result, "fabric.egress_audit") ==
             counter_or_zero(sharded.result, "fabric.egress_audit");
}

std::vector<int> parse_shards(const std::string& csv) {
  std::vector<int> shards;
  std::stringstream stream{csv};
  std::string item;
  while (std::getline(stream, item, ',')) shards.push_back(std::stoi(item));
  return shards;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags{argc, argv};
  const Time warmup = Time::from_seconds(flags.get_double("warmup", 0.25));
  const Time duration = Time::from_seconds(flags.get_double("duration", 1.0));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double link_mbps = flags.get_double("link-mbps", 480.0);
  const std::vector<int> shard_counts =
      parse_shards(flags.get_string("shards-list", "2,4,8"));
  const double min_speedup = flags.get_double("min-speedup", 0.0);
  const std::string metrics_out = flags.get_string("metrics-out", "");
  if (const auto unused = flags.unused(); !unused.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unused.front().c_str());
    return 2;
  }

  FabricConfig config;
  config.topology = FabricTopologyKind::kLeafSpine;
  config.size = 8;
  config.hosts_per_leaf = 8;
  config.scheme.manager = ManagerKind::kThreshold;
  config.link_rate = Rate::megabits_per_second(link_mbps);
  config.load = 1.0;
  config.warmup = warmup;
  config.duration = duration;
  config.seed = seed;
  config.record_delays = false;

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::printf("# bench_parallel_engine: leaf_spine size=8 hosts_per_leaf=8"
              " link=%gMbps warmup=%gs duration=%gs seed=%llu\n",
              link_mbps, warmup.to_seconds(), duration.to_seconds(),
              static_cast<unsigned long long>(seed));
  std::printf("# hardware_threads=%u\n", hardware_threads);
  std::printf("shards,events,wall_s,events_per_sec,speedup\n");

  const Sample serial = run_once(config);
  if (serial.wall_s <= 0.0 || serial.events == 0) {
    std::fprintf(stderr, "error: serial run recorded no events/wall time\n");
    return 1;
  }
  const double serial_eps = static_cast<double>(serial.events) / serial.wall_s;
  std::printf("1,%llu,%.6f,%.0f,1.00\n",
              static_cast<unsigned long long>(serial.events), serial.wall_s, serial_eps);

  obs::BenchReport report;
  report.bench = "bench_parallel_engine";
  report.snapshot = serial.result.metrics;
  report.derived["events_per_sec"] = serial_eps;
  report.derived["hardware_threads"] = static_cast<double>(hardware_threads);

  double best_speedup = 0.0;
  for (const int shards : shard_counts) {
    FabricConfig sharded_config = config;
    sharded_config.shards = shards;
    const Sample sharded = run_once(sharded_config);
    if (counter_or_zero(sharded.result, "parallel.serial_fallback") != 0) {
      std::fprintf(stderr, "error: --shards=%d fell back to serial (partition not viable)\n",
                   shards);
      return 1;
    }
    if (!identical(serial, sharded)) {
      std::fprintf(stderr,
                   "error: --shards=%d diverged from serial (determinism violation)\n",
                   shards);
      return 1;
    }
    const double wall = sharded.wall_s > 0.0 ? sharded.wall_s : 1e-9;
    const double speedup = serial.wall_s / wall;
    best_speedup = speedup > best_speedup ? speedup : best_speedup;
    const std::string suffix = "_shards" + std::to_string(shards);
    report.derived["events_per_sec" + suffix] = static_cast<double>(sharded.events) / wall;
    report.derived["speedup" + suffix] = speedup;
    std::printf("%d,%llu,%.6f,%.0f,%.2f\n", shards,
                static_cast<unsigned long long>(sharded.events), sharded.wall_s,
                static_cast<double>(sharded.events) / wall, speedup);
  }

  if (!metrics_out.empty()) {
    try {
      obs::write_bench_json_file(metrics_out, report);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", metrics_out.c_str());
  }

  if (min_speedup > 0.0 && best_speedup < min_speedup) {
    std::fprintf(stderr, "error: best speedup %.2f below required %.2f\n", best_speedup,
                 min_speedup);
    return 1;
  }
  return 0;
}
