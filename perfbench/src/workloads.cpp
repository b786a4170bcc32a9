#include "workloads.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "expt/figures.h"
#include "expt/sweep.h"
#include "expt/workloads.h"
#include "fabric/parallel_engine.h"
#include "fabric/scenario.h"
#include "fabric/shard_plan.h"
#include "layers.h"
#include "util/rng.h"

namespace perfbench {

using namespace bufq;

namespace {

/// Samples of the per-layer set-up probes (fabric build, shard plan).
constexpr int kSetupSamples = 15;
/// Calendar depths of the hold-model ladder, with their metric suffixes.
constexpr std::pair<std::size_t, const char*> kHoldDepths[] = {
    {64, "d64"}, {1024, "d1k"}, {16384, "d16k"}, {262144, "d256k"}};
/// Resident flows of the admission probe: the paper's scale.
constexpr std::size_t kMillionFlows = 1'000'000;

std::uint64_t counter(const obs::RegistrySnapshot& m, const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

bool same_counters(const std::vector<FlowCounters>& a, const std::vector<FlowCounters>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t f = 0; f < a.size(); ++f) {
    if (a[f].offered_bytes != b[f].offered_bytes || a[f].delivered_bytes != b[f].delivered_bytes ||
        a[f].dropped_bytes != b[f].dropped_bytes || a[f].offered_packets != b[f].offered_packets ||
        a[f].delivered_packets != b[f].delivered_packets ||
        a[f].dropped_packets != b[f].dropped_packets) {
      return false;
    }
  }
  return true;
}

/// Packet conservation over a run: offered = delivered + dropped + what
/// is still in flight at the end, and in flight is at most `in_flight`
/// bytes.
bool conserves(const std::vector<FlowCounters>& flows, std::int64_t in_flight) {
  std::int64_t gap = 0;
  for (const auto& c : flows) {
    const std::int64_t g = c.offered_bytes - c.delivered_bytes - c.dropped_bytes;
    if (g < 0) return false;
    gap += g;
  }
  return gap <= in_flight;
}

std::uint64_t offered_packets(const std::vector<FlowCounters>& flows) {
  std::uint64_t n = 0;
  for (const auto& c : flows) n += c.offered_packets;
  return n;
}

std::uint64_t delivered_packets(const std::vector<FlowCounters>& flows) {
  std::uint64_t n = 0;
  for (const auto& c : flows) n += c.delivered_packets;
  return n;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Wall seconds of one call of `construct`, timed over `batch`
/// consecutive calls, so that a construction of microseconds is still
/// timed over milliseconds.
double time_setup(const std::function<void()>& construct, int batch) {
  const std::int64_t start = now_ns();
  for (int b = 0; b < batch; ++b) construct();
  return seconds_since(start) / batch;
}

/// Median of kSetupSamples time_setup samples.
double median_setup_s(const std::function<void()>& construct, int batch) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupSamples; ++i) samples.push_back(time_setup(construct, batch));
  return median(samples);
}

/// A timed run is kRounds rounds of whole request cycles, each lasting
/// --seconds / kRounds and at least kMinRequests requests.
constexpr int kRounds = 8;
constexpr std::size_t kMinRequests = 100;
/// The rounds a run reports: its fastest quarter, at least 200 requests,
/// so that run_ms_p90 always has at least twenty samples beyond it.
constexpr int kReportedRounds = 2;
/// Set-up samples in one burst.  A burst runs before every round and once
/// after the last, never inside a round.
constexpr int kSetupBurst = 7;

/// What every untraced run reports.  `setup` performs one set-up sample
/// (leaving the workload set up) and returns its seconds per
/// construction.
///
/// The host's slow spells last from seconds to minutes and slow every
/// request in them alike, by up to 1.8x, so a run reports its fastest
/// stretch.  packets_per_s, run_ms_p50 and run_ms_p90 all come from the
/// kReportedRounds rounds with the most packets per second; every round
/// runs the same whole cycles, so those rounds still cover the full
/// request mix.  setup_s is the median of the fastest burst.
class EndToEnd {
 public:
  EndToEnd(std::function<double()> setup, const Options& options)
      : setup_{std::move(setup)}, options_{options} {
    take_setup_burst();
  }

  /// Runs `cycle`, which calls record() once per request, in kRounds
  /// rounds; then reports every metric into `out`.
  void run(const std::function<void()>& cycle, Result& out) {
    for (int r = 0; r < kRounds; ++r) {
      if (r > 0) take_setup_burst();
      rounds_.emplace_back();
      const std::int64_t start = now_ns();
      do {
        cycle();
      } while (seconds_since(start) < options_.seconds / kRounds ||
               (!options_.smoke && rounds_.back().request_ms.size() < kMinRequests));
    }
    take_setup_burst();
    std::sort(rounds_.begin(), rounds_.end(), [](const Round& a, const Round& b) {
      return a.packets_per_s() > b.packets_per_s();
    });
    Round fastest;
    for (int r = 0; r < kReportedRounds; ++r) {
      const Round& round = rounds_[r];
      fastest.request_ms.insert(fastest.request_ms.end(), round.request_ms.begin(),
                                round.request_ms.end());
      fastest.packets += round.packets;
      fastest.wall_s += round.wall_s;
    }
    const auto n = static_cast<std::uint64_t>(fastest.request_ms.size());
    out.metrics.push_back({"setup_s", *std::min_element(setup_s_.begin(), setup_s_.end()), "s",
                           static_cast<std::uint64_t>(kSetupBurst * setup_s_.size())});
    out.metrics.push_back({"packets_per_s", fastest.packets_per_s(), "packets/s", n});
    out.metrics.push_back({"run_ms_p50", quantile(fastest.request_ms, 0.5), "ms", n});
    out.metrics.push_back({"run_ms_p90", quantile(fastest.request_ms, 0.9), "ms", n});
    out.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB", 1});
  }

  void record(double request_s, std::uint64_t request_packets) {
    Round& round = rounds_.back();
    round.request_ms.push_back(request_s * 1e3);
    round.packets += request_packets;
    round.wall_s += request_s;
  }

 private:
  struct Round {
    std::vector<double> request_ms;
    std::uint64_t packets{0};
    double wall_s{0.0};
    [[nodiscard]] double packets_per_s() const { return static_cast<double>(packets) / wall_s; }
  };

  /// Appends the median of one burst of set-up samples to setup_s_.
  void take_setup_burst() {
    std::vector<double> burst;
    for (int i = 0; i < kSetupBurst; ++i) burst.push_back(setup_());
    setup_s_.push_back(median(burst));
  }

  std::function<double()> setup_;
  const Options& options_;
  std::vector<double> setup_s_;  // one median per burst
  std::vector<Round> rounds_;
};

/// Deterministic counters of one pass of a simulation workload.
struct SimTally {
  obs::RegistrySnapshot metrics;
  std::uint64_t offered{0};
  std::uint64_t delivered{0};

  void add(const std::vector<FlowCounters>& flows, const obs::RegistrySnapshot& m) {
    metrics.merge(m);
    offered += offered_packets(flows);
    delivered += delivered_packets(flows);
  }
  [[nodiscard]] std::uint64_t events() const { return counter(metrics, "sim.events"); }
};

/// Everything a traced run measures, whichever workload produced it.
/// Fields a workload does not exercise stay 0.
struct LayerReport {
  SimTally tally;
  std::vector<double> untraced_pass_s;
  std::vector<double> traced_pass_s;
  /// Traced wall time covered by layer spans, and the simulator events
  /// unattributed time is divided by.
  double attributed_s{0.0};
  double unattributed_ops{0.0};
  SpanBook link_book;
  std::uint64_t link_admit_attempts[2]{};  // threshold, sharing
  std::uint64_t link_admit_accepts[2]{};
  double fill_ns_per_flow{0.0};
  double churn_ns_per_decision{0.0};
  double controller_ns_per_op{0.0};
  double check_ns_p50{0.0};
  std::uint64_t fill_samples{0};
  std::uint64_t controller_spans{0};
  std::uint64_t admission_samples{0};
  double build_scenario_s{0.0};
  double shard_plan_s{0.0};
  // Shard coordination, measured on leafspine_deep only; zero on fig_link.
  obs::RegistrySnapshot parallel;
  double cpu_busy_ratio{0.0};
  double speedup_one_cpu{0.0};
  double concurrency_gain{0.0};
  std::uint64_t leg_samples{0};
};

// ------------------------------------------------------------ fig_link

struct GridPoint {
  SweepCase sweep_case;
  std::uint64_t base_seed{0};
};

/// Traffic seeds of each fig_link grid point.  One seed's point offers up
/// to 15% more or less traffic than another's, so a grid with one seed
/// per point would measure its seeds as much as the code.
constexpr int kSeedsPerPoint = 4;

/// The reduced-horizon figure grid on the paper's 48 Mb/s link with the
/// Table-1 flows: FIFO x {none, threshold, sharing}, WFQ x none and
/// hybrid x threshold at a few buffer sizes, each point at kSeedsPerPoint
/// traffic seeds.  No warmup, so a run's counters cover all of its work.
std::vector<GridPoint> fig_link_grid(std::uint64_t seed, bool smoke) {
  const std::vector<double> buffers_mb = smoke ? std::vector<double>{1.0}
                                               : std::vector<double>{0.5, 1.0, 2.0};
  const std::vector<std::pair<std::string, SchemeConfig>> schemes = {
      {"fifo+none", make_scheme(SchedulerKind::kFifo, ManagerKind::kNone)},
      {"fifo+threshold", make_scheme(SchedulerKind::kFifo, ManagerKind::kThreshold)},
      {"fifo+sharing", make_scheme(SchedulerKind::kFifo, ManagerKind::kSharing)},
      {"wfq+none", make_scheme(SchedulerKind::kWfq, ManagerKind::kNone)},
      {"hybrid+threshold",
       make_scheme(SchedulerKind::kHybrid, ManagerKind::kThreshold, ByteSize::megabytes(2.0),
                   case1_groups())},
  };
  const SeedSequence seeds{seed};
  std::vector<GridPoint> grid;
  for (int rep = 0; rep < (smoke ? 1 : kSeedsPerPoint); ++rep) {
    for (double mb : buffers_mb) {
      for (const auto& [label, scheme] : schemes) {
        GridPoint p;
        p.sweep_case.label = label;
        p.sweep_case.params = {{"buffer_mb", std::to_string(mb)}};
        ExperimentConfig& c = p.sweep_case.config;
        c.link_rate = paper_link_rate();
        c.buffer = ByteSize::megabytes(mb);
        c.flows = table1_flows();
        c.scheme = scheme;
        c.warmup = Time::zero();
        c.duration = smoke ? Time::milliseconds(200) : Time::seconds(4);
        c.packet_bytes = kPaperPacketBytes;
        c.record_delays = false;
        p.base_seed = seeds.derive(grid.size());
        grid.push_back(std::move(p));
      }
    }
  }
  return grid;
}

/// One figure-grid request through expt/sweep at jobs=1.
SweepRow run_point(const GridPoint& point) {
  SweepOptions options;
  options.jobs = 1;
  options.base_seed = point.base_seed;
  SweepResult result = run_sweep(
      {point.sweep_case},
      [](const ExperimentResult& r) {
        return std::map<std::string, double>{{"throughput_mbps", r.aggregate_throughput_mbps()}};
      },
      options);
  if (!result.ok()) throw std::runtime_error("fig_link run failed: " + result.rows[0].error);
  return std::move(result.rows[0]);
}

/// Bytes a single link can hold in flight: the buffer, the packet in
/// service, and one packet of slack for the first instant.
std::int64_t link_in_flight(const ExperimentConfig& c) {
  return c.buffer.count() + 2 * c.packet_bytes;
}

bool fig_link_request_ok(const GridPoint& point, const SweepRow& row,
                         const std::vector<FlowCounters>& reference) {
  return same_counters(row.per_flow, reference) &&
         conserves(row.per_flow, link_in_flight(point.sweep_case.config));
}

/// One grid construction takes about 0.8 ms, so a sample takes about
/// 50 ms and each burst of kSetupBurst about a third of a second: long
/// enough to average over the host's sub-second swings in speed.
constexpr int kGridsPerSetupSample = 64;

/// One set-up sample: the work before each run's first event, i.e. the
/// grid, then every point's pipeline (managers, scheduler, link, shapers,
/// sources) built and primed with a 1 ns horizon.
double time_grid_construction(std::uint64_t seed, bool smoke) {
  return time_setup([&] {
    for (const GridPoint& p : fig_link_grid(seed, smoke)) {
      ExperimentConfig c = p.sweep_case.config;
      c.duration = Time::nanoseconds(1);
      c.seed = p.base_seed;
      (void)run_experiment(c);
    }
  }, kGridsPerSetupSample);
}

/// Runs one decorated grid cycle into `report` and returns its wall
/// seconds; `events` gains the cycle's simulator events.  A decorated run
/// must reproduce the untraced run's counters exactly, or the decorators
/// changed behaviour.
double traced_grid_cycle(const std::vector<GridPoint>& grid,
                         const std::vector<SweepRow>& reference, LayerReport& report,
                         Result& out, double& events) {
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ExperimentConfig c = grid[i].sweep_case.config;
    c.seed = reference[i].seeds.at(0);
    const LinkTrace t = run_traced_link(c, report.link_book);
    ++out.attempted;
    if (!same_counters(t.per_flow, reference[i].per_flow)) ++out.failed;
    const auto m = c.scheme.manager;
    if (m == ManagerKind::kThreshold || m == ManagerKind::kSharing) {
      const int k = m == ManagerKind::kThreshold ? 0 : 1;
      report.link_admit_attempts[k] += t.admit_attempts;
      report.link_admit_accepts[k] += t.admit_accepts;
    }
    events += static_cast<double>(counter(t.metrics, "sim.events"));
  }
  return seconds_since(start);
}

Result fig_link(const Options& options, LayerReport* report) {
  Result out;
  EndToEnd e2e{[&] { return time_grid_construction(options.seed, options.smoke); }, options};
  const std::vector<GridPoint> grid = fig_link_grid(options.seed, options.smoke);

  // Reference cycle (also the warm-up): every later repeat of a point
  // must reproduce these per-flow counters exactly.
  std::vector<SweepRow> reference;
  SimTally tally;
  for (const GridPoint& p : grid) {
    reference.push_back(run_point(p));
    ++out.attempted;
    if (!conserves(reference.back().per_flow, link_in_flight(p.sweep_case.config))) ++out.failed;
    tally.add(reference.back().per_flow, reference.back().obs_metrics);
  }
  if (options.inject == "counter") reference[0].per_flow[0].offered_packets += 1;

  if (report == nullptr) {
    // A cycle is the whole grid, so every round covers the same mix.
    e2e.run([&] {
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const std::int64_t t0 = now_ns();
        const SweepRow row = run_point(grid[i]);
        e2e.record(seconds_since(t0), offered_packets(row.per_flow));
        ++out.attempted;
        if (!fig_link_request_ok(grid[i], row, reference[i].per_flow)) ++out.failed;
      }
    }, out);
    return out;
  }

  report->tally = tally;
  // Untraced and decorated cycles alternate, so drift hits both sides.
  const std::int64_t start = now_ns();
  do {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const SweepRow row = run_point(grid[i]);
      ++out.attempted;
      if (!fig_link_request_ok(grid[i], row, reference[i].per_flow)) ++out.failed;
    }
    report->untraced_pass_s.push_back(seconds_since(t0));
    report->traced_pass_s.push_back(
        traced_grid_cycle(grid, reference, *report, out, report->unattributed_ops));
  } while (seconds_since(start) < options.seconds / 2 || report->traced_pass_s.size() < 2);
  report->attributed_s = static_cast<double>(report->link_book.attributed_ns()) * 1e-9;
  return out;
}

// ----------------------------------------------------- leaf-spine fabric

/// The dense leaf-spine of bench_parallel_engine: 8 leaves x 8 spines,
/// 8 hosts per leaf, 480 Mb/s links, threshold-managed FIFO ports, at a
/// reduced horizon, at which the calendar already holds its working
/// depth.  A 1 us warmup (the sharded engine needs a positive one) leaves
/// the counters covering practically the whole run.
fabric::FabricConfig leafspine_config(std::uint64_t seed, bool smoke) {
  fabric::FabricConfig c;
  c.topology = fabric::FabricTopologyKind::kLeafSpine;
  c.size = smoke ? 2 : 8;
  c.hosts_per_leaf = smoke ? 2 : 8;
  c.scheme.manager = fabric::FabricManager::kThreshold;
  c.link_rate = Rate::megabits_per_second(480.0);
  c.load = 1.0;
  c.warmup = Time::microseconds(1);
  c.duration = smoke ? Time::milliseconds(5) : Time::milliseconds(8);
  c.seed = seed;
  c.record_delays = false;
  return c;
}

/// Bytes a fabric can hold in flight: every port's buffer plus every
/// wire's bandwidth-delay product, with a packet of slack per link.
std::int64_t fabric_in_flight(const fabric::FabricConfig& c, const fabric::FabricScenario& sc) {
  const auto per_link = c.buffer.count() +
                        static_cast<std::int64_t>(c.link_rate.bytes_in(c.propagation)) +
                        2 * c.packet_bytes;
  return static_cast<std::int64_t>(sc.topo.link_count()) * per_link;
}

/// What a sharded or repeated fabric run must reproduce.
struct FabricReference {
  std::vector<FlowCounters> per_flow;
  std::uint64_t digest{0};
  std::uint64_t events{0};
};

FabricReference fabric_reference(const ExperimentResult& r) {
  return {r.per_flow, counter(r.metrics, "fabric.egress_audit"), counter(r.metrics, "sim.events")};
}

bool fabric_request_ok(const ExperimentResult& r, const FabricReference& ref,
                       std::int64_t in_flight) {
  return same_counters(r.per_flow, ref.per_flow) &&
         counter(r.metrics, "fabric.egress_audit") == ref.digest &&
         counter(r.metrics, "sim.events") == ref.events &&
         counter(r.metrics, "parallel.serial_fallback") == 0 && conserves(r.per_flow, in_flight);
}

void corrupt(FabricReference& ref, const std::string& inject) {
  if (inject == "counter") ref.per_flow.at(0).delivered_packets += 1;
  if (inject == "digest") ref.digest ^= 1;
}

/// Wall seconds of one whole call of `run`, engine construction and
/// teardown included, so that serial and sharded runs are timed alike.
double run_wall_s(const std::function<ExperimentResult()>& run) {
  const std::int64_t start = now_ns();
  (void)run();
  return seconds_since(start);
}

/// Median of run_wall_s over `runs` calls.
double median_run_wall(int runs, const std::function<ExperimentResult()>& run) {
  std::vector<double> walls;
  for (int i = 0; i < runs; ++i) walls.push_back(run_wall_s(run));
  return median(walls);
}

/// One leaf-spine scenario build takes about 0.7 ms: about 50 ms a
/// sample, as for kGridsPerSetupSample.
constexpr int kScenariosPerSetupSample = 64;

/// The shard count of the parallel legs: half of a 4-core machine.
constexpr int kShards = 2;

/// Shard coordination on the leaf-spine inputs, for the traced run: one
/// 2-shard run checked against the serial reference supplies the
/// parallel.* counters, then the pinned legs separate calendar shrinkage
/// (serial and sharded on one CPU) from concurrency (sharded on one CPU
/// and on two).
void trace_parallel(const Options& options, const fabric::FabricConfig& config,
                    const fabric::FabricScenario& sc, const FabricReference& ref,
                    std::int64_t in_flight, LayerReport& report, Result& out) {
  fabric::FabricConfig sharded_config = config;
  sharded_config.shards = kShards;
  const fabric::ShardPlan plan = fabric::shard_plan(sc.topo, kShards);
  if (!fabric::parallel_viability(sharded_config, plan).viable) {
    throw std::runtime_error("the leaf-spine 2-shard plan is not viable");
  }
  const auto sharded = [&] {
    ExperimentResult r = fabric::run_parallel_fabric_experiment(sharded_config, sc, plan);
    ++out.attempted;
    if (!fabric_request_ok(r, ref, in_flight)) ++out.failed;
    return r;
  };

  const int legs = options.smoke ? 1 : 5;
  double serial_one = 0.0;
  double sharded_one = 0.0;
  {
    CpuPin pin{1};
    if (!pin.ok()) throw std::runtime_error("cannot pin the process to one CPU");
    serial_one = median_run_wall(legs, [&] { return fabric::run_fabric_experiment(config); });
    sharded_one = median_run_wall(legs, sharded);
  }
  // The process runs on kShards CPUs here (see run_workload).
  const std::int64_t cpu_start = process_cpu_ns();
  std::vector<double> walls;
  for (int i = 0; i < legs; ++i) {
    walls.push_back(run_wall_s([&] {
      ExperimentResult r = sharded();
      if (i == 0) report.parallel = r.metrics;
      return r;
    }));
  }
  double wall_sum = 0.0;
  for (const double w : walls) wall_sum += w;
  report.cpu_busy_ratio =
      static_cast<double>(process_cpu_ns() - cpu_start) * 1e-9 / (kShards * wall_sum);
  report.speedup_one_cpu = serial_one / sharded_one;
  report.concurrency_gain = sharded_one / median(walls);
  report.leg_samples = static_cast<std::uint64_t>(legs);
}

/// Traffic seeds a leafspine_deep run cycles through.  One seed's fabric
/// run does up to 15% more or less work than another's, so a run on a
/// single seed would measure its seed as much as the code.
constexpr std::size_t kFabricSeeds = 16;

Result leafspine_deep(const Options& options, LayerReport* report) {
  Result out;
  const SeedSequence seeds{options.seed};
  std::vector<fabric::FabricConfig> configs;
  for (std::size_t i = 0; i < (options.smoke ? 2 : kFabricSeeds); ++i) {
    configs.push_back(leafspine_config(seeds.derive(i), options.smoke));
  }
  const fabric::FabricConfig& config = configs[0];
  // Set-up: topology, routing and the provisioning planner.
  std::unique_ptr<fabric::FabricScenario> sc;
  EndToEnd e2e{[&] {
    return time_setup([&] {
      sc = std::make_unique<fabric::FabricScenario>(fabric::build_fabric_scenario(config));
    }, kScenariosPerSetupSample);
  }, options};
  const std::int64_t in_flight = fabric_in_flight(config, *sc);

  // One reference run per seed, which also warms the process up.  Every
  // seed's runs share the topology, so they share in_flight.
  std::vector<FabricReference> refs;
  std::unique_ptr<ExperimentResult> first;
  for (const fabric::FabricConfig& c : configs) {
    ExperimentResult r = fabric::run_fabric_experiment(c);
    ++out.attempted;
    if (!conserves(r.per_flow, in_flight)) ++out.failed;
    refs.push_back(fabric_reference(r));
    if (!first) first = std::make_unique<ExperimentResult>(std::move(r));
  }
  corrupt(refs[0], options.inject);
  const auto request = [&](std::size_t i) -> ExperimentResult {
    ExperimentResult r = fabric::run_fabric_experiment(configs[i]);
    ++out.attempted;
    if (!fabric_request_ok(r, refs[i], in_flight)) ++out.failed;
    return r;
  };

  if (report == nullptr) {
    // A cycle is one run of every seed, so every round covers the same mix.
    e2e.run([&] {
      for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::int64_t t0 = now_ns();
        const ExperimentResult r = request(i);
        e2e.record(seconds_since(t0), offered_packets(r.per_flow));
      }
    }, out);
    return out;
  }

  // No span reaches inside the fabric, so the traced and the untraced
  // passes are the same calls: their ratio shows the noise floor.
  // The layers are measured on the first seed.
  report->tally.add(first->per_flow, first->metrics);
  const std::int64_t start = now_ns();
  do {
    for (auto* walls : {&report->untraced_pass_s, &report->traced_pass_s}) {
      const std::int64_t t0 = now_ns();
      (void)request(0);
      walls->push_back(seconds_since(t0));
    }
  } while (seconds_since(start) < options.seconds / 2 || report->traced_pass_s.size() < 3);
  report->unattributed_ops = static_cast<double>(refs[0].events * report->traced_pass_s.size());
  trace_parallel(options, config, *sc, refs[0], in_flight, *report, out);
  return out;
}

// --------------------------------------------------------- layer probes

/// The link-pipeline layers (traffic, sched, core, stats) measured on one
/// decorated fig_link grid cycle; fig_link measures them in its own
/// traced passes.
void probe_link_layers(const Options& options, LayerReport& report, Result& out) {
  const std::vector<GridPoint> grid = fig_link_grid(options.seed, options.smoke);
  std::vector<SweepRow> reference;
  for (const GridPoint& p : grid) reference.push_back(run_point(p));
  double events = 0.0;
  (void)traced_grid_cycle(grid, reference, report, out, events);
}

/// The admission layer at the paper's scale: fills and traced rounds on a
/// fresh million-flow table.
void probe_admission(const Options& options, LayerReport& report, Result& out) {
  const std::size_t flows = options.smoke ? 10'000 : kMillionFlows;
  const std::size_t decisions = options.smoke ? 1024 : 32768;
  std::vector<double> fill_s;
  std::unique_ptr<AdmissionState> state;
  for (int i = 0; i < 3; ++i) {
    state.reset();
    const std::int64_t t0 = now_ns();
    state = std::make_unique<AdmissionState>(flows, options.seed);
    fill_s.push_back(seconds_since(t0));
  }
  SpanBook book;
  for (int r = 0; r < 8; ++r) state->round(decisions, book);
  out.attempted += 8 * decisions;
  report.fill_ns_per_flow = median(fill_s) * 1e9 / static_cast<double>(flows);
  report.fill_samples = fill_s.size();
  const double decision_ops = static_cast<double>(book.count("admission.decisions") * kOpsPerSpan);
  report.churn_ns_per_decision = book.self_total_ns("admission.decisions") / decision_ops;
  report.check_ns_p50 = book.self_p50_ns("admission.checks") / kOpsPerSpan;
  report.admission_samples = book.count("admission.checks");
  report.controller_ns_per_op = state->controller_ns_per_op(decisions);
  report.controller_spans = decisions / kOpsPerSpan;
  out.failed += state->refused() + (state->resident() == flows ? 0 : 1);
}

/// Scenario build and shard planning on the leaf-spine inputs.
void probe_fabric_build(const Options& options, LayerReport& report) {
  const fabric::FabricConfig config = leafspine_config(options.seed, options.smoke);
  std::unique_ptr<fabric::FabricScenario> sc;
  report.build_scenario_s = median_setup_s([&] {
    sc = std::make_unique<fabric::FabricScenario>(fabric::build_fabric_scenario(config));
  }, kScenariosPerSetupSample);
  // A plan takes a few microseconds.
  constexpr int kPlansPerSample = 1000;
  report.shard_plan_s = median_setup_s([&] {
    if (fabric::shard_plan(sc->topo, 2).shards != 2) throw std::logic_error("shard plan lost a shard");
  }, kPlansPerSample);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void emit_layers(const Options& options, LayerReport& r, Result& out) {
  auto& m = out.metrics;
  const SimTally& t = r.tally;
  const auto events = static_cast<double>(t.events());
  const auto n_untraced = static_cast<std::uint64_t>(r.untraced_pass_s.size());
  const auto n_traced = static_cast<std::uint64_t>(r.traced_pass_s.size());
  double traced_wall = 0.0;
  for (double w : r.traced_pass_s) traced_wall += w;
  const double untraced_median = median(r.untraced_pass_s);

  // sim
  const auto depth_it = t.metrics.histograms.find("sim.calendar_depth");
  const obs::HistogramSnapshot depth =
      depth_it == t.metrics.histograms.end() ? obs::HistogramSnapshot{} : depth_it->second;
  m.push_back({"sim.events", events, "count", 1});
  m.push_back({"sim.events_per_packet", ratio(events, static_cast<double>(t.offered)),
               "events/packet", 1});
  m.push_back({"sim.events_per_s", ratio(events, untraced_median), "1/s", n_untraced});
  m.push_back({"sim.calendar_depth_mean", depth.mean(), "events", depth.count});
  m.push_back({"sim.calendar_depth_p99", depth.percentile(0.99), "events", depth.count});
  m.push_back({"sim.unattributed_ns_per_event",
               ratio((traced_wall - r.attributed_s) * 1e9, r.unattributed_ops), "ns", n_traced});
  for (const auto& [depth_n, suffix] : kHoldDepths) {
    const std::size_t d = options.smoke ? std::min<std::size_t>(depth_n, 4096) : depth_n;
    m.push_back({std::string{"sim.hold_ns_per_event."} + suffix,
                 hold_ns_per_event(d, options.seed), "ns", 9});
  }

  // link pipeline layers
  const SpanBook& b = r.link_book;
  const auto p50 = [&](const std::string& span, const std::string& name) {
    m.push_back({name, b.self_p50_ns(span), "ns", b.count(span)});
  };
  p50("traffic.shaper_accept", "traffic.shaper_accept_ns_p50");
  for (const char* kind : {"fifo", "wfq", "hybrid"}) {
    for (const char* op : {"enqueue", "dequeue"}) {
      const std::string span = std::string{"sched."} + kind + "." + op;
      p50(span, span + "_ns_p50");
    }
  }
  m.push_back({"sched.accepts", static_cast<double>(counter(t.metrics, "sched.accepts")), "count", 1});
  m.push_back({"sched.drops", static_cast<double>(counter(t.metrics, "sched.drops")), "count", 1});
  m.push_back({"wfq.vt_updates", static_cast<double>(counter(t.metrics, "sched.wfq.vt_updates")),
               "count", 1});
  for (const char* kind : {"none", "threshold", "sharing"}) {
    const std::string span = std::string{"core."} + kind + ".try_admit";
    p50(span, span + "_ns_p50");
  }
  p50("core.release", "core.release_ns_p50");
  m.push_back({"core.admit_ratio.threshold",
               ratio(static_cast<double>(r.link_admit_accepts[0]),
                     static_cast<double>(r.link_admit_attempts[0])),
               "ratio", r.link_admit_attempts[0]});
  m.push_back({"core.admit_ratio.sharing",
               ratio(static_cast<double>(r.link_admit_accepts[1]),
                     static_cast<double>(r.link_admit_attempts[1])),
               "ratio", r.link_admit_attempts[1]});
  p50("stats.on_offered", "stats.on_offered_ns_p50");
  p50("stats.on_delivered", "stats.on_delivered_ns_p50");

  // net / fabric
  m.push_back({"fabric.build_scenario_s", r.build_scenario_s, "s", kSetupSamples});
  m.push_back({"fabric.shard_plan_s", r.shard_plan_s, "s", kSetupSamples});
  m.push_back({"net.events_per_delivered_packet", ratio(events, static_cast<double>(t.delivered)),
               "events/packet", 1});
  m.push_back({"net.drops", static_cast<double>(counter(t.metrics, "net.drops")), "count", 1});

  // parallel
  const obs::RegistrySnapshot& par = r.parallel;
  const auto windows = static_cast<double>(counter(par, "parallel.windows"));
  double shard_max = 0.0;
  double shard_sum = 0.0;
  int shards = 0;
  for (const auto& [name, value] : par.counters) {
    if (name.rfind("parallel.shard.", 0) == 0) {
      shard_max = std::max(shard_max, static_cast<double>(value));
      shard_sum += static_cast<double>(value);
      ++shards;
    }
  }
  m.push_back({"parallel.windows", windows, "count", 1});
  m.push_back({"parallel.boundary_events",
               static_cast<double>(counter(par, "parallel.boundary_events")), "count", 1});
  m.push_back({"parallel.horizon_stalls",
               static_cast<double>(counter(par, "parallel.horizon_stalls")), "count", 1});
  m.push_back({"parallel.serial_fallback",
               static_cast<double>(counter(par, "parallel.serial_fallback")), "count", 1});
  m.push_back({"parallel.events_per_window",
               ratio(static_cast<double>(counter(par, "sim.events")), windows), "events", 1});
  m.push_back({"parallel.shard_imbalance", ratio(shard_max, shards > 0 ? shard_sum / shards : 0.0),
               "ratio", 1});
  m.push_back({"parallel.cpu_busy_ratio", r.cpu_busy_ratio, "ratio", r.leg_samples});
  m.push_back({"parallel.speedup_one_cpu", r.speedup_one_cpu, "ratio", r.leg_samples});
  m.push_back({"parallel.concurrency_gain", r.concurrency_gain, "ratio", r.leg_samples});

  // admission
  m.push_back({"admission.fill_ns_per_flow", r.fill_ns_per_flow, "ns", r.fill_samples});
  m.push_back({"admission.churn_ns_per_decision", r.churn_ns_per_decision, "ns",
               r.admission_samples / kChecksPerDecision});
  m.push_back({"admission.controller_ns_per_op", r.controller_ns_per_op, "ns", r.controller_spans});
  m.push_back({"admission.check_ns_p50", r.check_ns_p50, "ns", r.admission_samples});
  m.push_back({"admission.bytes_per_flow",
               static_cast<double>(admission::FlowTable::bytes_per_flow()), "B", 1});

  // bench
  m.push_back({"trace.overhead_ratio", ratio(median(r.traced_pass_s), untraced_median), "ratio",
               n_traced});
  m.push_back({"trace.span_floor_ns", span_floor_ns(), "ns", 100000});
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig_link", "leafspine_deep"};
  return names;
}

Result run_workload(const Options& options) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  if (!options.inject.empty() && options.inject != "counter" &&
      !(options.inject == "digest" && options.workload == "leafspine_deep")) {
    throw std::invalid_argument("--inject=" + options.inject + " does not apply to " +
                                options.workload);
  }

  // A workload runs on as many CPUs as it has threads, so that no run
  // loses its caches to a migration: unpinned, run-to-run spread was
  // about twice as wide.  Every untraced workload is single-threaded; the
  // traced leafspine_deep run adds the 2-shard legs.
  const bool sharded_legs = options.trace && options.workload == "leafspine_deep";
  const CpuPin pin{sharded_legs ? kShards : 1};
  std::unique_ptr<LayerReport> report = options.trace ? std::make_unique<LayerReport>() : nullptr;
  Result out;
  if (options.workload == "fig_link") {
    out = fig_link(options, report.get());
  } else {
    out = leafspine_deep(options, report.get());
  }
  if (report) {
    if (options.workload != "fig_link") probe_link_layers(options, *report, out);
    probe_admission(options, *report, out);
    probe_fabric_build(options, *report);
    emit_layers(options, *report, out);
  }
  return out;
}

}  // namespace perfbench
