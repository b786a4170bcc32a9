// The paper's motivating claim (Section 1): buffer-management admission
// is O(1) per packet while WFQ pays a sorted-structure cost that grows
// with the number of flows.  Measures enqueue+dequeue cost per packet for
// FIFO+thresholds and per-flow WFQ as the flow count doubles from 2 to
// 16384.
//
// Two modes:
//   (default)            google-benchmark micro-benchmarks, unchanged
//   --metrics-out=PATH   one instrumented Table-1 run (events/s from the
//                        simulator's own counters) plus dequeue-latency
//                        and calendar hold-model micro-measurements,
//                        exported as a BENCH_*.json perf artifact (see
//                        scripts/bench_schema.json)
//
// BM_DynamicFlowTableThresholds extends the scaling curve to 2^20
// (~1e6) resident flows through the class-interned FlowTable — the
// per-packet cost must stay flat where WFQ's grows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "admission/dynamic_manager.h"
#include "admission/flow_table.h"
#include "core/threshold.h"
#include "expt/experiment.h"
#include "expt/workloads.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sched/fifo.h"
#include "sched/rpq.h"
#include "sched/wfq.h"
#include "sim/calendar_queue.h"
#include "sim/inline_action.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/task_pool.h"

namespace {

using namespace bufq;

constexpr std::int64_t kPkt = 500;

/// Per-flow thresholds sized so every flow keeps a small backlog.
std::vector<std::int64_t> make_thresholds(std::size_t flows) {
  return std::vector<std::int64_t>(flows, 16 * kPkt);
}

/// Pre-generated arrival order touching every flow uniformly.
std::vector<FlowId> make_arrivals(std::size_t flows, std::size_t count) {
  Rng rng{12345};
  std::vector<FlowId> order;
  order.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    order.push_back(static_cast<FlowId>(rng.uniform_u64(flows)));
  }
  return order;
}

void prefill(QueueDiscipline& queue, std::size_t flows) {
  // Keep ~8 packets per flow queued so dequeues always find work and the
  // WFQ heap holds every class.
  for (std::size_t round = 0; round < 8; ++round) {
    for (std::size_t f = 0; f < flows; ++f) {
      (void)queue.enqueue(
          Packet{static_cast<FlowId>(f), kPkt, round, Time::zero()}, Time::zero());
    }
  }
}

void run_packet_loop(benchmark::State& state, QueueDiscipline& queue,
                     const std::vector<FlowId>& arrivals) {
  std::size_t i = 0;
  std::uint64_t seq = 100;
  for (auto _ : state) {
    const FlowId flow = arrivals[i];
    i = (i + 1) % arrivals.size();
    (void)queue.enqueue(Packet{flow, kPkt, seq++, Time::zero()}, Time::zero());
    auto packet = queue.dequeue(Time::zero());
    benchmark::DoNotOptimize(packet);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_FifoThresholds(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  ThresholdManager manager{ByteSize::bytes(static_cast<std::int64_t>(flows) * 32 * kPkt),
                           make_thresholds(flows)};
  FifoScheduler fifo{manager};
  prefill(fifo, flows);
  const auto arrivals = make_arrivals(flows, 1 << 16);
  run_packet_loop(state, fifo, arrivals);
}

void BM_WfqPerFlow(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  ThresholdManager manager{ByteSize::bytes(static_cast<std::int64_t>(flows) * 32 * kPkt),
                           make_thresholds(flows)};
  WfqScheduler wfq{manager, Rate::megabits_per_second(48.0),
                   std::vector<double>(flows, 1.0)};
  prefill(wfq, flows);
  const auto arrivals = make_arrivals(flows, 1 << 16);
  run_packet_loop(state, wfq, arrivals);
}

BENCHMARK(BM_FifoThresholds)->RangeMultiplier(4)->Range(2, 1 << 14);
BENCHMARK(BM_WfqPerFlow)->RangeMultiplier(4)->Range(2, 1 << 14);

/// The hybrid middle ground: many flows, a small fixed number of WFQ
/// classes (the paper's scalable architecture).
void BM_HybridKClasses(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 8;
  ThresholdManager manager{ByteSize::bytes(static_cast<std::int64_t>(flows) * 32 * kPkt),
                           make_thresholds(flows)};
  std::vector<std::size_t> flow_to_class(flows);
  for (std::size_t f = 0; f < flows; ++f) flow_to_class[f] = f % k;
  WfqScheduler wfq{manager, Rate::megabits_per_second(48.0), std::move(flow_to_class),
                   std::vector<double>(k, 1.0)};
  prefill(wfq, flows);
  const auto arrivals = make_arrivals(flows, 1 << 16);
  run_packet_loop(state, wfq, arrivals);
}

BENCHMARK(BM_HybridKClasses)->RangeMultiplier(4)->Range(8, 1 << 14);

/// RPQ (the paper's reference [10]): near-EDF from a bounded slot
/// calendar — cost independent of the flow count, like the FIFO scheme.
void BM_RpqCalendar(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  ThresholdManager manager{ByteSize::bytes(static_cast<std::int64_t>(flows) * 32 * kPkt),
                           make_thresholds(flows)};
  std::vector<Time> targets(flows);
  for (std::size_t f = 0; f < flows; ++f) {
    targets[f] = Time::milliseconds(1 + static_cast<std::int64_t>(f % 16));
  }
  RpqScheduler rpq{manager, std::move(targets), Time::milliseconds(1)};
  prefill(rpq, flows);
  const auto arrivals = make_arrivals(flows, 1 << 16);
  run_packet_loop(state, rpq, arrivals);
}

BENCHMARK(BM_RpqCalendar)->RangeMultiplier(4)->Range(2, 1 << 14);

/// Per-packet Prop-2 threshold checks against a FlowTable at N resident
/// flows (the churn-capable DynamicBufferManager path): the million-flow
/// scale point of the paper's O(1)-per-packet claim.  The per-flow state
/// is occupancy + a 4-byte class id; thresholds resolve through the
/// interned envelope class, so the curve stays flat to 2^20 flows.
void BM_DynamicFlowTableThresholds(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  admission::FlowTable table{flows};
  const FlowSpec spec{Rate::kilobits_per_second(16.0), ByteSize::bytes(1500)};
  const admission::ClassId cls = table.classes().intern(spec, 16 * kPkt);
  for (std::size_t f = 0; f < flows; ++f) (void)table.admit_class(cls);
  admission::DynamicBufferManager manager{
      ByteSize::bytes(static_cast<std::int64_t>(flows) * 32 * kPkt), table,
      admission::DynamicBufferManager::Policy::kThreshold};
  const auto arrivals = make_arrivals(flows, 1 << 16);
  std::size_t i = 0;
  for (auto _ : state) {
    const FlowId flow = arrivals[i];
    i = (i + 1) % arrivals.size();
    if (manager.try_admit(flow, kPkt, Time::zero())) {
      manager.release(flow, kPkt, Time::zero());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_DynamicFlowTableThresholds)->RangeMultiplier(16)->Range(1 << 8, 1 << 20);

/// Sweep-engine substrate: per-task dispatch overhead of the work-
/// stealing pool.  A simulation run costs milliseconds, so the pool's
/// microsecond-scale dispatch must be (and is) negligible; this guards
/// against regressions in the queueing/steal path.
void BM_TaskPoolDispatch(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  TaskPool pool{threads};
  constexpr std::size_t kBatch = 1024;
  for (auto _ : state) {
    std::atomic<std::uint64_t> sum{0};
    for (std::size_t i = 0; i < kBatch; ++i) {
      pool.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(sum.load());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}

BENCHMARK(BM_TaskPoolDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Work stealing under imbalance: all tasks submitted from one external
/// thread land round-robin, but tasks vary 16x in cost, so idle workers
/// must steal to finish early.  Items/s should scale with threads.
void BM_TaskPoolImbalancedWork(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  TaskPool pool{threads};
  constexpr std::size_t kTasks = 256;
  for (auto _ : state) {
    std::atomic<std::uint64_t> sum{0};
    for (std::size_t i = 0; i < kTasks; ++i) {
      const std::uint64_t spins = 512 * (1 + i % 16);
      pool.submit([&sum, spins] {
        Rng rng{spins};
        std::uint64_t x = 0;
        for (std::uint64_t k = 0; k < spins; ++k) x ^= rng.next_u64();
        sum.fetch_add(x, std::memory_order_relaxed);
      });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(sum.load());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTasks));
}

BENCHMARK(BM_TaskPoolImbalancedWork)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// PhaseBarrier round-trip: the parallel fabric engine pays exactly one
/// barrier per lookahead window, so its window rate is bounded by this.
/// Each iteration drives kRounds generations across `parties` threads
/// (thread spawn/join amortized over the rounds).
void BM_PhaseBarrierRound(benchmark::State& state) {
  const auto parties = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kRounds = 1024;
  for (auto _ : state) {
    std::uint64_t completions = 0;
    PhaseBarrier barrier{parties, [&completions] { ++completions; }};
    std::vector<std::thread> threads;
    threads.reserve(parties - 1);
    for (std::size_t p = 1; p < parties; ++p) {
      threads.emplace_back([&barrier] {
        for (std::uint64_t r = 0; r < kRounds; ++r) barrier.arrive_and_wait();
      });
    }
    for (std::uint64_t r = 0; r < kRounds; ++r) barrier.arrive_and_wait();
    for (std::thread& t : threads) t.join();
    benchmark::DoNotOptimize(completions);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRounds));
}

BENCHMARK(BM_PhaseBarrierRound)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Explicit steady_clock timing of the FIFO+thresholds and WFQ dequeue
/// paths into registry histograms.
void measure_dequeue_latency(QueueDiscipline& queue, const std::vector<FlowId>& arrivals,
                             obs::Histogram& latency_ns) {
  std::size_t i = 0;
  std::uint64_t seq = 100;
  for (std::size_t n = 0; n < arrivals.size(); ++n) {
    const FlowId flow = arrivals[i];
    i = (i + 1) % arrivals.size();
    (void)queue.enqueue(Packet{flow, kPkt, seq++, Time::zero()}, Time::zero());
    const auto begin = std::chrono::steady_clock::now();
    auto packet = queue.dequeue(Time::zero());
    const auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(packet);
    latency_ns.record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count());
  }
}

/// Self-rescheduling event spinner for the pure-kernel measurement: a
/// fixed population of periodic events with co-prime-ish gaps, so the
/// calendar stays mixed-depth while nothing but the kernel runs.
struct KernelTicker {
  Simulator* sim{nullptr};
  Time gap{Time::zero()};
  std::int64_t remaining{0};

  void arm() {
    const auto tick = [this] {
      if (remaining-- > 0) arm();
    };
    static_assert(InlineAction::stores_inline<decltype(tick)>,
                  "kernel spin event must not allocate");
    sim->in(gap, tick);
  }
};

/// Events/s of the bare calendar + dispatch loop, with no packets, no
/// schedulers, and no metrics recording in the way.  Each rep runs a few
/// million events; the reported rate is the median of kKernelReps reps
/// (bit-identical simulations — only wall time varies), the same
/// convention events_per_sec uses for the Table-1 scenario.
double measure_kernel_events_per_sec() {
  constexpr int kTickers = 64;
  constexpr std::int64_t kEvents = 4'000'000;
  constexpr int kKernelReps = 5;
  std::vector<double> rates;
  rates.reserve(kKernelReps);
  for (int rep = 0; rep < kKernelReps; ++rep) {
    Simulator sim;
    std::vector<KernelTicker> tickers(kTickers);
    for (int i = 0; i < kTickers; ++i) {
      tickers[static_cast<std::size_t>(i)] =
          KernelTicker{&sim, Time::nanoseconds(997 + 13 * i), kEvents / kTickers};
      tickers[static_cast<std::size_t>(i)].arm();
    }
    const auto begin = std::chrono::steady_clock::now();
    sim.run();
    const auto end = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(end - begin).count();
    if (seconds > 0.0) {
      rates.push_back(static_cast<double>(sim.events_processed()) / seconds);
    }
  }
  if (rates.empty()) return 0.0;
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

/// The classic hold model on a bare CalendarQueue: `depth` resident
/// events, each pop re-pushing one exponential increment (mean 1 ms, the
/// fabric's propagation delay: the regime in which calendars grow deep)
/// after the popped time.  Comparing depths exposes a calendar depth
/// cliff that the 64-ticker kernel rate cannot see.
class HoldModel {
 public:
  explicit HoldModel(std::size_t depth) : rng_{depth} {
    for (std::size_t i = 0; i < depth; ++i) push_after(Time::zero());
  }

  /// Runs `holds` pop+push pairs; returns their wall ns per hold.
  double run(std::size_t holds) {
    const auto begin = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < holds; ++i) {
      CalendarQueue::Event ev = calendar_.pop_min();
      ev.action();
      push_after(ev.time);
    }
    const auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(fired_);
    return std::chrono::duration<double, std::nano>(end - begin).count() /
           static_cast<double>(holds);
  }

 private:
  void push_after(Time base) {
    constexpr double kMeanIncrementNs = 1e6;
    const auto dt =
        Time::nanoseconds(static_cast<std::int64_t>(rng_.exponential(kMeanIncrementNs)));
    const auto fire = [this] { ++fired_; };
    static_assert(InlineAction::stores_inline<decltype(fire)>, "hold event must not allocate");
    calendar_.push(CalendarQueue::Event{base + dt, seq_++, fire});
  }

  Rng rng_;
  CalendarQueue calendar_;
  std::uint64_t seq_{0};
  std::uint64_t fired_{0};
};

/// Holds/s of the hold model at depths 64 and 16k.  One full turnover
/// first, so every resize the depth triggers is done.  The timed batches
/// alternate between the two depths, so a swing in the host's speed hits
/// both sides of their ratio alike; each rate is the median batch.
std::pair<double, double> measure_hold_events_per_sec() {
  constexpr std::size_t kBatch = std::size_t{1} << 16;
  constexpr int kBatches = 7;
  HoldModel shallow{64};
  HoldModel deep{16384};
  shallow.run(kBatch);
  deep.run(kBatch);
  std::vector<double> shallow_ns;
  std::vector<double> deep_ns;
  for (int b = 0; b < kBatches; ++b) {
    shallow_ns.push_back(shallow.run(kBatch));
    deep_ns.push_back(deep.run(kBatch));
  }
  std::sort(shallow_ns.begin(), shallow_ns.end());
  std::sort(deep_ns.begin(), deep_ns.end());
  return {1e9 / shallow_ns[kBatches / 2], 1e9 / deep_ns[kBatches / 2]};
}

/// The --metrics-out path: instrumented Table-1 FIFO+thresholds runs
/// (simulator event counters, buffer-occupancy histograms), dequeue
/// latency distributions for the FIFO and per-flow-WFQ packet loops, and
/// the calendar hold model at depths 64 and 16k.
/// The latency loops record into standalone histograms, NOT a scoped
/// registry, so the report's bm.* occupancy series describe the Table-1
/// run alone — EXPERIMENTS.md compares them against the Prop-1/2
/// threshold bounds.
///
/// The Table-1 scenario simulates in a few tens of milliseconds, so a
/// single wall-clock sample is scheduler-noise-dominated; the run repeats
/// kEventRateReps times (bit-identical simulations — only wall time
/// varies) and events_per_sec is the median rate.
int run_metrics_mode(const std::string& path) {
  ExperimentConfig config;
  config.link_rate = paper_link_rate();
  config.buffer = ByteSize::megabytes(0.5);
  config.flows = table1_flows();
  config.scheme.scheduler = SchedulerKind::kFifo;
  config.scheme.manager = ManagerKind::kThreshold;
  config.warmup = Time::seconds(1);
  config.duration = Time::seconds(4);
  config.seed = 1;

  constexpr int kEventRateReps = 5;
  const ExperimentResult result = run_experiment(config);
  std::vector<double> rates;
  rates.reserve(kEventRateReps);
  for (int rep = 0; rep < kEventRateReps; ++rep) {
    const ExperimentResult r = rep == 0 ? result : run_experiment(config);
    const auto ev = r.metrics.counters.find("sim.events");
    const auto ns = r.metrics.counters.find("sim.wall_ns");
    if (ev != r.metrics.counters.end() && ns != r.metrics.counters.end() && ns->second > 0) {
      rates.push_back(static_cast<double>(ev->second) /
                      (static_cast<double>(ns->second) * 1e-9));
    }
  }
  std::sort(rates.begin(), rates.end());

  constexpr std::size_t kFlows = 1024;
  const auto arrivals = make_arrivals(kFlows, 1 << 16);
  obs::Histogram fifo_latency;
  obs::Histogram wfq_latency;
  {
    ThresholdManager manager{ByteSize::bytes(static_cast<std::int64_t>(kFlows) * 32 * kPkt), make_thresholds(kFlows)};
    FifoScheduler fifo{manager};
    prefill(fifo, kFlows);
    measure_dequeue_latency(fifo, arrivals, fifo_latency);
  }
  {
    ThresholdManager manager{ByteSize::bytes(static_cast<std::int64_t>(kFlows) * 32 * kPkt), make_thresholds(kFlows)};
    WfqScheduler wfq{manager, Rate::megabits_per_second(48.0),
                     std::vector<double>(kFlows, 1.0)};
    prefill(wfq, kFlows);
    measure_dequeue_latency(wfq, arrivals, wfq_latency);
  }

  obs::BenchReport report;
  report.bench = "bench_scalability";
  report.snapshot = result.metrics;
  report.snapshot.histograms["bench.fifo_dequeue_ns"] = fifo_latency.snapshot();
  report.snapshot.histograms["bench.wfq_dequeue_ns"] = wfq_latency.snapshot();
  if (!rates.empty()) {
    report.derived["events_per_sec"] = rates[rates.size() / 2];
    report.derived["events_per_sec_best"] = rates.back();
  }
  report.derived["kernel_events_per_sec"] = measure_kernel_events_per_sec();
  const auto [hold_d64, hold_d16k] = measure_hold_events_per_sec();
  report.derived["kernel_hold_events_per_sec_d64"] = hold_d64;
  report.derived["kernel_hold_events_per_sec_d16k"] = hold_d16k;
  const auto fifo_lat = report.snapshot.histograms.find("bench.fifo_dequeue_ns");
  if (fifo_lat != report.snapshot.histograms.end()) {
    report.derived["fifo_dequeue_p50_ns"] = fifo_lat->second.percentile(0.50);
    report.derived["fifo_dequeue_p99_ns"] = fifo_lat->second.percentile(0.99);
  }
  const auto wfq_lat = report.snapshot.histograms.find("bench.wfq_dequeue_ns");
  if (wfq_lat != report.snapshot.histograms.end()) {
    report.derived["wfq_dequeue_p50_ns"] = wfq_lat->second.percentile(0.50);
    report.derived["wfq_dequeue_p99_ns"] = wfq_lat->second.percentile(0.99);
  }

  try {
    obs::write_bench_json_file(path, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --metrics-out before google-benchmark sees the arguments.
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--metrics-out=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      return run_metrics_mode(std::string{argv[i] + std::strlen(kFlag)});
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
