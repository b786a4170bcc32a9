#include "fabric/scenario.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "check/invariants.h"
#include "fabric/parallel_engine.h"
#include "fabric/shard_plan.h"
#include "sim/checkpoint.h"
#include "sim/inline_action.h"
#include "traffic/sources.h"
#include "util/annotations.h"
#include "util/rng.h"

namespace bufq::fabric {

const char* to_string(FabricTopologyKind kind) {
  switch (kind) {
    case FabricTopologyKind::kParkingLot:
      return "parking_lot";
    case FabricTopologyKind::kLeafSpine:
      return "leaf_spine";
    case FabricTopologyKind::kFatTree:
      return "fat_tree";
    case FabricTopologyKind::kWanRing:
      return "wan_ring";
  }
  return "unknown";
}

namespace {

/// The fabric plans no hybrid grouping, selective classes or per-port RED
/// coins, so every hop runs FIFO or WFQ over none, threshold, sharing or DT.
void validate_fabric_scheme(const SchemeConfig& scheme) {
  const ManagerKind m = scheme.manager;
  if (scheme.scheduler == SchedulerKind::kHybrid || m == ManagerKind::kSelectiveSharing ||
      m == ManagerKind::kRed || m == ManagerKind::kFred) {
    throw std::invalid_argument(std::string{"the fabric runs fifo or wfq over none, threshold, "
                                            "sharing or dt at every hop, not "} +
                                to_string(scheme.scheduler) + "+" + to_string(m));
  }
}

/// Host-pair cross traffic for the multi-path shapes: host i sends to the
/// host "half the population away", a fixed derangement that forces most
/// pairs through the fabric tier.
void bind_host_pairs(const std::vector<NodeId>& hosts, FabricScenario& sc) {
  const std::size_t n = hosts.size();
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t peer = (i + n / 2) % n;
    if (peer == i) peer = (i + 1) % n;
    const auto flow = static_cast<FlowId>(sc.bindings.size());
    sc.bindings.push_back(FlowBinding{.flow = flow,
                                      .src = hosts[i],
                                      .dst = hosts[peer],
                                      .spec = FlowSpec{Rate::zero(), ByteSize::zero()},
                                      .guaranteed = false});
    sc.cross.push_back(flow);
  }
}

}  // namespace

FabricScenario build_fabric_scenario(const FabricConfig& config) {
  validate_fabric_scheme(config.scheme);
  const LinkParams lp{config.link_rate, config.propagation, config.buffer};
  FabricScenario sc;
  const FlowSpec premium_spec{config.premium_rate,
                              ByteSize::bytes(2 * config.packet_bytes)};

  switch (config.topology) {
    case FabricTopologyKind::kParkingLot: {
      assert(config.size >= 2);
      ParkingLotFabric f = make_parking_lot(config.size, lp, lp);
      sc.bindings.push_back(FlowBinding{
          .flow = 0, .src = f.routers.front(), .dst = f.sink, .spec = premium_spec,
          .guaranteed = true});
      // One greedy cross flow per managed link of the premium path: flow j
      // enters at r_j, leaves one hop later (the last one at the sink).
      for (std::size_t j = 0; j + 1 < f.routers.size(); ++j) {
        const auto flow = static_cast<FlowId>(sc.bindings.size());
        sc.bindings.push_back(FlowBinding{.flow = flow,
                                          .src = f.routers[j],
                                          .dst = f.exit_hosts[j],
                                          .spec = FlowSpec{Rate::zero(), ByteSize::zero()},
                                          .guaranteed = false});
        sc.cross.push_back(flow);
      }
      const auto last = static_cast<FlowId>(sc.bindings.size());
      sc.bindings.push_back(FlowBinding{.flow = last,
                                        .src = f.routers.back(),
                                        .dst = f.sink,
                                        .spec = FlowSpec{Rate::zero(), ByteSize::zero()},
                                        .guaranteed = false});
      sc.cross.push_back(last);
      sc.topo = std::move(f.topo);
      break;
    }
    case FabricTopologyKind::kLeafSpine: {
      assert(config.size >= 2);
      assert(config.hosts_per_leaf >= 1);
      LeafSpineFabric f = make_leaf_spine(config.size, config.size, config.hosts_per_leaf, lp, lp);
      sc.bindings.push_back(FlowBinding{.flow = 0,
                                        .src = f.hosts.front(),
                                        .dst = f.hosts.back(),
                                        .spec = premium_spec,
                                        .guaranteed = true});
      bind_host_pairs(f.hosts, sc);
      sc.topo = std::move(f.topo);
      break;
    }
    case FabricTopologyKind::kFatTree: {
      assert(config.size >= 2 && config.size % 2 == 0);
      FatTreeFabric f = make_fat_tree(config.size, lp, lp);
      sc.bindings.push_back(FlowBinding{.flow = 0,
                                        .src = f.hosts.front(),
                                        .dst = f.hosts.back(),
                                        .spec = premium_spec,
                                        .guaranteed = true});
      bind_host_pairs(f.hosts, sc);
      sc.topo = std::move(f.topo);
      break;
    }
    case FabricTopologyKind::kWanRing: {
      assert(config.size >= 3);
      WanRingFabric f = make_wan_ring(config.size, lp, lp);
      sc.bindings.push_back(
          FlowBinding{.flow = 0,
                      .src = f.hosts.front(),
                      .dst = f.hosts[static_cast<std::size_t>(config.size) / 2],
                      .spec = premium_spec,
                      .guaranteed = true});
      bind_host_pairs(f.hosts, sc);
      sc.topo = std::move(f.topo);
      break;
    }
  }

  sc.routes = RouteTable::shortest_paths(sc.topo);
  sc.plan = plan_fabric(sc.topo, sc.routes, sc.bindings, ByteSize::bytes(config.packet_bytes),
                        config.seed);
  return sc;
}

namespace {

/// Fabric analogue of expt's ExperimentEngine: the whole scenario as an
/// object so checkpoints can walk it in registry order.  Construction
/// produces the exact event sequence the old free function did.
class FabricEngine {
 public:
  explicit FabricEngine(const FabricConfig& config)
      : config_{config},
        sc_{build_fabric_scenario(config)},
        fabric_{sim_, sc_.topo, sc_.routes, sc_.plan, sc_.bindings, config.scheme},
        master_{config.seed},
        horizon_{config.warmup + config.duration} {
    assert(config.duration > Time::zero());
    fabric_.set_measure_from(config.warmup);

    // Export the planner's composed bound so sweep extractors (and the
    // bench JSON) can compare measured p100 against it without
    // re-planning.
    run_metrics_.registry()
        .gauge("fabric.premium_delay_bound_us")
        .set(std::llround(sc_.plan.flows[0].delay_bound_s * 1e6));
    run_metrics_.registry().gauge("fabric.plan_feasible").set(sc_.plan.feasible ? 1 : 0);

    sources_.reserve(sc_.bindings.size());
    sources_.push_back(std::make_unique<CbrSource>(sim_, fabric_.ingress(sc_.premium),
                                                   sc_.premium, config.premium_rate,
                                                   config.packet_bytes));
    for (const FlowId flow : sc_.cross) {
      if (config.topology == FabricTopologyKind::kParkingLot) {
        // The chain analogue of Example 1's greedy flow: full-load
        // arrivals at every hop, so the premium reservation is what keeps
        // it lossless.
        sources_.push_back(std::make_unique<GreedySource>(sim_, fabric_.ingress(flow), flow,
                                                          config.link_rate * config.load,
                                                          config.packet_bytes));
      } else {
        MarkovOnOffSource::Params p;
        p.flow = flow;
        p.peak_rate = config.link_rate;
        // 50 KB mean bursts at line rate; duty cycle = load / 2 so each
        // pair averages load * link_rate / 2.
        const double mean_on_s = 50e3 * 8.0 / config.link_rate.bps();
        const double duty = std::clamp(config.load / 2.0, 0.01, 0.95);
        p.mean_on = Time::from_seconds(mean_on_s);
        p.mean_off = Time::from_seconds(mean_on_s * (1.0 - duty) / duty);
        p.packet_bytes = config.packet_bytes;
        sources_.push_back(std::make_unique<MarkovOnOffSource>(
            sim_, fabric_.ingress(flow), p, master_.fork(static_cast<std::uint64_t>(flow))));
      }
    }
    for (const auto& source : sources_) source->start();

    warmup_pending_ = true;
    const auto snap_warmup = [this] {
      at_warmup_ = fabric_.stats().snapshot();
      warmup_pending_ = false;
    };
    static_assert(InlineAction::stores_inline<decltype(snap_warmup)>,
                  "warmup snapshot event must not allocate");
    warmup_seq_ = sim_.at(config.warmup, snap_warmup);
  }

  /// Marks this run as a parallel request that fell back to serial, so
  /// sweeps and benches can count (and alert on) silent de-scaling.
  void note_serial_fallback() {
    run_metrics_.registry().counter("parallel.serial_fallback").add();
  }

  void run_to_trigger(const CheckpointTrigger& trigger) {
    if (trigger.events > 0) {
      sim_.run_events_until(trigger.events, horizon_);
      return;
    }
    Time at = trigger.at == Time::zero() ? config_.warmup : trigger.at;
    if (at > horizon_) at = horizon_;
    sim_.run_until(at);
  }

  [[nodiscard]] std::uint64_t events_processed() const { return sim_.events_processed(); }
  [[nodiscard]] Time now() const { return sim_.now(); }

  [[nodiscard]] std::vector<std::byte> save() const {
    CheckpointWriter w;
    sim_.save_state(w);
    fabric_.save_state(w);
    for (const auto& source : sources_) source->save_state(w);

    w.begin_section("fabric");
    w.write_u64(at_warmup_.size());
    for (const auto& c : at_warmup_) {
      w.write_i64(c.offered_bytes);
      w.write_i64(c.delivered_bytes);
      w.write_i64(c.dropped_bytes);
      w.write_u64(c.offered_packets);
      w.write_u64(c.delivered_packets);
      w.write_u64(c.dropped_packets);
    }
    w.write_bool(warmup_pending_);
    w.write_u64(warmup_seq_);
    w.end_section();

    w.begin_section("registry");
    save_registry_snapshot(w, run_metrics_.registry().snapshot());
    w.end_section();

    w.begin_section("checker");
    w.write_u64(run_checker_.checker().checks_run());
    w.write_u64(run_checker_.checker().violation_count());
    w.end_section();

    return w.finish(fabric_fingerprint(config_));
  }

  void restore(std::span<const std::byte> blob) {
    CheckpointReader r{blob};
    r.require_scenario(fabric_fingerprint(config_));

    const std::uint64_t expected_pending = sim_.restore_state(r);
    fabric_.restore_state(r);
    for (const auto& source : sources_) source->restore_state(r);

    r.begin_section("fabric");
    at_warmup_.assign(static_cast<std::size_t>(r.read_u64()), FlowCounters{});
    for (auto& c : at_warmup_) {
      c.offered_bytes = r.read_i64();
      c.delivered_bytes = r.read_i64();
      c.dropped_bytes = r.read_i64();
      c.offered_packets = r.read_u64();
      c.delivered_packets = r.read_u64();
      c.dropped_packets = r.read_u64();
    }
    warmup_pending_ = r.read_bool();
    warmup_seq_ = r.read_u64();
    r.end_section();
    if (warmup_pending_) {
      sim_.rearm(config_.warmup, warmup_seq_, [this] {
        at_warmup_ = fabric_.stats().snapshot();
        warmup_pending_ = false;
      });
    }

    r.begin_section("registry");
    run_metrics_.registry().restore(load_registry_snapshot(r));
    r.end_section();

    r.begin_section("checker");
    const std::uint64_t checks_run = r.read_u64();
    const std::uint64_t violations = r.read_u64();
    r.end_section();
    run_checker_.checker().restore_tallies(checks_run, violations);

    if (!r.exhausted()) {
      throw CheckpointFormatError("checkpoint has trailing bytes after the last section");
    }
    if (sim_.events_pending() != expected_pending) {
      throw CheckpointError("restore re-armed " + std::to_string(sim_.events_pending()) +
                            " events, checkpoint recorded " + std::to_string(expected_pending));
    }
  }

  [[nodiscard]] ExperimentResult finish() {
    BUFQ_LINT_SUPPRESS("determinism-wall-clock", "sim.wall_ns is a wall-only metric excluded from the CSV determinism contract");
    const auto wall_start = std::chrono::steady_clock::now();
    sim_.run_until(horizon_);
    BUFQ_LINT_SUPPRESS("determinism-wall-clock", "sim.wall_ns is a wall-only metric excluded from the CSV determinism contract");
    const auto wall_end = std::chrono::steady_clock::now();
    const auto wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end - wall_start).count();
    run_metrics_.registry().counter("sim.wall_ns").add(static_cast<std::uint64_t>(wall_ns));

    const auto at_end = fabric_.stats().snapshot();
    ExperimentResult result;
    result.interval = config_.duration;
    result.checks_run = run_checker_.checker().checks_run();
    result.check_violations = run_checker_.checker().violation_count();
    result.metrics = run_metrics_.registry().snapshot();
    result.per_flow.reserve(at_end.size());
    for (std::size_t f = 0; f < at_end.size(); ++f) {
      result.per_flow.push_back(at_end[f] -
                                (f < at_warmup_.size() ? at_warmup_[f] : FlowCounters{}));
    }
    if (config_.record_delays) {
      const DelayRecorder& delays = fabric_.delays();
      result.delays.reserve(sc_.bindings.size());
      for (std::size_t f = 0; f < sc_.bindings.size(); ++f) {
        const auto flow = static_cast<FlowId>(f);
        result.delays.push_back(DelaySummary{
            .mean_s = delays.mean_delay(flow).to_seconds(),
            .max_s = delays.max_delay(flow).to_seconds(),
            .p50_s = delays.quantile(flow, 0.50).to_seconds(),
            .p99_s = delays.quantile(flow, 0.99).to_seconds(),
            .packets = delays.count(flow),
        });
      }
    }
    return result;
  }

 private:
  const FabricConfig& config_;
  // Same confinement discipline as expt::run_experiment: a run-private
  // checker and registry, constructed before any instrumented component.
  check::ScopedChecker run_checker_;
  obs::ScopedMetrics run_metrics_;
  FabricScenario sc_;
  Simulator sim_;
  Fabric fabric_;
  Rng master_;
  std::vector<std::unique_ptr<Source>> sources_;
  std::vector<FlowCounters> at_warmup_;
  bool warmup_pending_{false};
  std::uint64_t warmup_seq_{0};
  Time horizon_;
};

}  // namespace

std::uint64_t fabric_fingerprint(const FabricConfig& config) {
  FingerprintHasher h;
  h.mix_string("fabric");
  h.mix_u64(static_cast<std::uint64_t>(config.topology));
  h.mix_i64(config.size);
  h.mix_u64(static_cast<std::uint64_t>(config.scheme.scheduler));
  h.mix_u64(static_cast<std::uint64_t>(config.scheme.manager));
  h.mix_i64(config.scheme.headroom.count());
  h.mix_f64(config.scheme.dt_alpha);
  h.mix_f64(config.link_rate.bps());
  h.mix_i64(config.buffer.count());
  h.mix_time(config.propagation);
  h.mix_f64(config.load);
  h.mix_f64(config.premium_rate.bps());
  h.mix_time(config.warmup);
  h.mix_time(config.duration);
  h.mix_u64(config.seed);
  h.mix_i64(config.packet_bytes);
  h.mix_bool(config.record_delays);
  // hosts_per_leaf shapes the topology, so it is part of the scenario
  // identity; shards is an execution strategy with a bit-identical-output
  // contract, so it deliberately is not.
  h.mix_i64(config.hosts_per_leaf);
  return h.digest();
}

ExperimentResult run_fabric_experiment(const FabricConfig& config) {
  if (config.shards > 1) {
    const FabricScenario sc = build_fabric_scenario(config);
    const ShardPlan plan = shard_plan(sc.topo, config.shards);
    const ParallelViability viability = parallel_viability(config, plan);
    if (viability.viable) {
      return run_parallel_fabric_experiment(config, sc, plan);
    }
    // Loud fallback, never a silent wrong answer: conservative windows
    // need positive lookahead on every cut link.
    std::fprintf(stderr,
                 "bufq: --shards=%d requested for %s/size=%d but the run falls back to the "
                 "serial engine: %s\n",
                 config.shards, to_string(config.topology), config.size,
                 viability.reason.c_str());
    FabricEngine engine{config};
    engine.note_serial_fallback();
    return engine.finish();
  }
  FabricEngine engine{config};
  return engine.finish();
}

CheckpointedRun run_fabric_experiment_with_checkpoint(const FabricConfig& config,
                                                      const CheckpointTrigger& trigger) {
  if (config.shards > 1) {
    throw CheckpointShardingError(
        "checkpointing a sharded run (--shards=" + std::to_string(config.shards) +
        ") is not supported: per-shard calendars and boundary-channel state are not "
        "serialized; run serial (shards=1) to checkpoint");
  }
  FabricEngine engine{config};
  engine.run_to_trigger(trigger);
  CheckpointedRun run;
  run.checkpoint = engine.save();
  run.events_at_checkpoint = engine.events_processed();
  run.time_at_checkpoint = engine.now();
  run.result = engine.finish();
  return run;
}

ExperimentResult resume_fabric_experiment(const FabricConfig& config,
                                          std::span<const std::byte> checkpoint) {
  if (config.shards > 1) {
    throw CheckpointShardingError(
        "resuming into a sharded run (--shards=" + std::to_string(config.shards) +
        ") is not supported; resume serial (shards=1)");
  }
  FabricEngine engine{config};
  engine.restore(checkpoint);
  return engine.finish();
}

std::map<std::string, double> fabric_metrics(const ExperimentResult& result) {
  std::map<std::string, double> m;
  m["premium_mbps"] = result.flow_throughput_mbps(0);
  m["premium_loss"] =
      result.per_flow.empty() ? 0.0 : result.per_flow.front().loss_ratio();
  m["premium_p100_delay_ms"] =
      result.delays.empty() ? 0.0 : result.delays.front().max_s * 1e3;
  double bound_us = 0.0;
  if (const auto it = result.metrics.gauges.find("fabric.premium_delay_bound_us");
      it != result.metrics.gauges.end()) {
    bound_us = static_cast<double>(it->second.last);
  }
  m["premium_delay_bound_ms"] = bound_us * 1e-3;
  m["agg_mbps"] = result.aggregate_throughput_mbps();
  std::vector<FlowId> cross;
  for (std::size_t f = 1; f < result.per_flow.size(); ++f) {
    cross.push_back(static_cast<FlowId>(f));
  }
  m["cross_loss"] = cross.empty() ? 0.0 : result.loss_ratio(cross);
  return m;
}

SweepCase fabric_sweep_case(std::string label,
                            std::vector<std::pair<std::string, std::string>> params,
                            const FabricConfig& config) {
  SweepCase c;
  c.label = std::move(label);
  c.params = std::move(params);
  c.runner = [config](std::uint64_t seed) {
    FabricConfig run = config;
    run.seed = seed;
    return run_fabric_experiment(run);
  };
  c.checkpoint_runner = [config](std::uint64_t seed, const SweepCheckpointRequest& request) {
    FabricConfig run = config;
    run.seed = seed;
    switch (request.mode) {
      case SweepCheckpointMode::kOff:
        return run_fabric_experiment(run);
      case SweepCheckpointMode::kRoundtrip: {
        const CheckpointedRun ckpt = run_fabric_experiment_with_checkpoint(run, request.trigger);
        return resume_fabric_experiment(run, ckpt.checkpoint);
      }
      case SweepCheckpointMode::kWrite: {
        CheckpointedRun ckpt = run_fabric_experiment_with_checkpoint(run, request.trigger);
        write_checkpoint_file(request.path, ckpt.checkpoint);
        return std::move(ckpt.result);
      }
      case SweepCheckpointMode::kRead:
        return resume_fabric_experiment(run, read_checkpoint_file(request.path));
    }
    return run_fabric_experiment(run);  // unreachable
  };
  return c;
}

}  // namespace bufq::fabric
