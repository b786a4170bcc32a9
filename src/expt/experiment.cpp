#include "expt/experiment.h"

#include <cassert>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "check/invariants.h"
#include "obs/export.h"
#include "core/buffer_manager.h"
#include "core/threshold.h"
#include "sched/hybrid.h"
#include "sim/checkpoint.h"
#include "sim/inline_action.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "stats/delay.h"
#include "traffic/shaper.h"
#include "traffic/sources.h"
#include "util/annotations.h"
#include "util/rng.h"

namespace bufq {

double ExperimentResult::aggregate_throughput_mbps() const {
  std::int64_t delivered = 0;
  for (const auto& c : per_flow) delivered += c.delivered_bytes;
  return static_cast<double>(delivered) * 8.0 / interval.to_seconds() * 1e-6;
}

double ExperimentResult::utilization(Rate link_rate) const {
  return aggregate_throughput_mbps() / link_rate.mbps();
}

double ExperimentResult::flow_throughput_mbps(FlowId flow) const {
  assert(flow >= 0 && static_cast<std::size_t>(flow) < per_flow.size());
  const auto& c = per_flow[static_cast<std::size_t>(flow)];
  return static_cast<double>(c.delivered_bytes) * 8.0 / interval.to_seconds() * 1e-6;
}

double ExperimentResult::loss_ratio(const std::vector<FlowId>& flows) const {
  std::int64_t offered = 0;
  std::int64_t dropped = 0;
  for (FlowId f : flows) {
    assert(f >= 0 && static_cast<std::size_t>(f) < per_flow.size());
    offered += per_flow[static_cast<std::size_t>(f)].offered_bytes;
    dropped += per_flow[static_cast<std::size_t>(f)].dropped_bytes;
  }
  return offered > 0 ? static_cast<double>(dropped) / static_cast<double>(offered) : 0.0;
}

std::vector<FlowSpec> flow_specs(const std::vector<TrafficProfile>& flows) {
  std::vector<FlowSpec> specs;
  specs.reserve(flows.size());
  for (const auto& f : flows) {
    specs.push_back(FlowSpec{.rho = f.token_rate, .sigma = f.bucket});
  }
  return specs;
}

namespace {

/// The scheduler/manager pair for a scheme, with ownership of both.
struct Pipeline {
  std::unique_ptr<BufferManager> manager;
  std::unique_ptr<QueueDiscipline> discipline;
};

Pipeline build_pipeline(const ExperimentConfig& config) {
  const auto specs = flow_specs(config.flows);
  const std::size_t n = specs.size();
  Pipeline p;

  if (config.scheme.scheduler == SchedulerKind::kHybrid) {
    if (config.scheme.groups.empty()) {
      throw std::invalid_argument("hybrid scheme requires a flow grouping");
    }
    HybridBuilder builder{config.link_rate, config.buffer, specs, config.scheme.groups};
    std::unique_ptr<CompositeBufferManager> manager;
    if (config.scheme.manager == ManagerKind::kThreshold) {
      manager = builder.make_threshold_manager();
    } else if (config.scheme.manager == ManagerKind::kSharing) {
      manager = builder.make_sharing_manager(config.scheme.headroom);
    } else {
      throw std::invalid_argument(
          "hybrid scheme supports kThreshold or kSharing per-queue management");
    }
    p.discipline = builder.make_scheduler(*manager);
    p.manager = std::move(manager);
    return p;
  }

  SchemeConfig scheme = config.scheme;
  if (scheme.manager == ManagerKind::kSelectiveSharing && scheme.sharing_classes.empty()) {
    // Default policy: conformant (regulated) flows may adapt into the
    // excess space; unregulated ones are held to their reservation.
    scheme.sharing_classes.reserve(n);
    for (const auto& f : config.flows) {
      scheme.sharing_classes.push_back(f.regulated ? SharingClass::kAdaptive
                                                   : SharingClass::kBlocked);
    }
  }
  // Fixed partitioning scales its thresholds up to fill the buffer; the
  // sharing managers keep the analytic ones, whose slack is the shared
  // space.
  auto thresholds = compute_thresholds(specs, config.buffer, config.link_rate,
                                       scheme.manager == ManagerKind::kThreshold
                                           ? ThresholdScaling::kScaleToFill
                                           : ThresholdScaling::kExact);
  // Per-kind salts keep the RED and FRED drop coins independent streams.
  const std::uint64_t rng_seed =
      config.seed ^ (scheme.manager == ManagerKind::kFred ? 0xF4EDull : 0x0ED0ull);
  p.manager = make_manager(scheme, config.buffer, std::move(thresholds), rng_seed,
                           config.packet_bytes);

  std::vector<double> weights;
  weights.reserve(n);
  for (const auto& s : specs) weights.push_back(s.rho.bps());
  p.discipline = make_discipline(scheme.scheduler, *p.manager, config.link_rate, weights);
  return p;
}

/// The whole single-multiplexer pipeline as an object, so a checkpoint can
/// walk every component in a fixed registry order.  Construction wires the
/// exact event sequence run_experiment always produced: sources are built
/// (forking the master RNG in flow order) and started in flow order, then
/// the warmup snapshot is scheduled, then the optional metrics tick — the
/// interleaved construct-and-start of the old free function assigned the
/// same sequence numbers because construction schedules nothing.
class ExperimentEngine {
 public:
  explicit ExperimentEngine(const ExperimentConfig& config)
      : config_{config},
        pipeline_{build_pipeline(config)},
        link_{sim_, *pipeline_.discipline, config.link_rate},
        stats_{config.flows.size()},
        delays_{config.flows.size()},
        tap_{stats_, link_},
        master_{config.seed},
        horizon_{config.warmup + config.duration} {
    assert(!config.flows.empty());
    assert(config.duration > Time::zero());
    link_.set_delivery_handler([this](const Packet& p, Time t) {
      stats_.on_delivered(p, t);
      if (config_.record_delays && t >= config_.warmup) delays_.record(p, t);
    });
    pipeline_.discipline->set_drop_handler(
        [this](const Packet& p, Time t) { stats_.on_dropped(p, t); });

    // Sources and shapers; regulated flows pass through a leaky bucket
    // with their declared profile before being offered to the multiplexer.
    shapers_.reserve(config.flows.size());
    sources_.reserve(config.flows.size());
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      const auto& profile = config.flows[f];
      PacketSink* entry = &tap_;
      if (profile.regulated) {
        shapers_.push_back(std::make_unique<LeakyBucketShaper>(
            sim_, tap_, profile.bucket, profile.token_rate, profile.peak_rate));
        entry = shapers_.back().get();
      }
      auto params = MarkovOnOffSource::params_from_profile(static_cast<FlowId>(f), profile,
                                                           config.packet_bytes);
      params.on_distribution = config.burst_distribution;
      params.pareto_shape = config.pareto_shape;
      sources_.push_back(
          std::make_unique<MarkovOnOffSource>(sim_, *entry, params, master_.fork(f)));
      sources_.back()->start();
    }

    warmup_pending_ = true;
    const auto snap_warmup = [this] {
      at_warmup_ = stats_.snapshot();
      warmup_pending_ = false;
    };
    static_assert(InlineAction::stores_inline<decltype(snap_warmup)>,
                  "warmup snapshot event must not allocate");
    warmup_seq_ = sim_.at(config.warmup, snap_warmup);

    // Optional metrics time series: a self-rescheduling calendar event
    // samples the run registry every metrics_sample_period of simulated
    // time.
    if (config.metrics_csv != nullptr) {
      assert(config.metrics_sample_period > Time::zero());
      series_ =
          std::make_unique<obs::TimeSeriesCsv>(*config.metrics_csv, run_metrics_.registry());
      schedule_tick();
    }
  }

  /// Runs until `trigger` fires (capped at the horizon) without scheduling
  /// anything — an event-count trigger stops between events, a time
  /// trigger uses run_until's clock advance, so the event trajectory is
  /// exactly that of an uninterrupted run.
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

  /// Serializes every component in registry order: simulator, manager,
  /// discipline, link, stats, delays, shapers, sources, harness state,
  /// then the metrics registry and (last) the checker tallies.
  [[nodiscard]] std::vector<std::byte> save() const {
    CheckpointWriter w;
    sim_.save_state(w);
    pipeline_.manager->save_state(w);
    pipeline_.discipline->save_state(w);
    link_.save_state(w);
    stats_.save_state(w);
    delays_.save_state(w);
    for (std::size_t i = 0; i < shapers_.size(); ++i) shapers_[i]->save_state(w, i);
    for (const auto& source : sources_) source->save_state(w);

    w.begin_section("expt");
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
    w.write_bool(tick_pending_);
    w.write_time(tick_time_);
    w.write_u64(tick_seq_);
    w.end_section();

    w.begin_section("registry");
    save_registry_snapshot(w, run_metrics_.registry().snapshot());
    w.end_section();

    w.begin_section("checker");
    w.write_u64(run_checker_.checker().checks_run());
    w.write_u64(run_checker_.checker().violation_count());
    w.end_section();

    return w.finish(experiment_fingerprint(config_));
  }

  /// Mirrors save(): restores the simulator (which empties the calendar),
  /// lets every component rebuild state and re-arm its events, overwrites
  /// the metrics registry *after* the rebuilds (so construction-time
  /// recordings cannot double-count), restores the checker tallies last,
  /// and verifies the re-armed event count matches the snapshot.
  void restore(std::span<const std::byte> blob) {
    CheckpointReader r{blob};
    r.require_scenario(experiment_fingerprint(config_));

    const std::uint64_t expected_pending = sim_.restore_state(r);
    pipeline_.manager->restore_state(r);
    pipeline_.discipline->restore_state(r);
    link_.restore_state(r);
    stats_.restore_state(r);
    delays_.restore_state(r);
    for (std::size_t i = 0; i < shapers_.size(); ++i) shapers_[i]->restore_state(r, i);
    for (const auto& source : sources_) source->restore_state(r);

    r.begin_section("expt");
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
    tick_pending_ = r.read_bool();
    tick_time_ = r.read_time();
    tick_seq_ = r.read_u64();
    r.end_section();
    if (warmup_pending_) {
      sim_.rearm(config_.warmup, warmup_seq_, [this] {
        at_warmup_ = stats_.snapshot();
        warmup_pending_ = false;
      });
    }
    if (tick_pending_) {
      sim_.rearm(tick_time_, tick_seq_, [this] { metrics_tick(); });
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

  /// Runs to the horizon and assembles the result exactly as the original
  /// run_experiment free function did.
  [[nodiscard]] ExperimentResult finish() {
    BUFQ_LINT_SUPPRESS("determinism-wall-clock", "sim.wall_ns is a wall-only metric excluded from the CSV determinism contract");
    const auto wall_start = std::chrono::steady_clock::now();
    sim_.run_until(horizon_);
    BUFQ_LINT_SUPPRESS("determinism-wall-clock", "sim.wall_ns is a wall-only metric excluded from the CSV determinism contract");
    const auto wall_end = std::chrono::steady_clock::now();
    const auto wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end - wall_start).count();
    run_metrics_.registry().counter("sim.wall_ns").add(static_cast<std::uint64_t>(wall_ns));

    const auto at_end = stats_.snapshot();
    ExperimentResult result;
    result.interval = config_.duration;
    result.checks_run = run_checker_.checker().checks_run();
    result.check_violations = run_checker_.checker().violation_count();
    result.metrics = run_metrics_.registry().snapshot();
    result.per_flow.reserve(at_end.size());
    for (std::size_t f = 0; f < at_end.size(); ++f) {
      result.per_flow.push_back(at_end[f] - at_warmup_[f]);
    }
    if (config_.record_delays) {
      result.delays.reserve(config_.flows.size());
      for (std::size_t f = 0; f < config_.flows.size(); ++f) {
        const auto flow = static_cast<FlowId>(f);
        result.delays.push_back(DelaySummary{
            .mean_s = delays_.mean_delay(flow).to_seconds(),
            .max_s = delays_.max_delay(flow).to_seconds(),
            .p50_s = delays_.quantile(flow, 0.50).to_seconds(),
            .p99_s = delays_.quantile(flow, 0.99).to_seconds(),
            .packets = delays_.count(flow),
        });
      }
    }
    return result;
  }

 private:
  void metrics_tick() {
    tick_pending_ = false;
    if (series_) series_->sample(sim_.now());
    if (sim_.now() < horizon_) schedule_tick();
  }

  void schedule_tick() {
    tick_pending_ = true;
    tick_time_ = sim_.now() + config_.metrics_sample_period;
    const auto tick = [this] { metrics_tick(); };
    static_assert(InlineAction::stores_inline<decltype(tick)>,
                  "metrics tick event must not allocate");
    tick_seq_ = sim_.in(config_.metrics_sample_period, tick);
  }

  const ExperimentConfig& config_;
  // Confine the invariant audit to this run: BUFQ_CHECK sites report to a
  // run-private checker (no shared sink between pool workers), whose
  // tallies are folded back into the enclosing checker on destruction.
  check::ScopedChecker run_checker_;
  // Same confinement for metrics: everything below resolves its handles
  // against this run-private registry (which is why it must precede the
  // Simulator/pipeline members); tallies fold into the enclosing registry
  // on destruction.
  obs::ScopedMetrics run_metrics_;
  Simulator sim_;
  Pipeline pipeline_;
  Link link_;
  StatsCollector stats_;
  DelayRecorder delays_;
  OfferedTrafficTap tap_;
  Rng master_;
  std::vector<std::unique_ptr<LeakyBucketShaper>> shapers_;
  std::vector<std::unique_ptr<MarkovOnOffSource>> sources_;
  std::vector<FlowCounters> at_warmup_;
  bool warmup_pending_{false};
  std::uint64_t warmup_seq_{0};
  Time horizon_;
  std::unique_ptr<obs::TimeSeriesCsv> series_;
  bool tick_pending_{false};
  Time tick_time_{Time::zero()};
  std::uint64_t tick_seq_{0};
};

}  // namespace

std::uint64_t experiment_fingerprint(const ExperimentConfig& config) {
  FingerprintHasher h;
  h.mix_string("expt");
  h.mix_f64(config.link_rate.bps());
  h.mix_i64(config.buffer.count());
  h.mix_u64(config.flows.size());
  for (const auto& f : config.flows) {
    h.mix_f64(f.peak_rate.bps());
    h.mix_f64(f.avg_rate.bps());
    h.mix_i64(f.bucket.count());
    h.mix_f64(f.token_rate.bps());
    h.mix_i64(f.mean_burst.count());
    h.mix_bool(f.regulated);
  }
  h.mix_u64(static_cast<std::uint64_t>(config.scheme.scheduler));
  h.mix_u64(static_cast<std::uint64_t>(config.scheme.manager));
  h.mix_i64(config.scheme.headroom.count());
  h.mix_u64(config.scheme.groups.size());
  for (const auto& group : config.scheme.groups) {
    h.mix_u64(group.size());
    for (const FlowId flow : group) h.mix_i64(flow);
  }
  h.mix_u64(config.scheme.sharing_classes.size());
  for (const SharingClass c : config.scheme.sharing_classes) {
    h.mix_u64(static_cast<std::uint64_t>(c));
  }
  h.mix_f64(config.scheme.dt_alpha);
  h.mix_f64(config.scheme.red_min_fraction);
  h.mix_f64(config.scheme.red_max_fraction);
  h.mix_f64(config.scheme.red_max_p);
  h.mix_time(config.warmup);
  h.mix_time(config.duration);
  h.mix_u64(config.seed);
  h.mix_i64(config.packet_bytes);
  h.mix_bool(config.record_delays);
  h.mix_u64(static_cast<std::uint64_t>(config.burst_distribution));
  h.mix_f64(config.pareto_shape);
  h.mix_bool(config.metrics_csv != nullptr);
  h.mix_time(config.metrics_sample_period);
  return h.digest();
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  ExperimentEngine engine{config};
  return engine.finish();
}

CheckpointedRun run_experiment_with_checkpoint(const ExperimentConfig& config,
                                               const CheckpointTrigger& trigger) {
  ExperimentEngine engine{config};
  engine.run_to_trigger(trigger);
  CheckpointedRun run;
  run.checkpoint = engine.save();
  run.events_at_checkpoint = engine.events_processed();
  run.time_at_checkpoint = engine.now();
  run.result = engine.finish();
  return run;
}

ExperimentResult resume_experiment(const ExperimentConfig& config,
                                   std::span<const std::byte> checkpoint) {
  ExperimentEngine engine{config};
  engine.restore(checkpoint);
  return engine.finish();
}

}  // namespace bufq
