#include "layers.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/buffer_manager.h"
#include "core/sharing.h"
#include "core/threshold.h"
#include "sched/fifo.h"
#include "sched/hybrid.h"
#include "sched/wfq.h"
#include "sim/queue_discipline.h"
#include "sim/calendar_queue.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "stats/collector.h"
#include "traffic/shaper.h"
#include "traffic/sources.h"

namespace perfbench {

using namespace bufq;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// ---------------------------------------------------------------- spans

int SpanBook::id(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  self_ns_.emplace_back();
  return static_cast<int>(names_.size() - 1);
}

void SpanBook::begin(int id) { stack_.push_back(Frame{id, now_ns(), 0}); }

void SpanBook::end() {
  const std::int64_t t = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = t - f.start;
  const std::int64_t self = std::max<std::int64_t>(0, duration - f.child);
  self_ns_[static_cast<std::size_t>(f.id)].push_back(static_cast<std::uint32_t>(
      std::min<std::int64_t>(self, std::numeric_limits<std::uint32_t>::max())));
  if (stack_.empty()) {
    attributed_ns_ += duration;
  } else {
    stack_.back().child += duration;
  }
}

const std::vector<std::uint32_t>* SpanBook::samples(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return &self_ns_[i];
  }
  return nullptr;
}

std::uint64_t SpanBook::count(const std::string& name) const {
  const auto* s = samples(name);
  return s == nullptr ? 0 : s->size();
}

double SpanBook::self_p50_ns(const std::string& name) const {
  const auto* s = samples(name);
  if (s == nullptr || s->empty()) return 0.0;
  std::vector<std::uint32_t> v = *s;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  const std::uint32_t m = *mid;
  // Samples are whole nanoseconds, so interpolate inside the 1 ns bin
  // that holds the median (the grouped-data median): the estimate then
  // moves with the whole distribution, not in steps of one nanosecond.
  const auto below = static_cast<double>(
      std::count_if(v.begin(), v.end(), [m](std::uint32_t x) { return x < m; }));
  const auto equal = static_cast<double>(std::count(v.begin(), v.end(), m));
  return static_cast<double>(m) - 0.5 + (static_cast<double>(v.size()) / 2.0 - below) / equal;
}

double SpanBook::self_total_ns(const std::string& name) const {
  const auto* s = samples(name);
  double total = 0.0;
  if (s != nullptr) {
    for (const std::uint32_t v : *s) total += v;
  }
  return total;
}

double span_floor_ns() {
  SpanBook book;
  const int id = book.id("empty");
  for (int i = 0; i < 100000; ++i) Span span{book, id};
  return book.self_p50_ns("empty");
}

// ----------------------------------------------------------- decorators

namespace {

class TimedManager final : public BufferManager {
 public:
  TimedManager(std::unique_ptr<BufferManager> inner, SpanBook& book, const std::string& kind,
               LinkTrace& out)
      : inner_{std::move(inner)},
        book_{book},
        admit_id_{book.id("core." + kind + ".try_admit")},
        release_id_{book.id("core.release")},
        out_{out} {}

  bool try_admit(FlowId flow, std::int64_t bytes, Time now) override {
    bool ok = false;
    {
      Span span{book_, admit_id_};
      ok = inner_->try_admit(flow, bytes, now);
    }
    ++out_.admit_attempts;
    if (ok) ++out_.admit_accepts;
    return ok;
  }
  void release(FlowId flow, std::int64_t bytes, Time now) override {
    Span span{book_, release_id_};
    inner_->release(flow, bytes, now);
  }
  std::int64_t occupancy(FlowId flow) const override { return inner_->occupancy(flow); }
  std::int64_t total_occupancy() const override { return inner_->total_occupancy(); }
  ByteSize capacity() const override { return inner_->capacity(); }
  void save_state(CheckpointWriter& w) const override { inner_->save_state(w); }
  void restore_state(CheckpointReader& r) override { inner_->restore_state(r); }

 private:
  std::unique_ptr<BufferManager> inner_;
  SpanBook& book_;
  int admit_id_;
  int release_id_;
  LinkTrace& out_;
};

class TimedDiscipline final : public QueueDiscipline {
 public:
  TimedDiscipline(std::unique_ptr<QueueDiscipline> inner, SpanBook& book,
                  const std::string& kind)
      : inner_{std::move(inner)},
        book_{book},
        enqueue_id_{book.id("sched." + kind + ".enqueue")},
        dequeue_id_{book.id("sched." + kind + ".dequeue")} {}

  bool enqueue(const Packet& packet, Time now) override {
    Span span{book_, enqueue_id_};
    return inner_->enqueue(packet, now);
  }
  std::optional<Packet> dequeue(Time now) override {
    Span span{book_, dequeue_id_};
    return inner_->dequeue(now);
  }
  bool empty() const override { return inner_->empty(); }
  std::int64_t backlog_bytes() const override { return inner_->backlog_bytes(); }
  void set_drop_handler(DropHandler handler) override {
    inner_->set_drop_handler(std::move(handler));
  }
  void save_state(CheckpointWriter& w) const override { inner_->save_state(w); }
  void restore_state(CheckpointReader& r) override { inner_->restore_state(r); }

 private:
  std::unique_ptr<QueueDiscipline> inner_;
  SpanBook& book_;
  int enqueue_id_;
  int dequeue_id_;
};

class TimedSink final : public PacketSink {
 public:
  TimedSink(PacketSink& inner, SpanBook& book, int id) : inner_{inner}, book_{book}, id_{id} {}
  void accept(const Packet& packet) override {
    Span span{book_, id_};
    inner_.accept(packet);
  }

 private:
  PacketSink& inner_;
  SpanBook& book_;
  int id_;
};

/// OfferedTrafficTap with the stats call under its own span.
class TimedTap final : public PacketSink {
 public:
  TimedTap(StatsCollector& stats, PacketSink& downstream, SpanBook& book)
      : stats_{stats}, downstream_{downstream}, book_{book}, id_{book.id("stats.on_offered")} {}
  void accept(const Packet& packet) override {
    {
      Span span{book_, id_};
      stats_.on_offered(packet);
    }
    downstream_.accept(packet);
  }

 private:
  StatsCollector& stats_;
  PacketSink& downstream_;
  SpanBook& book_;
  int id_;
};

const char* scheduler_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo: return "fifo";
    case SchedulerKind::kWfq: return "wfq";
    case SchedulerKind::kHybrid: return "hybrid";
  }
  return "unknown";
}

const char* manager_name(ManagerKind kind) {
  switch (kind) {
    case ManagerKind::kNone: return "none";
    case ManagerKind::kThreshold: return "threshold";
    case ManagerKind::kSharing: return "sharing";
    default: return "other";
  }
}

struct TimedPipeline {
  std::unique_ptr<TimedManager> manager;
  std::unique_ptr<TimedDiscipline> discipline;
};

/// Mirrors the library's build_pipeline for the schemes the fig_link grid
/// uses, with the manager and the scheduler behind timing decorators.
TimedPipeline build_timed_pipeline(const ExperimentConfig& config, SpanBook& book,
                                   LinkTrace& out) {
  const auto specs = flow_specs(config.flows);
  const std::string mgr = manager_name(config.scheme.manager);
  TimedPipeline p;
  std::unique_ptr<QueueDiscipline> scheduler;
  if (config.scheme.scheduler == SchedulerKind::kHybrid) {
    HybridBuilder builder{config.link_rate, config.buffer, specs, config.scheme.groups};
    std::unique_ptr<BufferManager> composite;
    if (config.scheme.manager == ManagerKind::kThreshold) {
      composite = builder.make_threshold_manager();
    } else if (config.scheme.manager == ManagerKind::kSharing) {
      composite = builder.make_sharing_manager(config.scheme.headroom);
    } else {
      throw std::invalid_argument("traced hybrid supports threshold or sharing");
    }
    p.manager = std::make_unique<TimedManager>(std::move(composite), book, mgr, out);
    scheduler = builder.make_scheduler(*p.manager);
  } else {
    std::unique_ptr<BufferManager> inner;
    switch (config.scheme.manager) {
      case ManagerKind::kNone:
        inner = std::make_unique<TailDropManager>(config.buffer, specs.size());
        break;
      case ManagerKind::kThreshold:
        inner = std::make_unique<ThresholdManager>(config.buffer, config.link_rate, specs);
        break;
      case ManagerKind::kSharing:
        inner = std::make_unique<BufferSharingManager>(config.buffer, config.link_rate, specs,
                                                       config.scheme.headroom);
        break;
      default:
        throw std::invalid_argument("traced link supports none, threshold or sharing");
    }
    p.manager = std::make_unique<TimedManager>(std::move(inner), book, mgr, out);
    if (config.scheme.scheduler == SchedulerKind::kFifo) {
      scheduler = std::make_unique<FifoScheduler>(*p.manager);
    } else {
      std::vector<double> weights;
      weights.reserve(specs.size());
      for (const auto& s : specs) weights.push_back(s.rho.bps());
      scheduler = std::make_unique<WfqScheduler>(*p.manager, config.link_rate, std::move(weights));
    }
  }
  p.discipline = std::make_unique<TimedDiscipline>(std::move(scheduler), book,
                                                   scheduler_name(config.scheme.scheduler));
  return p;
}

}  // namespace

LinkTrace run_traced_link(const ExperimentConfig& config, SpanBook& book) {
  LinkTrace out;
  obs::ScopedMetrics run_metrics;
  Simulator sim;
  TimedPipeline pipeline = build_timed_pipeline(config, book, out);
  Link link{sim, *pipeline.discipline, config.link_rate};
  StatsCollector stats{config.flows.size()};
  TimedTap tap{stats, link, book};
  const int delivered_id = book.id("stats.on_delivered");
  const int shaper_id = book.id("traffic.shaper_accept");
  link.set_delivery_handler([&](const Packet& p, Time t) {
    Span span{book, delivered_id};
    stats.on_delivered(p, t);
  });
  pipeline.discipline->set_drop_handler([&](const Packet& p, Time t) { stats.on_dropped(p, t); });

  Rng master{config.seed};
  std::vector<std::unique_ptr<LeakyBucketShaper>> shapers;
  std::vector<std::unique_ptr<TimedSink>> shaper_entries;
  std::vector<std::unique_ptr<MarkovOnOffSource>> sources;
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const auto& profile = config.flows[f];
    PacketSink* entry = &tap;
    if (profile.regulated) {
      shapers.push_back(std::make_unique<LeakyBucketShaper>(sim, tap, profile.bucket,
                                                            profile.token_rate,
                                                            profile.peak_rate));
      shaper_entries.push_back(std::make_unique<TimedSink>(*shapers.back(), book, shaper_id));
      entry = shaper_entries.back().get();
    }
    auto params = MarkovOnOffSource::params_from_profile(static_cast<FlowId>(f), profile,
                                                         config.packet_bytes);
    params.on_distribution = config.burst_distribution;
    params.pareto_shape = config.pareto_shape;
    sources.push_back(std::make_unique<MarkovOnOffSource>(sim, *entry, params, master.fork(f)));
    sources.back()->start();
  }
  // The library schedules its warmup snapshot right after the sources
  // start; an identical no-op keeps the sequence numbers (and so the
  // tie-break order) the same.
  std::vector<FlowCounters> at_warmup;
  sim.at(config.warmup, [&at_warmup, &stats] { at_warmup = stats.snapshot(); });
  sim.run_until(config.warmup + config.duration);

  const auto at_end = stats.snapshot();
  if (at_warmup.size() != at_end.size()) at_warmup.assign(at_end.size(), FlowCounters{});
  for (std::size_t f = 0; f < at_end.size(); ++f) out.per_flow.push_back(at_end[f] - at_warmup[f]);
  out.metrics = run_metrics.registry().snapshot();
  return out;
}

// ---------------------------------------------------------- hold model

double hold_ns_per_event(std::size_t depth, std::uint64_t seed) {
  // Increments average 1 ms of simulated time, the fabric's propagation
  // delay: the regime in which calendars grow deep.
  constexpr double kMeanIncrementNs = 1e6;
  constexpr std::size_t kBatches = 9;
  const std::size_t batch = std::max<std::size_t>(depth, 1u << 16);
  Rng rng{seed};
  CalendarQueue calendar;
  std::uint64_t seq = 0;
  std::uint64_t fired = 0;
  const auto action = [&fired] { ++fired; };
  for (std::size_t i = 0; i < depth; ++i) {
    const auto t = Time::nanoseconds(static_cast<std::int64_t>(rng.exponential(kMeanIncrementNs)));
    calendar.push(CalendarQueue::Event{t, seq++, action});
  }
  const auto hold = [&] {
    CalendarQueue::Event ev = calendar.pop_min();
    ev.action();
    const auto dt = Time::nanoseconds(static_cast<std::int64_t>(rng.exponential(kMeanIncrementNs)));
    calendar.push(CalendarQueue::Event{ev.time + dt, seq++, action});
  };
  // One full turnover first, so every resize the depth triggers is done.
  for (std::size_t i = 0; i < batch; ++i) hold();
  std::vector<double> per_hold;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < batch; ++i) hold();
    per_hold.push_back(static_cast<double>(now_ns() - start) / static_cast<double>(batch));
  }
  if (fired == 0 || calendar.size() != depth) throw std::logic_error("hold model lost events");
  return median(per_hold);
}

// ------------------------------------------------------------ admission

namespace {

// Four service profiles; feasible by eq. 10 at 1e6 resident flows on an
// 800 Gb/s link with a 40 GB buffer (sum(rho) ~ 340 Gb/s).
std::vector<FlowSpec> service_profiles() {
  return {
      {Rate::kilobits_per_second(16.0), ByteSize::bytes(1500)},
      {Rate::kilobits_per_second(64.0), ByteSize::kilobytes(4.0)},
      {Rate::kilobits_per_second(256.0), ByteSize::kilobytes(16.0)},
      {Rate::kilobits_per_second(1024.0), ByteSize::kilobytes(64.0)},
  };
}

constexpr std::int64_t kPacketBytes = 1500;

}  // namespace

AdmissionState::AdmissionState(std::size_t flows, std::uint64_t seed)
    : flows_{flows},
      table_{flows},
      controller_{{
          .scheme = admission::Scheme::kFifoThreshold,
          .link_rate = Rate::gigabits_per_second(800.0),
          .buffer = ByteSize::megabytes(40960.0),
      }},
      profiles_{service_profiles()},
      handles_(flows),
      profile_of_(flows),
      manager_{ByteSize::megabytes(40960.0), table_,
               admission::DynamicBufferManager::Policy::kThreshold},
      rng_{seed} {
  for (const auto& p : profiles_) {
    classes_.push_back(table_.classes().intern(p, controller_.threshold_bytes(p)));
  }
  for (std::size_t i = 0; i < flows_; ++i) {
    const std::size_t p = i & 3;
    if (controller_.try_admit(profiles_[p]) != AdmissionVerdict::kAccepted) ++refused_;
    handles_[i] = table_.admit_class(classes_[p]);
    profile_of_[i] = static_cast<std::uint8_t>(p);
  }
}

void AdmissionState::decide() {
  const std::size_t victim = rng_.uniform_u64(flows_);
  controller_.release(profiles_[profile_of_[victim]]);
  table_.teardown(handles_[victim]);
  const std::size_t p = decisions_++ & 3;
  if (controller_.try_admit(profiles_[p]) != AdmissionVerdict::kAccepted) ++refused_;
  handles_[victim] = table_.admit_class(classes_[p]);
  profile_of_[victim] = static_cast<std::uint8_t>(p);
}

void AdmissionState::check() {
  const auto flow = static_cast<FlowId>(rng_.uniform_u64(flows_));
  if (manager_.try_admit(flow, kPacketBytes, Time::zero())) {
    manager_.release(flow, kPacketBytes, Time::zero());
  }
}

void AdmissionState::round(std::size_t decisions, SpanBook& book) {
  // One span per kOpsPerSpan operations keeps the two clock reads a small
  // share of each span.
  const int decision_id = book.id("admission.decisions");
  const int check_id = book.id("admission.checks");
  for (std::size_t g = 0; g < decisions / kOpsPerSpan; ++g) {
    {
      Span span{book, decision_id};
      for (std::size_t i = 0; i < kOpsPerSpan; ++i) decide();
    }
    for (std::size_t c = 0; c < kChecksPerDecision; ++c) {
      Span span{book, check_id};
      for (std::size_t i = 0; i < kOpsPerSpan; ++i) check();
    }
  }
}

double AdmissionState::controller_ns_per_op(std::size_t round_trips) {
  SpanBook book;
  const int id = book.id("admission.controller");
  for (std::size_t g = 0; g < round_trips / kOpsPerSpan; ++g) {
    Span span{book, id};
    for (std::size_t i = 0; i < kOpsPerSpan; ++i) {
      const FlowSpec& profile = profiles_[i & 3];
      controller_.release(profile);
      if (controller_.try_admit(profile) != AdmissionVerdict::kAccepted) ++refused_;
    }
  }
  // A round trip is two controller operations: release, then try_admit.
  const auto ops = static_cast<double>(2 * book.count("admission.controller") * kOpsPerSpan);
  return ops > 0 ? book.self_total_ns("admission.controller") / ops : 0.0;
}

// -------------------------------------------------------- CPUs, memory

struct CpuPin::Mask {
  cpu_set_t set;
};

CpuPin::CpuPin(int cpus) : saved_{std::make_unique<Mask>()} {
  if (sched_getaffinity(0, sizeof(cpu_set_t), &saved_->set) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int taken = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && taken < cpus; --c) {
    if (CPU_ISSET(c, &saved_->set)) {
      CPU_SET(c, &pinned);
      ++taken;
    }
  }
  ok_ = taken == cpus && sched_setaffinity(0, sizeof(cpu_set_t), &pinned) == 0;
}

CpuPin::~CpuPin() { sched_setaffinity(0, sizeof(cpu_set_t), &saved_->set); }

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
