// Traced mode: spans recorded from the benchmark's side of each layer
// boundary, timing decorators over the public QueueDiscipline /
// BufferManager / PacketSink interfaces, and the layer probes (calendar
// hold model, admission rounds, fabric build, pinned sharded legs).
// Nothing here reaches inside the library; every span wraps a call into
// a public function.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "admission/admission_controller.h"
#include "admission/dynamic_manager.h"
#include "admission/flow_table.h"
#include "expt/experiment.h"
#include "util/rng.h"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

/// Median of `values` (copied; the caller's order is kept); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);
/// Quantile q in [0, 1] by linear interpolation between order statistics.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Spans kept in memory: each named span accumulates the self time of
/// every call (its duration minus the part its child spans cover), so a
/// layer's p50 excludes the layers it calls into.  Spans nest through a
/// stack; the time covered by outermost spans is what the trace
/// attributes to some layer.
class SpanBook {
 public:
  /// Index of a span name, registering it on first use.
  int id(const std::string& name);
  void begin(int id);
  void end();

  [[nodiscard]] std::uint64_t count(const std::string& name) const;
  /// p50 of per-call self time in ns, interpolated inside its 1 ns bin;
  /// 0 when the span never ran.
  [[nodiscard]] double self_p50_ns(const std::string& name) const;
  [[nodiscard]] double self_total_ns(const std::string& name) const;
  /// Wall time covered by outermost spans.
  [[nodiscard]] std::int64_t attributed_ns() const { return attributed_ns_; }

 private:
  struct Frame {
    int id;
    std::int64_t start;
    std::int64_t child;
  };
  [[nodiscard]] const std::vector<std::uint32_t>* samples(const std::string& name) const;

  std::vector<std::string> names_;
  std::vector<std::vector<std::uint32_t>> self_ns_;
  std::vector<Frame> stack_;
  std::int64_t attributed_ns_{0};
};

/// RAII span.
class Span {
 public:
  Span(SpanBook& book, int id) : book_{book} { book_.begin(id); }
  ~Span() { book_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanBook& book_;
};

/// p50 self time of an empty span: the clock cost inside every span.
[[nodiscard]] double span_floor_ns();

/// Result of one decorated Table-1 link run.
struct LinkTrace {
  std::vector<bufq::FlowCounters> per_flow;
  bufq::obs::RegistrySnapshot metrics;
  std::uint64_t admit_attempts{0};
  std::uint64_t admit_accepts{0};
};

/// Runs `config` through the same single-link pipeline run_experiment
/// builds (sources -> shapers -> offered tap -> scheduler + manager ->
/// link -> stats, same construction order, so the same event sequence),
/// with timing decorators on the shaper, tap, scheduler, manager and
/// delivery path.  Span names: traffic.shaper_accept,
/// stats.on_offered, stats.on_delivered, sched.<kind>.enqueue/dequeue,
/// core.<manager>.try_admit, core.release.
[[nodiscard]] LinkTrace run_traced_link(const bufq::ExperimentConfig& config, SpanBook& book);

/// Calendar hold model on the public CalendarQueue: `depth` resident
/// events, each pop re-files one event an exponential increment later.
/// Returns the median ns per hold over fixed batches.
[[nodiscard]] double hold_ns_per_event(std::size_t depth, std::uint64_t seed);

/// Operations per traced span in admission rounds.
inline constexpr std::size_t kOpsPerSpan = 16;
/// Checks per decision in every admission round (reads beside writes).
inline constexpr std::size_t kChecksPerDecision = 4;

/// The million-flow admission state: a FlowTable of `flows` resident
/// flows over four interned service classes, the admission controller
/// that guards it, and a Prop-2 per-packet checker over the table.
class AdmissionState {
 public:
  /// Builds the table and fills it to `flows` resident flows; refused()
  /// counts admits the controller refused, during the fill and after.
  AdmissionState(std::size_t flows, std::uint64_t seed);

  /// One round: `decisions` teardown + admit round trips, each group of
  /// kOpsPerSpan followed by kChecksPerDecision times as many per-packet
  /// checks; every group of kOpsPerSpan operations runs under one span
  /// (admission.decisions or admission.checks).
  void round(std::size_t decisions, SpanBook& book);
  /// Mean cost of one AdmissionController operation (release
  /// or try_admit), timed over `round_trips` release + re-admit pairs that
  /// leave the reservations unchanged.
  [[nodiscard]] double controller_ns_per_op(std::size_t round_trips);

  [[nodiscard]] std::size_t resident() const { return table_.active_count(); }
  [[nodiscard]] std::uint64_t refused() const { return refused_; }

 private:
  /// One teardown + admit round trip on a random resident victim.
  void decide();
  /// One per-packet threshold check on a random resident flow (admit
  /// and, when accepted, release the packet).
  void check();

  std::size_t flows_;
  bufq::admission::FlowTable table_;
  bufq::admission::AdmissionController controller_;
  std::vector<bufq::FlowSpec> profiles_;
  std::vector<bufq::admission::ClassId> classes_;
  std::vector<bufq::admission::FlowHandle> handles_;
  std::vector<std::uint8_t> profile_of_;
  bufq::admission::DynamicBufferManager manager_;
  bufq::Rng rng_;
  std::uint64_t decisions_{0};
  std::uint64_t refused_{0};
};

/// Restricts the calling thread (and threads it creates afterwards) to
/// the last `cpus` CPUs it may run on; restores the previous mask on
/// destruction.  ok() is false, and nothing changes, when fewer CPUs are
/// allowed.
class CpuPin {
 public:
  explicit CpuPin(int cpus);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  struct Mask;
  std::unique_ptr<Mask> saved_;
  bool ok_{false};
};

/// CPU time of the whole process, in ns.
[[nodiscard]] std::int64_t process_cpu_ns();

/// Peak resident set of this process, in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
