// Observability: low-overhead metrics for the hot paths.
//
// A `MetricsRegistry` owns named counters, gauges, and fixed-bucket
// log2-linear (HDR-style) histograms.  Recording is O(1), lock-free
// (relaxed atomics), and allocation-free; the registry mutex is taken only
// on the cold registration path.  Instrumented components capture null-safe
// *handles* at construction time from `MetricsRegistry::current()`: when no
// registry is installed every record is a single predictable branch, so
// un-observed runs pay essentially nothing and no build flag is needed.
// Wall-clock timing of the hot paths lives outside the library, in
// perfbench's spans and bench_scalability's explicit timers.
//
// Confinement mirrors `check::ScopedChecker` (PR 3): `ScopedMetrics`
// installs a thread-local run-private registry, so parallel sweep workers
// never share a mutable sink; on scope exit the tallies are absorbed into
// the enclosing registry (an outer scope, or the process-global registry
// when enabled for --metrics-out style aggregation).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace bufq::obs {

/// Monotonic event count.  Thread safe; relaxed atomics.
class Counter {
 public:
  /// Adds `n` (default 1) to the count.
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }

  /// Current count.
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Overwrites the count — checkpoint restore only.  Overwrite (not add)
  /// because restore happens after components were rebuilt, and rebuilding
  /// may itself have recorded; the checkpointed value is authoritative.
  void restore(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (e.g. holes/headroom bytes) with a high-water mark.
class Gauge {
 public:
  /// Sets the level and folds it into the high-water mark.
  void set(std::int64_t v);

  /// Adjusts the level by `delta` (negative allowed).
  void add(std::int64_t delta);

  /// Last value set (0 before any update).
  [[nodiscard]] std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Largest value ever set (0 before any update).
  [[nodiscard]] std::int64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// How many times set()/add() ran; lets a merge tell "never touched"
  /// from "set to zero".
  [[nodiscard]] std::uint64_t updates() const {
    return updates_.load(std::memory_order_relaxed);
  }

  /// Overwrites all three fields — checkpoint restore only (see
  /// Counter::restore for why overwrite, not merge).
  void restore(std::int64_t last, std::int64_t max, std::uint64_t updates) {
    value_.store(last, std::memory_order_relaxed);
    max_.store(max, std::memory_order_relaxed);
    updates_.store(updates, std::memory_order_relaxed);
  }

 private:
  void note(std::int64_t v);

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
  std::atomic<std::uint64_t> updates_{0};
};

/// Point-in-time copy of one histogram, with the percentile math.
struct HistogramSnapshot {
  std::uint64_t count{0};
  /// Sum of recorded values (after the >= 0 clamp).
  std::uint64_t sum{0};
  std::int64_t min{0};
  std::int64_t max{0};
  /// Per-bucket counts, Histogram::kBucketCount entries.
  std::vector<std::uint64_t> buckets;

  [[nodiscard]] double mean() const;
  /// Value below which fraction `p` in [0, 1] of the recordings fall
  /// (bucket-midpoint interpolation, <= 6.25% relative error); 0 when
  /// empty.
  [[nodiscard]] double percentile(double p) const;
  /// Adds another snapshot's recordings into this one.
  void merge(const HistogramSnapshot& other);
};

/// Fixed-bucket log2-linear histogram (HDR style): values < 16 get exact
/// unit buckets, larger values land in one of 16 linear sub-buckets of
/// their power-of-two octave, bounding relative error by 1/16.  record()
/// is a couple of relaxed atomic adds — O(1), lock-free, allocation-free.
class Histogram {
 public:
  /// Linear sub-buckets per octave (a power of two).
  static constexpr std::size_t kSubBuckets = 16;
  static constexpr std::size_t kSubBucketBits = 4;  // log2(kSubBuckets)
  /// Enough buckets for any non-negative int64 value.
  static constexpr std::size_t kBucketCount = (64 - kSubBucketBits) * kSubBuckets;

  /// Records one value; negatives are clamped to 0.
  void record(std::int64_t value);

  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Consistent-enough copy for reporting (buckets are read relaxed; exact
  /// if no concurrent writers, which is the single-threaded-run case).
  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Adds a snapshot's recordings into this histogram (used by absorb()).
  void merge(const HistogramSnapshot& other);

  /// Overwrites the histogram with a snapshot's exact state — checkpoint
  /// restore only.  An empty snapshot reports min=0 but the live empty
  /// histogram holds INT64_MAX (so the first CAS-min lands); restore
  /// inverts that mapping.
  void restore(const HistogramSnapshot& snap);

  /// Index of the bucket a value lands in.
  [[nodiscard]] static std::size_t bucket_index(std::int64_t value);
  /// Smallest value mapping to bucket `index`.
  [[nodiscard]] static std::int64_t bucket_lower_bound(std::size_t index);
  /// Midpoint of bucket `index`, the representative used by percentile().
  [[nodiscard]] static double bucket_midpoint(std::size_t index);

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  /// Starts at int64 max so the first record's CAS-min always lands;
  /// snapshot() reports 0 while the histogram is empty.
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kBucketCount]{};
};

/// Gauge state as captured in a RegistrySnapshot.
struct GaugeSnapshot {
  std::int64_t last{0};
  std::int64_t max{0};
  std::uint64_t updates{0};
};

/// Point-in-time copy of a whole registry; what exporters consume and what
/// ExperimentResult/SweepRow carry.  merge() is commutative for counters
/// and histograms, which is what keeps folded sweep metrics independent of
/// worker scheduling.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSnapshot> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// True when nothing was ever recorded.
  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Folds `other` in: counters add, histograms merge bucket-wise, gauges
  /// keep the larger max and the most recently updated last value.
  void merge(const RegistrySnapshot& other);
};

/// Owner of named metrics.  Registration (counter()/gauge()/histogram())
/// takes a mutex and is meant for construction time; the returned
/// references are stable for the registry's lifetime and lock-free to
/// record into.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric.  A name identifies one kind only;
  /// re-requesting it as a different kind throws std::logic_error.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Copies every metric for export / folding.
  [[nodiscard]] RegistrySnapshot snapshot() const;

  /// Adds a snapshot's tallies into this registry's live metrics (creating
  /// them as needed) — the fold-back step of ScopedMetrics.
  void absorb(const RegistrySnapshot& other);

  /// Overwrites every metric named in the snapshot with its exact
  /// checkpointed state (creating metrics as needed).  Used by checkpoint
  /// restore *after* components rebuild, so construction-time recordings
  /// (e.g. pool-init gauge sets) cannot double-count.  Metrics present in
  /// the registry but absent from the snapshot are left alone — they were
  /// never recorded before the checkpoint and their rebuilt state is zero.
  void restore(const RegistrySnapshot& snap);

  /// The registry instrumented call sites record into on this thread: the
  /// innermost live ScopedMetrics, else the process-global registry when
  /// enabled, else nullptr (recording disabled; handles become no-ops).
  [[nodiscard]] static MetricsRegistry* current();

  /// Process-global registry, used to aggregate across pool workers when
  /// no thread-local scope is alive.  Collection into it is off unless
  /// set_global_enabled(true) (the --metrics-out path) was called.
  [[nodiscard]] static MetricsRegistry& global();
  static void set_global_enabled(bool enabled);
  [[nodiscard]] static bool global_enabled();

 public:
  /// Transparent hasher so handle lookups probe with the string_view name
  /// directly — no temporary std::string on the registration path.
  struct StringHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  template <typename T>
  using MetricMap =
      std::unordered_map<std::string, std::unique_ptr<T>, StringHash, std::equal_to<>>;

 private:
  mutable std::mutex mu_;
  // Hash maps (iteration order irrelevant: snapshot() re-sorts into
  // std::map for export); unique_ptr keeps metric addresses stable across
  // rehashes so handles outlive later registrations.
  MetricMap<Counter> counters_;
  MetricMap<Gauge> gauges_;
  MetricMap<Histogram> histograms_;
};

/// RAII per-run metrics confinement, mirroring check::ScopedChecker: while
/// alive, MetricsRegistry::current() on the constructing thread is this
/// scope's private registry, so concurrent runs never contend on a shared
/// sink.  On destruction the tallies are absorbed into the enclosing
/// registry (outer scope, or the global registry when enabled); callers
/// that want the run's own numbers snapshot() before the scope ends.
/// Thread-confined: construct and destroy on the same thread.
class ScopedMetrics {
 public:
  ScopedMetrics();
  ~ScopedMetrics();
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

  [[nodiscard]] MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const { return registry_; }

 private:
  MetricsRegistry registry_;
  MetricsRegistry* previous_;
};

/// Null-safe counter reference for hot paths.  Default-constructed (or
/// looked up with no current registry) it is a no-op.
class CounterHandle {
 public:
  CounterHandle() = default;
  /// Resolves `name` against MetricsRegistry::current(); no-op handle when
  /// there is none.
  [[nodiscard]] static CounterHandle lookup(std::string_view name);

  void add(std::uint64_t n = 1) const {
    if (counter_ != nullptr) counter_->add(n);
  }
  [[nodiscard]] bool active() const { return counter_ != nullptr; }

 private:
  explicit CounterHandle(Counter* counter) : counter_{counter} {}
  Counter* counter_{nullptr};
};

/// Null-safe gauge reference for hot paths.
class GaugeHandle {
 public:
  GaugeHandle() = default;
  /// Resolves `name` against MetricsRegistry::current(); no-op handle when
  /// there is none.
  [[nodiscard]] static GaugeHandle lookup(std::string_view name);

  void set(std::int64_t v) const {
    if (gauge_ != nullptr) gauge_->set(v);
  }
  void add(std::int64_t delta) const {
    if (gauge_ != nullptr) gauge_->add(delta);
  }
  [[nodiscard]] bool active() const { return gauge_ != nullptr; }

 private:
  explicit GaugeHandle(Gauge* gauge) : gauge_{gauge} {}
  Gauge* gauge_{nullptr};
};

/// Null-safe histogram reference for hot paths.
class HistogramHandle {
 public:
  HistogramHandle() = default;
  /// Resolves `name` against MetricsRegistry::current(); no-op handle when
  /// there is none.
  [[nodiscard]] static HistogramHandle lookup(std::string_view name);

  void record(std::int64_t value) const {
    if (histogram_ != nullptr) histogram_->record(value);
  }
  [[nodiscard]] bool active() const { return histogram_ != nullptr; }

 private:
  explicit HistogramHandle(Histogram* histogram) : histogram_{histogram} {}
  Histogram* histogram_{nullptr};
};

}  // namespace bufq::obs
