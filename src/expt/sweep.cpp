#include "expt/sweep.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <exception>
#include <iterator>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>

#include "sim/checkpoint.h"
#include "util/annotations.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/task_pool.h"

namespace bufq {
namespace {

/// Result slot of one (case, replication) run.  Pre-sized before the pool
/// starts, written by exactly one task, read only after wait_idle() — the
/// slot array is what makes the output independent of scheduling.
struct RunSlot {
  std::uint64_t seed{0};
  std::map<std::string, double> metrics;
  std::vector<FlowCounters> per_flow;
  std::uint64_t checks_run{0};
  std::uint64_t check_violations{0};
  obs::RegistrySnapshot obs_metrics;
  std::string error;
  bool ok{false};
};

/// CSV cells must stay one-column: fold separators out of error text.
std::string sanitize_cell(std::string text) {
  for (char& c : text) {
    if (c == ',' || c == '\n' || c == '\r') c = ';';
  }
  return text;
}

BUFQ_LINT_SUPPRESS("determinism-wall-clock", "progress/ETA display only; never feeds a result CSV");
double seconds_since(std::chrono::steady_clock::time_point start) {
  BUFQ_LINT_SUPPRESS("determinism-wall-clock", "progress/ETA display only; never feeds a result CSV");
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The built-in run_experiment path under a checkpoint policy.
ExperimentResult run_checkpointed(const ExperimentConfig& config,
                                  const SweepCheckpointRequest& request) {
  switch (request.mode) {
    case SweepCheckpointMode::kOff:
      return run_experiment(config);
    case SweepCheckpointMode::kRoundtrip: {
      const CheckpointedRun run = run_experiment_with_checkpoint(config, request.trigger);
      return resume_experiment(config, run.checkpoint);
    }
    case SweepCheckpointMode::kWrite: {
      CheckpointedRun run = run_experiment_with_checkpoint(config, request.trigger);
      write_checkpoint_file(request.path, run.checkpoint);
      return std::move(run.result);
    }
    case SweepCheckpointMode::kRead:
      return resume_experiment(config, read_checkpoint_file(request.path));
  }
  return run_experiment(config);  // unreachable
}

}  // namespace

double t_critical_95(std::size_t df) {
  // Two-sided 95% quantiles of the t distribution; beyond the table the
  // normal approximation is within 0.5%.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
  };
  assert(df >= 1);
  if (df <= std::size(kTable)) return kTable[df - 1];
  return 1.960;
}

MetricSummary summarize(const std::vector<double>& samples) {
  assert(!samples.empty());
  MetricSummary s;
  s.n = samples.size();
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) / static_cast<double>(s.n);
  if (s.n == 1) return s;
  double ss = 0.0;
  for (double x : samples) ss += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(ss / static_cast<double>(s.n - 1));
  s.ci95 = t_critical_95(s.n - 1) * s.stddev / std::sqrt(static_cast<double>(s.n));
  return s;
}

bool SweepResult::ok() const {
  return std::all_of(rows.begin(), rows.end(),
                     [](const SweepRow& row) { return row.error.empty(); });
}

SweepResult run_sweep(std::vector<SweepCase> cases, const MetricExtractor& extract,
                      const SweepOptions& options) {
  if (options.replications == 0) {
    throw std::invalid_argument("a sweep needs at least 1 replication per case");
  }
  const std::size_t replications = options.replications;
  const std::size_t total = cases.size() * replications;
  const SeedSequence seq{options.base_seed};
  BUFQ_LINT_SUPPRESS("determinism-wall-clock", "progress/ETA display only; never feeds a result CSV");
  const auto start = std::chrono::steady_clock::now();

  std::vector<RunSlot> slots(total);
  std::atomic<std::size_t> completed{0};
  std::mutex progress_mu;
  auto last_report = start;

  auto report_progress = [&](bool final) {
    if (options.progress == nullptr) return;
    const std::lock_guard<std::mutex> lock{progress_mu};
    BUFQ_LINT_SUPPRESS("determinism-wall-clock", "progress/ETA display only; never feeds a result CSV");
    const auto now = std::chrono::steady_clock::now();
    if (!final && now - last_report < std::chrono::milliseconds(200)) return;
    last_report = now;
    SweepProgress p;
    p.completed = completed.load(std::memory_order_relaxed);
    p.total = total;
    p.elapsed_s = seconds_since(start);
    p.eta_s = p.completed > 0 ? p.elapsed_s / static_cast<double>(p.completed) *
                                    static_cast<double>(p.total - p.completed)
                              : 0.0;
    (*options.progress) << "\r[sweep] " << p.completed << "/" << p.total << " runs  elapsed "
                        << format_double(p.elapsed_s) << "s  eta " << format_double(p.eta_s)
                        << "s" << (final ? "\n" : "") << std::flush;
  };

  auto run_one = [&](std::size_t case_index, std::size_t replication) {
    RunSlot& slot = slots[case_index * replications + replication];
    slot.seed = options.seed_mode == SeedMode::kSharedAcrossCases
                    ? seq.derive(replication)
                    : seq.derive(case_index, replication);
    SweepCheckpointRequest request;
    request.mode = options.checkpoint.mode;
    request.trigger = options.checkpoint.trigger;
    if (request.mode == SweepCheckpointMode::kWrite ||
        request.mode == SweepCheckpointMode::kRead) {
      request.path = options.checkpoint.dir + "/ckpt_case" + std::to_string(case_index) +
                     "_rep" + std::to_string(replication) + ".bufq";
    }
    try {
      ExperimentResult result;
      const SweepCase& item = cases[case_index];
      if (request.mode != SweepCheckpointMode::kOff && item.checkpoint_runner) {
        result = item.checkpoint_runner(slot.seed, request);
      } else if (item.runner) {
        if (request.mode != SweepCheckpointMode::kOff) {
          throw std::runtime_error("case '" + item.label +
                                   "' has a custom runner without checkpoint support");
        }
        result = item.runner(slot.seed);
      } else {
        ExperimentConfig config = item.config;
        config.seed = slot.seed;
        result = run_checkpointed(config, request);
      }
      slot.metrics = extract(result);
      slot.per_flow = result.per_flow;
      slot.checks_run = result.checks_run;
      slot.check_violations = result.check_violations;
      slot.obs_metrics = std::move(result.metrics);
      slot.ok = true;
    } catch (const std::exception& e) {
      slot.error = e.what();
    } catch (...) {
      slot.error = "unknown exception";
    }
    completed.fetch_add(1, std::memory_order_relaxed);
    report_progress(false);
  };

  if (options.jobs <= 1) {
    for (std::size_t c = 0; c < cases.size(); ++c) {
      for (std::size_t r = 0; r < replications; ++r) run_one(c, r);
    }
  } else {
    TaskPool pool{options.jobs};
    for (std::size_t c = 0; c < cases.size(); ++c) {
      for (std::size_t r = 0; r < replications; ++r) {
        pool.submit([&run_one, c, r] { run_one(c, r); });
      }
    }
    pool.wait_idle();
  }
  report_progress(true);

  SweepResult result;
  result.jobs = std::max<std::size_t>(options.jobs, 1);
  result.replications = replications;
  result.rows.reserve(cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SweepRow row;
    row.index = c;
    row.label = std::move(cases[c].label);
    row.params = std::move(cases[c].params);
    row.seeds.reserve(replications);
    for (std::size_t r = 0; r < replications; ++r) {
      const RunSlot& slot = slots[c * replications + r];
      row.seeds.push_back(slot.seed);
      if (!slot.ok) {
        if (row.error.empty()) row.error = slot.error;
        continue;
      }
      for (const auto& [name, value] : slot.metrics) row.samples[name].push_back(value);
      if (slot.per_flow.size() > row.per_flow.size()) row.per_flow.resize(slot.per_flow.size());
      for (std::size_t f = 0; f < slot.per_flow.size(); ++f) {
        const FlowCounters& from = slot.per_flow[f];
        FlowCounters& to = row.per_flow[f];
        to.offered_bytes += from.offered_bytes;
        to.delivered_bytes += from.delivered_bytes;
        to.dropped_bytes += from.dropped_bytes;
        to.offered_packets += from.offered_packets;
        to.delivered_packets += from.delivered_packets;
        to.dropped_packets += from.dropped_packets;
      }
      row.checks_run += slot.checks_run;
      row.check_violations += slot.check_violations;
      row.obs_metrics.merge(slot.obs_metrics);
    }
    std::size_t succeeded = 0;
    for (std::size_t r = 0; r < replications; ++r) {
      if (slots[c * replications + r].ok) ++succeeded;
    }
    for (const auto& [name, samples] : row.samples) {
      if (samples.size() != succeeded && row.error.empty()) {
        row.error = "metric '" + name + "' missing from some replications";
      }
      row.metrics[name] = summarize(samples);
    }
    result.rows.push_back(std::move(row));
  }
  result.elapsed_s = seconds_since(start);
  return result;
}

void write_sweep_csv(std::ostream& out, const SweepResult& result) {
  std::vector<std::string> header{"case", "label"};
  if (!result.rows.empty()) {
    for (const auto& [key, value] : result.rows.front().params) header.push_back(key);
  }
  std::set<std::string> metric_names;
  for (const SweepRow& row : result.rows) {
    for (const auto& [name, summary] : row.metrics) metric_names.insert(name);
  }
  for (const std::string& name : metric_names) {
    header.push_back(name + "_mean");
    header.push_back(name + "_stddev");
    header.push_back(name + "_ci95");
  }
  header.insert(header.end(), {"replications", "offered_bytes", "delivered_bytes",
                               "dropped_bytes", "violations", "error"});

  CsvWriter csv{out, std::move(header)};
  for (const SweepRow& row : result.rows) {
    std::vector<std::string> cells{std::to_string(row.index), row.label};
    for (const auto& [key, value] : row.params) cells.push_back(value);
    for (const std::string& name : metric_names) {
      const auto it = row.metrics.find(name);
      if (it == row.metrics.end()) {
        cells.insert(cells.end(), {"", "", ""});
      } else {
        cells.push_back(format_double(it->second.mean));
        cells.push_back(format_double(it->second.stddev));
        cells.push_back(format_double(it->second.ci95));
      }
    }
    FlowCounters totals;
    for (const FlowCounters& c : row.per_flow) {
      totals.offered_bytes += c.offered_bytes;
      totals.delivered_bytes += c.delivered_bytes;
      totals.dropped_bytes += c.dropped_bytes;
    }
    cells.push_back(std::to_string(row.seeds.size()));
    cells.push_back(std::to_string(totals.offered_bytes));
    cells.push_back(std::to_string(totals.delivered_bytes));
    cells.push_back(std::to_string(totals.dropped_bytes));
    cells.push_back(std::to_string(row.check_violations));
    cells.push_back(sanitize_cell(row.error));
    csv.row(cells);
  }
}

SweepCheckpoint parse_sweep_checkpoint(const Flags& flags) {
  const auto checkpoint_out = flags.get("checkpoint-out");
  const auto checkpoint_in = flags.get("checkpoint-in");
  const bool roundtrip = flags.get_bool("checkpoint-roundtrip", false);
  if (static_cast<int>(checkpoint_out.has_value()) + static_cast<int>(checkpoint_in.has_value()) +
          static_cast<int>(roundtrip) >
      1) {
    throw std::invalid_argument(
        "--checkpoint-out, --checkpoint-in and --checkpoint-roundtrip are mutually exclusive");
  }
  SweepCheckpoint checkpoint;
  if (checkpoint_out) {
    checkpoint.mode = SweepCheckpointMode::kWrite;
    checkpoint.dir = *checkpoint_out;
  } else if (checkpoint_in) {
    checkpoint.mode = SweepCheckpointMode::kRead;
    checkpoint.dir = *checkpoint_in;
  } else if (roundtrip) {
    checkpoint.mode = SweepCheckpointMode::kRoundtrip;
  }
  checkpoint.trigger.events = static_cast<std::uint64_t>(flags.get_int("checkpoint-events", 0));
  checkpoint.trigger.at = Time::from_seconds(flags.get_double("checkpoint-at", 0.0));
  return checkpoint;
}

}  // namespace bufq
