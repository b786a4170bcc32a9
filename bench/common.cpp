#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <utility>

#include "obs/export.h"
#include "util/csv.h"
#include "util/task_pool.h"

namespace bufq::bench {

BenchOptions parse_options(int argc, const char* const* argv,
                           std::vector<double> default_buffers_mb) {
  try {
    Flags flags{argc, argv};
    BenchOptions options;
    options.seeds = flags.get_count("replications", flags.get_count("seeds", 5, 1), 1);
    options.base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    options.warmup = Time::from_seconds(flags.get_double("warmup", 5.0));
    options.duration = Time::from_seconds(flags.get_double("duration", 20.0));
    options.buffers_mb =
        flags.get_double_list("buffers").value_or(std::move(default_buffers_mb));
    options.jobs = flags.get_count("jobs", 0, 0);
    if (options.jobs == 0) options.jobs = TaskPool::default_thread_count();
    options.progress = flags.get_bool("progress", false);
    options.metrics_out = flags.get("metrics-out").value_or("");
    options.checkpoint = parse_sweep_checkpoint(flags);
    const auto unknown = flags.unused();
    if (!unknown.empty()) {
      throw std::invalid_argument(
          "unknown flag --" + unknown.front() +
          " (supported: --seeds --replications --seed --warmup --duration --buffers --jobs "
          "--progress --metrics-out --checkpoint-out --checkpoint-in --checkpoint-roundtrip "
          "--checkpoint-events --checkpoint-at)");
    }
    return options;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

namespace {

void print_profile_table(std::ostream& out, const std::vector<TrafficProfile>& flows,
                         const char* title) {
  out << title << "\n";
  TextTable table{{"flow", "peak(Mb/s)", "avg(Mb/s)", "bucket(KB)", "tokenrate(Mb/s)",
                   "burst(KB)", "regulated"}};
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const auto& p = flows[f];
    table.row({std::to_string(f), format_double(p.peak_rate.mbps()),
               format_double(p.avg_rate.mbps()), format_double(p.bucket.kb()),
               format_double(p.token_rate.mbps()), format_double(p.mean_burst.kb()),
               p.regulated ? "yes" : "no"});
  }
  table.print(out);
  out << "\n";
}

/// The banner deliberately excludes --jobs so the full output stream
/// stays byte-identical across thread counts (jobs info goes to stderr).
void print_banner(std::ostream& out, const FigureSweep& sweep, const BenchOptions& options) {
  out << "# " << sweep.name << ": " << sweep.what << "\n";
  out << "# seeds=" << options.seeds << " base_seed=" << options.base_seed
      << " warmup=" << options.warmup.to_seconds() << "s"
      << " duration=" << options.duration.to_seconds() << "s\n";
  if (!sweep.print_workload) return;
  if (sweep.workload_table == 2) {
    print_profile_table(out, table2_flows(), "# Table 2 workload (30 flows, 48 Mb/s link)");
  } else {
    print_profile_table(out, table1_flows(), "# Table 1 workload (9 flows, 48 Mb/s link)");
  }
}

/// --metrics-out: the obs registry merged over every run, plus events/s.
void write_metrics(const std::string& path, const std::string& bench, const SweepResult& result) {
  obs::BenchReport report;
  report.bench = bench;
  for (const SweepRow& row : result.rows) report.snapshot.merge(row.obs_metrics);
  const auto events = report.snapshot.counters.find("sim.events");
  const auto wall = report.snapshot.counters.find("sim.wall_ns");
  if (events != report.snapshot.counters.end() && wall != report.snapshot.counters.end() &&
      wall->second > 0) {
    report.derived["events_per_sec"] =
        static_cast<double>(events->second) / (static_cast<double>(wall->second) * 1e-9);
  }
  obs::write_bench_json_file(path, report);
}

}  // namespace

int run_bench_sweep(FigureSweep sweep, const BenchOptions& options) {
  print_banner(std::cout, sweep, options);
  std::cerr << "# jobs=" << options.jobs << " runs=" << sweep.cases.size() * options.seeds
            << "\n";

  SweepOptions sweep_options;
  sweep_options.jobs = options.jobs;
  sweep_options.replications = options.seeds;
  sweep_options.base_seed = options.base_seed;
  // Common random numbers: every grid point sees the same seed set, which
  // sharpens scheme-vs-scheme comparisons at a fixed replication budget.
  sweep_options.seed_mode = SeedMode::kSharedAcrossCases;
  sweep_options.progress = options.progress ? &std::cerr : nullptr;
  sweep_options.checkpoint = options.checkpoint;

  const SweepResult result = run_sweep(std::move(sweep.cases), sweep.extract, sweep_options);

  CsvWriter csv{std::cout, sweep.columns};
  for (const SweepRow& row : result.rows) csv.row(sweep.format_row(row));

  if (!options.metrics_out.empty()) {
    try {
      write_metrics(options.metrics_out, sweep.name, result);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  for (const SweepRow& row : result.rows) {
    if (!row.error.empty()) {
      std::cerr << "error: case " << row.index << " (" << row.label << "): " << row.error
                << "\n";
    }
  }
  return result.ok() ? 0 : 1;
}

int run_figure_main(int figure, int argc, const char* const* argv) {
  const auto options = parse_options(argc, argv, figure_default_buffers_mb(figure));
  FigureParams params;
  params.buffers_mb = options.buffers_mb;
  params.warmup = options.warmup;
  params.duration = options.duration;
  return run_bench_sweep(make_figure_sweep(figure, params), options);
}

}  // namespace bufq::bench
