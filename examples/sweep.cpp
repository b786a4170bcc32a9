// sweep: run any figure's simulation grid on the parallel sweep engine
// and print the engine's generic CSV (per-metric mean/stddev/95% CI plus
// byte totals), rather than the figure-specific columns the bench_fig*
// binaries emit.
//
//   sweep --figure=N [--jobs=N] [--replications=K] [--seed=S]
//         [--buffers=a,b,c] [--warmup=SECS] [--duration=SECS] [--progress]
//         [--checkpoint-out=DIR | --checkpoint-in=DIR | --checkpoint-roundtrip]
//         [--checkpoint-events=N] [--checkpoint-at=SECS]
//
// The CSV on stdout is bit-identical for a given --seed regardless of
// --jobs; banners and progress go to stderr.  With --checkpoint-roundtrip
// every run is snapshotted and restored in-process, and the CSV must stay
// byte-identical to a plain run — the CI replay job relies on that.
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "expt/figures.h"
#include "expt/sweep.h"
#include "util/flags.h"
#include "util/task_pool.h"

int main(int argc, char** argv) {
  using namespace bufq;

  int figure = 0;
  FigureParams params;
  SweepOptions options;
  try {
    Flags flags{argc, argv};
    figure = static_cast<int>(flags.get_int("figure", 1));
    params.buffers_mb = flags.get_double_list("buffers").value_or(std::vector<double>{});
    params.warmup = Time::from_seconds(flags.get_double("warmup", 5.0));
    params.duration = Time::from_seconds(flags.get_double("duration", 20.0));
    options.jobs = flags.get_count("jobs", TaskPool::default_thread_count(), 0);
    options.replications = flags.get_count("replications", 5, 1);
    options.base_seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    options.seed_mode = SeedMode::kSharedAcrossCases;
    options.progress = flags.get_bool("progress", false) ? &std::cerr : nullptr;
    options.checkpoint = parse_sweep_checkpoint(flags);
    const auto unknown = flags.unused();
    if (!unknown.empty()) {
      throw std::invalid_argument(
          "unknown flag --" + unknown.front() +
          " (supported: --figure --jobs --replications --seed --buffers --warmup --duration "
          "--progress --checkpoint-out --checkpoint-in --checkpoint-roundtrip "
          "--checkpoint-events --checkpoint-at)");
    }
    if (figure < kFirstFigure || figure > kLastFigure) {
      throw std::invalid_argument("--figure must be in [" + std::to_string(kFirstFigure) +
                                  ", " + std::to_string(kLastFigure) + "]");
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  FigureSweep fig = make_figure_sweep(figure, params);
  std::cerr << "# " << fig.name << ": " << fig.what << "\n"
            << "# cases=" << fig.cases.size() << " replications=" << options.replications
            << " jobs=" << options.jobs << " seed=" << options.base_seed << "\n";

  const SweepResult result = run_sweep(std::move(fig.cases), fig.extract, options);
  write_sweep_csv(std::cout, result);
  std::cerr << "# elapsed " << result.elapsed_s << "s\n";

  for (const SweepRow& row : result.rows) {
    if (!row.error.empty()) {
      std::cerr << "error: case " << row.index << " (" << row.label << "): " << row.error
                << "\n";
    }
  }
  return result.ok() ? 0 : 1;
}
