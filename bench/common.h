// Shared infrastructure for the replicated bench binaries: common
// command-line options and the one driver that runs a bench's grid
// through the sweep engine.  The figure grids themselves live in
// expt/figures.h so the `sweep` example CLI shares them; the table
// benches build their own FigureSweep and hand it to the same driver.
#pragma once

#include <string>
#include <vector>

#include "expt/experiment.h"
#include "expt/figures.h"
#include "expt/sweep.h"
#include "expt/workloads.h"
#include "util/flags.h"

namespace bufq::bench {

// The scheme helpers moved to expt/figures.h; keep their old names
// reachable from bufq::bench for the non-figure benches.
using bufq::hybrid_figure_schemes;
using bufq::make_scheme;
using bufq::SchemeVariant;
using bufq::sharing_figure_schemes;
using bufq::threshold_figure_schemes;

/// Options every replicated bench accepts:
///   --seeds=N          replications, >= 1 (default 5, the paper's count)
///   --replications=N   alias for --seeds
///   --seed=S           base seed (default 1)
///   --warmup=SECS      transient discarded (default 5)
///   --duration=SECS    measured interval (default 20)
///   --buffers=a,b,c    buffer sizes in MB (bench-specific default)
///   --jobs=N           worker threads, >= 0 (default and 0: hardware
///                      concurrency); results are bit-identical at any value
///   --progress         progress/ETA line on stderr
///   --metrics-out=PATH BENCH_*.json perf artifact (obs registry merged
///                      over every run, plus derived events/s); the run
///                      fails loudly (exit 1) if PATH is unwritable
///   --checkpoint-out=DIR   snapshot every run mid-flight into DIR
///                          (warm-start producer; see sim/checkpoint.h)
///   --checkpoint-in=DIR    restore every run from DIR instead of
///                          replaying the warmup (warm-start consumer)
///   --checkpoint-roundtrip snapshot + restore in-process and report the
///                          resumed results — output must stay
///                          byte-identical to a plain run
///   --checkpoint-events=N  snapshot after N dispatched events
///   --checkpoint-at=SECS   snapshot at simulated time SECS (default:
///                          end of warmup)
/// The three mode flags are mutually exclusive (parse_sweep_checkpoint).
/// Benches whose runs are custom pipelines refuse the checkpoint modes:
/// every run fails with an error and the bench exits 1.
struct BenchOptions {
  std::size_t seeds{5};
  std::uint64_t base_seed{1};
  Time warmup{Time::seconds(5)};
  Time duration{Time::seconds(20)};
  std::vector<double> buffers_mb;
  std::size_t jobs{1};  ///< worker threads (--jobs=0 resolves to hardware concurrency)
  bool progress{false};
  std::string metrics_out;  ///< empty = no metrics artifact
  SweepCheckpoint checkpoint;
};

/// Parses options; exits 2 with a message on malformed, out-of-range or
/// unknown flags.
BenchOptions parse_options(int argc, const char* const* argv,
                           std::vector<double> default_buffers_mb);

/// The whole main() of a replicated bench, after option parsing: prints
/// the banner (+ workload table where `sweep` asks for it) and one CSV row
/// per case to stdout, runs cases x seeds on a TaskPool with common random
/// numbers (every case sees SeedSequence(base_seed).derive(r)), writes
/// --metrics-out, and reports failed runs on stderr.  Returns the process
/// exit code: 1 if any run failed or the artifact could not be written.
int run_bench_sweep(FigureSweep sweep, const BenchOptions& options);

/// main() of a bench_fig* binary: parse_options with the figure's default
/// buffer grid, then run_bench_sweep over make_figure_sweep(figure).
int run_figure_main(int figure, int argc, const char* const* argv);

}  // namespace bufq::bench
