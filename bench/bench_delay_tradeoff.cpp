// The delay trade-off the paper concedes in Section 1: FIFO-with-
// thresholds bounds delay only by the shared B/R, while WFQ gives
// conformant flows per-flow isolation (and the hybrid sits in between).
// Sweeps the buffer size and reports mean / p99 / max queueing delay of
// the conformant flows, plus the analytic B/R bound for reference.
#include <algorithm>
#include <utility>

#include "common.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace bufq;
  using namespace bufq::bench;

  const auto options = parse_options(argc, argv, {0.25, 0.5, 1.0, 2.0, 4.0});

  FigureSweep sweep;
  sweep.name = "Delay trade-off (Section 1)";
  sweep.what = "conformant-flow queueing delay under FIFO vs WFQ vs hybrid";
  sweep.columns = {"buffer_mb", "scheme", "mean_ms", "p99_ms", "max_ms",
                   "analytic_bound_B_over_R_ms"};

  ExperimentConfig config;
  config.link_rate = paper_link_rate();
  config.flows = table1_flows();
  config.record_delays = true;
  config.warmup = options.warmup;
  config.duration = options.duration;

  const std::vector<SchemeVariant> schemes{
      {"fifo+thresholds", make_scheme(SchedulerKind::kFifo, ManagerKind::kThreshold)},
      {"wfq+thresholds", make_scheme(SchedulerKind::kWfq, ManagerKind::kThreshold)},
      {"hybrid+sharing",
       make_scheme(SchedulerKind::kHybrid, ManagerKind::kSharing,
                   ByteSize::megabytes(2.0), case1_groups())},
  };
  for (double buffer_mb : options.buffers_mb) {
    config.buffer = ByteSize::megabytes(buffer_mb);
    const double bound_ms = buffer_mb * 1e6 * 8.0 / paper_link_rate().bps() * 1e3;
    for (const auto& variant : schemes) {
      SweepCase c;
      c.label = variant.name;
      c.params = {{"buffer_mb", format_double(buffer_mb)}, {"bound_ms", format_double(bound_ms)}};
      c.config = config;
      c.config.scheme = variant.scheme;
      sweep.cases.push_back(std::move(c));
    }
  }

  sweep.extract = [conformant = table1_conformant_flows()](const ExperimentResult& r) {
    double mean = 0.0, p99 = 0.0, max = 0.0;
    for (FlowId f : conformant) {
      const auto& d = r.delays[static_cast<std::size_t>(f)];
      mean += d.mean_s;
      p99 = std::max(p99, d.p99_s);
      max = std::max(max, d.max_s);
    }
    return std::map<std::string, double>{
        {"mean_ms", mean / static_cast<double>(conformant.size()) * 1e3},
        {"p99_ms", p99 * 1e3},
        {"max_ms", max * 1e3},
    };
  };
  sweep.format_row = [](const SweepRow& row) {
    return std::vector<std::string>{row.params[0].second, row.label,
                                    format_double(summary_of(row, "mean_ms").mean),
                                    format_double(summary_of(row, "p99_ms").mean),
                                    format_double(summary_of(row, "max_ms").mean),
                                    row.params[1].second};
  };
  return run_bench_sweep(std::move(sweep), options);
}
