// Robustness to traffic fluctuations (a §3.1 evaluation dimension the
// paper lists but does not plot): re-run the Table 1 threshold/sharing
// comparison with the sources' ON periods drawn from (a) the paper's
// exponential law, (b) a heavy-tailed Pareto law (shape 1.5 — infinite
// variance), and (c) deterministic bursts, all with identical means.
//
// Expected shape: protection of conformant flows is distribution-
// insensitive (the Proposition 2 thresholds are worst-case, not
// stochastic), while aggregate utilization degrades somewhat under heavy
// tails because huge aggressive bursts overflow their thresholds more.
#include <utility>

#include "common.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace bufq;
  using namespace bufq::bench;

  const auto options = parse_options(argc, argv, {0.5, 1.0, 2.0});

  FigureSweep sweep;
  sweep.name = "Robustness";
  sweep.what = "burst-distribution sensitivity of threshold/sharing schemes";
  sweep.columns = {"buffer_mb", "scheme", "burst_law", "conformant_loss", "throughput_mbps"};

  ExperimentConfig base;
  base.link_rate = paper_link_rate();
  base.flows = table1_flows();
  base.warmup = options.warmup;
  base.duration = options.duration;

  for (double buffer_mb : options.buffers_mb) {
    for (const auto& [scheme_name, manager] :
         {std::pair{"fifo+thresholds", ManagerKind::kThreshold},
          std::pair{"fifo+sharing", ManagerKind::kSharing},
          std::pair{"fifo+no-bm", ManagerKind::kNone}}) {
      for (const auto& [law_name, law] :
           {std::pair{"exponential", BurstDistribution::kExponential},
            std::pair{"pareto1.5", BurstDistribution::kPareto},
            std::pair{"deterministic", BurstDistribution::kDeterministic}}) {
        SweepCase c;
        c.label = scheme_name;
        c.params = {{"buffer_mb", format_double(buffer_mb)}, {"burst_law", law_name}};
        c.config = base;
        c.config.buffer = ByteSize::megabytes(buffer_mb);
        c.config.scheme.scheduler = SchedulerKind::kFifo;
        c.config.scheme.manager = manager;
        c.config.scheme.headroom = ByteSize::kilobytes(300.0);
        c.config.burst_distribution = law;
        sweep.cases.push_back(std::move(c));
      }
    }
  }

  sweep.extract = [conformant = table1_conformant_flows()](const ExperimentResult& r) {
    return std::map<std::string, double>{
        {"loss", r.loss_ratio(conformant)},
        {"throughput", r.aggregate_throughput_mbps()},
    };
  };
  sweep.format_row = [](const SweepRow& row) {
    return std::vector<std::string>{row.params[0].second, row.label, row.params[1].second,
                                    format_double(summary_of(row, "loss").mean),
                                    format_double(summary_of(row, "throughput").mean)};
  };
  return run_bench_sweep(std::move(sweep), options);
}
