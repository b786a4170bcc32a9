// Ablation: the paper's reservation-aware buffer management against the
// era's congestion-control-oriented alternatives it cites — RED [3],
// FRED [5], and the Choudhury-Hahne Dynamic Threshold scheme [1] — plus
// the Section 5 selective-sharing extension.  All on the Table 1 workload
// with a FIFO scheduler.
//
// Expected shape: RED/DT know nothing about reservations, so the
// aggressive flows still crowd out the conformant ones; FRED's fair
// shares help but equalize instead of honoring reservations; only the
// reservation-aware schemes deliver the contracted rates, and selective
// sharing additionally shuts aggressive flows out of the idle buffer.
#include <iostream>
#include <utility>

#include "common.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace bufq;
  using namespace bufq::bench;

  const auto options = parse_options(argc, argv, {0.5, 1.0, 2.0});

  FigureSweep sweep;
  sweep.name = "AQM ablation";
  sweep.what = "reservation-aware buffer management vs RED / FRED / DT";
  sweep.columns = {"buffer_mb", "scheme", "conformant_loss", "conformant_mbps",
                   "aggressive_mbps", "total_mbps"};

  ExperimentConfig config;
  config.link_rate = paper_link_rate();
  config.flows = table1_flows();
  config.warmup = options.warmup;
  config.duration = options.duration;

  const std::vector<SchemeVariant> schemes{
      {"tail-drop", make_scheme(SchedulerKind::kFifo, ManagerKind::kNone)},
      {"red", make_scheme(SchedulerKind::kFifo, ManagerKind::kRed)},
      {"fred", make_scheme(SchedulerKind::kFifo, ManagerKind::kFred)},
      {"dynamic-threshold",
       make_scheme(SchedulerKind::kFifo, ManagerKind::kDynamicThreshold)},
      {"thresholds(paper)", make_scheme(SchedulerKind::kFifo, ManagerKind::kThreshold)},
      {"sharing(paper)",
       make_scheme(SchedulerKind::kFifo, ManagerKind::kSharing, ByteSize::kilobytes(300.0))},
      {"selective-sharing",
       make_scheme(SchedulerKind::kFifo, ManagerKind::kSelectiveSharing,
                   ByteSize::kilobytes(300.0))},
  };
  for (double buffer_mb : options.buffers_mb) {
    config.buffer = ByteSize::megabytes(buffer_mb);
    for (const auto& variant : schemes) {
      SweepCase c;
      c.label = variant.name;
      c.params = {{"buffer_mb", format_double(buffer_mb)}};
      c.config = config;
      c.config.scheme = variant.scheme;
      sweep.cases.push_back(std::move(c));
    }
  }

  sweep.extract = [conformant = table1_conformant_flows()](const ExperimentResult& r) {
    double conformant_goodput = 0.0;
    for (FlowId f : conformant) conformant_goodput += r.flow_throughput_mbps(f);
    double aggressive_goodput = 0.0;
    for (FlowId f = 6; f < 9; ++f) aggressive_goodput += r.flow_throughput_mbps(f);
    return std::map<std::string, double>{
        {"loss", r.loss_ratio(conformant)},
        {"conformant_mbps", conformant_goodput},
        {"aggressive_mbps", aggressive_goodput},
        {"total_mbps", r.aggregate_throughput_mbps()},
    };
  };
  sweep.format_row = [](const SweepRow& row) {
    return std::vector<std::string>{row.params[0].second, row.label,
                                    format_double(summary_of(row, "loss").mean),
                                    format_double(summary_of(row, "conformant_mbps").mean),
                                    format_double(summary_of(row, "aggressive_mbps").mean),
                                    format_double(summary_of(row, "total_mbps").mean)};
  };

  const int rc = run_bench_sweep(std::move(sweep), options);
  if (rc == 0) {
    std::cout << "\n# contracted conformant aggregate: 30 Mb/s (flows 0-5 at their token "
                 "rates)\n";
  }
  return rc;
}
