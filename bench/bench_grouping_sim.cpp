// Does the Section 4 grouping theory survive contact with the packet
// simulator?  Runs the hybrid architecture on Table 1 and Table 2 with
// (a) the paper's conformance-class grouping and (b) the buffer-optimal
// grouping from core/grouping.h, at several buffer sizes, and compares
// conformant loss and utilization.
//
// Expected shape: at generous buffers both groupings protect; at scarce
// buffers the optimized grouping — which needs fewer bytes for the same
// guarantees — should lose less.
#include <utility>

#include "common.h"
#include "core/grouping.h"
#include "util/csv.h"

int main(int argc, char** argv) {
  using namespace bufq;
  using namespace bufq::bench;

  const auto options = parse_options(argc, argv, {0.1, 0.2, 0.3, 0.5, 1.0});

  FigureSweep sweep;
  sweep.name = "Grouping in simulation";
  sweep.what = "paper's grouping vs optimizer's grouping for the 3-queue hybrid";
  sweep.columns = {"workload", "buffer_mb", "grouping", "conformant_loss", "throughput_mbps",
                   "lossless_buffer_kb"};

  struct Workload {
    const char* name;
    std::vector<TrafficProfile> flows;
    std::vector<std::vector<FlowId>> paper_groups;
    std::vector<FlowId> conformant;
  };
  const Workload workloads[] = {
      {"table1", table1_flows(), case1_groups(), table1_conformant_flows()},
      {"table2", table2_flows(), case2_groups(), table2_conformant_flows()},
  };

  for (const auto& workload : workloads) {
    const auto specs = flow_specs(workload.flows);
    const auto optimized = optimize_grouping(specs, 3, paper_link_rate());

    ExperimentConfig config;
    config.link_rate = paper_link_rate();
    config.flows = workload.flows;
    config.warmup = options.warmup;
    config.duration = options.duration;
    config.scheme.scheduler = SchedulerKind::kHybrid;
    config.scheme.manager = ManagerKind::kSharing;
    config.scheme.headroom = ByteSize::kilobytes(200.0);

    for (double buffer_mb : options.buffers_mb) {
      config.buffer = ByteSize::megabytes(buffer_mb);
      for (const auto& [name, groups] :
           {std::pair{"paper", workload.paper_groups},
            std::pair{"optimized", optimized.groups}}) {
        SweepCase c;
        c.label = name;
        c.params = {
            {"workload", workload.name},
            {"buffer_mb", format_double(buffer_mb)},
            {"lossless_buffer_kb",
             format_double(grouping_buffer_bytes(specs, groups, paper_link_rate()) * 1e-3)}};
        c.config = config;
        c.config.scheme.groups = groups;
        sweep.cases.push_back(std::move(c));
      }
    }
  }

  // One extractor serves both workloads: a run's flow count says which
  // conformant set applies.
  sweep.extract = [table1_size = workloads[0].flows.size(), t1 = workloads[0].conformant,
                   t2 = workloads[1].conformant](const ExperimentResult& r) {
    const auto& conformant = r.per_flow.size() == table1_size ? t1 : t2;
    return std::map<std::string, double>{
        {"loss", r.loss_ratio(conformant)},
        {"throughput", r.aggregate_throughput_mbps()},
    };
  };
  sweep.format_row = [](const SweepRow& row) {
    return std::vector<std::string>{row.params[0].second, row.params[1].second, row.label,
                                    format_double(summary_of(row, "loss").mean),
                                    format_double(summary_of(row, "throughput").mean),
                                    row.params[2].second};
  };
  return run_bench_sweep(std::move(sweep), options);
}
