#include "expt/figures.h"

#include <map>
#include <stdexcept>
#include <utility>

#include "expt/workloads.h"
#include "util/csv.h"

namespace bufq {

std::vector<SchemeVariant> threshold_figure_schemes() {
  return {
      {"fifo+thresholds", make_scheme(SchedulerKind::kFifo, ManagerKind::kThreshold)},
      {"wfq+thresholds", make_scheme(SchedulerKind::kWfq, ManagerKind::kThreshold)},
      {"fifo+no-bm", make_scheme(SchedulerKind::kFifo, ManagerKind::kNone)},
      {"wfq+no-bm", make_scheme(SchedulerKind::kWfq, ManagerKind::kNone)},
  };
}

std::vector<SchemeVariant> sharing_figure_schemes(ByteSize headroom) {
  return {
      {"fifo+sharing", make_scheme(SchedulerKind::kFifo, ManagerKind::kSharing, headroom)},
      {"wfq+sharing", make_scheme(SchedulerKind::kWfq, ManagerKind::kSharing, headroom)},
      {"fifo+no-bm", make_scheme(SchedulerKind::kFifo, ManagerKind::kNone)},
      {"wfq+no-bm", make_scheme(SchedulerKind::kWfq, ManagerKind::kNone)},
  };
}

std::vector<SchemeVariant> hybrid_figure_schemes(
    ByteSize headroom, const std::vector<std::vector<FlowId>>& groups) {
  return {
      {"hybrid+sharing", make_scheme(SchedulerKind::kHybrid, ManagerKind::kSharing, headroom, groups)},
      {"wfq+sharing", make_scheme(SchedulerKind::kWfq, ManagerKind::kSharing, headroom)},
      {"fifo+sharing", make_scheme(SchedulerKind::kFifo, ManagerKind::kSharing, headroom)},
  };
}

MetricSummary summary_of(const SweepRow& row, const std::string& name) {
  const auto it = row.metrics.find(name);
  return it != row.metrics.end() ? it->second : MetricSummary{};
}

namespace {

ExperimentConfig base_config(int table, const FigureParams& params) {
  ExperimentConfig config;
  config.link_rate = paper_link_rate();
  config.flows = table == 2 ? table2_flows() : table1_flows();
  config.warmup = params.warmup;
  config.duration = params.duration;
  return config;
}

/// buffer x scheme grid, one case per CSV row, row-major in buffer so the
/// output ordering matches the pre-engine serial loops.
std::vector<SweepCase> grid_cases(const ExperimentConfig& base,
                                  const std::vector<double>& buffers_mb,
                                  const std::vector<SchemeVariant>& schemes) {
  std::vector<SweepCase> cases;
  cases.reserve(buffers_mb.size() * schemes.size());
  for (double buffer_mb : buffers_mb) {
    for (const SchemeVariant& variant : schemes) {
      SweepCase c;
      c.label = variant.name;
      c.params = {{"buffer_mb", format_double(buffer_mb)}};
      c.config = base;
      c.config.buffer = ByteSize::megabytes(buffer_mb);
      c.config.scheme = variant.scheme;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

/// Param echo + legend label, the common row prefix.
std::vector<std::string> echo_cells(const SweepRow& row) {
  std::vector<std::string> cells;
  cells.reserve(row.params.size() + 1);
  for (const auto& [key, value] : row.params) cells.push_back(value);
  cells.push_back(row.label);
  return cells;
}

MetricExtractor throughput_extractor() {
  return [](const ExperimentResult& r) {
    return std::map<std::string, double>{{"throughput_mbps", r.aggregate_throughput_mbps()}};
  };
}

MetricExtractor conformant_loss_extractor(std::vector<FlowId> conformant) {
  return [conformant = std::move(conformant)](const ExperimentResult& r) {
    return std::map<std::string, double>{{"loss_ratio", r.loss_ratio(conformant)}};
  };
}

MetricExtractor excess_flows_extractor() {
  return [](const ExperimentResult& r) {
    return std::map<std::string, double>{
        {"flow6_mbps", r.flow_throughput_mbps(6)},
        {"flow8_mbps", r.flow_throughput_mbps(8)},
    };
  };
}

FigureSweep throughput_figure(std::string name, std::string what, int table,
                              std::vector<SweepCase> cases) {
  FigureSweep fig;
  fig.name = std::move(name);
  fig.what = std::move(what);
  fig.workload_table = table;
  fig.columns = {"buffer_mb", "scheme", "throughput_mbps", "ci95_mbps", "utilization"};
  fig.cases = std::move(cases);
  fig.extract = throughput_extractor();
  fig.format_row = [](const SweepRow& row) {
    const MetricSummary s = summary_of(row, "throughput_mbps");
    auto cells = echo_cells(row);
    cells.push_back(format_double(s.mean));
    cells.push_back(format_double(s.ci95));
    cells.push_back(format_double(s.mean / paper_link_rate().mbps()));
    return cells;
  };
  return fig;
}

FigureSweep loss_figure(std::string name, std::string what, int table,
                        std::vector<SweepCase> cases, std::vector<FlowId> conformant) {
  FigureSweep fig;
  fig.name = std::move(name);
  fig.what = std::move(what);
  fig.workload_table = table;
  fig.columns = {"buffer_mb", "scheme", "loss_ratio", "ci95"};
  fig.cases = std::move(cases);
  fig.extract = conformant_loss_extractor(std::move(conformant));
  fig.format_row = [](const SweepRow& row) {
    const MetricSummary s = summary_of(row, "loss_ratio");
    auto cells = echo_cells(row);
    cells.push_back(format_double(s.mean));
    cells.push_back(format_double(s.ci95));
    return cells;
  };
  return fig;
}

FigureSweep excess_figure(std::string name, std::string what, int table,
                          std::vector<SweepCase> cases) {
  FigureSweep fig;
  fig.name = std::move(name);
  fig.what = std::move(what);
  fig.workload_table = table;
  fig.columns = {"buffer_mb", "scheme", "flow6_mbps", "flow6_ci95",
                 "flow8_mbps", "flow8_ci95", "ratio_8_over_6"};
  fig.cases = std::move(cases);
  fig.extract = excess_flows_extractor();
  fig.format_row = [](const SweepRow& row) {
    const MetricSummary f6 = summary_of(row, "flow6_mbps");
    const MetricSummary f8 = summary_of(row, "flow8_mbps");
    auto cells = echo_cells(row);
    cells.push_back(format_double(f6.mean));
    cells.push_back(format_double(f6.ci95));
    cells.push_back(format_double(f8.mean));
    cells.push_back(format_double(f8.ci95));
    cells.push_back(format_double(f6.mean > 0 ? f8.mean / f6.mean : 0.0));
    return cells;
  };
  return fig;
}

FigureSweep headroom_figure(const FigureParams& params, const std::vector<double>& buffers_mb) {
  FigureSweep fig;
  fig.name = "Figure 7";
  fig.what = "conformant-flow loss vs headroom H at fixed buffer sizes";
  fig.workload_table = 1;
  fig.columns = {"buffer_mb", "headroom_kb", "scheme", "loss_ratio", "ci95",
                 "throughput_mbps"};
  const ExperimentConfig base = base_config(1, params);
  // Sweep H from zero to the full buffer at each fixed buffer size.
  for (double buffer_mb : buffers_mb) {
    for (double fraction : {0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0}) {
      const double h_kb = fraction * buffer_mb * 1e3;
      for (auto sched : {SchedulerKind::kFifo, SchedulerKind::kWfq}) {
        SweepCase c;
        c.label = sched == SchedulerKind::kFifo ? "fifo+sharing" : "wfq+sharing";
        c.params = {{"buffer_mb", format_double(buffer_mb)},
                    {"headroom_kb", format_double(h_kb)}};
        c.config = base;
        c.config.buffer = ByteSize::megabytes(buffer_mb);
        c.config.scheme.scheduler = sched;
        c.config.scheme.manager = ManagerKind::kSharing;
        c.config.scheme.headroom = ByteSize::kilobytes(h_kb);
        fig.cases.push_back(std::move(c));
      }
    }
  }
  fig.extract = [conformant = table1_conformant_flows()](const ExperimentResult& r) {
    return std::map<std::string, double>{
        {"loss_ratio", r.loss_ratio(conformant)},
        {"throughput_mbps", r.aggregate_throughput_mbps()},
    };
  };
  fig.format_row = [](const SweepRow& row) {
    const MetricSummary loss = summary_of(row, "loss_ratio");
    auto cells = echo_cells(row);
    cells.push_back(format_double(loss.mean));
    cells.push_back(format_double(loss.ci95));
    cells.push_back(format_double(summary_of(row, "throughput_mbps").mean));
    return cells;
  };
  return fig;
}

FigureSweep hybrid2_loss_figure(std::vector<SweepCase> cases) {
  FigureSweep fig;
  fig.name = "Figure 12";
  fig.what = "hybrid case 2: conformant + moderate flow loss vs buffer size";
  fig.workload_table = 2;
  fig.columns = {"buffer_mb", "scheme", "conformant_loss", "conf_ci95",
                 "moderate_loss", "mod_ci95"};
  fig.cases = std::move(cases);
  fig.extract = [conformant = table2_conformant_flows(),
                 moderate = table2_moderate_flows()](const ExperimentResult& r) {
    return std::map<std::string, double>{
        {"conformant_loss", r.loss_ratio(conformant)},
        {"moderate_loss", r.loss_ratio(moderate)},
    };
  };
  fig.format_row = [](const SweepRow& row) {
    const MetricSummary c = summary_of(row, "conformant_loss");
    const MetricSummary m = summary_of(row, "moderate_loss");
    auto cells = echo_cells(row);
    cells.push_back(format_double(c.mean));
    cells.push_back(format_double(c.ci95));
    cells.push_back(format_double(m.mean));
    cells.push_back(format_double(m.ci95));
    return cells;
  };
  return fig;
}

FigureSweep hybrid2_excess_figure(std::vector<SweepCase> cases) {
  FigureSweep fig;
  fig.name = "Figure 13";
  fig.what = "hybrid case 2: aggressive-group throughput vs buffer size";
  fig.workload_table = 2;
  fig.columns = {"buffer_mb", "scheme", "aggressive_mbps", "aggr_ci95",
                 "moderate_mbps", "mod_ci95"};
  fig.cases = std::move(cases);
  fig.extract = [](const ExperimentResult& r) {
    double aggressive = 0.0;
    for (FlowId f = 20; f < 30; ++f) aggressive += r.flow_throughput_mbps(f);
    double moderate = 0.0;
    for (FlowId f = 10; f < 20; ++f) moderate += r.flow_throughput_mbps(f);
    return std::map<std::string, double>{
        {"aggressive_mbps", aggressive},
        {"moderate_mbps", moderate},
    };
  };
  fig.format_row = [](const SweepRow& row) {
    const MetricSummary a = summary_of(row, "aggressive_mbps");
    const MetricSummary m = summary_of(row, "moderate_mbps");
    auto cells = echo_cells(row);
    cells.push_back(format_double(a.mean));
    cells.push_back(format_double(a.ci95));
    cells.push_back(format_double(m.mean));
    cells.push_back(format_double(m.ci95));
    return cells;
  };
  return fig;
}

}  // namespace

std::vector<double> figure_default_buffers_mb(int figure) {
  switch (figure) {
    case 1:
    case 4:
      return {0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0};
    case 2:
    case 5:
      return {0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0};
    case 3:
    case 6:
    case 8:
    case 10:
    case 11:
    case 13:
      return {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0};
    case 7:
      // Buffer sizes per series; the swept variable is the headroom.
      return {1.0, 0.3};
    case 9:
      return {0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0};
    case 12:
      return {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0};
    default:
      throw std::invalid_argument("no such figure: " + std::to_string(figure));
  }
}

namespace {

FigureSweep with_workload_table(FigureSweep fig) {
  fig.print_workload = true;
  return fig;
}

}  // namespace

FigureSweep make_figure_sweep(int figure, const FigureParams& params) {
  const std::vector<double> buffers =
      params.buffers_mb.empty() ? figure_default_buffers_mb(figure) : params.buffers_mb;
  const auto h2 = ByteSize::megabytes(2.0);
  switch (figure) {
    case 1:
      return with_workload_table(throughput_figure(
          "Figure 1", "aggregate throughput vs buffer size, threshold buffer management", 1,
          grid_cases(base_config(1, params), buffers, threshold_figure_schemes())));
    case 2:
      return loss_figure(
          "Figure 2", "conformant-flow loss vs buffer size, threshold buffer management", 1,
          grid_cases(base_config(1, params), buffers, threshold_figure_schemes()),
          table1_conformant_flows());
    case 3:
      return excess_figure(
          "Figure 3", "non-conformant flow throughput (flows 6 and 8) vs buffer size", 1,
          grid_cases(base_config(1, params), buffers, threshold_figure_schemes()));
    case 4:
      return throughput_figure(
          "Figure 4", "aggregate throughput vs buffer size, buffer sharing (H = 2 MB)", 1,
          grid_cases(base_config(1, params), buffers, sharing_figure_schemes(h2)));
    case 5:
      return loss_figure(
          "Figure 5", "conformant-flow loss vs buffer size, buffer sharing (H = 2 MB)", 1,
          grid_cases(base_config(1, params), buffers, sharing_figure_schemes(h2)),
          table1_conformant_flows());
    case 6:
      return excess_figure(
          "Figure 6",
          "non-conformant flow throughput (flows 6 and 8), buffer sharing (H = 2 MB)", 1,
          grid_cases(base_config(1, params), buffers, sharing_figure_schemes(h2)));
    case 7:
      return headroom_figure(params, buffers);
    case 8:
      return with_workload_table(throughput_figure(
          "Figure 8", "hybrid case 1 (3 queues): aggregate throughput vs buffer size", 1,
          grid_cases(base_config(1, params), buffers,
                     hybrid_figure_schemes(h2, case1_groups()))));
    case 9:
      return loss_figure(
          "Figure 9", "hybrid case 1 (3 queues): conformant-flow loss vs buffer size", 1,
          grid_cases(base_config(1, params), buffers,
                     hybrid_figure_schemes(h2, case1_groups())),
          table1_conformant_flows());
    case 10:
      return excess_figure(
          "Figure 10", "hybrid case 1 (3 queues): non-conformant flow throughput vs buffer size",
          1,
          grid_cases(base_config(1, params), buffers,
                     hybrid_figure_schemes(h2, case1_groups())));
    case 11:
      return with_workload_table(throughput_figure(
          "Figure 11", "hybrid case 2 (30 flows, 3 queues): aggregate throughput vs buffer size",
          2,
          grid_cases(base_config(2, params), buffers,
                     hybrid_figure_schemes(h2, case2_groups()))));
    case 12:
      return hybrid2_loss_figure(grid_cases(base_config(2, params), buffers,
                                            hybrid_figure_schemes(h2, case2_groups())));
    case 13:
      return hybrid2_excess_figure(grid_cases(base_config(2, params), buffers,
                                              hybrid_figure_schemes(h2, case2_groups())));
    default:
      throw std::invalid_argument("no such figure: " + std::to_string(figure));
  }
}

}  // namespace bufq
