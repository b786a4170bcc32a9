// Sweep descriptions of the paper's simulation figures (Figs. 1-13), as
// engine input: each figure is a grid of SweepCases (buffer or headroom x
// scheme), a metric extractor, and a CSV row formatter matching the
// columns the bench binaries have always printed.  Both the bench_fig*
// binaries and the `sweep` example CLI are thin drivers over this module.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "expt/sweep.h"
#include "util/units.h"

namespace bufq {

/// A labeled scheme variant for a figure's legend.
struct SchemeVariant {
  std::string name;
  SchemeConfig scheme;
};

/// Builds a SchemeConfig with every other field at its default.
inline SchemeConfig make_scheme(SchedulerKind scheduler, ManagerKind manager,
                                ByteSize headroom = ByteSize::megabytes(2.0),
                                std::vector<std::vector<FlowId>> groups = {}) {
  return {.scheduler = scheduler, .manager = manager, .headroom = headroom,
          .groups = std::move(groups)};
}

/// The scheme sets the figures compare.
std::vector<SchemeVariant> threshold_figure_schemes();                 // Figs 1-3
std::vector<SchemeVariant> sharing_figure_schemes(ByteSize headroom);  // Figs 4-6
std::vector<SchemeVariant> hybrid_figure_schemes(
    ByteSize headroom, const std::vector<std::vector<FlowId>>& groups);  // Figs 8-13

inline constexpr int kFirstFigure = 1;
inline constexpr int kLastFigure = 13;

/// Run-length parameters of a figure sweep; empty buffers = the figure's
/// default grid (the paper's resolution).
struct FigureParams {
  std::vector<double> buffers_mb;
  Time warmup{Time::seconds(5)};
  Time duration{Time::seconds(20)};
};

/// A figure rendered to engine input.
struct FigureSweep {
  std::string name;   ///< "Figure 7"
  std::string what;   ///< banner description
  int workload_table{1};  ///< 1 or 2 (which profile table applies)
  /// Whether the driver should print the workload table (the first figure
  /// of each workload family does; the rest reference it).
  bool print_workload{false};
  std::vector<std::string> columns;  ///< CSV header
  std::vector<SweepCase> cases;
  MetricExtractor extract;
  /// Formats one reduced row into cells matching `columns`.
  std::function<std::vector<std::string>(const SweepRow&)> format_row;
};

/// A row's summary of metric `name`, all zero when the row lacks it: a
/// failed row still prints a well-formed CSV line, and the driver reports
/// the row's error separately.
[[nodiscard]] MetricSummary summary_of(const SweepRow& row, const std::string& name);

/// The figure's stock buffer grid (MB).
[[nodiscard]] std::vector<double> figure_default_buffers_mb(int figure);

/// Builds the sweep for figure 1..13.  Throws std::invalid_argument for
/// other numbers.
[[nodiscard]] FigureSweep make_figure_sweep(int figure, const FigureParams& params);

}  // namespace bufq
