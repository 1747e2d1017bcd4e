// The metric catalog: end-to-end metrics from the untraced runs, per-layer
// metrics from the traced run, each with a name, a unit and its sample count.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "run_grid.hpp"
#include "spans.hpp"

namespace gridbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;       ///< sample count, base of a ratio
  bool reported = true;   ///< false: a percentile without enough samples beyond it
};

/// One invocation's measurements. A workload seed expands into a few
/// sub-seeds, each an independent whole-grid run; a round runs every
/// sub-seed once, untraced, and rounds repeat until the time is up.
struct Measurements {
  std::vector<std::vector<RunResult>> rounds;  ///< rounds[i][j]: sub-seed j
  std::vector<double> setup_s;  ///< every set-up-only run's set-up time
  RunResult traced;             ///< sub-seed 0 again, with spans recorded
  std::vector<Span> spans;      ///< the traced run's spans
  double peak_rss_mb = 0.0;
};

/// The sub-runs of one round as one result: counts summed, samples pooled,
/// digests chained in sub-seed order, peaks and maxima taken over all.
[[nodiscard]] RunResult combine(const std::vector<RunResult>& runs);

[[nodiscard]] std::vector<Metric> end_to_end_metrics(const Measurements& m);
[[nodiscard]] std::vector<Metric> per_layer_metrics(const Measurements& m);

/// Letters, digits, '_', '.', '-'; starts with a letter or digit; <= 64 long.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// A number with all its digits (round-trips through a double).
[[nodiscard]] std::string format_number(double v);

}  // namespace gridbench
