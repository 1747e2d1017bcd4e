// Percentiles as the benchmark reports them: nearest rank on a sorted copy,
// and a percentile is reported only when at least ten samples lie beyond it
// (so p99 needs 1000 samples, p50 needs 20).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace gridbench {

inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Samples strictly beyond the nearest-rank position of quantile q (0 < q < 1).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// True when quantile q of n samples has at least kMinSamplesBeyond beyond it.
[[nodiscard]] bool reportable(std::size_t n, double q);

/// Nearest-rank quantile; nullopt on an empty set.
[[nodiscard]] std::optional<double> quantile(std::vector<double> values, double q);

/// quantile() when reportable(), else nullopt.
[[nodiscard]] std::optional<double> reportable_quantile(std::vector<double> values,
                                                        double q);

/// The median of a non-empty set (mean of the two middle values when even).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace gridbench
