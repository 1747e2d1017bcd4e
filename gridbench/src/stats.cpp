#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gridbench {

namespace {

std::size_t rank_index(std::size_t n, double q) {
  // Nearest rank: the smallest value with at least q*n samples at or below.
  // The epsilon keeps q*n exact at integers (0.99 * 1000 is not 990.0).
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return rank == 0 ? 0 : rank - 1;
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - rank_index(n, q);
}

bool reportable(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinSamplesBeyond;
}

std::optional<double> quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nullopt;
  const std::size_t i = rank_index(values.size(), q);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(i),
                   values.end());
  return values[i];
}

std::optional<double> reportable_quantile(std::vector<double> values, double q) {
  if (!reportable(values.size(), q)) return std::nullopt;
  return quantile(std::move(values), q);
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument{"median of an empty set"};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

}  // namespace gridbench
