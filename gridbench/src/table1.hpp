// Model-accuracy check: the Table I configuration (20-site testbed with the
// 2006-era middleware constants calibrated in bench/table1_response_time.cpp)
// run through the same public cg::Grid API, with each phase's error against
// the paper's values as listed in EXPERIMENTS.md, and the paper's shape
// claims checked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gridbench {

struct Table1Row {
  std::string name;  ///< e.g. "exclusive.submission_s"
  double paper = 0.0;
  double measured = 0.0;
  std::size_t samples = 0;
};

struct Table1Result {
  std::vector<Table1Row> rows;
  /// Best alternative's startup over the shared-VM startup (paper: > 2).
  double vm_advantage = 0.0;
  bool vm_at_least_2x = false;
  bool batch_slowest = false;
  [[nodiscard]] bool ok() const { return vm_at_least_2x && batch_slowest; }
};

/// `per_method` submissions per method on seeds derived from `seed`.
[[nodiscard]] Table1Result run_table1(std::uint64_t seed, int per_method);

}  // namespace gridbench
