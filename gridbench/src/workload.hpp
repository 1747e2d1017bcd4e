// The benchmark's workloads and their seeded input generator. The generator
// produces the whole arrival schedule — times, users, job kinds, runtimes and
// JDL text — before the run starts; the grid under test only ever sees the
// generated JDL text and the submit calls made from it.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace gridbench {

/// The generator's own PRNG (SplitMix64), so inputs do not change when the
/// product's Rng does.
class SplitMix {
public:
  explicit SplitMix(std::uint64_t seed) : state_{seed} {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double exponential(double mean) { return -mean * std::log1p(-uniform01()); }

private:
  std::uint64_t state_;
};

enum class JobKind { kBatch, kExclusive, kShared };
enum class ConsoleMode { kNone, kFast, kReliable };

[[nodiscard]] const char* to_string(JobKind kind);
[[nodiscard]] const char* to_string(ConsoleMode mode);

struct WorkloadSpec {
  std::string name;
  std::string why;  ///< one line: what the workload stresses
  // -- grid ------------------------------------------------------------------
  int sites = 4;
  int nodes_per_site = 4;
  double preload_fraction = 0.0;   ///< share of sites given warm agents
  int preload_per_site = 1;        ///< warm agents on each of those sites
  // -- open-loop arrivals (whole grid, per virtual second) -------------------
  int users = 8;
  double horizon_s = 3600.0;       ///< arrivals stop here
  double drain_s = 3600.0;         ///< virtual time allowed after the horizon
  double batch_rate = 0.0;
  double exclusive_rate = 0.0;
  double shared_rate = 0.0;
  double batch_runtime_mean_s = 1200.0;
  double interactive_runtime_mean_s = 300.0;
  // -- consoles (closed loop per session) -----------------------------------
  double console_fraction = 0.0;   ///< of interactive jobs
  double burst_period_mean_s = 2.0;
  int burst_lines = 4;
  double think_mean_s = 4.0;
  // -- faults ------------------------------------------------------------------
  bool faults = false;
  /// Whether the workload is expected to drain (leases checked at quiescence).
  bool drains = true;
  /// Virtual seconds between the sampling points of queue depths.
  double slice_s = 60.0;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// Null when no workload has that name.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

struct Arrival {
  double at_s = 0.0;
  std::uint32_t user = 0;  ///< 1-based
  JobKind kind = JobKind::kBatch;
  ConsoleMode console = ConsoleMode::kNone;
  double runtime_s = 0.0;
  std::string jdl;
  std::uint64_t session_seed = 0;  ///< drives the console session's behaviour
};

/// Independent Poisson users, merged in time order. Same seed, same schedule.
[[nodiscard]] std::vector<Arrival> generate_schedule(const WorkloadSpec& spec,
                                                     std::uint64_t seed);

/// FNV-1a digest of everything in a schedule (determinism checks).
[[nodiscard]] std::uint64_t schedule_digest(const std::vector<Arrival>& schedule);

/// 64-bit FNV-1a, shared by every digest the benchmark prints.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace gridbench
