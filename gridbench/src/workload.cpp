#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace gridbench {

namespace {

std::string batch_jdl(std::uint64_t n, double runtime_s) {
  // Requirements/Rank vary per job so matchmaking compiles real expressions.
  return "Executable = \"reco_" + std::to_string(n % 97) +
         "\";\nArguments = \"--events " +
         std::to_string(static_cast<long>(runtime_s * 10)) +
         "\";\nRequirements = other.Arch == \"i686\" && other.MemoryMB >= " +
         std::to_string(256 * (1 + n % 4)) +
         ";\nRank = other.FreeCPUs - other.QueuedJobs;\n";
}

std::string interactive_jdl(std::uint64_t n, JobKind kind, ConsoleMode console) {
  std::string jdl = "Executable = \"viz_" + std::to_string(n % 31) +
                    "\";\nJobType = \"interactive\";\n";
  if (kind == JobKind::kShared) {
    jdl += "MachineAccess = \"shared\";\nPerformanceLoss = " +
           std::to_string(5 * (1 + n % 4)) +
           ";\nRank = other.FreeInteractiveVMs;\n";
  } else {
    jdl += "MachineAccess = \"exclusive\";\nRank = other.FreeCPUs;\n";
  }
  jdl += "StreamingMode = \"";
  jdl += console == ConsoleMode::kReliable ? "reliable" : "fast";
  jdl += "\";\nRequirements = other.Arch == \"i686\" && other.OpSys == \"linux-2.4\";\n";
  return jdl;
}

std::vector<WorkloadSpec> make_workloads() {
  std::vector<WorkloadSpec> out;
  {
    WorkloadSpec w;
    w.name = "grid_saturated";
    w.why = "E1: batch above capacity plus interactive jobs on a few dozen "
            "sites; a deep broker queue, fair share and trace growth";
    w.sites = 24;
    w.nodes_per_site = 4;
    w.users = 64;
    w.horizon_s = 2.0 * 3600;
    w.drain_s = 6.0 * 3600;
    w.batch_runtime_mean_s = 1200.0;
    // Capacity is 96 nodes / 1200 s = 0.08 jobs/s; arrivals run 25% above.
    w.batch_rate = 0.10;
    w.exclusive_rate = 0.01;
    w.shared_rate = 0.03;
    w.interactive_runtime_mean_s = 300.0;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "grid_wide_faults";
    w.why = "hundreds of sites with glide-ins under seeded link, agent, node "
            "and message faults; supervision, bus and recovery";
    w.sites = 200;
    w.nodes_per_site = 2;
    w.users = 32;
    w.preload_fraction = 0.8;
    w.horizon_s = 1800.0;
    w.drain_s = 3600.0;
    w.batch_runtime_mean_s = 600.0;
    // About 150 of the 400 nodes busy with batch work, 160 with warm agents.
    w.batch_rate = 0.25;
    w.exclusive_rate = 0.01;
    w.shared_rate = 0.05;
    w.interactive_runtime_mean_s = 300.0;
    w.console_fraction = 0.25;
    w.faults = true;
    w.drains = false;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "console_storm";
    w.why = "hundreds of concurrent shared interactive sessions on a small "
            "grid; output bursts and echoed typing in both streaming modes";
    // One interactive VM per agent, the paper's degree: the product's
    // degree > 1 path strands and crashes jobs (see gridbench/README.md).
    w.sites = 8;
    w.nodes_per_site = 32;
    w.preload_fraction = 1.0;
    w.preload_per_site = 24;
    w.users = 48;
    w.horizon_s = 1200.0;
    w.drain_s = 5000.0;
    w.batch_runtime_mean_s = 600.0;
    w.batch_rate = 0.05;
    // About 180 sessions at once: 0.3 arrivals/s times 600 s each.
    w.shared_rate = 0.3;
    w.interactive_runtime_mean_s = 600.0;
    w.console_fraction = 1.0;
    w.burst_period_mean_s = 3.0;
    w.burst_lines = 3;
    w.think_mean_s = 5.0;
    w.slice_s = 30.0;
    out.push_back(w);
  }
  return out;
}

}  // namespace

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kBatch: return "batch";
    case JobKind::kExclusive: return "exclusive";
    case JobKind::kShared: return "shared";
  }
  return "?";
}

const char* to_string(ConsoleMode mode) {
  switch (mode) {
    case ConsoleMode::kNone: return "none";
    case ConsoleMode::kFast: return "fast";
    case ConsoleMode::kReliable: return "reliable";
  }
  return "?";
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = make_workloads();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  SplitMix m{seed ^ (salt * 0x9e3779b97f4a7c15ULL)};
  return m.next();
}

std::vector<Arrival> generate_schedule(const WorkloadSpec& spec, std::uint64_t seed) {
  std::vector<Arrival> out;
  const std::tuple<JobKind, double> streams[] = {
      {JobKind::kBatch, spec.batch_rate},
      {JobKind::kExclusive, spec.exclusive_rate},
      {JobKind::kShared, spec.shared_rate},
  };
  for (const auto& [kind, rate] : streams) {
    if (rate <= 0.0) continue;
    SplitMix rng{mix_seed(seed, static_cast<std::uint64_t>(kind) + 1)};
    // A Poisson stream conditioned on its expected count: the arrival times
    // of a Poisson process given N arrivals are N independent uniforms, and
    // each arrival belongs to a uniformly drawn user. Fixing N keeps the
    // offered load equal across seeds, so seeds vary the order, not the size.
    const auto n = static_cast<std::size_t>(std::llround(rate * spec.horizon_s));
    const double mean_runtime = kind == JobKind::kBatch ? spec.batch_runtime_mean_s
                                                        : spec.interactive_runtime_mean_s;
    // Runtimes are exponential, drawn one per stratum of the distribution in
    // random order (Latin hypercube), so the total work barely moves with
    // the seed either.
    std::vector<std::size_t> strata(n);
    for (std::size_t k = 0; k < n; ++k) strata[k] = k;
    for (std::size_t k = n; k > 1; --k) std::swap(strata[k - 1], strata[rng.next() % k]);
    const auto consoles = static_cast<std::size_t>(
        std::llround(spec.console_fraction * static_cast<double>(n)));
    const std::size_t reliable = (consoles + 1) / 2;  // half in each mode, odd one reliable
    for (std::size_t k = 0; k < n; ++k) {
      Arrival a;
      a.at_s = rng.uniform01() * spec.horizon_s;
      a.user = static_cast<std::uint32_t>(1 + rng.next() % static_cast<std::uint64_t>(spec.users));
      a.kind = kind;
      const double p = (static_cast<double>(strata[k]) + rng.uniform01()) / static_cast<double>(n);
      a.runtime_s = std::max(30.0, -mean_runtime * std::log1p(-p));
      // Arrivals are in random order here, so the first ones are a random subset.
      if (kind != JobKind::kBatch && k < consoles) {
        a.console = k < reliable ? ConsoleMode::kReliable : ConsoleMode::kFast;
      }
      a.session_seed = rng.next();
      out.push_back(std::move(a));
    }
  }
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return std::tie(a.at_s, a.user, a.kind) < std::tie(b.at_s, b.user, b.kind);
  });
  // JDL text is generated after ordering so its numbering follows arrival order.
  std::uint64_t n = 0;
  for (Arrival& a : out) {
    ++n;
    a.jdl = a.kind == JobKind::kBatch ? batch_jdl(n, a.runtime_s)
                                      : interactive_jdl(n, a.kind, a.console);
  }
  return out;
}

void Fnv::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t schedule_digest(const std::vector<Arrival>& schedule) {
  Fnv f;
  for (const Arrival& a : schedule) {
    f.i64(static_cast<std::int64_t>(std::llround(a.at_s * 1e6)));
    f.u64(a.user);
    f.u64(static_cast<std::uint64_t>(a.kind));
    f.u64(static_cast<std::uint64_t>(a.console));
    f.i64(static_cast<std::int64_t>(std::llround(a.runtime_s * 1e6)));
    f.u64(a.session_seed);
    f.str(a.jdl);
  }
  return f.h;
}

}  // namespace gridbench
