// gridbench: whole-grid simulation benchmark over the public cg::Grid API.
//
//   gridbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-rev <rev>]
//
// The seed expands into a few sub-seeds, each one whole-grid simulation of
// the workload. Rounds of the untraced sub-seed runs repeat until --seconds
// of host time have passed, each run followed by a few timed set-ups.
// Then sub-seed 0 runs once more, traced; then the Table I model-accuracy
// check runs. Prints every metric by name and unit and the checks; the last
// line is one JSON object with the end-to-end metrics, plus the per-layer
// ones with --trace 1.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "report.hpp"
#include "run_grid.hpp"
#include "table1.hpp"
#include "util/log.hpp"

#ifndef GRIDBENCH_COMPILER
#define GRIDBENCH_COMPILER "unknown"
#endif
#ifndef GRIDBENCH_FLAGS
#define GRIDBENCH_FLAGS "unknown"
#endif

namespace gridbench {
namespace {

/// Independent whole-grid runs per workload seed: pooling them keeps a
/// seed's figures close to the workload's, not to one draw of it.
constexpr int kSubSeeds = 4;
constexpr std::size_t kMinRounds = 2;
/// Set-ups timed after every full run, each one a setup_s sample.
constexpr std::size_t kSetupsPerRun = 8;
constexpr int kTable1PerMethod = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".";
  std::string git_rev = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "gridbench: " << why << "\nusage: gridbench --workload <";
  for (const WorkloadSpec& w : workloads()) std::cerr << w.name << "|";
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--git-rev <rev>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else if (key == "--out-dir") {
        a.out_dir = value;
      } else if (key == "--git-rev") {
        a.git_rev = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::exception&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

class Checks {
public:
  void add(const std::string& name, bool ok, const std::string& detail) {
    std::cout << "check " << name << (ok ? " ok " : " FAIL ") << detail << "\n";
    all_ok_ = all_ok_ && ok;
  }
  [[nodiscard]] bool ok() const { return all_ok_; }

private:
  bool all_ok_ = true;
};

void print_metric(const Metric& m) {
  std::cout << "metric " << m.name << " = "
            << (m.reported ? format_number(m.value) : std::string{"n/a"}) << " " << m.unit;
  if (!m.note.empty()) std::cout << "  (" << m.note << ")";
  std::cout << "\n";
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) usage("unknown workload " + args.workload);
  cg::Logger::instance().set_level(cg::LogLevel::kError);

  std::cout << "# gridbench workload=" << spec->name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "# why: " << spec->why << "\n"
            << "# grid: " << spec->sites << " sites x " << spec->nodes_per_site
            << " nodes, " << spec->users << " users, horizon " << spec->horizon_s
            << " s virtual (+" << spec->drain_s << " s drain)\n"
            << "# meta compiler=\"" << GRIDBENCH_COMPILER << "\" flags=\"" << GRIDBENCH_FLAGS
            << "\" nproc=" << std::thread::hardware_concurrency()
            << " git=" << args.git_rev << "\n";

  // The workload seed expands into kSubSeeds independent whole-grid runs.
  std::vector<std::uint64_t> sub_seeds;
  for (int j = 0; j < kSubSeeds; ++j) {
    sub_seeds.push_back(mix_seed(args.seed, 1000 + static_cast<std::uint64_t>(j)));
  }
  Measurements m;
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // Stops at the first run boundary past --seconds, so the last round may be
  // partial; the first kMinRounds rounds are always complete.
  for (std::size_t k = 0;; ++k) {
    const std::size_t j = k % sub_seeds.size();
    if (k >= sub_seeds.size() * kMinRounds && elapsed() >= args.seconds) break;
    if (j == 0) m.rounds.emplace_back();
    m.rounds.back().push_back(run_grid(RunOptions{spec, sub_seeds[j], nullptr, false, false}));
    for (std::size_t i = 1; i <= kSetupsPerRun; ++i) {
      const std::uint64_t seed = sub_seeds[(j + i) % sub_seeds.size()];
      m.setup_s.push_back(run_grid(RunOptions{spec, seed, nullptr, false, true}).setup_s);
    }
  }
  m.peak_rss_mb = peak_rss_mb();

  SpanRecorder recorder;
  m.traced = run_grid(RunOptions{spec, sub_seeds.front(), &recorder, args.trace == 1, false});
  m.spans = recorder.spans();
  if (args.trace == 1) {
    // One file per workload, replaced by each traced run: spans of a long
    // run take tens of megabytes.
    const std::string path = args.out_dir + "/spans-" + spec->name + ".jsonl";
    std::ofstream out{path};
    out << recorder.to_jsonl();
    std::cout << "# spans: " << m.spans.size() << " written to " << path << "\n";
  }

  const std::vector<Metric> e2e = end_to_end_metrics(m);
  const std::vector<Metric> layers = per_layer_metrics(m);
  for (const Metric& metric : e2e) print_metric(metric);
  if (args.trace == 1) {
    for (const Metric& metric : layers) print_metric(metric);
  }

  // -- correctness -------------------------------------------------------------
  Checks checks;
  bool same = m.traced.digest == m.rounds.front().front().digest;
  for (const std::vector<RunResult>& round : m.rounds) {
    for (std::size_t j = 0; j < round.size(); ++j) {
      same = same && round[j].digest == m.rounds.front()[j].digest;
    }
  }
  const RunResult r = combine(m.rounds.front());
  checks.add("digest", same,
             "virtual-time digest " + hex(r.digest) + " over " +
                 std::to_string(m.rounds.size()) + " rounds of " +
                 std::to_string(sub_seeds.size()) +
                 " sub-seeds, sub-seed 0 also traced" +
                 (same ? "" : " (traced " + hex(m.traced.digest) + ")"));
  const bool states_close = r.accepted == r.completed + r.failed + r.rejected + r.nonterminal;
  const bool callbacks_agree = r.completed_callbacks == r.completed &&
                               r.failed_callbacks == r.failed + r.rejected;
  const bool calls_close = r.submit_calls == r.accepted + r.submit_refused + r.jdl_errors;
  checks.add("accounting", states_close && callbacks_agree && calls_close,
             "submitted=" + std::to_string(r.submit_calls) +
                 " accepted=" + std::to_string(r.accepted) +
                 " completed=" + std::to_string(r.completed) +
                 " failed=" + std::to_string(r.failed) +
                 " rejected=" + std::to_string(r.rejected) +
                 " nonterminal=" + std::to_string(r.nonterminal) +
                 " refused=" + std::to_string(r.submit_refused + r.jdl_errors) +
                 " callbacks(completed=" + std::to_string(r.completed_callbacks) +
                 " failed=" + std::to_string(r.failed_callbacks) + ")");
  checks.add("reliable_streams", r.reliable_violations == 0,
             std::to_string(r.reliable_checked) + " closed reliable sessions, " +
                 std::to_string(r.reliable_violations) + " lost or reordered a line (" +
                 std::to_string(r.reliable_open) + " still streaming at the end)");
  checks.add("placement", r.hard_excluded_matches == 0,
             std::to_string(r.matches_checked) + " matches, " +
                 std::to_string(r.hard_excluded_matches) + " on a hard-excluded site");
  if (spec->drains && r.quiescent) {
    checks.add("leases", r.active_leases_end == 0,
               std::to_string(r.active_leases_end) + " leases held at quiescence (t=" +
                   format_number(r.end_virtual_s) + " s)");
  } else {
    std::cout << "check leases skipped ("
              << (spec->drains ? "the run did not drain by the cap"
                               : "workload does not drain")
              << "): " << r.active_leases_end << " leases held, " << r.nonterminal
              << " jobs not terminal at t=" << format_number(r.end_virtual_s) << " s\n";
  }

  std::cout << "note consoles: " << r.sessions << " sessions, " << r.lines_typed
            << " lines typed, " << r.echo_timeouts << " echoes abandoned after 30 s, "
            << r.console_fatal << " reliable channels gave up\n";
  // Every run, not only round 0: an exception stops its run, which the
  // digest check would also see, but this names the exception.
  std::string unexpected = m.traced.unexpected_exception;
  for (const std::vector<RunResult>& round : m.rounds) {
    for (const RunResult& run : round) {
      if (unexpected.empty()) unexpected = run.unexpected_exception;
    }
  }
  checks.add("exceptions", unexpected.empty(),
             unexpected.empty()
                 ? std::to_string(r.carrier_started_twice) +
                       " tolerated 'agent carrier started twice' in round 0" +
                       (spec->faults ? "" : " (none allowed without message faults)")
                 : "an event handler threw: " + unexpected);

  const auto table1_start = Clock::now();
  const Table1Result t1 = run_table1(args.seed, kTable1PerMethod);
  for (const Table1Row& row : t1.rows) {
    std::cout << "table1 " << row.name << " measured=" << format_number(row.measured)
              << " paper=" << row.paper << " error="
              << format_number((row.measured - row.paper) / row.paper * 100.0)
              << "% n=" << row.samples << "\n";
  }
  checks.add("table1_shape", t1.ok(),
             "shared-VM startup " + format_number(t1.vm_advantage) +
                 "x faster than the best alternative (needs >= 2), batch slowest: " +
                 (t1.batch_slowest ? "yes" : "no") + " (" +
                 format_number(std::chrono::duration<double>(Clock::now() - table1_start)
                                   .count()) +
                 " s host)");

  // -- result line ----------------------------------------------------------------
  std::vector<Metric> selected = e2e;
  if (args.trace == 1) selected.insert(selected.end(), layers.begin(), layers.end());
  std::string json = "{\"correct\": ";
  json += checks.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.submit_calls);
  json += ", \"failed\": " + std::to_string(r.submit_refused + r.jdl_errors);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : selected) {
    if (!metric.reported) continue;
    json += first ? "" : ", ";
    first = false;
    json += "\"" + metric.name + "\": {\"value\": " + format_number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace
}  // namespace gridbench

int main(int argc, char** argv) {
  try {
    return gridbench::run(gridbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "gridbench: " << e.what() << "\n";
    return 1;
  }
}
