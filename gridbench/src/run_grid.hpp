// One whole-grid simulation of a workload through the public cg::Grid API:
// set-up (grid, GSI users, arrival schedule), then the run — submits fired
// from simulation events at each job's due virtual time, Grid Consoles opened
// from on_running, application output and echoed typing driven through the
// console's agent and shadow — and the virtual-time results and checks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workload.hpp"

namespace gridbench {

struct RunResult {
  // -- host time ---------------------------------------------------------
  double setup_s = 0.0;  ///< grid build + GSI users + schedule generation
  double run_s = 0.0;    ///< the timed simulation, arrivals through drain

  // -- operations (Grid::submit calls) -------------------------------------
  std::uint64_t submit_calls = 0;
  std::uint64_t submit_refused = 0;
  std::uint64_t jdl_errors = 0;

  // -- job outcomes (accepted submissions) ---------------------------------
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t nonterminal = 0;
  std::uint64_t completed_callbacks = 0;
  std::uint64_t failed_callbacks = 0;

  // -- virtual-time samples --------------------------------------------------
  std::vector<double> interactive_startup_s;
  std::vector<double> batch_turnaround_s;
  std::vector<double> echo_rtt_ms;
  std::vector<double> queue_wait_s;  ///< jobs that waited in the broker queue
  std::vector<double> discovery_s;
  std::vector<double> selection_s;

  // -- consoles --------------------------------------------------------------
  std::uint64_t sessions = 0;
  std::uint64_t reliable_checked = 0;     ///< closed, with time to drain
  std::uint64_t reliable_open = 0;        ///< still streaming at the end
  std::uint64_t reliable_violations = 0;  ///< lost or reordered lines
  std::uint64_t lines_written = 0;
  std::uint64_t lines_on_screen = 0;
  std::uint64_t lines_typed = 0;
  std::uint64_t echo_timeouts = 0;
  std::uint64_t console_fatal = 0;

  // -- invariants --------------------------------------------------------------
  std::uint64_t matches_checked = 0;
  std::uint64_t hard_excluded_matches = 0;
  std::uint64_t active_leases_end = 0;
  double end_virtual_s = 0.0;
  /// True when no non-daemon event was left (the run drained) before the cap.
  bool quiescent = false;

  // -- sampled between run slices ----------------------------------------------
  std::uint64_t broker_queue_depth_max = 0;
  std::uint64_t lrms_queue_depth_max = 0;
  std::uint64_t sim_events = 0;
  /// Glide-in carriers started twice by a duplicated control message: a
  /// known product defect whose exception is tolerated, on workloads with
  /// message faults only (each drops one event).
  std::uint64_t carrier_started_twice = 0;
  /// Any other exception out of an event handler; it stops the run.
  std::string unexpected_exception;

  std::uint64_t digest = 0;  ///< virtual-time digest of every job

  /// Layer counters read from the grid's MetricsRegistry and tracer after
  /// the run (filled only when `collect_layers` is set).
  std::map<std::string, double> layer;
  double snapshot_host_ms = 0.0;
  double export_jsonl_host_ms = 0.0;
};

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  /// Span recorder of the traced run; null for the untraced runs.
  SpanRecorder* spans = nullptr;
  /// Read registry/tracer counters after the run (timed as obs.* spans).
  bool collect_layers = false;
  /// Stop after set-up (extra set-up samples for the setup_s median).
  bool setup_only = false;
};

[[nodiscard]] RunResult run_grid(const RunOptions& options);

/// The fixed set of control-plane message types the per-type counters use.
[[nodiscard]] const std::vector<std::string>& message_types();

}  // namespace gridbench
