// cg::Grid — the facade over the whole stack. One object that owns the
// simulated testbed (sites, information system, network, CrossBroker), the
// observability bundle (metrics registry + job tracer), wired together so
// every submission is instrumented without per-caller plumbing.
//
//   cg::Grid grid;
//   auto job = grid.submit(desc, user, workload);
//   if (!job) { /* typed reason: job.error().kind */ }
//   auto done = job->await();                  // runs virtual time
//   grid.metrics_snapshot().render();          // every instrument, sorted
//   grid.export_chrome_trace();                // chrome://tracing timeline
//
// Examples, benches, and tests talk to this API; CrossBroker/Site internals
// stay reachable through scenario() for surgical experiments (fault
// injection, saturation backdrops).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "broker/grid_scenario.hpp"
#include "broker/submit_error.hpp"
#include "obs/observability.hpp"

namespace cg {

using GridConfig = broker::GridScenarioConfig;

class Grid;

/// A submitted job: inspect its state, run virtual time until it finishes,
/// and pull its typed trace events. Cheap to copy; valid while the Grid
/// lives.
class JobHandle {
public:
  JobHandle() = default;

  [[nodiscard]] JobId id() const { return id_; }
  [[nodiscard]] bool valid() const { return grid_ != nullptr && id_.valid(); }

  /// The job's live record (null only on a default-constructed handle).
  [[nodiscard]] const broker::JobRecord* record() const;
  [[nodiscard]] broker::JobState state() const;
  [[nodiscard]] bool done() const;

  /// Runs the simulation until the job reaches a terminal state (or no
  /// non-daemon events remain). Completion returns the final record;
  /// failure/rejection returns the classified reason (kNoMatch, kAuth,
  /// kOverShare, kLeaseConflict, ...).
  Expected<const broker::JobRecord*, broker::SubmitError> await();

  /// This job's typed lifecycle events recorded so far.
  [[nodiscard]] std::vector<obs::JobTraceEvent> trace() const;

  /// Live subscription filtered to this job: `callback` runs synchronously
  /// whenever an event of `kind` is recorded for this job id. Returns the
  /// subscription id for Grid::unsubscribe. Invalid on a
  /// default-constructed handle (returns 0, never fires).
  obs::JobTracer::SubscriptionId on_event(
      obs::TraceEventKind kind,
      std::function<void(const obs::JobTraceEvent&)> callback);

private:
  friend class Grid;
  JobHandle(Grid* grid, JobId id) : grid_{grid}, id_{id} {}

  Grid* grid_ = nullptr;
  JobId id_;
};

class Grid {
public:
  explicit Grid(GridConfig config = {});
  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  // -- submission ----------------------------------------------------------
  /// Submits a job for `user`. The workload is what the job does once it
  /// runs; callbacks are optional. Refusals (bad description, failed GSI
  /// pre-flight) come back as typed errors instead of throws.
  [[nodiscard]] Expected<JobHandle, broker::SubmitError> submit(
      jdl::JobDescription description, UserId user, lrms::Workload workload,
      broker::JobCallbacks callbacks = {});

  /// Handle for a job submitted earlier (e.g. through scenario().broker()).
  [[nodiscard]] JobHandle job(JobId id) { return JobHandle{this, id}; }

  // -- virtual time --------------------------------------------------------
  /// Runs until no non-daemon events remain. Returns events processed.
  std::size_t run() { return scenario_.sim().run(); }
  /// Runs the clock forward by `d` (daemon events included).
  std::size_t run_for(Duration d) {
    return scenario_.sim().run_until(scenario_.sim().now() + d);
  }
  [[nodiscard]] SimTime now() { return scenario_.sim().now(); }

  // -- users ---------------------------------------------------------------
  /// GSI user registration (requires GridConfig::enable_gsi).
  const std::vector<gsi::Credential>& register_user(UserId user,
                                                    const std::string& name) {
    return scenario_.register_user(user, name);
  }

  // -- observability -------------------------------------------------------
  /// Typed event subscriptions: observe suspicion, eviction, reroute, and
  /// every other lifecycle event live — without reaching into CrossBroker
  /// internals or scanning the tracer after the fact. Listeners run
  /// synchronously at record time in deterministic simulation order.
  obs::JobTracer::SubscriptionId subscribe(obs::TraceEventKind kind,
                                           obs::JobTracer::Listener callback) {
    return obs_.tracer.subscribe(kind, std::move(callback));
  }
  /// Subscribes to every event kind.
  obs::JobTracer::SubscriptionId subscribe(obs::JobTracer::Listener callback) {
    return obs_.tracer.subscribe(std::move(callback));
  }
  void unsubscribe(obs::JobTracer::SubscriptionId id) {
    obs_.tracer.unsubscribe(id);
  }

  [[nodiscard]] obs::Observability& observability() { return obs_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return obs_.metrics; }
  [[nodiscard]] obs::JobTracer& tracer() { return obs_.tracer; }
  /// Frozen, sorted copy of every instrument, stamped with now().
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() {
    return obs_.metrics.snapshot(scenario_.sim().now());
  }
  /// JSON-lines export of the full trace (one event per line).
  [[nodiscard]] std::string export_trace_jsonl() const {
    return obs_.tracer.to_jsonl();
  }
  /// chrome://tracing (trace_event format) export: one track per job.
  [[nodiscard]] std::string export_chrome_trace() const {
    return obs_.tracer.to_chrome_trace();
  }
  /// A GridConsoleConfig-compatible pointer for stream-layer wiring.
  [[nodiscard]] obs::Observability* obs_ptr() { return &obs_; }

  // -- escape hatches ------------------------------------------------------
  /// The underlying testbed: site internals, network links, fault injection.
  [[nodiscard]] broker::GridScenario& scenario() { return scenario_; }
  [[nodiscard]] broker::CrossBroker& broker() { return scenario_.broker(); }
  [[nodiscard]] sim::Simulation& sim() { return scenario_.sim(); }
  [[nodiscard]] sim::Network& network() { return scenario_.network(); }
  [[nodiscard]] lrms::Site& site(std::size_t index) {
    return scenario_.site(index);
  }
  [[nodiscard]] std::size_t site_count() const { return scenario_.site_count(); }
  /// The user-interface machine's network endpoint.
  [[nodiscard]] static std::string ui_endpoint() {
    return broker::GridScenario::ui_endpoint();
  }

private:
  friend class JobHandle;

  obs::Observability obs_;  ///< declared first: outlives the scenario's broker
  broker::GridScenario scenario_;
};

}  // namespace cg
