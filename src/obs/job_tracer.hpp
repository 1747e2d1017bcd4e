// Structured per-job lifecycle tracing: every transition a job makes through
// the grid (submitted -> matched -> leased -> dispatched -> started ->
// streaming -> resubmitted/suspected -> done) is recorded as a *typed* event
// with its virtual timestamp. It is the run's one trace — the analogue of the
// DataGrid Logging & Bookkeeping trail. Exports are JSON-lines for tooling
// and Chrome `trace_event` format for flame-graph viewing (chrome://tracing,
// Perfetto).
//
// Determinism contract: events are appended in simulation order and exports
// contain nothing but virtual time and recorded fields, so two same-seed
// runs produce byte-identical exports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"  // LabelSet
#include "util/ids.hpp"
#include "util/time.hpp"

namespace cg::obs {

enum class TraceEventKind {
  // Lifecycle spine.
  kSubmitted,
  kDiscovery,
  kSelection,
  kMatched,
  kLeaseAcquired,
  kLeaseRevoked,
  kDispatched,
  kQueuedLocal,
  kQueuedBroker,
  kStarted,       ///< a subjob started on its resource
  kRunning,       ///< the whole job runs (startup barrier passed)
  kStreaming,     ///< console/streaming activity (frames, reconnects)
  kResubmitted,
  kJobEvicted,    ///< running resident timed out behind a suspected agent
  kCompleted,
  kFailed,
  kRejected,
  // Infrastructure events (JobId::none() unless tied to one job).
  kAgentDeployed,
  kAgentSuspected,
  kAgentRestored,
  kAgentDied,
  kHeartbeatMiss,
  kLivenessMiss,  ///< sequenced probe not echoed from the agent's event loop
  kLinkDown,
  kLinkUp,
  kFrameDropped,
  kReconnected,
  kSpoolFull,     ///< reliable-mode append rejected (capacity or disk fault)
  kMsgDropped,    ///< control-plane message lost (partition or kMsgDrop fault)
  kMsgDuplicated, ///< control-plane message delivered twice (kMsgDup fault)
  kInfo,
};

[[nodiscard]] std::string_view to_string(TraceEventKind kind);

struct JobTraceEvent {
  SimTime when;
  JobId job;  ///< JobId::none() for grid-global events
  TraceEventKind kind = TraceEventKind::kInfo;
  std::string detail;
  /// Structured attributes (site, agent, rank, bytes, attempt, ...) —
  /// queryable without parsing the detail string.
  LabelSet attrs;
};

/// Append-only event storage in fixed-size blocks (the block size is a
/// constant in job_tracer.cpp). An appended event is never copied or moved
/// again, so references and pointers to it stay valid until clear(), and
/// growth never holds two copies of the trace at once.
class TraceEventBlocks {
public:
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = JobTraceEvent;
    using difference_type = std::ptrdiff_t;
    using pointer = const JobTraceEvent*;
    using reference = const JobTraceEvent&;

    const_iterator() = default;
    reference operator*() const { return (*events_)[index_]; }
    pointer operator->() const { return &(*events_)[index_]; }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++index_;
      return before;
    }
    bool operator==(const const_iterator&) const = default;

  private:
    friend class TraceEventBlocks;
    const_iterator(const TraceEventBlocks* events, std::size_t index)
        : events_{events}, index_{index} {}
    const TraceEventBlocks* events_ = nullptr;
    std::size_t index_ = 0;
  };

  TraceEventBlocks() = default;
  /// Move-only: a copied block would lose its reserved capacity and
  /// reallocate on the next append.
  TraceEventBlocks(const TraceEventBlocks&) = delete;
  TraceEventBlocks& operator=(const TraceEventBlocks&) = delete;
  TraceEventBlocks(TraceEventBlocks&&) = default;
  TraceEventBlocks& operator=(TraceEventBlocks&&) = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const JobTraceEvent& operator[](std::size_t index) const;
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

  /// Appends in place and returns the stored event.
  const JobTraceEvent& push_back(JobTraceEvent event);
  void clear();

private:
  /// Each block is reserved to the full block size once and never grows
  /// past it, so its elements never reallocate.
  std::vector<std::vector<JobTraceEvent>> blocks_;
  std::size_t size_ = 0;
};

class JobTracer {
public:
  /// Live subscription to recorded events: listeners run synchronously from
  /// record(), after the event is appended, in subscription order. They see
  /// only simulation-ordered, deterministic data, so observing does not
  /// perturb a run. A listener may subscribe or unsubscribe (itself
  /// included) from within a callback; listeners added during a callback
  /// only see later events.
  using SubscriptionId = std::uint64_t;
  using Listener = std::function<void(const JobTraceEvent&)>;

  void record(SimTime when, JobId job, TraceEventKind kind, std::string detail,
              LabelSet attrs = {});

  /// Subscribes to every event.
  SubscriptionId subscribe(Listener listener);
  /// Subscribes to one event kind.
  SubscriptionId subscribe(TraceEventKind kind, Listener listener);
  /// Removes a subscription; unknown ids are ignored.
  void unsubscribe(SubscriptionId id);

  [[nodiscard]] const TraceEventBlocks& events() const { return events_; }
  [[nodiscard]] std::vector<JobTraceEvent> for_job(JobId job) const;
  [[nodiscard]] std::vector<JobTraceEvent> of_kind(TraceEventKind kind) const;
  [[nodiscard]] std::size_t count(TraceEventKind kind) const;
  /// First event of a kind for a job, or null.
  [[nodiscard]] const JobTraceEvent* first(JobId job, TraceEventKind kind) const;

  /// Human-readable rendering, one event per line.
  [[nodiscard]] std::string render() const;

  /// One JSON object per line:
  ///   {"ts_us":1234,"job":7,"kind":"resubmitted","detail":"...","attrs":{...}}
  [[nodiscard]] std::string to_jsonl() const;

  /// Chrome trace_event JSON (load in chrome://tracing or ui.perfetto.dev).
  /// Each job is a track (tid); consecutive lifecycle events become complete
  /// ("X") slices so the lifecycle reads as a flame graph, and infrastructure
  /// events appear as instant ("i") marks.
  [[nodiscard]] std::string to_chrome_trace() const;

  /// Drops recorded events (references to them dangle); subscriptions stay
  /// installed.
  void clear() { events_.clear(); }

private:
  struct Subscription {
    SubscriptionId id = 0;
    std::optional<TraceEventKind> kind;  ///< nullopt: every kind
    Listener fn;
  };

  void notify(const JobTraceEvent& event);

  TraceEventBlocks events_;
  /// Shared so notify() can keep a running listener alive while its callback
  /// subscribes (reallocating the list) or unsubscribes itself.
  std::vector<std::shared_ptr<const Subscription>> subscriptions_;
  SubscriptionId next_subscription_ = 1;
};

}  // namespace cg::obs
