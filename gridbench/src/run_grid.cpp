#include "run_grid.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "broker/fault_bridge.hpp"
#include "grid/grid.hpp"
#include "net/message.hpp"
#include "sim/fault.hpp"
#include "stream/grid_console.hpp"

namespace gridbench {

namespace {

using namespace cg;

/// A console's echo is abandoned (fast mode may lose it) after this long.
constexpr Duration kEchoTimeout = Duration::seconds(30);
/// A closed reliable session has this long to deliver its last lines before
/// the no-loss check applies to it.
constexpr Duration kDrainGrace = Duration::seconds(60);
/// What GlideinAgent throws when a duplicated message starts its carrier again.
constexpr std::string_view kCarrierStartedTwice = "agent carrier started twice";
/// Length of each application output line, newline included.
constexpr std::size_t kLineBytes = 64;
/// One I/O-then-CPU iteration of an interactive application, in seconds.
constexpr double kIterationS = 2.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t micros_or(const std::optional<SimTime>& t) {
  return t ? t->count_micros() : -1;
}

/// One console episode of an interactive job: the Grid Console opened when
/// the job starts running, the simulated application writing output bursts
/// and echoing input, and the user typing a line a think time after seeing
/// the previous echo (a closed loop per session).
struct Session {
  Session(std::size_t job_index, ConsoleMode console_mode, std::uint64_t seed)
      : job{job_index}, mode{console_mode}, rng{seed} {}

  std::size_t job;
  ConsoleMode mode;
  SplitMix rng;
  std::unique_ptr<stream::GridConsole> console;
  stream::ConsoleAgent* agent = nullptr;
  bool active = true;
  std::optional<SimTime> closed_at;
  std::uint64_t out_seq = 0;
  std::uint64_t typed_n = 0;
  bool awaiting_echo = false;
  SimTime typed_at;
  std::string partial;  ///< screen bytes after the last newline
  std::uint64_t written = 0;
  std::uint64_t on_screen = 0;
  Fnv written_hash;
  Fnv screen_hash;
};

struct JobTrack {
  JobId id;
  bool accepted = false;
  std::optional<double> running_s;  ///< first time the job ran
  std::optional<double> done_s;
  double queued_since = -1.0;
  double queued_total = 0.0;
  bool ever_queued = false;
  Session* session = nullptr;  ///< the active console episode, if any
  std::vector<Session*> sessions;
};

class Runner {
public:
  explicit Runner(const RunOptions& options)
      : spec_{*options.spec}, options_{options}, spans_{options.spans} {}

  RunResult run() {
    const auto setup_start = Clock::now();
    setup();
    result_.setup_s = seconds_since(setup_start);
    if (options_.setup_only) return std::move(result_);

    const auto run_start = Clock::now();
    run_slices();
    result_.run_s = seconds_since(run_start);

    finish();
    if (options_.collect_layers) collect_layers();
    return std::move(result_);
  }

private:
  sim::Simulation& sim() { return grid_->sim(); }
  double now_s() { return grid_->now().to_seconds(); }

  // -- set-up ---------------------------------------------------------------
  void setup() {
    GridConfig config;
    config.sites = spec_.sites;
    config.nodes_per_site = spec_.nodes_per_site;
    config.seed = mix_seed(options_.seed, 1);
    config.enable_gsi = true;
    config.broker.seed = mix_seed(options_.seed, 2);
    if (spec_.faults) {
      // Recovery on: evict residents behind a partition, resubmit on death.
      config.broker.running_job_grace = Duration::seconds(60);
      config.broker.resubmit_interactive_on_agent_death = true;
    }
    grid_ = std::make_unique<Grid>(config);
    for (std::size_t i = 0; i < grid_->site_count(); ++i) {
      site_index_.emplace(grid_->site(i).id().value(), i);
    }

    for (int u = 1; u <= spec_.users; ++u) {
      ScopedSpan span{spans_, "gsi.register_user"};
      grid_->register_user(UserId{static_cast<std::uint64_t>(u)}, "user" + std::to_string(u));
    }

    schedule_ = generate_schedule(spec_, options_.seed);
    jobs_.resize(schedule_.size());

    const double fraction = spec_.preload_fraction;
    for (std::size_t i = 0; i < grid_->site_count(); ++i) {
      // Spread the warm sites evenly over the site list.
      const auto before = static_cast<long>(static_cast<double>(i) * fraction);
      const auto after = static_cast<long>(static_cast<double>(i + 1) * fraction);
      if (after == before) continue;
      for (int k = 0; k < spec_.preload_per_site; ++k) {
        grid_->broker().preload_agent(grid_->site(i).id());
      }
    }

    if (spec_.faults) arm_faults();

    // Placement invariant, checked live: no match names a site that
    // suspicion-aware placement hard-excludes at that moment.
    grid_->subscribe(obs::TraceEventKind::kMatched,
                     [this](const obs::JobTraceEvent& event) {
                       const std::string* site = event.attrs.find("site");
                       ++result_.matches_checked;
                       if (site == nullptr ||
                           grid_->broker().site_health().hard_excluded(
                               SiteId{std::stoull(*site)})) {
                         ++result_.hard_excluded_matches;
                       }
                     });

    if (!schedule_.empty()) schedule_arrival(0);
  }

  /// A seeded plan of fault windows over the arrival horizon: broker<->site
  /// partitions long enough to suspect agents and evict residents, shorter
  /// ui<->site partitions inside the reliable console's retry budget, agent
  /// wedges, node crashes, and message drop/duplicate/reorder windows over
  /// every message type.
  void arm_faults() {
    injector_ = std::make_unique<sim::FaultInjector>(sim(), &grid_->network());
    bridge_ = std::make_unique<broker::FaultBridge>(grid_->scenario(), *injector_);
    injector_->register_message_sink(&grid_->scenario().bus());

    SplitMix rng{mix_seed(options_.seed, 3)};
    const double horizon = spec_.horizon_s;
    const auto sites = static_cast<std::uint64_t>(grid_->site_count());
    const auto at = [&](double lo) {
      return SimTime::from_seconds(lo + rng.uniform01() * (horizon - lo));
    };
    const auto span_s = [&](double lo, double hi) {
      return Duration::from_seconds(lo + rng.uniform01() * (hi - lo));
    };
    const auto site_endpoint = [&]() {
      return grid_->site(static_cast<std::size_t>(rng.next() % sites)).endpoint();
    };
    const std::string broker = grid_->broker().endpoint();
    const std::string ui = Grid::ui_endpoint();
    const auto agents = static_cast<std::uint64_t>(
        std::max(1.0, spec_.preload_fraction * static_cast<double>(sites)));

    sim::FaultPlan plan;
    for (int k = 0; k < 12; ++k) {
      plan.partition_link(broker, site_endpoint(), at(120), span_s(40, 120));
    }
    for (int k = 0; k < 30; ++k) {
      plan.partition_link(ui, site_endpoint(), at(120), span_s(10, 40));
    }
    for (int k = 0; k < 6; ++k) {
      plan.wedge_agent("agent:" + std::to_string(1 + rng.next() % agents), at(120),
                       span_s(30, 90));
    }
    for (int k = 0; k < 4; ++k) {
      plan.crash_node("node_of(agent:" + std::to_string(1 + rng.next() % agents) + ")",
                      at(120), Duration::seconds(120));
    }
    // Message faults: per broker<->site pair for longer windows, and over
    // every pair for short ones (which also catches ui->broker submissions).
    for (int k = 0; k < 3; ++k) {
      plan.drop_messages("*", broker, site_endpoint(), at(60), span_s(20, 60));
      plan.duplicate_messages("*", broker, site_endpoint(), at(60), span_s(20, 60));
      plan.reorder_messages("*", broker, site_endpoint(), at(60), span_s(20, 60),
                            Duration::seconds(2));
    }
    plan.drop_messages("*", "", "", at(60), span_s(3, 8));
    plan.duplicate_messages("*", "", "", at(60), span_s(3, 8));
    plan.reorder_messages("*", "", "", at(60), span_s(3, 8), Duration::seconds(1));
    injector_->arm(plan);
  }

  // -- open-loop arrivals ------------------------------------------------------
  void schedule_arrival(std::size_t i) {
    sim().schedule_at(SimTime::from_seconds(schedule_[i].at_s), [this, i] {
      submit(i);
      if (i + 1 < schedule_.size()) schedule_arrival(i + 1);
    });
  }

  void submit(std::size_t i) {
    const Arrival& a = schedule_[i];
    ++result_.submit_calls;
    std::optional<jdl::JobDescription> description;
    {
      ScopedSpan span{spans_, "jdl.parse"};
      auto parsed = jdl::JobDescription::parse(a.jdl);
      if (parsed) description = std::move(parsed.value());
    }
    if (!description) {
      ++result_.jdl_errors;
      return;
    }
    broker::JobCallbacks callbacks;
    callbacks.on_running = [this, i](const broker::JobRecord& record) {
      on_running(i, record);
    };
    callbacks.on_state_change = [this, i](const broker::JobRecord& record) {
      on_state_change(i, record);
    };
    callbacks.on_complete = [this, i](const broker::JobRecord&) {
      ++result_.completed_callbacks;
      on_done(i);
    };
    callbacks.on_failed = [this, i](const broker::JobRecord&, const Error&) {
      ++result_.failed_callbacks;
      on_done(i);
    };
    ScopedSpan span{spans_, "grid.submit"};
    auto handle = grid_->submit(std::move(*description), UserId{a.user},
                                workload_for(a), std::move(callbacks));
    if (!handle) {
      ++result_.submit_refused;
      return;
    }
    jobs_[i].id = handle->id();
    jobs_[i].accepted = true;
    span.set_job(handle->id().value());
    ++result_.accepted;
  }

  /// Batch jobs are one CPU phase. Interactive jobs have the Fig. 8 shape —
  /// an I/O operation (waiting on the user or the network) then a CPU
  /// burst, repeated — so several sharing a node's interactive VMs mostly
  /// wait rather than split one CPU.
  static lrms::Workload workload_for(const Arrival& a) {
    if (a.kind == JobKind::kBatch) {
      return lrms::Workload::cpu(Duration::from_seconds(a.runtime_s));
    }
    const int iterations = std::max(1, static_cast<int>(a.runtime_s / kIterationS));
    return lrms::Workload::iterative(iterations, Duration::from_seconds(kIterationS * 0.9),
                                     Duration::from_seconds(kIterationS * 0.1));
  }

  // -- job callbacks -------------------------------------------------------------
  void on_state_change(std::size_t i, const broker::JobRecord& record) {
    JobTrack& job = jobs_[i];
    const bool queued = record.state == broker::JobState::kQueuedBroker;
    if (job.queued_since >= 0.0 && !queued) {
      job.queued_total += now_s() - job.queued_since;
      job.queued_since = -1.0;
    } else if (queued && job.queued_since < 0.0) {
      job.queued_since = now_s();
      job.ever_queued = true;
    }
    // Eviction or failure takes the job off its resource: the application,
    // and with it the console episode, ends.
    if (job.session != nullptr && record.state != broker::JobState::kRunning) {
      end_session(job);
    }
  }

  void on_running(std::size_t i, const broker::JobRecord& record) {
    JobTrack& job = jobs_[i];
    if (!job.running_s) job.running_s = now_s();
    if (schedule_[i].console != ConsoleMode::kNone) open_session(i, record);
  }

  void on_done(std::size_t i) {
    JobTrack& job = jobs_[i];
    if (!job.done_s) job.done_s = now_s();
    if (job.session != nullptr) end_session(job);
  }

  // -- consoles --------------------------------------------------------------------
  void open_session(std::size_t i, const broker::JobRecord& record) {
    JobTrack& job = jobs_[i];
    if (job.session != nullptr) end_session(job);
    const auto site = record.site();
    if (!site) return;
    const auto index = site_index_.find(site->value());
    if (index == site_index_.end()) return;

    const Arrival& a = schedule_[i];
    sessions_.push_back(std::make_unique<Session>(
        i, a.console, mix_seed(a.session_seed, job.sessions.size())));
    Session* s = sessions_.back().get();
    job.session = s;
    job.sessions.push_back(s);
    ++result_.sessions;

    stream::GridConsoleConfig config;
    config.mode = record.description.streaming_mode();
    config.obs = grid_->obs_ptr();
    config.job = record.id;
    {
      ScopedSpan span{spans_, "stream.console_open", record.id.value()};
      s->console = std::make_unique<stream::GridConsole>(
          sim(), grid_->network(), config, Grid::ui_endpoint(),
          stream::ConsoleShadow::ChunkSink{
              [this, s](stream::ChunkRef data) { on_screen(*s, data.view()); }},
          Rng{s->rng.next()});
      s->agent = &s->console->add_agent(0, grid_->site(index->second).endpoint());
    }
    s->agent->set_input_handler([this, s](std::string line) {
      if (!s->active || line.empty()) return;
      line[0] = 'e';  // the application echoes "t<n>" as "e<n>"
      write_line(*s, line);
    });
    s->console->shadow().set_fatal_handler([this](int) { ++result_.console_fatal; });
    schedule_burst(*s);
    schedule_typing(*s);
  }

  void end_session(JobTrack& job) {
    Session* s = job.session;
    job.session = nullptr;
    s->active = false;
    s->closed_at = grid_->now();
    s->awaiting_echo = false;
    s->agent->close();
  }

  void write_line(Session& s, std::string_view line) {
    {
      ScopedSpan span{spans_, "stream.write", jobs_[s.job].id.value()};
      s.agent->write_stdout(line);
    }
    ++s.written;
    ++result_.lines_written;
    s.written_hash.bytes(line.data(), line.size());
  }

  void schedule_burst(Session& s) {
    const Duration gap = Duration::from_seconds(s.rng.exponential(spec_.burst_period_mean_s));
    sim().schedule(gap, [this, p = &s] {
      Session& session = *p;
      if (!session.active) return;
      for (int k = 0; k < spec_.burst_lines; ++k) {
        line_.assign("o");
        line_ += std::to_string(++session.out_seq);
        line_.push_back(' ');
        if (line_.size() + 1 < kLineBytes) line_.append(kLineBytes - 1 - line_.size(), 'x');
        line_.push_back('\n');
        write_line(session, line_);
      }
      schedule_burst(session);
    });
  }

  void schedule_typing(Session& s) {
    const Duration think = Duration::from_seconds(s.rng.exponential(spec_.think_mean_s));
    sim().schedule(think, [this, p = &s] {
      Session& session = *p;
      if (!session.active) return;
      const std::uint64_t n = ++session.typed_n;
      session.typed_at = grid_->now();
      session.awaiting_echo = true;
      ++result_.lines_typed;
      {
        ScopedSpan span{spans_, "stream.type_line", jobs_[session.job].id.value()};
        session.console->shadow().type_line("t" + std::to_string(n));
      }
      sim().schedule(kEchoTimeout, [this, p, n] {
        if (!p->awaiting_echo || p->typed_n != n) return;
        p->awaiting_echo = false;
        ++result_.echo_timeouts;
        schedule_typing(*p);
      });
    });
  }

  void on_screen(Session& s, std::string_view data) {
    while (!data.empty()) {
      const std::size_t nl = data.find('\n');
      if (nl == std::string_view::npos) {
        s.partial.append(data);
        return;
      }
      std::string_view line = data.substr(0, nl + 1);
      if (!s.partial.empty()) {
        s.partial.append(line);
        on_line(s, s.partial);
        s.partial.clear();
      } else {
        on_line(s, line);
      }
      data.remove_prefix(nl + 1);
    }
  }

  void on_line(Session& s, std::string_view line) {
    ++s.on_screen;
    ++result_.lines_on_screen;
    s.screen_hash.bytes(line.data(), line.size());
    if (line.front() != 'e' || !s.awaiting_echo) return;
    std::uint64_t n = 0;
    for (std::size_t k = 1; k < line.size() && line[k] >= '0' && line[k] <= '9'; ++k) {
      n = n * 10 + static_cast<std::uint64_t>(line[k] - '0');
    }
    if (n != s.typed_n) return;
    s.awaiting_echo = false;
    result_.echo_rtt_ms.push_back((grid_->now() - s.typed_at).to_millis());
    schedule_typing(s);
  }

  // -- the timed run ---------------------------------------------------------------
  /// Runs the simulation to `deadline`; false when an event handler threw
  /// something the benchmark does not tolerate. Duplicated control messages
  /// can make a glide-in carrier start twice, which throws out of the event
  /// (a known product defect). On workloads with message faults that one
  /// exception is counted, its event dropped — the engine has already
  /// consumed it — and the run goes on, so the jobs it strands show up in
  /// jobs_failed_frac. Any other exception stops the run and fails the
  /// `exceptions` check.
  bool run_until(SimTime deadline) {
    const std::size_t before = sim().processed_events();
    for (;;) {
      try {
        ScopedSpan span{spans_, "sim.run_until"};
        sim().run_until(deadline);
      } catch (const std::logic_error& e) {
        if (spec_.faults && std::string_view{e.what()} == kCarrierStartedTwice) {
          ++result_.carrier_started_twice;
          continue;
        }
        result_.unexpected_exception = e.what();
      } catch (const std::exception& e) {
        result_.unexpected_exception = e.what();
      }
      break;
    }
    result_.sim_events += sim().processed_events() - before;
    return result_.unexpected_exception.empty();
  }

  void run_slices() {
    const double end_s = spec_.horizon_s + spec_.drain_s;
    for (long k = 1;; ++k) {
      const double until = static_cast<double>(k) * spec_.slice_s;
      if (!run_until(SimTime::from_seconds(until))) break;
      result_.broker_queue_depth_max =
          std::max<std::uint64_t>(result_.broker_queue_depth_max,
                                  grid_->broker().broker_queue_length());
      for (std::size_t i = 0; i < grid_->site_count(); ++i) {
        result_.lrms_queue_depth_max = std::max<std::uint64_t>(
            result_.lrms_queue_depth_max,
            static_cast<std::uint64_t>(grid_->site(i).scheduler().queued_jobs()));
      }
      if (sim().pending_events() == 0) {
        result_.quiescent = true;
        break;
      }
      if (until >= end_s) break;
    }
  }

  // -- results -----------------------------------------------------------------------
  void finish() {
    result_.end_virtual_s = now_s();
    result_.active_leases_end = grid_->broker().leases().active_leases();

    Fnv digest;
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      const JobTrack& job = jobs_[i];
      const Arrival& a = schedule_[i];
      digest.u64(i);
      digest.u64(job.id.value());
      if (!job.accepted) continue;
      const broker::JobRecord* record = grid_->job(job.id).record();
      if (record == nullptr) throw std::logic_error{"accepted job has no record"};
      switch (record->state) {
        case broker::JobState::kCompleted: ++result_.completed; break;
        case broker::JobState::kFailed: ++result_.failed; break;
        case broker::JobState::kRejected: ++result_.rejected; break;
        default: ++result_.nonterminal; break;
      }
      const auto& ts = record->timestamps;
      digest.u64(static_cast<std::uint64_t>(record->state));
      digest.u64(record->site() ? record->site()->value() : 0);
      digest.i64(ts.submitted.count_micros());
      digest.i64(micros_or(ts.discovery_done));
      digest.i64(micros_or(ts.selection_done));
      digest.i64(micros_or(ts.dispatched));
      digest.i64(micros_or(ts.running));
      digest.i64(micros_or(ts.completed));
      digest.u64(static_cast<std::uint64_t>(record->resubmissions));

      if (a.kind != JobKind::kBatch && job.running_s) {
        result_.interactive_startup_s.push_back(*job.running_s - a.at_s);
      }
      if (a.kind == JobKind::kBatch && job.done_s &&
          record->state == broker::JobState::kCompleted) {
        result_.batch_turnaround_s.push_back(*job.done_s - a.at_s);
      }
      if (job.ever_queued) {
        double waited = job.queued_total;
        if (job.queued_since >= 0.0) waited += result_.end_virtual_s - job.queued_since;
        result_.queue_wait_s.push_back(waited);
      }
      if (ts.discovery_done) {
        result_.discovery_s.push_back((*ts.discovery_done - ts.submitted).to_seconds());
        if (ts.selection_done) {
          result_.selection_s.push_back(
              (*ts.selection_done - *ts.discovery_done).to_seconds());
        }
      }
      for (const Session* s : job.sessions) {
        digest.u64(s->on_screen);
        digest.u64(s->screen_hash.h);
        if (s->mode != ConsoleMode::kReliable) continue;
        // Only sessions that closed well before the end have delivered
        // everything they will; a live session's lines may be in flight.
        if (!s->closed_at || *s->closed_at + kDrainGrace > grid_->now()) {
          ++result_.reliable_open;
          continue;
        }
        ++result_.reliable_checked;
        if (s->on_screen != s->written || s->screen_hash.h != s->written_hash.h ||
            !s->partial.empty()) {
          ++result_.reliable_violations;
        }
      }
    }
    digest.u64(result_.carrier_started_twice);
    result_.digest = digest.h;
  }

  void collect_layers() {
    obs::MetricsSnapshot snap;
    {
      ScopedSpan span{spans_, "obs.snapshot"};
      const auto t0 = Clock::now();
      snap = grid_->metrics_snapshot();
      result_.snapshot_host_ms = seconds_since(t0) * 1e3;
    }
    std::size_t jsonl_bytes = 0;
    {
      ScopedSpan span{spans_, "obs.export_jsonl"};
      const auto t0 = Clock::now();
      jsonl_bytes = grid_->export_trace_jsonl().size();
      result_.export_jsonl_host_ms = seconds_since(t0) * 1e3;
    }
    auto& L = result_.layer;
    const obs::MetricsRegistry& reg = grid_->metrics();
    const auto merged = [&](const std::string& name) {
      obs::Histogram h;
      for (const obs::MetricSample& s : snap.samples) {
        if (s.name != name || s.kind != obs::MetricKind::kHistogram) continue;
        if (const obs::Histogram* part = reg.find_histogram(name, s.labels)) h.merge(*part);
      }
      return h;
    };
    const auto total = [&](const char* name) { return snap.total(name); };
    const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

    for (const char* name :
         {"broker.jobs_completed", "broker.jobs_failed", "broker.resubmissions",
          "broker.jobs_evicted", "broker.heartbeat_misses", "broker.liveness_misses",
          "broker.agents_suspected", "broker.match.cache_invalidations",
          "broker.match.health_excluded", "net.msg.sent", "net.msg.dropped",
          "net.msg.duplicated", "lrms.dispatches", "glidein.slot_starts",
          "glidein.batch_demotions", "stream.flushes", "stream.bytes_spooled",
          "stream.retries", "stream.coalesced_batches", "stream.frames_dropped"}) {
      L[name] = total(name);
    }
    const double conflicts = total("broker.lease_conflicts");
    L["broker.lease_conflict_ratio"] =
        ratio(conflicts, total("broker.leases_acquired") + conflicts);
    const double hits = total("broker.match.cache_hits");
    L["broker.match.cache_hit_ratio"] =
        ratio(hits, hits + total("broker.match.cache_misses"));
    const double matches =
        static_cast<double>(grid_->tracer().count(obs::TraceEventKind::kMatched));
    L["broker.match.sites_scanned_per_match"] =
        ratio(merged("broker.match.sites_scanned").sum(), matches);
    for (const std::string& type : message_types()) {
      const obs::Counter* c = reg.find_counter("net.msg.sent", obs::LabelSet{{"type", type}});
      L["net.msg.sent." + type] = c != nullptr ? static_cast<double>(c->value()) : 0.0;
    }
    L["net.msg.delivered_ratio"] = ratio(total("net.msg.delivered"), total("net.msg.sent"));
    const obs::Histogram net_latency = merged("net.msg.latency_s");
    L["net.msg.latency_p99_s"] = net_latency.count() > 0 ? net_latency.percentile(99.0) : 0.0;
    const obs::Histogram dispatch = merged("lrms.dispatch_latency_s");
    L["lrms.dispatch_latency_p99_s"] = dispatch.count() > 0 ? dispatch.percentile(99.0) : 0.0;
    const obs::Counter* slot_busy =
        reg.find_counter("broker.jobs_failed", obs::LabelSet{{"code", "glidein.slot_busy"}});
    L["glidein.slot_busy"] = slot_busy != nullptr ? static_cast<double>(slot_busy->value()) : 0.0;
    const obs::Histogram occupancy = merged("glidein.interactive_occupancy");
    L["glidein.interactive_occupancy_mean"] = ratio(occupancy.sum(),
                                                    static_cast<double>(occupancy.count()));
    double high_water = 0.0;
    for (const obs::MetricSample& s : snap.samples) {
      if (s.name == "stream.chunk_pool.high_water") high_water = std::max(high_water, s.value);
    }
    L["stream.chunk_pool_high_water"] = high_water;
    L["obs.trace_events"] = static_cast<double>(grid_->tracer().events().size());
    L["obs.jsonl_bytes"] = static_cast<double>(jsonl_bytes);
  }

  const WorkloadSpec& spec_;
  RunOptions options_;
  SpanRecorder* spans_;
  RunResult result_;
  std::vector<Arrival> schedule_;
  std::string line_;  ///< scratch for generated output lines

  // Declaration order is destruction order in reverse: consoles and the
  // fault machinery go before the grid whose simulation they reference.
  std::unique_ptr<Grid> grid_;
  std::map<std::uint64_t, std::size_t> site_index_;
  std::unique_ptr<sim::FaultInjector> injector_;
  std::unique_ptr<broker::FaultBridge> bridge_;
  std::vector<JobTrack> jobs_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace

RunResult run_grid(const RunOptions& options) {
  if (options.spec == nullptr) throw std::invalid_argument{"run_grid: no workload"};
  Runner runner{options};
  return runner.run();
}

const std::vector<std::string>& message_types() {
  static const std::vector<std::string> types = [] {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < net::kMessageTypeCount; ++i) {
      out.emplace_back(net::to_string(static_cast<net::MsgType>(i)));
    }
    return out;
  }();
  return types;
}

}  // namespace gridbench
