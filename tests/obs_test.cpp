// Observability subsystem tests: metric primitives (histogram percentiles,
// labeled-counter merging), the typed job tracer and its exports, the
// determinism contract (two same-seed runs produce byte-identical exports),
// and the acceptance scenario — a link partition during fast-mode streaming
// whose trace shows the drops, the ConsoleShadow counter incrementing, and
// the recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "grid/grid.hpp"
#include "obs/observability.hpp"
#include "sim/fault.hpp"
#include "stream/grid_console.hpp"
#include "util/stats.hpp"

namespace cg {
namespace {

using namespace cg::literals;
using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::JobTraceEvent;
using obs::JobTracer;
using obs::LabelSet;
using obs::MetricsRegistry;
using obs::TraceEventKind;

// ----------------------------------------------------------- primitives ----

TEST(LabelSetTest, OrderingIsCanonical) {
  const LabelSet a{{"site", "1"}, {"user", "7"}};
  const LabelSet b{{"user", "7"}, {"site", "1"}};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_string(), "{site=\"1\",user=\"7\"}");
  EXPECT_TRUE(LabelSet{}.to_string().empty());
}

TEST(HistogramTest, MomentsAreExact) {
  Histogram h;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(HistogramTest, PercentilesApproximateTheDistribution) {
  Histogram h;
  // 1..1000 ms uniformly.
  for (int i = 1; i <= 1000; ++i) h.observe(i / 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), h.min());
  EXPECT_DOUBLE_EQ(h.percentile(100), h.max());
  // Log-spaced buckets: estimates land within one bucket (~6%) of truth.
  EXPECT_NEAR(h.percentile(50), 0.5, 0.5 * 0.08);
  EXPECT_NEAR(h.percentile(95), 0.95, 0.95 * 0.08);
  // Percentiles never step outside the observed range.
  EXPECT_GE(h.percentile(99.9), h.min());
  EXPECT_LE(h.percentile(99.9), h.max());
}

TEST(HistogramTest, EmptyAndOutOfRangeValues) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  // Values outside the bucket span clamp into edge buckets; min/max stay
  // exact because they come from RunningStats.
  h.observe(1e-9);
  h.observe(1e9);
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  EXPECT_GE(h.percentile(50), h.min());
  EXPECT_LE(h.percentile(50), h.max());
}

TEST(HistogramTest, MergeCombinesMomentsAndBuckets) {
  Histogram a;
  Histogram b;
  for (int i = 1; i <= 100; ++i) a.observe(i / 100.0);
  for (int i = 1; i <= 100; ++i) b.observe(10.0 + i / 100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_DOUBLE_EQ(a.max(), 10.0 + 1.0);
  // The median sits at the boundary between the halves; the bucketed
  // estimate may land one log-spaced bucket (factor 10^0.1) above it.
  EXPECT_NEAR(a.percentile(50), 1.0, 0.3);
  EXPECT_GT(a.percentile(75), 10.0 * 0.9);        // upper half from b
}

TEST(MetricsRegistryTest, LabeledCountersAreIndependentInstruments) {
  MetricsRegistry registry;
  registry.counter("jobs", {{"site", "1"}}).inc(3);
  registry.counter("jobs", {{"site", "2"}}).inc(4);
  registry.counter("jobs").inc();  // unlabeled is its own instrument
  EXPECT_EQ(registry.counter("jobs", {{"site", "1"}}).value(), 3u);
  EXPECT_EQ(registry.counter("jobs", {{"site", "2"}}).value(), 4u);
  EXPECT_EQ(registry.counter_total("jobs"), 8u);
  EXPECT_EQ(registry.find_counter("jobs", {{"site", "3"}}), nullptr);
}

TEST(MetricsRegistryTest, MergeAddsCountersByLabelSet) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("jobs", {{"site", "1"}}).inc(2);
  b.counter("jobs", {{"site", "1"}}).inc(5);
  b.counter("jobs", {{"site", "2"}}).inc(1);
  b.gauge("depth", {{"site", "1"}}).set(4.0);
  a.gauge("depth", {{"site", "1"}}).set(9.0);
  b.histogram("lat").observe(1.0);
  a.merge(b);
  // Counters add per label set; missing sets are created.
  EXPECT_EQ(a.counter("jobs", {{"site", "1"}}).value(), 7u);
  EXPECT_EQ(a.counter("jobs", {{"site", "2"}}).value(), 1u);
  // Gauges keep the high-water mark.
  EXPECT_DOUBLE_EQ(a.gauge("depth", {{"site", "1"}}).value(), 9.0);
  // Histograms fold their moments in.
  EXPECT_EQ(a.histogram("lat").count(), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndQueryable) {
  MetricsRegistry registry;
  registry.counter("z.last").inc();
  registry.counter("a.first", {{"k", "v"}}).inc(2);
  registry.histogram("m.hist").observe(0.5);
  const auto snap = registry.snapshot(SimTime::from_seconds(42));
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "a.first");
  EXPECT_EQ(snap.samples[2].name, "z.last");
  const auto* sample = snap.find("a.first", {{"k", "v"}});
  ASSERT_NE(sample, nullptr);
  EXPECT_DOUBLE_EQ(sample->value, 2.0);
  EXPECT_FALSE(snap.to_jsonl().empty());
  EXPECT_FALSE(snap.render().empty());
}

// --------------------------------------------------------------- tracer ----

TEST(JobTracerTest, RecordsAndQueriesTypedEvents) {
  JobTracer tracer;
  const JobId job{7};
  tracer.record(SimTime::from_seconds(1), job, TraceEventKind::kSubmitted, "");
  tracer.record(SimTime::from_seconds(2), job, TraceEventKind::kMatched,
                "site 3", {{"site", "3"}});
  tracer.record(SimTime::from_seconds(3), JobId{8}, TraceEventKind::kSubmitted,
                "");
  EXPECT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.for_job(job).size(), 2u);
  EXPECT_EQ(tracer.count(TraceEventKind::kSubmitted), 2u);
  const auto* match = tracer.first(job, TraceEventKind::kMatched);
  ASSERT_NE(match, nullptr);
  ASSERT_NE(match->attrs.find("site"), nullptr);
  EXPECT_EQ(*match->attrs.find("site"), "3");
  EXPECT_EQ(tracer.first(job, TraceEventKind::kFailed), nullptr);
}

TEST(JobTracerTest, ExportsAreWellFormed) {
  JobTracer tracer;
  tracer.record(SimTime::from_seconds(1), JobId{1}, TraceEventKind::kSubmitted,
                "a \"quoted\" detail", {{"user", "u\\1"}});
  const std::string jsonl = tracer.to_jsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"submitted\""), std::string::npos);
  EXPECT_NE(jsonl.find("\\\"quoted\\\""), std::string::npos);
  const std::string chrome = tracer.to_chrome_trace();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\""), std::string::npos);
}

// ------------------------------------------------- tracer block storage ----

/// The tracer stores events in blocks of 4096; this many events span five
/// full blocks and a partial sixth, so every query and export walks several
/// block boundaries.
constexpr std::size_t kMultiBlockEvents = 5 * 4096 + 123;

bool same_event(const JobTraceEvent& a, const JobTraceEvent& b) {
  return a.when == b.when && a.job == b.job && a.kind == b.kind &&
         a.detail == b.detail && a.attrs == b.attrs;
}

/// The i-th event of a deterministic mix of kinds, jobs (some grid-global)
/// and attribute sets.
JobTraceEvent mixed_event(std::size_t i) {
  static constexpr std::array kKinds{
      TraceEventKind::kSubmitted, TraceEventKind::kMatched,
      TraceEventKind::kStarted, TraceEventKind::kInfo,
      TraceEventKind::kCompleted};
  JobTraceEvent e;
  e.when = SimTime::micros(static_cast<std::int64_t>(i) * 7);
  e.job = i % 11 == 0 ? JobId::none() : JobId{1 + i % 13};
  e.kind = kKinds[i % kKinds.size()];
  e.detail = i % 4 == 0 ? "" : "event " + std::to_string(i);
  if (i % 3 == 0) e.attrs = LabelSet{{"site", std::to_string(i % 5)}};
  return e;
}

TEST(JobTracerTest, BlockStorageAgreesWithAPlainVector) {
  JobTracer tracer;
  std::vector<JobTraceEvent> oracle;
  for (std::size_t i = 0; i < kMultiBlockEvents; ++i) {
    JobTraceEvent e = mixed_event(i);
    tracer.record(e.when, e.job, e.kind, e.detail, e.attrs);
    oracle.push_back(std::move(e));
  }

  // Indexing and iteration see the vector's sequence.
  ASSERT_EQ(tracer.events().size(), oracle.size());
  std::size_t walked = 0;
  for (const JobTraceEvent& e : tracer.events()) {
    ASSERT_TRUE(same_event(e, oracle[walked])) << walked;
    ASSERT_EQ(&e, &tracer.events()[walked]) << walked;
    ++walked;
  }
  EXPECT_EQ(walked, oracle.size());

  const auto expect_same = [](const std::vector<JobTraceEvent>& got,
                              const std::vector<JobTraceEvent>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(same_event(got[i], want[i])) << i;
    }
  };
  for (std::size_t k = 0; k < 5; ++k) {
    const TraceEventKind kind = mixed_event(k).kind;
    std::vector<JobTraceEvent> want;
    for (const auto& e : oracle) {
      if (e.kind == kind) want.push_back(e);
    }
    EXPECT_EQ(tracer.count(kind), want.size());
    expect_same(tracer.of_kind(kind), want);
  }
  for (std::uint64_t j = 0; j <= 13; ++j) {
    const JobId job{j};
    std::vector<JobTraceEvent> want;
    for (const auto& e : oracle) {
      if (e.job == job) want.push_back(e);
    }
    expect_same(tracer.for_job(job), want);
    for (std::size_t k = 0; k < 5; ++k) {
      const TraceEventKind kind = mixed_event(k).kind;
      const JobTraceEvent* found = tracer.first(job, kind);
      const auto it = std::find_if(
          oracle.begin(), oracle.end(), [&](const JobTraceEvent& e) {
            return e.job == job && e.kind == kind;
          });
      if (it == oracle.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        EXPECT_EQ(found, &tracer.events()[static_cast<std::size_t>(
                             it - oracle.begin())]);
      }
    }
  }

  // Exports: the documented line formats over the vector, in order.
  std::string render;
  std::string jsonl;
  for (const auto& e : oracle) {
    render += std::to_string(e.when.count_micros()) + "us " +
              (e.job.valid() ? "job-" + std::to_string(e.job.value())
                             : std::string{"grid"}) +
              ' ' + std::string{obs::to_string(e.kind)} +
              (e.detail.empty() ? "" : ": " + e.detail) +
              (e.attrs.empty() ? "" : ' ' + e.attrs.to_string()) + '\n';
    const std::string* site = e.attrs.find("site");
    jsonl += "{\"ts_us\":" + std::to_string(e.when.count_micros()) +
             ",\"job\":" + std::to_string(e.job.value()) + ",\"kind\":\"" +
             std::string{obs::to_string(e.kind)} + "\",\"detail\":\"" +
             e.detail + "\",\"attrs\":{" +
             (site != nullptr ? "\"site\":\"" + *site + "\"" : "") + "}}\n";
  }
  EXPECT_EQ(tracer.render(), render);
  EXPECT_EQ(tracer.to_jsonl(), jsonl);
}

TEST(JobTracerTest, RecordedEventsNeverMove) {
  JobTracer tracer;
  const JobTraceEvent* first_seen = nullptr;
  tracer.subscribe([&first_seen](const JobTraceEvent& e) {
    if (first_seen == nullptr) first_seen = &e;
  });
  tracer.record(SimTime::from_seconds(1), JobId{1}, TraceEventKind::kSubmitted,
                "first", {{"site", "3"}});
  ASSERT_NE(first_seen, nullptr);
  for (std::uint64_t i = 0; i < 100000; ++i) {
    tracer.record(SimTime::from_seconds(2), JobId{2 + i % 5},
                  TraceEventKind::kInfo, "filler " + std::to_string(i));
  }
  ASSERT_EQ(tracer.events().size(), 100001u);
  EXPECT_EQ(&tracer.events()[0], first_seen);
  EXPECT_EQ(first_seen->when, SimTime::from_seconds(1));
  EXPECT_EQ(first_seen->job, JobId{1});
  EXPECT_EQ(first_seen->kind, TraceEventKind::kSubmitted);
  EXPECT_EQ(first_seen->detail, "first");
  ASSERT_NE(first_seen->attrs.find("site"), nullptr);
  EXPECT_EQ(*first_seen->attrs.find("site"), "3");
}

TEST(JobTracerTest, ListenersMayRecordSubscribeAndUnsubscribeWhileBlocksGrow) {
  JobTracer tracer;
  int doomed_seen = 0;
  const auto doomed = tracer.subscribe(
      TraceEventKind::kInfo, [&doomed_seen](const JobTraceEvent&) { ++doomed_seen; });
  int late_seen = 0;
  std::size_t intact = 0;
  // Every submission is echoed as an info event from inside its own
  // delivery, so nested appends cross block boundaries while the outer
  // event is still being delivered. Halfway through, the echo listener
  // subscribes a new listener and drops the info listener.
  tracer.subscribe(TraceEventKind::kSubmitted, [&](const JobTraceEvent& e) {
    const std::string expected = "job " + std::to_string(e.job.value());
    tracer.record(e.when, e.job, TraceEventKind::kInfo, "echo " + e.detail);
    if (e.kind == TraceEventKind::kSubmitted && e.detail == expected) ++intact;
    if (e.job == JobId{5000}) {
      tracer.subscribe([&late_seen](const JobTraceEvent&) { ++late_seen; });
      tracer.unsubscribe(doomed);
    }
  });
  constexpr std::uint64_t kJobs = 10000;
  for (std::uint64_t j = 1; j <= kJobs; ++j) {
    tracer.record(SimTime::micros(static_cast<std::int64_t>(j)), JobId{j},
                  TraceEventKind::kSubmitted, "job " + std::to_string(j));
  }
  ASSERT_EQ(tracer.events().size(), 2 * kJobs);
  EXPECT_EQ(intact, kJobs);
  EXPECT_EQ(doomed_seen, 5000);  // echoes of jobs 1..5000
  EXPECT_EQ(late_seen, 10000);   // both events of jobs 5001..10000
  for (std::uint64_t j = 1; j <= kJobs; ++j) {
    const auto& submitted = tracer.events()[2 * (j - 1)];
    const auto& echo = tracer.events()[2 * (j - 1) + 1];
    ASSERT_EQ(submitted.kind, TraceEventKind::kSubmitted);
    ASSERT_EQ(echo.kind, TraceEventKind::kInfo);
    ASSERT_EQ(echo.job, JobId{j});
    ASSERT_EQ(echo.detail, "echo job " + std::to_string(j));
  }
}

TEST(JobTracerTest, ListenerMaySubscribeAndUnsubscribeItselfMidCallback) {
  // One small capture, so the listener is stored inline in its
  // std::function: a subscription list that moved or freed it while it
  // runs would show up as a use after free on the reads that follow.
  struct Probe {
    JobTracer tracer;
    JobTracer::SubscriptionId self = 0;
    int calls = 0;
    int late_calls = 0;
  };
  Probe p;
  p.self = p.tracer.subscribe([&p](const JobTraceEvent&) {
    p.tracer.subscribe([&p](const JobTraceEvent&) { ++p.late_calls; });
    ++p.calls;
    p.tracer.unsubscribe(p.self);
    ++p.calls;
  });
  for (int i = 0; i < 3; ++i) {
    p.tracer.record(SimTime::micros(i), JobId{1}, TraceEventKind::kInfo, "");
  }
  EXPECT_EQ(p.calls, 2);       // only the first event: then it left
  EXPECT_EQ(p.late_calls, 2);  // added during event 1, sees events 2 and 3
}

// ------------------------------------------------- facade + determinism ----

/// A small grid run with one interactive job; returns the Grid's exports.
struct RunArtifacts {
  std::string trace_jsonl;
  std::string chrome;
  std::string metrics_jsonl;
  bool completed = false;
};

RunArtifacts run_instrumented_grid(std::uint64_t seed) {
  GridConfig config;
  config.sites = 2;
  config.nodes_per_site = 2;
  config.seed = seed;
  Grid grid{config};

  auto jd = jdl::JobDescription::parse(
      "Executable = \"viz\"; JobType = \"interactive\";");
  auto job = grid.submit(jd.value(), UserId{1}, lrms::Workload::cpu(60_s));
  EXPECT_TRUE(job.has_value());

  RunArtifacts artifacts;
  artifacts.completed = job && job->await().has_value();
  grid.run();
  artifacts.trace_jsonl = grid.export_trace_jsonl();
  artifacts.chrome = grid.export_chrome_trace();
  artifacts.metrics_jsonl = grid.metrics_snapshot().to_jsonl();
  return artifacts;
}

TEST(GridFacadeTest, JobLifecycleIsTraced) {
  GridConfig config;
  config.sites = 2;
  config.nodes_per_site = 2;
  Grid grid{config};
  auto jd = jdl::JobDescription::parse("Executable = \"app\";");
  auto job = grid.submit(jd.value(), UserId{1}, lrms::Workload::cpu(30_s));
  ASSERT_TRUE(job.has_value());
  // Live subscriptions, installed before virtual time runs: the per-job
  // handle filter plus a grid-wide kind subscription see the lifecycle as it
  // happens instead of scanning the tracer afterwards.
  int matched = 0;
  int completed_events = 0;
  job->on_event(TraceEventKind::kMatched,
                [&matched](const JobTraceEvent&) { ++matched; });
  const auto sub = grid.subscribe(
      TraceEventKind::kCompleted,
      [&completed_events](const JobTraceEvent&) { ++completed_events; });
  const auto done = job->await();
  ASSERT_TRUE(done.has_value()) << to_string(done.error().kind);
  EXPECT_EQ((*done)->state, broker::JobState::kCompleted);

  const auto events = job->trace();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, TraceEventKind::kSubmitted);
  EXPECT_GE(matched, 1);
  EXPECT_GE(completed_events, 1);
  grid.unsubscribe(sub);
  // The after-the-fact queries agree with what the subscriptions saw.
  EXPECT_NE(grid.tracer().first(job->id(), TraceEventKind::kMatched), nullptr);
  EXPECT_NE(grid.tracer().first(job->id(), TraceEventKind::kCompleted),
            nullptr);
  // Hot paths fed the registry along the way.
  EXPECT_GE(grid.metrics().counter_total("broker.jobs_submitted"), 1u);
  EXPECT_GE(grid.metrics().counter_total("broker.jobs_completed"), 1u);
  EXPECT_NE(grid.metrics().find_histogram(
                "broker.match_latency_s",
                {{"placement", to_string((*done)->placement)}}),
            nullptr);
}

/// Opens a default console on `grid`, writes `lines` lines and closes it;
/// returns the grid's "stream.chunk_pool.<name>" gauge afterwards.
double console_pool_gauge(Grid& grid, int lines, const std::string& name) {
  stream::GridConsoleConfig config;
  config.obs = grid.obs_ptr();
  stream::GridConsole console{grid.sim(), grid.network(), config,
                              Grid::ui_endpoint(), [](std::string) {}, Rng{3}};
  stream::ConsoleAgent& agent = console.add_agent(0, grid.site(0).endpoint());
  for (int i = 0; i < lines; ++i) {
    agent.write_stdout("output line " + std::to_string(i) + " of the session\n");
  }
  agent.close();
  grid.run();
  const obs::Gauge* gauge = grid.metrics().find_gauge("stream.chunk_pool." + name);
  return gauge != nullptr ? gauge->value() : -1.0;
}

TEST(GridFacadeTest, ConsolePoolGaugesOutliveEachGrid) {
  // Every default console draws from the one process-wide chunk pool, which
  // outlives any Grid: a second Grid's consoles must publish into the
  // second registry, never through a handle into the first, dead one.
  GridConfig config;
  config.sites = 1;
  config.nodes_per_site = 1;
  {
    Grid first{config};
    // Closed and drained, the console holds no chunk.
    EXPECT_EQ(console_pool_gauge(first, 20, "in_use"), 0.0);
    EXPECT_GE(first.metrics().find_gauge("stream.chunk_pool.high_water")->value(), 1.0);
  }
  Grid second{config};
  EXPECT_EQ(console_pool_gauge(second, 20, "in_use"), 0.0);
  double high_water = 0.0;
  for (const obs::MetricSample& sample : second.metrics_snapshot().samples) {
    if (sample.name == "stream.chunk_pool.high_water") high_water = sample.value;
  }
  EXPECT_GE(high_water, 1.0);
}

TEST(GridFacadeTest, ConsoleThatFailsToConstructLeavesNoPoolAttachment) {
  // A console whose constructor throws never runs the destructor that
  // detaches: it must not have attached the shared pool to the registry,
  // which dies before the pool does.
  GridConfig config;
  config.sites = 1;
  config.nodes_per_site = 1;
  {
    Grid grid{config};
    stream::GridConsoleConfig console_config;
    console_config.obs = grid.obs_ptr();
    EXPECT_THROW((stream::GridConsole{grid.sim(), grid.network(), console_config,
                                      Grid::ui_endpoint(),
                                      stream::ConsoleShadow::ScreenSink{}, Rng{3}}),
                 std::invalid_argument);
    EXPECT_EQ(grid.metrics().find_gauge("stream.chunk_pool.allocated"), nullptr);
  }
  Grid next{config};
  EXPECT_EQ(console_pool_gauge(next, 5, "in_use"), 0.0);
}

TEST(GridFacadeTest, TypedRefusalForUnmatchableJob) {
  GridConfig config;
  config.sites = 1;
  config.nodes_per_site = 1;
  Grid grid{config};
  // Needs 4 nodes; the grid has 1: async no-match classified by await().
  auto jd = jdl::JobDescription::parse(
      "Executable = \"mpi\"; JobType = {\"interactive\", \"mpich-g2\"}; "
      "NodeNumber = 4;");
  auto job = grid.submit(jd.value(), UserId{1}, lrms::Workload::cpu(30_s));
  ASSERT_TRUE(job.has_value());
  const auto done = job->await();
  ASSERT_FALSE(done.has_value());
  EXPECT_EQ(done.error().kind, broker::SubmitErrorKind::kNoMatch);
}

TEST(ObsDeterminismTest, SameSeedRunsYieldByteIdenticalExports) {
  const RunArtifacts a = run_instrumented_grid(1234);
  const RunArtifacts b = run_instrumented_grid(1234);
  EXPECT_TRUE(a.completed);
  ASSERT_FALSE(a.trace_jsonl.empty());
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);
}

// ----------------------------------- partition during fast streaming ------

/// The acceptance scenario: a 20 s link partition while an agent fast-streams
/// one frame per second. Returns the observability bundle's exports plus the
/// shadow counters.
struct PartitionRun {
  std::size_t shadow_frames_dropped = 0;
  std::size_t shadow_drop_reports = 0;
  std::size_t agent_frames_dropped = 0;
  std::string screen;
  std::string trace_jsonl;
  std::vector<obs::JobTraceEvent> drop_events;
  std::vector<obs::JobTraceEvent> reconnect_events;
  std::uint64_t dropped_counter = 0;
};

PartitionRun run_partitioned_fast_stream(std::uint64_t seed) {
  sim::Simulation sim;
  sim::Network network{Rng{seed}};
  network.add_link("ui", "wn", sim::LinkSpec::campus());

  sim::FaultInjector injector{sim, &network};
  sim::FaultPlan plan;
  plan.partition_link("ui", "wn", SimTime::from_seconds(5.0),
                      Duration::seconds(20));
  injector.arm(plan);

  obs::Observability obs;
  PartitionRun result;
  stream::GridConsoleConfig config;
  config.mode = jdl::StreamingMode::kFast;
  config.retry.retry_interval = 1_s;
  config.retry.max_retries = 60;
  config.obs = &obs;
  config.job = JobId{42};
  stream::GridConsole console{sim, network, config, "ui",
                              [&](std::string d) { result.screen += d; },
                              Rng{seed ^ 0x5a5a}};
  auto& agent = console.add_agent(0, "wn");
  for (int i = 0; i < 30; ++i) {
    sim.schedule(Duration::seconds(i), [&agent, i] {
      agent.write_stdout("tick " + std::to_string(i) + "\n");
    });
  }
  sim.run();

  result.shadow_frames_dropped = console.shadow().frames_dropped();
  result.shadow_drop_reports = console.shadow().drop_reports();
  result.agent_frames_dropped = agent.frames_dropped();
  result.trace_jsonl = obs.tracer.to_jsonl();
  result.drop_events = obs.tracer.of_kind(obs::TraceEventKind::kFrameDropped);
  result.reconnect_events =
      obs.tracer.of_kind(obs::TraceEventKind::kReconnected);
  result.dropped_counter = obs.metrics.counter_total("stream.frames_dropped");
  return result;
}

TEST(PartitionObservabilityTest, FastModeDropsAreCountedTracedAndReported) {
  const PartitionRun run = run_partitioned_fast_stream(11);

  // Frames written into the outage vanished — and were *counted*, on the
  // agent, on the shadow, in the registry, and in the trace.
  ASSERT_GT(run.agent_frames_dropped, 0u);
  EXPECT_EQ(run.shadow_frames_dropped, run.agent_frames_dropped);
  EXPECT_EQ(run.dropped_counter, run.agent_frames_dropped);
  EXPECT_EQ(run.drop_events.size(), run.agent_frames_dropped);

  // Recovery: the first delivery after the outage carried the drop report.
  ASSERT_GE(run.reconnect_events.size(), 1u);
  EXPECT_GE(run.shadow_drop_reports, 1u);

  // The trace tells the whole story in order: drops happen strictly inside
  // the outage, the reconnect strictly after it began.
  const SimTime partition_start = SimTime::from_seconds(5.0);
  const SimTime partition_end = partition_start + Duration::seconds(20);
  for (const auto& event : run.drop_events) {
    EXPECT_GE(event.when, partition_start);
    EXPECT_LE(event.when, partition_end + Duration::seconds(2));
    EXPECT_EQ(event.job, JobId{42});
  }
  EXPECT_GT(run.reconnect_events.front().when, partition_start);

  // Post-recovery frames still reached the screen.
  EXPECT_NE(run.screen.find("tick 29"), std::string::npos);

  // And the export shows it all without touching internals.
  EXPECT_NE(run.trace_jsonl.find("\"kind\":\"frame_dropped\""),
            std::string::npos);
  EXPECT_NE(run.trace_jsonl.find("\"kind\":\"reconnected\""),
            std::string::npos);
}

TEST(PartitionObservabilityTest, PartitionedRunExportIsDeterministic) {
  const PartitionRun a = run_partitioned_fast_stream(7);
  const PartitionRun b = run_partitioned_fast_stream(7);
  ASSERT_FALSE(a.trace_jsonl.empty());
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.shadow_frames_dropped, b.shadow_frames_dropped);
}

}  // namespace
}  // namespace cg
