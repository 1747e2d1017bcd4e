// Tests of the benchmark's own logic: the seeded input generator, span
// self-time arithmetic, the percentile reporting rule and metric names.
#include <gtest/gtest.h>

#include <set>

#include "report.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace gridbench {
namespace {

TEST(Generator, SameSeedSameSchedule) {
  for (const WorkloadSpec& spec : workloads()) {
    const auto a = generate_schedule(spec, 7);
    const auto b = generate_schedule(spec, 7);
    ASSERT_FALSE(a.empty()) << spec.name;
    EXPECT_EQ(schedule_digest(a), schedule_digest(b)) << spec.name;
    EXPECT_EQ(a.size(), b.size()) << spec.name;
  }
}

TEST(Generator, DifferentSeedsDifferentSchedules) {
  for (const WorkloadSpec& spec : workloads()) {
    std::set<std::uint64_t> digests;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      digests.insert(schedule_digest(generate_schedule(spec, seed)));
    }
    EXPECT_EQ(digests.size(), 5u) << spec.name;
  }
}

TEST(Generator, ArrivalsAreOrderedWithinTheHorizon) {
  for (const WorkloadSpec& spec : workloads()) {
    const auto schedule = generate_schedule(spec, 3);
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      EXPECT_GE(schedule[i].at_s, 0.0);
      EXPECT_LT(schedule[i].at_s, spec.horizon_s);
      if (i > 0) {
        EXPECT_LE(schedule[i - 1].at_s, schedule[i].at_s);
      }
      EXPECT_FALSE(schedule[i].jdl.empty());
    }
  }
}

Span make_span(std::int64_t start, std::int64_t end, std::int32_t parent) {
  Span s;
  s.name = "x";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, NestedSpans) {
  // A[0,100] > {B[10,30], C[40,90] > D[50,60]}
  const std::vector<Span> spans = {make_span(0, 100, -1), make_span(10, 30, 0),
                                   make_span(40, 90, 0), make_span(50, 60, 2)};
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 20 - 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 50 - 10);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingChildrenAreCountedOnce) {
  // Children [10,50] and [30,70] cover [10,70]: 60, not 80.
  const std::vector<Span> spans = {make_span(0, 100, -1), make_span(10, 50, 0),
                                   make_span(30, 70, 0), make_span(60, 65, 0)};
  EXPECT_EQ(self_times_ns(spans)[0], 40);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<Span> spans = {make_span(10, 20, -1), make_span(5, 15, 0),
                                   make_span(18, 40, 0)};
  EXPECT_EQ(self_times_ns(spans)[0], 10 - 5 - 2);
}

TEST(SelfTime, RecorderLinksParentsAndReduces) {
  SpanRecorder recorder;
  {
    ScopedSpan outer{&recorder, "outer"};
    { ScopedSpan inner{&recorder, "inner", 42}; }
    { ScopedSpan inner{&recorder, "inner"}; }
  }
  ASSERT_EQ(recorder.spans().size(), 3u);
  EXPECT_EQ(recorder.spans()[0].parent, -1);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[2].parent, 0);
  EXPECT_EQ(recorder.spans()[1].job, 42u);
  const auto totals = reduce_by_name(recorder.spans());
  EXPECT_EQ(totals.at("inner").count, 2u);
  const SpanTotals& outer = totals.at("outer");
  EXPECT_EQ(outer.self_ns, outer.total_ns - totals.at("inner").total_ns);
  ScopedSpan untraced{nullptr, "noop"};  // the untraced run records nothing
}

TEST(Percentiles, AtLeastTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(20, 0.5), 10u);
  EXPECT_FALSE(reportable(19, 0.5));
  EXPECT_TRUE(reportable(20, 0.5));
  EXPECT_FALSE(reportable(999, 0.99));
  EXPECT_TRUE(reportable(1000, 0.99));
  EXPECT_FALSE(reportable(0, 0.5));
}

TEST(Percentiles, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(quantile(v, 0.5), 500.0);
  EXPECT_EQ(quantile(v, 0.99), 990.0);
  EXPECT_EQ(reportable_quantile(v, 0.99), 990.0);
  v.pop_back();
  EXPECT_FALSE(reportable_quantile(v, 0.99).has_value());
  EXPECT_FALSE(quantile({}, 0.5).has_value());
  EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(Metrics, NamesAreValidAndUnique) {
  Measurements m;
  m.rounds.emplace_back(1);
  m.rounds.back().back().run_s = 1.0;
  m.setup_s = {1.0};
  m.traced.run_s = 1.0;
  std::set<std::string> names;
  std::vector<Metric> all = end_to_end_metrics(m);
  const std::vector<Metric> layers = per_layer_metrics(m);
  all.insert(all.end(), layers.begin(), layers.end());
  for (const Metric& metric : all) {
    EXPECT_TRUE(valid_metric_name(metric.name)) << metric.name;
    EXPECT_FALSE(metric.unit.empty()) << metric.name;
    EXPECT_TRUE(names.insert(metric.name).second) << "duplicate " << metric.name;
  }
  EXPECT_TRUE(names.contains("setup_s"));
  EXPECT_TRUE(names.contains("sim.run_self_host_s"));
}

TEST(Metrics, NameRule) {
  EXPECT_TRUE(valid_metric_name("net.msg.sent.SubmitJob"));
  EXPECT_TRUE(valid_metric_name("p99-x_y"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name("a/b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

}  // namespace
}  // namespace gridbench
