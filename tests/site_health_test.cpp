// SiteHealth unit tests: exponential suspicion decay, the hard-exclusion
// window and its end-by-decay, reward gating above the exclusion threshold,
// the suspicion cap and erase floor, the disabled no-op mode, and the
// matchmaker wiring (hard-excluded sites skipped, ranks penalized) asserted
// identically on the product matchmaker and the interpreted ClassAd oracle.
#include <gtest/gtest.h>

#include <cmath>

#include "broker/matchmaker.hpp"
#include "broker/site_health.hpp"
#include "oracle/legacy_matchmaker.hpp"

namespace cg::broker {
namespace {

using namespace cg::literals;

constexpr SiteId kSite{7};

SiteHealthConfig tuned() {
  SiteHealthConfig c;
  c.half_life = Duration::seconds(100);
  return c;
}

TEST(SiteHealthTest, SuspicionHalvesEveryHalfLife) {
  sim::Simulation sim;
  SiteHealth health{sim, tuned()};
  health.note_suspected(kSite);  // +1.0
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), 1.0);
  EXPECT_DOUBLE_EQ(health.score(kSite), 0.5);

  sim.run_until(SimTime::from_seconds(100));
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), 0.5);
  sim.run_until(SimTime::from_seconds(300));
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), 0.125);
  // Untracked sites are perfectly healthy.
  EXPECT_DOUBLE_EQ(health.suspicion(SiteId{8}), 0.0);
  EXPECT_DOUBLE_EQ(health.score(SiteId{8}), 1.0);
}

TEST(SiteHealthTest, HardExclusionEndsByDecay) {
  sim::Simulation sim;
  SiteHealth health{sim, tuned()};
  health.note_eviction(kSite);   // +2.0
  health.note_suspected(kSite);  // +1.0 -> 3.0, above the 1.5 threshold
  EXPECT_TRUE(health.hard_excluded(kSite));
  // 3.0 halves to 1.5 after one half-life: still at the threshold...
  EXPECT_TRUE(health.hard_excluded_at(kSite, SimTime::from_seconds(100)));
  // ...and strictly below it any moment later. The projection is what the
  // index consults for replies delivered in the future.
  EXPECT_FALSE(health.hard_excluded_at(kSite, SimTime::from_seconds(101)));
  sim.run_until(SimTime::from_seconds(101));
  EXPECT_FALSE(health.hard_excluded(kSite));
  EXPECT_GT(health.suspicion(kSite), 0.0);
}

TEST(SiteHealthTest, RewardsAreDroppedWhileHardExcluded) {
  sim::Simulation sim;
  SiteHealth health{sim, tuned()};
  health.note_eviction(kSite);  // 2.0 >= threshold
  health.note_completion(kSite);
  health.note_restored(kSite);
  // Gated: rewards must not end an exclusion window early (the index pruning
  // invariant depends on suspicion never dropping faster than decay).
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), 2.0);

  sim.run_until(SimTime::from_seconds(100));  // decayed to 1.0, back in play
  health.note_completion(kSite);              // -0.25 now applies
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), 0.75);
  // Rewards for untracked sites stay no-ops (no negative suspicion).
  health.note_completion(SiteId{8});
  EXPECT_EQ(health.tracked_sites(), 1u);
}

TEST(SiteHealthTest, SuspicionIsCappedAndTinyResidueIsErased) {
  sim::Simulation sim;
  SiteHealth health{sim, tuned()};
  for (int i = 0; i < 10; ++i) health.note_eviction(kSite);
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), health.config().max_suspicion);

  sim::Simulation sim2;
  SiteHealth small{sim2, tuned()};
  small.note_heartbeat_miss(kSite);  // 0.1, well under the threshold
  sim2.run_until(SimTime::from_seconds(100));
  small.note_completion(kSite);  // 0.05 - 0.25 clamps to 0 -> erased
  EXPECT_EQ(small.tracked_sites(), 0u);
  EXPECT_DOUBLE_EQ(small.suspicion(kSite), 0.0);
}

TEST(SiteHealthTest, DisabledConfigIsANoOp) {
  sim::Simulation sim;
  SiteHealthConfig config = tuned();
  config.enabled = false;
  SiteHealth health{sim, config};
  health.note_eviction(kSite);
  health.note_suspected(kSite);
  EXPECT_EQ(health.tracked_sites(), 0u);
  EXPECT_DOUBLE_EQ(health.suspicion(kSite), 0.0);
  EXPECT_DOUBLE_EQ(health.score(kSite), 1.0);
  EXPECT_FALSE(health.hard_excluded(kSite));
  EXPECT_DOUBLE_EQ(health.rank_penalty(kSite), 0.0);
}

TEST(SiteHealthTest, PublishesHealthGauge) {
  sim::Simulation sim;
  obs::MetricsRegistry metrics;
  SiteHealth health{sim, tuned()};
  health.set_metrics(&metrics);
  health.note_suspected(kSite);
  const auto snapshot = metrics.snapshot(sim.now());
  const auto* sample = snapshot.find(
      "broker.site.health", obs::LabelSet{{"site", "7"}});
  ASSERT_NE(sample, nullptr);
  EXPECT_DOUBLE_EQ(sample->value, 0.5);  // score of suspicion 1.0
}

// ------------------------------------------------- matchmaker integration --

infosys::SiteRecord make_record(std::uint64_t id, int free_cpus) {
  infosys::SiteRecord r;
  r.static_info.id = SiteId{id};
  r.static_info.name = "site" + std::to_string(id);
  r.static_info.arch = "i686";
  r.static_info.worker_nodes = free_cpus;
  r.static_info.cpus_per_node = 1;
  r.dynamic_info.free_cpus = free_cpus;
  return r;
}

jdl::JobDescription make_job() {
  auto jd = jdl::JobDescription::parse("Executable = \"app\";");
  EXPECT_TRUE(jd.has_value()) << (jd ? "" : jd.error().to_string());
  return jd.value();
}

/// GetParam(): true picks with the oracle's filter + select, false with the
/// product's fused match_one.
class SiteHealthMatchFixture : public ::testing::TestWithParam<bool> {
protected:
  sim::Simulation sim;
  LeaseManager leases{sim};
  SiteHealth health{sim, tuned()};
  const SiteHealth* attached = nullptr;  ///< what both matchmakers consult
  Matchmaker matchmaker;

  void SetUp() override { attach(&health); }

  void attach(const SiteHealth* h) {
    attached = h;
    matchmaker.set_site_health(h);
  }

  std::optional<SiteId> pick(const jdl::JobDescription& job,
                             const std::vector<infosys::SiteRecord>& records) {
    Rng rng{42};
    if (GetParam()) {
      return matchmaker.select(
          oracle::filter(job, records, leases, 1, attached), rng);
    }
    const auto compiled = matchmaker.compile(job);
    const auto chosen = matchmaker.match_one(
        *compiled, CandidateSource{records}, leases, 1, rng);
    return chosen ? std::optional<SiteId>{chosen->site} : std::nullopt;
  }
};

INSTANTIATE_TEST_SUITE_P(ProductAndOracle, SiteHealthMatchFixture,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "Oracle" : "Product";
                         });

TEST_P(SiteHealthMatchFixture, PenaltyBreaksTiesAwayFromDegradedSite) {
  // Equal capacity: without health both sites tie. A single heartbeat miss
  // (suspicion 0.1, far below exclusion) must break the tie the other way.
  health.note_heartbeat_miss(SiteId{1});
  const auto job = make_job();
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(pick(job, {make_record(1, 4), make_record(2, 4)}), SiteId{2});
  }
}

TEST_P(SiteHealthMatchFixture, HardExcludedSiteIsSkippedEvenWhenBest) {
  // Site 1 offers strictly better rank but sits above the threshold.
  health.note_eviction(SiteId{1});
  const auto job = make_job();
  EXPECT_EQ(pick(job, {make_record(1, 8), make_record(2, 2)}), SiteId{2});
  // Exclusion everywhere -> no match at all.
  health.note_eviction(SiteId{2});
  EXPECT_EQ(pick(job, {make_record(1, 8), make_record(2, 2)}), std::nullopt);
  // Decay re-admits: after two half-lives site 1 (2.0 -> 0.5) is back and
  // wins on rank despite the residual penalty (8 - 0.5 > 2 - 0.5).
  sim.run_until(SimTime::from_seconds(200));
  EXPECT_EQ(pick(job, {make_record(1, 8), make_record(2, 2)}), SiteId{1});
}

TEST_P(SiteHealthMatchFixture, DetachedHealthRestoresHealthBlindMatching) {
  health.note_eviction(SiteId{1});
  attach(nullptr);
  const auto job = make_job();
  EXPECT_EQ(pick(job, {make_record(1, 8), make_record(2, 2)}), SiteId{1});
}

TEST(SiteHealthParityTest, FilterSitesPrunesIdenticallyToOracle) {
  sim::Simulation sim;
  LeaseManager leases{sim};
  SiteHealth health{sim, tuned()};
  health.note_eviction(SiteId{2});
  health.note_heartbeat_miss(SiteId{3});

  Matchmaker product;
  product.set_site_health(&health);

  const auto job = make_job();
  const auto compiled = product.compile(job);
  const std::vector<infosys::SiteRecord> records{
      make_record(1, 4), make_record(2, 4), make_record(3, 4)};
  const auto a = oracle::filter_sites(job, CandidateSource{records}, leases, 1,
                                      &health);
  const auto b =
      product.filter_sites(*compiled, CandidateSource{records}, leases, 1);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 2u);  // site 2 hard-excluded by both
  EXPECT_EQ(a[0], SiteId{1});
  EXPECT_EQ(a[1], SiteId{3});
}

}  // namespace
}  // namespace cg::broker
