// Information-system tests: publication, staleness, query latencies,
// lifecycle edge cases.
#include <gtest/gtest.h>

#include "infosys/information_system.hpp"
#include "jdl/eval.hpp"
#include "oracle/legacy_matchmaker.hpp"

namespace cg::infosys {
namespace {

using namespace cg::literals;

class InfosysFixture : public ::testing::Test {
protected:
  SiteStaticInfo make_site(std::uint64_t id, int nodes) {
    SiteStaticInfo info;
    info.id = SiteId{id};
    info.name = "site" + std::to_string(id);
    info.worker_nodes = nodes;
    info.cpus_per_node = 1;
    return info;
  }

  sim::Simulation sim;
};

TEST_F(InfosysFixture, IndexQueryPaysConfiguredLatency) {
  InformationSystemConfig config;
  config.index_query_latency = 500_ms;
  InformationSystem is{sim, config};
  is.register_site(make_site(1, 4), [] {
    SiteRecord r;
    r.static_info.id = SiteId{1};
    r.dynamic_info.free_cpus = 4;
    return r;
  });
  is.publish_fresh(SiteId{1});

  SimTime answered;
  std::shared_ptr<const InformationSystem::IndexSnapshot> result;
  is.query_index_matching(
      1, [&](std::shared_ptr<const InformationSystem::IndexSnapshot> records) {
        answered = sim.now();
        result = std::move(records);
      });
  sim.run();
  EXPECT_EQ(answered.to_seconds(), 0.5);  // the paper's ~0.5 s discovery
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0]->dynamic_info.free_cpus, 4);
}

TEST_F(InfosysFixture, IndexServesStaleDataUntilNextPublication) {
  InformationSystem is{sim};
  int free_cpus = 4;
  is.register_site(make_site(1, 4), [&] {
    SiteRecord r;
    r.static_info.id = SiteId{1};
    r.dynamic_info.free_cpus = free_cpus;
    return r;
  });
  is.publish_fresh(SiteId{1});
  free_cpus = 0;  // the site filled up, but nothing was re-published

  int seen = -1;
  is.query_index_matching(
      1, [&](std::shared_ptr<const InformationSystem::IndexSnapshot> records) {
        seen = records->at(0)->dynamic_info.free_cpus;
      });
  sim.run();
  EXPECT_EQ(seen, 4) << "index must serve the stale published value";

  // Direct site query sees the truth.
  int fresh_seen = -1;
  is.query_site(SiteId{1}, [&](std::optional<SiteRecord> r) {
    ASSERT_TRUE(r.has_value());
    fresh_seen = r->dynamic_info.free_cpus;
  });
  sim.run();
  EXPECT_EQ(fresh_seen, 0);
}

TEST_F(InfosysFixture, PeriodicPublicationRefreshes) {
  InformationSystem is{sim};
  int free_cpus = 4;
  is.register_site(make_site(1, 4), [&] {
    SiteRecord r;
    r.static_info.id = SiteId{1};
    r.dynamic_info.free_cpus = free_cpus;
    return r;
  });
  is.start_periodic_publication(SiteId{1}, 30_s);
  EXPECT_EQ(is.published_record(SiteId{1})->dynamic_info.free_cpus, 4);

  free_cpus = 1;
  sim.run_until(SimTime::from_seconds(29));
  EXPECT_EQ(is.published_record(SiteId{1})->dynamic_info.free_cpus, 4);
  sim.run_until(SimTime::from_seconds(31));
  EXPECT_EQ(is.published_record(SiteId{1})->dynamic_info.free_cpus, 1);
  EXPECT_EQ(is.published_record(SiteId{1})->sampled_at.to_seconds(), 30.0);
}

TEST_F(InfosysFixture, SiteQueryLatencyPerSiteOverride) {
  InformationSystemConfig config;
  config.default_site_query_latency = 150_ms;
  InformationSystem is{sim, config};
  is.register_site(make_site(1, 1), [] { return SiteRecord{}; });
  is.register_site(make_site(2, 1), [] { return SiteRecord{}; }, 400_ms);

  SimTime t1;
  SimTime t2;
  is.query_site(SiteId{1}, [&](auto) { t1 = sim.now(); });
  is.query_site(SiteId{2}, [&](auto) { t2 = sim.now(); });
  sim.run();
  EXPECT_EQ(t1.to_seconds(), 0.15);
  EXPECT_EQ(t2.to_seconds(), 0.40);
}

TEST_F(InfosysFixture, QueryUnknownSiteYieldsNullopt) {
  InformationSystem is{sim};
  bool called = false;
  is.query_site(SiteId{99}, [&](std::optional<SiteRecord> r) {
    called = true;
    EXPECT_FALSE(r.has_value());
  });
  sim.run();
  EXPECT_TRUE(called);
}

TEST_F(InfosysFixture, UnregisterDuringInFlightQueryIsSafe) {
  InformationSystem is{sim};
  is.register_site(make_site(1, 1), [] { return SiteRecord{}; });
  bool got_nullopt = false;
  is.query_site(SiteId{1}, [&](std::optional<SiteRecord> r) {
    got_nullopt = !r.has_value();
  });
  is.unregister_site(SiteId{1});
  sim.run();
  EXPECT_TRUE(got_nullopt);
}

TEST_F(InfosysFixture, UnregisterStopsPeriodicPublication) {
  InformationSystem is{sim};
  int publish_count = 0;
  is.register_site(make_site(1, 1), [&] {
    ++publish_count;
    return SiteRecord{};
  });
  is.start_periodic_publication(SiteId{1}, 10_s);
  sim.run_until(SimTime::from_seconds(25));
  is.unregister_site(SiteId{1});
  const int count_at_unregister = publish_count;
  sim.run_until(SimTime::from_seconds(100));
  EXPECT_EQ(publish_count, count_at_unregister);
}

TEST_F(InfosysFixture, QueryCountsTracked) {
  InformationSystem is{sim};
  is.register_site(make_site(1, 1), [] { return SiteRecord{}; });
  is.query_index_matching(1, [](auto) {});
  is.query_index_matching(1, [](auto) {});
  is.query_site(SiteId{1}, [](auto) {});
  sim.run();
  EXPECT_EQ(is.index_queries(), 2u);
  EXPECT_EQ(is.site_queries(), 1u);
}

TEST_F(InfosysFixture, RegisterValidation) {
  InformationSystem is{sim};
  EXPECT_THROW(is.register_site(SiteStaticInfo{}, [] { return SiteRecord{}; }),
               std::invalid_argument);
  EXPECT_THROW(is.register_site(make_site(1, 1), nullptr), std::invalid_argument);
}

SiteRecord sample_record() {
  SiteRecord r;
  r.static_info.id = SiteId{7};
  r.static_info.name = "ifca";
  r.static_info.arch = "i686";
  r.static_info.op_sys = "linux-2.4";
  r.static_info.worker_nodes = 10;
  r.static_info.cpus_per_node = 2;
  r.static_info.memory_mb_per_node = 2048;
  r.static_info.storage_gb = 600;
  r.dynamic_info.free_cpus = 5;
  r.dynamic_info.queued_jobs = 3;
  r.dynamic_info.free_interactive_vms = 2;
  return r;
}

TEST(SiteRecordTest, ToClassAdExportsMatchmakingAttributes) {
  const jdl::ClassAd ad = oracle::to_classad(sample_record());
  EXPECT_EQ(ad.get_string("Name"), "ifca");
  EXPECT_EQ(ad.get_string("Arch"), "i686");
  EXPECT_EQ(ad.get_int("TotalCPUs"), 20);
  EXPECT_EQ(ad.get_int("FreeCPUs"), 5);
  EXPECT_EQ(ad.get_int("QueuedJobs"), 3);
  EXPECT_EQ(ad.get_int("FreeInteractiveVMs"), 2);
  EXPECT_EQ(ad.get_int("MemoryMB"), 2048);
}

TEST(SiteRecordTest, MachineViewHoldsTheOracleClassAdValuesInSlotOrder) {
  // The oracle's machine ad and the product's slot view describe the same
  // machine: one layout slot per ad attribute, holding the same value.
  const SiteRecord r = sample_record();
  const jdl::ClassAd ad = oracle::to_classad(r);
  const jdl::SlotLayout& layout = machine_slot_layout();
  const jdl::SlotValues& slots = r.machine_view().slots;
  ASSERT_EQ(ad.size(), layout.size());
  ASSERT_EQ(slots.size(), layout.size());
  for (const std::string& name : ad.names()) {
    const int slot = layout.index_of(name);
    ASSERT_GE(slot, 0) << name;
    EXPECT_TRUE(jdl::evaluate_attr(ad, name)
                    .same_as(slots[static_cast<std::size_t>(slot)]))
        << name;
  }
}

}  // namespace
}  // namespace cg::infosys
