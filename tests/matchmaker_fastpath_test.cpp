// Matchmaking fast-path tests: compiled-expression semantics, the free-CPU
// site index and its invalidation rules, decision parity with the
// interpreted ClassAd oracle (fixed templates plus a seeded random-expression
// property, down to rng lockstep), golden end-to-end trace digests, and the
// metrics the matchmaker emits.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "broker/matchmaker.hpp"
#include "grid/grid.hpp"
#include "oracle/legacy_matchmaker.hpp"

namespace cg::broker {
namespace {

using namespace cg::literals;

infosys::SiteRecord make_record(std::uint64_t id, int free_cpus,
                                const std::string& arch = "i686",
                                std::int64_t memory_mb = 1024) {
  infosys::SiteRecord r;
  r.static_info.id = SiteId{id};
  r.static_info.name = "site" + std::to_string(id);
  r.static_info.arch = arch;
  r.static_info.worker_nodes = std::max(free_cpus, 1);
  r.static_info.cpus_per_node = 1;
  r.static_info.memory_mb_per_node = memory_mb;
  r.dynamic_info.free_cpus = free_cpus;
  return r;
}

jdl::JobDescription make_job(const std::string& extra = "") {
  auto jd = jdl::JobDescription::parse("Executable = \"app\";\n" + extra);
  EXPECT_TRUE(jd.has_value()) << (jd ? "" : jd.error().to_string());
  return jd.value();
}

// ------------------------------------------------- compiled expressions ----

jdl::CompiledMatch compile_job(const std::string& extra) {
  return jdl::CompiledMatch::compile(make_job(extra).ad(),
                                     infosys::machine_slot_layout());
}

jdl::SlotEvalContext context_for(const infosys::SiteRecord& record) {
  jdl::SlotEvalContext ctx;
  ctx.slots = &record.machine_view().slots;
  return ctx;
}

TEST(CompiledMatchTest, SiteIndependentConjunctsFoldAway) {
  // `true` and `1 + 1 == 2` are decidable at compile time; only the
  // site-dependent conjunct must survive to be evaluated per record.
  const auto compiled =
      compile_job("Requirements = true && 1 + 1 == 2 && other.FreeCPUs >= 1;");
  EXPECT_FALSE(compiled.never_matches());
  EXPECT_EQ(compiled.residual_conjunct_count(), 1u);
}

TEST(CompiledMatchTest, ConstantFalseConjunctNeverMatches) {
  const auto compiled =
      compile_job("Requirements = other.FreeCPUs >= 1 && 2 < 1;");
  EXPECT_TRUE(compiled.never_matches());
}

TEST(CompiledMatchTest, SelfScopeReferencesAreInlined) {
  // self.MinMem resolves against the job ad at compile time, so the
  // residual expression only reads machine slots.
  const auto compiled = compile_job(
      "MinMem = 2048;\nRequirements = other.MemoryMB >= self.MinMem;");
  EXPECT_EQ(compiled.residual_conjunct_count(), 1u);
  const auto small = make_record(1, 4, "i686", 1024);
  const auto big = make_record(2, 4, "i686", 4096);
  EXPECT_FALSE(compiled.matches(context_for(small)));
  EXPECT_TRUE(compiled.matches(context_for(big)));
}

TEST(CompiledMatchTest, UnknownAttributeIsStaticallyUnmatchable) {
  // Machine ads always carry exactly the slot-layout attributes, so a
  // reference to anything else is Undefined on every site — the compiler
  // may (and does) decide the requirement statically.
  const auto compiled = compile_job("Requirements = other.NoSuchAttr > 3;");
  EXPECT_TRUE(compiled.never_matches());
  EXPECT_FALSE(compiled.matches(context_for(make_record(1, 8))));
}

TEST(CompiledMatchTest, RankEvaluatesAgainstSlots) {
  const auto compiled = compile_job("Rank = other.FreeCPUs * 2 + 1;");
  ASSERT_TRUE(compiled.has_rank());
  EXPECT_EQ(compiled.rank(context_for(make_record(1, 5))), 11.0);
}

// ------------------------------------------------- oracle parity ----------

const std::vector<std::string>& job_templates() {
  static const std::vector<std::string> templates{
      "",
      "Requirements = other.Arch == \"x86_64\";",
      "Requirements = other.MemoryMB >= 1024 && other.FreeCPUs >= 2;",
      "Rank = -other.FreeCPUs;",
      "Requirements = other.Arch == \"i686\" || other.TotalCPUs > 6;\n"
      "Rank = other.MemoryMB + other.FreeCPUs;",
      "Requirements = false;",
      "Rank = 3;",
  };
  return templates;
}

std::vector<infosys::SiteRecord> parity_records() {
  std::vector<infosys::SiteRecord> records;
  for (std::uint64_t i = 1; i <= 12; ++i) {
    records.push_back(make_record(i, static_cast<int>(i * 5 % 9),
                                  i % 3 == 0 ? "x86_64" : "i686",
                                  512 << (i % 3)));
  }
  return records;
}

/// Candidate-for-candidate equality: site, rank and effective free CPUs.
void expect_same_candidates(const std::vector<Candidate>& got,
                            const std::vector<Candidate>& expect,
                            const std::string& context) {
  ASSERT_EQ(got.size(), expect.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].site, expect[i].site) << context;
    EXPECT_EQ(got[i].rank, expect[i].rank) << context;
    EXPECT_EQ(got[i].effective_free_cpus, expect[i].effective_free_cpus)
        << context;
  }
}

TEST(OracleParityTest, FilterMatchesOracleCandidateForCandidate) {
  sim::Simulation sim;
  LeaseManager leases{sim};
  ASSERT_TRUE(leases.acquire(SiteId{5}, 2, 3600_s));  // shadow one site
  const Matchmaker product;
  const auto records = parity_records();
  for (const auto& tmpl : job_templates()) {
    for (const int needed : {1, 4}) {
      const auto job = make_job(tmpl);
      expect_same_candidates(
          product.filter(*product.compile(job), records, leases, needed),
          oracle::filter(job, records, leases, needed),
          tmpl + " needed=" + std::to_string(needed));
    }
  }
}

TEST(OracleParityTest, MatchOneEqualsOracleFilterPlusSelectInRngLockstep) {
  sim::Simulation sim;
  LeaseManager leases{sim};
  const Matchmaker product;
  const auto records = parity_records();
  for (const auto& tmpl : job_templates()) {
    for (const int needed : {1, 4}) {
      for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
        const auto job = make_job(tmpl);
        Rng oracle_rng{seed};
        Rng product_rng{seed};
        const auto expect = product.select(
            oracle::filter(job, records, leases, needed), oracle_rng);
        const auto compiled = product.compile(job);
        const auto got = product.match_one(*compiled, CandidateSource{records},
                                           leases, needed, product_rng);
        ASSERT_EQ(got.has_value(), expect.has_value()) << tmpl;
        if (expect) {
          EXPECT_EQ(got->site, *expect) << tmpl;
        }
        // Both sides must have consumed the exact same number of draws.
        EXPECT_EQ(product_rng.next_u64(), oracle_rng.next_u64()) << tmpl;
      }
    }
  }
}

// ------------------------------------------- seeded oracle-parity property --

/// Random JDL Requirements/Rank source over every machine attribute, with
/// boolean connectives, comparisons, arithmetic, string equality, undefined
/// attributes and constant-foldable conjuncts. Integer leaves stay below
/// 2^13 and products nest at most two deep, so no arithmetic overflows.
class ExprGen {
public:
  explicit ExprGen(Rng& rng) : rng_{rng} {}

  std::string requirements() {
    // A conjunction spine, so the compiler's constant folding and conjunct
    // splitting see site-independent and undefined conjuncts mixed in.
    std::string out = boolean(2);
    const auto extra = rng_.uniform_int(0, 2);
    for (std::int64_t i = 0; i < extra; ++i) {
      out += " && " + (rng_.chance(0.3) ? special() : boolean(1));
    }
    return out;
  }

  std::string rank() {
    switch (rng_.uniform_int(0, 9)) {
      case 0: return "\"not a number\"";  // non-numeric: neutral
      case 1: return "other.FreeCPUs > 2";  // boolean: neutral
      case 2: return "other.NoSuchAttr + 1";  // undefined: neutral
      case 3: return std::to_string(rng_.uniform_int(-3, 3));
      default: return number(2);
    }
  }

private:
  static constexpr const char* kIntAttrs[] = {
      "WorkerNodes", "CpusPerNode",  "TotalCPUs",  "MemoryMB",
      "StorageGB",   "FreeCPUs",     "RunningJobs", "QueuedJobs",
      "FreeInteractiveVMs"};

  template <std::size_t N>
  const char* pick(const char* const (&items)[N]) {
    return items[rng_.pick_index(N)];
  }

  std::string number(int depth) {
    const auto choice = rng_.uniform_int(0, depth > 0 ? 7 : 2);
    switch (choice) {
      case 0: return std::string{"other."} + pick(kIntAttrs);
      case 1: return std::to_string(rng_.uniform_int(0, 64));
      case 2: return "self.MinMem";
      case 3: return "(" + number(depth - 1) + " + " + number(depth - 1) + ")";
      case 4: return "(" + number(depth - 1) + " - " + number(depth - 1) + ")";
      case 5: return "(" + number(depth - 1) + " * " + number(depth - 1) + ")";
      case 6: return "-" + number(depth - 1);
      default: return std::string{"other."} + pick(kIntAttrs);
    }
  }

  std::string comparison() {
    static constexpr const char* kOps[] = {"<", "<=", ">", ">=", "==", "!="};
    return number(2) + " " + pick(kOps) + " " + number(1);
  }

  std::string string_equality() {
    static constexpr const char* kStrAttrs[] = {"Arch", "OpSys", "Name"};
    static constexpr const char* kStrings[] = {
        "\"i686\"", "\"x86_64\"", "\"linux-2.4\"", "\"linux-2.6\"",
        "\"site3\"", "\"site5\""};
    static constexpr const char* kEq[] = {"==", "!="};
    return std::string{"other."} + pick(kStrAttrs) + " " + pick(kEq) + " " +
           pick(kStrings);
  }

  /// Site-independent conjuncts the compiler folds to a constant, and
  /// undefined attributes on either side.
  std::string special() {
    static constexpr const char* kSpecial[] = {
        "true",
        "false",
        "1 + 1 == 2",
        "2 < 1",
        "self.MinMem >= 0",
        "other.NoSuchAttr > 3",
        "other.NoSuchAttr == \"x\"",
        "self.Missing < other.FreeCPUs",
        "(other.NoSuchAttr > 1 || other.FreeCPUs > 1)",
        "!(other.NoSuchAttr > 1)"};
    return pick(kSpecial);
  }

  std::string boolean(int depth) {
    switch (rng_.uniform_int(0, depth > 0 ? 13 : 7)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4: return comparison();
      case 5:
      case 6: return string_equality();
      case 7: return rng_.chance(0.5) ? special() : comparison();
      case 8: return "!(" + boolean(depth - 1) + ")";
      case 9:
      case 10:
        return "(" + boolean(depth - 1) + " && " + boolean(depth - 1) + ")";
      default:
        return "(" + boolean(depth - 1) + " || " + boolean(depth - 1) + ")";
    }
  }

  Rng& rng_;
};

infosys::SiteRecord random_record(std::uint64_t id, Rng& rng) {
  static constexpr const char* kArches[] = {"i686", "x86_64", "ia64"};
  static constexpr const char* kOpSys[] = {"linux-2.4", "linux-2.6"};
  infosys::SiteRecord r;
  r.static_info.id = SiteId{id};
  r.static_info.name = "site" + std::to_string(id);
  r.static_info.arch = kArches[rng.pick_index(3)];
  r.static_info.op_sys = kOpSys[rng.pick_index(2)];
  r.static_info.worker_nodes = static_cast<int>(rng.uniform_int(0, 12));
  r.static_info.cpus_per_node = static_cast<int>(rng.uniform_int(1, 2));
  r.static_info.memory_mb_per_node = 256 << rng.uniform_int(0, 4);
  r.static_info.storage_gb = rng.uniform_int(100, 1000);
  const int total = r.static_info.total_cpus();
  r.dynamic_info.free_cpus = static_cast<int>(rng.uniform_int(0, total));
  r.dynamic_info.running_jobs = total - r.dynamic_info.free_cpus;
  r.dynamic_info.queued_jobs = static_cast<int>(rng.uniform_int(0, 5));
  r.dynamic_info.free_interactive_vms = static_cast<int>(rng.uniform_int(0, 3));
  return r;
}

TEST(OracleParityProperty, RandomExpressionsMatchOracleAcrossSeeds) {
  constexpr std::uint64_t kSeeds = 256;
  std::size_t nonempty = 0;
  std::size_t empty = 0;
  std::size_t never = 0;
  std::size_t excluded = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng{seed};
    ExprGen gen{rng};
    std::string source = "Executable = \"app\";\nMinMem = " +
                         std::to_string(rng.uniform_int(0, 4096)) + ";\n";
    if (rng.chance(0.9)) source += "Requirements = " + gen.requirements() + ";\n";
    if (rng.chance(0.8)) source += "Rank = " + gen.rank() + ";\n";
    const auto parsed = jdl::JobDescription::parse(source);
    ASSERT_TRUE(parsed.has_value())
        << source << (parsed ? "" : parsed.error().to_string());
    const jdl::JobDescription& job = *parsed;
    const std::string context = "seed " + std::to_string(seed) + ":\n" + source;

    sim::Simulation sim;
    LeaseManager leases{sim};
    SiteHealth health{sim};
    std::vector<infosys::SiteRecord> records;
    const auto sites = static_cast<std::uint64_t>(rng.uniform_int(1, 16));
    for (std::uint64_t id = 1; id <= sites; ++id) {
      records.push_back(random_record(id, rng));
      if (rng.chance(0.3)) {
        ASSERT_TRUE(leases.acquire(
            SiteId{id}, static_cast<int>(rng.uniform_int(1, 4)), 3600_s));
      }
      switch (rng.uniform_int(0, 7)) {
        case 0: health.note_eviction(SiteId{id}); break;
        case 1: health.note_suspected(SiteId{id}); break;
        case 2: health.note_heartbeat_miss(SiteId{id}); break;
        case 3:
          health.note_suspected(SiteId{id});
          health.note_completion(SiteId{id});
          break;
        default: break;  // healthy
      }
    }
    // Let some suspicion decay, so exclusions and penalties vary in size.
    sim.run_until(SimTime::from_seconds(
        static_cast<double>(rng.uniform_int(0, 900))));
    for (const auto& r : records) {
      if (health.hard_excluded(r.static_info.id)) ++excluded;
    }

    const MatchmakerConfig config{
        .rank_tie_margin = rng.chance(0.5) ? 1e-9 : 0.25,
        .randomize_ties = rng.chance(0.8)};
    Matchmaker product{config};
    product.set_site_health(&health);
    const auto compiled = product.compile(job);
    if (compiled->never_matches()) ++never;

    for (const int needed : {1, 2, 4}) {
      const std::string at = context + "needed=" + std::to_string(needed);
      const auto expect = oracle::filter(job, records, leases, needed, &health);
      expect.empty() ? ++empty : ++nonempty;
      expect_same_candidates(product.filter(*compiled, records, leases, needed),
                             expect, at);
      EXPECT_EQ(product.filter_sites(*compiled, CandidateSource{records},
                                     leases, needed),
                oracle::filter_sites(job, CandidateSource{records}, leases,
                                     needed, &health))
          << at;
      const std::uint64_t draw_seed = rng.next_u64();
      Rng oracle_rng{draw_seed};
      Rng product_rng{draw_seed};
      const auto picked = product.select(expect, oracle_rng);
      const auto fused = product.match_one(*compiled, CandidateSource{records},
                                           leases, needed, product_rng);
      ASSERT_EQ(fused.has_value(), picked.has_value()) << at;
      if (picked) {
        EXPECT_EQ(fused->site, *picked) << at;
      }
      EXPECT_EQ(product_rng.next_u64(), oracle_rng.next_u64()) << at;
    }
  }
  // The generator must exercise both outcomes, statically decided jobs and
  // health exclusions, or the property says little.
  EXPECT_GT(nonempty, kSeeds / 2);
  EXPECT_GT(empty, kSeeds / 4);
  EXPECT_GT(never, 0u);
  EXPECT_GT(excluded, 0u);
}

// ------------------------------------------------- free-CPU site index -----

class IndexFixture : public ::testing::Test {
protected:
  IndexFixture() : is{sim, fast_config()} {}

  static infosys::InformationSystemConfig fast_config() {
    infosys::InformationSystemConfig c;
    c.index_query_latency = Duration::millis(1);
    c.default_site_query_latency = Duration::millis(1);
    return c;
  }

  void add_site(std::uint64_t id, int free_cpus) {
    const auto record = make_record(id, free_cpus);
    is.register_site(record.static_info, [record] { return record; });
    is.publish(record);
  }

  std::vector<std::uint64_t> matching_ids(int needed) {
    std::vector<std::uint64_t> ids;
    is.query_index_matching(
        needed,
        [&ids](std::shared_ptr<const infosys::InformationSystem::IndexSnapshot>
                   records) {
          for (const auto& r : *records) {
            ids.push_back(r->static_info.id.value());
          }
        });
    sim.run_until(sim.now() + Duration::millis(2));
    return ids;
  }

  sim::Simulation sim;
  infosys::InformationSystem is;
};

TEST_F(IndexFixture, PrunesByPublishedFreeCpusInAscendingIdOrder) {
  add_site(3, 9);
  add_site(1, 0);
  add_site(2, 5);
  add_site(4, 2);
  EXPECT_EQ(is.index_size(), 4u);
  EXPECT_EQ(matching_ids(4), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(matching_ids(1), (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_EQ(matching_ids(10), (std::vector<std::uint64_t>{}));
}

TEST_F(IndexFixture, LeasedSitesStayVisibleWhilePublishedCapacityCovers) {
  add_site(1, 8);
  // A lease drops the effective count below the request, but the published
  // capacity still covers it: the lease may be gone by the time the broker
  // re-checks, so the site must stay in the reply (lease-independent bound).
  is.apply_lease_delta(SiteId{1}, 6);
  EXPECT_EQ(is.effective_free(SiteId{1}), 2);
  EXPECT_EQ(matching_ids(4), (std::vector<std::uint64_t>{1}));
  is.apply_lease_delta(SiteId{1}, -6);
  EXPECT_EQ(is.effective_free(SiteId{1}), 8);
  EXPECT_EQ(matching_ids(4), (std::vector<std::uint64_t>{1}));
}

TEST_F(IndexFixture, RepublishMovesSiteBetweenBuckets) {
  add_site(1, 8);
  EXPECT_EQ(matching_ids(4), (std::vector<std::uint64_t>{1}));
  auto drained = make_record(1, 1);
  is.publish(drained);  // site filled up: must leave the needed>=4 prefix
  EXPECT_EQ(matching_ids(4), (std::vector<std::uint64_t>{}));
  EXPECT_EQ(is.index_size(), 1u);
  is.publish(make_record(1, 8));
  EXPECT_EQ(matching_ids(4), (std::vector<std::uint64_t>{1}));
}

TEST_F(IndexFixture, UnregisterRemovesSiteFromIndex) {
  add_site(1, 8);
  add_site(2, 8);
  is.unregister_site(SiteId{1});
  EXPECT_EQ(is.index_size(), 1u);
  EXPECT_EQ(matching_ids(1), (std::vector<std::uint64_t>{2}));
}

TEST_F(IndexFixture, InvalidationListenerReportsEveryReason) {
  std::vector<std::pair<std::uint64_t, std::string>> events;
  is.set_invalidation_listener([&events](SiteId id, const char* reason) {
    events.emplace_back(id.value(), reason);
  });
  add_site(1, 8);  // first publication: nothing to invalidate
  EXPECT_TRUE(events.empty());
  is.publish(make_record(1, 3));
  is.apply_lease_delta(SiteId{1}, 2);
  is.unregister_site(SiteId{1});
  const std::vector<std::pair<std::uint64_t, std::string>> expected{
      {1, "republish"}, {1, "lease"}, {1, "unregister"}};
  EXPECT_EQ(events, expected);
}

TEST_F(IndexFixture, SnapshotsShareOnePrimedMachineView) {
  add_site(1, 8);
  using Snapshot = infosys::InformationSystem::IndexSnapshot;
  std::shared_ptr<const Snapshot> first;
  std::shared_ptr<const Snapshot> second;
  is.query_index_matching(
      1, [&first](std::shared_ptr<const Snapshot> r) { first = std::move(r); });
  is.query_index_matching(1, [&second](std::shared_ptr<const Snapshot> r) {
    second = std::move(r);
  });
  sim.run_until(sim.now() + Duration::millis(2));
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_EQ(first->size(), 1u);
  ASSERT_EQ(second->size(), 1u);
  // Publication primed the cache once; every snapshot aliases that record —
  // and with no index change in between, the queries share one cached
  // snapshot vector outright.
  EXPECT_TRUE((*first)[0]->cache_primed());
  EXPECT_EQ((*first)[0].get(), (*second)[0].get());
  EXPECT_EQ(first.get(), second.get());
}

// ------------------------------------------------- end-to-end goldens -----

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string run_trace(std::uint64_t seed) {
  GridConfig config;
  config.sites = 6;
  config.nodes_per_site = 4;
  config.seed = seed;
  Grid grid{config};
  const std::vector<std::string> jobs{
      "Executable = \"batch\";",
      "Executable = \"viz\"; JobType = \"interactive\";",
      "Executable = \"sim\"; Rank = -other.FreeCPUs;",
      "Executable = \"render\"; Requirements = other.FreeCPUs >= 2;",
      "Executable = \"viz2\"; JobType = \"interactive\"; Rank = 1;",
      "Executable = \"hold\"; Requirements = other.NoSuchAttr > 1;",
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto jd = jdl::JobDescription::parse(jobs[i]);
    EXPECT_TRUE(jd.has_value());
    const auto handle =
        grid.submit(jd.value(), UserId{i + 1},
                    lrms::Workload::cpu(Duration::seconds(
                        60 * (static_cast<std::int64_t>(i) + 1))));
    EXPECT_TRUE(handle.has_value()) << jobs[i];
  }
  grid.run_for(Duration::seconds(3600));
  return grid.export_trace_jsonl();
}

TEST(FastPathEndToEndTest, SameSeedRunsExportByteIdenticalTraces) {
  // FNV-1a of the JobTracer JSONL export, pinned from the interpreted
  // ClassAd matchmaker's runs (which the compiled path matched byte for
  // byte when both lived in the broker).
  const std::pair<std::uint64_t, std::uint64_t> kGolden[] = {
      {1, 0x3c7059259db4835cULL},
      {2, 0xfd8546b240caf19bULL},
      {3, 0x488bb351c2239aa3ULL},
  };
  for (const auto& [seed, digest] : kGolden) {
    const std::string trace = run_trace(seed);
    EXPECT_FALSE(trace.empty());
    EXPECT_EQ(trace, run_trace(seed)) << "same-seed rerun diverged";
    EXPECT_EQ(fnv1a(trace), digest) << "trace divergence at seed " << seed;
  }
}

TEST(FastPathEndToEndTest, OfflineSiteIsNeverMatchedFromStaleIndex) {
  GridConfig config;
  config.sites = 4;
  config.nodes_per_site = 4;
  config.seed = 11;
  Grid grid{config};
  const SiteId dead = grid.site(0).id();
  // Kill the site before any republication cycle: a missed index
  // invalidation would keep handing out its stale (idle) record, which
  // would out-rank every busy survivor.
  grid.scenario().take_site_offline(0);
  std::vector<JobHandle> handles;
  for (std::uint64_t u = 1; u <= 6; ++u) {
    auto jd = jdl::JobDescription::parse(
        "Executable = \"viz\"; JobType = \"interactive\";");
    ASSERT_TRUE(jd.has_value());
    auto handle = grid.submit(jd.value(), UserId{u},
                              lrms::Workload::cpu(Duration::seconds(300)));
    ASSERT_TRUE(handle.has_value());
    handles.push_back(*handle);
  }
  grid.run_for(Duration::seconds(1800));
  std::size_t placed = 0;
  for (const auto& handle : handles) {
    const JobRecord* record = handle.record();
    ASSERT_NE(record, nullptr);
    for (const auto& subjob : record->subjobs) {
      if (!subjob.site.valid()) continue;
      ++placed;
      EXPECT_NE(subjob.site, dead) << "job placed on an offline site";
    }
  }
  EXPECT_GT(placed, 0u);
}

TEST(FastPathEndToEndTest, FastPathEmitsCacheAndScanMetrics) {
  GridConfig config;
  config.sites = 4;
  config.nodes_per_site = 4;
  config.seed = 5;
  Grid grid{config};
  for (std::uint64_t u = 1; u <= 4; ++u) {
    auto jd = jdl::JobDescription::parse("Executable = \"app\";");
    ASSERT_TRUE(jd.has_value());
    ASSERT_TRUE(grid.submit(jd.value(), UserId{u},
                            lrms::Workload::cpu(Duration::seconds(120))));
  }
  grid.run_for(Duration::seconds(600));
  EXPECT_GT(grid.metrics().counter_total("broker.match.cache_hits"), 0u);
  // Match leases move sites in the free-CPU index -> "lease" invalidations.
  EXPECT_GE(grid.metrics().counter_total("broker.match.cache_invalidations"),
            1u);
  const auto* coarse = grid.metrics().find_histogram(
      "broker.match.sites_scanned", obs::LabelSet{{"pass", "coarse"}});
  ASSERT_NE(coarse, nullptr);
  EXPECT_GE(coarse->count(), 1u);
  const auto* fresh = grid.metrics().find_histogram(
      "broker.match.sites_scanned", obs::LabelSet{{"pass", "fresh"}});
  ASSERT_NE(fresh, nullptr);
  EXPECT_GE(fresh->count(), 1u);
}

}  // namespace
}  // namespace cg::broker
