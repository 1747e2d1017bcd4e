// Globus-MDS-like information system. Two query paths mirror the paper's
// Section 6.1 timing breakdown:
//   - index query ("resource discovery"): returns the last *published* record
//     for every site; one round trip to the (remote) index, ~0.5 s;
//   - direct site query ("resource selection"): contacts a site's GRIS for
//     fresh state; per-site latency, ~3 s total across 20 European sites.
// Publication is periodic, so index data is stale by up to one period — the
// reason the broker must re-contact candidate sites before committing.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "infosys/site_record.hpp"
#include "sim/simulation.hpp"

namespace cg::infosys {

struct InformationSystemConfig {
  /// Round-trip to the index (paper: index in Germany, broker in Spain).
  Duration index_query_latency = Duration::millis(500);
  /// Default round-trip for a direct (fresh) site query.
  Duration default_site_query_latency = Duration::millis(150);
};

class InformationSystem {
public:
  /// Supplies a site's live state when the IS (or broker) asks directly.
  using FreshProvider = std::function<SiteRecord()>;
  /// Matching queries hand out shared immutable snapshots instead of record
  /// copies: publishing always creates a fresh record, so a snapshot taken
  /// at query time stays valid however the index changes afterwards.
  using IndexSnapshot = std::vector<std::shared_ptr<const SiteRecord>>;
  /// The whole snapshot is itself shared and immutable: repeat queries for
  /// the same `needed_cpus` between index changes hand out the *same*
  /// vector, so delivering a reply costs one shared_ptr copy instead of a
  /// per-query vector copy + sort (the 10^4-site scaling cliff).
  using SnapshotCallback =
      std::function<void(std::shared_ptr<const IndexSnapshot>)>;
  using SiteCallback = std::function<void(std::optional<SiteRecord>)>;

  InformationSystem(sim::Simulation& sim, InformationSystemConfig config = {});

  /// Registers a site. `provider` answers direct queries with live state;
  /// `site_query_latency` overrides the default per-site round trip.
  void register_site(const SiteStaticInfo& info, FreshProvider provider,
                     std::optional<Duration> site_query_latency = std::nullopt);
  void unregister_site(SiteId id);

  /// Publishes a snapshot into the index (what GRIS pushes to GIIS).
  void publish(const SiteRecord& record);

  /// Publishes a fresh snapshot from the registered provider.
  void publish_fresh(SiteId id);

  /// Starts periodic publication for a site (every `period`, first at +period).
  void start_periodic_publication(SiteId id, Duration period);

  /// Asynchronous index query; callback fires after the index latency with
  /// the (possibly stale) published records of every site that could
  /// possibly offer `needed_cpus`: the prefix of the effective-free ordering
  /// (published free minus leased CPUs) plus leased sites whose *published*
  /// capacity still covers the request — leases may be released while the
  /// reply is in flight and the broker re-checks leases at delivery time, so
  /// pruning must use the lease-independent bound to stay decision-identical
  /// with the full published index. Records are delivered in ascending
  /// site-id order, the order the full index lists them in.
  void query_index_matching(int needed_cpus, SnapshotCallback callback);

  /// Applies a match-lease delta (positive on acquire, negative on release
  /// or expiry) to a site's effective free-CPU count in the index. Unknown
  /// sites are ignored (the lease outlived the site).
  void apply_lease_delta(SiteId id, int cpu_delta);

  /// Effective free CPUs as the index sees them (published free minus
  /// leased); nullopt when the site is unknown or never published.
  [[nodiscard]] std::optional<int> effective_free(SiteId id) const;

  /// Sites currently present in the free-CPU index (tests).
  [[nodiscard]] std::size_t index_size() const;

  /// Placement-health veto consulted by matching queries: returns true when
  /// the site must be pruned from a reply that will be *delivered* at the
  /// given time (call time + index latency). The provider must be a
  /// decay-only lower bound on exclusion at delivery — in-flight events may
  /// only keep a pruned site excluded, never readmit it — so the pruned
  /// reply stays decision-identical with what the full published index
  /// would yield after the matchmaker's own health filter (the broker wires
  /// SiteHealth::hard_excluded_at here, whose reward gating guarantees
  /// exactly this). Single provider; pass nullptr to detach.
  using HealthProvider = std::function<bool(SiteId, SimTime delivery_time)>;
  /// Decay-only projection of when a site pruned at `delivery_time` stops
  /// being excluded (SiteHealth::exclusion_ends_after). Lets the reply cache
  /// bound how long a pruned snapshot stays exact.
  using HealthHorizon = std::function<SimTime(SiteId, SimTime delivery_time)>;
  /// Monotone counter bumped whenever a site *enters* exclusion
  /// (SiteHealth::exclusion_epoch). Unchanged epoch + unexpired horizon =>
  /// the excluded-site set is exactly what it was when a reply was cached.
  using HealthEpoch = std::function<std::uint64_t()>;
  /// Attaches the health veto. `horizon` and `epoch` are optional but
  /// enable reply caching under pruning: without them every matching query
  /// rebuilds its snapshot (with no provider at all, caching needs neither).
  void set_health_provider(HealthProvider provider,
                           HealthHorizon horizon = nullptr,
                           HealthEpoch epoch = nullptr) {
    health_provider_ = std::move(provider);
    health_horizon_ = std::move(horizon);
    health_epoch_ = std::move(epoch);
    matching_cache_.clear();
  }

  /// Observer fired whenever a site's published machine ad is invalidated:
  /// reason "republish" (a newer snapshot replaced it), "unregister" (site
  /// gone), or "lease" (a lease delta moved its effective free CPUs).
  /// Single listener; pass nullptr to detach.
  using InvalidationListener = std::function<void(SiteId, const char* reason)>;
  void set_invalidation_listener(InvalidationListener listener) {
    invalidation_listener_ = std::move(listener);
  }

  /// Asynchronous fresh query of a single site; nullopt if unknown.
  void query_site(SiteId id, SiteCallback callback);

  /// Synchronous accessors for tests and local bookkeeping (no latency).
  [[nodiscard]] std::optional<SiteRecord> published_record(SiteId id) const;
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] const InformationSystemConfig& config() const { return config_; }

  /// Total query counts (experiment bookkeeping).
  [[nodiscard]] std::size_t index_queries() const { return index_queries_; }
  [[nodiscard]] std::size_t site_queries() const { return site_queries_; }

private:
  struct SiteEntry {
    SiteStaticInfo static_info;
    FreshProvider provider;
    Duration query_latency;
    /// Last published snapshot; immutable and shared with in-flight queries.
    std::shared_ptr<const SiteRecord> published;
    bool periodic = false;
    Duration period = Duration::zero();
    /// CPUs under match lease (broker-reported); shadows the published count
    /// in the free-CPU index.
    int leased_cpus = 0;
    /// Current key in by_effective_ (absent when never published).
    std::optional<int> index_key;
  };

  void schedule_publication(SiteId id);
  /// Stores a new published snapshot: notifies invalidation, primes the
  /// machine-ad cache, and reindexes the site.
  void store_published(SiteId id, SiteEntry& entry, SiteRecord record);
  /// Moves the site to its current effective-free bucket (or out of the
  /// index when it has no published record).
  void reindex(SiteId id, SiteEntry& entry);
  void notify_invalidation(SiteId id, const char* reason);

  /// Rebuilds the ascending-id roster of published records if the published
  /// set changed since it was last built.
  void refresh_all_published();
  /// The (cached or rebuilt) reply snapshot for a matching query.
  [[nodiscard]] std::shared_ptr<const IndexSnapshot> matching_snapshot(
      int needed_cpus, SimTime delivery);

  /// One cached matching reply: exact while the published set (version) and
  /// the excluded-site set (epoch + horizon) are both unchanged.
  struct CachedMatching {
    std::uint64_t version = 0;
    std::uint64_t epoch = 0;
    SimTime valid_until;
    std::shared_ptr<const IndexSnapshot> snapshot;
  };

  sim::Simulation& sim_;
  InformationSystemConfig config_;
  std::map<SiteId, SiteEntry> sites_;
  /// Incremental index: effective free CPUs (published free minus leased)
  /// -> sites at that level, each with a pointer to its entry so queries
  /// skip the per-survivor sites_ lookup (map nodes are address-stable).
  /// Maintained on publish/lease/unregister events.
  std::map<int, std::map<SiteId, const SiteEntry*>> by_effective_;
  /// Sites with leased_cpus > 0 (their index key understates published free).
  std::map<SiteId, const SiteEntry*> leased_sites_;
  InvalidationListener invalidation_listener_;
  HealthProvider health_provider_;
  HealthHorizon health_horizon_;
  HealthEpoch health_epoch_;
  /// Bumped whenever the published-record set changes (publish, republish,
  /// unregister of a published site). Lease deltas do not bump it: matching
  /// replies prune on the lease-independent published bound.
  std::uint64_t publish_version_ = 1;
  /// Ascending-id roster of published records (sites_ iteration order — the
  /// delivery order) + the version it was built at.
  std::vector<std::shared_ptr<const SiteRecord>> all_published_;
  std::uint64_t all_published_version_ = 0;
  /// Per-needed_cpus cached replies.
  std::map<int, CachedMatching> matching_cache_;
  std::size_t index_queries_ = 0;
  std::size_t site_queries_ = 0;
};

}  // namespace cg::infosys
