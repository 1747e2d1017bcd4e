#include "infosys/information_system.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"

namespace cg::infosys {

InformationSystem::InformationSystem(sim::Simulation& sim,
                                     InformationSystemConfig config)
    : sim_{sim}, config_{config} {}

void InformationSystem::register_site(const SiteStaticInfo& info,
                                      FreshProvider provider,
                                      std::optional<Duration> site_query_latency) {
  if (!info.id.valid()) throw std::invalid_argument{"register_site: invalid id"};
  if (!provider) throw std::invalid_argument{"register_site: null provider"};
  // Re-registration resets the entry; drop any stale index membership first
  // so the index never points at an entry whose index_key was wiped.
  if (const auto old = sites_.find(info.id); old != sites_.end()) {
    if (old->second.index_key) {
      const auto bucket = by_effective_.find(*old->second.index_key);
      if (bucket != by_effective_.end()) {
        bucket->second.erase(info.id);
        if (bucket->second.empty()) by_effective_.erase(bucket);
      }
    }
    leased_sites_.erase(info.id);
    if (old->second.published) ++publish_version_;
  }
  SiteEntry entry;
  entry.static_info = info;
  entry.provider = std::move(provider);
  entry.query_latency = site_query_latency.value_or(config_.default_site_query_latency);
  sites_.insert_or_assign(info.id, std::move(entry));
}

void InformationSystem::unregister_site(SiteId id) {
  const auto it = sites_.find(id);
  if (it == sites_.end()) return;
  if (it->second.index_key) {
    const auto bucket = by_effective_.find(*it->second.index_key);
    if (bucket != by_effective_.end()) {
      bucket->second.erase(id);
      if (bucket->second.empty()) by_effective_.erase(bucket);
    }
  }
  leased_sites_.erase(id);
  const bool had_published = it->second.published != nullptr;
  sites_.erase(it);
  if (had_published) {
    ++publish_version_;
    notify_invalidation(id, "unregister");
  }
}

void InformationSystem::publish(const SiteRecord& record) {
  const auto it = sites_.find(record.static_info.id);
  if (it == sites_.end()) {
    log_warn("infosys", "publish for unregistered site ", record.static_info.name);
    return;
  }
  store_published(it->first, it->second, record);
}

void InformationSystem::publish_fresh(SiteId id) {
  const auto it = sites_.find(id);
  if (it == sites_.end()) return;
  store_published(id, it->second, it->second.provider());
}

void InformationSystem::store_published(SiteId id, SiteEntry& entry,
                                        SiteRecord record) {
  if (entry.published) notify_invalidation(id, "republish");
  record.sampled_at = sim_.now();
  // Prime before storing: every copy of this record the index hands out
  // shares the one machine view built here.
  record.prime_cache();
  entry.published = std::make_shared<const SiteRecord>(std::move(record));
  ++publish_version_;
  reindex(id, entry);
}

void InformationSystem::reindex(SiteId id, SiteEntry& entry) {
  if (entry.index_key) {
    const auto bucket = by_effective_.find(*entry.index_key);
    if (bucket != by_effective_.end()) {
      bucket->second.erase(id);
      if (bucket->second.empty()) by_effective_.erase(bucket);
    }
    entry.index_key.reset();
  }
  if (entry.published) {
    const int effective =
        entry.published->dynamic_info.free_cpus - entry.leased_cpus;
    by_effective_[effective].insert_or_assign(id, &entry);
    entry.index_key = effective;
  }
}

void InformationSystem::apply_lease_delta(SiteId id, int cpu_delta) {
  const auto it = sites_.find(id);
  if (it == sites_.end() || cpu_delta == 0) return;
  it->second.leased_cpus += cpu_delta;
  if (it->second.leased_cpus > 0) {
    leased_sites_.insert_or_assign(id, &it->second);
  } else {
    leased_sites_.erase(id);
  }
  reindex(id, it->second);
  notify_invalidation(id, "lease");
}

std::optional<int> InformationSystem::effective_free(SiteId id) const {
  const auto it = sites_.find(id);
  if (it == sites_.end() || !it->second.published) return std::nullopt;
  return it->second.published->dynamic_info.free_cpus - it->second.leased_cpus;
}

std::size_t InformationSystem::index_size() const {
  std::size_t total = 0;
  for (const auto& [effective, ids] : by_effective_) total += ids.size();
  return total;
}

void InformationSystem::notify_invalidation(SiteId id, const char* reason) {
  if (invalidation_listener_) invalidation_listener_(id, reason);
}

void InformationSystem::start_periodic_publication(SiteId id, Duration period) {
  const auto it = sites_.find(id);
  if (it == sites_.end()) throw std::invalid_argument{"unknown site"};
  if (period <= Duration::zero()) throw std::invalid_argument{"period must be positive"};
  it->second.periodic = true;
  it->second.period = period;
  publish_fresh(id);
  schedule_publication(id);
}

void InformationSystem::schedule_publication(SiteId id) {
  const auto it = sites_.find(id);
  if (it == sites_.end() || !it->second.periodic) return;
  // Daemon event: periodic publication must not keep the simulation alive.
  sim_.schedule_daemon(it->second.period, [this, id] {
    // The site may have been unregistered while the timer was pending.
    const auto entry = sites_.find(id);
    if (entry == sites_.end() || !entry->second.periodic) return;
    publish_fresh(id);
    schedule_publication(id);
  });
}

void InformationSystem::query_index_matching(int needed_cpus,
                                             SnapshotCallback callback) {
  if (!callback) throw std::invalid_argument{"query_index_matching: null callback"};
  ++index_queries_;
  // Health pruning projects to *delivery* time: the broker's matchmaker
  // re-applies its health filter when the reply lands, and the provider
  // contract (decay-only lower bound) makes call-time pruning agree with it.
  const SimTime delivery = sim_.now() + config_.index_query_latency;
  sim_.schedule(config_.index_query_latency,
                [cb = std::move(callback),
                 snap = matching_snapshot(needed_cpus, delivery)]() mutable {
                  cb(std::move(snap));
                });
}

void InformationSystem::refresh_all_published() {
  if (all_published_version_ == publish_version_) return;
  all_published_.clear();
  all_published_.reserve(sites_.size());
  for (const auto& [id, entry] : sites_) {
    if (entry.published) all_published_.push_back(entry.published);
  }
  all_published_version_ = publish_version_;
}

std::shared_ptr<const InformationSystem::IndexSnapshot>
InformationSystem::matching_snapshot(int needed_cpus, SimTime delivery) {
  // Without a health provider the reply depends only on the published set;
  // with one, caching additionally needs the horizon + epoch feeds to prove
  // the excluded-site set unchanged.
  const bool cacheable =
      !health_provider_ || (health_horizon_ && health_epoch_);
  const std::uint64_t epoch = health_epoch_ ? health_epoch_() : 0;
  if (cacheable) {
    const auto it = matching_cache_.find(needed_cpus);
    if (it != matching_cache_.end() &&
        it->second.version == publish_version_ && it->second.epoch == epoch &&
        delivery <= it->second.valid_until) {
      return it->second.snapshot;
    }
  }
  // Rebuild. The survivor set is exactly {published free_cpus >= needed}:
  // the old prefix-walk (effective >= needed) is a subset of it whenever
  // leases are nonnegative, and the leased-site pass admitted precisely the
  // remainder. Pruning must stay lease-independent — a lease may be released
  // while the reply is in flight and the broker re-checks live leases at
  // delivery — which is also what makes lease deltas cache-neutral.
  // Walking sites_ in map order yields ascending site ids: the delivery
  // order of the full index, with no per-query sort.
  refresh_all_published();
  auto snap = std::make_shared<IndexSnapshot>();
  snap->reserve(all_published_.size());
  // Horizon: the reply stays exact until the first pruned site could leave
  // exclusion by decay (entering exclusion bumps the epoch instead).
  SimTime valid_until = SimTime::max();
  for (const auto& rec : all_published_) {
    if (rec->dynamic_info.free_cpus < needed_cpus) continue;
    const SiteId id = rec->static_info.id;
    if (health_provider_ && health_provider_(id, delivery)) {
      if (health_horizon_) {
        const SimTime end = health_horizon_(id, delivery);
        if (end < valid_until) valid_until = end;
      }
      continue;
    }
    snap->push_back(rec);
  }
  std::shared_ptr<const IndexSnapshot> result = std::move(snap);
  if (cacheable) {
    matching_cache_[needed_cpus] =
        CachedMatching{publish_version_, epoch, valid_until, result};
  }
  return result;
}

void InformationSystem::query_site(SiteId id, SiteCallback callback) {
  if (!callback) throw std::invalid_argument{"query_site: null callback"};
  ++site_queries_;
  const auto it = sites_.find(id);
  if (it == sites_.end()) {
    sim_.schedule(Duration::zero(),
                  [cb = std::move(callback)]() mutable { cb(std::nullopt); });
    return;
  }
  const Duration latency = it->second.query_latency;
  sim_.schedule(latency, [this, id, cb = std::move(callback)]() mutable {
    // Re-check: the site may disappear while the query is in flight.
    const auto entry = sites_.find(id);
    if (entry == sites_.end()) {
      cb(std::nullopt);
      return;
    }
    SiteRecord record = entry->second.provider();
    record.sampled_at = sim_.now();
    cb(std::move(record));
  });
}

std::optional<SiteRecord> InformationSystem::published_record(SiteId id) const {
  const auto it = sites_.find(id);
  if (it == sites_.end() || it->second.published == nullptr) return std::nullopt;
  return *it->second.published;
}

}  // namespace cg::infosys
