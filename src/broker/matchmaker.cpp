#include "broker/matchmaker.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace cg::broker {

namespace {

/// Slot context for one record: every attribute comes from the cached
/// machine view except FreeCPUs, which leases shadow per evaluation.
jdl::SlotEvalContext slot_context(const infosys::SiteRecord::MachineView& view,
                                  int effective_free) {
  jdl::SlotEvalContext ctx;
  ctx.slots = &view.slots;
  ctx.override_slot = infosys::machine_free_cpus_slot();
  ctx.override_value = jdl::Value::integer(effective_free);
  return ctx;
}

}  // namespace

bool Matchmaker::health_excluded(SiteId site, std::size_t& excluded) const {
  if (health_ == nullptr || !health_->hard_excluded(site)) return false;
  ++excluded;
  return true;
}

double Matchmaker::health_penalty(SiteId site) const {
  return health_ != nullptr ? health_->rank_penalty(site) : 0.0;
}

template <typename OnMatch>
void Matchmaker::scan(const char* pass, const jdl::CompiledMatch& compiled,
                      CandidateSource records, const LeaseManager& leases,
                      int needed_cpus, OnMatch&& on_match) const {
  if (compiled.never_matches()) {
    note_scan(pass, 0, 0, 0);
    return;
  }
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t excluded = 0;
  bool matched = false;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const infosys::SiteRecord& record = records[i];
    const SiteId site = record.static_info.id;
    const int effective =
        record.dynamic_info.free_cpus - leases.leased_cpus(site);
    if (effective < needed_cpus) continue;
    if (health_excluded(site, excluded)) continue;

    record.cache_primed() ? ++hits : ++misses;
    const auto ctx = slot_context(record.machine_view(), effective);
    if (!compiled.matches(ctx)) continue;
    matched = true;
    on_match(site, effective, ctx);
  }
  note_scan(pass, records.size(), hits, misses, excluded, matched);
}

Candidate Matchmaker::candidate(const jdl::CompiledMatch& compiled, SiteId site,
                                int effective,
                                const jdl::SlotEvalContext& ctx) const {
  Candidate c;
  c.site = site;
  c.effective_free_cpus = effective;
  c.rank = (compiled.has_rank() ? compiled.rank(ctx)
                                : static_cast<double>(effective)) -
           health_penalty(site);
  return c;
}

std::vector<Candidate> Matchmaker::filter(
    const jdl::CompiledMatch& compiled,
    const std::vector<infosys::SiteRecord>& records, const LeaseManager& leases,
    int needed_cpus) const {
  std::vector<Candidate> out;
  out.reserve(records.size());
  scan("fresh", compiled, records, leases, needed_cpus,
       [&](SiteId site, int effective, const jdl::SlotEvalContext& ctx) {
         out.push_back(candidate(compiled, site, effective, ctx));
       });
  return out;
}

std::vector<SiteId> Matchmaker::filter_sites(const jdl::CompiledMatch& compiled,
                                             CandidateSource records,
                                             const LeaseManager& leases,
                                             int needed_cpus) const {
  std::vector<SiteId> out;
  out.reserve(records.size());
  scan("coarse", compiled, records, leases, needed_cpus,
       [&](SiteId site, int, const jdl::SlotEvalContext&) {
         out.push_back(site);
       });
  return out;
}

std::shared_ptr<const jdl::CompiledMatch> Matchmaker::compile(
    const jdl::JobDescription& job) const {
  return std::make_shared<const jdl::CompiledMatch>(
      jdl::CompiledMatch::compile(job.ad(), infosys::machine_slot_layout()));
}

std::optional<Candidate> Matchmaker::match_one(
    const jdl::CompiledMatch& compiled, CandidateSource records,
    const LeaseManager& leases, int needed_cpus, Rng& rng) const {
  // Streaming equivalent of filter()+select(): candidates are examined in
  // record order; `ties` holds, in encounter order, exactly those whose
  // rank ties the running best. Because the tie window is monotone in the
  // running best (rank_tie_margin < 1), pruning on each best-raise leaves
  // the same tie set select() would compute from the full candidate vector.
  std::vector<Candidate> ties;
  double best = 0.0;
  scan("fresh", compiled, records, leases, needed_cpus,
       [&](SiteId site, int effective, const jdl::SlotEvalContext& ctx) {
         const Candidate c = candidate(compiled, site, effective, ctx);
         if (ties.empty() || c.rank > best) {
           best = c.rank;
           std::erase_if(ties, [&](const Candidate& t) {
             return !is_tie(best, t.rank);
           });
           ties.push_back(c);
         } else if (is_tie(best, c.rank)) {
           ties.push_back(c);
         }
       });
  if (ties.empty()) return std::nullopt;
  // Same rng consumption as select(): exactly one pick for a non-empty
  // candidate set when randomized tie-breaking is on.
  const Candidate& chosen =
      config_.randomize_ties ? ties[rng.pick_index(ties.size())] : ties.front();
  return chosen;
}

std::optional<SiteId> Matchmaker::select(const std::vector<Candidate>& candidates,
                                         Rng& rng) const {
  if (candidates.empty()) return std::nullopt;
  const double best =
      std::max_element(candidates.begin(), candidates.end(),
                       [](const Candidate& a, const Candidate& b) {
                         return a.rank < b.rank;
                       })
          ->rank;
  std::vector<const Candidate*> ties;
  for (const auto& c : candidates) {
    if (is_tie(best, c.rank)) ties.push_back(&c);
  }
  const Candidate* chosen =
      config_.randomize_ties ? ties[rng.pick_index(ties.size())] : ties.front();
  return chosen->site;
}

bool Matchmaker::is_tie(double best, double rank) const {
  // Relative to the larger magnitude so the window is symmetric under
  // negation: ranks {10, 18} and {-10, -18} tie under the same margin.
  const double scale = std::max(std::abs(best), std::abs(rank));
  return best - rank <= config_.rank_tie_margin * scale + 1e-12;
}

void Matchmaker::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics == nullptr) {
    coarse_scan_ = ScanMetrics{};
    fresh_scan_ = ScanMetrics{};
    return;
  }
  const auto bind = [metrics](const char* pass) {
    const obs::LabelSet labels{{"pass", pass}};
    ScanMetrics m;
    m.sites_scanned =
        metrics->histogram_handle("broker.match.sites_scanned", labels);
    m.cache_hits = metrics->counter_handle("broker.match.cache_hits", labels);
    m.cache_misses =
        metrics->counter_handle("broker.match.cache_misses", labels);
    m.health_excluded =
        metrics->counter_handle("broker.match.health_excluded", labels);
    m.health_reroutes =
        metrics->counter_handle("broker.match.health_reroutes", labels);
    return m;
  };
  coarse_scan_ = bind("coarse");
  fresh_scan_ = bind("fresh");
}

void Matchmaker::note_scan(const char* pass, std::size_t scanned,
                           std::size_t cache_hits, std::size_t cache_misses,
                           std::size_t health_excluded, bool rerouted) const {
  if (metrics_ == nullptr) return;
  ScanMetrics& m =
      std::strcmp(pass, "coarse") == 0 ? coarse_scan_ : fresh_scan_;
  m.sites_scanned.observe(static_cast<double>(scanned));
  if (cache_hits > 0) m.cache_hits.inc(cache_hits);
  if (cache_misses > 0) m.cache_misses.inc(cache_misses);
  if (health_excluded > 0) {
    m.health_excluded.inc(health_excluded);
    if (rerouted) m.health_reroutes.inc();
  }
}

}  // namespace cg::broker
