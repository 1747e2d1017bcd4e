#include "oracle/legacy_matchmaker.hpp"

#include "jdl/eval.hpp"

namespace cg::oracle {

jdl::ClassAd to_classad(const infosys::SiteRecord& record) {
  const infosys::SiteStaticInfo& s = record.static_info;
  const infosys::SiteDynamicInfo& d = record.dynamic_info;
  jdl::ClassAd ad;
  ad.set_string("Name", s.name);
  ad.set_string("Arch", s.arch);
  ad.set_string("OpSys", s.op_sys);
  ad.set_int("WorkerNodes", s.worker_nodes);
  ad.set_int("CpusPerNode", s.cpus_per_node);
  ad.set_int("TotalCPUs", s.total_cpus());
  ad.set_int("MemoryMB", s.memory_mb_per_node);
  ad.set_int("StorageGB", s.storage_gb);
  ad.set_int("FreeCPUs", d.free_cpus);
  ad.set_int("RunningJobs", d.running_jobs);
  ad.set_int("QueuedJobs", d.queued_jobs);
  ad.set_int("FreeInteractiveVMs", d.free_interactive_vms);
  return ad;
}

double rank_of(const jdl::JobDescription& job, const jdl::ClassAd& machine) {
  const jdl::ExprPtr rank_expr = job.rank();
  if (rank_expr) {
    jdl::EvalContext ctx;
    ctx.self = &job.ad();
    ctx.other = &machine;
    const jdl::Value v = jdl::evaluate(*rank_expr, ctx);
    if (v.is_number()) return v.as_number();
    return 0.0;  // non-numeric rank: neutral
  }
  // Default rank: prefer emptier sites.
  const auto free = machine.get_int("FreeCPUs");
  return free ? static_cast<double>(*free) : 0.0;
}

std::vector<broker::Candidate> filter(const jdl::JobDescription& job,
                                      broker::CandidateSource records,
                                      const broker::LeaseManager& leases,
                                      int needed_cpus,
                                      const broker::SiteHealth* health) {
  std::vector<broker::Candidate> out;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const infosys::SiteRecord& record = records[i];
    const SiteId site = record.static_info.id;
    const int effective =
        record.dynamic_info.free_cpus - leases.leased_cpus(site);
    if (effective < needed_cpus) continue;
    if (health != nullptr && health->hard_excluded(site)) continue;

    jdl::ClassAd machine = to_classad(record);
    machine.set_int("FreeCPUs", effective);  // leases shadow the raw count
    if (!jdl::symmetric_match(job.ad(), machine)) continue;

    const double penalty = health != nullptr ? health->rank_penalty(site) : 0.0;
    out.push_back(
        broker::Candidate{site, rank_of(job, machine) - penalty, effective});
  }
  return out;
}

std::vector<SiteId> filter_sites(const jdl::JobDescription& job,
                                 broker::CandidateSource records,
                                 const broker::LeaseManager& leases,
                                 int needed_cpus,
                                 const broker::SiteHealth* health) {
  std::vector<SiteId> out;
  for (const broker::Candidate& c :
       filter(job, records, leases, needed_cpus, health)) {
    out.push_back(c.site);
  }
  return out;
}

}  // namespace cg::oracle
