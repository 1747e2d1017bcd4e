// The legacy ClassAd matchmaker, kept as a test and bench oracle for the
// product's compiled matchmaking path (broker/matchmaker.*). It rebuilds
// each site's machine ClassAd per scan and interprets the job's Requirements
// and Rank ASTs against it with jdl::symmetric_match — the reference
// semantics the compiled path must reproduce decision for decision.
//
// Policy is identical to the product: a site is a candidate when its
// effective free CPUs (published minus leased) cover the request, it is not
// hard-excluded by the attached SiteHealth, and the symmetric match holds
// with FreeCPUs shadowed by the effective count. Each candidate's rank is
// the Rank expression (default FreeCPUs; non-numeric ranks are neutral)
// minus the site's health penalty. Selection among candidates is the
// product's Matchmaker::select; the oracle covers filtering and ranking.
#pragma once

#include <vector>

#include "broker/candidate_source.hpp"
#include "broker/lease_manager.hpp"
#include "broker/matchmaker.hpp"
#include "broker/site_health.hpp"
#include "infosys/site_record.hpp"
#include "jdl/classad.hpp"
#include "jdl/job_description.hpp"

namespace cg::oracle {

/// The machine ClassAd of a record (`other.*` in job Requirements). Lists
/// the attributes of infosys::machine_slot_layout(), in the same order.
[[nodiscard]] jdl::ClassAd to_classad(const infosys::SiteRecord& record);

/// The job's rank for a machine ad (default: FreeCPUs). No health penalty.
[[nodiscard]] double rank_of(const jdl::JobDescription& job,
                             const jdl::ClassAd& machine);

/// Requirements + capacity filter with ranks, in record order. `health` may
/// be null (health-blind matching).
[[nodiscard]] std::vector<broker::Candidate> filter(
    const jdl::JobDescription& job, broker::CandidateSource records,
    const broker::LeaseManager& leases, int needed_cpus,
    const broker::SiteHealth* health = nullptr);

/// The coarse pass: the ids of the sites filter() keeps.
[[nodiscard]] std::vector<SiteId> filter_sites(
    const jdl::JobDescription& job, broker::CandidateSource records,
    const broker::LeaseManager& leases, int needed_cpus,
    const broker::SiteHealth* health = nullptr);

}  // namespace cg::oracle
