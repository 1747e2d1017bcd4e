// CrossBroker: the resource-management service for batch and interactive
// jobs (Sections 3 and 5). Responsibilities:
//
//  * submission pipeline: resource discovery (information-system index),
//    resource selection (fresh per-site queries, Requirements/Rank
//    matchmaking, randomized tie-breaking), two-phase-commit dispatch;
//  * on-line scheduling for interactive jobs: never leave one sitting in a
//    local queue — cancel and resubmit elsewhere;
//  * exclusive temporal access: matched resources are leased so concurrent
//    submissions do not double-book stale "free" CPUs;
//  * job multi-programming: glide-in agents split worker nodes into a
//    batch-vm and an interactive-vm; interactive jobs in shared mode start
//    on a free interactive-vm directly (no Globus, no LRMS queue), demoting
//    the co-resident batch job per its PerformanceLoss;
//  * fair-share accounting with interactive-aware application factors and
//    rejection of over-consuming users under contention;
//  * MPI co-allocation: MPICH-P4 within a site, MPICH-G2 across sites with
//    a startup barrier.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "broker/fair_share.hpp"
#include "broker/job_record.hpp"
#include "broker/submit_error.hpp"
#include "gsi/credential.hpp"
#include "broker/lease_manager.hpp"
#include "broker/matchmaker.hpp"
#include "broker/site_health.hpp"
#include "glidein/agent_registry.hpp"
#include "infosys/information_system.hpp"
#include "net/message.hpp"
#include "obs/observability.hpp"

namespace cg::lrms {
class Site;
struct GridJobRequest;
}
namespace cg::mpijob {
class RuntimeBarrierCoordinator;
}
namespace cg::net {
class ControlBus;
struct Envelope;
}  // namespace cg::net

namespace cg::broker {

struct CrossBrokerConfig {
  FairShareConfig fair_share;
  MatchmakerConfig matchmaker;
  glidein::GlideinAgentConfig glidein;
  /// Suspicion-aware placement: per-site health scores fed by the
  /// supervision paths (suspicions, misses, partition evictions,
  /// restorations, completions) and consulted by matchmaking as a rank
  /// penalty plus a hard-exclusion window, so eviction-driven resubmission
  /// steers replacement agents off the partitioned site until its score
  /// decays back under the threshold.
  SiteHealthConfig site_health;

  /// Exclusive temporal access (Section 3). Disabling it lets concurrent
  /// submissions double-book stale "free" CPUs (ablation A1).
  bool enable_match_leases = true;
  /// TTL of the exclusive-temporal-access lease taken at selection time.
  Duration match_lease_ttl = Duration::seconds(60);
  /// One-way latency of the direct broker <-> agent channel (no Globus).
  Duration agent_channel_latency = Duration::millis(250);
  /// Local processing to match a job against the in-broker VM registry
  /// (the combined discovery+selection step of shared mode).
  Duration vm_lookup_cost = Duration::millis(50);
  /// Default size of the executable + input sandbox staged per job.
  std::size_t executable_bytes = 5u << 20;
  /// Modelled size of each OutputSandbox file staged back on completion.
  std::size_t output_file_bytes = 1u << 20;

  /// Interactive exclusive mode: if the job has not started this long after
  /// the LRMS accepted it, it is queued, not running — cancel and resubmit.
  Duration queue_detect_timeout = Duration::seconds(8);
  int max_resubmissions = 3;

  /// Bounded exponential backoff between resubmissions: attempt n waits
  /// base * 2^(n-1), capped at max. A zero base keeps the paper-era
  /// immediate resubmission.
  Duration resubmit_backoff_base = Duration::millis(500);
  Duration resubmit_backoff_max = Duration::seconds(30);

  /// Heartbeat supervision of glide-in agents: the broker probes each
  /// running agent over the broker <-> site link every interval; after
  /// miss_limit consecutive failures the agent is *suspected* — its match
  /// leases for still-pending jobs are revoked, those jobs resubmitted, and
  /// the agent excluded from placement until the link heals, when it
  /// re-registers automatically.
  bool enable_agent_heartbeats = true;
  Duration agent_heartbeat_interval = Duration::seconds(10);
  int agent_heartbeat_miss_limit = 3;

  /// Application-level liveness echo, distinct from the link heartbeat: the
  /// broker sends a sequenced probe down the direct broker <-> agent channel
  /// every interval and the agent must echo it *from its event loop*. A
  /// wedged agent process (stalled loop, healthy link) misses echoes while
  /// link heartbeats still pass, and is suspected after miss_limit
  /// consecutive misses. A suspected agent is only restored once an echo
  /// makes the round trip again.
  bool enable_liveness_probes = true;
  Duration liveness_probe_interval = Duration::seconds(10);
  int liveness_miss_limit = 3;

  /// Partition-aware eviction of *running* residents: when an agent stays
  /// suspected past this grace, its running jobs are timed out — killed on
  /// the agent side (best effort), their leases released, a typed
  /// JobEvicted{reason=partition} event emitted, and the job resubmitted on
  /// the normal backoff policy (eviction implies resubmission; the
  /// resubmit_interactive_on_agent_death switch governs only *deaths*,
  /// where the resident is gone rather than orphaned). Zero disables
  /// eviction — the paper-era behaviour where running residents are left
  /// untouched behind a partition.
  Duration running_job_grace = Duration::zero();

  /// Resubmit interactive residents when their agent dies instead of
  /// failing them loudly. Off by default: the paper's position is that the
  /// user is attached to the console and must act. Fault-tolerance harnesses
  /// turn this on to get automatic recovery with backoff.
  bool resubmit_interactive_on_agent_death = false;

  /// Poll period for batch jobs waiting inside the broker for free machines.
  Duration broker_queue_poll = Duration::seconds(30);
  /// Serve the broker queue best-priority-first (fair share). Disabling it
  /// falls back to FIFO arrival order (ablation A4's baseline).
  bool fair_share_queue_ordering = true;

  /// Fair-share rejection: a submission from a user whose priority exceeds
  /// this is rejected when it cannot start on a free resource immediately.
  /// <= 0 disables rejection.
  double reject_priority_threshold = 0.0;

  /// Dismiss an agent when both of its VMs fall idle (after it has run at
  /// least one job). Disable to keep a warm agent pool.
  bool dismiss_idle_agents = true;

  std::uint64_t seed = 0x5eed;
};

class CrossBroker {
public:
  CrossBroker(sim::Simulation& sim, net::ControlBus& bus,
              infosys::InformationSystem& infosys, CrossBrokerConfig config = {},
              std::string endpoint = "broker");
  ~CrossBroker();
  CrossBroker(const CrossBroker&) = delete;
  CrossBroker& operator=(const CrossBroker&) = delete;

  /// Registers a site with the broker (and wires the glide-in bookkeeping).
  void add_site(lrms::Site& site);

  /// Submits a job. The workload is what the job does once running; the
  /// description is its JDL. Returns the broker-assigned job id, or a typed
  /// reason when the submission is refused up front (invalid user or
  /// description, failed GSI pre-flight). Failures later in the pipeline
  /// surface through the callbacks and the record's last_error.
  [[nodiscard]] Expected<JobId, SubmitError> submit(jdl::JobDescription description,
                                                    UserId user,
                                                    lrms::Workload workload,
                                                    std::string submitter_endpoint,
                                                    JobCallbacks callbacks);

  /// Enables GSI across the grid: the broker verifies users' proxies before
  /// scheduling, presents them at every gatekeeper (which start verifying),
  /// and delegates restricted proxies for jobs started on glide-in agents.
  /// The anchor must outlive the broker.
  void enable_security(const gsi::Certificate* trust_anchor,
                       std::vector<gsi::Credential> broker_credentials);

  /// Registers a user's credential ancestry (CA-issued certificate followed
  /// by their proxy). Submissions from unregistered users fail when
  /// security is enabled.
  void set_user_credentials(UserId user, std::vector<gsi::Credential> ancestry);

  /// Cancels a job in any non-terminal state: removes it from queues,
  /// releases its leases and reserved VMs, kills running subjobs, and fires
  /// on_failed with code "broker.cancelled". Returns false if the job is
  /// unknown or already terminal.
  bool cancel(JobId id);

  /// Proactively deploys a glide-in agent on a site (warm pool). The agent
  /// is submitted through the normal batch path.
  void preload_agent(SiteId site);

  /// Attaches the observability bundle: lifecycle transitions go to its
  /// JobTracer as typed events and the hot paths update its MetricsRegistry
  /// (match latency, lease revocations, resubmission backoff, heartbeat
  /// misses, matchmaking scan/cache counters, ...). Must outlive the broker
  /// (or be detached with nullptr). Agents created after this call inherit
  /// the registry.
  void set_observability(obs::Observability* obs);

  [[nodiscard]] const JobRecord* record(JobId id) const;
  [[nodiscard]] FairShare& fair_share() { return fair_share_; }
  [[nodiscard]] SiteHealth& site_health() { return site_health_; }
  [[nodiscard]] const SiteHealth& site_health() const { return site_health_; }
  [[nodiscard]] glidein::AgentRegistry& agents() { return agents_; }
  [[nodiscard]] LeaseManager& leases() { return leases_; }
  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }
  [[nodiscard]] std::size_t broker_queue_length() const { return waiting_batch_.size(); }

  /// All job records (inspection / experiment reporting).
  [[nodiscard]] std::vector<const JobRecord*> all_records() const;

  /// True while heartbeat supervision considers the agent unreachable.
  [[nodiscard]] bool agent_suspected(AgentId id) const;

  /// Free interactive VM slots on a site as the broker advertises them:
  /// suspected agents do not count (they may be dead behind the partition).
  [[nodiscard]] int advertised_interactive_vms(SiteId site);

private:
  struct ManagedJob {
    JobRecord record;
    JobCallbacks callbacks;
    /// Sites already tried and to be avoided on resubmission.
    std::vector<SiteId> excluded_sites;
    /// Leases held while dispatching (released on start or failure).
    std::vector<LeaseId> held_leases;
    int subjobs_running = 0;
    int subjobs_completed = 0;
    bool queue_timer_armed = false;
    bool staging_out = false;  ///< OutputSandbox transfer in progress
    /// Requirements/Rank compiled once per job, reused across scheduling
    /// attempts and resubmissions.
    std::shared_ptr<const jdl::CompiledMatch> compiled_match;
    /// Runtime barrier coordination for BSP workloads (multi-rank only).
    std::unique_ptr<mpijob::RuntimeBarrierCoordinator> barrier_coordinator;
    /// False once a resubmission replaced the subjob an event was sent for.
    [[nodiscard]] bool is_current(std::size_t index, SubJobId sub) const {
      return index < record.subjobs.size() && record.subjobs[index].id == sub;
    }
  };

  /// Link heartbeats and liveness echoes share deadline buckets, miss
  /// counting and suspicion; only the probe differs.
  enum SupervisionChannel : std::size_t { kHeartbeat = 0, kLiveness = 1 };
  static constexpr std::size_t kChannels = 2;

  struct AgentInfo {
    AgentId id;
    SiteId site;
    JobId carrier_job;
    bool ran_any_job = false;
    std::optional<JobId> batch_resident;
    /// Interactive jobs resident on the agent's interactive VMs (one per
    /// slot; several with a multiprogramming degree above 1).
    std::vector<JobId> interactive_residents;
    /// Interactive jobs reserved onto slots but not yet started.
    std::vector<JobId> pending_interactive;
    std::optional<JobId> pending_batch;
    /// Per supervision channel: consecutive misses, and the deadline bucket
    /// the agent sits in (absent: not bucketed), so ticks visit only agents
    /// whose deadline elapsed.
    struct ChannelState {
      int misses = 0;
      std::optional<SimTime> due;
    };
    std::array<ChannelState, kChannels> channels;
    bool suspected = false;
    /// Liveness probe sequence sent / echoed back: probe_seq > echo_seq
    /// means a probe is outstanding when the next tick fires.
    std::uint64_t probe_seq = 0;
    std::uint64_t echo_seq = 0;
    /// When the current suspicion began; guards the eviction timer against
    /// suspect -> restore -> suspect races.
    std::optional<SimTime> suspected_since;
    /// Fired (once) when the agent's AgentRegister message arrives.
    std::function<void(AgentInfo&)> on_ready;
    /// Free slots minus reservations: what a new placement may still take.
    /// A suspected agent offers nothing until it re-registers.
    [[nodiscard]] int reservable_slots(const glidein::GlideinAgent& agent) const {
      if (suspected) return 0;
      return agent.free_interactive_slots() -
             static_cast<int>(pending_interactive.size());
    }
  };

  // -- pipeline ------------------------------------------------------------
  void schedule_job(JobId id);
  void begin_discovery(JobId id);
  /// The shared index snapshot is scanned in place — neither the records
  /// nor their shared_ptrs are copied.
  void begin_selection(
      JobId id,
      std::shared_ptr<const infosys::InformationSystem::IndexSnapshot> stale);
  /// Fresh per-site queries over the coarse survivors, then the final
  /// filter + placement.
  void continue_selection(JobId id, std::vector<SiteId> coarse);
  /// `preselected` carries match_one's fused filter+select decision for
  /// sequential jobs; absent, the sequential branch selects from
  /// `fresh_candidates` itself (shared interactive jobs, or no match -> no
  /// resources).
  void place_job(JobId id, std::vector<Candidate> fresh_candidates,
                 std::optional<Candidate> preselected = std::nullopt);
  void handle_no_resources(JobId id);
  /// The one walk over agents_.agents() (in that order) behind every VM
  /// decision: visit(agent, info, reservable slots) per agent, on `site`
  /// only when given, hard-excluded sites only when included.
  template <typename Visit>
  void scan_vms(std::optional<SiteId> site, bool include_hard_excluded,
                Visit&& visit);

  // -- dispatch ------------------------------------------------------------
  void dispatch_subjob_to_vm(JobId id, std::size_t subjob_index,
                             glidein::GlideinAgent& agent);
  void dispatch_subjob_exclusive(JobId id, std::size_t subjob_index, SiteId site);
  /// Two-phase-commit SubmitJob (prepare, then commit) through the site's
  /// gatekeeper; `done` gets the failed prepare's status or the commit's.
  /// Nothing is committed for a `job` that ended during prepare (carriers
  /// pass none).
  void submit_two_phase(SiteId site, JobId job, lrms::GridJobRequest request,
                        std::function<void(Status)> done);
  /// Relays a subjob's start or completion to the broker as a JobStatus
  /// message. A completion on a VM of `agent` also updates its residents.
  void relay_job_status(SiteId site, JobId id, std::size_t subjob_index,
                        net::StatusPhase phase, AgentId agent = AgentId::none(),
                        bool interactive_slot = false);
  void dispatch_subjob_with_new_agent(JobId id, std::size_t subjob_index,
                                      SiteId site, bool interactive_slot);
  void arm_queue_detection(JobId id, std::size_t subjob_index, SiteId site);
  /// CancelJob: dequeues a directly placed subjob (or kills it on its node).
  void cancel_at_site(SiteId site, JobId lrms_id, bool queued_only);

  // -- lifecycle -----------------------------------------------------------
  void set_state(ManagedJob& job, JobState state);
  void subjob_started(JobId id, std::size_t subjob_index);
  void subjob_completed(JobId id, std::size_t subjob_index);
  void complete_job(JobId id);
  void fail_job(JobId id, Error error);
  void reject_job(JobId id, Error error);
  void resubmit_job(JobId id);
  void release_leases(ManagedJob& job);
  void poll_broker_queue();
  void arm_queue_poll();
  /// Barrier plumbing for parallel BSP workloads.
  void setup_barrier_coordination(ManagedJob& job);
  [[nodiscard]] lrms::TaskRunner::BarrierFn barrier_handler_for(JobId id, int rank);

  // -- glide-in management -------------------------------------------------
  AgentInfo& create_agent_with_carrier(SiteId site,
                                       std::function<void(AgentInfo&)> on_ready,
                                       std::function<void()> on_carrier_failed);
  void start_job_on_agent(JobId id, std::size_t subjob_index, AgentInfo& info,
                          bool interactive_slot);
  void maybe_dismiss_agent(AgentId agent_id);
  /// Sends KillJob or EvictNotice; on delivery the agent drops interactive
  /// job `lrms_id`, or its batch slot.
  void kill_on_agent(const AgentInfo& info, net::Message notice, JobId lrms_id,
                     bool interactive);
  /// Resubmits a job that lost subjobs, rewound to a fresh start when no
  /// live subjob survived (survivors make it a partial failure).
  void resubmit_after_loss(JobId id, bool all_subjobs_lost);
  /// Resubmits a live job, excluding the site that just failed it.
  void resubmit_elsewhere(JobId id, SiteId failed_site);
  void handle_agent_death(AgentId agent_id);
  void on_site_job_killed(SiteId site, JobId job, NodeId node);

  // -- control plane ---------------------------------------------------------
  /// Dispatcher for messages arriving at the broker's bus endpoint
  /// (AgentRegister announcements, LivenessEcho replies).
  void handle_bus_message(const net::Envelope& envelope);
  void handle_agent_register(AgentId agent_id);

  // -- heartbeat + liveness supervision --------------------------------------
  /// Enters the (running) agent into the supervision deadline buckets, due
  /// at the next tick of each enabled channel.
  void supervise_agent(AgentInfo& info);
  /// Drops the agent from the supervision buckets (death / voluntary exit).
  void unsupervise_agent(AgentInfo& info);
  void supervision_tick(SupervisionChannel channel);
  /// Counts a missed probe or echo; suspects the agent at the miss limit.
  void note_miss(SupervisionChannel channel, AgentId agent_id, AgentInfo& info);
  void on_liveness_echo(AgentId agent_id, std::uint64_t seq);
  void suspect_agent(AgentId agent_id, SupervisionChannel channel);
  void restore_agent(AgentId agent_id);
  /// True when no channel (link heartbeats, liveness echoes) still accuses
  /// the agent; gates restoration so a wedged agent on a healthy link is not
  /// resurrected by passing heartbeats alone.
  [[nodiscard]] bool clear_of_suspicion(const AgentInfo& info) const;
  void evict_suspected_residents(AgentId agent_id, SimTime suspected_since);

  [[nodiscard]] double application_factor(const ManagedJob& job) const;
  /// Pre-flight credential check (security enabled only); also used before
  /// delegating to agents.
  [[nodiscard]] Status check_user_security(UserId user) const;
  [[nodiscard]] std::optional<gsi::CertificateChain> chain_for(UserId user) const;
  [[nodiscard]] lrms::Site* find_site(SiteId id);
  /// The site's bus endpoint; empty for an unknown site.
  [[nodiscard]] std::string site_endpoint(SiteId id);
  [[nodiscard]] ManagedJob* find_job(JobId id);
  [[nodiscard]] int needed_cpus_per_site(const jdl::JobDescription& desc) const;

  sim::Simulation& sim_;
  net::ControlBus& bus_;
  infosys::InformationSystem& infosys_;
  CrossBrokerConfig config_;
  std::string endpoint_;
  Rng rng_;

  Matchmaker matchmaker_;
  LeaseManager leases_;
  FairShare fair_share_;
  glidein::AgentRegistry agents_;
  SiteHealth site_health_;

  /// Typed lifecycle event into the attached obs::JobTracer (no-op without).
  void trace(JobId job, obs::TraceEventKind kind, std::string detail,
             obs::LabelSet attrs = {});
  /// Counter / histogram shorthands against the attached MetricsRegistry.
  void count(const char* name, obs::LabelSet labels = {}, std::uint64_t by = 1);
  void observe(const char* name, double value, obs::LabelSet labels = {});

  /// Pre-resolved handles for the per-event hot paths (bound in
  /// set_observability; inert while no registry is attached). Everything
  /// labeled per-site is cached per site on first use.
  struct BrokerMetrics {
    obs::CounterHandle invalidations_republish;
    obs::CounterHandle invalidations_unregister;
    obs::CounterHandle invalidations_lease;
    obs::CounterHandle leases_acquired;
    obs::CounterHandle lease_revocations;
    obs::CounterHandle liveness_probes;
    obs::GaugeHandle queue_depth;
    /// Indexed by PlacementKind (the histogram's "placement" label).
    std::array<obs::HistogramHandle, 5> match_latency;
    /// Per supervision channel: the per-site miss counters.
    std::array<std::map<SiteId, obs::CounterHandle>, kChannels> misses;
  };
  /// The cached per-site counter handle, binding it on first use.
  obs::CounterHandle& per_site_counter(
      std::map<SiteId, obs::CounterHandle>& cache, const char* name,
      SiteId site);

  obs::Observability* obs_ = nullptr;
  const gsi::Certificate* trust_anchor_ = nullptr;
  std::vector<gsi::Credential> broker_credentials_;
  std::map<UserId, std::vector<gsi::Credential>> user_credentials_;

  BrokerMetrics metrics_;

  std::map<SiteId, lrms::Site*> sites_;
  std::map<JobId, std::unique_ptr<ManagedJob>> jobs_;
  std::map<AgentId, AgentInfo> agent_info_;
  /// A supervision channel's settings and deadline buckets (tick time ->
  /// agents due then; a std::set keeps extraction in AgentId order, the
  /// order the old full scans visited agents in).
  struct Supervision {
    bool enabled = false;
    Duration interval;
    int miss_limit = 0;
    std::map<SimTime, std::set<AgentId>> buckets;
  };
  std::array<Supervision, kChannels> supervision_;
  std::deque<JobId> waiting_batch_;
  IdGenerator<JobId> job_ids_;
  IdGenerator<SubJobId> subjob_ids_;
  bool queue_poll_armed_ = false;
};

}  // namespace cg::broker
