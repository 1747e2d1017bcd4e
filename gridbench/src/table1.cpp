#include "table1.hpp"

#include <algorithm>
#include <optional>

#include "grid/grid.hpp"
#include "stream/channel_model.hpp"
#include "workload.hpp"

namespace gridbench {

namespace {

using namespace cg;

constexpr std::size_t kBannerBytes = 64;  // the application's first output

/// The calibrated Table I testbed (see bench/table1_response_time.cpp).
GridConfig testbed(std::uint64_t seed) {
  GridConfig config;
  config.sites = 20;
  config.nodes_per_site = 4;
  config.site_link = sim::LinkSpec::campus();
  config.seed = seed;
  config.infosys.index_query_latency = Duration::millis(500);
  config.site_info_latency = Duration::seconds(3);
  config.infosys.default_site_query_latency = Duration::seconds(3);
  config.gatekeeper.gsi_auth_latency = Duration::millis(2500);
  config.gatekeeper.jobmanager_latency = Duration::millis(6500);
  config.gatekeeper.prepare_overhead = Duration::millis(400);
  config.lrms.dispatch_latency = Duration::seconds(6);
  config.broker.glidein.bootstrap_time = Duration::millis(4000);
  config.broker.glidein.job_start_overhead = Duration::millis(5000);
  config.broker.glidein.binary_bytes = 10u << 20;
  config.broker.agent_channel_latency = Duration::millis(400);
  config.broker.vm_lookup_cost = Duration::millis(50);
  config.broker.executable_bytes = 15u << 20;
  config.broker.dismiss_idle_agents = false;
  return config;
}

double first_output_s(Grid& grid, const std::string& site_endpoint,
                      const stream::ChannelSpec& spec, std::uint64_t seed) {
  stream::SimChannel channel{grid.sim(), grid.network().link(Grid::ui_endpoint(), site_endpoint),
                             spec, Rng{seed}};
  return channel.estimate(kBannerBytes).to_seconds();
}

struct Phases {
  double discovery = 0.0;
  double selection = 0.0;
  double submission = 0.0;  ///< hand-off to first output on the user machine
};

std::optional<Phases> broker_submission(const std::string& jdl, std::uint64_t seed,
                                        bool warm_agent) {
  Grid grid{testbed(seed)};
  if (warm_agent) {
    grid.broker().preload_agent(grid.site(0).id());
    grid.sim().run_until(SimTime::from_seconds(60));
  }
  auto description = jdl::JobDescription::parse(jdl);
  if (!description) return std::nullopt;
  auto job = grid.submit(std::move(description.value()), UserId{1},
                         lrms::Workload::cpu(Duration::seconds(60)));
  if (!job) return std::nullopt;
  const auto done = job->await();
  if (!done) return std::nullopt;
  const broker::JobRecord& record = **done;
  const auto& ts = record.timestamps;
  if (!ts.discovery_done || !ts.selection_done || !ts.running) return std::nullopt;
  Phases p;
  p.discovery = (*ts.discovery_done - ts.submitted).to_seconds();
  p.selection = (*ts.selection_done - *ts.discovery_done).to_seconds();
  p.submission = (*ts.running - *ts.selection_done).to_seconds();
  for (std::size_t i = 0; i < grid.site_count(); ++i) {
    if (grid.site(i).id() == record.subjobs.at(0).site) {
      p.submission += first_output_s(grid, grid.site(i).endpoint(),
                                     stream::ChannelSpec::interposition_fast(),
                                     seed ^ 0x1234);
    }
  }
  return p;
}

/// Glogin: the user picks the machine by hand and submits through GRAM.
std::optional<double> glogin_submission(std::uint64_t seed) {
  Grid grid{testbed(seed)};
  lrms::Site& site = grid.site(0);
  lrms::GridJobRequest request;
  request.id = JobId{1000};
  request.owner = UserId{1};
  request.workload = lrms::Workload::cpu(Duration::seconds(60));
  request.stage_bytes = 15u << 20;
  request.submitter_endpoint = Grid::ui_endpoint();
  std::optional<SimTime> started;
  request.on_start = [&](NodeId) { started = grid.now(); };
  site.gatekeeper().submit_direct(std::move(request), [](Status) {});
  grid.sim().run_until(SimTime::from_seconds(3600));
  if (!started) return std::nullopt;
  return started->to_seconds() +
         first_output_s(grid, site.endpoint(), stream::ChannelSpec::glogin(), seed ^ 0x77);
}

struct Mean {
  double sum = 0.0;
  std::size_t n = 0;
  void add(double v) { sum += v; ++n; }
  [[nodiscard]] double value() const { return n > 0 ? sum / static_cast<double>(n) : 0.0; }
};

}  // namespace

Table1Result run_table1(std::uint64_t seed, int per_method) {
  Mean glogin, idle_disc, idle_sel, idle_sub, vm_sub, batch_sub;
  const std::string exclusive =
      "Executable = \"app\"; JobType = \"interactive\"; MachineAccess = \"exclusive\";";
  const std::string shared =
      "Executable = \"app\"; JobType = \"interactive\"; MachineAccess = \"shared\"; "
      "PerformanceLoss = 10;";
  const std::string batch = "Executable = \"app\";";
  for (int i = 0; i < per_method; ++i) {
    const std::uint64_t s = mix_seed(seed, 100 + static_cast<std::uint64_t>(i));
    if (const auto t = glogin_submission(s)) glogin.add(*t);
    if (const auto p = broker_submission(exclusive, s, false)) {
      idle_disc.add(p->discovery);
      idle_sel.add(p->selection);
      idle_sub.add(p->submission);
    }
    if (const auto p = broker_submission(shared, s, true)) vm_sub.add(p->submission);
    if (const auto p = broker_submission(batch, s, false)) batch_sub.add(p->submission);
  }

  Table1Result r;
  // Paper values as listed in EXPERIMENTS.md (Table I, campus column).
  r.rows = {
      {"glogin.submission_s", 16.43, glogin.value(), glogin.n},
      {"exclusive.discovery_s", 0.5, idle_disc.value(), idle_disc.n},
      {"exclusive.selection_s", 3.0, idle_sel.value(), idle_sel.n},
      {"exclusive.submission_s", 17.2, idle_sub.value(), idle_sub.n},
      {"shared_vm.submission_s", 6.79, vm_sub.value(), vm_sub.n},
      {"batch.submission_s", 29.3, batch_sub.value(), batch_sub.n},
  };
  const double best_other = std::min(glogin.value(), idle_sub.value());
  const auto expected = static_cast<std::size_t>(per_method);
  const bool complete = glogin.n == expected && idle_sub.n == expected &&
                        vm_sub.n == expected && batch_sub.n == expected;
  r.vm_advantage = vm_sub.value() > 0.0 ? best_other / vm_sub.value() : 0.0;
  r.vm_at_least_2x = complete && r.vm_advantage >= 2.0;
  r.batch_slowest = complete && batch_sub.value() > idle_sub.value() &&
                    batch_sub.value() > glogin.value() &&
                    batch_sub.value() > vm_sub.value();
  return r;
}

}  // namespace gridbench
