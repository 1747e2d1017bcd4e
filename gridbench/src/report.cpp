#include "report.hpp"

#include <algorithm>
#include <cstdio>

#include "stats.hpp"

namespace gridbench {

namespace {

std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

Metric make_metric(std::string name, std::string unit, double value, std::string note = "") {
  return Metric{std::move(name), std::move(unit), value, std::move(note), true};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A percentile of a sample set, reported only when enough samples lie beyond.
Metric percentile(std::string name, std::string unit, const std::vector<double>& values,
                  double q) {
  Metric m{std::move(name), std::move(unit), 0.0, count_note(values.size()), false};
  if (const auto v = reportable_quantile(values, q)) {
    m.value = *v;
    m.reported = true;
  } else {
    m.note += ", not reported: needs " + std::to_string(kMinSamplesBeyond) +
              " samples beyond the percentile";
  }
  return m;
}

/// Per-layer host-time percentile (us) of one span name, under the same
/// at-least-10-beyond rule as every other percentile.
Metric span_percentile_us(const std::map<std::string, SpanTotals>& totals,
                          const std::string& span, std::string metric, double q) {
  std::vector<double> us;
  if (const auto it = totals.find(span); it != totals.end()) {
    us.reserve(it->second.durations_ns.size());
    for (const std::int64_t ns : it->second.durations_ns) {
      us.push_back(static_cast<double>(ns) / 1e3);
    }
  }
  return percentile(std::move(metric), "us", us, q);
}

/// Mean host time (us) per call of one span name; 0, with n=0, on a
/// workload that never makes the call.
Metric span_mean_us(const std::map<std::string, SpanTotals>& totals, const std::string& span,
                    std::string metric) {
  const auto it = totals.find(span);
  const std::size_t n = it == totals.end() ? 0 : it->second.count;
  const double us = n == 0 ? 0.0 : static_cast<double>(it->second.total_ns) / 1e3 /
                                        static_cast<double>(n);
  return make_metric(std::move(metric), "us", us, "mean per call, " + count_note(n));
}

const char* const kSpanNames[] = {
    "jdl.parse",           "gsi.register_user", "grid.submit",
    "stream.console_open", "stream.write",      "stream.type_line",
    "sim.run_until",       "obs.snapshot",      "obs.export_jsonl",
};

}  // namespace

RunResult combine(const std::vector<RunResult>& runs) {
  RunResult all;
  Fnv digest;
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const RunResult& r : runs) {
    all.setup_s += r.setup_s;
    all.run_s += r.run_s;
    all.submit_calls += r.submit_calls;
    all.submit_refused += r.submit_refused;
    all.jdl_errors += r.jdl_errors;
    all.accepted += r.accepted;
    all.completed += r.completed;
    all.failed += r.failed;
    all.rejected += r.rejected;
    all.nonterminal += r.nonterminal;
    all.completed_callbacks += r.completed_callbacks;
    all.failed_callbacks += r.failed_callbacks;
    append(all.interactive_startup_s, r.interactive_startup_s);
    append(all.batch_turnaround_s, r.batch_turnaround_s);
    append(all.echo_rtt_ms, r.echo_rtt_ms);
    append(all.queue_wait_s, r.queue_wait_s);
    append(all.discovery_s, r.discovery_s);
    append(all.selection_s, r.selection_s);
    all.sessions += r.sessions;
    all.reliable_checked += r.reliable_checked;
    all.reliable_open += r.reliable_open;
    all.reliable_violations += r.reliable_violations;
    all.lines_written += r.lines_written;
    all.lines_on_screen += r.lines_on_screen;
    all.lines_typed += r.lines_typed;
    all.echo_timeouts += r.echo_timeouts;
    all.console_fatal += r.console_fatal;
    all.matches_checked += r.matches_checked;
    all.hard_excluded_matches += r.hard_excluded_matches;
    all.active_leases_end += r.active_leases_end;
    all.end_virtual_s = std::max(all.end_virtual_s, r.end_virtual_s);
    all.broker_queue_depth_max = std::max(all.broker_queue_depth_max, r.broker_queue_depth_max);
    all.lrms_queue_depth_max = std::max(all.lrms_queue_depth_max, r.lrms_queue_depth_max);
    all.sim_events += r.sim_events;
    all.carrier_started_twice += r.carrier_started_twice;
    if (all.unexpected_exception.empty()) all.unexpected_exception = r.unexpected_exception;
    digest.u64(r.digest);
  }
  all.quiescent = !runs.empty() &&
                  std::all_of(runs.begin(), runs.end(),
                              [](const RunResult& r) { return r.quiescent; });
  all.digest = digest.h;
  return all;
}

std::vector<Metric> end_to_end_metrics(const Measurements& m) {
  // Host interference only ever slows the program down, and it comes in
  // bursts that can cover half of an invocation, which would move a median.
  // Set-up time is therefore the 5th percentile of its many samples: the
  // set-ups that ran while the host was fast. Throughput is the jobs the
  // sub-seeds complete over the sum of their run times, each the lower
  // quartile of that sub-seed's few repeats.
  const RunResult r = combine(m.rounds.front());
  double run_s = 0.0;
  std::size_t runs = 0;
  for (std::size_t j = 0; j < m.rounds.front().size(); ++j) {
    std::vector<double> repeats;
    for (const std::vector<RunResult>& round : m.rounds) {
      if (j < round.size()) repeats.push_back(round[j].run_s);
    }
    runs += repeats.size();
    run_s += *quantile(repeats, 0.25);
  }
  const std::string reps = "sub-seed run times are lower quartiles of " +
                           std::to_string(runs) + " runs";
  std::vector<Metric> out;
  out.push_back(make_metric("setup_s", "s", *quantile(m.setup_s, 0.05),
                            "5th percentile of " + std::to_string(m.setup_s.size()) +
                                " set-ups"));
  out.push_back(make_metric("jobs_per_host_s", "jobs/s", static_cast<double>(r.completed) / run_s,
                 std::to_string(r.completed) + " jobs completed in " +
                     std::to_string(m.rounds.front().size()) + " sub-seed runs; " + reps));
  out.push_back(make_metric("peak_rss_mb", "MB", m.peak_rss_mb, "over the untraced rounds"));
  for (const double q : {0.5, 0.99}) {
    const std::string p = q == 0.5 ? "p50" : "p99";
    out.push_back(percentile("interactive_startup_" + p + "_s", "s",
                             r.interactive_startup_s, q));
    out.push_back(percentile("batch_turnaround_" + p + "_s", "s", r.batch_turnaround_s, q));
    out.push_back(percentile("echo_rtt_" + p + "_ms", "ms", r.echo_rtt_ms, q));
  }
  const std::uint64_t not_done = r.failed + r.rejected + r.nonterminal + r.submit_refused +
                                 r.jdl_errors;
  out.push_back(make_metric("jobs_failed_frac", "ratio",
                 ratio(static_cast<double>(not_done), static_cast<double>(r.submit_calls)),
                 std::to_string(not_done) + " of " + std::to_string(r.submit_calls) +
                     " submitted (failed " + std::to_string(r.failed) + ", rejected " +
                     std::to_string(r.rejected + r.submit_refused + r.jdl_errors) +
                     ", not terminal " + std::to_string(r.nonterminal) + ")"));
  const std::uint64_t lost = r.lines_written - r.lines_on_screen;
  out.push_back(make_metric("lines_lost_frac", "ratio",
                 ratio(static_cast<double>(lost), static_cast<double>(r.lines_written)),
                 std::to_string(lost) + " of " + std::to_string(r.lines_written) +
                     " lines written"));
  return out;
}

std::vector<Metric> per_layer_metrics(const Measurements& m) {
  const RunResult& t = m.traced;
  const std::map<std::string, SpanTotals> totals = reduce_by_name(m.spans);
  const auto span_count = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto span_total_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e9;
  };
  const auto span_self_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns) / 1e9;
  };
  const auto layer = [&](const std::string& name) {
    const auto it = t.layer.find(name);
    return it == t.layer.end() ? 0.0 : it->second;
  };
  const double jobs = static_cast<double>(t.accepted);
  const std::string per_job = "per accepted job (" + std::to_string(t.accepted) + ")";

  // The traced run repeats sub-seed 0; its untraced repeats are the base.
  // Every round, a partial last one too, starts with sub-seed 0.
  std::vector<double> untraced_run_s;
  for (const std::vector<RunResult>& round : m.rounds) untraced_run_s.push_back(round.front().run_s);
  const double base_run_s = median(untraced_run_s);

  std::vector<Metric> out;
  // jdl
  out.push_back(make_metric("jdl.parse_calls", "count", span_count("jdl.parse")));
  out.push_back(span_percentile_us(totals, "jdl.parse", "jdl.parse_host_us_p50", 0.5));
  out.push_back(make_metric("jdl.parse_host_us_total", "us", span_total_s("jdl.parse") * 1e6));
  // gsi
  out.push_back(make_metric("gsi.register_user_host_s", "s", span_total_s("gsi.register_user"),
                 count_note(static_cast<std::size_t>(span_count("gsi.register_user")))));
  // grid admission
  out.push_back(make_metric("grid.submit_calls", "count", span_count("grid.submit")));
  out.push_back(span_percentile_us(totals, "grid.submit", "grid.submit_host_us_p50", 0.5));
  out.push_back(make_metric("grid.submit_refused", "count", static_cast<double>(t.submit_refused)));
  // broker
  for (const char* name : {"broker.jobs_completed", "broker.jobs_failed",
                           "broker.resubmissions", "broker.jobs_evicted"}) {
    out.push_back(make_metric(name, "count", layer(name)));
  }
  out.push_back(make_metric("broker.queue_depth_max", "count",
                 static_cast<double>(t.broker_queue_depth_max), "sampled between run slices"));
  // A mean over every accepted job (those never queued waited 0 s): the
  // queue is empty on two of the three workloads, where no percentile of
  // the queued jobs exists.
  double waited_s = 0.0;
  for (const double w : t.queue_wait_s) waited_s += w;
  out.push_back(make_metric("broker.queue_wait_mean_s", "s", ratio(waited_s, jobs),
                            std::to_string(t.queue_wait_s.size()) + " of " +
                                std::to_string(t.accepted) + " accepted jobs queued"));
  out.push_back(percentile("broker.discovery_p50_s", "s", t.discovery_s, 0.5));
  out.push_back(percentile("broker.selection_p50_s", "s", t.selection_s, 0.5));
  out.push_back(make_metric("broker.lease_conflict_ratio", "ratio", layer("broker.lease_conflict_ratio"),
                 "conflicts over acquisitions plus conflicts"));
  for (const char* name :
       {"broker.heartbeat_misses", "broker.liveness_misses", "broker.agents_suspected"}) {
    out.push_back(make_metric(name, "count", layer(name)));
  }
  // infosys / matchmaking
  out.push_back(make_metric("broker.match.sites_scanned_per_match", "count",
                 layer("broker.match.sites_scanned_per_match"), "per kMatched event"));
  out.push_back(make_metric("broker.match.cache_hit_ratio", "ratio", layer("broker.match.cache_hit_ratio"),
                 "hits over hits plus misses"));
  out.push_back(make_metric("broker.match.cache_invalidations", "count",
                 layer("broker.match.cache_invalidations")));
  out.push_back(make_metric("broker.match.health_excluded", "count", layer("broker.match.health_excluded")));
  // net
  out.push_back(make_metric("net.msg.sent", "count", layer("net.msg.sent")));
  for (const std::string& type : message_types()) {
    out.push_back(make_metric("net.msg.sent." + type, "count", layer("net.msg.sent." + type)));
  }
  out.push_back(make_metric("net.msg.per_job", "count", ratio(layer("net.msg.sent"), jobs), per_job));
  out.push_back(make_metric("net.msg.delivered_ratio", "ratio", layer("net.msg.delivered_ratio"),
                 "delivered over sent"));
  out.push_back(make_metric("net.msg.dropped", "count", layer("net.msg.dropped")));
  out.push_back(make_metric("net.msg.duplicated", "count", layer("net.msg.duplicated")));
  out.push_back(make_metric("net.msg.latency_p99_s", "s", layer("net.msg.latency_p99_s"),
                 "histogram bucket bound"));
  // lrms
  out.push_back(make_metric("lrms.dispatches", "count", layer("lrms.dispatches")));
  out.push_back(make_metric("lrms.queue_depth_max", "count", static_cast<double>(t.lrms_queue_depth_max),
                 "largest site queue, sampled between run slices"));
  out.push_back(make_metric("lrms.dispatch_latency_p99_s", "s", layer("lrms.dispatch_latency_p99_s"),
                 "histogram bucket bound"));
  // glidein
  out.push_back(make_metric("glidein.slot_starts", "count", layer("glidein.slot_starts")));
  out.push_back(make_metric("glidein.slot_busy", "count", layer("glidein.slot_busy"),
                 "jobs failed with glidein.slot_busy"));
  out.push_back(make_metric("glidein.batch_demotions", "count", layer("glidein.batch_demotions")));
  out.push_back(make_metric("glidein.interactive_occupancy_mean", "count",
                 layer("glidein.interactive_occupancy_mean"),
                 "occupied interactive VMs per agent, mean over occupancy changes"));
  out.push_back(make_metric("glidein.carrier_started_twice", "count",
                            static_cast<double>(t.carrier_started_twice),
                            "duplicated messages starting a carrier again; each dropped one event"));
  // sim
  const double events = static_cast<double>(t.sim_events);
  out.push_back(make_metric("sim.events", "count", events));
  out.push_back(make_metric("sim.events_per_job", "count", ratio(events, jobs), per_job));
  out.push_back(make_metric("sim.events_per_host_s", "1/s", ratio(events, base_run_s),
                 "over the untraced median run time"));
  out.push_back(make_metric("sim.run_self_host_s", "s", span_self_s("sim.run_until"),
                 "run_until time minus the benchmark spans nested in it"));
  // stream
  out.push_back(span_mean_us(totals, "stream.console_open", "stream.console_open_host_us"));
  out.push_back(span_mean_us(totals, "stream.write", "stream.write_host_us"));
  out.push_back(span_mean_us(totals, "stream.type_line", "stream.type_line_host_us"));
  const double lines = static_cast<double>(t.lines_written);
  out.push_back(make_metric("stream.lines_written", "count", lines));
  out.push_back(make_metric("stream.flushes_per_line", "ratio", ratio(layer("stream.flushes"), lines),
                 "flushes over lines written"));
  out.push_back(make_metric("stream.bytes_spooled", "bytes", layer("stream.bytes_spooled")));
  for (const char* name : {"stream.retries", "stream.coalesced_batches",
                           "stream.frames_dropped", "stream.chunk_pool_high_water"}) {
    out.push_back(make_metric(name, "count", layer(name)));
  }
  // obs
  const double trace_events = layer("obs.trace_events");
  out.push_back(make_metric("obs.trace_events", "count", trace_events));
  out.push_back(make_metric("obs.trace_events_per_job", "count", ratio(trace_events, jobs), per_job));
  out.push_back(make_metric("obs.snapshot_host_ms", "ms", t.snapshot_host_ms));
  out.push_back(make_metric("obs.export_jsonl_host_ms", "ms", t.export_jsonl_host_ms));
  out.push_back(make_metric("obs.jsonl_bytes", "bytes", layer("obs.jsonl_bytes")));
  out.push_back(make_metric("trace.overhead_frac", "ratio", (t.run_s - base_run_s) / base_run_s,
                 "traced run time over the untraced median, minus one"));
  // self time of every benchmark span (sim.run_until is sim.run_self_host_s)
  for (const char* name : kSpanNames) {
    if (std::string_view{name} == "sim.run_until") continue;
    out.push_back(make_metric(std::string{name} + ".self_host_s", "s", span_self_s(name)));
  }
  return out;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace gridbench
