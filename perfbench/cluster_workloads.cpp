// The three real-stack workloads: one full BOINC-MR job each, built from a
// seeded `<scenario>` document through core::scenario_from_xml and
// core::Cluster, and run with Cluster::run_job.
//
//   shuffle_job      Emulab fleet, nodes = maps = 20, 5 reducers, 50 MB per
//                    map (the scenarios/boincmr_20_20_5.xml shape): the server
//                    link and the all-to-all shuffle merge every flow into
//                    one allocator component.
//   volunteer_churn  scenarios/internet_churn.xml scaled: heterogeneous
//                    broadband hosts, churn, NAT traversal ladder, supernode
//                    overlay, 10 % byzantine hosts under quorum validation.
//   many_tasks       word count on real bytes with many short maps: the
//                    scheduler RPCs, XML wire codec, daemons and real
//                    map/reduce compute, checked against the digest of the
//                    single-threaded mr::run_local oracle's output bytes.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "core/metrics.h"
#include "core/scenario_io.h"
#include "mr/app.h"
#include "mr/dataset.h"
#include "mr/keyvalue.h"
#include "mr/local_runtime.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace vcmr::perfbench {
namespace {

struct JobShape {
  int nodes = 0;
  int maps = 0;
  int reducers = 0;
  int input_mb = 0;
  /// Extra `<scenario>` children (host preset, churn, NAT, ...).
  std::string extra;
  /// Simulated seconds per sampler slice in the traced run.
  double slice_s = 1;
};

std::string scenario_xml(std::uint64_t seed, const JobShape& s) {
  char head[512];
  std::snprintf(head, sizeof head,
                "<scenario>\n  <seed>%llu</seed>\n  <nodes>%d</nodes>\n"
                "  <maps>%d</maps>\n  <reducers>%d</reducers>\n"
                "  <input_mb>%d</input_mb>\n  <app>word_count</app>\n"
                "  <boinc_mr>1</boinc_mr>\n",
                static_cast<unsigned long long>(seed), s.nodes, s.maps,
                s.reducers, s.input_mb);
  return head + s.extra + "</scenario>\n";
}

/// Registry counter summed over labels, as a metric value.
double total(const obs::MetricsRegistry& reg, const char* component,
             const char* name) {
  return static_cast<double>(reg.counter_total(component, name));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// All per-host client/backoff_seconds histograms folded into one.
std::optional<obs::Histogram> merged_backoffs(const obs::MetricsRegistry& reg) {
  std::optional<obs::Histogram> all;
  for (const auto& [key, h] : reg.histograms()) {
    if (key.component != "client" || key.name != "backoff_seconds") continue;
    if (!all) all.emplace(h.bounds());
    all->merge_from(h);
  }
  return all;
}

/// A wall-clock slice of the run: the simulated interval it covered.
struct Slice {
  double sim_lo = 0;
  double sim_hi = 0;
  double wall_s = 0;
};

/// Wall seconds of the slices that fall inside [lo, hi) of simulated time,
/// each slice split in proportion to its overlap.
double wall_within(const std::vector<Slice>& slices, double lo, double hi) {
  double total = 0;
  for (const Slice& s : slices) {
    const double len = s.sim_hi - s.sim_lo;
    if (len <= 0) continue;
    const double overlap =
        std::min(hi, s.sim_hi) - std::max(lo, s.sim_lo);
    if (overlap > 0) total += s.wall_s * overlap / len;
  }
  return total;
}

struct Window {
  double lo = 0;
  double hi = 0;
};

Window span_of(const std::vector<core::TaskInterval>& tasks) {
  Window w{1e300, -1e300};
  for (const auto& t : tasks) {
    w.lo = std::min(w.lo, t.sent_seconds);
    w.hi = std::max(w.hi, t.received_seconds);
  }
  if (tasks.empty()) w = {0, 0};
  return w;
}

class ClusterWorkload : public Workload {
 public:
  ClusterWorkload(std::string xml, double slice_s)
      : xml_(std::move(xml)), slice_s_(slice_s) {}

  /// Materialised input plus the digest of the oracle's output bytes and
  /// the oracle's wall time. Only the digest is kept, so the memory the
  /// benchmark holds per instance is the corpus alone.
  void set_input(std::string corpus, common::Digest128 expected,
                 double oracle_s, bool corrupt_output) {
    corpus_ = std::move(corpus);
    expected_ = std::move(expected);
    oracle_s_ = oracle_s;
    corrupt_output_ = corrupt_output;
  }

  RepResult rep(bool traced, SpanLog& spans) override;

 private:
  std::string check_output(core::Cluster& cluster, MrJobId job) const;

  std::string xml_;
  double slice_s_;
  std::optional<std::string> corpus_;
  common::Digest128 expected_;
  double oracle_s_ = 0;
  bool corrupt_output_ = false;
};

std::string ClusterWorkload::check_output(core::Cluster& cluster,
                                          MrJobId job) const {
  std::vector<mr::KeyValue> got = cluster.collect_output(job);
  if (corrupt_output_ && !got.empty()) {
    got.front().value = std::to_string(std::stoll(got.front().value) + 1);
  }
  if (common::Hasher::of(mr::serialize_kvs(got)) != expected_) {
    return "word-count output differs from the mr::run_local oracle";
  }
  return "";
}

RepResult ClusterWorkload::rep(bool traced, SpanLog& spans) {
  RepResult r;
  obs::ScopedMetricsRegistry scoped;
  const obs::MetricsRegistry& reg = scoped.registry();

  const auto t0 = Clock::now();
  core::Scenario scenario;
  {
    auto sp = spans.open("core::scenario_from_xml");
    scenario = core::scenario_from_xml(xml_);
  }
  const double parse_s = seconds_since(t0);
  if (corpus_) scenario.input_text = *corpus_;
  const auto t1 = Clock::now();
  std::unique_ptr<core::Cluster> cluster;
  {
    auto sp = spans.open("core::Cluster::Cluster");
    cluster = std::make_unique<core::Cluster>(std::move(scenario));
  }
  const double build_s = seconds_since(t1);
  r.setup_s = seconds_since(t0);

  sim::Simulation& sim = cluster->simulation();
  net::Network& net = cluster->network();

  // Traced runs sample wall time and flow concurrency once per simulated
  // slice. The sampler draws no randomness and sends nothing, so the run
  // is unchanged apart from the sampler's own events.
  std::vector<Slice> slices;
  double flows_sum = 0;
  double flows_max = 0;
  auto last_wall = Clock::now();
  double last_sim = 0;
  std::optional<sim::PeriodicTask> sampler;
  if (traced) {
    sampler.emplace(sim, SimTime::seconds(slice_s_), [&] {
      const auto now = Clock::now();
      const double at = sim.now().as_seconds();
      slices.push_back(
          {last_sim, at, std::chrono::duration<double>(now - last_wall).count()});
      last_wall = now;
      last_sim = at;
      const double flows = static_cast<double>(net.active_flow_count());
      flows_sum += flows;
      flows_max = std::max(flows_max, flows);
    });
  }

  const auto t2 = Clock::now();
  last_wall = t2;
  core::RunOutcome out;
  {
    auto sp = spans.open("core::Cluster::run_job");
    out = cluster->run_job();
  }
  r.run_s = seconds_since(t2);
  const std::vector<Slice> periodic = slices;
  slices.push_back({last_sim, sim.now().as_seconds(),
                    seconds_since(last_wall)});
  std::int64_t sampler_ticks = 0;
  if (sampler) {
    sampler_ticks = sampler->fired();
    sampler->cancel();
  }

  const auto t3 = Clock::now();
  core::JobMetrics metrics;
  {
    auto sp = spans.open("core::compute_job_metrics");
    metrics = core::compute_job_metrics(cluster->project().database(), out.job);
  }
  const double metrics_s = seconds_since(t3);

  if (out.hit_time_limit || !metrics.completed) {
    r.error = "job did not complete within the scenario time limit";
  } else if (corpus_) {
    r.error = check_output(*cluster, out.job);
  }

  const std::int64_t wire_in = reg.counter_total("scheduler", "wire_bytes_in");
  const std::int64_t wire_out =
      reg.counter_total("scheduler", "wire_bytes_out");
  const std::int64_t events =
      static_cast<std::int64_t>(sim.events_executed()) - sampler_ticks;
  Fingerprint& f = r.fingerprint;
  f["completed"] = std::to_string(static_cast<int>(metrics.completed));
  f["makespan_s"] = exact(metrics.total_seconds);
  f["events"] = std::to_string(events);
  f["scheduler_rpcs"] = std::to_string(out.scheduler_rpcs);
  f["backoffs"] = std::to_string(out.backoffs);
  f["wire_bytes_in"] = std::to_string(wire_in);
  f["wire_bytes_out"] = std::to_string(wire_out);
  f["server_bytes_sent"] = std::to_string(out.server_bytes_sent);
  f["server_bytes_received"] = std::to_string(out.server_bytes_received);
  f["interclient_bytes"] = std::to_string(out.interclient_bytes);
  f["net_bytes"] = std::to_string(net.total_bytes_transferred());

  if (!traced) return r;

  auto& L = r.layers;
  const auto set = [&L](const char* name, double v, const char* unit) {
    L[name] = {v, unit};
  };
  std::vector<double> slice_ms;
  for (const Slice& s : periodic) slice_ms.push_back(s.wall_s * 1e3);
  set("sim.events_executed", static_cast<double>(events), "count");
  set("sim.us_per_event", ratio(r.run_s * 1e6, static_cast<double>(events)),
      "us");
  set("sim.slice_ms_p50", quantile(slice_ms, 0.5), "ms");
  set("sim.slice_ms_p95", quantile(slice_ms, 0.95), "ms");
  set("sim.slice_samples", static_cast<double>(slice_ms.size()), "count");

  const Window map = span_of(metrics.map_tasks);
  const Window reduce = span_of(metrics.reduce_tasks);
  set("job.map_wall_s", wall_within(slices, map.lo, map.hi), "s");
  set("job.gap_wall_s", wall_within(slices, map.hi, reduce.lo), "s");
  set("job.reduce_wall_s", wall_within(slices, reduce.lo, reduce.hi), "s");

  set("net.active_flows_mean",
      ratio(flows_sum, static_cast<double>(periodic.size())), "count");
  set("net.active_flows_max", flows_max, "count");
  set("net.bytes_transferred",
      static_cast<double>(net.total_bytes_transferred()), "bytes");
  const net::NodeTraffic& server = net.traffic(cluster->server_node());
  set("net.server_bytes_out", static_cast<double>(server.bytes_sent), "bytes");
  set("net.server_bytes_in", static_cast<double>(server.bytes_received),
      "bytes");
  set("net.traversal_attempts", static_cast<double>(out.traversal.attempts),
      "count");
  set("net.traversal_failed", static_cast<double>(out.traversal.failed),
      "count");
  set("net.traversal_relayed", static_cast<double>(out.traversal.relayed),
      "count");

  const double rpcs = total(reg, "scheduler", "rpcs");
  const double passes = total(reg, "daemon", "passes");
  const double rows = total(reg, "daemon", "rows_touched");
  set("server.rpcs", rpcs, "count");
  set("server.results_dispatched",
      total(reg, "scheduler", "results_dispatched"), "count");
  set("server.useful_rpc_ratio",
      rpcs > 0 ? 1.0 - total(reg, "scheduler", "empty_replies") / rpcs : 0.0,
      "ratio");
  set("server.daemon_passes", passes, "count");
  set("server.daemon_rows_touched", rows, "count");
  set("server.rows_per_pass", ratio(rows, passes), "count");
  set("server.validator_valid", total(reg, "validator", "results_valid"),
      "count");
  set("server.validator_invalid", total(reg, "validator", "results_invalid"),
      "count");

  set("proto.wire_bytes_in", static_cast<double>(wire_in), "bytes");
  set("proto.wire_bytes_out", static_cast<double>(wire_out), "bytes");
  set("proto.bytes_per_rpc",
      ratio(static_cast<double>(wire_in + wire_out), rpcs), "bytes");

  set("http.requests", total(reg, "http", "requests"), "count");
  set("http.request_bytes", total(reg, "http", "request_bytes"), "bytes");
  set("http.response_bytes", total(reg, "http", "response_bytes"), "bytes");

  set("client.rpcs", total(reg, "client", "rpcs"), "count");
  set("client.rpc_failures", total(reg, "client", "rpc_failures"), "count");
  set("client.work_fetch_requests",
      total(reg, "client", "work_fetch_requests"), "count");
  set("client.task_ok_ratio",
      ratio(total(reg, "client", "tasks_completed"),
            total(reg, "client", "tasks_received")),
      "ratio");
  set("client.backoffs", static_cast<double>(out.backoffs), "count");
  const std::optional<obs::Histogram> backoff = merged_backoffs(reg);
  set("client.backoff_s_p50", backoff ? backoff->quantile(0.5) : 0.0, "s");
  set("client.backoff_s_p95", backoff ? backoff->quantile(0.95) : 0.0, "s");

  const double attempts = total(reg, "interclient", "fetch_attempts");
  set("interclient.fetch_attempts", attempts, "count");
  set("interclient.fetch_ok_ratio",
      ratio(total(reg, "interclient", "fetch_ok"), attempts), "ratio");
  set("interclient.bytes_fetched", total(reg, "interclient", "bytes_fetched"),
      "bytes");

  set("core.scenario_parse_s", parse_s, "s");
  set("core.cluster_build_s", build_s, "s");
  set("core.metrics_s", metrics_s, "s");
  if (corpus_) set("mr.local_run_s", oracle_s_, "s");
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_shuffle_job(const Options& opt,
                                           std::uint64_t seed) {
  const int n = opt.tiny ? 8 : 20;
  JobShape s;
  s.nodes = n;
  s.maps = n;
  s.reducers = n / 4;
  s.input_mb = 50 * n;
  s.slice_s = 5;
  return std::make_unique<ClusterWorkload>(scenario_xml(seed, s),
                                           s.slice_s);
}

std::unique_ptr<Workload> make_volunteer_churn(const Options& opt,
                                               std::uint64_t seed) {
  JobShape s;
  s.nodes = opt.tiny ? 12 : 20;
  s.maps = opt.tiny ? 12 : 40;
  s.reducers = opt.tiny ? 3 : 5;
  s.input_mb = opt.tiny ? 60 : 200;
  s.slice_s = 5;
  s.extra =
      "  <time_limit_s>86400</time_limit_s>\n"
      "  <hosts><preset>internet</preset></hosts>\n"
      "  <project><delay_bound_s>2700</delay_bound_s></project>\n"
      "  <churn><mean_on_s>2880</mean_on_s><mean_off_s>360</mean_off_s>"
      "</churn>\n"
      "  <nat><open>0.2</open><full_cone>0.2</full_cone>"
      "<restricted>0.15</restricted><port_restricted>0.3</port_restricted>"
      "<symmetric>0.15</symmetric></nat>\n"
      "  <overlay/>\n"
      "  <byzantine><faulty_fraction>0.1</faulty_fraction>"
      "<error_probability>0.7</error_probability></byzantine>\n";
  return std::make_unique<ClusterWorkload>(scenario_xml(seed, s),
                                           s.slice_s);
}

std::unique_ptr<Workload> make_many_tasks(const Options& opt,
                                          std::uint64_t seed, SpanLog& spans) {
  JobShape s;
  s.nodes = opt.tiny ? 10 : 50;
  s.maps = opt.tiny ? 20 : 400;
  s.reducers = opt.tiny ? 4 : 10;
  s.input_mb = 1;  // unused: the job reads the materialised corpus
  s.slice_s = 0.5;
  const Bytes corpus_bytes = opt.tiny ? 200 * 1000 : 4 * 1000 * 1000;

  // The corpus is the workload's input: generated from the seed, outside
  // every timed region.
  common::RngStreamFactory streams(seed);
  common::Rng rng = streams.stream("perfbench/corpus");
  std::string corpus = mr::ZipfCorpus().generate(corpus_bytes, rng);

  mr::register_builtin_apps();
  const mr::MapReduceApp* app = mr::AppRegistry::instance().find("word_count");
  if (app == nullptr) throw std::runtime_error("word_count app missing");
  mr::LocalJobOptions local;
  local.n_maps = s.maps;
  local.n_reducers = s.reducers;
  local.n_threads = 1;
  mr::LocalJobResult oracle;
  const auto t0 = Clock::now();
  {
    auto sp = spans.open("mr::run_local");
    oracle = mr::run_local(*app, corpus, local);
  }
  const double oracle_s = seconds_since(t0);

  auto w = std::make_unique<ClusterWorkload>(scenario_xml(seed, s),
                                             s.slice_s);
  w->set_input(std::move(corpus),
               common::Hasher::of(mr::serialize_kvs(oracle.output)), oracle_s,
               opt.corrupt_output);
  return w;
}

}  // namespace vcmr::perfbench
