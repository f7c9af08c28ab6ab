// Tests for the vcmr::obs telemetry subsystem: the shared JSON writer, the
// metrics registry, the event bus, both exporters, and the end-to-end
// guarantees the subsystem makes — per-host backoff accounting that exposes
// the Fig. 4 straggler, and zero perturbation of simulation outcomes when
// telemetry is merely collected.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstddef>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "common/json.h"
#include "core/cluster.h"
#include "json_checker.h"
#include "obs/event.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/trace.h"

namespace vcmr {
namespace {

using common::JsonWriter;
using obs::EventLog;
using obs::MetricsRegistry;
using obs::ScopedMetricsRegistry;

// --- JsonWriter (satellite 1: the hoisted bench JSON path) -----------------

TEST(JsonWriter, FormatMatchesHistoricalBenchRows) {
  // Byte-for-byte pin of the format bench_*.cpp rows have always used; the
  // JsonRow alias in bench_util.h routes through this class.
  JsonWriter w;
  w.field("experiment", "E2")
      .field("seed", static_cast<std::int64_t>(3))
      .field("ratio", 0.5)
      .field("ok", true);
  EXPECT_EQ(w.str(),
            "{\"experiment\": \"E2\", \"seed\": 3, \"ratio\": 0.5, "
            "\"ok\": true}");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlChars) {
  JsonWriter w;
  w.field("k", std::string("a\"b\\c\nd"));
  EXPECT_EQ(w.str(), "{\"k\": \"a\\\"b\\\\c\\u000ad\"}");
  EXPECT_TRUE(JsonChecker(w.str()).valid());
}

TEST(JsonWriter, FieldJsonEmbedsRawValues) {
  JsonWriter w;
  w.field("n", 1).field_json("nested", "{\"x\": [1, 2]}");
  EXPECT_EQ(w.str(), "{\"n\": 1, \"nested\": {\"x\": [1, 2]}}");
  EXPECT_TRUE(JsonChecker(w.str()).valid());
}

TEST(JsonWriter, DoublesUseSixSignificantDigits) {
  JsonWriter w;
  w.field("v", 205.092772);
  EXPECT_EQ(w.str(), "{\"v\": 205.093}");
}

// --- MetricsRegistry -------------------------------------------------------

TEST(Metrics, CountersAccumulate) {
  ScopedMetricsRegistry scope;
  auto& reg = MetricsRegistry::instance();
  reg.counter("c", "hits").add();
  reg.counter("c", "hits").add(4);
  EXPECT_EQ(reg.counter("c", "hits").value(), 5);
  EXPECT_EQ(reg.counters().size(), 1u);
}

TEST(Metrics, LabelOrderDoesNotSplitMetrics) {
  ScopedMetricsRegistry scope;
  auto& reg = MetricsRegistry::instance();
  reg.counter("c", "n", {{"a", "1"}, {"b", "2"}}).add();
  reg.counter("c", "n", {{"b", "2"}, {"a", "1"}}).add();
  EXPECT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.counter_total("c", "n"), 2);
}

TEST(Metrics, CounterTotalSumsAcrossLabelSets) {
  ScopedMetricsRegistry scope;
  auto& reg = MetricsRegistry::instance();
  reg.counter("client", "rpcs", {{"host", "host1"}}).add(3);
  reg.counter("client", "rpcs", {{"host", "host2"}}).add(4);
  reg.counter("client", "other").add(100);
  EXPECT_EQ(reg.counter_total("client", "rpcs"), 7);
  EXPECT_EQ(reg.counter_total("client", "absent"), 0);
}

TEST(Metrics, HistogramBucketsObservations) {
  ScopedMetricsRegistry scope;
  auto& h = MetricsRegistry::instance().histogram("c", "lat", {10, 100});
  h.observe(5);     // <= 10
  h.observe(10);    // boundary counts in the first bucket
  h.observe(50);    // <= 100
  h.observe(1000);  // overflow
  ASSERT_EQ(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 2);
  EXPECT_EQ(h.buckets()[1], 1);
  EXPECT_EQ(h.buckets()[2], 1);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 1065.0);
}

TEST(Metrics, HistogramBoundsFixedAtFirstRegistration) {
  ScopedMetricsRegistry scope;
  auto& reg = MetricsRegistry::instance();
  auto& h1 = reg.histogram("c", "lat", {1, 2});
  auto& h2 = reg.histogram("c", "lat", {5, 6, 7});  // ignored
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.bounds(), (std::vector<double>{1, 2}));
}

TEST(Metrics, RejectsUnsortedHistogramBounds) {
  ScopedMetricsRegistry scope;
  EXPECT_THROW(
      MetricsRegistry::instance().histogram("c", "bad", {5, 1}), Error);
}

TEST(Metrics, ScopedRegistryIsolatesAndRestores) {
  auto& outer = MetricsRegistry::instance();
  const std::int64_t outer_before = outer.counter_total("t", "x");
  {
    ScopedMetricsRegistry scope;
    EXPECT_NE(&MetricsRegistry::instance(), &outer);
    MetricsRegistry::instance().counter("t", "x").add(42);
    EXPECT_EQ(MetricsRegistry::instance().counter_total("t", "x"), 42);
  }
  EXPECT_EQ(&MetricsRegistry::instance(), &outer);
  EXPECT_EQ(outer.counter_total("t", "x"), outer_before);
}

// The SeedPool isolation property: the current-registry pointer is
// thread-local, so two workers under their own scoped registries bumping
// the *same-named* counter concurrently never observe each other, and the
// shared root is untouched.
TEST(Metrics, RegistryIsolationAcrossThreads) {
  auto& root = MetricsRegistry::instance();
  const std::int64_t root_before = root.counter_total("iso", "c");
  constexpr int kIters = 5000;
  std::atomic<bool> go{false};
  std::atomic<int> failures{0};
  const auto worker = [&](std::int64_t step) {
    ScopedMetricsRegistry scope;
    while (!go.load()) {
    }
    auto& c = MetricsRegistry::instance().counter("iso", "c");
    for (int i = 0; i < kIters; ++i) {
      c.add(step);
      // Only this thread's increments are ever visible here.
      if (MetricsRegistry::instance().counter_total("iso", "c") !=
          step * (i + 1)) {
        failures.fetch_add(1);
      }
    }
  };
  std::thread a(worker, 1), b(worker, 1000);
  go.store(true);
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(root.counter_total("iso", "c"), root_before);
}

TEST(Metrics, NestedScopedRegistriesRestoreInOrder) {
  auto& root = MetricsRegistry::instance();
  {
    ScopedMetricsRegistry outer;
    MetricsRegistry* outer_reg = &MetricsRegistry::instance();
    {
      ScopedMetricsRegistry inner;
      EXPECT_NE(&MetricsRegistry::instance(), outer_reg);
      MetricsRegistry::instance().counter("nest", "c").add(1);
    }
    EXPECT_EQ(&MetricsRegistry::instance(), outer_reg);
    EXPECT_EQ(outer_reg->counter_total("nest", "c"), 0);
  }
  EXPECT_EQ(&MetricsRegistry::instance(), &root);
}

TEST(Metrics, SpawnedThreadStartsAtRootRegistry) {
  auto& root = MetricsRegistry::instance();
  ScopedMetricsRegistry scope;  // live on the spawning thread only
  MetricsRegistry* seen = nullptr;
  std::thread([&] { seen = &MetricsRegistry::instance(); }).join();
  EXPECT_EQ(seen, &root);
  EXPECT_NE(seen, &MetricsRegistry::instance());
}

TEST(Metrics, MergeFromAddsCountersGaugesAndHistograms) {
  MetricsRegistry a, b;
  a.counter("m", "c").add(3);
  b.counter("m", "c").add(4);
  b.counter("m", "only_b").add(1);
  a.gauge("m", "g").add(1.5);
  b.gauge("m", "g").add(2.0);
  a.histogram("m", "h", {1, 10}).observe(0.5);
  b.histogram("m", "h", {1, 10}).observe(5);
  b.histogram("m", "h", {1, 10}).observe(100);
  a.merge_from(b);
  EXPECT_EQ(a.counter_total("m", "c"), 7);
  EXPECT_EQ(a.counter_total("m", "only_b"), 1);
  EXPECT_DOUBLE_EQ(a.gauge("m", "g").value(), 3.5);
  const auto& h = a.histogram("m", "h", {1, 10});
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 105.5);
  EXPECT_EQ(h.buckets(), (std::vector<std::int64_t>{1, 1, 1}));
  // b is untouched.
  EXPECT_EQ(b.counter_total("m", "c"), 4);
}

TEST(Metrics, MergeFromIsOrderIndependentForIntegerAggregates) {
  MetricsRegistry parts[3];
  for (int i = 0; i < 3; ++i) {
    parts[i].counter("m", "c").add(i + 1);
    parts[i].histogram("m", "h", {2}).observe(i);
  }
  MetricsRegistry fwd, rev;
  for (int i = 0; i < 3; ++i) fwd.merge_from(parts[i]);
  for (int i = 2; i >= 0; --i) rev.merge_from(parts[i]);
  EXPECT_EQ(fwd.counter_total("m", "c"), rev.counter_total("m", "c"));
  EXPECT_EQ(fwd.histogram("m", "h", {2}).buckets(),
            rev.histogram("m", "h", {2}).buckets());
}

TEST(Metrics, MergeFromRejectsMismatchedHistogramBounds) {
  MetricsRegistry a, b;
  a.histogram("m", "h", {1, 2}).observe(1);
  b.histogram("m", "h", {1, 3}).observe(1);
  EXPECT_THROW(a.merge_from(b), Error);
}

// --- EventBus --------------------------------------------------------------

TEST(Metrics, PeakRssCoversCurrentResidentSet) {
  // The peak is this process image's own high-water mark (VmHWM), so it
  // can never be below the resident set right now, here after touching a
  // fresh 8 MB buffer.
  std::ifstream status("/proc/self/status");
  if (!status) GTEST_SKIP() << "no /proc/self/status";
  std::vector<char> ballast(8 << 20, 1);
  ASSERT_EQ(ballast[ballast.size() / 2], 1);
  std::int64_t rss_kib = -1;
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmRSS:", 0) == 0) rss_kib = std::stoll(line.substr(6));
  }
  ASSERT_GT(rss_kib, 0);
  EXPECT_GE(obs::peak_rss_bytes(), rss_kib * 1024);
  EXPECT_GE(obs::peak_rss_bytes(), static_cast<std::int64_t>(ballast.size()));
}

TEST(Events, InactiveBusIsSilentAndCheap) {
  EXPECT_FALSE(obs::EventBus::instance().active());
  // No subscriber: the helper early-outs; nothing observable happens.
  obs::publish(SimTime::seconds(1), "c", "n", "a");
}

TEST(Events, EventLogBuffersPublishedEvents) {
  EventLog log;
  EXPECT_TRUE(obs::EventBus::instance().active());
  obs::publish(SimTime::seconds(1), "scheduler", "resend_lost", "scheduler",
               "wu0_r1");
  obs::publish(SimTime::seconds(2), "client", "backoff", "host3");
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[0].name, "resend_lost");
  EXPECT_EQ(log.events()[1].actor, "host3");
  EXPECT_EQ(log.events()[1].detail, "");
}

TEST(Events, SubscriptionEndsWithScope) {
  {
    EventLog log;
    EXPECT_TRUE(obs::EventBus::instance().active());
  }
  EXPECT_FALSE(obs::EventBus::instance().active());
}

TEST(Events, MultipleSubscribersEachReceive) {
  EventLog a;
  EventLog b;
  obs::publish(SimTime::zero(), "c", "n", "x");
  EXPECT_EQ(a.events().size(), 1u);
  EXPECT_EQ(b.events().size(), 1u);
}

// Regression for the unsynchronized-singleton race: instance() is now one
// bus per thread, so a subscription on this thread neither receives events
// published by a worker thread nor perturbs the worker's own bus — the
// exact shape of a SeedPool sweep running under a main-thread EventLog.
TEST(Events, BusIsThreadLocal) {
  EventLog main_log;
  obs::EventBus* main_bus = &obs::EventBus::instance();
  obs::EventBus* worker_bus = nullptr;
  bool worker_bus_active = true;
  std::size_t worker_log_events = 0;
  std::thread([&] {
    worker_bus = &obs::EventBus::instance();
    worker_bus_active = obs::EventBus::instance().active();
    // Worker publishes with no subscriber of its own: silent, and
    // invisible to the main thread's log.
    obs::publish(SimTime::seconds(1), "worker", "ev", "w");
    // A worker-side subscription sees only worker-side events.
    EventLog worker_log;
    obs::publish(SimTime::seconds(2), "worker", "ev2", "w");
    worker_log_events = worker_log.events().size();
  }).join();
  EXPECT_NE(worker_bus, main_bus);
  EXPECT_FALSE(worker_bus_active);  // main-thread EventLog doesn't leak in
  EXPECT_EQ(worker_log_events, 1u);
  EXPECT_EQ(main_log.events().size(), 0u);
  // The main-thread bus still works after the worker exits.
  obs::publish(SimTime::seconds(3), "main", "ev3", "m");
  EXPECT_EQ(main_log.events().size(), 1u);
}

// --- exporters -------------------------------------------------------------

TEST(Export, MetricsJsonIsValidAndComplete) {
  ScopedMetricsRegistry scope;
  auto& reg = MetricsRegistry::instance();
  reg.counter("scheduler", "rpcs").add(34);
  reg.gauge("job", "total_seconds", {{"job", "1"}}).set(205.093);
  reg.histogram("client", "backoff_seconds", {30, 60}, {{"host", "host1"}})
      .observe(45);

  const std::string json = obs::metrics_json(reg);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"rpcs\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 34"), std::string::npos);
  EXPECT_NE(json.find("\"host\": \"host1\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [0, 1, 0]"), std::string::npos);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  obs::Histogram h({30, 60, 120});
  EXPECT_EQ(h.quantile(0.5), 0);  // no observations
  h.observe(10);
  h.observe(45);
  h.observe(45);
  h.observe(100);
  // rank 2 lands in [30,60) after 1 earlier observation: halfway through.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 45);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 108);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 117.6);
  // Overflow clamps to the last bound.
  h.observe(1e9);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 120);
}

TEST(Histogram, OverflowBucketClampsQuantilesToLastBound) {
  // The overflow bucket has no upper edge, so quantile() clamps any rank
  // landing there to bounds_.back() and under-reports the true tail. The
  // clamp is by design (fixed-bucket histograms keep no raw samples); the
  // defence is choosing bounds that cover the realistic range, which the
  // backoff test below pins.
  obs::Histogram h({10, 20});
  h.observe(5000);
  h.observe(9000);
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 20);  // true median is 5000+
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 20);
  EXPECT_DOUBLE_EQ(h.sum(), 14000.0);  // sum still sees the real values
}

TEST(Histogram, BackoffBoundsCoverConfigurableCap) {
  // client/backoff_seconds historically topped out at 600 s — exactly the
  // *default* backoff_max — so any run with a raised cap pushed every long
  // draw into the overflow bucket and quantile() clamped p95/p99 to 600.
  // The widened bounds keep one resolvable decade above the default cap.
  const std::vector<double> bounds = client::backoff_histogram_bounds();
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  EXPECT_EQ(bounds.back(), 3600);
  EXPECT_GT(bounds.back(),
            client::ClientConfig().backoff_max.as_seconds() * 2);

  obs::Histogram h(bounds);
  h.observe(1800);  // a draw under a raised (1-hour) cap...
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2400);  // ...resolves within bounds
  h.observe(7200);  // beyond every bound: the documented clamp kicks in
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3600);
}

TEST(Export, HistogramPercentileFormatPin) {
  // Format pin: every histogram object carries p50/p95/p99 summaries in
  // this exact rendering (%.6g numbers, after count and sum). Downstream
  // dashboards parse these fields — change them deliberately or not at all.
  ScopedMetricsRegistry scope;
  auto& reg = MetricsRegistry::instance();
  auto& h = reg.histogram("client", "backoff_seconds", {30, 60, 120});
  h.observe(10);
  h.observe(45);
  h.observe(45);
  h.observe(100);
  const std::string json = obs::metrics_json(reg);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"count\": 4, \"sum\": 200, "
                      "\"p50\": 45, \"p95\": 108, \"p99\": 117.6}"),
            std::string::npos)
      << json;
}

TEST(Export, ChromeTraceRendersSpansPointsAndEvents) {
  sim::TraceRecorder tr;
  const std::size_t tok =
      tr.begin_span(SimTime::seconds(1), "host1", "compute", "r0");
  tr.end_span(tok, SimTime::seconds(3));
  tr.point(SimTime::seconds(2), "host2", "report");

  std::vector<obs::Event> events;
  events.push_back({SimTime::seconds(4), "scheduler", "resend_lost",
                    "scheduler", "wu0_r1"});

  const std::string json = obs::chrome_trace_json(tr, events);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Complete span: ph X with micro ts/dur.
  EXPECT_NE(json.find("\"ph\": \"X\", \"ts\": 1000000, \"dur\": 2000000"),
            std::string::npos);
  // Instants carry the scope flag chrome://tracing requires.
  EXPECT_NE(json.find("\"ph\": \"i\", \"s\": \"t\""), std::string::npos);
  // Per-actor thread naming, first-seen order: host1=0, host2=1, then the
  // event-only actor "scheduler" gets the next tid.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"host1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"resend_lost\""), std::string::npos);
  EXPECT_NE(json.find("\"component\": \"scheduler\""), std::string::npos);
}

TEST(Export, ChromeTraceDropsUnclosedSpans) {
  sim::TraceRecorder tr;
  tr.begin_span(SimTime::seconds(1), "host1", "compute");  // never closed
  const std::string json = obs::chrome_trace_json(tr);
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_EQ(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(Export, ChromeTraceEventsSortedByTimestamp) {
  sim::TraceRecorder tr;
  tr.point(SimTime::seconds(9), "a", "late");
  tr.point(SimTime::seconds(1), "b", "early");
  const std::string json = obs::chrome_trace_json(tr);
  EXPECT_LT(json.find("\"early\""), json.find("\"late\""));
}

// --- end-to-end ------------------------------------------------------------

core::Scenario fig4_scenario(std::uint64_t seed = 3) {
  // The Fig. 4 experiment (bench_fig4_timeline): 15 plain-BOINC nodes, one
  // map WU per node replicated twice, 1 GB input. One node's report gets
  // stuck behind the exponential backoff and dominates the map-phase tail.
  core::Scenario s;
  s.seed = seed;
  s.n_nodes = 15;
  s.n_maps = 15;
  s.n_reducers = 3;
  s.input_size = 1000LL * 1000 * 1000;
  s.boinc_mr = false;
  s.record_trace = true;
  return s;
}

TEST(ObsIntegration, Fig4StragglerDominatesBackoffHistogram) {
  ScopedMetricsRegistry scope;
  EventLog log;
  // Seed 36 is a stark instance of the pathology: the straggler's report is
  // held back ~236 s by a single backoff draw, roughly double the worst
  // report delay of any other host.
  core::Cluster cluster(fig4_scenario(36));
  const core::RunOutcome out = cluster.run_job();
  ASSERT_TRUE(out.metrics.completed);

  // Identify the straggler exactly as bench_fig4_timeline does: the host
  // whose upload→report gap is largest.
  std::map<std::string, double> uploaded_at;
  for (const auto& p : cluster.trace().points()) {
    if (p.label == "uploaded") uploaded_at[p.detail] = p.at.as_seconds();
  }
  double max_delay = 0;
  double straggler_upload = 0;
  double straggler_report = 0;
  std::string straggler;
  std::map<std::string, double> host_delay;  // worst upload→report gap each
  for (const auto& t : out.metrics.map_tasks) {
    const auto it = uploaded_at.find(t.result_name);
    const double up =
        it != uploaded_at.end() ? it->second : t.received_seconds;
    const double delay = t.received_seconds - up;
    host_delay[t.host_name] = std::max(host_delay[t.host_name], delay);
    if (delay > max_delay) {
      max_delay = delay;
      straggler = t.host_name;
      straggler_upload = up;
      straggler_report = t.received_seconds;
    }
  }
  ASSERT_FALSE(straggler.empty());
  EXPECT_GT(max_delay, 180.0);  // the pathology is present at this seed

  // The telemetry exposes the cause, not just the symptom: the straggler's
  // result sat finished while a backoff drawn *before* the upload completed
  // kept the client away from the scheduler.  Backoff events carry
  // "<why> <seconds>" details, so we can find the draw whose window
  // [t, t + delay] covers the whole upload→report gap.
  double covering_draw = 0;
  for (const auto& ev : log.events()) {
    if (ev.component != "client" || ev.name != "backoff") continue;
    if (ev.actor != straggler) continue;
    const std::size_t sp = ev.detail.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << ev.detail;
    const double t = ev.at.as_seconds();
    const double d = std::stod(ev.detail.substr(sp + 1));
    if (t <= straggler_upload && t + d >= straggler_report - 0.5) {
      covering_draw = std::max(covering_draw, d);
    }
  }
  // One recorded draw explains the entire report delay...
  EXPECT_GE(covering_draw, max_delay);
  // ...and it visibly dominates: that single draw is at least 1.5x the
  // *total* report delay of every other host in the run.
  for (const auto& [host, delay] : host_delay) {
    if (host == straggler) continue;
    EXPECT_GT(covering_draw, 1.5 * delay) << host;
  }

  // The per-host histograms saw every one of those draws too: the
  // straggler's histogram contains the long (> 120 s) covering draw and
  // its total accounts for at least that much backoff.
  const auto& reg = MetricsRegistry::instance();
  bool found_straggler_hist = false;
  for (const auto& [key, h] : reg.histograms()) {
    if (key.component != "client" || key.name != "backoff_seconds") continue;
    ASSERT_EQ(key.labels.size(), 1u);
    if (key.labels[0].second != straggler) continue;
    found_straggler_hist = true;
    const auto& buckets = h.buckets();  // client::backoff_histogram_bounds()
    std::int64_t long_draws = 0;
    for (std::size_t i = 3; i < buckets.size(); ++i) long_draws += buckets[i];
    EXPECT_GT(long_draws, 0);
    EXPECT_GE(h.sum() + 1e-6, covering_draw);
  }
  EXPECT_TRUE(found_straggler_hist);

  // Protocol accounting matches the authoritative scheduler stats, and the
  // wire-byte counters saw real traffic in both directions.
  EXPECT_EQ(reg.counter_total("scheduler", "rpcs"), out.scheduler_rpcs);
  EXPECT_GT(reg.counter_total("scheduler", "wire_bytes_in"), 0);
  EXPECT_GT(reg.counter_total("scheduler", "wire_bytes_out"), 0);
}

TEST(ObsIntegration, CollectingTelemetryDoesNotPerturbTheRun) {
  core::Scenario s = fig4_scenario();
  s.record_trace = false;

  double base_total = 0;
  Bytes base_sent = 0;
  std::int64_t base_rpcs = 0;
  {
    ScopedMetricsRegistry scope;
    core::Cluster cluster(s);
    const core::RunOutcome out = cluster.run_job();
    base_total = out.metrics.total_seconds;
    base_sent = out.server_bytes_sent;
    base_rpcs = out.scheduler_rpcs;
  }
  {
    // Same scenario with an event subscriber attached: identical outcome.
    ScopedMetricsRegistry scope;
    EventLog log;
    core::Cluster cluster(s);
    const core::RunOutcome out = cluster.run_job();
    EXPECT_EQ(out.metrics.total_seconds, base_total);
    EXPECT_EQ(out.server_bytes_sent, base_sent);
    EXPECT_EQ(out.scheduler_rpcs, base_rpcs);
    EXPECT_FALSE(log.events().empty());
  }
}

TEST(ObsIntegration, MetricsJsonFromRealRunIsValid) {
  ScopedMetricsRegistry scope;
  core::Scenario s = fig4_scenario();
  core::Cluster cluster(s);
  (void)cluster.run_job();
  const std::string json =
      obs::metrics_json(MetricsRegistry::instance());
  EXPECT_TRUE(JsonChecker(json).valid());
  const std::string trace_json = obs::chrome_trace_json(cluster.trace());
  EXPECT_TRUE(JsonChecker(trace_json).valid());
}

}  // namespace
}  // namespace vcmr
