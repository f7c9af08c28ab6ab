// E21 — REAL-STACK SCALING (the whole BOINC-MR job, end to end).
//
// E20 (bench_scale) times the allocator alone under random peer traffic,
// where flow components stay O(1). A real job is different: the project
// server's link and the all-to-all shuffle merge the flows into one
// component, so every rate change there touches every active flow. This
// bench runs the Table I BOINC-MR job (scenarios/boincmr_20_20_5.xml's
// shape: Emulab hosts, word count, inter-client shuffle) with
// nodes = maps = n, reducers = n/4 and 50 MB of input per map, for
// n in {20, 40, 80, 160}, through core::Cluster::run_job.
//
// Per row: wall seconds, simulated makespan, executed events, and the
// event queue's operations per executed event (entries scheduled, pending
// entries cancelled). The op ratios are machine-independent — CI gates
// them (at most 2 schedules and 1 cancel per executed event) on the rows
// up to 80 hosts, and each row records whether it is within that bound;
// the wall times are recorded with the machine and build that produced
// them, and the headline fits the wall-vs-hosts slope on a log-log scale.
// Rows run one after another, so no row's wall time contends with
// another's.
//
// Writes BENCH_E2E.json at the repository root by default.
// argv: [max_hosts] [out_path].

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/scenario_io.h"

namespace vcmr {
namespace {

/// scenarios/boincmr_20_20_5.xml at n hosts.
core::Scenario job_at(int hosts) {
  return core::scenario_from_xml(
      "<scenario><seed>3</seed><nodes>" + std::to_string(hosts) +
      "</nodes><maps>" + std::to_string(hosts) + "</maps><reducers>" +
      std::to_string(hosts / 4) + "</reducers><input_mb>" +
      std::to_string(50 * hosts) +
      "</input_mb><app>word_count</app><boinc_mr>1</boinc_mr></scenario>");
}

struct Row {
  int hosts = 0;
  bool completed = false;
  double makespan_s = 0;
  std::size_t executed = 0;
  std::size_t scheduled = 0;
  std::size_t cancelled = 0;
  double wall_s = 0;

  double scheduled_per_event() const {
    return executed ? static_cast<double>(scheduled) / executed : 0.0;
  }
  double cancelled_per_event() const {
    return executed ? static_cast<double>(cancelled) / executed : 0.0;
  }
  bool within_gate() const {
    return scheduled_per_event() <= kMaxScheduledPerEvent &&
           cancelled_per_event() <= kMaxCancelledPerEvent;
  }

  static constexpr double kMaxScheduledPerEvent = 2.0;
  static constexpr double kMaxCancelledPerEvent = 1.0;
};

Row run_row(int hosts) {
  const core::Scenario s = job_at(hosts);
  const auto t0 = std::chrono::steady_clock::now();
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  Row r;
  r.wall_s = bench::wall_since(t0);
  r.hosts = hosts;
  r.completed = out.metrics.completed;
  r.makespan_s = out.metrics.total_seconds;
  const sim::Simulation& sim = cluster.simulation();
  r.executed = sim.events_executed();
  r.scheduled = sim.events_scheduled();
  r.cancelled = sim.events_cancelled();
  return r;
}

std::string row_json(const Row& r) {
  bench::JsonRow row;
  row.field("experiment", "E21")
      .field("hosts", r.hosts)
      .field("maps", r.hosts)
      .field("reducers", r.hosts / 4)
      .field("input_mb", 50 * r.hosts)
      .field("completed", r.completed)
      .field("makespan_s", r.makespan_s)
      .field("events_executed", static_cast<std::int64_t>(r.executed))
      .field("events_scheduled", static_cast<std::int64_t>(r.scheduled))
      .field("events_cancelled", static_cast<std::int64_t>(r.cancelled))
      .field("scheduled_per_event", r.scheduled_per_event())
      .field("cancelled_per_event", r.cancelled_per_event())
      .field("within_gate", r.within_gate())
      .field("wall_s", r.wall_s);
  return row.str();
}

void print_row(const Row& r) {
  std::printf("%5d | %9s | %9.1f | %9zu | %9.2f | %9.2f | %7s | %9.3f\n",
              r.hosts, r.completed ? "yes" : "NO", r.makespan_s, r.executed,
              r.scheduled_per_event(), r.cancelled_per_event(),
              r.within_gate() ? "yes" : "OVER", r.wall_s);
  std::fflush(stdout);
}

/// Least-squares slope of log(wall) on log(hosts): 1 = linear in hosts.
double loglog_slope(const std::vector<Row>& rows) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (const Row& r : rows) {
    if (r.wall_s <= 0) continue;
    const double x = std::log(static_cast<double>(r.hosts));
    const double y = std::log(r.wall_s);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  const double den = n * sxx - sx * sx;
  return n >= 2 && den > 0 ? (n * sxy - sx * sy) / den : 0.0;
}

/// The first "model name" line of /proc/cpuinfo; "unknown" elsewhere.
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void run(int max_hosts, const char* out_path) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<int> hosts;
  for (const int n : {20, 40, 80, 160}) {
    if (n <= max_hosts) hosts.push_back(n);
  }

  std::printf("E21 — REAL-STACK SCALING (BOINC-MR job, maps = hosts, "
              "reducers = hosts/4, 50 MB/map)\n\n");
  std::printf("%5s | %9s | %9s | %9s | %9s | %9s | %7s | %9s\n", "hosts",
              "completed", "makespan", "events", "sched/ev", "cancel/ev",
              "gate", "wall (s)");
  std::printf("%s\n", std::string(87, '=').c_str());

  std::vector<Row> results;
  std::vector<std::string> rows;
  std::vector<int> over_gate;
  double max_sched = 0, max_cancel = 0, points_wall_s = 0;
  for (const int n : hosts) {
    const Row r = run_row(n);
    print_row(r);
    rows.push_back(row_json(r));
    if (!r.within_gate()) over_gate.push_back(r.hosts);
    max_sched = std::max(max_sched, r.scheduled_per_event());
    max_cancel = std::max(max_cancel, r.cancelled_per_event());
    points_wall_s += r.wall_s;
    results.push_back(r);
  }
  const double slope = loglog_slope(results);
  std::printf("\nwall ~ hosts^%.2f; at most %.2f scheduled and %.2f cancelled "
              "per executed event; %zu of %zu rows within <= %.0f / <= %.0f.\n",
              slope, max_sched, max_cancel, results.size() - over_gate.size(),
              results.size(), Row::kMaxScheduledPerEvent,
              Row::kMaxCancelledPerEvent);
  std::string over_json = "[";
  for (std::size_t i = 0; i < over_gate.size(); ++i) {
    over_json += (i ? ", " : "") + std::to_string(over_gate[i]);
  }
  over_json += "]";

#ifdef VCMR_BUILD_TYPE
  const char* build_type = VCMR_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
  bench::JsonRow headline;
  headline.field("max_hosts", max_hosts)
      .field("max_scheduled_per_event", max_sched)
      .field("max_cancelled_per_event", max_cancel)
      .field("gate_scheduled_per_event", Row::kMaxScheduledPerEvent)
      .field("gate_cancelled_per_event", Row::kMaxCancelledPerEvent)
      .field_json("hosts_over_gate", over_json)
      .field("wall_loglog_slope", slope)
      .field("cpu", cpu_model())
      .field("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .field("compiler", __VERSION__)
      .field("build_type", build_type)
      .field("wall_s", bench::wall_since(t0))
      .field("points_wall_s", points_wall_s);
  bench::write_bench_doc(out_path, "E21", rows, headline.str());
}

}  // namespace
}  // namespace vcmr

int main(int argc, char** argv) {
  vcmr::bench::silence_logs();
  const int max_hosts = argc > 1 ? std::atoi(argv[1]) : 160;
  const char* out = argc > 2 ? argv[2] : "BENCH_E2E.json";
  vcmr::run(max_hosts, out);
  return 0;
}
