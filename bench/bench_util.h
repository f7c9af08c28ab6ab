#pragma once
// Shared helpers for the experiment-reproduction binaries.
//
// The paper's tables and figures report *simulated* quantities (makespans in
// seconds, byte counts, tier distributions), so each experiment binary is a
// report program that runs scenarios and prints paper-style tables; the
// micro-benchmarks (bench_mr_micro, bench_net_micro) use google-benchmark
// for real wall-clock measurements of the substrate.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/strings.h"
#include "core/cluster.h"
#include "obs/metrics.h"

namespace vcmr::bench {

/// Quiet logs for report binaries.
inline void silence_logs() {
  common::LogConfig::instance().set_level(common::LogLevel::kOff);
}

/// Wall seconds elapsed since t0.
inline double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

inline void heading(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%s\n", std::string(title.size(), '-').c_str());
}

/// Runs the same scenario across seeds; returns one outcome per seed.
inline std::vector<core::RunOutcome> run_seeds(core::Scenario base,
                                               int n_seeds,
                                               std::uint64_t first_seed = 1) {
  std::vector<core::RunOutcome> out;
  for (int i = 0; i < n_seeds; ++i) {
    core::Scenario s = base;
    s.seed = first_seed + static_cast<std::uint64_t>(i);
    core::Cluster cluster(s);
    out.push_back(cluster.run_job());
  }
  return out;
}

struct AveragedRow {
  double map_avg = 0, map_trimmed = 0;
  double reduce_avg = 0, reduce_trimmed = 0;
  double total = 0, total_trimmed = 0;
  double gap = 0;
  double server_out_mb = 0, server_in_mb = 0, interclient_mb = 0;
  int completed = 0, runs = 0;
};

inline AveragedRow average(const std::vector<core::RunOutcome>& outcomes) {
  AveragedRow row;
  row.runs = static_cast<int>(outcomes.size());
  for (const auto& o : outcomes) {
    if (!o.metrics.completed) continue;
    ++row.completed;
    row.map_avg += o.metrics.map.avg_task_seconds;
    row.map_trimmed += o.metrics.map.avg_task_seconds_trimmed;
    row.reduce_avg += o.metrics.reduce.avg_task_seconds;
    row.reduce_trimmed += o.metrics.reduce.avg_task_seconds_trimmed;
    row.total += o.metrics.total_seconds;
    row.total_trimmed += o.metrics.total_seconds_trimmed;
    row.gap += o.metrics.map_to_reduce_gap_seconds;
    row.server_out_mb += static_cast<double>(o.server_bytes_sent) / 1e6;
    row.server_in_mb += static_cast<double>(o.server_bytes_received) / 1e6;
    row.interclient_mb += static_cast<double>(o.interclient_bytes) / 1e6;
  }
  if (row.completed > 0) {
    const double k = row.completed;
    row.map_avg /= k;
    row.map_trimmed /= k;
    row.reduce_avg /= k;
    row.reduce_trimmed /= k;
    row.total /= k;
    row.total_trimmed /= k;
    row.gap /= k;
    row.server_out_mb /= k;
    row.server_in_mb /= k;
    row.interclient_mb /= k;
  }
  return row;
}

/// "484 [396]" when trimmed differs; "484" otherwise (Table I style).
inline std::string cell(double raw, double trimmed) {
  if (raw - trimmed < 1.0) return common::strprintf("%.0f", raw);
  return common::strprintf("%.0f [%.0f]", raw, trimmed);
}

/// One machine-readable result line: chain field() calls, then emit().
/// Thin alias over the shared JSON writer (src/common/json.h); the output
/// format is unchanged, which tests/test_obs.cpp pins.
using JsonRow = common::JsonWriter;

// --- registry readers ------------------------------------------------------
// The bench rows come from the same MetricsRegistry the exporters see:
// scope a ScopedMetricsRegistry around the measured clusters, then read
// the totals with these instead of keeping private stat structs.

/// counter_total shorthand against the current registry.
inline std::int64_t counter(const std::string& component,
                            const std::string& name) {
  return obs::MetricsRegistry::instance().counter_total(component, name);
}

/// Total injections of one fault kind (fault/injections{kind=...}).
inline std::int64_t fault_kind(const obs::MetricsRegistry& reg,
                               const std::string& kind) {
  std::int64_t total = 0;
  for (const auto& [key, c] : reg.counters()) {
    if (key.component == "fault" && key.name == "injections" &&
        key.labels == obs::Labels{{"kind", kind}}) {
      total += c.value();
    }
  }
  return total;
}

/// Sum of fault/injections across several kinds.
inline std::int64_t fault_kinds(const obs::MetricsRegistry& reg,
                                std::initializer_list<const char*> kinds) {
  std::int64_t total = 0;
  for (const char* kind : kinds) total += fault_kind(reg, kind);
  return total;
}

/// Total observation count of one histogram family across label sets
/// (e.g. client/backoff_seconds summed over hosts).
inline std::int64_t histogram_count(const obs::MetricsRegistry& reg,
                                    const std::string& component,
                                    const std::string& name) {
  std::int64_t total = 0;
  for (const auto& [key, h] : reg.histograms()) {
    if (key.component == component && key.name == name) total += h.count();
  }
  return total;
}

/// Writes a consolidated BENCH_*.json doc ({"experiment", "rows",
/// "headline"}) like E18-E20 produce, and says so on stdout.
inline void write_bench_doc(const std::string& out_path,
                            const std::string& experiment,
                            const std::vector<std::string>& rows,
                            const std::string& headline_json) {
  std::string doc =
      "{\"experiment\": " + common::JsonWriter::quoted(experiment) +
      ", \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) doc += ", ";
    doc += rows[i];
  }
  doc += "], \"headline\": " + headline_json + "}\n";
  std::ofstream out(out_path);
  out << doc;
  std::printf("wrote %s\n", out_path.c_str());
}

}  // namespace vcmr::bench
