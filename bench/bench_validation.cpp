// E7 — Replication/quorum validation under byzantine volunteers (§III.B).
//
// "each map work unit is sent to N different users ... there must be a
// quorum of identical outputs". We sweep the replication factor and the
// byzantine host fraction, reporting makespan, redundancy overhead (results
// executed per useful work unit), and whether any corrupted digest ever
// became canonical (it must not, as long as honest replicas reach quorum).
//
// E7b extends the sweep with the vcmr::rep adaptive replication policy:
// fixed 2-way quorum vs trust-earned single replicas with spot-checks, under
// churn, across byzantine fractions. A job train warms host reputations on
// one fleet; the last job's replication overhead (results created per
// validated WU), makespan, and invalid-canonical count — checked against a
// clean reference run's digests — come out as one JSON line per config.
//
// `--jobs N` runs the (config, seed) grid on a bench::SeedPool and reduces
// in seed order; stdout and the BENCH doc stay byte-identical to the
// `--jobs 1` historical serial loop (only the headline's wall fields vary).

#include <chrono>
#include <map>

#include "bench_util.h"
#include "seed_pool.h"
#include "volunteer/byzantine.h"

namespace vcmr {
namespace {

// --- E7: replication factor x byzantine fraction ---------------------------

struct QuorumConfig {
  int repl;
  int quorum;
  double faulty;
};

/// One (config, seed) simulation for the E7 sweep.
struct QuorumSeed {
  bool completed = false;
  double total_seconds = 0;
  double executed = 0;  ///< results reported (success or validate-error)
  double wall_s = 0;
};

QuorumSeed run_quorum_seed(const QuorumConfig& cfg, int i) {
  const auto t0 = std::chrono::steady_clock::now();
  core::Scenario s;
  s.seed = 100 + static_cast<std::uint64_t>(i);
  s.n_nodes = 20;
  s.n_maps = 20;
  s.n_reducers = 5;
  s.input_size = 1000LL * 1000 * 1000;
  s.project.target_nresults = cfg.repl;
  s.project.min_quorum = cfg.quorum;
  common::Rng rng(s.seed * 7 + 1);
  volunteer::ByzantineMix mix;
  mix.faulty_fraction = cfg.faulty;
  mix.error_probability = 0.75;
  s.error_probabilities = volunteer::error_probabilities(s.n_nodes, mix, rng);
  core::Cluster cluster(s);
  const core::RunOutcome out = cluster.run_job();
  QuorumSeed r;
  r.completed = out.metrics.completed;
  r.total_seconds = out.metrics.total_seconds;
  if (out.metrics.completed) {
    cluster.project().database().for_each_result(
        [&](const db::ResultRecord& rec) {
          if (rec.server_state == db::ServerState::kOver &&
              rec.outcome != db::Outcome::kAbandoned &&
              rec.outcome != db::Outcome::kCouldntSend) {
            ++r.executed;
          }
        });
  }
  r.wall_s = bench::wall_since(t0);
  return r;
}

/// Seed-order aggregate for one E7 config.
struct QuorumPoint {
  double total = 0, results = 0;
  int ok = 0;
};

/// Folds one seed in seed order; mirrors the historical loop, including the
/// mid-sweep sanity alert against the cumulative validator counters.
void fold_quorum_seed(const QuorumConfig& cfg, const QuorumSeed& r,
                      const obs::MetricsRegistry& cumulative,
                      QuorumPoint* point) {
  if (!r.completed) return;
  ++point->ok;
  point->total += r.total_seconds;
  point->results += r.executed;
  // Safety: the canonical digest is never a corrupted one. In modelled
  // mode, honest replicas of one WU agree exactly, so a canonical with
  // fewer than `quorum` honest agreeing replicas is impossible by
  // construction; spot-check validator counters.
  if (cumulative.counter_total("validator", "results_invalid") > 0 &&
      cfg.faulty == 0.0) {
    std::printf("  !! invalid results without byzantine hosts\n");
  }
}

void emit_quorum_point(const QuorumConfig& cfg, QuorumPoint point,
                       int n_seeds, const obs::MetricsRegistry& reg,
                       std::vector<std::string>& rows) {
  const int useful = 25;  // 20 map + 5 reduce WUs
  if (point.ok > 0) {
    point.total /= point.ok;
    point.results /= point.ok;
  }
  std::printf("%6d %7d %7.0f%% | %-12.0f | %10.1f | %9.2fx | %6d/%d\n",
              cfg.repl, cfg.quorum, cfg.faulty * 100, point.total,
              point.results, point.results / useful, point.ok, n_seeds);
  rows.push_back(bench::JsonRow()
                     .field("experiment", "E7")
                     .field("replication", cfg.repl)
                     .field("quorum", cfg.quorum)
                     .field("faulty_fraction", cfg.faulty)
                     .field("seeds", n_seeds)
                     .field("completed", point.ok)
                     .field("makespan_s", point.total)
                     .field("results_executed", point.results)
                     .field("redundancy_x", point.results / useful)
                     .field("results_valid",
                            reg.counter_total("validator", "results_valid"))
                     .field("results_invalid",
                            reg.counter_total("validator", "results_invalid"))
                     .str());
}

void run(int n_seeds, int jobs, std::vector<std::string>& rows,
         double* points_wall_s) {
  std::printf(
      "E7 — QUORUM VALIDATION vs BYZANTINE HOSTS (20 nodes, 20 maps, 5 "
      "reducers, 1 GB, %d seeds)\n\n",
      n_seeds);
  std::printf("%6s %7s %8s | %-12s | %10s | %10s | %9s\n", "repl", "quorum",
              "faulty", "Total (s)", "results", "redundancy", "jobs ok");
  std::printf("%s\n", std::string(84, '=').c_str());

  std::vector<QuorumConfig> configs;
  for (const auto& [repl, quorum] :
       std::vector<std::pair<int, int>>{{2, 2}, {3, 2}, {4, 3}}) {
    for (const double faulty : {0.0, 0.1, 0.25}) {
      configs.push_back({repl, quorum, faulty});
    }
  }

  if (jobs == 1) {
    // Historical serial path: one registry scope per config, seeds in
    // order on this thread; the invalid-result count is read back from
    // the validator's counters, not a private stat.
    for (const QuorumConfig& cfg : configs) {
      obs::ScopedMetricsRegistry metrics;
      QuorumPoint point;
      for (int i = 0; i < n_seeds; ++i) {
        const QuorumSeed r = run_quorum_seed(cfg, i);
        *points_wall_s += r.wall_s;
        fold_quorum_seed(cfg, r, metrics.registry(), &point);
      }
      emit_quorum_point(cfg, point, n_seeds, metrics.registry(), rows);
    }
  } else {
    bench::SeedPool pool(jobs);
    const int n_configs = static_cast<int>(configs.size());
    const auto results =
        pool.map_metered(n_configs * n_seeds, [&](int task) {
          return run_quorum_seed(
              configs[static_cast<std::size_t>(task / n_seeds)],
              task % n_seeds);
        });
    for (int c = 0; c < n_configs; ++c) {
      const QuorumConfig& cfg = configs[static_cast<std::size_t>(c)];
      obs::MetricsRegistry merged;
      QuorumPoint point;
      for (int i = 0; i < n_seeds; ++i) {
        const auto& m = results[static_cast<std::size_t>(c * n_seeds + i)];
        merged.merge_from(m.metrics);
        *points_wall_s += m.value.wall_s;
        fold_quorum_seed(cfg, m.value, merged, &point);
      }
      emit_quorum_point(cfg, point, n_seeds, merged, rows);
    }
  }
  std::printf(
      "\nExpected shape: redundancy stays near the replication factor when\n"
      "honest, and grows with the faulty fraction (tie-break replicas);\n"
      "higher replication buys tolerance at proportional makespan cost.\n");
}

// --- E7b: fixed vs adaptive replication -----------------------------------

constexpr int kJobsPerFleet = 8;  ///< warm-up train + measured last job

core::Scenario adaptive_scenario(std::uint64_t seed) {
  core::Scenario s;
  s.seed = seed;
  s.n_nodes = 16;
  s.n_maps = 8;
  s.n_reducers = 2;
  s.input_size = 50LL * 1000 * 1000;
  s.boinc_mr = true;
  s.time_limit = SimTime::hours(500);
  s.project.max_error_results = 10;
  s.project.max_total_results = 20;
  // Trust thresholds sized so honest hosts warm up within the job train.
  s.project.reputation.min_consecutive_valid = 5;
  s.project.reputation.error_rate_decay = 0.8;
  return s;
}

/// Canonical digest per WU name after a run — the honest answers when the
/// fleet is clean.
std::map<std::string, common::Digest128> canonical_digests(
    const core::Cluster& c) {
  std::map<std::string, common::Digest128> out;
  c.project().database().for_each_workunit([&](const db::WorkUnitRecord& w) {
    if (w.canonical_found) out[w.name] = w.canonical_digest;
  });
  return out;
}

struct AdaptiveConfig {
  rep::PolicyMode mode;
  double faulty;
};

/// One (config, seed) fleet pair for E7b: the clean reference train plus
/// the measured churned fleet. All registry reads happen inside the task
/// (under the per-seed scope), so the pooled path needs no merge.
struct AdaptiveSeed {
  int jobs_ok = 0;
  bool measured = false;
  double makespan = 0;
  double overhead = 0;
  std::int64_t invalid_canonicals = 0;
  std::int64_t spot_checks = 0;
  std::int64_t singles = 0;
  double wall_s = 0;
};

AdaptiveSeed run_adaptive_seed(const AdaptiveConfig& cfg, int i) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t seed = 500 + static_cast<std::uint64_t>(i);
  AdaptiveSeed out;

  // Clean reference fleet: same seed and job train, no faults, no churn —
  // its canonical digests are the ground truth.
  core::Cluster ref(adaptive_scenario(seed));
  for (int j = 0; j < kJobsPerFleet; ++j) ref.run_job();
  const auto truth = canonical_digests(ref);

  // The measured fleet gets its own registry scope (the clean reference
  // above must not pollute the counters read below).
  obs::ScopedMetricsRegistry metrics;
  core::Scenario s = adaptive_scenario(seed);
  s.project.reputation.mode = cfg.mode;
  volunteer::ChurnConfig churn;
  churn.mean_on = SimTime::hours(4);
  churn.mean_off = SimTime::minutes(30);
  s.churn = churn;
  common::Rng rng(seed * 7 + 1);
  volunteer::ByzantineMix mix;
  mix.faulty_fraction = cfg.faulty;
  mix.error_probability = 0.75;
  s.error_probabilities = volunteer::error_probabilities(s.n_nodes, mix, rng);

  core::Cluster cluster(s);
  core::RunOutcome last;
  for (int j = 0; j < kJobsPerFleet; ++j) {
    last = cluster.run_job();
    if (last.metrics.completed) ++out.jobs_ok;
  }

  for (const auto& [name, digest] : canonical_digests(cluster)) {
    const auto it = truth.find(name);
    if (it == truth.end() || digest != it->second) ++out.invalid_canonicals;
  }
  out.spot_checks = bench::counter("scheduler", "spot_checks");
  out.singles = bench::counter("scheduler", "trusted_singles");

  if (last.metrics.completed) {
    out.measured = true;
    out.makespan = last.metrics.total_seconds;
    // Replication overhead on the measured (warm) job: results created
    // per validated WU.
    const db::Database& db = cluster.project().database();
    int wus_validated = 0, results_created = 0;
    db.for_each_workunit([&](const db::WorkUnitRecord& w) {
      if (w.mr_job == last.job && w.canonical_found) ++wus_validated;
    });
    db.for_each_result([&](const db::ResultRecord& r) {
      if (db.workunit(r.wu).mr_job == last.job) ++results_created;
    });
    if (wus_validated > 0) {
      out.overhead = static_cast<double>(results_created) / wus_validated;
    }
  }
  out.wall_s = bench::wall_since(t0);
  return out;
}

/// Reports the clean-fleet replication overhead per policy through
/// `clean_overhead_out[0]` (fixed) and `[1]` (adaptive) for the headline.
void run_adaptive(int n_seeds, int jobs, std::vector<std::string>& rows,
                  double clean_overhead_out[2], double* points_wall_s) {
  bench::heading(common::strprintf(
      "E7b — FIXED vs ADAPTIVE REPLICATION (16 nodes, churn, %d-job train, "
      "%d seeds; JSON per config)",
      kJobsPerFleet, n_seeds));

  std::vector<AdaptiveConfig> configs;
  for (const rep::PolicyMode mode :
       {rep::PolicyMode::kFixed, rep::PolicyMode::kAdaptive}) {
    for (const double faulty : {0.0, 0.01, 0.10}) {
      configs.push_back({mode, faulty});
    }
  }

  // Per-seed results, config-major: every registry read already happened
  // inside the task, so serial and pooled paths share one reduction.
  std::vector<AdaptiveSeed> seeds;
  const int n_configs = static_cast<int>(configs.size());
  if (jobs == 1) {
    seeds.reserve(static_cast<std::size_t>(n_configs * n_seeds));
    for (const AdaptiveConfig& cfg : configs) {
      for (int i = 0; i < n_seeds; ++i) {
        seeds.push_back(run_adaptive_seed(cfg, i));
      }
    }
  } else {
    bench::SeedPool pool(jobs);
    seeds = pool.map(n_configs * n_seeds, [&](int task) {
      return run_adaptive_seed(
          configs[static_cast<std::size_t>(task / n_seeds)], task % n_seeds);
    });
  }

  for (int c = 0; c < n_configs; ++c) {
    const AdaptiveConfig& cfg = configs[static_cast<std::size_t>(c)];
    double overhead = 0, makespan = 0;
    std::int64_t invalid_canonicals = 0, spot_checks = 0, singles = 0;
    int jobs_ok = 0, measured = 0;
    for (int i = 0; i < n_seeds; ++i) {
      const AdaptiveSeed& r = seeds[static_cast<std::size_t>(c * n_seeds + i)];
      *points_wall_s += r.wall_s;
      jobs_ok += r.jobs_ok;
      invalid_canonicals += r.invalid_canonicals;
      spot_checks += r.spot_checks;
      singles += r.singles;
      if (!r.measured) continue;
      ++measured;
      makespan += r.makespan;
      overhead += r.overhead;
    }
    if (measured > 0) {
      overhead /= measured;
      makespan /= measured;
    }
    if (cfg.faulty == 0.0) {
      clean_overhead_out[cfg.mode == rep::PolicyMode::kAdaptive ? 1 : 0] =
          overhead;
    }
    bench::JsonRow row;
    row.field("experiment", "E7b")
        .field("policy", rep::to_string(cfg.mode))
        .field("faulty_fraction", cfg.faulty)
        .field("seeds", n_seeds)
        .field("jobs_per_fleet", kJobsPerFleet)
        .field("jobs_completed", jobs_ok)
        .field("replication_overhead", overhead)
        .field("makespan_s", makespan)
        .field("invalid_canonicals", invalid_canonicals)
        .field("trusted_singles", singles)
        .field("spot_checks", spot_checks);
    std::printf("%s\n", row.str().c_str());
    rows.push_back(row.str());
  }
  std::printf(
      "\nExpected shape: warm adaptive overhead falls toward ~1.1 results/WU\n"
      "(spot-checks only) on a clean fleet while fixed stays at >= 2; faulty\n"
      "hosts never earn trust, so invalid_canonicals stays 0 in both modes.\n");
}

}  // namespace
}  // namespace vcmr

int main(int argc, char** argv) {
  vcmr::bench::silence_logs();
  const int jobs = vcmr::bench::parse_jobs_flag(argc, argv);
  const int n_seeds = argc > 1 ? std::atoi(argv[1]) : 3;
  const char* out = argc > 2 ? argv[2] : "BENCH_VALIDATION.json";
  const auto t0 = std::chrono::steady_clock::now();
  double points_wall_s = 0;
  std::vector<std::string> rows;
  double clean_overhead[2] = {0, 0};
  try {
    vcmr::run(n_seeds, jobs, rows, &points_wall_s);
    vcmr::run_adaptive(n_seeds, jobs, rows, clean_overhead, &points_wall_s);
  } catch (const vcmr::bench::SeedPoolError& e) {
    std::fprintf(stderr, "error: sweep failed: %s\n", e.what());
    return 1;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  vcmr::bench::JsonRow headline;
  headline.field("seeds", n_seeds)
      .field("points", static_cast<int>(rows.size()))
      .field("fixed_clean_overhead", clean_overhead[0])
      .field("adaptive_clean_overhead", clean_overhead[1])
      .field("adaptive_overhead_saving_x",
             clean_overhead[1] > 0 ? clean_overhead[0] / clean_overhead[1]
                                   : 0.0)
      .field("jobs", jobs)
      .field("wall_s", wall_s)
      .field("points_wall_s", points_wall_s)
      .field("parallel_speedup_x", wall_s > 0 ? points_wall_s / wall_s : 0.0);
  vcmr::bench::write_bench_doc(out, "E7", rows, headline.str());
  return 0;
}
