// vcmr_perfbench — runs one benchmark workload for a wall-clock budget and
// prints one JSON line: attempts, failures, the simulated fingerprint of
// every instance and the metrics. run.py builds this binary, checks the
// fingerprints against the pinned ones and prints the benchmark's result.
//
//   vcmr_perfbench --workload <shuffle_job|volunteer_churn|many_tasks|
//                  peer_churn> --seed <n> --seconds <s> --trace <0|1>
//                  [--tiny] [--trace-out <file>] [--corrupt-output]
//
// A run builds several instances of the workload, instance i with inputs
// from seed 1000*n + i, runs each once untimed (warm-up), then makes
// round-robin passes over them until the budget is spent. Metrics are the
// median over instances of each instance's median.
//
// --trace 0 reports set-up time, run time and peak RSS. --trace 1
// alternates untraced and traced runs and reports the per-layer metrics of
// the traced ones plus the tracing overhead; --trace-out writes the traced
// spans as Chrome trace JSON.
// Every run's fingerprint must equal its instance's first one: the sampler
// of a traced run only adds its own ticks to the event count, which the
// fingerprint excludes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "common/json.h"
#include "common/logging.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/trace.h"

namespace vcmr::perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

std::string exact(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

SimTime SpanLog::now() const {
  return SimTime::micros(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            origin_)
          .count());
}

SpanLog::Scope::~Scope() {
  if (log_ != nullptr) {
    log_->recorder_.end_span(token_, log_->now());
    log_->open_.pop_back();
  }
}

SpanLog::Scope SpanLog::open(const char* name) {
  if (!enabled_) return Scope(nullptr, 0);
  const std::string parent =
      open_.empty() ? "-1" : std::to_string(open_.back());
  const std::string actor =
      run_ == 0 ? "prepare" : "traced run " + std::to_string(run_);
  const std::size_t token = recorder_.begin_span(
      now(), actor, name,
      "id=" + std::to_string(size_) + " parent=" + parent +
          " run=" + std::to_string(run_));
  ++size_;
  open_.push_back(token);
  return Scope(this, token);
}

std::string SpanLog::chrome_trace() const {
  return obs::chrome_trace_json(recorder_);
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "vcmr_perfbench: %s\nusage: vcmr_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--trace-out <file>] [--corrupt-output]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--corrupt-output") {
      o.corrupt_output = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o, std::uint64_t seed,
                                        SpanLog& spans) {
  if (o.workload == "shuffle_job") return make_shuffle_job(o, seed);
  if (o.workload == "volunteer_churn") return make_volunteer_churn(o, seed);
  if (o.workload == "many_tasks") return make_many_tasks(o, seed, spans);
  if (o.workload == "peer_churn") return make_peer_churn(o, seed);
  usage(("unknown workload " + o.workload).c_str());
}

/// Seeded instances per run: averaging over several inputs keeps the
/// metrics of one --seed close to those of another.
int instances_of(const Options& o) {
  if (o.tiny) return 2;
  if (o.workload == "shuffle_job" || o.workload == "volunteer_churn") {
    return 12;
  }
  if (o.workload == "peer_churn") return 6;
  return 4;
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

std::string json_string_map(const std::map<std::string, std::string>& m,
                            bool quote_values) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += common::JsonWriter::quoted(k) + ": " +
           (quote_values ? common::JsonWriter::quoted(v) : v);
  }
  return out + "}";
}

std::string metrics_json(const std::map<std::string, LayerValue>& m) {
  std::map<std::string, std::string> rendered;
  for (const auto& [k, v] : m) {
    rendered[k] = "{\"value\": " + exact(v.value) +
                  ", \"unit\": " + common::JsonWriter::quoted(v.unit) + "}";
  }
  return json_string_map(rendered, false);
}

std::string env_json() {
  std::map<std::string, std::string> env;
  env["compiler"] = VCMR_BENCH_COMPILER;
  env["build_type"] = VCMR_BENCH_BUILD_TYPE;
  env["cxx_flags"] = VCMR_BENCH_CXX_FLAGS;
#ifdef __OPTIMIZE__
  env["optimized"] = "yes";
#else
  env["optimized"] = "no";
#endif
#ifdef NDEBUG
  env["asserts"] = "off";
#else
  env["asserts"] = "on";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  env["sanitizer"] = "yes";
#else
  env["sanitizer"] = "no";
#endif
  return json_string_map(env, true);
}

/// One seeded instance of the workload and everything measured on it.
struct Instance {
  std::uint64_t seed = 0;
  std::unique_ptr<Workload> workload;
  std::optional<Fingerprint> reference;
  std::vector<double> setup_s;
  std::vector<double> run_untraced;
  std::vector<double> run_traced;
  std::map<std::string, std::vector<double>> layers;
};

/// A /proc/self/status memory field (VmHWM, VmRSS) in MiB; nullopt where
/// /proc is missing.
std::optional<double> status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;  // kB
    }
  }
  return std::nullopt;
}

/// Peak resident set of this process image, in MiB. obs::peak_rss_bytes()
/// reads getrusage's ru_maxrss, which on Linux keeps the parent's
/// high-water mark across fork and exec, so a runner started by a larger
/// process (run.py) would report the parent's peak. VmHWM covers only this
/// address space.
double peak_rss_mb() {
  return status_mb("VmHWM").value_or(
      static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0));
}

/// Median over instances of each instance's median of `samples`: a seed
/// whose jobs happen to run unusually cheap or dear moves it little.
template <typename F>
double median_of_medians(const std::vector<Instance>& insts, F samples) {
  std::vector<double> per_instance;
  for (const Instance& in : insts) per_instance.push_back(median(samples(in)));
  return median(per_instance);
}

int run(const Options& opt) {
  common::LogConfig::instance().set_level(common::LogLevel::kOff);
  const auto origin = Clock::now();
  SpanLog spans(origin);
  spans.set_enabled(opt.trace);
  const int n_instances = instances_of(opt);
  std::vector<Instance> insts(static_cast<std::size_t>(n_instances));
  for (int i = 0; i < n_instances; ++i) {
    Instance& in = insts[static_cast<std::size_t>(i)];
    in.seed = opt.seed * 1000 + static_cast<std::uint64_t>(i);
    in.workload = make_workload(opt, in.seed, spans);
  }
  spans.set_enabled(false);
  // What the process holds before the first simulation: the binary and the
  // benchmark's own inputs (the many_tasks corpora). Part of peak_rss_mb.
  const double prepared_rss_mb = status_mb("VmRSS").value_or(0.0);

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  const auto fail = [&](const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  };

  int traced_runs = 0;
  std::map<std::string, std::string> layer_units;
  // Runs `in` once; timed runs add their samples, the warm-up run only
  // sets the reference fingerprint.
  const auto attempt = [&](Instance& in, bool traced, bool timed) {
    ++attempted;
    spans.set_enabled(traced);
    spans.set_run(traced ? ++traced_runs : 0);
    try {
      RepResult r = in.workload->rep(traced, spans);
      if (!in.reference) in.reference = r.fingerprint;
      if (r.error.empty() && r.fingerprint != *in.reference) {
        r.error = traced ? "traced fingerprint differs from the untraced run"
                         : "fingerprint differs between repetitions";
      }
      if (!r.error.empty()) {
        fail("seed " + std::to_string(in.seed) + ": " + r.error);
      } else if (timed) {
        in.setup_s.push_back(r.setup_s);
        (traced ? in.run_traced : in.run_untraced).push_back(r.run_s);
        for (const auto& [name, v] : r.layers) {
          in.layers[name].push_back(v.value);
          layer_units[name] = v.unit;
        }
      }
    } catch (const std::exception& e) {
      fail("seed " + std::to_string(in.seed) + ": " + e.what());
    }
    spans.set_enabled(false);
  };

  // Warm-up: one untimed run per instance fills the allocator and caches
  // and fixes the fingerprint every later run must reproduce.
  for (Instance& in : insts) attempt(in, false, false);
  // Round-robin passes over the instances until the budget is spent, so a
  // slow spell of the machine lands on every instance alike.
  const auto start = Clock::now();
  for (int pass = 0; failed < 3; ++pass) {
    if (pass >= 2 && seconds_since(start) >= opt.seconds) break;
    for (Instance& in : insts) {
      attempt(in, false, true);
      if (opt.trace) attempt(in, true, true);
    }
  }

  std::map<std::string, LayerValue> metrics;
  const double untraced = median_of_medians(
      insts, [](const Instance& in) { return in.run_untraced; });
  if (!opt.trace) {
    metrics["setup_s"] = {
        median_of_medians(insts, [](const Instance& in) { return in.setup_s; }),
        "s"};
    metrics["run_s"] = {untraced, "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    for (const auto& [name, unit] : layer_units) {
      const auto samples = [&name](const Instance& in) {
        const auto it = in.layers.find(name);
        return it == in.layers.end() ? std::vector<double>{} : it->second;
      };
      metrics[name] = {median_of_medians(insts, samples), unit};
    }
    const double traced = median_of_medians(
        insts, [](const Instance& in) { return in.run_traced; });
    metrics["trace.overhead_frac"] = {
        untraced > 0 ? traced / untraced - 1.0 : 0.0, "ratio"};
  }

  if (opt.trace && !opt.trace_out.empty()) {
    std::string doc = spans.chrome_trace();
    // Chrome trace JSON allows extra top-level keys; the metrics ride along
    // so one file holds the spans and every per-layer number.
    doc.pop_back();
    doc += ", \"otherData\": {\"workload\": " +
           common::JsonWriter::quoted(opt.workload) +
           ", \"seed\": " + std::to_string(opt.seed) +
           ", \"metrics\": " + metrics_json(metrics) + "}}";
    std::ofstream out(opt.trace_out);
    out << doc << "\n";
    if (!out) {
      std::fprintf(stderr, "vcmr_perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
  }

  const auto join = [](const std::vector<std::string>& parts) {
    std::string out = "[";
    for (const std::string& p : parts) {
      if (out.size() > 1) out += ", ";
      out += p;
    }
    return out + "]";
  };
  std::vector<std::string> fingerprints, seeds, samples, errs;
  for (const Instance& in : insts) {
    fingerprints.push_back(
        json_string_map(in.reference.value_or(Fingerprint{}), true));
    seeds.push_back(std::to_string(in.seed));
    std::vector<std::string> xs;
    for (double x : in.run_untraced) xs.push_back(exact(x));
    samples.push_back(join(xs));
  }
  for (const std::string& e : errors) {
    errs.push_back(common::JsonWriter::quoted(e));
  }
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"tiny\": %s, \"trace\": %s, "
      "\"attempted\": %lld, \"failed\": %lld, \"errors\": %s, "
      "\"instance_seeds\": %s, \"fingerprints\": %s, \"metrics\": %s, "
      "\"env\": %s, \"traced_runs\": %d, \"spans\": %zu, "
      "\"prepared_rss_mb\": %s, \"run_s_samples\": %s}\n",
      common::JsonWriter::quoted(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.tiny ? "true" : "false",
      opt.trace ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), join(errs).c_str(), join(seeds).c_str(),
      join(fingerprints).c_str(), metrics_json(metrics).c_str(),
      env_json().c_str(), traced_runs, spans.size(),
      exact(prepared_rss_mb).c_str(), join(samples).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace vcmr::perfbench

int main(int argc, char** argv) {
  try {
    return vcmr::perfbench::run(vcmr::perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcmr_perfbench: %s\n", e.what());
    return 1;
  }
}
