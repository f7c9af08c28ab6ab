#pragma once
// Shared types of the benchmark runner: options, per-repetition results,
// the in-memory span log of the traced run, and the workload interface.
//
// A Workload is one seeded instance of a benchmark workload. Each
// repetition builds the simulation from scratch (set-up), runs it (run),
// and returns a fingerprint of its simulated outcome; the runner checks
// that every repetition of an instance reproduces it, so a
// nondeterministic or wrong run is caught.

#include <chrono>
#include <cstdint>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/trace.h"

namespace vcmr::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;             ///< self-test sizes: every workload in seconds
  std::string trace_out;         ///< Chrome trace file of the traced run
  bool corrupt_output = false;   ///< alter one word count before the oracle check
};

/// Simulated outcome of one repetition, rendered exactly (integers and
/// %.17g doubles) so equal strings mean bit-identical results.
using Fingerprint = std::map<std::string, std::string>;

struct LayerValue {
  double value = 0;
  std::string unit;
};

struct RepResult {
  double setup_s = 0;
  double run_s = 0;
  Fingerprint fingerprint;
  /// Per-layer values; filled by traced repetitions only.
  std::map<std::string, LayerValue> layers;
  /// Why the repetition's output is wrong; empty when it is correct.
  std::string error;
};

/// Wall-clock spans around the benchmark's calls into the simulator,
/// recorded in memory into a sim::TraceRecorder and written out once the
/// run ends. A disabled log records nothing, so untraced repetitions pay
/// one branch per call.
class SpanLog {
 public:
  /// Closes its span when destroyed.
  class Scope {
   public:
    Scope(SpanLog* log, std::size_t token) : log_(log), token_(token) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t token_;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) { enabled_ = on; }
  void set_run(int run) { run_ = run; }

  /// Opens a span named `name` nested in the innermost open span; its
  /// detail names the span, its parent and the repetition.
  Scope open(const char* name);

  std::size_t size() const { return size_; }
  /// Chrome trace-event JSON (obs::chrome_trace_json), one track per run.
  std::string chrome_trace() const;

 private:
  SimTime now() const;

  Clock::time_point origin_;
  bool enabled_ = false;
  int run_ = 0;
  std::size_t size_ = 0;
  sim::TraceRecorder recorder_;
  std::vector<std::size_t> open_;  ///< tokens of the open spans
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One full repetition. Traced repetitions record spans and layers.
  virtual RepResult rep(bool traced, SpanLog& spans) = 0;
};

/// One instance of each workload, its inputs generated from `seed`.
std::unique_ptr<Workload> make_shuffle_job(const Options& opt,
                                           std::uint64_t seed);
std::unique_ptr<Workload> make_volunteer_churn(const Options& opt,
                                               std::uint64_t seed);
std::unique_ptr<Workload> make_many_tasks(const Options& opt,
                                          std::uint64_t seed, SpanLog& spans);
std::unique_ptr<Workload> make_peer_churn(const Options& opt,
                                          std::uint64_t seed);

/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
/// %.17g, the form every reported number and fingerprint field uses.
std::string exact(double v);

}  // namespace vcmr::perfbench
