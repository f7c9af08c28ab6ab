// peer_churn: the network layer alone, at a fleet far larger than the job
// workloads. The benchmark drives sim::Simulation and net::Network itself:
// volunteer nodes (1 Mbit up / 8 Mbit down) replay seti_day-style on/off
// windows with a per-host phase jitter while ~N/4 senders keep random peer
// transfers in flight over a fixed simulated window. Flow components stay
// O(1), so this measures the allocator's per-call cost and memory, not the
// real stack; because the benchmark makes every start_flow / set_online
// call, the traced run times each one directly.

#include <algorithm>
#include <optional>

#include "bench.h"
#include "common/rng.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace vcmr::perfbench {
namespace {

/// One down window of a trace host, in simulated seconds.
struct Down {
  double at = 0;
  double up = 0;
};

/// Synthetic seti_day-style availability: per trace host, a quarter stay
/// always on; the rest alternate exponential on (mean 240 s) and off
/// (mean 40 s) periods, as tools/vcmr_tracegen draws them.
std::vector<std::vector<Down>> make_trace(int trace_hosts, double horizon_s,
                                          common::Rng& rng) {
  std::vector<std::vector<Down>> trace(static_cast<std::size_t>(trace_hosts));
  for (auto& host : trace) {
    if (rng.chance(0.25)) continue;
    double t = 0;
    bool on = rng.chance(240.0 / 280.0);
    while (t < horizon_s) {
      const double len = rng.exponential(on ? 240.0 : 40.0);
      if (!on) host.push_back({t, t + len});
      t += len;
      on = !on;
    }
  }
  return trace;
}

struct Timings {
  std::vector<double> start_flow_us;
  std::vector<double> set_online_us;
};

/// One simulated fleet: nodes, scheduled churn, and the transfer senders.
class Fleet {
 public:
  Fleet(int hosts, double window_s, const std::vector<std::vector<Down>>& trace,
        std::uint64_t seed, Timings* timings)
      : sim_(seed), net_(sim_), rng_(seed ^ 0x9e3779b97f4a7c15ULL),
        timings_(timings), end_(SimTime::seconds(window_s)) {
    net::NodeConfig cfg;
    cfg.up_bps = 1e6 / 8;
    cfg.down_bps = 8e6 / 8;
    nodes_.reserve(static_cast<std::size_t>(hosts));
    for (int i = 0; i < hosts; ++i) nodes_.push_back(net_.add_node(cfg));

    common::Rng jitter(seed + 99);
    for (int i = 0; i < hosts; ++i) {
      const double shift = jitter.uniform() * 60.0;
      const NodeId node = nodes_[static_cast<std::size_t>(i)];
      for (const Down& d : trace[static_cast<std::size_t>(i) % trace.size()]) {
        const SimTime down = SimTime::seconds(d.at + shift);
        const SimTime up = SimTime::seconds(d.up + shift);
        if (down < end_) sim_.at(down, [this, node] { set_online(node, false); });
        if (up < end_) sim_.at(up, [this, node] { set_online(node, true); });
      }
    }
    const int senders = std::max(4, hosts / 4);
    for (int i = 0; i < senders; ++i) {
      schedule_next(SimTime::seconds(rng_.uniform() * 10.0));
    }
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  sim::Simulation& sim() { return sim_; }
  net::Network& net() { return net_; }
  SimTime end() const { return end_; }

  std::int64_t started = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t toggles = 0;

 private:
  void set_online(NodeId node, bool on) {
    ++toggles;
    if (!timings_) return net_.set_online(node, on);
    const auto t0 = Clock::now();
    net_.set_online(node, on);
    timings_->set_online_us.push_back(seconds_since(t0) * 1e6);
  }

  void schedule_next(SimTime delay) {
    sim_.after(delay, [this] { start_one(); });
  }

  void start_one() {
    const auto pick = [this] {
      return nodes_[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(nodes_.size()) - 1))];
    };
    net::FlowSpec spec;
    spec.src = pick();
    do {
      spec.dst = pick();
    } while (spec.dst == spec.src);
    spec.bytes = 256 * 1024 + rng_.uniform_int(0, 1792 * 1024);
    spec.priority = rng_.chance(0.2) ? net::FlowPriority::kBackground
                                     : net::FlowPriority::kForeground;
    const SimTime rest = SimTime::seconds(0.1 + rng_.uniform() * 2.0);
    spec.on_complete = [this, rest] {
      ++completed;
      schedule_next(rest);
    };
    spec.on_fail = [this, rest](net::NetError) {
      ++failed;
      schedule_next(rest);
    };
    ++started;
    if (!timings_) {
      net_.start_flow(std::move(spec));
      return;
    }
    const auto t0 = Clock::now();
    net_.start_flow(std::move(spec));
    timings_->start_flow_us.push_back(seconds_since(t0) * 1e6);
  }

  sim::Simulation sim_;
  net::Network net_;
  std::vector<NodeId> nodes_;
  common::Rng rng_;
  Timings* timings_;
  SimTime end_;
};

double sum(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return s;
}

class PeerChurn : public Workload {
 public:
  PeerChurn(int hosts, double window_s, std::uint64_t seed)
      : hosts_(hosts), window_s_(window_s), seed_(seed) {
    common::RngStreamFactory streams(seed);
    common::Rng rng = streams.stream("perfbench/availability");
    trace_ = make_trace(kTraceHosts, window_s + 60.0, rng);
  }

  RepResult rep(bool traced, SpanLog& spans) override {
    RepResult r;
    Timings timings;
    const auto t0 = Clock::now();
    std::optional<Fleet> fleet;
    {
      auto sp = spans.open("fleet build: Network::add_node + churn schedule");
      fleet.emplace(hosts_, window_s_, trace_, seed_,
                    traced ? &timings : nullptr);
    }
    r.setup_s = seconds_since(t0);
    sim::Simulation& sim = fleet->sim();
    net::Network& net = fleet->net();

    std::vector<double> slice_ms;
    double flows_sum = 0;
    double flows_max = 0;
    auto last_wall = Clock::now();
    std::optional<sim::PeriodicTask> sampler;
    if (traced) {
      sampler.emplace(sim, SimTime::seconds(kSliceS), [&] {
        const auto now = Clock::now();
        slice_ms.push_back(
            std::chrono::duration<double>(now - last_wall).count() * 1e3);
        last_wall = now;
        const double flows = static_cast<double>(net.active_flow_count());
        flows_sum += flows;
        flows_max = std::max(flows_max, flows);
      });
    }

    const auto t1 = Clock::now();
    last_wall = t1;
    {
      auto sp = spans.open("sim::Simulation::run");
      sim.run(fleet->end());
    }
    r.run_s = seconds_since(t1);
    std::int64_t sampler_ticks = 0;
    if (sampler) {
      sampler_ticks = sampler->fired();
      sampler->cancel();
    }

    const std::int64_t events =
        static_cast<std::int64_t>(sim.events_executed()) - sampler_ticks;
    if (fleet->completed == 0) r.error = "no transfer completed";
    Fingerprint& f = r.fingerprint;
    f["events"] = std::to_string(events);
    f["flows_started"] = std::to_string(fleet->started);
    f["flows_completed"] = std::to_string(fleet->completed);
    f["flows_failed"] = std::to_string(fleet->failed);
    f["flows_active_at_end"] = std::to_string(net.active_flow_count());
    f["set_online_calls"] = std::to_string(fleet->toggles);
    f["net_bytes"] = std::to_string(net.total_bytes_transferred());
    if (!traced) return r;

    auto& L = r.layers;
    const auto set = [&L](const char* name, double v, const char* unit) {
      L[name] = {v, unit};
    };
    set("sim.events_executed", static_cast<double>(events), "count");
    set("sim.us_per_event", r.run_s * 1e6 / static_cast<double>(events), "us");
    set("sim.slice_ms_p50", quantile(slice_ms, 0.5), "ms");
    set("sim.slice_ms_p95", quantile(slice_ms, 0.95), "ms");
    set("sim.slice_samples", static_cast<double>(slice_ms.size()), "count");
    set("net.active_flows_mean",
        slice_ms.empty() ? 0.0 : flows_sum / static_cast<double>(slice_ms.size()),
        "count");
    set("net.active_flows_max", flows_max, "count");
    set("net.start_flow_us_p50", quantile(timings.start_flow_us, 0.5), "us");
    set("net.start_flow_us_p99", quantile(timings.start_flow_us, 0.99), "us");
    set("net.set_online_us_p50", quantile(timings.set_online_us, 0.5), "us");
    set("net.set_online_us_p99", quantile(timings.set_online_us, 0.99), "us");
    set("net.call_share",
        (sum(timings.start_flow_us) + sum(timings.set_online_us)) /
            (r.run_s * 1e6),
        "ratio");
    const double ended = static_cast<double>(fleet->completed + fleet->failed);
    set("net.flow_ok_ratio",
        ended > 0 ? static_cast<double>(fleet->completed) / ended : 0.0,
        "ratio");
    set("net.build_s", r.setup_s, "s");
    set("net.bytes_transferred",
        static_cast<double>(net.total_bytes_transferred()), "bytes");
    return r;
  }

 private:
  static constexpr double kSliceS = 1;
  /// Distinct availability histories the fleet replays. Enough of them that
  /// the fleet's total downtime, and with it the run's work, barely varies
  /// from seed to seed.
  static constexpr int kTraceHosts = 1024;

  int hosts_;
  double window_s_;
  std::uint64_t seed_;
  std::vector<std::vector<Down>> trace_;
};

}  // namespace

std::unique_ptr<Workload> make_peer_churn(const Options& opt,
                                          std::uint64_t seed) {
  return std::make_unique<PeerChurn>(opt.tiny ? 500 : 10000,
                                     opt.tiny ? 60.0 : 300.0, seed);
}

}  // namespace vcmr::perfbench
