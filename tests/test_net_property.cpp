// Property tests over the network substrate: randomized flow workloads
// must conserve bytes, never over-allocate a link, and replay identically
// for the same seed; the allocator must match an independent reference
// water-filling after every event.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace vcmr::net {
namespace {

struct WorkloadResult {
  Bytes completed_bytes = 0;
  int completed = 0;
  int failed = 0;
  double finish_seconds = 0;
  std::vector<Bytes> per_node_sent;
};

/// Drives a random flow workload: n nodes, k flows with random endpoints,
/// sizes, priorities, and start times.
WorkloadResult run_workload(std::uint64_t seed, int n_nodes, int n_flows,
                            double failure_rate = 0.0) {
  sim::Simulation sim(seed);
  Network net(sim);
  common::Rng rng = sim.rng_stream("workload");
  std::vector<NodeId> nodes;
  for (int i = 0; i < n_nodes; ++i) {
    NodeConfig c;
    c.up_bps = rng.uniform(1e6, 20e6);
    c.down_bps = rng.uniform(1e6, 20e6);
    c.latency = SimTime::millis(rng.uniform_int(1, 50));
    nodes.push_back(net.add_node(c));
  }
  net.set_flow_failure_rate(failure_rate);

  WorkloadResult res;
  for (int i = 0; i < n_flows; ++i) {
    const auto src = static_cast<std::size_t>(rng.uniform_int(0, n_nodes - 1));
    auto dst = static_cast<std::size_t>(rng.uniform_int(0, n_nodes - 1));
    if (dst == src) dst = (dst + 1) % static_cast<std::size_t>(n_nodes);
    const Bytes bytes = rng.uniform_int(1000, 5'000'000);
    const SimTime start = SimTime::seconds(rng.uniform(0, 5));
    const bool background = rng.chance(0.3);
    sim.at(start, [&, src, dst, bytes, background] {
      FlowSpec fs;
      fs.src = nodes[src];
      fs.dst = nodes[dst];
      fs.bytes = bytes;
      fs.priority = background ? FlowPriority::kBackground
                               : FlowPriority::kForeground;
      fs.on_complete = [&, bytes] {
        ++res.completed;
        res.completed_bytes += bytes;
      };
      fs.on_fail = [&](NetError) { ++res.failed; };
      net.start_flow(std::move(fs));
    });
  }
  sim.run();
  res.finish_seconds = sim.now().as_seconds();
  for (const NodeId n : nodes) {
    res.per_node_sent.push_back(net.traffic(n).bytes_sent);
  }

  // Conservation: every flow either completed or failed, and completed
  // bytes are fully accounted in per-node counters.
  EXPECT_EQ(res.completed + res.failed, n_flows);
  Bytes total_sent = 0;
  for (const Bytes b : res.per_node_sent) total_sent += b;
  if (failure_rate == 0.0) {
    EXPECT_EQ(total_sent, res.completed_bytes);
  } else {
    EXPECT_GE(total_sent, res.completed_bytes);  // partial failed progress
  }
  return res;
}

class NetFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetFuzz, RandomWorkloadConservesBytes) {
  const WorkloadResult res = run_workload(GetParam(), 8, 60);
  EXPECT_EQ(res.failed, 0);
  EXPECT_GT(res.completed_bytes, 0);
}

TEST_P(NetFuzz, RandomWorkloadWithFailures) {
  const WorkloadResult res = run_workload(GetParam(), 8, 60, 0.3);
  EXPECT_GT(res.failed, 0);
  EXPECT_GT(res.completed, 0);
}

TEST_P(NetFuzz, ReplayIsBitIdentical) {
  const WorkloadResult a = run_workload(GetParam(), 10, 80);
  const WorkloadResult b = run_workload(GetParam(), 10, 80);
  EXPECT_EQ(a.completed_bytes, b.completed_bytes);
  EXPECT_EQ(a.finish_seconds, b.finish_seconds);
  EXPECT_EQ(a.per_node_sent, b.per_node_sent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetFuzz,
                         ::testing::Values(1, 5, 17, 23, 99, 12345));

// --- reference allocator -----------------------------------------------------
//
// The historical two-class progressive filling over std::map, kept
// independent of Network's flat allocator: the network's rates must equal
// these bit for bit. It sees the network only through public accessors.

struct RefFlow {
  NodeId src, dst;
  std::optional<NodeId> relay;
  FlowPriority priority = FlowPriority::kForeground;
};

std::vector<std::int64_t> ref_resources(const RefFlow& f) {
  // Resource keys: +id = uplink, -id-1 = downlink.
  std::vector<std::int64_t> r{f.src.value(), -f.dst.value() - 1};
  if (f.relay) {
    r.push_back(-f.relay->value() - 1);
    r.push_back(f.relay->value());
  }
  return r;
}

double ref_capacity(const Network& net, std::int64_t key) {
  const NodeId id{key >= 0 ? key : -key - 1};
  return (key >= 0 ? net.up_bps(id) : net.down_bps(id)) * net.link_scale(id);
}

std::map<FlowId, double> reference_rates(
    const Network& net, const std::map<FlowId, RefFlow>& flows) {
  std::map<FlowId, double> rate;
  std::map<std::int64_t, double> cap;  // remaining capacity per resource
  for (const auto& [id, f] : flows) {
    rate[id] = 0.0;
    for (const auto r : ref_resources(f)) cap.emplace(r, ref_capacity(net, r));
  }
  for (const FlowPriority cls :
       {FlowPriority::kForeground, FlowPriority::kBackground}) {
    std::map<FlowId, const RefFlow*> pending;
    std::map<std::int64_t, int> users;  // resource -> #pending flows
    for (const auto& [id, f] : flows) {
      if (f.priority != cls) continue;
      pending.emplace(id, &f);
      for (const auto r : ref_resources(f)) ++users[r];
    }
    while (!pending.empty()) {
      // Bottleneck: smallest fair share, ties to the lowest key.
      double best_share = std::numeric_limits<double>::infinity();
      std::int64_t best_r = 0;
      for (const auto& [r, n] : users) {
        if (n <= 0) continue;
        const double share = std::max(0.0, cap[r]) / n;
        if (share < best_share) {
          best_share = share;
          best_r = r;
        }
      }
      if (!std::isfinite(best_share)) break;
      for (auto it = pending.begin(); it != pending.end();) {
        const auto rs = ref_resources(*it->second);
        if (std::find(rs.begin(), rs.end(), best_r) == rs.end()) {
          ++it;
          continue;
        }
        rate[it->first] = best_share;
        for (const auto r : rs) {
          cap[r] -= best_share;
          --users[r];
        }
        it = pending.erase(it);
      }
    }
  }
  // The network stores sub-millibyte/s shares as a stall.
  for (auto& [id, r] : rate) {
    if (r < 1e-3) r = 0.0;
  }
  return rate;
}

/// Starts flows on behalf of a test, remembering each one's shape, and
/// compares every active flow's rate with reference_rates() on demand.
class ReferenceCheck {
 public:
  explicit ReferenceCheck(Network& net) : net_(net) {}

  FlowId start(FlowSpec fs) {
    const RefFlow shape{fs.src, fs.dst, fs.relay, fs.priority};
    const FlowId id = net_.start_flow(std::move(fs));
    flows_.emplace(id, shape);
    return id;
  }

  /// Meant to run after every event (Simulation::run_until's predicate).
  void check() {
    std::erase_if(flows_, [this](const auto& kv) {
      return !net_.flow_active(kv.first);
    });
    ASSERT_EQ(net_.active_flow_count(), flows_.size());
    for (const auto& [id, want] : reference_rates(net_, flows_)) {
      EXPECT_EQ(net_.flow_rate(id), want) << "flow " << id.value();
    }
    ++checks_;
  }

  /// Runs the simulation to completion, checking after every event.
  void run(sim::Simulation& sim) {
    sim.run_until([this] {
      check();
      return false;
    });
  }

  int checks() const { return checks_; }

 private:
  Network& net_;
  std::map<FlowId, RefFlow> flows_;
  int checks_ = 0;
};

// --- incremental == global allocation equivalence --------------------------
//
// The incremental allocator re-levels only the dirty connected component and
// leaves every other flow's rate, anchor, and scheduled completion event
// untouched. These runs pin that this is *exactly* equivalent — per-flow
// rates, completion/failure times, and traffic counters bit-identical — to
// re-levelling globally on every change, across randomized schedules that
// mix flow starts (zero-byte, relayed, background), cancels, completions,
// link degradation, partitions, and node outages.

struct MixedTrace {
  /// (flow index, finish time in µs, status): status 0 = completed,
  /// 1 + NetError otherwise.
  std::vector<std::tuple<int, std::int64_t, int>> outcomes;
  /// flow_rate() for every started flow, sampled at fixed instants.
  std::vector<double> sampled_rates;
  std::vector<Bytes> sent, received, relayed;
  Bytes total_bytes = 0;
  std::int64_t finish_us = 0;

  bool operator==(const MixedTrace&) const = default;
};

/// With `reference_checks` set, every event is followed by a ReferenceCheck
/// and the number of checks made is stored there.
MixedTrace run_mixed_schedule(std::uint64_t seed, AllocMode mode,
                              bool check_alloc,
                              int* reference_checks = nullptr) {
  sim::Simulation sim(seed);
  Network net(sim);
  ReferenceCheck ref(net);
  net.set_alloc_mode(mode);
  net.set_check_alloc(check_alloc);
  common::Rng rng = sim.rng_stream("mixed");

  constexpr int kNodes = 12;
  constexpr int kFlows = 70;
  std::vector<NodeId> nodes;
  for (int i = 0; i < kNodes; ++i) {
    NodeConfig c;
    c.up_bps = rng.uniform(1e6, 20e6);
    c.down_bps = rng.uniform(1e6, 20e6);
    nodes.push_back(net.add_node(c));
  }
  net.set_flow_failure_rate(0.2);  // exercises the injected-failure paths

  MixedTrace res;
  auto ids = std::make_shared<std::vector<FlowId>>();
  for (int i = 0; i < kFlows; ++i) {
    const auto src = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
    auto dst = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
    if (dst == src) dst = (dst + 1) % kNodes;
    // A few zero-byte flows (grep-style empty partitions) hit the milestone
    // boundary; a few relayed flows couple four resources at once.
    const Bytes bytes = rng.chance(0.1) ? 0 : rng.uniform_int(1000, 8'000'000);
    const bool background = rng.chance(0.3);
    std::optional<NodeId> relay;
    if (rng.chance(0.15)) {
      const auto r = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
      if (r != src && r != dst) relay = nodes[r];
    }
    const SimTime start = SimTime::seconds(rng.uniform(0, 6));
    sim.at(start, [&res, &ref, &nodes, ids, i, src, dst, bytes, background,
                   relay, &sim] {
      FlowSpec fs;
      fs.src = nodes[src];
      fs.dst = nodes[dst];
      fs.bytes = bytes;
      fs.priority = background ? FlowPriority::kBackground
                               : FlowPriority::kForeground;
      fs.relay = relay;
      fs.on_complete = [&res, &sim, i] {
        res.outcomes.emplace_back(i, sim.now().as_micros(), 0);
      };
      fs.on_fail = [&res, &sim, i](NetError e) {
        res.outcomes.emplace_back(i, sim.now().as_micros(),
                                  1 + static_cast<int>(e));
      };
      ids->push_back(ref.start(std::move(fs)));
    });
  }
  // Cancels of random flows (no-ops when already finished).
  for (int i = 0; i < 10; ++i) {
    const auto victim = static_cast<std::size_t>(rng.uniform_int(0, kFlows - 1));
    sim.at(SimTime::seconds(rng.uniform(1, 8)), [&net, ids, victim] {
      if (victim < ids->size()) net.cancel_flow((*ids)[victim]);
    });
  }
  // Link degradation and restoration.
  for (int i = 0; i < 8; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
    const double scale = rng.uniform(0.2, 1.0);
    sim.at(SimTime::seconds(rng.uniform(0.5, 7)), [&net, &nodes, n, scale] {
      net.set_link_scale(nodes[n], scale);
    });
  }
  // A partition that forms and heals, and a node outage.
  {
    const auto p = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
    sim.at(SimTime::seconds(rng.uniform(2, 5)), [&net, &nodes, p] {
      net.set_partition_class(nodes[p], 1);
    });
    sim.at(SimTime::seconds(rng.uniform(6, 9)), [&net, &nodes, p] {
      net.set_partition_class(nodes[p], 0);
    });
    const auto o = static_cast<std::size_t>(rng.uniform_int(0, kNodes - 1));
    sim.at(SimTime::seconds(rng.uniform(3, 6)), [&net, &nodes, o] {
      net.set_online(nodes[o], false);
    });
  }
  // Rate samples at fixed instants: out-of-component flows must hold their
  // exact rates between re-levelings.
  for (int s = 1; s <= 16; ++s) {
    sim.at(SimTime::seconds(s * 0.5), [&res, &net, ids] {
      for (const FlowId id : *ids) res.sampled_rates.push_back(net.flow_rate(id));
    });
  }

  if (reference_checks != nullptr) {
    ref.run(sim);
    *reference_checks = ref.checks();
  } else {
    sim.run();
  }
  res.finish_us = sim.now().as_micros();
  for (const NodeId n : nodes) {
    res.sent.push_back(net.traffic(n).bytes_sent);
    res.received.push_back(net.traffic(n).bytes_received);
    res.relayed.push_back(net.traffic(n).bytes_relayed);
  }
  res.total_bytes = net.total_bytes_transferred();
  return res;
}

class AllocEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocEquivalence, IncrementalMatchesGlobalBitForBit) {
  // The incremental run doubles as oracle coverage: with check_alloc on,
  // every reallocation is cross-checked against a fresh global water-fill.
  const MixedTrace inc =
      run_mixed_schedule(GetParam(), AllocMode::kIncremental, true);
  const MixedTrace glob =
      run_mixed_schedule(GetParam(), AllocMode::kGlobal, false);
  EXPECT_EQ(inc.outcomes, glob.outcomes);
  EXPECT_EQ(inc.sampled_rates, glob.sampled_rates);
  EXPECT_EQ(inc.sent, glob.sent);
  EXPECT_EQ(inc.received, glob.received);
  EXPECT_EQ(inc.relayed, glob.relayed);
  EXPECT_EQ(inc.total_bytes, glob.total_bytes);
  EXPECT_EQ(inc.finish_us, glob.finish_us);
}

TEST_P(AllocEquivalence, MatchesReferenceAllocatorAfterEveryEvent) {
  int checks = 0;
  const MixedTrace checked =
      run_mixed_schedule(GetParam(), AllocMode::kIncremental, false, &checks);
  EXPECT_GT(checks, 100);
  // Checking reads the network only, so the run itself is unchanged.
  EXPECT_EQ(checked,
            run_mixed_schedule(GetParam(), AllocMode::kIncremental, false));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocEquivalence,
                         ::testing::Range<std::uint64_t>(1, 25));

// --- reference allocator: targeted shapes ----------------------------------

NodeId add_node(Network& net, double up_bps, double down_bps) {
  NodeConfig c;
  c.up_bps = up_bps;
  c.down_bps = down_bps;
  return net.add_node(c);
}

FlowSpec flow(NodeId src, NodeId dst, Bytes bytes,
              std::optional<NodeId> relay = std::nullopt,
              FlowPriority priority = FlowPriority::kForeground) {
  FlowSpec fs;
  fs.src = src;
  fs.dst = dst;
  fs.bytes = bytes;
  fs.relay = relay;
  fs.priority = priority;
  return fs;
}

TEST(NetReference, RelayThatIsAlsoAnEndpointChargesItsLinkTwice) {
  // relay == src puts the source's uplink on the flow twice, relay == dst
  // the destination's downlink: the fill counts and charges it twice.
  sim::Simulation sim(3);
  Network net(sim);
  ReferenceCheck ref(net);
  const NodeId a = add_node(net, 8e6, 8e6);
  const NodeId b = add_node(net, 8e6, 6e6);
  const NodeId c = add_node(net, 8e6, 8e6);
  const FlowId via_src = ref.start(flow(a, b, 4'000'000, a));
  const FlowId via_dst = ref.start(flow(c, b, 3'000'000, b));
  ref.start(flow(a, c, 5'000'000));
  ref.check();
  // b's downlink (6e6) carries via_src once and via_dst twice: 2e6 each.
  EXPECT_EQ(net.flow_rate(via_src), 2e6);
  EXPECT_EQ(net.flow_rate(via_dst), 2e6);
  ref.run(sim);
  EXPECT_GT(ref.checks(), 3);
  EXPECT_EQ(net.traffic(a).bytes_relayed, 4'000'000);
  EXPECT_EQ(net.traffic(b).bytes_relayed, 3'000'000);
}

TEST(NetReference, EqualShareTieGoesToTheLowestKey) {
  // Two resources reach the same fair share s exactly. Which one freezes
  // first decides the other flows' rates: freezing the 3-flow resource
  // gives all three s, while freezing the 1-flow resource first leaves the
  // other two (cap - s) / 2, which is a different double.
  const double cap = 10e6;
  const double s = cap / 3;
  ASSERT_NE((cap - s) / 2, s);

  // Case 1: the 3-flow resource is b's downlink, a negative key, so it
  // wins the tie against a's uplink.
  {
    sim::Simulation sim(4);
    Network net(sim);
    ReferenceCheck ref(net);
    const NodeId a = add_node(net, s, 100e6);
    const NodeId b = add_node(net, 100e6, cap);
    const NodeId c = add_node(net, 100e6, 100e6);
    const NodeId d = add_node(net, 100e6, 100e6);
    const FlowId x = ref.start(flow(a, b, 50'000'000));
    const FlowId y = ref.start(flow(c, b, 50'000'000));
    const FlowId z = ref.start(flow(d, b, 50'000'000));
    ref.check();
    EXPECT_EQ(net.flow_rate(x), s);
    EXPECT_EQ(net.flow_rate(y), s);
    EXPECT_EQ(net.flow_rate(z), s);
    ref.run(sim);
  }
  // Case 2: both are uplinks. x runs from a through relay r; r also sends
  // y and z. Uplink keys order by node id, so whichever of a and r was
  // added first wins.
  for (const bool relay_first : {true, false}) {
    sim::Simulation sim(5);
    Network net(sim);
    ReferenceCheck ref(net);
    NodeId a, r;
    if (relay_first) {
      r = add_node(net, cap, 100e6);
      a = add_node(net, s, 100e6);
    } else {
      a = add_node(net, s, 100e6);
      r = add_node(net, cap, 100e6);
    }
    const NodeId e = add_node(net, 100e6, 100e6);
    const NodeId g = add_node(net, 100e6, 100e6);
    const FlowId x = ref.start(flow(a, e, 50'000'000, r));
    const FlowId y = ref.start(flow(r, e, 50'000'000));
    const FlowId z = ref.start(flow(r, g, 50'000'000));
    ref.check();
    const double rest = relay_first ? s : (cap - s) / 2;
    EXPECT_EQ(net.flow_rate(x), s);
    EXPECT_EQ(net.flow_rate(y), rest);
    EXPECT_EQ(net.flow_rate(z), rest);
    ref.run(sim);
  }
}

TEST(NetReference, StarvedBackgroundFlowsResumeWhenForegroundEnds) {
  sim::Simulation sim(6);
  Network net(sim);
  ReferenceCheck ref(net);
  const NodeId server = add_node(net, 4e6, 100e6);
  const NodeId c1 = add_node(net, 100e6, 100e6);
  const NodeId c2 = add_node(net, 100e6, 100e6);
  const NodeId c3 = add_node(net, 100e6, 3e6);
  const FlowId fg = ref.start(flow(server, c1, 4'000'000));
  const FlowId bg1 = ref.start(flow(server, c2, 2'000'000, std::nullopt,
                                    FlowPriority::kBackground));
  const FlowId bg2 = ref.start(flow(server, c3, 2'000'000, std::nullopt,
                                    FlowPriority::kBackground));
  ref.check();
  EXPECT_EQ(net.flow_rate(fg), 4e6);
  EXPECT_EQ(net.flow_rate(bg1), 0.0);
  EXPECT_EQ(net.flow_rate(bg2), 0.0);
  bool bg_done = false;
  sim.at(SimTime::seconds(1.5), [&] {
    // Foreground is gone; the background pair shares the uplink.
    EXPECT_FALSE(net.flow_active(fg));
    EXPECT_EQ(net.flow_rate(bg1), 2e6);
    EXPECT_EQ(net.flow_rate(bg2), 2e6);
    bg_done = true;
  });
  ref.run(sim);
  EXPECT_TRUE(bg_done);
  EXPECT_GT(ref.checks(), 3);
}

TEST(NetReference, LinkScaleChangeRelevelsToTheReference) {
  sim::Simulation sim(8);
  Network net(sim);
  ReferenceCheck ref(net);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(add_node(net, 7e6, 9e6));
  ref.start(flow(nodes[0], nodes[1], 20'000'000));
  ref.start(flow(nodes[0], nodes[2], 20'000'000, nodes[3]));
  ref.start(flow(nodes[4], nodes[2], 20'000'000, std::nullopt,
                 FlowPriority::kBackground));
  ref.start(flow(nodes[1], nodes[4], 20'000'000));
  sim.at(SimTime::seconds(0.5), [&] { net.set_link_scale(nodes[0], 0.3); });
  sim.at(SimTime::seconds(1.0), [&] { net.set_link_scale(nodes[2], 0.7); });
  sim.at(SimTime::seconds(2.0), [&] { net.set_link_scale(nodes[0], 1.0); });
  ref.run(sim);
  EXPECT_GT(ref.checks(), 6);
  EXPECT_EQ(net.active_flow_count(), 0u);
}

TEST(NetProperty, AllocationNeverExceedsCapacity) {
  // At every reallocation instant, each node's outgoing allocation must be
  // within its uplink capacity. Sample during a busy random workload.
  sim::Simulation sim(7);
  Network net(sim);
  common::Rng rng = sim.rng_stream("capcheck");
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    NodeConfig c;
    c.up_bps = 1e6;
    c.down_bps = 1.5e6;
    nodes.push_back(net.add_node(c));
  }
  for (int i = 0; i < 40; ++i) {
    const auto src = static_cast<std::size_t>(rng.uniform_int(0, 5));
    const auto dst = (src + 1 + static_cast<std::size_t>(rng.uniform_int(0, 4))) % 6;
    sim.at(SimTime::seconds(rng.uniform(0, 3)), [&, src, dst] {
      FlowSpec fs;
      fs.src = nodes[src];
      fs.dst = nodes[dst];
      fs.bytes = 2'000'000;
      net.start_flow(std::move(fs));
    });
  }
  // Sample capacities every 100 ms for 20 s.
  std::function<void()> check = [&] {
    for (const NodeId n : nodes) {
      EXPECT_LE(net.instantaneous_tx_bps(n), 1e6 * 1.0001);
      EXPECT_LE(net.instantaneous_rx_bps(n), 1.5e6 * 1.0001);
    }
    if (sim.now() < SimTime::seconds(20)) {
      sim.after(SimTime::millis(100), check);
    }
  };
  sim.after(SimTime::zero(), check);
  sim.run();
}

TEST(NetProperty, BackgroundNeverStealsFromForeground) {
  // Whatever the mix, foreground flows collectively get at least as much
  // as they would under foreground-only allocation on the same links.
  sim::Simulation sim(11);
  Network net(sim);
  NodeConfig c;
  c.up_bps = 8e6;
  const NodeId server = net.add_node(c);
  std::vector<NodeId> sinks;
  for (int i = 0; i < 4; ++i) sinks.push_back(net.add_node(NodeConfig{}));

  std::vector<FlowId> fg, bg;
  for (int i = 0; i < 2; ++i) {
    FlowSpec fs;
    fs.src = server;
    fs.dst = sinks[static_cast<std::size_t>(i)];
    fs.bytes = 1'000'000'000;
    fg.push_back(net.start_flow(std::move(fs)));
  }
  for (int i = 2; i < 4; ++i) {
    FlowSpec fs;
    fs.src = server;
    fs.dst = sinks[static_cast<std::size_t>(i)];
    fs.bytes = 1'000'000'000;
    fs.priority = FlowPriority::kBackground;
    bg.push_back(net.start_flow(std::move(fs)));
  }
  double fg_rate = 0, bg_rate = 0;
  for (const FlowId id : fg) fg_rate += net.flow_rate(id);
  for (const FlowId id : bg) bg_rate += net.flow_rate(id);
  // Foreground takes the entire uplink; background is starved while
  // foreground demand saturates the link.
  EXPECT_NEAR(fg_rate, 8e6, 1);
  EXPECT_NEAR(bg_rate, 0, 1);
}

}  // namespace
}  // namespace vcmr::net
