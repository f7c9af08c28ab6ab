// Tests for the flow-level network: max-min fair sharing, the TCP-Nice
// priority classes, messages, failure injection, and traffic accounting.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace vcmr::net {
namespace {

struct Fixture {
  sim::Simulation sim{1};
  Network net{sim};

  NodeId add(double up_mbps, double down_mbps, double lat_ms = 1.0) {
    NodeConfig c;
    c.up_bps = up_mbps * 1e6 / 8;
    c.down_bps = down_mbps * 1e6 / 8;
    c.latency = SimTime::millis(static_cast<std::int64_t>(lat_ms));
    return net.add_node(c);
  }
};

TEST(Network, SingleFlowTransferTime) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  bool done = false;
  FlowSpec fs;
  fs.src = a;
  fs.dst = b;
  fs.bytes = 12'500'000;  // 100 Mbit of payload = 1 s at 12.5 MB/s
  fs.on_complete = [&] { done = true; };
  f.net.start_flow(std::move(fs));
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(f.sim.now().as_seconds(), 1.0, 0.01);
}

TEST(Network, BottleneckSharedFairly) {
  Fixture f;
  // One server uplink (100 Mbit), two receivers: each flow should get half,
  // so two 1-second-alone transfers take ~2 s together.
  const NodeId server = f.add(100, 100);
  const NodeId c1 = f.add(100, 100);
  const NodeId c2 = f.add(100, 100);
  int done = 0;
  for (const NodeId dst : {c1, c2}) {
    FlowSpec fs;
    fs.src = server;
    fs.dst = dst;
    fs.bytes = 12'500'000;
    fs.on_complete = [&] { ++done; };
    f.net.start_flow(std::move(fs));
  }
  f.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR(f.sim.now().as_seconds(), 2.0, 0.02);
}

TEST(Network, AsymmetricLinkUsesTighterSide) {
  Fixture f;
  const NodeId a = f.add(2, 100);    // 2 Mbit uplink
  const NodeId b = f.add(100, 100);
  bool done = false;
  FlowSpec fs;
  fs.src = a;
  fs.dst = b;
  fs.bytes = 250'000;  // 2 Mbit = 0.25 MB/s → 1 s
  fs.on_complete = [&] { done = true; };
  f.net.start_flow(std::move(fs));
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(f.sim.now().as_seconds(), 1.0, 0.01);
}

TEST(Network, MaxMinGivesUnbottleneckedFlowsMore) {
  Fixture f;
  // dst1's downlink (10 Mbit) caps flow1; flow2 should then get the rest of
  // the server's 100 Mbit uplink (90 Mbit), not a "fair" 50.
  const NodeId server = f.add(100, 1000);
  const NodeId slow = f.add(100, 10);
  const NodeId fast = f.add(100, 1000);
  FlowSpec f1;
  f1.src = server;
  f1.dst = slow;
  f1.bytes = 1;  // rate probe
  const FlowId id1 = f.net.start_flow(std::move(f1));
  FlowSpec f2;
  f2.src = server;
  f2.dst = fast;
  f2.bytes = 1'000'000'000;
  const FlowId id2 = f.net.start_flow(std::move(f2));
  EXPECT_NEAR(f.net.flow_rate(id1), 10e6 / 8, 1);
  EXPECT_NEAR(f.net.flow_rate(id2), 90e6 / 8, 1);
}

TEST(Network, BackgroundYieldsToForeground) {
  Fixture f;
  const NodeId server = f.add(100, 100);
  const NodeId c1 = f.add(100, 100);
  const NodeId c2 = f.add(100, 100);
  FlowSpec bg;
  bg.src = server;
  bg.dst = c1;
  bg.bytes = 1'000'000'000;
  bg.priority = FlowPriority::kBackground;
  const FlowId bg_id = f.net.start_flow(std::move(bg));
  // Alone, the background flow gets the full uplink.
  EXPECT_NEAR(f.net.flow_rate(bg_id), 100e6 / 8, 1);

  FlowSpec fg;
  fg.src = server;
  fg.dst = c2;
  fg.bytes = 1'000'000'000;
  const FlowId fg_id = f.net.start_flow(std::move(fg));
  // With a foreground flow on the same uplink, TCP-Nice-style allocation
  // starves the background class entirely.
  EXPECT_NEAR(f.net.flow_rate(fg_id), 100e6 / 8, 1);
  EXPECT_NEAR(f.net.flow_rate(bg_id), 0.0, 1);
}

TEST(Network, RelayConsumesRelayLinks) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  const NodeId relay = f.add(10, 10);  // tight relay
  bool done = false;
  FlowSpec fs;
  fs.src = a;
  fs.dst = b;
  fs.relay = relay;
  fs.bytes = 1'250'000;  // 10 Mbit → 1 s through the relay
  fs.on_complete = [&] { done = true; };
  f.net.start_flow(std::move(fs));
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(f.sim.now().as_seconds(), 1.0, 0.01);
  EXPECT_EQ(f.net.traffic(relay).bytes_relayed, 1'250'000);
}

TEST(Network, CancelStopsFlow) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  bool done = false, failed = false;
  FlowSpec fs;
  fs.src = a;
  fs.dst = b;
  fs.bytes = 12'500'000;
  fs.on_complete = [&] { done = true; };
  fs.on_fail = [&](NetError) { failed = true; };
  const FlowId id = f.net.start_flow(std::move(fs));
  f.sim.after(SimTime::seconds(0.5), [&] { f.net.cancel_flow(id); });
  f.sim.run();
  EXPECT_FALSE(done);
  EXPECT_FALSE(failed);  // cancel is silent
  EXPECT_FALSE(f.net.flow_active(id));
}

TEST(Network, OfflineEndpointFailsFlows) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  NetError err{};
  bool failed = false;
  FlowSpec fs;
  fs.src = a;
  fs.dst = b;
  fs.bytes = 12'500'000;
  fs.on_fail = [&](NetError e) {
    failed = true;
    err = e;
  };
  f.net.start_flow(std::move(fs));
  f.sim.after(SimTime::seconds(0.2), [&] { f.net.set_online(b, false); });
  f.sim.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(err, NetError::kNodeOffline);
}

TEST(Network, OfflineNodeFailsItsFlowsInFlowIdOrder) {
  // n is the destination of the first flow, the source of the second and
  // the relay of the third, so its downlink and uplink each carry two of
  // them: the failures must still arrive in ascending FlowId order, and an
  // unrelated flow must keep running.
  Fixture f;
  const NodeId n = f.add(100, 100);
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  const NodeId c = f.add(100, 100);
  std::vector<std::pair<FlowId, NetError>> failures;
  bool bystander_done = false;
  const auto start = [&](NodeId src, NodeId dst, std::optional<NodeId> relay,
                         FlowId* id) {
    FlowSpec fs;
    fs.src = src;
    fs.dst = dst;
    fs.relay = relay;
    fs.bytes = 12'500'000;
    fs.on_fail = [&failures, id](NetError e) { failures.emplace_back(*id, e); };
    *id = f.net.start_flow(std::move(fs));
  };
  FlowId to_n, from_n, via_n;
  start(a, n, std::nullopt, &to_n);
  start(n, b, std::nullopt, &from_n);
  start(c, a, n, &via_n);
  ASSERT_LT(to_n, from_n);
  ASSERT_LT(from_n, via_n);
  FlowSpec other;
  other.src = b;
  other.dst = c;
  other.bytes = 12'500'000;
  other.on_complete = [&] { bystander_done = true; };
  f.net.start_flow(std::move(other));

  f.sim.after(SimTime::seconds(0.2), [&] { f.net.set_online(n, false); });
  f.sim.run();
  const std::vector<std::pair<FlowId, NetError>> expected{
      {to_n, NetError::kNodeOffline},
      {from_n, NetError::kNodeOffline},
      {via_n, NetError::kNodeOffline}};
  EXPECT_EQ(failures, expected);
  EXPECT_TRUE(bystander_done);
}

TEST(Network, FlowToOfflineNodeFailsImmediately) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  f.net.set_online(b, false);
  bool failed = false;
  FlowSpec fs;
  fs.src = a;
  fs.dst = b;
  fs.bytes = 100;
  fs.on_fail = [&](NetError) { failed = true; };
  f.net.start_flow(std::move(fs));
  f.sim.run();
  EXPECT_TRUE(failed);
}

TEST(Network, TrafficAccountingSumsToFlowSize) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(50, 50);
  FlowSpec fs;
  fs.src = a;
  fs.dst = b;
  fs.bytes = 7'777'777;
  f.net.start_flow(std::move(fs));
  f.sim.run();
  EXPECT_EQ(f.net.traffic(a).bytes_sent, 7'777'777);
  EXPECT_EQ(f.net.traffic(b).bytes_received, 7'777'777);
  EXPECT_EQ(f.net.total_bytes_transferred(), 7'777'777);
}

TEST(Network, InjectedFailuresRespectRate) {
  Fixture f;
  const NodeId a = f.add(1000, 1000);
  const NodeId b = f.add(1000, 1000);
  f.net.set_flow_failure_rate(0.5);
  int ok = 0, fail = 0;
  for (int i = 0; i < 400; ++i) {
    FlowSpec fs;
    fs.src = a;
    fs.dst = b;
    fs.bytes = 1000;
    fs.on_complete = [&] { ++ok; };
    fs.on_fail = [&](NetError) { ++fail; };
    f.net.start_flow(std::move(fs));
    f.sim.run();
  }
  EXPECT_EQ(ok + fail, 400);
  EXPECT_NEAR(static_cast<double>(fail) / 400.0, 0.5, 0.1);
}

TEST(Network, FailureExemptNodeNeverInjected) {
  Fixture f;
  const NodeId server = f.add(1000, 1000);
  const NodeId b = f.add(1000, 1000);
  f.net.set_flow_failure_rate(1.0);
  f.net.set_failure_exempt_node(server);
  bool ok = false;
  FlowSpec fs;
  fs.src = server;
  fs.dst = b;
  fs.bytes = 1000;
  fs.on_complete = [&] { ok = true; };
  fs.on_fail = [](NetError) { FAIL() << "exempt flow failed"; };
  f.net.start_flow(std::move(fs));
  f.sim.run();
  EXPECT_TRUE(ok);
}

TEST(Network, InstantaneousRatesSumOverFlows) {
  Fixture f;
  const NodeId server = f.add(100, 100);
  const NodeId c1 = f.add(100, 100);
  const NodeId c2 = f.add(100, 100);
  for (const NodeId dst : {c1, c2}) {
    FlowSpec fs;
    fs.src = server;
    fs.dst = dst;
    fs.bytes = 1'000'000'000;
    f.net.start_flow(std::move(fs));
  }
  EXPECT_NEAR(f.net.instantaneous_tx_bps(server), 100e6 / 8, 10);
  EXPECT_NEAR(f.net.instantaneous_rx_bps(c1), 50e6 / 8, 10);
  EXPECT_NEAR(f.net.instantaneous_tx_bps(c1), 0, 1e-9);
}

TEST(Network, ZeroByteFlowCompletesImmediately) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  bool done = false;
  FlowSpec fs;
  fs.src = a;
  fs.dst = b;
  fs.bytes = 0;  // empty grep partition, for example
  fs.on_complete = [&] { done = true; };
  f.net.start_flow(std::move(fs));
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_LT(f.sim.now().as_seconds(), 0.001);
}

TEST(Network, ManyFlowsZeroAndNonZeroMixed) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    FlowSpec fs;
    fs.src = a;
    fs.dst = b;
    fs.bytes = i % 2 == 0 ? 0 : 1'000'000;
    fs.on_complete = [&] { ++done; };
    f.net.start_flow(std::move(fs));
  }
  f.sim.run();
  EXPECT_EQ(done, 10);
}

// Regression: a zero-byte flow selected for failure injection draws a
// threshold of exactly 0 == spec.bytes. The old already-past-milestone
// branch lacked the `fail_after_bytes < spec.bytes` guard the scheduling
// branch had and misreported the flow as kInjectedFailure; a threshold at
// the flow size is a completion — only strictly interior thresholds fail.
TEST(Network, ZeroByteFlowCompletesUnderFullFailureInjection) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  f.net.set_flow_failure_rate(1.0);  // every flow draws an injection point
  bool done = false;
  FlowSpec fs;
  fs.src = a;
  fs.dst = b;
  fs.bytes = 0;
  fs.on_complete = [&] { done = true; };
  fs.on_fail = [](NetError e) {
    FAIL() << "zero-byte flow reported " << to_string(e);
  };
  f.net.start_flow(std::move(fs));
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(Network, NodeComesBackOnline) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  f.net.set_online(b, false);
  f.net.set_online(b, true);
  bool done = false;
  FlowSpec fs;
  fs.src = a;
  fs.dst = b;
  fs.bytes = 1000;
  fs.on_complete = [&] { done = true; };
  f.net.start_flow(std::move(fs));
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(Network, MessageDeliveryLatency) {
  Fixture f;
  const NodeId a = f.add(100, 100, 10);
  const NodeId b = f.add(100, 100, 15);
  bool got = false;
  f.net.send_message(a, b, 100, [&] { got = true; });
  f.sim.run();
  EXPECT_TRUE(got);
  // ~25 ms propagation + tiny serialisation.
  EXPECT_NEAR(f.sim.now().as_seconds(), 0.025, 0.002);
}

TEST(Network, MessageToOfflineNodeFails) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  f.net.set_online(b, false);
  bool failed = false;
  f.net.send_message(a, b, 10, [] { FAIL() << "delivered to offline node"; },
                     [&](NetError) { failed = true; });
  f.sim.run();
  EXPECT_TRUE(failed);
}

TEST(Network, RttSymmetric) {
  Fixture f;
  const NodeId a = f.add(100, 100, 10);
  const NodeId b = f.add(100, 100, 20);
  EXPECT_EQ(f.net.rtt(a, b), f.net.rtt(b, a));
  EXPECT_EQ(f.net.rtt(a, b), SimTime::millis(60));
}

// Property: with N flows through one uplink, rates sum to capacity and the
// total completion time scales with N.
class FairShareSweep : public ::testing::TestWithParam<int> {};

TEST_P(FairShareSweep, RatesConserveCapacity) {
  const int n = GetParam();
  Fixture f;
  const NodeId server = f.add(100, 100);
  std::vector<FlowId> ids;
  for (int i = 0; i < n; ++i) {
    const NodeId c = f.add(1000, 1000);
    FlowSpec fs;
    fs.src = server;
    fs.dst = c;
    fs.bytes = 1'000'000'000;
    ids.push_back(f.net.start_flow(std::move(fs)));
  }
  double total = 0;
  for (const FlowId id : ids) total += f.net.flow_rate(id);
  EXPECT_NEAR(total, 100e6 / 8, 10);
  // Equal demand → equal shares.
  for (const FlowId id : ids) {
    EXPECT_NEAR(f.net.flow_rate(id), 100e6 / 8 / n, 10);
  }
}

INSTANTIATE_TEST_SUITE_P(Flows, FairShareSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 40));

// --- bandwidth degradation (link_scale) -----------------------------------

TEST(NetworkDegrade, ScaledLinkSlowsTransfer) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  f.net.set_link_scale(a, 0.5);  // uplink now effectively 50 Mbit
  bool done = false;
  FlowSpec fs;
  fs.src = a;
  fs.dst = b;
  fs.bytes = 12'500'000;  // 1 s at full rate → 2 s degraded
  fs.on_complete = [&] { done = true; };
  f.net.start_flow(std::move(fs));
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(f.sim.now().as_seconds(), 2.0, 0.02);
}

TEST(NetworkDegrade, MidFlowDegradeAndRestoreReallocate) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  bool done = false;
  FlowSpec fs;
  fs.src = a;
  fs.dst = b;
  fs.bytes = 12'500'000;
  fs.on_complete = [&] { done = true; };
  f.net.start_flow(std::move(fs));
  // [0, 0.5] full rate: 6.25 MB.  [0.5, 1.5] quarter rate: 3.125 MB.
  // Remaining 3.125 MB at full rate: 0.25 s.  Total 1.75 s.
  f.sim.at(SimTime::millis(500), [&] { f.net.set_link_scale(a, 0.25); });
  f.sim.at(SimTime::millis(1500), [&] { f.net.set_link_scale(a, 1.0); });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(f.sim.now().as_seconds(), 1.75, 0.02);
}

TEST(NetworkDegrade, DegradedBottleneckStillSharedFairly) {
  Fixture f;
  // The degraded uplink is also a two-flow bottleneck: max-min fair share
  // must split the *scaled* capacity, not the configured one.
  const NodeId server = f.add(100, 100);
  const NodeId c1 = f.add(100, 100);
  const NodeId c2 = f.add(100, 100);
  f.net.set_link_scale(server, 0.5);  // 50 Mbit to split
  int done = 0;
  std::vector<FlowId> ids;
  for (const NodeId dst : {c1, c2}) {
    FlowSpec fs;
    fs.src = server;
    fs.dst = dst;
    fs.bytes = 6'250'000;  // 25 Mbit share → 2 s each
    fs.on_complete = [&] { ++done; };
    ids.push_back(f.net.start_flow(std::move(fs)));
  }
  for (const FlowId id : ids) {
    EXPECT_NEAR(f.net.flow_rate(id), 25e6 / 8, 10);
  }
  f.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR(f.sim.now().as_seconds(), 2.0, 0.02);
}

TEST(NetworkDegrade, ScaleAccessorAndValidation) {
  Fixture f;
  const NodeId a = f.add(100, 100);
  EXPECT_EQ(f.net.link_scale(a), 1.0);  // exact: fault-free runs bit-identical
  f.net.set_link_scale(a, 0.25);
  EXPECT_EQ(f.net.link_scale(a), 0.25);
  EXPECT_THROW(f.net.set_link_scale(a, 0.0), Error);
  EXPECT_THROW(f.net.set_link_scale(a, -0.5), Error);
}

// --- milestone order on the network's single timer ----------------------------
// Every flow milestone still fires as its own executed event, in the order
// one queue entry per flow would give: a deadline's tie-break sequence
// number is drawn when the deadline is set.

struct OrderFixture : Fixture {
  std::vector<std::string> log;
  FlowId flow(NodeId src, NodeId dst, Bytes bytes, const std::string& name) {
    FlowSpec fs;
    fs.src = src;
    fs.dst = dst;
    fs.bytes = bytes;
    fs.on_complete = [this, name] { log.push_back(name); };
    fs.on_fail = [this, name](NetError) { log.push_back(name + " failed"); };
    return net.start_flow(std::move(fs));
  }
  void event(SimTime at, const std::string& name) {
    sim.at(at, [this, name] { log.push_back(name); });
  }
};

TEST(NetworkOrder, ZeroByteFlowAndZeroDelayEventFireInStartOrder) {
  for (const bool flow_first : {true, false}) {
    OrderFixture f;
    const NodeId a = f.add(100, 100);
    const NodeId b = f.add(100, 100);
    if (flow_first) f.flow(a, b, 0, "flow");
    f.sim.after(SimTime::zero(), [&f] { f.log.push_back("after"); });
    if (!flow_first) f.flow(a, b, 0, "flow");
    f.sim.run();
    EXPECT_EQ(f.log, flow_first ? (std::vector<std::string>{"flow", "after"})
                                : (std::vector<std::string>{"after", "flow"}));
    EXPECT_EQ(f.sim.now(), SimTime::zero());
    EXPECT_EQ(f.sim.events_executed(), 2u);
  }
}

TEST(NetworkOrder, ReleveledFlowTiesWithAnotherFlowBySetOrder) {
  // y shares c's uplink with z until z is cancelled at 0.5 s; y then runs
  // alone and finishes at exactly 1.0 s: 3.125 MB at 6.25 MB/s, then
  // 6.25 MB at 12.5 MB/s. x finishes at 1.0 s too. Whichever deadline was
  // set first fires first.
  for (const bool x_first : {true, false}) {
    OrderFixture f;
    const NodeId a = f.add(100, 100);
    const NodeId b = f.add(100, 100);
    const NodeId c = f.add(100, 100);
    const NodeId d = f.add(100, 100);
    const NodeId e = f.add(100, 100);
    f.flow(c, d, 9'375'000, "y");
    const FlowId z = f.flow(c, e, 12'500'000, "z");
    if (x_first) f.flow(a, b, 12'500'000, "x");  // 1 s alone, set at 0
    f.sim.at(SimTime::millis(500), [&] {
      f.net.cancel_flow(z);                          // re-levels y now
      if (!x_first) f.flow(a, b, 6'250'000, "x");  // 0.5 s, set after y
    });
    f.sim.run();
    EXPECT_EQ(f.log, x_first ? (std::vector<std::string>{"x", "y"})
                             : (std::vector<std::string>{"y", "x"}));
    EXPECT_EQ(f.sim.now(), SimTime::seconds(1));
    EXPECT_EQ(f.sim.events_executed(), 3u);
  }
}

TEST(NetworkOrder, CancelOfTheEarliestFlowLeavesTheRestOnTime) {
  OrderFixture f;
  const NodeId a = f.add(100, 100);
  const NodeId b = f.add(100, 100);
  const NodeId c = f.add(100, 100);
  const NodeId d = f.add(100, 100);
  const FlowId first = f.flow(a, b, 12'500'000, "first");  // 1 s
  f.flow(c, d, 25'000'000, "second");                     // 2 s
  f.event(SimTime::millis(500), "cancel");
  f.sim.at(SimTime::millis(500), [&] { f.net.cancel_flow(first); });
  f.event(SimTime::millis(1500), "tick");
  f.sim.run();
  EXPECT_EQ(f.log, (std::vector<std::string>{"cancel", "tick", "second"}));
  EXPECT_EQ(f.sim.now(), SimTime::seconds(2));
  EXPECT_EQ(f.sim.events_executed(), 4u);
}

TEST(NetworkOrder, DestroyedWhileAFlowIsPendingLeavesTheSimulationRunning) {
  sim::Simulation sim(1);
  bool completed = false;
  {
    Network net(sim);
    const NodeId a = net.add_node({});
    const NodeId b = net.add_node({});
    FlowSpec fs;
    fs.src = a;
    fs.dst = b;
    fs.bytes = 12'500'000;
    fs.on_complete = [&] { completed = true; };
    net.start_flow(std::move(fs));
  }
  bool later = false;
  sim.after(SimTime::seconds(2), [&] { later = true; });
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_TRUE(later);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(NetworkOrder, ReallocationCostsConstantQueueOperations) {
  // 50 flows out of one uplink: each start re-levels every flow already
  // running, but the network's milestones share one queue entry, so queue
  // operations grow with starts and completions, not with re-leveled flows.
  Fixture f;
  f.net.set_check_alloc(true);
  const NodeId server = f.add(100, 100);
  int done = 0;
  for (int i = 0; i < 50; ++i) {
    FlowSpec fs;
    fs.src = server;
    fs.dst = f.add(100, 100);
    fs.bytes = 1'000'000 + 10'000 * i;
    fs.on_complete = [&] { ++done; };
    f.net.start_flow(std::move(fs));
  }
  f.sim.run();
  EXPECT_EQ(done, 50);
  EXPECT_EQ(f.sim.events_executed(), 50u);
  EXPECT_LE(f.sim.events_scheduled(), 2u * 50u + 1u);
  EXPECT_LE(f.sim.events_cancelled(), 50u);
}

}  // namespace
}  // namespace vcmr::net
