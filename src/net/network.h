#pragma once
// Flow-level network simulator.
//
// Stands in for the paper's Emulab testbed (§IV.A: ~40 machines on 100 Mbit
// interfaces). Each node has an asymmetric access link to an uncongested
// core; a transfer is a *flow* that consumes the sender's uplink and the
// receiver's downlink (and, when relayed, the relay's both directions).
// Bandwidth is divided by progressive filling (max-min fairness), the
// steady-state behaviour of competing TCP flows — the granularity at which
// the paper's effects (data-server bottleneck, inter-client offload) live.
//
// TCP-Nice (§III.D future work) is modelled by a two-class allocator:
// kBackground flows receive only capacity left over after all kForeground
// flows are allocated, emulating Nice's yield-to-foreground behaviour.
//
// The allocator is *incremental*: a per-node flow index (access link →
// flows using it) lets every flow start/finish/cancel/degrade re-level only
// the connected component of flows that share resources — transitively —
// with the changed ones. Max-min rates in one component are independent of
// every other component, so flows outside it keep both their rates and
// their pending milestones. AllocMode::kGlobal re-levels everything on
// every change (the pre-incremental behaviour, kept as the bench baseline),
// and VCMR_NET_CHECK_ALLOC cross-checks each incremental pass against a
// full global water-filling, and the milestone heap against the flows.
//
// Flow milestones (completion or injected failure) live in one
// sim::TimerHeap, so the whole network owns a single sim event: a rate
// change moves the flow's deadline within the heap instead of cancelling
// and scheduling a queue entry, and a reallocation costs O(changed flows)
// heap updates and O(1) queue operations. The heap draws each deadline's
// tie-break sequence number where a per-flow sim_.at() used to, so the
// event order, and every milestone's firing as one executed event, are
// unchanged.
//
// The allocator's storage is flat and reused: each flow carries its 2 or 4
// resource keys inline, each direction of a node's access link heads an
// intrusive list of the flows on it and holds generation-stamp and
// dense-index scratch, and a leveling pass fills member arrays (capacity,
// users, a resource → flows CSR list per class) instead of allocating maps
// and sets. The floating-point operations are those of the historical
// map-based fill: the bottleneck is the smallest max(0, cap) / users found
// by a strict `<` scan in ascending key order, so ties go to the lowest
// key; and within one round every subtraction from a resource's capacity
// is the same fair share, so freezing only the bottleneck's flows, in
// whatever order, yields the same bits.

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/simulation.h"
#include "sim/timer_heap.h"

namespace vcmr::net {

/// Two-class priority used by the TCP-Nice model.
enum class FlowPriority { kForeground, kBackground };

/// How reallocate() scopes its work. kIncremental (the default) re-levels
/// only the dirty connected component; kGlobal re-levels every flow on
/// every change. Both modes compute bit-identical rates, milestones, and
/// traffic counters — kGlobal exists as the oracle for the property suite
/// and the baseline row in bench_scale.
enum class AllocMode { kIncremental, kGlobal };

struct NodeConfig {
  double up_bps = 100e6 / 8;    ///< uplink capacity, bytes/s (default 100 Mbit)
  double down_bps = 100e6 / 8;  ///< downlink capacity, bytes/s
  SimTime latency = SimTime::millis(10);  ///< one-way to the core
  std::string name;             ///< for traces; auto-generated when empty
};

/// Why a flow or message failed.
enum class NetError {
  kNodeOffline,       ///< an endpoint (or relay) went offline mid-transfer
  kInjectedFailure,   ///< failure injection (models resets, broken paths)
  kCancelled,         ///< caller cancelled
  kPartitioned,       ///< endpoints are in different partition classes
};
const char* to_string(NetError e);

struct FlowSpec {
  NodeId src;                    ///< sender
  NodeId dst;                    ///< receiver
  Bytes bytes = 0;
  FlowPriority priority = FlowPriority::kForeground;
  std::optional<NodeId> relay;   ///< traffic additionally traverses this node
  std::function<void()> on_complete;
  std::function<void(NetError)> on_fail;
};

/// Cumulative per-node traffic counters (server-offload metric in E6).
struct NodeTraffic {
  Bytes bytes_sent = 0;
  Bytes bytes_received = 0;
  Bytes bytes_relayed = 0;
};

class Network {
 public:
  explicit Network(sim::Simulation& sim);

  // --- topology ---------------------------------------------------------
  NodeId add_node(const NodeConfig& cfg);
  std::size_t node_count() const { return nodes_.size(); }
  const std::string& node_name(NodeId id) const;

  void set_online(NodeId id, bool online);
  bool online(NodeId id) const;

  /// Bandwidth degradation (fault injection): scale the node's access-link
  /// capacity (both directions) to `scale` of nominal. Active flows are
  /// settled and re-enter the max-min fair-share allocation at the new
  /// capacity instead of failing; 1.0 restores nominal. Requires scale > 0.
  void set_link_scale(NodeId id, double scale);
  double link_scale(NodeId id) const;

  /// Network partitions (fault injection): nodes in different classes
  /// cannot exchange flows or messages. All nodes start in class 0;
  /// changing a node's class fails its flows that now cross the cut.
  void set_partition_class(NodeId id, int cls);
  int partition_class(NodeId id) const;
  /// Both endpoints online and in the same partition class.
  bool reachable(NodeId a, NodeId b) const;

  /// One-way latency of a node's access path.
  SimTime latency(NodeId id) const;
  double up_bps(NodeId id) const;
  double down_bps(NodeId id) const;
  /// Round-trip time between two nodes through the core.
  SimTime rtt(NodeId a, NodeId b) const;

  // --- data flows -------------------------------------------------------
  /// Starts a bulk transfer; completion/failure is reported via callbacks.
  /// Returns an id usable with cancel_flow().
  FlowId start_flow(FlowSpec spec);
  void cancel_flow(FlowId id);
  bool flow_active(FlowId id) const;
  /// Instantaneous allocated rate, bytes/s (0 if not active).
  double flow_rate(FlowId id) const;
  std::size_t active_flow_count() const { return flows_.size(); }
  /// Instantaneous egress/ingress rate of a node, bytes/s, summed over the
  /// flows currently using its links (utilization timelines).
  double instantaneous_tx_bps(NodeId id) const;
  double instantaneous_rx_bps(NodeId id) const;

  // --- small messages ---------------------------------------------------
  /// Latency-bound delivery for control messages (scheduler RPCs etc.);
  /// does not contend with data flows. Fails if either node is offline at
  /// send or delivery time.
  void send_message(NodeId from, NodeId to, Bytes size,
                    std::function<void()> on_delivered,
                    std::function<void(NetError)> on_fail = nullptr);

  // --- failure injection ------------------------------------------------
  /// Each subsequently started flow independently fails mid-transfer with
  /// this probability (draws from stream "net.flowfail").
  void set_flow_failure_rate(double p) { flow_failure_rate_ = p; }
  /// Restrict injected failures to flows where neither endpoint is `except`
  /// (lets tests break only inter-client paths while server paths stay up).
  void set_failure_exempt_node(NodeId id) { failure_exempt_ = id; }
  /// Fault injection: consulted once per send_message when set; returning
  /// true drops the message (the sender sees kInjectedFailure). Unset by
  /// default so fault-free runs make no extra RNG draws.
  void set_message_drop_hook(std::function<bool()> hook) {
    message_drop_ = std::move(hook);
  }

  // --- allocator scoping ------------------------------------------------
  void set_alloc_mode(AllocMode m) { alloc_mode_ = m; }
  AllocMode alloc_mode() const { return alloc_mode_; }
  /// Debug cross-check: after every reallocation, recompute the full global
  /// water-filling and require every active flow's rate to match exactly.
  /// Also enabled by the VCMR_NET_CHECK_ALLOC environment variable.
  void set_check_alloc(bool on) { check_alloc_ = on; }

  // --- accounting -------------------------------------------------------
  const NodeTraffic& traffic(NodeId id) const;
  /// Total bytes moved by completed flows.
  Bytes total_bytes_transferred() const { return total_bytes_; }

  sim::Simulation& sim() { return sim_; }

 private:
  struct Node {
    NodeConfig cfg;
    bool online = true;
    int partition = 0;
    /// Degradation factor applied to both link directions. Exactly 1.0 by
    /// default: multiplying by it is a bit-exact no-op, so fault-free runs
    /// stay identical to builds without degradation support.
    double link_scale = 1.0;
    NodeTraffic traffic;
  };

  /// Allocator resource keys: +id = uplink, -id-1 = downlink. A flow's
  /// keys are fixed at start_flow; a relayed flow keeps a duplicate key when
  /// the relay is also an endpoint, so the fill counts and charges that
  /// link twice.
  struct Resources {
    std::array<std::int64_t, 4> keys{};
    std::size_t size = 0;
    const std::int64_t* begin() const { return keys.data(); }
    const std::int64_t* end() const { return keys.data() + size; }
    /// Position of the first occurrence of `key` (which must be present).
    std::size_t slot_of(std::int64_t key) const {
      return static_cast<std::size_t>(std::find(begin(), end(), key) - begin());
    }
    /// keys[i] repeats an earlier key.
    bool repeats(std::size_t i) const { return slot_of(keys[i]) != i; }
  };

  struct Flow {
    FlowSpec spec;
    FlowId id;
    Resources resources;
    Bytes done = 0;
    double rate = 0.0;           ///< bytes/s under current allocation
    /// Progress anchor: `done` at any instant is anchor_done plus the bytes
    /// accrued at `rate` since anchor_time, rounded once. Re-anchored only
    /// when the rate changes, so the bytes a settle credits depend on
    /// (anchor, rate, now) alone — not on how many intermediate
    /// reallocations happened to settle the flow along the way. That
    /// path-independence is what lets incremental and global modes agree
    /// bit-for-bit on every counter.
    Bytes anchor_done = 0;
    SimTime anchor_time;
    bool leveled = false;        ///< been through the allocator at least once
    /// The next milestone's slot in timers_: pending while the flow moves
    /// (rate > 0) or is already past its milestone.
    sim::Timer completion;
    Bytes fail_after_bytes = -1;  ///< injected failure threshold; -1 = none
    std::uint32_t seen = 0;       ///< component_of() generation stamp
    /// Intrusive links of the per-resource flow lists, by position in
    /// `resources` (unused at a position whose key repeats an earlier one).
    std::array<Flow*, 4> next{};
    std::array<Flow*, 4> prev{};
  };

  /// One direction of a node's access link: the allocator's resource.
  struct Link {
    Flow* head = nullptr;     ///< flows using this link, each once, unordered
    std::uint32_t seen = 0;   ///< generation stamp of the last pass to visit
    std::uint32_t local = 0;  ///< dense index within the pass that stamped it
  };
  /// Next flow after `f` on the list of resource `key`.
  static Flow* next_on(const Flow& f, std::int64_t key) {
    return f.next[f.resources.slot_of(key)];
  }

  /// Next scheduled progress point of a flow: either the armed injected
  /// failure (strictly inside the transfer and not yet reached) or normal
  /// completion. Centralising this fixes the boundary bug where a threshold
  /// equal to the flow size — always the case for a zero-byte flow selected
  /// for injection — was misreported as kInjectedFailure.
  struct Milestone {
    Bytes target = 0;
    bool is_failure = false;
  };
  static Milestone milestone_of(const Flow& f);

  Node& node(NodeId id);
  const Node& node(NodeId id) const;

  /// Settle traffic accounting to `now` from the flow's anchor.
  void settle(Flow& f);
  /// Re-level the connected component reachable from the dirty resource
  /// keys (every flow in kGlobal mode): water-fill the component, then for
  /// each flow whose rate actually changed, settle, re-anchor, and
  /// reset its milestone deadline. Unchanged flows are left entirely
  /// alone — same rate, same pending deadline.
  void reallocate(const Resources& dirty);
  /// Fills comp_ with the flows sharing resources, transitively, with the
  /// dirty keys, in ascending FlowId order.
  void component_of(const Resources& dirty);
  /// Two-class progressive filling of comp_ into rate_ (rate_[i] belongs to
  /// comp_[i]). Max-min rates of a connected component do not depend on
  /// flows outside it, and the restricted fill performs the identical
  /// floating-point operations the global fill would on this component, so
  /// the result is bit-equal.
  void level();
  /// VCMR_NET_CHECK_ALLOC: re-level every flow and compare against the
  /// stored rates, and require the milestone heap to hold exactly the
  /// moving or finished flows at the deadlines their anchors imply, with
  /// its armed event at the top; throws on any mismatch.
  void check_against_oracle();
  /// Fires a flow's armed milestone: completion or injected failure.
  void reach_milestone(FlowId id);

  void index_flow(Flow& f);
  void unindex_flow(Flow& f);
  /// A fresh generation stamp; on wrap-around every stamp is cleared first.
  std::uint32_t next_generation();

  /// Drops a settled flow: withdraws its deadline, unlinks it, erases it.
  /// Returns the resources to re-level.
  Resources remove_flow(std::map<FlowId, Flow>::iterator it);
  void complete_flow(FlowId id);
  void fail_flow(FlowId id, NetError err);
  /// Fails every flow that traverses `id` (endpoint or relay), in ascending
  /// FlowId order.
  void fail_flows_touching(NodeId id);
  /// Fails every flow whose endpoints/relay now span partition classes.
  void fail_partitioned_flows();

  static std::int64_t up_key(NodeId id) { return id.value(); }
  static std::int64_t down_key(NodeId id) { return -id.value() - 1; }
  Link& link(std::int64_t key) {
    return links_[static_cast<std::size_t>(key >= 0 ? 2 * key : -2 * key - 1)];
  }
  double resource_capacity(std::int64_t key) const;

  sim::Simulation& sim_;
  std::vector<Node> nodes_;
  std::map<FlowId, Flow> flows_;  ///< ordered: deterministic iteration
  /// Per-node flow index, sized in add_node: links_[2 * id] is node id's
  /// uplink, links_[2 * id + 1] its downlink. Maintained at flow
  /// add/remove; drives component_of() and fail_flows_touching().
  std::vector<Link> links_;
  /// Allocator scratch, reused across passes so a reallocation allocates
  /// nothing once the vectors have grown to the largest component.
  std::uint32_t generation_ = 0;
  std::vector<Flow*> comp_;              ///< the component, by FlowId
  std::vector<std::int64_t> frontier_;   ///< component_of() BFS queue
  std::vector<std::int64_t> res_keys_;   ///< level(): resources, by key
  std::vector<double> cap_;              ///< remaining capacity per resource
  std::vector<int> users_;               ///< pending-flow crossings per resource
  std::vector<std::uint32_t> csr_off_;   ///< resource → first csr_ entry
  std::vector<std::uint32_t> csr_;       ///< flows (comp_ indices) per resource
  std::vector<std::uint8_t> frozen_;     ///< per comp_ entry: rate fixed
  std::vector<double> rate_;             ///< per comp_ entry: leveled rate
  /// Pending milestones, by (due, reserved seq); the network's one event.
  sim::TimerHeap<Flow, &Flow::completion> timers_;
  std::int64_t next_flow_id_ = 1;
  AllocMode alloc_mode_ = AllocMode::kIncremental;
  bool check_alloc_ = false;
  double flow_failure_rate_ = 0.0;
  NodeId failure_exempt_ = NodeId::invalid();
  std::function<bool()> message_drop_;
  common::Rng fail_rng_;
  Bytes total_bytes_ = 0;
};

}  // namespace vcmr::net
