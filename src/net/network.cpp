#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.h"

namespace vcmr::net {

const char* to_string(NetError e) {
  switch (e) {
    case NetError::kNodeOffline: return "node offline";
    case NetError::kInjectedFailure: return "injected failure";
    case NetError::kCancelled: return "cancelled";
    case NetError::kPartitioned: return "partitioned";
  }
  return "?";
}

Network::Network(sim::Simulation& sim)
    : sim_(sim), fail_rng_(sim.rng_stream("net.flowfail")) {
  check_alloc_ = std::getenv("VCMR_NET_CHECK_ALLOC") != nullptr;
}

NodeId Network::add_node(const NodeConfig& cfg) {
  const NodeId id{static_cast<std::int64_t>(nodes_.size())};
  Node n;
  n.cfg = cfg;
  if (n.cfg.name.empty()) n.cfg.name = "node" + std::to_string(id.value());
  require(n.cfg.up_bps > 0 && n.cfg.down_bps > 0,
          "Network::add_node: capacities must be positive");
  nodes_.push_back(std::move(n));
  links_.resize(2 * nodes_.size());
  return id;
}

Network::Node& Network::node(NodeId id) {
  require(id.valid() && static_cast<std::size_t>(id.value()) < nodes_.size(),
          "Network: unknown node id");
  return nodes_[static_cast<std::size_t>(id.value())];
}

const Network::Node& Network::node(NodeId id) const {
  require(id.valid() && static_cast<std::size_t>(id.value()) < nodes_.size(),
          "Network: unknown node id");
  return nodes_[static_cast<std::size_t>(id.value())];
}

const std::string& Network::node_name(NodeId id) const {
  return node(id).cfg.name;
}

void Network::set_online(NodeId id, bool online) {
  Node& n = node(id);
  if (n.online == online) return;
  n.online = online;
  if (!online) fail_flows_touching(id);
}

bool Network::online(NodeId id) const { return node(id).online; }

void Network::set_link_scale(NodeId id, double scale) {
  require(scale > 0, "Network::set_link_scale: scale must be positive");
  Node& n = node(id);
  if (n.link_scale == scale) return;
  n.link_scale = scale;
  reallocate(Resources{{up_key(id), down_key(id)}, 2});
}

double Network::link_scale(NodeId id) const { return node(id).link_scale; }

void Network::set_partition_class(NodeId id, int cls) {
  Node& n = node(id);
  if (n.partition == cls) return;
  n.partition = cls;
  fail_partitioned_flows();
}

int Network::partition_class(NodeId id) const { return node(id).partition; }

bool Network::reachable(NodeId a, NodeId b) const {
  const Node& na = node(a);
  const Node& nb = node(b);
  return na.online && nb.online && na.partition == nb.partition;
}

SimTime Network::latency(NodeId id) const { return node(id).cfg.latency; }

double Network::up_bps(NodeId id) const { return node(id).cfg.up_bps; }
double Network::down_bps(NodeId id) const { return node(id).cfg.down_bps; }

SimTime Network::rtt(NodeId a, NodeId b) const {
  return (latency(a) + latency(b)) * 2.0;
}

const NodeTraffic& Network::traffic(NodeId id) const {
  return node(id).traffic;
}

double Network::resource_capacity(std::int64_t key) const {
  const NodeId id{key >= 0 ? key : -key - 1};
  const Node& n = node(id);
  return (key >= 0 ? n.cfg.up_bps : n.cfg.down_bps) * n.link_scale;
}

void Network::index_flow(Flow& f) {
  const Resources& rs = f.resources;
  for (std::size_t i = 0; i < rs.size; ++i) {
    if (rs.repeats(i)) continue;  // relay == src or dst: listed once
    Link& l = link(rs.keys[i]);
    f.next[i] = l.head;
    if (l.head) l.head->prev[l.head->resources.slot_of(rs.keys[i])] = &f;
    l.head = &f;
  }
}

void Network::unindex_flow(Flow& f) {
  const Resources& rs = f.resources;
  for (std::size_t i = 0; i < rs.size; ++i) {
    if (rs.repeats(i)) continue;
    const std::int64_t key = rs.keys[i];
    Flow* const prev = f.prev[i];
    Flow* const next = f.next[i];
    if (prev) {
      prev->next[prev->resources.slot_of(key)] = next;
    } else {
      link(key).head = next;
    }
    if (next) next->prev[next->resources.slot_of(key)] = prev;
  }
}

std::uint32_t Network::next_generation() {
  if (++generation_ == 0) {
    for (Link& l : links_) l.seen = 0;
    for (auto& [id, f] : flows_) f.seen = 0;
    generation_ = 1;
  }
  return generation_;
}

FlowId Network::start_flow(FlowSpec spec) {
  require(spec.bytes >= 0, "start_flow: negative size");
  const FlowId id{next_flow_id_++};

  const auto refuse = [this, &spec](NetError err) {
    // Report asynchronously so callers never re-enter themselves.
    auto on_fail = spec.on_fail;
    sim_.after(SimTime::zero(), [on_fail, err] {
      if (on_fail) on_fail(err);
    });
  };
  if (!online(spec.src) || !online(spec.dst) ||
      (spec.relay && !online(*spec.relay))) {
    refuse(NetError::kNodeOffline);
    return id;
  }
  if (!reachable(spec.src, spec.dst) ||
      (spec.relay && (!reachable(spec.src, *spec.relay) ||
                      !reachable(*spec.relay, spec.dst)))) {
    refuse(NetError::kPartitioned);
    return id;
  }

  Flow f;
  f.spec = std::move(spec);
  f.id = id;
  f.resources.keys[0] = up_key(f.spec.src);
  f.resources.keys[1] = down_key(f.spec.dst);
  f.resources.size = 2;
  if (f.spec.relay) {
    f.resources.keys[2] = down_key(*f.spec.relay);
    f.resources.keys[3] = up_key(*f.spec.relay);
    f.resources.size = 4;
  }
  f.anchor_time = sim_.now();
  if (flow_failure_rate_ > 0.0 &&
      f.spec.src != failure_exempt_ && f.spec.dst != failure_exempt_ &&
      fail_rng_.chance(flow_failure_rate_)) {
    // Fail at a uniformly random progress point.
    f.fail_after_bytes = static_cast<Bytes>(
        fail_rng_.uniform() * static_cast<double>(f.spec.bytes));
  }
  Flow& added = flows_.emplace(id, std::move(f)).first->second;
  index_flow(added);
  reallocate(added.resources);
  return id;
}

void Network::cancel_flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;
  settle(it->second);
  sim_.cancel(it->second.completion);
  const Resources dirty = it->second.resources;
  unindex_flow(it->second);
  flows_.erase(it);
  reallocate(dirty);
}

bool Network::flow_active(FlowId id) const { return flows_.count(id) > 0; }

double Network::flow_rate(FlowId id) const {
  const auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

double Network::instantaneous_tx_bps(NodeId id) const {
  double rate = 0;
  for (const auto& [fid, f] : flows_) {
    if (f.spec.src == id) rate += f.rate;
    if (f.spec.relay && *f.spec.relay == id) rate += f.rate;
  }
  return rate;
}

double Network::instantaneous_rx_bps(NodeId id) const {
  double rate = 0;
  for (const auto& [fid, f] : flows_) {
    if (f.spec.dst == id) rate += f.rate;
    if (f.spec.relay && *f.spec.relay == id) rate += f.rate;
  }
  return rate;
}

void Network::settle(Flow& f) {
  const SimTime now = sim_.now();
  if (f.rate > 0.0 && now > f.anchor_time) {
    const double dt = (now - f.anchor_time).as_seconds();
    Bytes target = f.anchor_done + static_cast<Bytes>(std::llround(f.rate * dt));
    target = std::min(target, f.spec.bytes);
    if (target > f.done) {
      const Bytes delta = target - f.done;
      node(f.spec.src).traffic.bytes_sent += delta;
      node(f.spec.dst).traffic.bytes_received += delta;
      if (f.spec.relay) node(*f.spec.relay).traffic.bytes_relayed += delta;
      total_bytes_ += delta;
      f.done = target;
    }
  }
}

Network::Milestone Network::milestone_of(const Flow& f) {
  // The injection is armed only for thresholds strictly inside the
  // transfer: a draw that lands exactly on spec.bytes (guaranteed for a
  // zero-byte flow) is a completion, never a failure. The pre-helper code
  // applied this guard on the scheduling path but not on the already-past-
  // milestone path, so such flows misreported kInjectedFailure.
  const bool armed =
      f.fail_after_bytes >= 0 && f.fail_after_bytes < f.spec.bytes;
  if (armed && f.done < f.fail_after_bytes) return {f.fail_after_bytes, true};
  return {f.spec.bytes, false};
}

void Network::component_of(const Resources& dirty) {
  const std::uint32_t gen = next_generation();
  comp_.clear();
  frontier_.clear();
  for (const auto r : dirty) {
    Link& l = link(r);
    if (l.seen == gen) continue;
    l.seen = gen;
    frontier_.push_back(r);
  }
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const std::int64_t key = frontier_[head];
    for (Flow* f = link(key).head; f != nullptr; f = next_on(*f, key)) {
      if (f->seen == gen) continue;
      f->seen = gen;
      comp_.push_back(f);
      for (const auto r : f->resources) {
        Link& l = link(r);
        if (l.seen == gen) continue;
        l.seen = gen;
        frontier_.push_back(r);
      }
    }
  }
  std::sort(comp_.begin(), comp_.end(),
            [](const Flow* a, const Flow* b) { return a->id < b->id; });
}

void Network::level() {
  // Progressive filling, foreground first, background on the residue —
  // the arithmetic of the historical global pass, restricted to comp_.
  // Resources get dense indices in ascending key order, so the bottleneck
  // scan visits them in the order the global fill's key-ordered map did.
  const std::uint32_t gen = next_generation();
  res_keys_.clear();
  for (const Flow* f : comp_) {
    for (const auto r : f->resources) {
      Link& l = link(r);
      if (l.seen == gen) continue;
      l.seen = gen;
      res_keys_.push_back(r);
    }
  }
  std::sort(res_keys_.begin(), res_keys_.end());
  const std::size_t n_res = res_keys_.size();
  cap_.resize(n_res);
  for (std::size_t s = 0; s < n_res; ++s) {
    link(res_keys_[s]).local = static_cast<std::uint32_t>(s);
    cap_[s] = resource_capacity(res_keys_[s]);
  }
  rate_.assign(comp_.size(), 0.0);

  for (const FlowPriority cls :
       {FlowPriority::kForeground, FlowPriority::kBackground}) {
    // users_: crossings of each resource by this class's pending flows (a
    // duplicated key counts twice). csr_: each resource's flows of this
    // class, each listed once.
    users_.assign(n_res, 0);
    csr_off_.assign(n_res + 1, 0);
    frozen_.assign(comp_.size(), 1);
    std::size_t pending = 0;
    for (std::size_t j = 0; j < comp_.size(); ++j) {
      const Flow& f = *comp_[j];
      if (f.spec.priority != cls) continue;
      frozen_[j] = 0;
      ++pending;
      const Resources& rs = f.resources;
      for (std::size_t i = 0; i < rs.size; ++i) {
        const std::uint32_t s = link(rs.keys[i]).local;
        ++users_[s];
        if (!rs.repeats(i)) ++csr_off_[s];
      }
    }
    if (pending == 0) continue;
    for (std::size_t s = 1; s <= n_res; ++s) csr_off_[s] += csr_off_[s - 1];
    csr_.resize(csr_off_[n_res]);
    for (std::size_t j = 0; j < comp_.size(); ++j) {
      if (frozen_[j]) continue;
      const Resources& rs = comp_[j]->resources;
      for (std::size_t i = 0; i < rs.size; ++i) {
        if (rs.repeats(i)) continue;
        csr_[--csr_off_[link(rs.keys[i]).local]] = static_cast<std::uint32_t>(j);
      }
    }

    while (pending > 0) {
      // Find the bottleneck: resource with the smallest fair share; the
      // strict `<` in key order hands ties to the lowest key.
      double best_share = std::numeric_limits<double>::infinity();
      std::size_t best = 0;
      for (std::size_t s = 0; s < n_res; ++s) {
        if (users_[s] <= 0) continue;
        const double share = std::max(0.0, cap_[s]) / users_[s];
        if (share < best_share) {
          best_share = share;
          best = s;
        }
      }
      if (!std::isfinite(best_share)) break;
      // Freeze every pending flow crossing the bottleneck at the fair share.
      // Every subtraction this round is the same best_share, so the order
      // the flows are visited in cannot change any capacity's bits.
      for (std::uint32_t k = csr_off_[best]; k < csr_off_[best + 1]; ++k) {
        const std::uint32_t j = csr_[k];
        if (frozen_[j]) continue;
        frozen_[j] = 1;
        --pending;
        rate_[j] = best_share;
        for (const auto r : comp_[j]->resources) {
          const std::uint32_t s = link(r).local;
          cap_[s] -= best_share;
          --users_[s];
        }
      }
    }
  }
}

void Network::reallocate(const Resources& dirty) {
  // 1. The flows whose allocation can have changed: the connected component
  // around the dirty resources (everything in kGlobal mode).
  if (alloc_mode_ == AllocMode::kGlobal) {
    comp_.clear();
    for (auto& [id, f] : flows_) comp_.push_back(&f);
  } else {
    component_of(dirty);
  }

  if (!comp_.empty()) {
    // 2. Water-fill the component alone.
    level();

    // 3. Apply. A flow whose rate comes out bit-identical keeps its anchor
    // and its scheduled completion event untouched; only actual rate
    // changes settle, re-anchor, and reschedule. Because kGlobal levels a
    // superset but every extra flow's rate is unchanged by construction,
    // both modes perform the same mutations here.
    const SimTime now = sim_.now();
    for (std::size_t j = 0; j < comp_.size(); ++j) {
      Flow& f = *comp_[j];
      double r = rate_[j];
      if (r < 1e-3) {
        // Stalled (starved background class) or floating-point residue from
        // the water-filling subtraction; a sub-millibyte/s rate would also
        // overflow SimTime when converted to a completion instant.
        r = 0.0;
      }
      if (f.leveled && r == f.rate) continue;

      settle(f);  // credit progress at the old rate, then re-anchor
      f.anchor_done = f.done;
      f.anchor_time = now;
      f.rate = r;
      f.leveled = true;
      sim_.cancel(f.completion);
      f.completion = sim::EventHandle{};

      const Milestone m = milestone_of(f);
      const Bytes left = m.target - f.done;
      const FlowId fid = f.id;
      if (left <= 0) {
        // Already past the milestone; fire now. milestone_of() never
        // reports an armed threshold at or past `done`, so this is always
        // a completion.
        f.completion =
            sim_.after(SimTime::zero(), [this, fid] { complete_flow(fid); });
        continue;
      }
      if (f.rate == 0.0) continue;
      const double secs = static_cast<double>(left) / f.rate;
      // Two words, so std::function stores the callback inline; the
      // milestone is re-derived on firing, since neither `done` nor the
      // failure threshold changes while the event is armed.
      f.completion = sim_.at(now + SimTime::seconds(secs),
                             [this, fid] { reach_milestone(fid); });
    }
  }

  if (check_alloc_) check_against_oracle();
}

void Network::reach_milestone(FlowId id) {
  if (milestone_of(flows_.at(id)).is_failure) {
    fail_flow(id, NetError::kInjectedFailure);
  } else {
    complete_flow(id);
  }
}

void Network::check_against_oracle() {
  comp_.clear();
  for (auto& [id, f] : flows_) comp_.push_back(&f);
  level();
  for (std::size_t j = 0; j < comp_.size(); ++j) {
    double r = rate_[j];
    if (r < 1e-3) r = 0.0;
    require(r == comp_[j]->rate,
            "VCMR_NET_CHECK_ALLOC: incremental allocation diverged from the "
            "global water-filling oracle");
  }
}

void Network::complete_flow(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;
  settle(it->second);
  // Rounding can leave a few bytes unaccounted; attribute them now so the
  // counters always sum to the flow size.
  Flow& f = it->second;
  const Bytes slack = f.spec.bytes - f.done;
  if (slack != 0) {
    node(f.spec.src).traffic.bytes_sent += slack;
    node(f.spec.dst).traffic.bytes_received += slack;
    if (f.spec.relay) node(*f.spec.relay).traffic.bytes_relayed += slack;
    total_bytes_ += slack;
    f.done = f.spec.bytes;
  }
  auto cb = std::move(f.spec.on_complete);
  const Resources dirty = f.resources;
  unindex_flow(f);
  flows_.erase(it);
  reallocate(dirty);
  if (cb) cb();
}

void Network::fail_flow(FlowId id, NetError err) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) return;
  settle(it->second);
  auto cb = std::move(it->second.spec.on_fail);
  sim_.cancel(it->second.completion);
  const Resources dirty = it->second.resources;
  unindex_flow(it->second);
  flows_.erase(it);
  reallocate(dirty);
  if (cb) cb(err);
}

void Network::fail_flows_touching(NodeId id) {
  // A flow touches the node iff it is on the node's uplink (source or
  // relay) or downlink (destination or relay).
  std::vector<FlowId> doomed;
  for (const auto key : {up_key(id), down_key(id)}) {
    for (const Flow* f = link(key).head; f != nullptr; f = next_on(*f, key)) {
      doomed.push_back(f->id);
    }
  }
  std::sort(doomed.begin(), doomed.end());
  doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
  for (const FlowId fid : doomed) fail_flow(fid, NetError::kNodeOffline);
}

void Network::fail_partitioned_flows() {
  std::vector<FlowId> doomed;
  for (const auto& [fid, f] : flows_) {
    const bool cut =
        !reachable(f.spec.src, f.spec.dst) ||
        (f.spec.relay && (!reachable(f.spec.src, *f.spec.relay) ||
                          !reachable(*f.spec.relay, f.spec.dst)));
    if (cut) doomed.push_back(fid);
  }
  for (const FlowId fid : doomed) fail_flow(fid, NetError::kPartitioned);
}

void Network::send_message(NodeId from, NodeId to, Bytes size,
                           std::function<void()> on_delivered,
                           std::function<void(NetError)> on_fail) {
  const auto refuse = [this, &on_fail](NetError err) {
    sim_.after(SimTime::zero(), [on_fail, err] {
      if (on_fail) on_fail(err);
    });
  };
  if (!online(from) || !online(to)) {
    refuse(NetError::kNodeOffline);
    return;
  }
  if (!reachable(from, to)) {
    refuse(NetError::kPartitioned);
    return;
  }
  if (message_drop_ && message_drop_()) {
    refuse(NetError::kInjectedFailure);
    return;
  }
  // Control messages are latency-bound: propagation plus serialisation at
  // the slower of the two access links (degradation-scaled); they do not
  // contend with data flows.
  const double ser_rate =
      std::min(node(from).cfg.up_bps * node(from).link_scale,
               node(to).cfg.down_bps * node(to).link_scale);
  const SimTime delay = latency(from) + latency(to) +
                        SimTime::seconds(static_cast<double>(size) / ser_rate);
  sim_.after(delay, [this, from, to, on_delivered = std::move(on_delivered),
                     on_fail = std::move(on_fail)] {
    if (!online(to)) {
      if (on_fail) on_fail(NetError::kNodeOffline);
      return;
    }
    // In-flight messages still land if the sender dropped off, but not
    // across a partition that formed while they were in the air.
    if (node(from).partition != node(to).partition) {
      if (on_fail) on_fail(NetError::kPartitioned);
      return;
    }
    if (on_delivered) on_delivered();
  });
}

}  // namespace vcmr::net
