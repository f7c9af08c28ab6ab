#pragma once
// Cancellable priority event queue for the discrete-event engine.
//
// Events at equal simulated times fire in insertion order (a monotonically
// increasing sequence number breaks ties), which is what makes simulations
// reproducible: no behaviour may depend on heap internals.
//
// A sequence number can also be drawn ahead of the entry that will carry it
// (reserve_seq, for sim::TimerHeap): the entry then sorts exactly where an
// event scheduled at the moment of the draw would have.

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace vcmr::sim {

using EventFn = std::function<void()>;

/// Handle to a scheduled event; used to cancel it. Default-constructed
/// handles are inert.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return seq_ != 0; }

 private:
  friend class EventQueue;
  explicit EventHandle(std::uint64_t seq) : seq_(seq) {}
  std::uint64_t seq_ = 0;
};

class EventQueue {
 public:
  /// Schedules fn at absolute time `at`.
  EventHandle schedule(SimTime at, EventFn fn);

  /// Cancels a pending event; harmless if it already fired or was cancelled.
  void cancel(EventHandle h);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Time of the earliest pending event; infinity when empty.
  SimTime next_time() const;

  /// Pops and runs the earliest event. Requires !empty().
  /// Returns the time the event fired at.
  SimTime pop_and_run();

  /// Entries ever queued (re-keys included) and cancels that hit a pending
  /// entry (re-keys of a pending entry included).
  std::size_t scheduled() const { return scheduled_; }
  std::size_t cancelled() const { return cancelled_; }

 private:
  friend class Simulation;  // forwards the reserved-seq hooks to TimerHeap

  struct Entry {
    SimTime at;
    std::uint64_t seq = 0;
    EventFn fn;
    bool cancelled = false;
  };
  struct Cmp {
    // std::priority_queue is a max-heap; invert for earliest-first, with
    // sequence number as the deterministic tiebreak.
    bool operator()(const std::shared_ptr<Entry>& a,
                    const std::shared_ptr<Entry>& b) const {
      if (a->at != b->at) return a->at > b->at;
      return a->seq > b->seq;
    }
  };

  /// Draws the sequence number schedule() would use next.
  std::uint64_t reserve_seq() { return next_seq_++; }
  /// Schedules fn at (at, seq), seq drawn earlier by reserve_seq().
  EventHandle schedule_reserved(SimTime at, std::uint64_t seq, EventFn fn);
  /// Moves the callable of `h` to (at, seq), seq drawn by reserve_seq().
  /// `h` is pending (its entry is cancelled, its callable moved), or it is
  /// the entry running now (the entry itself is re-queued); in the latter
  /// case this must be the callback's last queue operation.
  EventHandle rekey(EventHandle h, SimTime at, std::uint64_t seq);
  bool pending(EventHandle h) const { return by_seq_.count(h.seq_) > 0; }
  void push(std::shared_ptr<Entry> e);

  /// Drops cancelled entries sitting at the top.
  void purge();

  std::priority_queue<std::shared_ptr<Entry>,
                      std::vector<std::shared_ptr<Entry>>, Cmp>
      heap_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::size_t scheduled_ = 0;
  std::size_t cancelled_ = 0;
  // Cancellation lookup: seq -> entry.
  std::unordered_map<std::uint64_t, std::shared_ptr<Entry>> by_seq_;
  std::shared_ptr<Entry> running_;  ///< the entry pop_and_run is executing
};

}  // namespace vcmr::sim
