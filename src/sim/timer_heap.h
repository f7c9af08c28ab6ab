#pragma once
// One sim event for many re-armable deadlines.
//
// An owner whose items each carry a deadline that moves often (such as a
// network flow's next milestone) keeps those deadlines in
// a TimerHeap instead of one queue entry per item: a flat indexed binary
// min-heap of (due, seq), each item's heap position stored in its embedded
// Timer, plus a single queue entry armed at the top's (due, seq). Moving a
// deadline is a sift, not a cancel + schedule.
//
// The event order is that of one queue entry per item, exactly: set()
// draws the item's sequence number from the simulation's counter at the
// moment at()/after() would have drawn it, and the armed entry sorts by the
// top's (due, seq). Every other event keeps its own sequence number, so
// same-instant ties resolve as before, and each due item fires as its own
// executed event.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/error.h"
#include "sim/simulation.h"

namespace vcmr::sim {

/// An item's deadline slot in a TimerHeap; embed one per item. The owner
/// must keep the item at a stable address while it is pending.
struct Timer {
  static constexpr std::uint32_t kIdle = ~std::uint32_t{0};
  SimTime due;
  std::uint64_t seq = 0;       ///< reserved queue sequence number
  std::uint32_t pos = kIdle;   ///< index in the heap; kIdle when not pending
  bool pending() const { return pos != kIdle; }
};

template <class Item, Timer Item::*Slot>
class TimerHeap {
 public:
  /// on_due runs once per due item, after the item has left the heap.
  TimerHeap(Simulation& sim, std::function<void(Item&)> on_due)
      : sim_(sim), on_due_(std::move(on_due)) {}
  ~TimerHeap() { sim_.cancel(armed_); }

  TimerHeap(const TimerHeap&) = delete;
  TimerHeap& operator=(const TimerHeap&) = delete;

  /// (Re)sets the item's deadline to `at` (>= now), drawing its tie-break
  /// sequence number now.
  void set(Item& item, SimTime at) {
    require(at >= sim_.now(), "TimerHeap::set: cannot schedule in the past");
    Timer& t = item.*Slot;
    t.due = at;
    t.seq = sim_.reserve_seq();
    if (!t.pending()) {
      t.pos = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(&item);
    }
    sift_down(sift_up(t.pos));
    arm();
  }

  /// Withdraws the item's deadline; a no-op when it is not pending.
  void erase(Item& item) {
    Timer& t = item.*Slot;
    if (!t.pending()) return;
    const std::uint32_t i = t.pos;
    t.pos = Timer::kIdle;
    Item* const last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
      heap_[i] = last;
      (last->*Slot).pos = i;
      sift_down(sift_up(i));
    }
    arm();
  }

  /// Defers re-arming to the end of its scope, so a burst of set() and
  /// erase() calls costs at most one queue operation.
  class Batch {
   public:
    explicit Batch(TimerHeap& h) : h_(h) { ++h_.holds_; }
    ~Batch() {
      if (--h_.holds_ == 0) h_.arm();
    }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    TimerHeap& h_;
  };

  bool contains(const Item& item) const {
    const Timer& t = item.*Slot;
    return t.pending() && t.pos < heap_.size() && heap_[t.pos] == &item;
  }
  std::size_t size() const { return heap_.size(); }

  /// Invariant check: positions match slots, the heap is ordered, and —
  /// outside a firing — the armed queue entry is the top's (due, seq).
  void check() const {
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      require((heap_[i]->*Slot).pos == i, "TimerHeap: stale position");
      require(i == 0 || !before(i, (i - 1) / 2), "TimerHeap: heap disorder");
    }
    if (holds_ > 0) return;
    require(heap_.empty() ? !sim_.pending(armed_)
                          : sim_.pending(armed_) &&
                                armed_seq_ == (heap_[0]->*Slot).seq,
            "TimerHeap: armed event is not the top deadline");
  }

 private:
  bool before(std::size_t a, std::size_t b) const {
    const Timer& x = heap_[a]->*Slot;
    const Timer& y = heap_[b]->*Slot;
    return x.due != y.due ? x.due < y.due : x.seq < y.seq;
  }
  void place(std::size_t i, Item* item) {
    heap_[i] = item;
    (item->*Slot).pos = static_cast<std::uint32_t>(i);
  }
  std::size_t sift_up(std::size_t i) {
    while (i > 0 && before(i, (i - 1) / 2)) {
      Item* const child = heap_[i];
      place(i, heap_[(i - 1) / 2]);
      place((i - 1) / 2, child);
      i = (i - 1) / 2;
    }
    return i;
  }
  void sift_down(std::size_t i) {
    for (;;) {
      std::size_t best = i;
      for (const std::size_t c : {2 * i + 1, 2 * i + 2}) {
        if (c < heap_.size() && before(c, best)) best = c;
      }
      if (best == i) return;
      Item* const parent = heap_[i];
      place(i, heap_[best]);
      place(best, parent);
      i = best;
    }
  }

  /// Points the single queue entry at the top, re-keying (not rebuilding)
  /// the armed entry. Deferred while on_due runs (fire() arms once after)
  /// and while a Batch is open.
  void arm() {
    if (holds_ > 0) return;
    if (heap_.empty()) {
      sim_.cancel(armed_);
      armed_ = EventHandle{};
      return;
    }
    const Timer& top = heap_[0]->*Slot;
    if (armed_.valid() && armed_seq_ == top.seq) return;
    armed_ = armed_.valid()
                 ? sim_.rekey(armed_, top.due, top.seq)
                 : sim_.at_reserved(top.due, top.seq, [this] { fire(); });
    armed_seq_ = top.seq;
  }

  void fire() {
    // Arms once on_due_ returns: the last queue operation of this event,
    // since it may re-queue the entry that is running now.
    const Batch hold(*this);
    Item& item = *heap_[0];
    erase(item);
    on_due_(item);
  }

  Simulation& sim_;
  std::function<void(Item&)> on_due_;
  std::vector<Item*> heap_;
  EventHandle armed_;
  std::uint64_t armed_seq_ = 0;
  int holds_ = 0;  ///< open Batches, plus one while on_due runs
};

}  // namespace vcmr::sim
