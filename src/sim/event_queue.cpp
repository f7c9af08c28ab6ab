#include "sim/event_queue.h"

#include "common/error.h"

namespace vcmr::sim {

EventHandle EventQueue::schedule(SimTime at, EventFn fn) {
  return schedule_reserved(at, reserve_seq(), std::move(fn));
}

EventHandle EventQueue::schedule_reserved(SimTime at, std::uint64_t seq,
                                          EventFn fn) {
  push(std::make_shared<Entry>(Entry{at, seq, std::move(fn), false}));
  return EventHandle(seq);
}

void EventQueue::push(std::shared_ptr<Entry> e) {
  by_seq_[e->seq] = e;
  heap_.push(std::move(e));
  ++live_;
  ++scheduled_;
}

EventHandle EventQueue::rekey(EventHandle h, SimTime at, std::uint64_t seq) {
  const auto it = by_seq_.find(h.seq_);
  if (it != by_seq_.end()) {
    EventFn fn = std::move(it->second->fn);
    cancel(h);
    return schedule_reserved(at, seq, std::move(fn));
  }
  require(running_ && running_->seq == h.seq_,
          "EventQueue::rekey: event is neither pending nor running");
  running_->at = at;
  running_->seq = seq;
  push(running_);
  return EventHandle(seq);
}

void EventQueue::cancel(EventHandle h) {
  if (!h.valid()) return;
  const auto it = by_seq_.find(h.seq_);
  if (it == by_seq_.end()) return;
  it->second->cancelled = true;
  it->second->fn = nullptr;  // release captured state promptly
  by_seq_.erase(it);
  --live_;
  ++cancelled_;
}

void EventQueue::purge() {
  while (!heap_.empty() && heap_.top()->cancelled) heap_.pop();
}

SimTime EventQueue::next_time() const {
  // purge() only removes dead entries; it does not change observable state.
  const_cast<EventQueue*>(this)->purge();
  return heap_.empty() ? SimTime::infinity() : heap_.top()->at;
}

SimTime EventQueue::pop_and_run() {
  purge();
  require(!heap_.empty(), "EventQueue::pop_and_run on empty queue");
  const std::shared_ptr<Entry> e = heap_.top();
  heap_.pop();
  by_seq_.erase(e->seq);
  --live_;
  const SimTime at = e->at;
  // The callback may schedule or cancel other events; this entry is already
  // detached so that is safe. It may also re-key this very entry (rekey()),
  // which puts it back in the queue.
  running_ = e;
  e->fn();
  running_.reset();
  return at;
}

}  // namespace vcmr::sim
