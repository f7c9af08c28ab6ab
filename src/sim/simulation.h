#pragma once
// The discrete-event simulation kernel: a virtual clock plus the event
// queue, with convenience scheduling in relative time and run-loop control.
//
// All VCMR subsystems (network, server daemons, clients, churn models) hang
// off one Simulation instance and advance exclusively through its events;
// nothing reads wall-clock time, so runs are bit-reproducible.

#include <functional>

#include "common/logging.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace vcmr::sim {

struct Timer;
template <class Item, Timer Item::*Slot>
class TimerHeap;

class Simulation {
 public:
  /// root_seed drives every RNG stream in the simulation.
  explicit Simulation(std::uint64_t root_seed = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Schedule at an absolute simulated time (must be >= now).
  EventHandle at(SimTime when, EventFn fn);
  /// Schedule after a relative delay (must be >= 0).
  EventHandle after(SimTime delay, EventFn fn);
  void cancel(EventHandle h) { queue_.cancel(h); }

  /// Runs until the queue drains or `until` is reached, whichever is first.
  /// Returns the final clock value.
  SimTime run(SimTime until = SimTime::infinity());

  /// Runs until pred() returns true (checked after every event) or the
  /// queue drains. Returns true if the predicate fired.
  bool run_until(const std::function<bool()>& pred,
                 SimTime deadline = SimTime::infinity());

  /// Stops the current run() after the in-flight event completes.
  void stop() { stop_requested_ = true; }

  std::size_t events_executed() const { return events_executed_; }
  /// Queue operations: entries queued and pending entries cancelled. A
  /// TimerHeap re-arm counts as a schedule, plus a cancel when its entry
  /// was still pending. Not in the metrics registry, so exported metrics
  /// do not depend on the queue's mechanics.
  std::size_t events_scheduled() const { return queue_.scheduled(); }
  std::size_t events_cancelled() const { return queue_.cancelled(); }
  bool idle() const { return queue_.empty(); }

  const common::RngStreamFactory& rng_factory() const { return rng_; }
  common::Rng rng_stream(std::string_view name, std::uint64_t index = 0) const {
    return rng_.stream(name, index);
  }

 private:
  // The reserved-seq hooks, for TimerHeap only: every reserve_seq() stands
  // for an at()/after() its owner would otherwise have called then, and
  // TimerHeap::set() checks the time against now() as at() does.
  template <class Item, Timer Item::*Slot>
  friend class TimerHeap;
  std::uint64_t reserve_seq() { return queue_.reserve_seq(); }
  EventHandle at_reserved(SimTime when, std::uint64_t seq, EventFn fn) {
    return queue_.schedule_reserved(when, seq, std::move(fn));
  }
  EventHandle rekey(EventHandle h, SimTime when, std::uint64_t seq) {
    return queue_.rekey(h, when, seq);
  }
  bool pending(EventHandle h) const { return queue_.pending(h); }

  SimTime now_;
  EventQueue queue_;
  common::RngStreamFactory rng_;
  bool stop_requested_ = false;
  std::size_t events_executed_ = 0;
};

/// Re-arming periodic event: fires `fn` every `period` of simulated time,
/// starting one period after construction, until cancelled or destroyed.
/// Used by instrumentation (obs::MetricsStreamer) that needs a sampling
/// tick on the virtual clock; each firing counts as one executed event.
class PeriodicTask {
 public:
  PeriodicTask(Simulation& sim, SimTime period, std::function<void()> fn);
  ~PeriodicTask() { cancel(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Stops future firings; the in-flight callback (if any) completes.
  void cancel();

  SimTime period() const { return period_; }
  std::int64_t fired() const { return fired_; }

 private:
  void arm();

  Simulation& sim_;
  SimTime period_;
  std::function<void()> fn_;
  EventHandle pending_;
  std::int64_t fired_ = 0;
  bool cancelled_ = false;
};

}  // namespace vcmr::sim
