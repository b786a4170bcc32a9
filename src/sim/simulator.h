// Discrete-event simulation kernel.
//
// A `Simulator` owns an event calendar of (time, sequence, action)
// triples.  The sequence number makes ties deterministic — events
// scheduled earlier fire earlier at equal timestamps — which, together
// with the integer time base and the deterministic Rng, makes every run
// exactly reproducible from its seed.
//
// The hot path is allocation-free: actions are InlineActions (captures
// up to 48 bytes live inside the event record, see inline_action.h) and
// the calendar is a two-tier bucketed calendar queue (calendar_queue.h)
// that pops the exact (time, seq) minimum without heap churn, so the
// steady-state event loop performs zero heap allocations.  Schedule and
// dispatch are defined inline below — each runs once per simulated
// event, and fusing them with the calendar's inline fast paths removes
// a cross-TU call and an event-record move per hop.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "check/invariants.h"
#include "obs/metrics.h"
#include "sim/calendar_queue.h"
#include "sim/inline_action.h"
#include "util/annotations.h"
#include "util/units.h"

namespace bufq {

class CheckpointReader;
class CheckpointWriter;

class Simulator {
 public:
  using Action = InlineAction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.  Starts at zero.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `action` at absolute time `t`.  Requires t >= now().
  /// Returns the assigned sequence number: components that hold pending
  /// events record it alongside the fire time so checkpoint restore can
  /// re-arm with the exact (time, seq) key and preserve tie order.
  BUFQ_HOT std::uint64_t at(Time t, Action action) {
    BUFQ_CHECK(t >= now_, check::Invariant::kEventClock, -1, now_, t.to_seconds(),
               now_.to_seconds(), "event scheduled in the past");
#if !BUFQ_CHECKS_ENABLED
    assert(t >= now_ && "cannot schedule in the past");
#endif
    const std::uint64_t seq = next_seq_++;
    calendar_.push(CalendarQueue::Event{t, seq, std::move(action)});
    return seq;
  }

  /// Schedules `action` `delay` after the current time.  Requires a
  /// non-negative delay.  Returns the assigned sequence number (see at()).
  BUFQ_HOT std::uint64_t in(Time delay, Action action) {
    assert(delay >= Time::zero());
    return at(now_ + delay, std::move(action));
  }

  /// Re-schedules a checkpointed event under its *original* sequence
  /// number.  Restore-only: `seq` must have been handed out by at()/in()
  /// before the checkpoint (i.e. seq < next_seq_ after restore_state), so
  /// tie-break order is identical to the uninterrupted run.  Plain asserts
  /// rather than BUFQ_CHECK: the checker tallies are overwritten by the
  /// engine after re-arming, and restore must not perturb them.
  void rearm(Time t, std::uint64_t seq, Action action) {
    assert(t >= now_ && "cannot re-arm in the past");
    assert(seq < next_seq_ && "re-armed seq was never issued");
    calendar_.push(CalendarQueue::Event{t, seq, std::move(action)});
  }

  /// Executes the single earliest pending event.  Returns false when the
  /// calendar is empty or the simulator was stopped.
  BUFQ_HOT bool step() {
    if (stopped_ || calendar_.empty()) return false;
    CalendarQueue::Event ev = calendar_.pop_min();
    dispatch(ev);
    return true;
  }

  /// Runs until the calendar is empty or `stop()` is called.
  void run();

  /// Processes every event with timestamp <= `t`, then advances the clock
  /// to exactly `t` (so follow-up measurements see a consistent horizon).
  BUFQ_HOT void run_until(Time t) {
    assert(t >= now_);
    CalendarQueue::Event ev;
    // The fused pop avoids scanning the calendar once for min_time() and
    // again for the pop on every iteration.
    while (!stopped_ && calendar_.pop_min_at_or_before(t, ev)) {
      dispatch(ev);
    }
    if (!stopped_) now_ = t;
    stopped_ = false;
  }

  /// Processes events in order until `target` total events have been
  /// dispatched (lifetime count, compared against events_processed()) or
  /// no event at or before `limit` remains.  Unlike run_until() the clock
  /// is NOT advanced to `limit` afterwards — the simulator is left exactly
  /// as it was after the last dispatched event, which is what a
  /// mid-run checkpoint needs (resuming with run_until(horizon) then
  /// replays the identical remaining trajectory).  Returns
  /// events_processed().
  std::uint64_t run_events_until(std::uint64_t target, Time limit) {
    CalendarQueue::Event ev;
    while (!stopped_ && processed_ < target && calendar_.pop_min_at_or_before(limit, ev)) {
      dispatch(ev);
    }
    return processed_;
  }

  /// Dispatches an event that was never on this simulator's calendar — a
  /// boundary event handed over from another shard by the parallel engine
  /// (src/sim/parallel.h).  Semantically identical to dispatch(): the
  /// clock advances to `t`, the event is counted in events_processed()
  /// and `sim.events`, then `fn` runs.  That exact mirroring is what
  /// keeps a sharded run's merged event count (and checker tally, via the
  /// same kEventClock check) bit-identical to the serial run, where the
  /// crossing was an ordinary wire-arrival event.  Requires t >= now().
  template <typename Fn>
  BUFQ_HOT void dispatch_external(Time t, Fn&& fn) {
    BUFQ_CHECK(t >= now_, check::Invariant::kEventClock, -1, now_, t.to_seconds(),
               now_.to_seconds(), "boundary event behind the shard clock");
    now_ = t;
    ++processed_;
    events_metric_.add();
    if ((processed_ & 63u) == 0) {
      depth_metric_.record(static_cast<std::int64_t>(calendar_.size()));
    }
    std::forward<Fn>(fn)();
  }

  /// Makes `run()`/`run_until()` return after the current event.  Pending
  /// events stay scheduled; a later run() resumes.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool stopped() const { return stopped_; }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] std::size_t events_pending() const { return calendar_.size(); }

  /// Checkpointable: serializes clock, sequence counter, lifetime event
  /// count and calendar geometry plus the pending-event count.  The
  /// calendar's *contents* are not serialized — InlineActions cannot be;
  /// each component re-arms its own events via rearm() — so restore_state
  /// returns the expected pending count for the engine to verify once
  /// every component has restored.
  void save_state(CheckpointWriter& w) const;
  [[nodiscard]] std::uint64_t restore_state(CheckpointReader& r);

 private:
  /// The shared per-event body: clock advance, accounting, invoke.
  BUFQ_HOT void dispatch(CalendarQueue::Event& ev) {
    BUFQ_CHECK(ev.time >= now_, check::Invariant::kEventClock, -1, now_, ev.time.to_seconds(),
               now_.to_seconds(), "event calendar ran backwards");
    now_ = ev.time;
    ++processed_;
    events_metric_.add();
    // The depth histogram is a diagnostic distribution, not an exact
    // tally: sampling 1-in-64 keeps its shape while dropping the
    // histogram's several atomic RMWs from most events.
    if ((processed_ & 63u) == 0) {
      depth_metric_.record(static_cast<std::int64_t>(calendar_.size()));
    }
    ev.action();
  }

  CalendarQueue calendar_;
  Time now_{Time::zero()};
  std::uint64_t next_seq_{0};
  std::uint64_t processed_{0};
  bool stopped_{false};
  // Resolved against the registry installed when the Simulator is built
  // (the run's ScopedMetrics); no-ops when none is.
  obs::CounterHandle events_metric_{obs::CounterHandle::lookup("sim.events")};
  obs::HistogramHandle depth_metric_{obs::HistogramHandle::lookup("sim.calendar_depth")};
};

}  // namespace bufq
