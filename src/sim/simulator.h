// Discrete-event simulation kernel.
//
// A Simulator owns a clock (double seconds) and an event queue. Events fire
// in nondecreasing time order; ties break by scheduling order, which makes
// every simulation fully deterministic for a fixed seed and input.
//
// The kernel knows nothing about networks — the net/ and transfer/ layers
// schedule events here. Handlers may schedule further events and cancel
// pending ones. Pending events live in reusable slots ordered by an indexed
// heap (util::IndexedHeap, shared with the fabric's finish heap), so
// scheduling, cancelling and firing are each O(log n) and a cancelled event
// leaves nothing behind.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "util/indexed_heap.h"

namespace droute::obs {
class Counter;
class Gauge;
}  // namespace droute::obs

namespace droute::sim {

using Time = double;  // simulated seconds since simulation start

inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::infinity();

/// Approved Time comparison helpers. Direct `==`/`!=` on Time is banned by
/// the repo lint (tools/lint.py): exact float equality on simulated clocks
/// is almost always a latent bug. Spell the intent instead — an explicit
/// `eps` of 0 means "bitwise-identical times, on purpose".
inline bool time_eq(Time a, Time b, Time eps = 0.0) {
  return std::fabs(a - b) <= eps;
}
inline bool time_ne(Time a, Time b, Time eps = 0.0) {
  return !time_eq(a, b, eps);
}

/// Identifies a scheduled event so it can be cancelled: the event's slot
/// and the slot's generation when it was scheduled. A slot's generation
/// moves on whenever its event fires or is cancelled, so a stale id never
/// matches a later event that reuses the slot.
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;  // 0: no event
  bool valid() const { return generation != 0; }
};

class Simulator {
 public:
  using Handler = std::function<void()>;

  /// Resolves obs instrument handles against the recorder installed at
  /// construction time (nullptr — and therefore free — when none is).
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `handler` to run at absolute time `at` (must be >= now()).
  EventId schedule_at(Time at, Handler handler);

  /// Schedules `handler` to run `delay` seconds from now (delay >= 0).
  EventId schedule_in(Time delay, Handler handler);

  /// Cancels a pending event, removing it from the queue. Cancelling an
  /// already-fired, already-cancelled or unknown event is a no-op returning
  /// false.
  bool cancel(EventId id);

  /// Number of pending events: exactly the queued ones.
  std::size_t pending() const { return queue_.size(); }

  /// Time of the next pending event, or kTimeInfinity when idle.
  Time next_event_time() const;

  /// Runs a single event. Returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains. `max_events` guards against runaway
  /// self-rescheduling loops; exceeding it is a logic error.
  void run(std::uint64_t max_events = 50'000'000);

  /// Runs events with time <= until; afterwards now() == max(now, until)
  /// unless the queue drained earlier.
  void run_until(Time until, std::uint64_t max_events = 50'000'000);

  /// Total events executed over the simulator's lifetime.
  std::uint64_t executed_events() const { return executed_; }

  /// Always 0: cancel() removes the event from the queue in place, so no
  /// cancelled entry is ever left behind. Kept for the benchmark's traced
  /// `sim.peak_cancelled_backlog` / `sim.dead_entry_ratio` layer metrics.
  std::size_t cancelled_backlog() const { return 0; }

  /// Observer invoked at the top of every executed event, after the clock
  /// advances but before the handler runs. One observer at a time (last
  /// wins; nullptr clears). Used by check::SimAuditor; not a general pub/sub.
  using StepObserver = std::function<void(Time)>;
  void set_step_observer(StepObserver observer) {
    step_observer_ = std::move(observer);
  }

 private:
  /// One event slot. Free slots keep their generation and hold no handler.
  struct Event {
    Time at = 0.0;
    std::uint64_t seq = 0;  // tie-break: FIFO among same-time events
    std::uint32_t generation = 1;
    Handler handler;
  };

  // Orders queue_ by (at, seq), a strict total order: events fire in time
  // order, same-time events in scheduling order.
  struct EventBefore {
    const std::vector<Event>* events;
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      const Event& x = (*events)[a];
      const Event& y = (*events)[b];
      if (x.at != y.at) return x.at < y.at;
      return x.seq < y.seq;
    }
  };

  // Returns `slot` to the free list and its handler to the caller; the
  // slot's generation moves on so outstanding ids for it go stale.
  Handler release(std::uint32_t slot);

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Event> events_;
  std::vector<std::uint32_t> free_events_;  // reused LIFO
  util::IndexedHeap<EventBefore> queue_{EventBefore{&events_}};
  StepObserver step_observer_;
  // obs handles (null when recording is disabled at construction).
  obs::Counter* obs_events_executed_ = nullptr;
  obs::Gauge* obs_queue_depth_ = nullptr;
};

}  // namespace droute::sim
