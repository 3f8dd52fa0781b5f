// Discrete-event simulation kernel.
//
// A Simulator owns a clock (double seconds) and an event queue. Events fire
// in nondecreasing time order; ties break by scheduling order, which makes
// every simulation fully deterministic for a fixed seed and input.
//
// The kernel knows nothing about networks — the net/ and transfer/ layers
// schedule events here. Handlers may schedule further events and cancel
// pending ones (cancellation is lazy: cancelled events are skipped when
// popped, which keeps scheduling O(log n)).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>
#include <vector>

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

/// Identifies a scheduled event so it can be cancelled.
struct EventId {
  std::uint64_t value = 0;
  bool valid() const { return value != 0; }
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

  /// Cancels a pending event. Cancelling an already-fired or unknown event
  /// is a no-op returning false.
  bool cancel(EventId id);

  /// Number of pending (non-cancelled) events. Exact: a live event has its
  /// handler registered, so this never miscounts against heap entries whose
  /// cancelled twins were already lazily skimmed off the heap.
  std::size_t pending() const { return handlers_.size(); }

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

  /// Cancelled entries still parked in the heap (lazily reclaimed). Every
  /// live event has exactly one heap entry and one handler, so the backlog
  /// is the difference. A large backlog after a drain signals a component
  /// cancelling timers it never lets expire; check::SimAuditor audits this
  /// at quiescence.
  std::size_t cancelled_backlog() const {
    return heap_.size() - handlers_.size();
  }

  /// Observer invoked at the top of every executed event, after the clock
  /// advances but before the handler runs. One observer at a time (last
  /// wins; nullptr clears). Used by check::SimAuditor; not a general pub/sub.
  using StepObserver = std::function<void(Time)>;
  void set_step_observer(StepObserver observer) {
    step_observer_ = std::move(observer);
  }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint64_t id;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  // Pops cancelled entries off the heap top.
  void skim_cancelled() const;

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  // Handlers are stored out-of-heap so Entry stays trivially copyable. The
  // handler table doubles as the liveness set: cancel() erases the handler
  // and the orphaned heap entry is skipped when it reaches the top.
  mutable std::priority_queue<Entry, std::vector<Entry>, EntryLater> heap_;
  std::unordered_map<std::uint64_t, Handler> handlers_;
  StepObserver step_observer_;
  // obs handles (null when recording is disabled at construction).
  obs::Counter* obs_events_executed_ = nullptr;
  obs::Gauge* obs_queue_depth_ = nullptr;
};

}  // namespace droute::sim
