#include "sim/simulator.h"

#include <utility>

#include "check/contract.h"
#include "obs/recorder.h"

namespace droute::sim {

Simulator::Simulator()
    : obs_events_executed_(obs::counter("sim.events_executed_total")),
      obs_queue_depth_(obs::gauge("sim.queue_depth")) {}

EventId Simulator::schedule_at(Time at, Handler handler) {
  DROUTE_CHECK(at >= now_, "event scheduled in the past");
  DROUTE_CHECK(handler != nullptr, "null event handler");
  std::uint32_t slot;
  if (!free_events_.empty()) {
    slot = free_events_.back();
    free_events_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(events_.size());
    events_.emplace_back();
  }
  Event& event = events_[slot];
  event.at = at;
  event.seq = next_seq_++;
  event.handler = std::move(handler);
  queue_.update(slot);
  return EventId{slot, event.generation};
}

EventId Simulator::schedule_in(Time delay, Handler handler) {
  DROUTE_CHECK(delay >= 0.0, "negative event delay");
  return schedule_at(now_ + delay, std::move(handler));
}

Simulator::Handler Simulator::release(std::uint32_t slot) {
  Event& event = events_[slot];
  Handler handler = std::move(event.handler);
  event.handler = nullptr;
  if (++event.generation == 0) event.generation = 1;  // 0 marks "no event"
  free_events_.push_back(slot);
  return handler;
}

bool Simulator::cancel(EventId id) {
  // A matching generation means the slot still holds the event `id` named,
  // which is therefore queued.
  if (!id.valid() || id.slot >= events_.size() ||
      events_[id.slot].generation != id.generation) {
    return false;
  }
  queue_.erase(id.slot);
  // The handler dies here, after the slot is free: whatever its captures'
  // destructors schedule or cancel sees a consistent queue.
  release(id.slot);
  return true;
}

Time Simulator::next_event_time() const {
  return queue_.empty() ? kTimeInfinity : events_[queue_.top()].at;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  const std::uint32_t slot = queue_.pop();
  const Time at = events_[slot].at;
  DROUTE_CHECK(at >= now_, "event queue time went backwards");
  now_ = at;
  // The slot is free before the handler runs, which may schedule into it.
  Handler handler = release(slot);
  if (step_observer_) step_observer_(now_);
  ++executed_;
  obs::add(obs_events_executed_);
  obs::set(obs_queue_depth_, static_cast<double>(pending()));
  handler();
  return true;
}

void Simulator::run(std::uint64_t max_events) {
  std::uint64_t budget = max_events;
  while (step()) {
    DROUTE_CHECK(budget-- > 0, "event budget exhausted: runaway simulation?");
  }
}

void Simulator::run_until(Time until, std::uint64_t max_events) {
  std::uint64_t budget = max_events;
  while (next_event_time() <= until) {
    step();
    DROUTE_CHECK(budget-- > 0, "event budget exhausted: runaway simulation?");
  }
  if (now_ < until && until < kTimeInfinity) now_ = until;
}

}  // namespace droute::sim
