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
  const std::uint64_t seq = next_seq_++;
  heap_.push(Entry{at, seq, seq});
  handlers_.emplace(seq, std::move(handler));
  return EventId{seq};
}

EventId Simulator::schedule_in(Time delay, Handler handler) {
  DROUTE_CHECK(delay >= 0.0, "negative event delay");
  return schedule_at(now_ + delay, std::move(handler));
}

bool Simulator::cancel(EventId id) {
  // The handler table is the single source of liveness: erasing the handler
  // IS the cancellation. The heap entry is reclaimed lazily when it surfaces.
  if (!id.valid()) return false;
  return handlers_.erase(id.value) > 0;
}

void Simulator::skim_cancelled() const {
  while (!heap_.empty() &&
         handlers_.find(heap_.top().id) == handlers_.end()) {
    heap_.pop();
  }
}

Time Simulator::next_event_time() const {
  skim_cancelled();
  return heap_.empty() ? kTimeInfinity : heap_.top().at;
}

bool Simulator::step() {
  // Skim and handler lookup fused: the first heap entry with a registered
  // handler is the next live event, so one hash probe serves both purposes.
  auto it = handlers_.end();
  Entry entry{};
  for (;;) {
    if (heap_.empty()) return false;
    entry = heap_.top();
    it = handlers_.find(entry.id);
    if (it != handlers_.end()) break;
    heap_.pop();  // cancelled twin: reclaim lazily
  }
  heap_.pop();
  DROUTE_CHECK(entry.at >= now_, "event queue time went backwards");
  now_ = entry.at;
  if (step_observer_) step_observer_(now_);
  Handler handler = std::move(it->second);
  handlers_.erase(it);
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
