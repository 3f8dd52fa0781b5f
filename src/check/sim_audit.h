// Runtime auditor for sim::Simulator invariants.
//
// Two classes of invariant:
//   * the clock never moves backwards while events fire (checked live via
//     the simulator's step observer),
//   * a drained simulation leaks nothing: no pending events (checked at
//     quiescence).
//
// Usage in tests:
//   sim::Simulator simulator;
//   check::SimAuditor auditor(&simulator);   // installs the observer
//   ... schedule + run ...
//   ASSERT_TRUE(auditor.audit_quiescent().ok());
//
// The auditor raises clock violations through DROUTE_CHECK (they indicate a
// kernel bug, never bad input) and reports quiescence problems as a Status
// so tests can assert on the exact failure.
#pragma once

#include <cstdint>

#include "sim/simulator.h"
#include "util/result.h"

namespace droute::check {

class SimAuditor {
 public:
  /// Installs a step observer on `simulator` (replacing any existing one).
  /// The simulator must outlive the auditor.
  explicit SimAuditor(sim::Simulator* simulator);
  ~SimAuditor();

  SimAuditor(const SimAuditor&) = delete;
  SimAuditor& operator=(const SimAuditor&) = delete;

  /// Events observed firing since construction.
  std::uint64_t observed_events() const { return observed_; }

  /// Latest event time observed (-infinity before any event fires).
  sim::Time last_event_time() const { return last_time_; }

  /// Checks the simulator is fully drained: no pending events (a pending
  /// event after run() means some component leaked a timer).
  [[nodiscard]] util::Status audit_quiescent() const;

 private:
  void on_step(sim::Time at);

  sim::Simulator* simulator_;
  std::uint64_t observed_ = 0;
  sim::Time last_time_;
};

}  // namespace droute::check
