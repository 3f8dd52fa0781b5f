#include "check/sim_audit.h"

#include <limits>
#include <string>

#include "check/contract.h"

namespace droute::check {

SimAuditor::SimAuditor(sim::Simulator* simulator)
    : simulator_(simulator),
      last_time_(-std::numeric_limits<sim::Time>::infinity()) {
  DROUTE_CHECK(simulator_ != nullptr, "SimAuditor: null simulator");
  simulator_->set_step_observer([this](sim::Time at) { on_step(at); });
}

SimAuditor::~SimAuditor() {
  simulator_->set_step_observer(nullptr);
}

void SimAuditor::on_step(sim::Time at) {
  DROUTE_CHECK(at >= last_time_,
               "simulator clock moved backwards: ", at, " after ", last_time_);
  DROUTE_CHECK(sim::time_eq(at, simulator_->now()),
               "observed event time diverges from simulator clock");
  last_time_ = at;
  ++observed_;
}

util::Status SimAuditor::audit_quiescent() const {
  if (simulator_->pending() != 0) {
    return util::Status::failure(
        "simulator leaked " + std::to_string(simulator_->pending()) +
        " pending event(s) after drain");
  }
  return util::Status::success();
}

}  // namespace droute::check
