// Fixture: a member coroutine called as a bare statement is as discarded as
// a free one, wherever the call's class is known to be the coroutine's:
// inside the class's own member code (plain or `this->`) and on a variable
// declared as that class.
#include "sim/simulator.h"
#include "sim/task.h"

namespace droute::analyze_fixture {

class Pump {
 public:
  sim::Task<void> drain(sim::Simulator& simulator);
  void kick(sim::Simulator& simulator) {
    drain(simulator);  // expect: coroutine-discarded-task
  }
  void restart(sim::Simulator& simulator);
};

sim::Task<void> Pump::drain(sim::Simulator& simulator) {
  auto tick = sim::delay(simulator, 1.0);
  co_await tick;
}

void Pump::restart(sim::Simulator& simulator) {
  this->drain(simulator);  // expect: coroutine-discarded-task
}

void fire(Pump& pump, sim::Simulator& simulator) {
  pump.drain(simulator);  // expect: coroutine-discarded-task
  simulator.run();  // another class's plain method: clean
}

}  // namespace droute::analyze_fixture
