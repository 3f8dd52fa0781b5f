// Fixture: a member coroutine shares its name with another class's plain
// method. `Foo::run` is a task, `Simulator::run` is not, so draining the
// simulator with `sim.run();` discards no task.
#include "sim/simulator.h"
#include "sim/task.h"

namespace droute::analyze_fixture {

class Foo {
 public:
  explicit Foo(sim::Simulator& simulator) : simulator_(simulator) {}
  sim::Task<void> run(int rounds);

 private:
  sim::Simulator& simulator_;
};

sim::Task<void> Foo::run(int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const bool ran = co_await sim::delay(simulator_, 1.0);
    if (!ran) co_return;
  }
}

void drain(sim::Simulator& sim) {
  Foo foo(sim);
  auto task = foo.run(3);  // bound handle: clean
  sim.run();
}

}  // namespace droute::analyze_fixture
