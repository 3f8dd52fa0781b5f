// Fixture: awaiting a temporary. ReadyProbe deliberately has rvalue-safe
// (non-&-qualified) awaiter methods so the temporary form still compiles;
// the analyzer flags it anyway because only the documented factories in
// sim/task.h (delay, delay_until) are known safe —
// GCC PR 99576 miscompiles the frame slot for awaited temporaries.
#include <coroutine>

#include "sim/simulator.h"
#include "sim/task.h"

namespace droute::analyze_fixture {

struct ReadyProbe {
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  int await_resume() const noexcept { return 1; }
};

inline ReadyProbe make_probe() { return {}; }

sim::Task<int> probe_twice(sim::Simulator& simulator) {
  int first = co_await make_probe();  // expect: coroutine-rvalue-await
  ReadyProbe probe;
  int second = co_await probe;  // lvalue: clean
  int slept = co_await sim::delay(simulator, 0.1) ? 1 : 0;  // documented rvalue-safe
  co_return first + second + slept;
}

}  // namespace droute::analyze_fixture
