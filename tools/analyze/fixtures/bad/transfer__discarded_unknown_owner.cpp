// Fixture: a member call is cleared only when its receiver's class is known
// and owns no coroutine of that name. A receiver of unknown class — a member
// declared out of sight (in a header, or below its use), a chained member,
// a call result, a smart pointer, an alias — may reach the coroutine, so
// dropping its handle is flagged; so is a class that inherits one. And
// `Task<...> detail::helper(` names a free coroutine when `detail` is no
// class the analyzer has seen.
#include <memory>

#include "sim/simulator.h"
#include "sim/task.h"

namespace droute::analyze_fixture {

class Uploader {
 public:
  sim::Task<void> upload_task(sim::Simulator& simulator);
};

sim::Task<void> Uploader::upload_task(sim::Simulator& simulator) {
  auto tick = sim::delay(simulator, 1.0);
  co_await tick;
}

struct Stack {
  Uploader* api = nullptr;
};

using Engine = Uploader;

Uploader& uploader_for(Stack& stack) { return *stack.api; }

class Relay {
 public:
  void kick(sim::Simulator& simulator) {
    api_->upload_task(simulator);  // expect: coroutine-discarded-task
  }

 private:
  Uploader* api_ = nullptr;
};

class Mirror : public Uploader {};

void fire(Stack& stack, Engine& engine, Mirror& mirror,
          std::unique_ptr<Uploader>& owned, sim::Simulator& simulator) {
  stack.api->upload_task(simulator);  // expect: coroutine-discarded-task
  uploader_for(stack).upload_task(simulator);  // expect: coroutine-discarded-task
  owned->upload_task(simulator);  // expect: coroutine-discarded-task
  engine.upload_task(simulator);  // expect: coroutine-discarded-task
  mirror.upload_task(simulator);  // expect: coroutine-discarded-task
}

namespace detail {
// The trailing return type hides this declaration from the analyzer, as a
// header's would be hidden; only the qualified definition below is seen.
auto helper(sim::Simulator& simulator) -> sim::Task<void>;
}  // namespace detail

sim::Task<void> detail::helper(sim::Simulator& simulator) {
  auto tick = sim::delay(simulator, 1.0);
  co_await tick;
}

namespace detail {
void kick(sim::Simulator& simulator) {
  helper(simulator);  // expect: coroutine-discarded-task
}
}  // namespace detail

}  // namespace droute::analyze_fixture
