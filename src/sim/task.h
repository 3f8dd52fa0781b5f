// Structured concurrency over the discrete-event kernel (C++20).
//
// sim::Task<T> is a value-returning, joinable, cancellable coroutine. A
// multi-leg transfer reads top-to-bottom:
//
//   sim::Task<double> detour(transfer::TransferEngine& xfer, ...) {
//     auto leg1 = xfer.submit(std::move(request));   // one-request batch
//     if (!co_await leg1) {                          // true: completed
//       co_return util::Error::make(leg1.status(0).error);  // into the Result
//     }
//     ...
//     co_return elapsed;
//   }
//
// Semantics:
//   * Eager start: the body runs inside the caller's stack frame until its
//     first suspension (initial_suspend is suspend_never), so an engine's
//     synchronous argument validation still fails synchronously.
//   * co_return maps onto util::Result<T>: a task can return a T, a
//     util::Error, or a whole util::Result<T>. Task<void> completes with a
//     util::Status. An exception escaping the body is caught and becomes
//     an error result — never std::terminate.
//   * Join: co_await the task from another task (completion resumes the
//     awaiter in the same sim event), or, from plain code, poll
//     done()/result() or run it with drive(simulator, task, dt). A task has
//     one joiner slot: a second co_await while the first is still parked is
//     a contract violation (a finished task may be awaited any number of
//     times).
//   * Cancellation is cooperative: cancel() sets a flag and cancels the
//     awaitable the task is currently parked on (pending sim event,
//     in-flight transfer batch, Notify wait). The body resumes, observes
//     the failure (delay() and Notify::wait() return false; a cancelled
//     batch's requests settle as aborted), runs its cleanup, and
//     co_returns normally — frames are never destroyed mid-body, so RAII
//     cleanup always runs.
//   * Lifetime: every pending resume lives in the simulator's queue, so a
//     Task must not outlive its Simulator (cancel() it and drain first if
//     tearing down early; drive() does both when the task misses its
//     deadline). See DESIGN.md §10.
//   * Awaiting is lvalue-only (awaiter methods are &-qualified): GCC 12
//     miscompiles temporaries awaited directly in a co_await expression
//     (GCC PR 99576 family), so `co_await make_task()` is rejected at
//     compile time — bind the task to a local first.
#pragma once

#include <coroutine>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/contract.h"
#include "sim/simulator.h"
#include "util/result.h"

namespace droute::sim {

/// util::Error codes used by the Task layer.
inline constexpr int kErrCancelled = 499;

class TaskPromiseBase;

namespace detail {

/// Type-erased slice of a task's shared state, visible to awaitables
/// through TaskPromiseBase without knowing the task's value type.
struct TaskStateBase {
  bool finished = false;          // body ran to completion (frame is gone)
  bool cancel_requested = false;  // cooperative-cancel flag
  // Cancels whatever awaitable the task is currently parked on; armed by
  // the awaitable at suspension, disarmed on normal resume.
  std::function<void()> cancel_pending;
  // The one coroutine parked in co_await on this task, resumed after the
  // task finishes and its frame is destroyed; with its promise when it is
  // a task (null for a plain coroutine), whose canceller is disarmed first.
  std::coroutine_handle<> joiner;
  TaskPromiseBase* joiner_promise = nullptr;
};

inline void request_cancel(TaskStateBase& state) {
  if (state.finished || state.cancel_requested) return;
  state.cancel_requested = true;
  if (state.cancel_pending) {
    auto canceller = std::move(state.cancel_pending);
    state.cancel_pending = nullptr;
    canceller();  // resumes the task, which unwinds cooperatively
  }
}

}  // namespace detail

/// Non-template base of every Task promise. Awaitables detect task-aware
/// coroutines via std::is_base_of_v<TaskPromiseBase, Promise> in their
/// templated await_suspend and use this interface to participate in
/// cancellation; plain std::coroutine_handle<> users keep working.
class TaskPromiseBase {
 public:
  bool cancel_requested() const { return base_state_->cancel_requested; }
  void arm_canceller(std::function<void()> canceller) {
    base_state_->cancel_pending = std::move(canceller);
  }
  void disarm_canceller() { base_state_->cancel_pending = nullptr; }

 protected:
  detail::TaskStateBase* base_state_ = nullptr;
};

namespace detail {

/// Supplies the co_return surface: a promise must define exactly one of
/// return_value / return_void, so the split lives in a CRTP base.
template <typename T, typename Derived>
struct PromiseReturn {
  void return_value(T value) {
    static_cast<Derived*>(this)->complete(util::Result<T>(std::move(value)));
  }
  void return_value(util::Error error) {
    static_cast<Derived*>(this)->complete(util::Result<T>(std::move(error)));
  }
  void return_value(util::Result<T> result) {
    static_cast<Derived*>(this)->complete(std::move(result));
  }
};

template <typename Derived>
struct PromiseReturn<void, Derived> {
  void return_void() {
    static_cast<Derived*>(this)->complete(util::Status::success());
  }
};

}  // namespace detail

template <typename T = void>
class Task {
 public:
  /// What joining the task yields: Result<T>, or Status for Task<void>.
  using result_type =
      std::conditional_t<std::is_void_v<T>, util::Status, util::Result<T>>;

  class promise_type;

 private:
  struct State : detail::TaskStateBase {
    std::optional<result_type> result;
  };

  /// Destroys the frame before resuming the joiner, so it observes the
  /// task fully finished (and the frame's RAII state released).
  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<promise_type> handle) noexcept {
      std::shared_ptr<State> state = handle.promise().take_state();
      handle.destroy();
      state->finished = true;
      state->cancel_pending = nullptr;
      const std::coroutine_handle<> joiner = std::exchange(state->joiner, {});
      if (!joiner) return;
      TaskPromiseBase* parent = std::exchange(state->joiner_promise, nullptr);
      if (parent != nullptr) parent->disarm_canceller();
      joiner.resume();
    }
    void await_resume() const noexcept {}
  };

 public:
  class promise_type
      : public TaskPromiseBase,
        public detail::PromiseReturn<T, promise_type> {
   public:
    promise_type() : state_(std::make_shared<State>()) {
      TaskPromiseBase::base_state_ = state_.get();
    }

    Task get_return_object() { return Task(state_); }
    std::suspend_never initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }

    void unhandled_exception() {
      try {
        throw;
      } catch (const std::exception& e) {
        complete(util::Error::make(std::string("uncaught exception: ") +
                                   e.what()));
      } catch (...) {
        complete(util::Error::make("uncaught exception of non-std type"));
      }
    }

    void complete(result_type result) {
      if (!state_->result.has_value()) state_->result.emplace(std::move(result));
    }

    std::shared_ptr<State> take_state() { return std::move(state_); }

   private:
    std::shared_ptr<State> state_;
  };

  /// True once the body ran to completion (normally or via an exception).
  bool done() const { return state_ != nullptr && state_->finished; }

  /// The completed task's result. Precondition: done().
  const result_type& result() const {
    DROUTE_CHECK(done(), "Task::result() before completion");
    // Invariant: complete() fills `result` before `finished` flips, so a
    // done() task always holds a value (opaque to flow-sensitive tidy).
    return *state_->result;  // NOLINT(bugprone-unchecked-optional-access)
  }

  /// Requests cooperative cancellation: the pending awaitable (sim event,
  /// transfer batch, Notify wait) is cancelled and the body unwinds through
  /// its normal failure paths. No-op on a finished task.
  void cancel() {
    if (state_ != nullptr) detail::request_cancel(*state_);
  }

  bool cancel_requested() const {
    return state_ != nullptr && state_->cancel_requested;
  }

  // --- awaiter interface: co_await a (named, lvalue) task from a task ---

  bool await_ready() const& { return done(); }

  template <typename Promise>
  bool await_suspend(std::coroutine_handle<Promise> handle) & {
    DROUTE_CHECK(!state_->joiner, "Task awaited by a second joiner");
    TaskPromiseBase* parent = nullptr;
    if constexpr (std::is_base_of_v<TaskPromiseBase, Promise>) {
      parent = &handle.promise();
      // A cancelled parent forwards the cancellation before parking, so a
      // chain of co_awaits unwinds promptly instead of draining each leg.
      if (parent->cancel_requested()) detail::request_cancel(*state_);
    }
    if (state_->finished) return false;
    state_->joiner = handle;
    state_->joiner_promise = parent;
    if (parent != nullptr) {
      detail::TaskStateBase* child = state_.get();
      parent->arm_canceller([child] { detail::request_cancel(*child); });
    }
    return true;
  }

  // Resumption implies FinalAwaiter ran, which implies complete() ran.
  result_type await_resume() & { return *state_->result; }  // NOLINT(bugprone-unchecked-optional-access)

 private:
  friend class promise_type;
  explicit Task(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Awaitable: suspend the task for `dt` simulated seconds. Yields true when
/// the delay elapsed, false when the task was cancelled mid-sleep (the
/// pending sim event is cancelled, not merely abandoned).
class DelayAwaitable {
 public:
  DelayAwaitable(Simulator& simulator, Time dt)
      : simulator_(&simulator), dt_(dt) {}

  bool await_ready() const noexcept { return dt_ <= 0.0; }

  template <typename Promise>
  bool await_suspend(std::coroutine_handle<Promise> handle) {
    if constexpr (std::is_base_of_v<TaskPromiseBase, Promise>) {
      TaskPromiseBase& promise = handle.promise();
      if (promise.cancel_requested()) {
        cancelled_ = true;
        return false;  // already cancelled: fail fast, do not suspend
      }
      event_ = simulator_->schedule_in(dt_, [this, handle] {
        event_ = EventId{};
        handle.promise().disarm_canceller();
        handle.resume();
      });
      promise.arm_canceller([this, handle] {
        simulator_->cancel(event_);
        event_ = EventId{};
        cancelled_ = true;
        handle.resume();
      });
    } else {
      simulator_->schedule_in(dt_, [handle] { handle.resume(); });
    }
    return true;
  }

  bool await_resume() const noexcept { return !cancelled_; }

 private:
  Simulator* simulator_;
  Time dt_;
  EventId event_;
  bool cancelled_ = false;
};

inline DelayAwaitable delay(Simulator& simulator, Time dt) {
  return DelayAwaitable(simulator, dt);
}

/// Awaitable: suspend until absolute simulated time `at` (no-op if past).
inline DelayAwaitable delay_until(Simulator& simulator, Time at) {
  return DelayAwaitable(simulator, at - simulator.now());
}

/// Single-simulator condition primitive: tasks park on wait() and are all
/// resumed by notify_all() (in the same sim event). Waits are
/// cancellation-aware — a cancelled waiter resumes with false. Always
/// re-check the guarded condition in a loop; a notify is a hint, not a
/// message.
class Notify {
 public:
  class WaitAwaitable {
   public:
    explicit WaitAwaitable(Notify& notify) : notify_(&notify) {}

    bool await_ready() const& noexcept { return false; }

    template <typename Promise>
    bool await_suspend(std::coroutine_handle<Promise> handle) & {
      if constexpr (std::is_base_of_v<TaskPromiseBase, Promise>) {
        TaskPromiseBase& promise = handle.promise();
        if (promise.cancel_requested()) {
          cancelled_ = true;
          return false;
        }
        // One-shot guard shared between the notify path and the cancel
        // path: whichever fires first consumes the resume.
        auto armed = std::make_shared<bool>(true);
        notify_->waiters_.push_back([armed, handle] {
          if (!*armed) return;
          *armed = false;
          handle.promise().disarm_canceller();
          handle.resume();
        });
        promise.arm_canceller([this, armed, handle] {
          if (!*armed) return;
          *armed = false;
          cancelled_ = true;
          handle.resume();
        });
      } else {
        notify_->waiters_.push_back([handle] { handle.resume(); });
      }
      return true;
    }

    /// True when notified, false when the task was cancelled instead.
    bool await_resume() const& noexcept { return !cancelled_; }

   private:
    Notify* notify_;
    bool cancelled_ = false;
  };

  /// Builds a wait awaitable; bind it to a local, then co_await it.
  WaitAwaitable wait() { return WaitAwaitable(*this); }

  /// Resumes every currently-parked waiter, in park order.
  void notify_all() {
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto& waiter : waiters) waiter();
  }

 private:
  std::vector<std::function<void()>> waiters_;
};

/// Steps `simulator` until `task` finishes or `deadline_s` of simulated
/// time has passed since the call. Returns true when the task finished.
/// Otherwise (deadline, or the queue ran dry with the task still parked)
/// the task is cancelled and the cancellation drained, so its frame has
/// unwound (flows aborted, sessions released) before drive() returns false.
template <typename R>
bool drive(Simulator& simulator, Task<R>& task, double deadline_s) {
  const double start = simulator.now();
  while (!task.done() && simulator.now() - start < deadline_s) {
    if (!simulator.step()) break;
  }
  if (task.done()) return true;
  task.cancel();
  while (!task.done() && simulator.step()) {
  }
  return false;
}

}  // namespace droute::sim
