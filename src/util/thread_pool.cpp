#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <limits>

namespace droute::util {

namespace {
// Worker identity for deque routing and for detecting re-entrant
// parallel_for calls (which must run inline rather than deadlock waiting on
// a batch only the blocked worker could drain).
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker = 0;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  deques_.resize(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::on_worker_thread() const {
  return tls_pool == this;
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A worker's own submissions stay on its deque (popped LIFO below, so
    // nested work runs cache-warm); external submitters spread round-robin.
    const std::size_t target = on_worker_thread()
                                   ? tls_worker
                                   : next_deque_++ % deques_.size();
    deques_[target].push_back(std::move(task));
    ++submitted_;
    peak_queued_ = std::max(peak_queued_, queued_locked());
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop(std::size_t self) {
  tls_pool = this;
  tls_worker = self;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || queued_locked() > 0; });
      if (!deques_[self].empty()) {
        // Own deque: LIFO — the most recently pushed task is the hottest.
        task = std::move(deques_[self].back());
        deques_[self].pop_back();
      } else {
        // Steal: scan siblings from the right neighbour, taking the oldest
        // task (FIFO) so the victim keeps its warm tail.
        for (std::size_t k = 1; k < deques_.size() && !task; ++k) {
          auto& victim = deques_[(self + k) % deques_.size()];
          if (victim.empty()) continue;
          task = std::move(victim.front());
          victim.pop_front();
          ++stolen_;
        }
        if (!task) return;  // stopping_ and every deque drained
      }
    }
    // Each task counts itself as executed before it releases its waiter
    // (see submit/parallel_for), so stats() read after a join is exact.
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;

  // Shared join state. The caller always waits for every index — even after
  // a failure — so by-reference capture is safe and no task can outlive the
  // batch (the historical bug: rethrowing on the first future abandoned
  // still-queued tasks holding dangling references).
  struct Join {
    std::mutex m;
    std::condition_variable done;
    std::size_t remaining;
    std::size_t first_error = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };

  const auto run_one = [&fn](std::size_t i, Join& join) {
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> g(join.m);
      if (i < join.first_error) {
        join.first_error = i;
        join.error = std::current_exception();
      }
    }
  };

  Join join;
  join.remaining = count;
  if (on_worker_thread()) {
    // Re-entrant batch from one of our own workers: run inline. Queueing
    // would let every worker block waiting on a batch none of them can
    // start.
    for (std::size_t i = 0; i < count; ++i) run_one(i, join);
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      enqueue([this, &run_one, &join, i] {
        run_one(i, join);
        executed_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> g(join.m);
        if (--join.remaining == 0) join.done.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(join.m);
    join.done.wait(lock, [&join] { return join.remaining == 0; });
  }
  if (join.error) std::rethrow_exception(join.error);
}

}  // namespace droute::util
