#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <limits>

namespace droute::util {

namespace {
// The pool whose worker is the calling thread, for detecting re-entrant
// parallel_for calls (which must run inline rather than deadlock waiting on
// a batch only the blocked worker could drain).
thread_local const ThreadPool* tls_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
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

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.submitted = submitted_;
    s.queued = queue_.size();
    s.peak_queued = peak_queued_;
  }
  s.executed = executed_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::worker_loop() {
  tls_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and the queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
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
  if (tls_pool == this) {
    // Re-entrant batch from one of our own workers: run inline. Queueing
    // would let every worker block waiting on a batch none of them can
    // start.
    for (std::size_t i = 0; i < count; ++i) run_one(i, join);
  } else {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < count; ++i) {
        queue_.emplace_back([this, &run_one, &join, i] {
          run_one(i, join);
          // Counted before the join can release the caller.
          executed_.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> g(join.m);
          if (--join.remaining == 0) join.done.notify_all();
        });
      }
      submitted_ += count;
      peak_queued_ = std::max(peak_queued_, queue_.size());
    }
    cv_.notify_all();
    std::unique_lock<std::mutex> lock(join.m);
    join.done.wait(lock, [&join] { return join.remaining == 0; });
  }
  if (join.error) std::rethrow_exception(join.error);
}

}  // namespace droute::util
