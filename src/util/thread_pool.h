// Fixed-size thread pool with one FIFO task queue.
//
// Its work is coarse and independent: measure::Campaign::run_grid fans a
// measurement grid out as whole simulation runs (one simulator instance per
// task, nothing shared). Each task dwarfs the scheduling overhead, so one
// mutex guards one queue and workers take tasks in submission order.
//
// parallel_for runs every index exactly once and reports failures by index,
// so its outcome is a function of the inputs alone, never of thread count
// or scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace droute::util {

class ThreadPool {
 public:
  /// Point-in-time execution statistics (see stats()).
  struct Stats {
    std::uint64_t submitted = 0;     // tasks ever enqueued
    std::uint64_t executed = 0;      // tasks that finished running
    std::size_t queued = 0;          // tasks waiting right now
    std::size_t peak_queued = 0;     // high-water mark of queued
  };

  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Consistent snapshot of the pool's counters.
  Stats stats() const;

  /// Runs fn(i) for i in [0, count) across the pool and waits for all.
  ///
  /// Every index runs even when some throw (a throwing body must not drop
  /// the rest of the batch); after the batch drains, the exception thrown by
  /// the *lowest* failing index is rethrown — a deterministic choice, unlike
  /// "whichever task a worker happened to finish first". Called from inside
  /// one of this pool's own workers, the batch runs inline on the calling
  /// thread (same semantics, no deadlock). Queued indices count as executed
  /// before the call returns, so stats() read after it is exact.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::uint64_t submitted_ = 0;
  std::size_t peak_queued_ = 0;
  std::atomic<std::uint64_t> executed_{0};
};

}  // namespace droute::util
