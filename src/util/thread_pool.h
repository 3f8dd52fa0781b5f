// Fixed-size thread pool with per-worker deques and work stealing.
//
// Two very different workloads share this pool:
//   * measurement campaigns — coarse, independent simulation runs (one
//     simulator instance per task, nothing shared);
//   * the sharded fabric allocator — batches of per-component water-fills
//     dispatched from the simulation thread (DESIGN.md §16).
// Both produce tasks far heavier than the scheduling overhead, so the pool
// keeps one mutex over all deques (no lock-free heroics) but preserves the
// stealing *discipline*: submitters distribute round-robin across worker
// deques, a worker pops its own deque LIFO (cache-warm), and an idle worker
// steals the oldest task from a sibling FIFO, which keeps the tail of an
// uneven batch balanced.
//
// Determinism contract (relied on by net::Fabric's sharded mode): the pool
// never reorders *results* — parallel_for runs every index exactly once and
// parallel_for_reduce folds in index order, so outputs are a function of the
// inputs alone, never of thread count or scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace droute::util {

class ThreadPool {
 public:
  /// Point-in-time execution statistics (see stats()).
  struct Stats {
    std::uint64_t submitted = 0;     // tasks ever enqueued
    std::uint64_t executed = 0;      // tasks that finished running
    std::uint64_t stolen = 0;        // tasks taken from a sibling's deque
    std::size_t queued = 0;          // tasks waiting right now (all deques)
    std::size_t peak_queued = 0;     // high-water mark of total queued
  };

  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queues and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Tasks currently waiting across all deques (snapshot; racy by nature).
  std::size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queued_locked();
  }

  /// Tasks that have finished executing so far.
  std::uint64_t tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// Consistent snapshot of the pool's counters.
  Stats stats() const {
    Stats s;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      s.submitted = submitted_;
      s.stolen = stolen_;
      s.queued = queued_locked();
      s.peak_queued = peak_queued_;
    }
    s.executed = executed_.load(std::memory_order_relaxed);
    return s;
  }

  /// Enqueue a task; returns a future for its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using ResultT = std::invoke_result_t<Fn>;
    // The count lands when the body returns or throws, before the
    // packaged_task makes the future ready: a caller that joined on the
    // future always sees its task in stats().executed.
    auto task = std::make_shared<std::packaged_task<ResultT()>>(
        [this, body = std::forward<Fn>(fn)]() mutable -> ResultT {
          const CountOnExit count(executed_);
          return body();
        });
    std::future<ResultT> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Runs fn(i) for i in [0, count) across the pool and waits for all.
  ///
  /// Every index runs even when some throw (a throwing body must not drop
  /// the rest of the batch); after the batch drains, the exception thrown by
  /// the *lowest* failing index is rethrown — a deterministic choice, unlike
  /// "whichever task a worker happened to finish first". Called from inside
  /// one of this pool's own workers, the batch runs inline on the calling
  /// thread (same semantics, no deadlock).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Deterministic parallel map-reduce: map(i) runs across the pool for i in
  /// [0, count), then the calling thread folds the results strictly left to
  /// right: reduce(...reduce(reduce(init, r0), r1)..., r[count-1]). The fold
  /// order is a function of `count` alone — never of thread count or
  /// scheduling — so the result (floating-point included) is byte-identical
  /// across pool sizes. Exceptions propagate as in parallel_for.
  template <typename T, typename MapFn, typename ReduceFn>
  T parallel_for_reduce(std::size_t count, T init, MapFn&& map,
                        ReduceFn&& reduce) {
    std::vector<T> results(count);
    parallel_for(count, [&](std::size_t i) { results[i] = map(i); });
    T acc = std::move(init);
    for (T& r : results) acc = reduce(std::move(acc), std::move(r));
    return acc;
  }

 private:
  void enqueue(std::function<void()> task);
  void worker_loop(std::size_t self);
  /// True iff the calling thread is one of this pool's workers.
  bool on_worker_thread() const;
  // Bumps `executed` when a task body leaves, normally or by throwing.
  struct CountOnExit {
    explicit CountOnExit(std::atomic<std::uint64_t>& counter)
        : executed(counter) {}
    CountOnExit(const CountOnExit&) = delete;
    CountOnExit& operator=(const CountOnExit&) = delete;
    ~CountOnExit() { executed.fetch_add(1, std::memory_order_relaxed); }
    std::atomic<std::uint64_t>& executed;
  };
  std::size_t queued_locked() const {
    std::size_t total = 0;
    for (const auto& deque : deques_) total += deque.size();
    return total;
  }

  std::vector<std::thread> workers_;
  // One deque per worker; deques_[i] is worker i's. External submitters
  // round-robin via next_deque_; a worker's nested submits stay local.
  std::vector<std::deque<std::function<void()>>> deques_;
  std::size_t next_deque_ = 0;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t stolen_ = 0;
  std::size_t peak_queued_ = 0;
  std::atomic<std::uint64_t> executed_{0};
};

}  // namespace droute::util
