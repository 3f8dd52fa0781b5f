// Concurrency stress for util::ThreadPool, util::logging, the
// check::contract globals, the obs recorder, and the sim::Task coroutine
// layer. These tests are value-light on purpose: their job is to give TSan
// (the `tsan` preset) enough real contention to flag any data race in the
// shared state. They still assert the visible results so they earn their
// keep in uninstrumented runs too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/contract.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace droute::util {
namespace {

TEST(ThreadPoolStress, ParallelForCountsEveryIndex) {
  ThreadPool pool(8);
  std::atomic<std::size_t> sum{0};
  constexpr std::size_t kCount = 10'000;
  pool.parallel_for(kCount, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), kCount * (kCount - 1) / 2);
}

TEST(ThreadPoolStress, ConcurrentSubmittersShareOnePool) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  constexpr int kSubmitters = 8;
  constexpr int kTasksEach = 500;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      pool.parallel_for(kTasksEach, [&](std::size_t) {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& thread : submitters) thread.join();
  EXPECT_EQ(executed.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPoolStress, ExceptionPropagatesUnderLoad) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(1000,
                                 [](std::size_t i) {
                                   if (i == 777) {
                                     throw std::runtime_error("task 777");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolStress, StatsTrackSubmissionAndExecution) {
  constexpr std::size_t kTasks = 2'000;
  ThreadPool pool(4);
  pool.parallel_for(kTasks, [](std::size_t) {});
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, kTasks);
  EXPECT_EQ(stats.executed, kTasks);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_GE(stats.peak_queued, 1u);
  EXPECT_LE(stats.peak_queued, kTasks);
}

TEST(ThreadPoolStress, RepeatedConstructionAndTeardown) {
  // Races between worker startup, a short burst of work and the draining
  // destructor are the classic pool lifecycle bugs.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(3);
    std::atomic<int> count{0};
    pool.parallel_for(50, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(LoggingStress, ConcurrentWritersAndThresholdFlips) {
  const LogLevel saved = log_threshold();
  // Writers log below threshold (dropped: exercises the fast path) while a
  // flipper toggles the global threshold — the atomic every DROUTE_LOG
  // statement reads.
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      set_log_threshold(LogLevel::kError);
      set_log_threshold(LogLevel::kOff);
    }
  });
  ThreadPool pool(6);
  pool.parallel_for(600, [](std::size_t i) {
    DROUTE_LOG(kDebug) << "stress line " << i;  // dropped at kWarn+
  });
  stop.store(true);
  flipper.join();
  set_log_threshold(saved);
  SUCCEED();  // no crash / no TSan report is the assertion
}

TEST(ContractStress, TogglesAndHandlerSwapsAreRaceFree) {
  const bool saved = check::debug_checks_enabled();
  ThreadPool pool(6);
  pool.parallel_for(600, [](std::size_t i) {
    if (i % 3 == 0) {
      check::set_debug_checks(i % 2 == 0);
    } else {
      (void)check::debug_checks_enabled();
      (void)check::failure_handler();
    }
  });
  check::set_debug_checks(saved);
  EXPECT_EQ(check::debug_checks_enabled(), saved);
}

TEST(ContractStress, ConcurrentFailuresEachThrow) {
  ThreadPool pool(6);
  std::atomic<int> caught{0};
  pool.parallel_for(200, [&](std::size_t) {
    try {
      DROUTE_CHECK(false, "stress violation");
    } catch (const check::CheckError&) {
      caught.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(caught.load(), 200);
}

TEST(RecorderStress, ConcurrentWritersAndSnapshotReaders) {
  // Writers hammer every instrument kind and the span buffer while a reader
  // repeatedly exports the full CSV — the exact contention pattern of a
  // parallel campaign being dumped mid-flight.
  obs::Recorder recorder;
  obs::ScopedRecorder install(&recorder);
  constexpr int kWriters = 6;
  constexpr int kOpsEach = 2'000;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)obs::metrics_csv(recorder.metrics());
      (void)recorder.spans();
    }
  });

  ThreadPool pool(kWriters);
  pool.parallel_for(kWriters, [&](std::size_t w) {
    obs::Counter* hits = obs::counter("stress.hits_total");
    obs::Gauge* depth = obs::gauge("stress.depth");
    obs::Histogram* wait = obs::histogram("stress.wait_s");
    obs::ScopedTrack scoped(0, static_cast<std::uint32_t>(w));
    for (int i = 0; i < kOpsEach; ++i) {
      obs::add(hits);
      obs::set(depth, static_cast<double>(i));
      obs::observe(wait, 1e-3 * static_cast<double>(i % 100));
      obs::count("stress.named_total");
      if (i % 10 == 0) {
        obs::emit_span("stress.op", obs::Clock::kWall, 0.0,
                       1e-3 * static_cast<double>(i));
      }
    }
  });
  stop.store(true);
  reader.join();

  EXPECT_EQ(recorder.metrics().counter("stress.hits_total")->value(),
            static_cast<std::uint64_t>(kWriters) * kOpsEach);
  EXPECT_EQ(recorder.metrics().counter("stress.named_total")->value(),
            static_cast<std::uint64_t>(kWriters) * kOpsEach);
  const auto snap = recorder.metrics().histogram("stress.wait_s")->snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kWriters) * kOpsEach);
  EXPECT_EQ(recorder.span_count() + recorder.dropped_spans(),
            static_cast<std::uint64_t>(kWriters) * (kOpsEach / 10));
}

TEST(RecorderStress, InstallUninstallRacesWithOneShotCounts) {
  // obs::count() resolves the global recorder on every call; flipping the
  // installation concurrently exercises the acquire/release handoff. Bumps
  // land in the recorder or vanish — either is fine, racing is not.
  obs::Recorder recorder;
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::set_recorder(&recorder);
      obs::set_recorder(nullptr);
    }
  });
  ThreadPool pool(4);
  pool.parallel_for(400, [](std::size_t) {
    obs::count("stress.flicker_total");
    (void)obs::enabled();
  });
  stop.store(true);
  flipper.join();
  obs::set_recorder(nullptr);
  SUCCEED();  // no crash / no TSan report is the assertion
}

}  // namespace
}  // namespace droute::util

namespace droute::sim {
namespace {

Task<int> stress_sleeper(Simulator& simulator, double dt, int value) {
  auto nap = delay(simulator, dt);
  if (!co_await nap) {
    co_return util::Error::make("cancelled", kErrCancelled);
  }
  co_return value;
}

/// A binary spawn tree: leaves sleep concurrently, inner nodes start both
/// children, then join them one after the other and sum. tree(3, 1) yields
/// 8+...+15 = 92.
Task<int> stress_tree(Simulator& simulator, int depth, int value) {
  if (depth == 0) {
    auto leaf = stress_sleeper(simulator, 0.5, value);
    co_return co_await leaf;
  }
  auto left = stress_tree(simulator, depth - 1, value * 2);
  auto right = stress_tree(simulator, depth - 1, value * 2 + 1);
  const auto left_sum = co_await left;
  if (!left_sum.ok()) co_return left_sum;
  const auto right_sum = co_await right;
  if (!right_sum.ok()) co_return right_sum;
  co_return left_sum.value() + right_sum.value();
}

TEST(TaskStress, PerThreadSimulatorsRunTaskTreesConcurrently) {
  // Tasks are single-simulator-affine by design, so the concurrency
  // contract is "one simulator per thread, zero shared state". Hammering
  // spawn/join/cancel trees on many threads at once gives ASan and
  // TSan real coverage of the frame lifecycle — a hidden global or a
  // use-after-destroy in the Task machinery shows up here.
  constexpr int kThreads = 8;
  constexpr int kRounds = 30;
  std::atomic<int> good{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&good] {
      for (int round = 0; round < kRounds; ++round) {
        Simulator simulator;
        auto deep = stress_tree(simulator, 3, 1);
        auto guarded = stress_sleeper(simulator, 100.0, 5);
        simulator.schedule_in(1.0, [&guarded] { guarded.cancel(); });
        auto doomed = stress_sleeper(simulator, 50.0, 7);
        simulator.run_until(0.25);
        doomed.cancel();
        simulator.run();
        const bool round_ok =
            deep.done() && deep.result().ok() && deep.result().value() == 92 &&
            guarded.done() && !guarded.result().ok() &&
            guarded.result().error().code == kErrCancelled &&
            simulator.now() == 1.0 && doomed.done() && !doomed.result().ok() &&
            doomed.result().error().code == kErrCancelled &&
            simulator.pending() == 0;
        if (round_ok) good.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(good.load(), kThreads * kRounds);
}

}  // namespace
}  // namespace droute::sim
