#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/contract.h"
#include "util/blob.h"
#include "util/flat_id_map.h"
#include "util/indexed_heap.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace droute::util {
namespace {

// --------------------------------------------------------- indexed heap ----

TEST(FlatIdMap, MatchesAStdMapUnderRandomOps) {
  // Sequential ids like the fabric's FlowIds, inserted in bursts and erased
  // at random, so erases shift long probe runs and the table both grows and
  // shrinks. Every lookup must agree with std::map.
  FlatIdMap map;
  std::map<std::uint64_t, std::uint32_t> oracle;
  Rng rng(26);
  std::uint64_t next_id = 1;
  std::size_t peak_capacity = 0;
  for (int round = 0; round < 40; ++round) {
    const auto burst = rng.uniform_int(0, 300);
    for (std::int64_t i = 0; i < burst; ++i) {
      const auto value =
          static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
      map.insert(next_id, value);
      oracle.emplace(next_id, value);
      ++next_id;
    }
    const auto erases =
        rng.uniform_int(0, static_cast<std::int64_t>(oracle.size()));
    for (std::int64_t i = 0; i < erases; ++i) {
      const auto id = static_cast<std::uint64_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(next_id)));
      EXPECT_EQ(map.erase(id), oracle.erase(id) == 1) << "id " << id;
    }
    ASSERT_EQ(map.size(), oracle.size());
    for (std::uint64_t id = 1; id <= next_id; ++id) {
      const auto it = oracle.find(id);
      const std::uint32_t want =
          it == oracle.end() ? FlatIdMap::kAbsent : it->second;
      ASSERT_EQ(map.find(id), want) << "round " << round << " id " << id;
    }
    // At most half full, and, past the floor, at least an eighth.
    EXPECT_LE(2 * map.size(), map.capacity());
    if (map.capacity() > FlatIdMap::kMinCapacity) {
      EXPECT_GE(8 * map.size(), map.capacity());
    }
    peak_capacity = std::max(peak_capacity, map.capacity());
  }
  for (const auto& [id, value] : oracle) EXPECT_TRUE(map.erase(id));
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), FlatIdMap::kMinCapacity);  // shrank back
  EXPECT_GT(peak_capacity, 4 * FlatIdMap::kMinCapacity);
  EXPECT_EQ(map.find(1), FlatIdMap::kAbsent);
  EXPECT_FALSE(map.erase(1));
}

TEST(IndexedHeap, MatchesASortedOracleUnderRandomOps) {
  // Keys from a small range so duplicates are common; ids from a small
  // range so pushes often re-key an id that is already queued.
  constexpr std::uint32_t kIds = 48;
  std::vector<int> keys(kIds, 0);
  const auto less = [&keys](std::uint32_t a, std::uint32_t b) {
    return keys[a] < keys[b];
  };
  IndexedHeap<decltype(less)> heap(less);
  std::vector<std::pair<int, std::uint32_t>> oracle;  // sorted (key, id)
  const auto oracle_find = [&](std::uint32_t id) {
    return std::lower_bound(oracle.begin(), oracle.end(),
                            std::make_pair(keys[id], id));
  };
  const auto queued = [&](std::uint32_t id) {
    const auto it = oracle_find(id);
    return it != oracle.end() && it->second == id;
  };

  Rng rng(20231);
  int rekeyed_up = 0;
  int rekeyed_down = 0;
  int erased_inside = 0;
  for (int op = 0; op < 40000; ++op) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIds - 1));
    switch (rng.uniform_int(0, 3)) {
      case 0:
      case 1: {  // push, or re-key a queued id
        const int key = static_cast<int>(rng.uniform_int(0, 11));
        if (queued(id)) {
          oracle.erase(oracle_find(id));
          rekeyed_up += key > keys[id];
          rekeyed_down += key < keys[id];
        }
        keys[id] = key;
        heap.update(id);
        oracle.insert(oracle_find(id), {key, id});
        break;
      }
      case 2: {  // erase, often from the middle
        const bool was_queued = queued(id);
        if (was_queued) {
          erased_inside += heap.top() != id;
          oracle.erase(oracle_find(id));
        }
        EXPECT_EQ(heap.erase(id), was_queued);
        break;
      }
      default: {  // pop
        if (oracle.empty()) break;
        const std::uint32_t top = heap.pop();
        ASSERT_EQ(keys[top], oracle.front().first);
        ASSERT_TRUE(queued(top));
        oracle.erase(oracle_find(top));
        break;
      }
    }
    ASSERT_EQ(heap.size(), oracle.size());
    ASSERT_EQ(heap.contains(id), queued(id));
    if (!oracle.empty()) ASSERT_EQ(keys[heap.top()], oracle.front().first);
  }
  EXPECT_GT(rekeyed_up, 0);
  EXPECT_GT(rekeyed_down, 0);
  EXPECT_GT(erased_inside, 0);

  while (!heap.empty()) {
    const std::uint32_t top = heap.pop();
    ASSERT_EQ(keys[top], oracle.front().first);
    ASSERT_TRUE(queued(top));
    oracle.erase(oracle_find(top));
  }
  EXPECT_TRUE(oracle.empty());
  EXPECT_FALSE(heap.contains(kIds + 100));  // never pushed: no position
  EXPECT_FALSE(heap.erase(kIds + 100));
}

// ---------------------------------------------------------------- units ----

TEST(Units, MbpsBytesRoundTrip) {
  EXPECT_DOUBLE_EQ(mbps_to_bytes_per_sec(8.0), 1e6);
  EXPECT_DOUBLE_EQ(bytes_per_sec_to_mbps(1e6), 8.0);
  for (double rate : {0.1, 1.0, 9.3, 44.0, 10000.0}) {
    EXPECT_NEAR(bytes_per_sec_to_mbps(mbps_to_bytes_per_sec(rate)), rate,
                1e-12);
  }
}

TEST(Units, SecondsAtRate) {
  // 100 MB at 8 Mbps = 100e6 bytes at 1e6 B/s = 100 s.
  EXPECT_DOUBLE_EQ(seconds_at_rate(100 * kMB, 8.0), 100.0);
}

TEST(Units, TimeHelpers) {
  EXPECT_DOUBLE_EQ(ms(250.0), 0.25);
  EXPECT_DOUBLE_EQ(us(1500.0), 0.0015);
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 9);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / kN, 2.5, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  constexpr int kN = 20000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.pareto(1.3, 1.0, 100.0);
    ASSERT_GE(x, 1.0 - 1e-9);
    ASSERT_LE(x, 100.0 + 1e-9);
  }
}

TEST(Rng, LognormalMeanCv) {
  Rng rng(19);
  constexpr int kN = 40000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.lognormal_mean_cv(5.0, 0.4);
  EXPECT_NEAR(sum / kN, 5.0, 0.12);
}

TEST(Rng, LognormalZeroCvIsExact) {
  Rng rng(21);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_cv(7.5, 0.0), 7.5);
}

TEST(Rng, ForkIndependence) {
  Rng parent(23);
  Rng child1 = parent.fork(1);
  Rng child2 = parent.fork(2);
  EXPECT_NE(child1.next_u64(), child2.next_u64());
}

TEST(Rng, SplitIsDeterministicPerKey) {
  const Rng parent(23);
  Rng first = parent.split(1);
  Rng second = parent.split(1);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(first.next_u64(), second.next_u64());
  }
}

TEST(Rng, SplitKeysGiveIndependentStreams) {
  const Rng parent(23);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int collisions = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(Rng, SplitDoesNotPerturbParent) {
  Rng witness(23);
  Rng parent(23);
  // The whole point of split vs fork: derive as many children as you like
  // and the parent's own stream is untouched.
  (void)parent.split(7);
  (void)parent.split(8);
  (void)parent.split(9);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(parent.next_u64(), witness.next_u64());
  }
}

TEST(Rng, SplitDependsOnParentState) {
  Rng early(23);
  Rng late(23);
  (void)late.next_u64();  // advance: split must key off current state
  Rng from_early = early.split(1);
  Rng from_late = late.split(1);
  EXPECT_NE(from_early.next_u64(), from_late.next_u64());
}

// ---------------------------------------------------------------- result ----

TEST(Result, SuccessAndError) {
  Result<int> ok(5);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
  EXPECT_EQ(ok.value_or(9), 5);

  Result<int> err(Error::make("boom", 3));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().message, "boom");
  EXPECT_EQ(err.error().code, 3);
  EXPECT_EQ(err.value_or(9), 9);
}

TEST(Result, StatusVariants) {
  EXPECT_TRUE(Status::success().ok());
  const Status failure = Status::failure("nope", 7);
  EXPECT_FALSE(failure.ok());
  EXPECT_EQ(failure.error().code, 7);
}

TEST(Result, CheckThrowsOnViolation) {
  EXPECT_THROW(
      { DROUTE_CHECK(false, "expected failure"); }, std::logic_error);
}

// ----------------------------------------------------------------- table ----

TEST(Table, RendersAlignedColumns) {
  TextTable table({"a", "long-header"});
  table.add_row({"xxxx", "1"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| a    "), std::string::npos);
  EXPECT_NE(out.find("| long-header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxx "), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  TextTable table({"k", "v"});
  table.add_row({"with,comma", "with\"quote"});
  const std::string csv = table.render_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_seconds(86.917), "86.92");
  EXPECT_EQ(fmt_percent(-0.5555), "-55.55%");
  EXPECT_EQ(fmt_percent(0.6295), "+62.95%");
  EXPECT_EQ(fmt_mb(100 * kMB), "100");
  EXPECT_EQ(fmt_mbps(9.3), "9.3 Mbps");
}

// ------------------------------------------------------------ thread pool ----

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [](std::size_t i) {
                          if (i == 2) throw std::runtime_error("task failed");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForRunsEveryIndexEvenWhenOneThrows) {
  // Regression: a throwing body used to abandon the rest of the batch —
  // the caller rethrew off the first future and the still-queued tasks ran
  // (or dangled) behind its back. Every index must execute exactly once
  // before the exception surfaces.
  ThreadPool pool(4);
  std::array<std::atomic<int>, 8> ran{};
  try {
    pool.parallel_for(ran.size(), [&](std::size_t i) {
      ran[i].fetch_add(1);
      if (i == 3) throw std::runtime_error("index 3");
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex) {
  // With several failures the *lowest* index wins — a deterministic pick,
  // unlike "whichever task a worker finished first".
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallel_for(16, [](std::size_t i) {
        if (i % 2 == 1) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "parallel_for swallowed the exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "1");
    }
  }
}

TEST(ThreadPool, NestedParallelForFromWorkerRunsInline) {
  // A worker of the pool re-entering parallel_for must not deadlock waiting
  // on tasks only it could drain; the batch runs inline instead.
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  pool.parallel_for(3, [&](std::size_t) {
    pool.parallel_for(5, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 15);
}

// ------------------------------------------------------------------ blob ----

TEST(Blob, DeterministicContent) {
  Rng a(99), b(99);
  EXPECT_EQ(make_random_blob(a, 1000), make_random_blob(b, 1000));
}

TEST(Blob, OddSizesFilled) {
  Rng rng(1);
  for (std::size_t size : {0u, 1u, 7u, 8u, 9u, 1023u}) {
    EXPECT_EQ(make_random_blob(rng, size).size(), size);
  }
}

}  // namespace
}  // namespace droute::util

// --------------------------------------------------------------- logging ----

namespace droute::util {
namespace {

TEST(Logging, ParseLevels) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("garbage"), LogLevel::kWarn);  // safe default
}

TEST(Logging, ThresholdRoundTrip) {
  const LogLevel before = log_threshold();
  set_log_threshold(LogLevel::kError);
  EXPECT_EQ(log_threshold(), LogLevel::kError);
  // Suppressed statements must not evaluate their stream arguments.
  int evaluations = 0;
  auto count = [&evaluations] {
    ++evaluations;
    return "x";
  };
  DROUTE_LOG(kDebug) << count();
  EXPECT_EQ(evaluations, 0);
  set_log_threshold(LogLevel::kDebug);
  DROUTE_LOG(kDebug) << count();
  EXPECT_EQ(evaluations, 1);
  set_log_threshold(before);
}

}  // namespace
}  // namespace droute::util
