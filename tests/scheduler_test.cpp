// BatchScheduler, workload generator and histogram tests, including the
// scheduler driving real transfers through the scenario world.
#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "measure/workload.h"
#include "scenario/foreground.h"
#include "scenario/north_america.h"
#include "stats/histogram.h"
#include "util/units.h"

namespace droute::core {
namespace {

// ------------------------------------------------------- pure scheduler ----

/// Launcher driven by a simulator: jobs "run" for bytes/rate seconds.
struct FakeExecutor {
  sim::Simulator simulator;
  double rate_bytes_per_s = 1e6;
  std::vector<std::string> launch_order;

  BatchScheduler::Launcher launcher() {
    return [this](const TransferJob& job, const std::string& route,
                  std::function<void(bool, std::string)> done) {
      launch_order.push_back(job.id + "@" + route);
      simulator.schedule_in(
          static_cast<double>(job.bytes) / rate_bytes_per_s,
          [done = std::move(done)] { done(true, ""); });
    };
  }
  std::function<double()> clock() {
    return [this] { return simulator.now(); };
  }
};

TEST(Scheduler, RunsJobsAndReportsOutcomes) {
  FakeExecutor exec;
  BatchScheduler scheduler({.max_concurrent = 2}, exec.clock(),
                           exec.launcher());
  for (int i = 0; i < 5; ++i) {
    TransferJob job;
    job.id = "job" + std::to_string(i);
    job.client = "UBC";
    job.provider = "Google Drive";
    job.bytes = 1000000;
    ASSERT_TRUE(scheduler.submit(job));
  }
  scheduler.start();
  exec.simulator.run();
  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(scheduler.outcomes().size(), 5u);
  for (const auto& outcome : scheduler.outcomes()) {
    EXPECT_TRUE(outcome.success);
    EXPECT_NEAR(outcome.duration_s(), 1.0, 1e-9);
  }
  // 5 jobs x 1 s at concurrency 2 => ceil(5/2) = 3 s makespan.
  EXPECT_NEAR(scheduler.makespan_s(), 3.0, 1e-9);
}

TEST(Scheduler, ConcurrencyBoundHeld) {
  FakeExecutor exec;
  int peak = 0;
  BatchScheduler scheduler(
      {.max_concurrent = 3}, exec.clock(),
      [&](const TransferJob& job, const std::string&,
          std::function<void(bool, std::string)> done) {
        exec.simulator.schedule_in(
            static_cast<double>(job.bytes) / 1e6,
            [done = std::move(done)] { done(true, ""); });
      });
  for (int i = 0; i < 10; ++i) {
    scheduler.submit({"j" + std::to_string(i), "c", "p", 500000, 0});
  }
  scheduler.start();
  while (exec.simulator.step()) {
    peak = std::max(peak, scheduler.in_flight());
  }
  EXPECT_EQ(peak, 3);
  EXPECT_TRUE(scheduler.idle());
}

TEST(Scheduler, PriorityOrderWithFifoTies) {
  FakeExecutor exec;
  BatchScheduler scheduler({.max_concurrent = 1}, exec.clock(),
                           exec.launcher());
  scheduler.submit({"low1", "c", "p", 1000, 0});
  scheduler.submit({"high", "c", "p", 1000, 5});
  scheduler.submit({"low2", "c", "p", 1000, 0});
  scheduler.start();
  exec.simulator.run();
  ASSERT_EQ(exec.launch_order.size(), 3u);
  EXPECT_EQ(exec.launch_order[0], "high@Direct");
  EXPECT_EQ(exec.launch_order[1], "low1@Direct");
  EXPECT_EQ(exec.launch_order[2], "low2@Direct");
}

TEST(Scheduler, OverlayRoutesJobs) {
  FakeExecutor exec;
  OverlayTable overlay;
  OverlayEntry entry;
  entry.client = "UBC";
  entry.provider = "Google Drive";
  entry.route_key = "via UAlberta";
  overlay.install(entry);

  BatchScheduler scheduler({.max_concurrent = 1}, exec.clock(),
                           exec.launcher());
  scheduler.use_overlay(&overlay);
  scheduler.submit({"a", "UBC", "Google Drive", 1000, 0});
  scheduler.submit({"b", "UBC", "Dropbox", 1000, 0});  // no entry -> direct
  scheduler.start();
  exec.simulator.run();
  EXPECT_EQ(exec.launch_order[0], "a@via UAlberta");
  EXPECT_EQ(exec.launch_order[1], "b@Direct");
}

TEST(Scheduler, RejectsBadSubmissions) {
  FakeExecutor exec;
  BatchScheduler scheduler({.max_concurrent = 1}, exec.clock(),
                           exec.launcher());
  EXPECT_TRUE(scheduler.submit({"x", "c", "p", 10, 0}));
  EXPECT_FALSE(scheduler.submit({"x", "c", "p", 10, 0}));  // duplicate id
  EXPECT_FALSE(scheduler.submit({"y", "c", "p", 0, 0}));   // zero bytes
  EXPECT_FALSE(scheduler.submit({"", "c", "p", 10, 0}));   // empty id
}

TEST(Scheduler, LateSubmissionsRunWhileActive) {
  FakeExecutor exec;
  BatchScheduler scheduler({.max_concurrent = 1}, exec.clock(),
                           exec.launcher());
  scheduler.start();
  scheduler.submit({"first", "c", "p", 1000000, 0});
  exec.simulator.schedule_in(
      0.5, [&] { scheduler.submit({"late", "c", "p", 1000000, 0}); });
  exec.simulator.run();
  EXPECT_EQ(scheduler.outcomes().size(), 2u);
  EXPECT_TRUE(scheduler.idle());
}

TEST(Scheduler, FailuresRecorded) {
  FakeExecutor exec;
  BatchScheduler scheduler(
      {.max_concurrent = 1}, exec.clock(),
      [&](const TransferJob&, const std::string&,
          std::function<void(bool, std::string)> done) {
        exec.simulator.schedule_in(1.0, [done = std::move(done)] {
          done(false, "link exploded");
        });
      });
  scheduler.submit({"doomed", "c", "p", 10, 0});
  scheduler.start();
  exec.simulator.run();
  ASSERT_EQ(scheduler.outcomes().size(), 1u);
  EXPECT_FALSE(scheduler.outcomes()[0].success);
  EXPECT_EQ(scheduler.outcomes()[0].error, "link exploded");
}

// -------------------------------------------- scheduler over the scenario ----

TEST(Scheduler, DrivesRealTransfersThroughTheWorld) {
  scenario::WorldConfig config;
  config.cross_traffic = false;
  auto world = scenario::World::create(config);

  OverlayTable overlay;
  OverlayEntry entry;
  entry.client = "UBC";
  entry.provider = "Google Drive";
  entry.route_key = "via UAlberta";
  overlay.install(entry);

  auto launcher = [&](const TransferJob& job, const std::string& route,
                      std::function<void(bool, std::string)> done) {
    const auto client = world->client_node(scenario::Client::kUBC);
    const auto provider = job.provider == "Google Drive"
                              ? cloud::ProviderKind::kGoogleDrive
                              : cloud::ProviderKind::kDropbox;
    transfer::FileSpec file = transfer::make_file_mb(
        std::max<std::uint64_t>(1, job.bytes / util::kMB), 77);
    file.bytes = job.bytes;
    file.name = job.id;
    auto report = [done](const auto& joined) {
      const auto elapsed = scenario::fold_elapsed(joined);
      done(elapsed.ok(), elapsed.ok() ? "" : elapsed.error().message);
    };
    if (route == "Direct") {
      auto task = world->api_engine(provider).upload_task(client, file);
      task.on_done(report);
    } else {
      auto task = world->detour_engine(provider).transfer_task(
          client,
          world->intermediate_node(scenario::Intermediate::kUAlberta), file);
      task.on_done(report);
    }
  };

  BatchScheduler scheduler({.max_concurrent = 2},
                           [&] { return world->simulator().now(); },
                           launcher);
  scheduler.use_overlay(&overlay);
  scheduler.submit({"gdrive-20mb", "UBC", "Google Drive", 20 * util::kMB, 0});
  scheduler.submit({"dropbox-20mb", "UBC", "Dropbox", 20 * util::kMB, 0});
  scheduler.start();
  world->simulator().run();

  ASSERT_EQ(scheduler.outcomes().size(), 2u);
  for (const auto& outcome : scheduler.outcomes()) {
    EXPECT_TRUE(outcome.success) << outcome.error;
  }
  EXPECT_EQ(world->server(cloud::ProviderKind::kGoogleDrive).object_count(),
            1u);
  EXPECT_EQ(world->server(cloud::ProviderKind::kDropbox).object_count(), 1u);
  EXPECT_GT(scheduler.makespan_s(), 0.0);
}

}  // namespace
}  // namespace droute::core

// ---------------------------------------------------------------- workload ----
namespace droute::measure {
namespace {

TEST(Workload, DeterministicAndOrdered) {
  WorkloadProfile profile;
  util::Rng rng_a(9), rng_b(9);
  const auto a = generate_workload(rng_a, profile, 3600.0);
  const auto b = generate_workload(rng_b, profile, 3600.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].at_s, b[i].at_s);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    if (i > 0) {
      EXPECT_GE(a[i].at_s, a[i - 1].at_s);
    }
  }
}

TEST(Workload, RespectsBoundsAndHorizon) {
  WorkloadProfile profile;
  profile.min_bytes = 500000;
  profile.max_bytes = 5000000;
  util::Rng rng(11);
  const auto items = generate_workload(rng, profile, 7200.0);
  ASSERT_FALSE(items.empty());
  for (const auto& item : items) {
    EXPECT_GE(item.bytes, profile.min_bytes);
    EXPECT_LE(item.bytes, profile.max_bytes);
    EXPECT_LT(item.at_s, 7200.0);
    EXPECT_GE(item.at_s, 0.0);
  }
}

TEST(Workload, MeanArrivalRateApproximatelyRight) {
  WorkloadProfile profile;
  profile.mean_session_interarrival_s = 100.0;
  profile.mean_files_per_session = 2.0;
  util::Rng rng(13);
  const double horizon = 200000.0;
  const auto items = generate_workload(rng, profile, horizon);
  // Expected ~ horizon/100 sessions x 2 files = 4000 items.
  EXPECT_NEAR(static_cast<double>(items.size()), 4000.0, 500.0);
}

TEST(Workload, InvalidProfileIsLogicError) {
  WorkloadProfile profile;
  profile.mean_files_per_session = 0.5;
  util::Rng rng(1);
  EXPECT_THROW(generate_workload(rng, profile, 100.0), std::logic_error);
}

}  // namespace
}  // namespace droute::measure

// --------------------------------------------------------------- histogram ----
namespace droute::stats {
namespace {

TEST(Histogram, BinsAndOverflow) {
  Histogram histogram({1.0, 10.0, 100.0});
  for (double v : {0.5, 0.9, 5.0, 50.0, 500.0, 5000.0}) histogram.add(v);
  EXPECT_EQ(histogram.total(), 6u);
  EXPECT_EQ(histogram.bin_count(0), 2u);
  EXPECT_EQ(histogram.bin_count(1), 1u);
  EXPECT_EQ(histogram.bin_count(2), 1u);
  EXPECT_EQ(histogram.overflow(), 2u);
}

TEST(Histogram, PercentilesExact) {
  Histogram histogram({1000.0});
  for (int i = 1; i <= 100; ++i) histogram.add(static_cast<double>(i));
  EXPECT_NEAR(histogram.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(histogram.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(histogram.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(histogram.percentile(95), 95.05, 0.2);
  EXPECT_DOUBLE_EQ(Histogram({1.0}).percentile(50), 0.0);  // empty
}

TEST(Histogram, RenderShowsBars) {
  Histogram histogram({10.0, 20.0});
  histogram.add(5.0);
  histogram.add(5.0);
  histogram.add(15.0);
  const std::string out = histogram.render(10);
  EXPECT_NE(out.find("##"), std::string::npos);
  EXPECT_NE(out.find(" 2"), std::string::npos);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::logic_error);
  EXPECT_THROW(Histogram({5.0, 1.0}), std::logic_error);
}

}  // namespace
}  // namespace droute::stats
