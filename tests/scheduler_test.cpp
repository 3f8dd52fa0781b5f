// BatchScheduler, workload generator and histogram tests. The scheduler runs
// real steered uploads through a quiet scenario world (no cross traffic).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "ctrl/scheduler.h"
#include "measure/workload.h"
#include "scenario/north_america.h"
#include "stats/histogram.h"
#include "util/units.h"

namespace droute::ctrl {
namespace {

using cloud::ProviderKind;

/// What a job rides: the provider's detour engine and a steering.
struct Lane {
  transfer::DetourEngine& engine;
  Steering& steering;
};

/// A quiet World plus the pieces a scheduler job needs: a direct steering,
/// lanes to the providers, and jobs of a given size from one client.
struct Site {
  explicit Site(scenario::Client from = scenario::Client::kUBC)
      : world(scenario::World::create({.seed = 1, .cross_traffic = false})),
        client(world->client_node(from)) {}

  Lane lane(ProviderKind provider, Steering& steering) {
    return {world->detour_engine(provider), steering};
  }

  TransferJob job(std::string id, const Lane& lane, std::uint64_t bytes,
                  int priority = 0) const {
    transfer::FileSpec file = transfer::make_file_mb(
        std::max<std::uint64_t>(1, bytes / util::kMB), 77);
    file.bytes = bytes;
    file.name = id;
    return {std::move(id), priority,         client,
            lane.engine,   lane.steering, std::move(file)};
  }

  std::unique_ptr<scenario::World> world;
  net::NodeId client;
  StaticSteering direct;
};

std::vector<std::string> settle_order(const BatchScheduler& scheduler) {
  std::vector<std::string> ids;
  for (const auto& outcome : scheduler.outcomes()) ids.push_back(outcome.id);
  return ids;
}

TEST(Scheduler, RunsJobsAndReportsOutcomes) {
  Site site;
  auto dropbox = site.lane(ProviderKind::kDropbox, site.direct);
  BatchScheduler scheduler(site.world->simulator(), 2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(scheduler.submit(
        site.job("job" + std::to_string(i), dropbox, util::kMB)));
  }
  scheduler.start();
  site.world->simulator().run();
  EXPECT_TRUE(scheduler.idle());
  ASSERT_EQ(scheduler.outcomes().size(), 5u);
  double first_start = scheduler.outcomes()[0].started_at;
  double last_finish = 0.0;
  double busy_s = 0.0;
  for (const auto& outcome : scheduler.outcomes()) {
    EXPECT_TRUE(outcome.success) << outcome.error;
    EXPECT_TRUE(outcome.decision.path.direct());
    EXPECT_GT(outcome.duration_s(), 0.0);
    first_start = std::min(first_start, outcome.started_at);
    last_finish = std::max(last_finish, outcome.finished_at);
    busy_s += outcome.duration_s();
  }
  // Makespan runs from the first start to the last finish, and two jobs
  // at a time overlap, so it is shorter than the jobs back to back.
  EXPECT_DOUBLE_EQ(scheduler.makespan_s(), last_finish - first_start);
  EXPECT_LT(scheduler.makespan_s(), busy_s);
}

TEST(Scheduler, ConcurrencyBoundHeld) {
  Site site;
  auto dropbox = site.lane(ProviderKind::kDropbox, site.direct);
  BatchScheduler scheduler(site.world->simulator(), 3);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(scheduler.submit(
        site.job("j" + std::to_string(i), dropbox, util::kMB / 2)));
  }
  scheduler.start();
  int peak = scheduler.in_flight();
  while (site.world->simulator().step()) {
    peak = std::max(peak, scheduler.in_flight());
  }
  EXPECT_EQ(peak, 3);
  EXPECT_TRUE(scheduler.idle());
  EXPECT_EQ(scheduler.outcomes().size(), 10u);
}

TEST(Scheduler, PriorityOrderWithFifoTies) {
  Site site;
  auto dropbox = site.lane(ProviderKind::kDropbox, site.direct);
  BatchScheduler scheduler(site.world->simulator(), 1);
  scheduler.submit(site.job("low1", dropbox, 1000));
  scheduler.submit(site.job("high", dropbox, 1000, 5));
  scheduler.submit(site.job("low2", dropbox, 1000));
  EXPECT_EQ(scheduler.queued(), 3u);
  scheduler.start();
  site.world->simulator().run();
  EXPECT_EQ(settle_order(scheduler),
            (std::vector<std::string>{"high", "low1", "low2"}));
}

TEST(Scheduler, OverlayRoutesJobs) {
  Site site;
  const PathSpec via_ualberta{
      {site.world->intermediate_node(scenario::Intermediate::kUAlberta)}};
  StaticSteering overlay(via_ualberta);
  auto gdrive = site.lane(ProviderKind::kGoogleDrive, overlay);
  auto dropbox = site.lane(ProviderKind::kDropbox, site.direct);
  BatchScheduler scheduler(site.world->simulator(), 1);
  scheduler.submit(site.job("a", gdrive, 1000));
  scheduler.submit(site.job("b", dropbox, 1000));
  scheduler.start();
  site.world->simulator().run();
  ASSERT_EQ(scheduler.outcomes().size(), 2u);
  EXPECT_EQ(scheduler.outcomes()[0].id, "a");
  EXPECT_EQ(scheduler.outcomes()[0].decision.path, via_ualberta);
  EXPECT_EQ(scheduler.outcomes()[1].id, "b");
  EXPECT_TRUE(scheduler.outcomes()[1].decision.path.direct());
}

TEST(Scheduler, RejectsBadSubmissions) {
  Site site;
  auto dropbox = site.lane(ProviderKind::kDropbox, site.direct);
  BatchScheduler scheduler(site.world->simulator(), 1);
  EXPECT_TRUE(scheduler.submit(site.job("x", dropbox, 10)));
  EXPECT_FALSE(scheduler.submit(site.job("x", dropbox, 10)));  // duplicate id
  auto empty = site.job("y", dropbox, 10);
  empty.file.bytes = 0;
  EXPECT_FALSE(scheduler.submit(empty));                       // zero bytes
  EXPECT_FALSE(scheduler.submit(site.job("", dropbox, 10)));   // empty id
  EXPECT_EQ(scheduler.queued(), 1u);
}

TEST(Scheduler, LateSubmissionsRunWhileActive) {
  Site site;
  auto dropbox = site.lane(ProviderKind::kDropbox, site.direct);
  BatchScheduler scheduler(site.world->simulator(), 1);
  scheduler.start();
  scheduler.submit(site.job("first", dropbox, util::kMB));
  site.world->simulator().schedule_in(0.5, [&] {
    scheduler.submit(site.job("late", dropbox, util::kMB));
  });
  site.world->simulator().run();
  EXPECT_EQ(settle_order(scheduler),
            (std::vector<std::string>{"first", "late"}));
  EXPECT_TRUE(scheduler.idle());
}

/// Cuts every access link of the site's client, so each upload fails
/// "no route to provider" before its first suspension.
void isolate_client(Site& site) {
  const std::vector<net::LinkId> access =
      site.world->topology().out_links(site.client);
  for (const net::LinkId link : access) site.world->fabric().fail_link(link);
}

TEST(Scheduler, FailuresRecorded) {
  Site site(scenario::Client::kPurdue);
  isolate_client(site);
  auto dropbox = site.lane(ProviderKind::kDropbox, site.direct);
  BatchScheduler scheduler(site.world->simulator(), 1);
  scheduler.submit(site.job("doomed", dropbox, util::kMB));
  scheduler.start();
  site.world->simulator().run();
  ASSERT_EQ(scheduler.outcomes().size(), 1u);
  EXPECT_FALSE(scheduler.outcomes()[0].success);
  EXPECT_NE(scheduler.outcomes()[0].error.find("no route to provider"),
            std::string::npos)
      << scheduler.outcomes()[0].error;
  EXPECT_TRUE(scheduler.idle());
}

TEST(Scheduler, InlineSettlingJobsKeepTheStackFlat) {
  // Every job settles before its first suspension. Settling re-enters the
  // pump; recursing once per job overflows an 8 MB stack near 10,000 jobs.
  Site site(scenario::Client::kPurdue);
  isolate_client(site);
  auto dropbox = site.lane(ProviderKind::kDropbox, site.direct);
  BatchScheduler scheduler(site.world->simulator(), 1);
  constexpr int kJobs = 20000;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(scheduler.submit(
        site.job("j" + std::to_string(i), dropbox, util::kMB)));
  }
  scheduler.start();
  EXPECT_TRUE(scheduler.idle());
  ASSERT_EQ(scheduler.outcomes().size(), static_cast<std::size_t>(kJobs));
  for (const auto& outcome : scheduler.outcomes()) {
    ASSERT_FALSE(outcome.success);
    ASSERT_NE(outcome.error.find("no route to provider"), std::string::npos)
        << outcome.error;
  }
}

/// Numbers each decision and counts the sessions reported back.
class CountingSteering final : public Steering {
 public:
  Decision steer(net::NodeId client, std::uint64_t bytes) override {
    (void)client;
    (void)bytes;
    Decision decision;
    decision.epoch = ++steered;
    decision.reason = "count " + std::to_string(steered);
    return decision;
  }
  void observe_session(net::NodeId client, const Decision& decision,
                       std::uint64_t bytes, double elapsed_s,
                       bool success) override {
    (void)client;
    (void)bytes;
    (void)elapsed_s;
    (void)success;
    observed.push_back(decision.epoch);
  }

  std::uint64_t steered = 0;
  std::vector<std::uint64_t> observed;
};

TEST(Scheduler, OutcomesCarryTheDecisionSteerReturned) {
  Site site;
  CountingSteering counting;
  auto dropbox = site.lane(ProviderKind::kDropbox, counting);
  BatchScheduler scheduler(site.world->simulator(), 2);
  for (int i = 0; i < 4; ++i) {
    scheduler.submit(site.job("job" + std::to_string(i), dropbox, util::kMB));
  }
  scheduler.start();
  site.world->simulator().run();
  ASSERT_EQ(scheduler.outcomes().size(), 4u);
  EXPECT_EQ(counting.steered, 4u);
  // Jobs launch in submission order, so job i rode decision i + 1.
  std::vector<std::uint64_t> rode;
  for (const auto& outcome : scheduler.outcomes()) {
    const std::uint64_t expected = std::stoull(outcome.id.substr(3)) + 1;
    EXPECT_EQ(outcome.decision.epoch, expected) << outcome.id;
    EXPECT_EQ(outcome.decision.reason, "count " + std::to_string(expected));
    rode.push_back(outcome.decision.epoch);
  }
  // observe_session fired once per job, with the decision it rode.
  EXPECT_EQ(counting.observed, rode);
}

TEST(Scheduler, DestructorCancelsAndDrainsInFlightJobs) {
  Site site;
  auto gdrive = site.lane(ProviderKind::kGoogleDrive, site.direct);
  {
    BatchScheduler scheduler(site.world->simulator(), 2);
    scheduler.submit(site.job("big1", gdrive, 100 * util::kMB));
    scheduler.submit(site.job("big2", gdrive, 100 * util::kMB));
    scheduler.submit(site.job("queued", gdrive, 100 * util::kMB));
    scheduler.start();
    site.world->simulator().run_until(5.0);
    ASSERT_EQ(scheduler.in_flight(), 2);
  }
  EXPECT_EQ(site.world->transfer_engine().batches_inflight(), 0u);
  EXPECT_EQ(site.world->server(ProviderKind::kGoogleDrive).open_sessions(),
            0u);
  EXPECT_EQ(site.world->server(ProviderKind::kGoogleDrive).object_count(),
            0u);
}

TEST(Scheduler, DrivesRealTransfersThroughTheWorld) {
  Site site;
  StaticSteering overlay(PathSpec{
      {site.world->intermediate_node(scenario::Intermediate::kUAlberta)}});
  auto gdrive = site.lane(ProviderKind::kGoogleDrive, overlay);
  auto dropbox = site.lane(ProviderKind::kDropbox, site.direct);
  BatchScheduler scheduler(site.world->simulator(), 2);
  scheduler.submit(site.job("gdrive-20mb", gdrive, 20 * util::kMB));
  scheduler.submit(site.job("dropbox-20mb", dropbox, 20 * util::kMB));
  scheduler.start();
  site.world->simulator().run();

  ASSERT_EQ(scheduler.outcomes().size(), 2u);
  for (const auto& outcome : scheduler.outcomes()) {
    EXPECT_TRUE(outcome.success) << outcome.error;
  }
  EXPECT_EQ(site.world->server(ProviderKind::kGoogleDrive).object_count(), 1u);
  EXPECT_EQ(site.world->server(ProviderKind::kDropbox).object_count(), 1u);
  EXPECT_GT(scheduler.makespan_s(), 0.0);
}

}  // namespace
}  // namespace droute::ctrl

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
