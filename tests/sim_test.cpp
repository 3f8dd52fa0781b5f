#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "check/contract.h"
#include "check/sim_audit.h"
#include "sim/simulator.h"

namespace droute::sim {
namespace {

/// Attaches a clock/quiescence auditor when debug checks are on (the
/// default; DROUTE_DEBUG_CHECKS=0 disables). The auditor's step observer
/// raises on any clock regression for the rest of the test.
struct MaybeAuditor {
  std::optional<check::SimAuditor> auditor;

  explicit MaybeAuditor(Simulator* simulator) {
    if (check::debug_checks_enabled()) auditor.emplace(simulator);
  }

  void expect_drained() const {
    if (!auditor.has_value()) return;
    const auto status = auditor->audit_quiescent();
    EXPECT_TRUE(status.ok()) << status.error().message;
  }
};

TEST(Simulator, StartsAtZero) {
  Simulator simulator;
  EXPECT_DOUBLE_EQ(simulator.now(), 0.0);
  EXPECT_EQ(simulator.pending(), 0u);
  EXPECT_FALSE(simulator.step());
}

TEST(Simulator, FiresInTimeOrder) {
  Simulator simulator;
  MaybeAuditor audit(&simulator);
  std::vector<int> order;
  simulator.schedule_at(3.0, [&] { order.push_back(3); });
  simulator.schedule_at(1.0, [&] { order.push_back(1); });
  simulator.schedule_at(2.0, [&] { order.push_back(2); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(simulator.now(), 3.0);
  audit.expect_drained();
}

TEST(Simulator, TiesFireInSchedulingOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  simulator.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator simulator;
  double fired_at = -1.0;
  simulator.schedule_at(2.0, [&] {
    simulator.schedule_in(3.0, [&] { fired_at = simulator.now(); });
  });
  simulator.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, RejectsPastEvents) {
  Simulator simulator;
  simulator.schedule_at(10.0, [] {});
  simulator.run();
  EXPECT_THROW(simulator.schedule_at(5.0, [] {}), std::logic_error);
  EXPECT_THROW(simulator.schedule_in(-1.0, [] {}), std::logic_error);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator simulator;
  MaybeAuditor audit(&simulator);
  bool fired = false;
  const EventId id = simulator.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(simulator.cancel(id));
  simulator.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(simulator.pending(), 0u);  // cancel() removed it from the queue
  audit.expect_drained();
}

TEST(Simulator, CancelTwiceIsNoop) {
  Simulator simulator;
  const EventId id = simulator.schedule_at(1.0, [] {});
  EXPECT_TRUE(simulator.cancel(id));
  EXPECT_FALSE(simulator.cancel(id));
  EXPECT_FALSE(simulator.cancel(EventId{}));
}

TEST(Simulator, CancelledEventsDoNotBlockNextEventTime) {
  Simulator simulator;
  const EventId early = simulator.schedule_at(1.0, [] {});
  simulator.schedule_at(2.0, [] {});
  simulator.cancel(early);
  EXPECT_DOUBLE_EQ(simulator.next_event_time(), 2.0);
}

TEST(Simulator, RunUntilAdvancesClock) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_at(1.0, [&] { ++fired; });
  simulator.schedule_at(5.0, [&] { ++fired; });
  simulator.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(simulator.now(), 3.0);
  simulator.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, HandlersCanScheduleMore) {
  Simulator simulator;
  MaybeAuditor audit(&simulator);
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) simulator.schedule_in(0.5, chain);
  };
  simulator.schedule_in(0.5, chain);
  simulator.run();
  EXPECT_EQ(count, 100);
  EXPECT_NEAR(simulator.now(), 50.0, 1e-9);
  audit.expect_drained();
}

TEST(Simulator, EventBudgetGuardsRunaway) {
  Simulator simulator;
  std::function<void()> forever = [&] { simulator.schedule_in(0.1, forever); };
  simulator.schedule_in(0.1, forever);
  EXPECT_THROW(simulator.run(/*max_events=*/1000), std::logic_error);
}

TEST(Simulator, ExecutedEventsCount) {
  Simulator simulator;
  for (int i = 0; i < 25; ++i) simulator.schedule_in(i, [] {});
  simulator.run();
  EXPECT_EQ(simulator.executed_events(), 25u);
}

TEST(Simulator, NextEventTimeInfinityWhenEmpty) {
  Simulator simulator;
  EXPECT_EQ(simulator.next_event_time(), kTimeInfinity);
}

TEST(Simulator, CancelFromWithinHandler) {
  Simulator simulator;
  bool second_fired = false;
  EventId second;
  simulator.schedule_at(1.0, [&] { simulator.cancel(second); });
  second = simulator.schedule_at(2.0, [&] { second_fired = true; });
  simulator.run();
  EXPECT_FALSE(second_fired);
}

TEST(Simulator, PendingCountsExactlyTheLiveEvents) {
  // pending() must stay exact through every cancel/fire interleaving: it is
  // the queue's size, and cancel() erases the event from the queue in place.
  Simulator simulator;
  const EventId a = simulator.schedule_in(1.0, [] {});
  const EventId b = simulator.schedule_in(2.0, [] {});
  const EventId c = simulator.schedule_in(3.0, [] {});
  EXPECT_EQ(simulator.pending(), 3u);

  // Cancel the middle event: it leaves the queue at once, from below the top.
  EXPECT_TRUE(simulator.cancel(b));
  EXPECT_EQ(simulator.pending(), 2u);

  ASSERT_TRUE(simulator.step());  // fires a
  EXPECT_EQ(simulator.pending(), 1u);

  // Cancelling an already-fired or already-cancelled id changes nothing.
  EXPECT_FALSE(simulator.cancel(a));
  EXPECT_FALSE(simulator.cancel(b));
  EXPECT_EQ(simulator.pending(), 1u);

  EXPECT_TRUE(simulator.cancel(c));
  EXPECT_EQ(simulator.pending(), 0u);
  EXPECT_FALSE(simulator.step());  // nothing left to fire
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Simulator, StaleEventIdCannotCancelAReusedSlot) {
  // A freed slot is reused by the next schedule; the id of the event that
  // held it before must not reach the new event.
  Simulator simulator;
  const EventId fired = simulator.schedule_at(1.0, [] {});
  ASSERT_TRUE(simulator.step());
  bool after_fire = false;
  const EventId reuse_fired =
      simulator.schedule_at(2.0, [&] { after_fire = true; });
  ASSERT_EQ(reuse_fired.slot, fired.slot);
  EXPECT_FALSE(simulator.cancel(fired));
  EXPECT_EQ(simulator.pending(), 1u);

  const EventId cancelled = simulator.schedule_at(3.0, [] {});
  ASSERT_TRUE(simulator.cancel(cancelled));
  bool after_cancel = false;
  const EventId reuse_cancelled =
      simulator.schedule_at(4.0, [&] { after_cancel = true; });
  ASSERT_EQ(reuse_cancelled.slot, cancelled.slot);
  EXPECT_FALSE(simulator.cancel(cancelled));
  EXPECT_EQ(simulator.pending(), 2u);

  // A handler's own id is stale while it runs: its slot is already free.
  EventId self;
  bool after_self = false;
  self = simulator.schedule_at(5.0, [&] {
    const EventId next =
        simulator.schedule_in(1.0, [&] { after_self = true; });
    EXPECT_EQ(next.slot, self.slot);
    EXPECT_FALSE(simulator.cancel(self));
  });

  simulator.run();
  EXPECT_TRUE(after_fire);
  EXPECT_TRUE(after_cancel);
  EXPECT_TRUE(after_self);
  EXPECT_EQ(simulator.executed_events(), 5u);
}

TEST(Simulator, PendingTracksHandlersThatScheduleMore) {
  Simulator simulator;
  simulator.schedule_in(1.0, [&simulator] {
    simulator.schedule_in(1.0, [] {});
    simulator.schedule_in(2.0, [] {});
  });
  EXPECT_EQ(simulator.pending(), 1u);
  ASSERT_TRUE(simulator.step());
  EXPECT_EQ(simulator.pending(), 2u);
  simulator.run();
  EXPECT_EQ(simulator.pending(), 0u);
}

}  // namespace
}  // namespace droute::sim
