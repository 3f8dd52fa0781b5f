// C++20 coroutine layer tests: sim::Task<T> (values, errors, cancellation,
// joins, sim::drive), Task<void> scripts, and transfer legs awaited
// through the world's TransferEngine.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/north_america.h"
#include "sim/task.h"
#include "transfer/batch.h"
#include "transfer/detour.h"
#include "transfer/rsync_engine.h"
#include "util/units.h"

namespace droute::sim {
namespace {

Task<void> two_step(Simulator& simulator, std::vector<double>& timestamps) {
  timestamps.push_back(simulator.now());
  co_await delay(simulator, 2.0);
  timestamps.push_back(simulator.now());
  co_await delay(simulator, 3.0);
  timestamps.push_back(simulator.now());
}

TEST(Process, DelaysAdvanceSimulatedTime) {
  Simulator simulator;
  std::vector<double> timestamps;
  Task<void> script = two_step(simulator, timestamps);
  // Body ran eagerly to the first co_await.
  ASSERT_EQ(timestamps.size(), 1u);
  EXPECT_FALSE(script.done());
  simulator.run();
  ASSERT_EQ(timestamps.size(), 3u);
  EXPECT_DOUBLE_EQ(timestamps[0], 0.0);
  EXPECT_DOUBLE_EQ(timestamps[1], 2.0);
  EXPECT_DOUBLE_EQ(timestamps[2], 5.0);
  EXPECT_TRUE(script.done());
}

Task<void> ticker(Simulator& simulator, int& count, int limit) {
  for (int i = 0; i < limit; ++i) {
    co_await delay(simulator, 1.0);
    ++count;
  }
}

TEST(Process, LoopsInterleaveDeterministically) {
  Simulator simulator;
  int fast = 0, slow = 0;
  ticker(simulator, fast, 10);
  ticker(simulator, slow, 5);
  simulator.run_until(4.5);
  EXPECT_EQ(fast, 4);
  EXPECT_EQ(slow, 4);
  simulator.run();
  EXPECT_EQ(fast, 10);
  EXPECT_EQ(slow, 5);
}

TEST(Process, ZeroDelayDoesNotSuspend) {
  Simulator simulator;
  std::vector<double> timestamps;
  auto proc = [](Simulator& s, std::vector<double>& ts) -> Task<void> {
    co_await delay(s, 0.0);
    ts.push_back(s.now());
    co_await delay_until(s, -5.0);  // already past: no-op
    ts.push_back(s.now());
  }(simulator, timestamps);
  EXPECT_TRUE(proc.done());  // ran to completion without any events
  EXPECT_EQ(timestamps.size(), 2u);
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Process, DelayUntilAbsoluteTime) {
  Simulator simulator;
  double fired_at = -1.0;
  [](Simulator& s, double& at) -> Task<void> {
    co_await delay_until(s, 7.5);
    at = s.now();
  }(simulator, fired_at);
  simulator.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

// ---------------------------------------------------------------------------
// sim::Task<T>: values, exceptions, joins, cancellation.

Task<int> answer_after(Simulator& simulator, double dt, int value) {
  co_await delay(simulator, dt);
  co_return value;
}

/// Honors cancellation: a cancelled sleep folds into a kErrCancelled error.
Task<int> patient(Simulator& simulator, double dt, int value) {
  auto nap = delay(simulator, dt);
  if (!co_await nap) {
    co_return util::Error::make("patient cancelled", kErrCancelled);
  }
  co_return value;
}

Task<int> immediate(int value) { co_return value; }

Task<int> throwing(Simulator& simulator) {
  co_await delay(simulator, 1.0);
  throw std::runtime_error("boom");
  co_return 0;  // unreachable: a value coroutine must not fall off the end
}

/// Awaits the child and forwards its whole Result (value or error).
Task<int> relay(Simulator& simulator) {
  auto child = patient(simulator, 50.0, 9);
  co_return co_await child;
}

TEST(Task, ReturnsValueThroughJoin) {
  Simulator simulator;
  auto task = answer_after(simulator, 2.0, 42);
  EXPECT_FALSE(task.done());
  simulator.run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  EXPECT_EQ(task.result().value(), 42);
}

TEST(Task, EagerBodyCompletesWithoutEvents) {
  Simulator simulator;
  auto task = immediate(11);
  ASSERT_TRUE(task.done());
  EXPECT_EQ(task.result().value(), 11);
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Task, CoAwaitJoinPropagatesValue) {
  Simulator simulator;
  int got = 0;
  auto parent = [](Simulator& s, int& out) -> Task<void> {
    auto child = answer_after(s, 1.0, 7);
    auto joined = co_await child;
    if (joined.ok()) out = joined.value();
  }(simulator, got);
  simulator.run();
  EXPECT_TRUE(parent.done());
  EXPECT_EQ(got, 7);
}

TEST(Task, ExceptionBecomesResultError) {
  Simulator simulator;
  auto task = throwing(simulator);
  simulator.run();
  ASSERT_TRUE(task.done());
  ASSERT_FALSE(task.result().ok());
  EXPECT_NE(task.result().error().message.find("boom"), std::string::npos);
}

TEST(Task, ResultBeforeCompletionIsContractViolation) {
  Simulator simulator;
  auto task = patient(simulator, 10.0, 1);
  EXPECT_THROW(task.result(), std::logic_error);
  task.cancel();  // unwind the frame before the simulator goes away
  ASSERT_TRUE(task.done());
}

TEST(Task, CancelMidDelayCancelsThePendingEvent) {
  Simulator simulator;
  auto task = patient(simulator, 100.0, 1);
  EXPECT_EQ(simulator.pending(), 1u);
  task.cancel();
  ASSERT_TRUE(task.done());
  ASSERT_FALSE(task.result().ok());
  EXPECT_EQ(task.result().error().code, kErrCancelled);
  // The sleep's sim event was cancelled, not abandoned: the queue is empty.
  EXPECT_EQ(simulator.pending(), 0u);
  EXPECT_FALSE(simulator.step());
}

TEST(Task, CancelCascadesIntoAwaitedChild) {
  Simulator simulator;
  auto parent = relay(simulator);
  EXPECT_FALSE(parent.done());
  parent.cancel();
  ASSERT_TRUE(parent.done());
  ASSERT_FALSE(parent.result().ok());
  EXPECT_EQ(parent.result().error().code, kErrCancelled);
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Task, SecondConcurrentJoinerIsAContractViolation) {
  Simulator simulator;
  auto child = answer_after(simulator, 2.0, 3);
  auto join = [](Task<int>& awaited) -> Task<int> {
    co_return co_await awaited;
  };
  auto first = join(child);
  // A task has one joiner slot: the second co_await fails its contract
  // check, which surfaces as the second joiner's error result.
  auto second = join(child);
  ASSERT_TRUE(second.done());
  ASSERT_FALSE(second.result().ok());
  EXPECT_NE(second.result().error().message.find("second joiner"),
            std::string::npos);
  simulator.run();
  ASSERT_TRUE(first.done());
  ASSERT_TRUE(first.result().ok());
  EXPECT_EQ(first.result().value(), 3);
  // A finished task may be awaited any number of times.
  auto late = join(child);
  ASSERT_TRUE(late.done());
  ASSERT_TRUE(late.result().ok());
  EXPECT_EQ(late.result().value(), 3);
}

TEST(Notify, NotifyAllWakesWaitersInParkOrder) {
  Notify gate;
  std::vector<int> order;
  auto waiter = [](Notify& n, std::vector<int>& out, int id) -> Task<void> {
    auto parked = n.wait();
    if (co_await parked) out.push_back(id);
  };
  auto a = waiter(gate, order, 1);
  auto b = waiter(gate, order, 2);
  EXPECT_FALSE(a.done());
  EXPECT_FALSE(b.done());
  gate.notify_all();
  ASSERT_TRUE(a.done());
  ASSERT_TRUE(b.done());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Notify, CancelledWaiterResumesWithFalse) {
  Notify gate;
  bool notified = true;
  auto task = [](Notify& n, bool& out) -> Task<void> {
    auto parked = n.wait();
    out = co_await parked;
  }(gate, notified);
  task.cancel();
  ASSERT_TRUE(task.done());
  EXPECT_FALSE(notified);
  gate.notify_all();  // the stale waiter entry must be a consumed no-op
}

// ---------------------------------------------------------------------------
// sim::drive: step a task from plain code under a simulated-time deadline.

TEST(Drive, TaskFinishingBeforeDeadlineReturnsTrue) {
  Simulator simulator;
  auto task = patient(simulator, 2.0, 5);
  ASSERT_TRUE(drive(simulator, task, 10.0));
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  EXPECT_EQ(task.result().value(), 5);
  EXPECT_DOUBLE_EQ(simulator.now(), 2.0);
}

TEST(Drive, DeadlineMissCancelsAndDrains) {
  Simulator simulator;
  auto task = patient(simulator, 50.0, 5);
  // A later event keeps the queue busy past the deadline.
  simulator.schedule_in(20.0, [] {});
  EXPECT_FALSE(drive(simulator, task, 10.0));
  ASSERT_TRUE(task.done());
  ASSERT_FALSE(task.result().ok());
  EXPECT_EQ(task.result().error().code, kErrCancelled);
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(Drive, StarvedTaskReturnsFalseAndUnwinds) {
  Simulator simulator;
  Notify gate;  // nobody ever signals it
  auto task = [](Notify& n) -> Task<void> {
    auto parked = n.wait();
    co_await parked;
  }(gate);
  EXPECT_FALSE(drive(simulator, task, 10.0));
  EXPECT_TRUE(task.done());
}

}  // namespace
}  // namespace droute::sim

namespace droute::net {
namespace {

using scenario::World;
using scenario::WorldConfig;

/// One WRITE leg src -> dst on the world's batch layer; bind the handle to
/// a local, then co_await it.
transfer::BatchHandle submit_leg(World& world, NodeId src, NodeId dst,
                                 std::uint64_t bytes) {
  transfer::TransferEngine& xfer = world.transfer_engine();
  transfer::TransferRequest request;
  request.source_node = src;
  request.target_id = xfer.ensure_node_segment(dst);
  request.length = bytes;
  return xfer.submit(std::move(request));
}

sim::Task<void> detour_script(World& world, double& leg1_s, double& leg2_s,
                              bool& ok) {
  // The paper's store-and-forward detour as a straight-line script:
  // UBC -> UAlberta, then UAlberta -> Google front end.
  const auto ubc = world.client_node(scenario::Client::kUBC);
  const auto ua = world.intermediate_node(scenario::Intermediate::kUAlberta);
  const auto fe = world.provider_node(cloud::ProviderKind::kGoogleDrive);

  auto leg1 = submit_leg(world, ubc, ua, 50 * util::kMB);
  if (!co_await leg1) {
    ok = false;
    co_return;
  }
  leg1_s = leg1.status(0).duration_s();
  auto leg2 = submit_leg(world, ua, fe, 50 * util::kMB);
  if (!co_await leg2) {
    ok = false;
    co_return;
  }
  leg2_s = leg2.status(0).duration_s();
  ok = true;
}

TEST(TransferAwait, SequentialDetourScript) {
  WorldConfig config;
  config.cross_traffic = false;
  auto world = World::create(config);
  double leg1_s = 0.0, leg2_s = 0.0;
  bool ok = false;
  sim::Task<void> script = detour_script(*world, leg1_s, leg2_s, ok);
  world->simulator().run();
  ASSERT_TRUE(script.done());
  ASSERT_TRUE(ok);
  // Raw flows: 50 MB at 44 Mbps slice ~ 9.5 s, at 50 Mbps uplink ~ 8.3 s.
  EXPECT_NEAR(leg1_s, 9.5, 2.0);
  EXPECT_NEAR(leg2_s, 8.3, 2.0);
  // Sequential: the world clock advanced by both legs plus slow start.
  EXPECT_GT(world->simulator().now(), leg1_s + leg2_s - 0.5);
}

TEST(TransferAwait, RejectedFlowResumesWithError) {
  WorldConfig config;
  config.cross_traffic = false;
  auto world = World::create(config);
  // Cut UCLA off so the flow is rejected synchronously.
  world->fabric().fail_link(
      world->topology()
          .find_link(world->node("planetlab1.ucla.edu"),
                     world->node("pl-gw.ucla.edu"))
          .value());
  bool reached_end = false;
  bool completed = true;
  transfer::RequestState state = transfer::RequestState::kPending;
  std::string error;
  [](World& w, bool& end, bool& done, transfer::RequestState& st,
     std::string& err) -> sim::Task<void> {
    auto leg = submit_leg(w, w.client_node(scenario::Client::kUCLA),
                          w.provider_node(cloud::ProviderKind::kDropbox),
                          util::kMB);
    done = co_await leg;
    st = leg.status(0).state;
    err = leg.status(0).error;
    end = true;
  }(*world, reached_end, completed, state, error);
  // The rejection path never suspends, so the script is already finished.
  EXPECT_TRUE(reached_end);
  EXPECT_FALSE(completed);
  EXPECT_EQ(state, transfer::RequestState::kRejected);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(world->transfer_engine().batches_inflight(), 0u);
  EXPECT_EQ(world->fabric().active_flow_count(), 0u);
}

TEST(TransferAwait, ConcurrentScriptsShareTheFabric) {
  WorldConfig config;
  config.cross_traffic = false;
  auto world = World::create(config);
  // Two concurrent scripts pushing UBC -> UAlberta share the 44 Mbps slice
  // fairly: each takes about twice the solo time... the slice cap is
  // per-flow (middlebox), so the real constraint is the shared 50 Mbps
  // uplink: each flow gets ~25 Mbps.
  std::vector<double> durations;
  auto script = [](World& w, std::vector<double>& out) -> sim::Task<void> {
    auto leg = submit_leg(
        w, w.client_node(scenario::Client::kUBC),
        w.intermediate_node(scenario::Intermediate::kUAlberta),
        25 * util::kMB);
    if (co_await leg) out.push_back(leg.status(0).duration_s());
  };
  script(*world, durations);
  script(*world, durations);
  world->simulator().run();
  ASSERT_EQ(durations.size(), 2u);
  // 25 MB at ~25 Mbps each: ~8 s, clearly slower than solo (~4.7 s).
  for (double d : durations) EXPECT_GT(d, 6.5);
}

}  // namespace
}  // namespace droute::net

// ---------------------------------------------------------------------------
// Engine coroutines under contract violations, fault injection and budgets.

namespace droute::transfer {
namespace {

using scenario::World;
using scenario::WorldConfig;

std::unique_ptr<World> quiet_world() {
  WorldConfig config;
  config.cross_traffic = false;
  return World::create(config);
}

TEST(DetourTask, ThrowingLegSurfacesAsFailedResult) {
  auto world = quiet_world();
  const auto ubc = world->client_node(scenario::Client::kUBC);
  const auto ua = world->intermediate_node(scenario::Intermediate::kUAlberta);
  DetourOptions options;
  options.rsync.basis_overlap = 1.5;  // violates the rsync engine contract

  auto task = world->detour_engine(cloud::ProviderKind::kGoogleDrive)
                  .transfer_task(ubc, ctrl::PathSpec{{ua}}, make_file_mb(10, 7), options);
  world->simulator().run();
  ASSERT_TRUE(task.done());
  // The leg's exception was folded into a failed result, not rethrown.
  ASSERT_TRUE(task.result().ok());
  const DetourResult& result = task.result().value();
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("detour leg 1 (rsync)"), std::string::npos);
  EXPECT_NE(result.error.find("basis_overlap"), std::string::npos);
}

TEST(RsyncTask, AbortFlowMidTransferFailsTheLeg) {
  auto world = quiet_world();
  RsyncEngine engine(&world->fabric(), world->transfer_engine());
  auto task = engine.push_task(world->node("planetlab1.cs.ubc.ca"),
                               world->node("cluster.cs.ualberta.ca"),
                               make_file_mb(40, 3));
  world->simulator().run_until(3.0);
  ASSERT_FALSE(task.done());
  // Whichever rsync flow is in flight (signature or delta) dies; aborting
  // an already-finished id is a no-op.
  world->fabric().abort_flow(1);
  world->fabric().abort_flow(2);
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  EXPECT_FALSE(task.result().value().success);
  EXPECT_FALSE(task.result().value().error.empty());
}

TEST(DetourTask, FailLinkMidLeg1FailsTheDetour) {
  auto world = quiet_world();
  const auto ubc = world->client_node(scenario::Client::kUBC);
  const auto ua = world->intermediate_node(scenario::Intermediate::kUAlberta);
  auto task = world->detour_engine(cloud::ProviderKind::kGoogleDrive)
                  .transfer_task(ubc, ctrl::PathSpec{{ua}}, make_file_mb(50, 5));
  world->simulator().run_until(4.0);
  ASSERT_FALSE(task.done());
  world->fabric().fail_link(world->topology()
                                .find_link(world->node("planetlab1.cs.ubc.ca"),
                                           world->node("cs-gw.net.ubc.ca"))
                                .value());
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  EXPECT_FALSE(task.result().value().success);
  EXPECT_NE(task.result().value().error.find("detour leg 1"),
            std::string::npos);
}

TEST(DetourTask, TimeoutDuringLeg2AbandonsTheApiSession) {
  auto world = quiet_world();
  const auto ubc = world->client_node(scenario::Client::kUBC);
  const auto ua = world->intermediate_node(scenario::Intermediate::kUAlberta);
  // Leg 1 (rsync, ~9.5 s) finishes; the 15 s budget expires mid-upload.
  auto task = world->detour_engine(cloud::ProviderKind::kGoogleDrive)
                  .transfer_task(ubc, ctrl::PathSpec{{ua}}, make_file_mb(50, 9));
  world->simulator().schedule_in(15.0, [&task] { task.cancel(); });
  world->simulator().run();
  ASSERT_TRUE(task.done());
  ASSERT_TRUE(task.result().ok());
  EXPECT_FALSE(task.result().value().success);
  EXPECT_DOUBLE_EQ(world->simulator().now(), 15.0);
  // The cancelled upload abandoned its API session on the way out.
  EXPECT_EQ(world->server(cloud::ProviderKind::kGoogleDrive).open_sessions(),
            0u);
}

}  // namespace
}  // namespace droute::transfer
