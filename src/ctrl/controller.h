// ctrl::Controller — the online detour control plane.
//
// Runs an epoch loop on the simulator: every epoch_s it spends a byte
// budget on small probe transfers across the candidate paths of every
// registered client (direct, each 1-hop DTN relay, ordered relay chains up
// to max_relay_hops), feeds the results into a PathEstimator, flags
// throughput TIVs with the paper's Sec III-B significance test, and answers
// Steering::steer() for new upload sessions via the cost-aware
// SteeringPolicy. Completed sessions feed back passively through
// observe_session. chaos hooks call on_network_event() so link flaps and
// policer rewrites trigger an immediate out-of-band epoch.
//
// Determinism: the controller draws no randomness of its own — probe order
// is the stalest-first stable sort of a deterministic candidate
// enumeration, and every trace double goes through util::format_double —
// so two same-seed runs of the same scenario produce byte-identical
// DecisionTrace output (asserted by ctrl_test).
//
// Epoch cost: an epoch costs what changed, not paths x routes. start()
// enumerates every client's candidate paths once into a table of dense
// PathEstimator ids (clients and relays are fixed from then on). Each
// path's routability is one cached bit, recomputed only when the
// RouteTable's generation() moves — which also catches route churn nobody
// reports through on_network_event. Stats are read by id, and a path's TIV
// verdict and trace-line text are recomputed only when its own stats or
// its direct path's stats changed since they were last judged.
//
// Probes ride the world's transfer::TransferEngine like every other byte:
// each probe leg is a single-request batch, so the batch layer's inflight
// count covers probes too.
//
// Lifetime: probes are sim::Tasks; call stop() (cancelling the epoch timer
// and all in-flight probes) before the Simulator is torn down or before
// asserting quiescence. The destructor calls stop() as a backstop, which
// is only safe while the Simulator and the TransferEngine are still alive.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ctrl/cost.h"
#include "ctrl/estimator.h"
#include "ctrl/policy.h"
#include "ctrl/steering.h"
#include "ctrl/trace.h"
#include "net/routing.h"
#include "obs/recorder.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "transfer/batch.h"

namespace droute::ctrl {

struct ControllerConfig {
  /// Seconds between scheduled epochs (network events force extra epochs).
  double epoch_s = 10.0;
  /// Probe bytes the controller may put on the wire per epoch. A k-leg
  /// probe costs probe_bytes * (k legs), so relay chains are charged for
  /// every hop they touch.
  std::uint64_t probe_budget_bytes = 2'000'000;
  /// Size of one probe leg (small measurement transfer).
  std::uint64_t probe_bytes = 262'144;
  /// Longest relay chain enumerated (1 = single DTN relay only).
  int max_relay_hops = 2;
  EstimatorConfig estimator;
  PolicyConfig policy;
  CostModel cost;
};

class Controller final : public Steering {
 public:
  /// Probe legs are submitted to `xfer`, which must outlive the controller.
  Controller(sim::Simulator& simulator, transfer::TransferEngine& xfer,
             const net::RouteTable& routes, ControllerConfig config = {});
  ~Controller() override;
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// World wiring; call before start() (checked): the candidate table is
  /// built there, from the clients and relays registered so far.
  void set_provider(net::NodeId provider);
  void add_client(net::NodeId client);
  void add_relay(net::NodeId relay);

  /// Schedules the first epoch (at the current sim time). Requires a
  /// provider and at least one client.
  void start();

  /// Cancels the epoch timer and every in-flight probe. Call before the
  /// final drain / quiescence assertion; idempotent.
  void stop();

  /// An external event (chaos link flap, policer rewrite, ...) invalidated
  /// the current picture: log it, cancel in-flight probes, forget every
  /// estimate and incumbent (pre/post-event samples must not share an
  /// EWMA), and re-learn from an immediate epoch.
  void on_network_event(const std::string& what);

  // Steering interface. steer() requires a registered client (checked).
  Decision steer(net::NodeId client, std::uint64_t bytes) override;
  void observe_session(net::NodeId client, const Decision& decision,
                       std::uint64_t bytes, double elapsed_s,
                       bool success) override;

  /// Audit hook: fired for every steer() decision (after tracing). The
  /// chaos harness uses it to enforce ctrl_no_dead_steer live.
  void set_decision_hook(
      std::function<void(net::NodeId, const Decision&)> hook) {
    decision_hook_ = std::move(hook);
  }

  std::uint64_t epoch() const { return epoch_; }
  const DecisionTrace& trace() const { return trace_; }
  const PathEstimator& estimator() const { return estimator_; }

  /// Deterministic candidate enumeration for `client`: direct first, then
  /// 1-hop relays in registration order, then ordered distinct chains of
  /// increasing length up to max_relay_hops. Computed afresh on each call;
  /// the controller itself reads its candidate table.
  std::vector<PathSpec> candidate_paths(net::NodeId client) const;

  /// True when every leg of client -> relays... -> provider has a live
  /// route (covers withdrawn routes and failed links). Computed afresh on
  /// each call; the controller itself reads its cached bits.
  bool path_routable(net::NodeId client, const PathSpec& path) const;

 private:
  /// A cached TIV verdict of one estimator path, valid while the revisions
  /// of the path and of its direct path are the ones it was judged at.
  struct Verdict {
    std::uint64_t revision = 0;
    std::uint64_t direct_revision = 0;
    // DecisionTrace::tiv_line_prefix of the flag; empty when not a TIV.
    std::string line_prefix;
  };
  struct Work {
    PathId id;
    std::uint64_t last_epoch;
  };

  void tick();
  /// Builds the candidate table (once; later calls are no-ops).
  void freeze();
  /// Recomputes routable_ when the route generation moved.
  void refresh_routability();
  /// Notes this epoch's TIV flags, in estimator key order.
  void note_tivs();
  sim::Task<void> probe_path(PathId id);

  sim::Simulator* simulator_;
  transfer::TransferEngine* xfer_;
  const net::RouteTable* routes_;
  ControllerConfig config_;

  net::NodeId provider_ = net::kInvalidNode;
  std::vector<net::NodeId> clients_;
  std::vector<net::NodeId> relays_;

  PathEstimator estimator_;
  // The candidate table: estimator ids of candidate_paths(clients_[i]) are
  // table_[table_begin_[i] .. table_begin_[i + 1]), in enumeration order.
  std::vector<PathId> table_;
  std::vector<std::size_t> table_begin_;
  bool frozen_ = false;
  // routable_[id]: path_routable() of table path `id` at route generation
  // routable_generation_ (unset until first computed).
  std::vector<char> routable_;
  std::optional<std::uint64_t> routable_generation_;
  std::vector<Verdict> verdicts_;  // indexed by estimator id
  std::vector<Work> work_;         // tick() scratch, kept for its capacity
  SteeringPolicy policy_;
  DecisionTrace trace_;
  std::function<void(net::NodeId, const Decision&)> decision_hook_;

  std::uint64_t epoch_ = 0;
  bool started_ = false;
  sim::EventId tick_event_;
  std::vector<sim::Task<void>> probes_;  // analyze: allow(coroutine-task-field) — stop() cancels all probes and every owner tears the controller down before its Simulator (header contract)

  obs::Counter* epochs_total_;
  obs::Counter* probes_launched_total_;
  obs::Counter* probes_failed_total_;
  obs::Histogram* probe_elapsed_s_;
  obs::Histogram* probe_budget_spent_bytes_;
  obs::Counter* tivs_flagged_total_;
  obs::Counter* decisions_made_total_;
  obs::Counter* switches_made_total_;
  obs::Counter* sessions_observed_total_;
  obs::Counter* events_seen_total_;
};

}  // namespace droute::ctrl
