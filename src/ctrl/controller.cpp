#include "ctrl/controller.h"

#include <algorithm>
#include <utility>

#include "check/contract.h"

namespace droute::ctrl {

Controller::Controller(sim::Simulator& simulator,
                       transfer::TransferEngine& xfer,
                       const net::RouteTable& routes, ControllerConfig config)
    : simulator_(&simulator),
      xfer_(&xfer),
      routes_(&routes),
      config_(config),
      estimator_(config.estimator),
      policy_(config.policy, config.cost),
      epochs_total_(obs::counter("ctrl.epochs_total")),
      probes_launched_total_(obs::counter("ctrl.probes_launched_total")),
      probes_failed_total_(obs::counter("ctrl.probes_failed_total")),
      probe_elapsed_s_(obs::histogram("ctrl.probe_elapsed_s")),
      probe_budget_spent_bytes_(obs::histogram(
          "ctrl.probe_budget_spent_bytes", obs::size_bounds_bytes())),
      tivs_flagged_total_(obs::counter("ctrl.tivs_flagged_total")),
      decisions_made_total_(obs::counter("ctrl.decisions_made_total")),
      switches_made_total_(obs::counter("ctrl.switches_made_total")),
      sessions_observed_total_(obs::counter("ctrl.sessions_observed_total")),
      events_seen_total_(obs::counter("ctrl.events_seen_total")) {
  DROUTE_CHECK(config_.epoch_s > 0.0, "Controller: epoch_s must be positive");
  DROUTE_CHECK(config_.probe_bytes > 0,
               "Controller: probe_bytes must be positive");
  DROUTE_CHECK(config_.max_relay_hops >= 0,
               "Controller: max_relay_hops must be >= 0");
}

Controller::~Controller() { stop(); }

void Controller::set_provider(net::NodeId provider) {
  DROUTE_CHECK(!frozen_, "Controller::set_provider after start()");
  provider_ = provider;
}

void Controller::add_client(net::NodeId client) {
  DROUTE_CHECK(!frozen_, "Controller::add_client after start()");
  clients_.push_back(client);
}

void Controller::add_relay(net::NodeId relay) {
  DROUTE_CHECK(!frozen_, "Controller::add_relay after start()");
  relays_.push_back(relay);
}

void Controller::start() {
  DROUTE_CHECK(!started_, "Controller::start: already started");
  freeze();
  started_ = true;
  tick_event_ = simulator_->schedule_in(0.0, [this] { tick(); });
}

void Controller::freeze() {
  if (frozen_) return;
  DROUTE_CHECK(provider_ != net::kInvalidNode,
               "Controller::start: set_provider first");
  DROUTE_CHECK(!clients_.empty(), "Controller::start: no clients registered");
  frozen_ = true;
  table_begin_.reserve(clients_.size() + 1);
  for (const net::NodeId client : clients_) {
    table_begin_.push_back(table_.size());
    for (const PathSpec& path : candidate_paths(client)) {
      table_.push_back(estimator_.add_path(client, provider_, path));
    }
  }
  table_begin_.push_back(table_.size());
}

void Controller::refresh_routability() {
  if (routable_generation_ == routes_->generation()) return;
  routable_generation_ = routes_->generation();
  routable_.assign(estimator_.size(), 0);
  for (const PathId id : table_) {
    routable_[id] = path_routable(estimator_.client(id), estimator_.path(id));
  }
}

void Controller::stop() {
  started_ = false;
  simulator_->cancel(tick_event_);
  tick_event_ = sim::EventId{};
  for (auto& probe : probes_) probe.cancel();
  probes_.clear();
}

void Controller::on_network_event(const std::string& what) {
  trace_.note_event(simulator_->now(), what);
  obs::add(events_seen_total_);
  // The event invalidated the measured picture. Blending pre- and
  // post-event samples into one EWMA inflates the variance so badly that
  // the Sec III-B overlap test goes blind for many epochs (every bar
  // overlaps every other), so instead: drop in-flight probes (their legs
  // straddle the change), forget every estimate and incumbent, and
  // re-learn the new regime from an immediate epoch of fresh probes.
  for (sim::Task<void>& probe : probes_) {
    if (!probe.done()) probe.cancel();
  }
  estimator_.reset();
  for (const net::NodeId client : clients_) {
    policy_.reset_client(client);
  }
  if (!started_) return;
  // Re-plan immediately: the scheduled epoch is folded into this one.
  simulator_->cancel(tick_event_);
  tick_event_ = sim::EventId{};
  tick();
}

std::vector<PathSpec> Controller::candidate_paths(net::NodeId client) const {
  std::vector<PathSpec> out;
  out.push_back(PathSpec{});
  std::vector<net::NodeId> usable;
  usable.reserve(relays_.size());
  for (const net::NodeId relay : relays_) {
    if (relay != client && relay != provider_) usable.push_back(relay);
  }
  // Ordered distinct chains by increasing length, lexicographic in
  // registration order within a length — a stable enumeration the probe
  // scheduler and the policy both see.
  std::vector<net::NodeId> prefix;
  const auto extend = [&](const auto& self, int target_len) -> void {
    if (static_cast<int>(prefix.size()) == target_len) {
      out.push_back(PathSpec{prefix});
      return;
    }
    for (const net::NodeId node : usable) {
      if (std::find(prefix.begin(), prefix.end(), node) != prefix.end()) {
        continue;
      }
      prefix.push_back(node);
      self(self, target_len);
      prefix.pop_back();
    }
  };
  for (int len = 1; len <= config_.max_relay_hops; ++len) {
    extend(extend, len);
  }
  return out;
}

bool Controller::path_routable(net::NodeId client, const PathSpec& path) const {
  net::NodeId prev = client;
  for (const net::NodeId hop : path.relays) {
    if (!routes_->route(prev, hop).ok()) return false;
    prev = hop;
  }
  return routes_->route(prev, provider_).ok();
}

void Controller::note_tivs() {
  verdicts_.resize(estimator_.size());
  for (const PathId id : estimator_.key_order()) {
    const PathId direct = estimator_.direct_of(id);
    if (direct == id) continue;  // a direct path is never a TIV
    Verdict& verdict = verdicts_[id];
    if (verdict.revision != estimator_.revision(id) ||
        verdict.direct_revision != estimator_.revision(direct)) {
      verdict.revision = estimator_.revision(id);
      verdict.direct_revision = estimator_.revision(direct);
      verdict.line_prefix =
          estimator_.is_tiv(id, config_.policy.significance)
              ? DecisionTrace::tiv_line_prefix(
                    estimator_.client(id), provider_, estimator_.path(id),
                    estimator_.stats(id).mean_mbps,
                    estimator_.stats(direct).mean_mbps)
              : std::string{};
    }
    if (verdict.line_prefix.empty()) continue;
    trace_.note_tiv(verdict.line_prefix, epoch_);
    obs::add(tivs_flagged_total_);
  }
}

void Controller::tick() {
  ++epoch_;
  obs::add(epochs_total_);

  // Reap probes that completed since the last epoch (their results already
  // landed in the estimator via on-completion code in probe_path).
  std::erase_if(probes_, [](const sim::Task<void>& t) { return t.done(); });

  // Flag throughput TIVs as of this epoch's estimates.
  note_tivs();

  // Spend the probe budget, stalest estimate first.
  refresh_routability();
  work_.clear();
  for (const PathId id : table_) {
    if (routable_[id] != 0) {
      work_.push_back({id, estimator_.stats(id).last_epoch});
    }
  }
  std::stable_sort(work_.begin(), work_.end(),
                   [](const Work& a, const Work& b) {
                     return a.last_epoch < b.last_epoch;
                   });

  std::uint64_t spent = 0;
  int launched = 0;
  for (const Work& item : work_) {
    const std::uint64_t cost =
        config_.probe_bytes *
        static_cast<std::uint64_t>(estimator_.path(item.id).relay_hops() + 1);
    if (spent + cost > config_.probe_budget_bytes) break;
    spent += cost;
    ++launched;
    probes_.push_back(probe_path(item.id));
  }
  obs::add(probes_launched_total_, static_cast<std::uint64_t>(launched));
  obs::observe(probe_budget_spent_bytes_, static_cast<double>(spent));
  trace_.note_epoch(epoch_, simulator_->now(), launched, spent);

  tick_event_ = simulator_->schedule_in(config_.epoch_s, [this] { tick(); });
}

sim::Task<void> Controller::probe_path(PathId id) {
  const double start = simulator_->now();
  const std::uint64_t launch_epoch = epoch_;
  const net::NodeId client = estimator_.client(id);
  // A copy: the probe outlives this epoch, and the label is traced at the end.
  const PathSpec path = estimator_.path(id);
  std::vector<net::NodeId> hops;
  hops.push_back(client);
  hops.insert(hops.end(), path.relays.begin(), path.relays.end());
  hops.push_back(provider_);

  bool ok = true;
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    transfer::TransferRequest request;
    request.source_node = hops[i];
    request.target_id = xfer_->ensure_node_segment(hops[i + 1]);
    request.length = config_.probe_bytes;
    // Probes estimate steady-state available bandwidth from a small
    // transfer; charging the TCP ramp would bias fast paths low (a 2 MB
    // probe over a Gbps leg measures mostly slow start) and the bias would
    // fight the session-goodput samples folded in by observe_session.
    request.charge_slow_start = false;
    request.label = "ctrl.probe";
    auto leg = xfer_->submit(std::move(request));
    if (!co_await leg) {
      ok = false;
      break;
    }
  }

  const double elapsed = simulator_->now() - start;
  // End-to-end store-and-forward throughput: probe_bytes delivered over the
  // sum of all leg durations.
  const double mbps =
      ok && elapsed > 0.0
          ? static_cast<double>(config_.probe_bytes) * 8e-6 / elapsed
          : 0.0;
  if (ok) {
    estimator_.observe(id, mbps, elapsed, launch_epoch);
    obs::observe(probe_elapsed_s_, elapsed);
  } else {
    obs::add(probes_failed_total_);
  }
  trace_.note_probe(client, path, ok, mbps, elapsed, launch_epoch);
  if (obs::enabled()) {
    obs::emit_span("ctrl.probe_transfer", obs::Clock::kSim, start,
                   simulator_->now(),
                   {{"path", path.label()}, {"ok", ok ? "1" : "0"}});
  }
  co_return;
}

Decision Controller::steer(net::NodeId client, std::uint64_t bytes) {
  freeze();
  const auto registered = std::find(clients_.begin(), clients_.end(), client);
  DROUTE_CHECK(registered != clients_.end(),
               "Controller::steer: unregistered client");
  const auto index = static_cast<std::size_t>(registered - clients_.begin());
  refresh_routability();
  std::vector<SteeringPolicy::Candidate> candidates;
  candidates.reserve(table_begin_[index + 1] - table_begin_[index]);
  for (std::size_t k = table_begin_[index]; k < table_begin_[index + 1]; ++k) {
    const PathId id = table_[k];
    const PathStats& stats = estimator_.stats(id);
    candidates.push_back({estimator_.path(id), routable_[id] != 0,
                          stats.samples == 0 ? nullptr : &stats});
  }
  Decision decision = policy_.decide(client, bytes, candidates, epoch_,
                                     simulator_->now());
  trace_.note_steer(client, bytes, decision);
  obs::add(decisions_made_total_);
  if (decision.switched) obs::add(switches_made_total_);
  if (decision_hook_) decision_hook_(client, decision);
  return decision;
}

void Controller::observe_session(net::NodeId client, const Decision& decision,
                                 std::uint64_t bytes, double elapsed_s,
                                 bool success) {
  const double mbps = success && elapsed_s > 0.0
                          ? static_cast<double>(bytes) * 8e-6 / elapsed_s
                          : 0.0;
  if (success) {
    // Passive feedback: a real session is a free (and much larger) sample
    // for the path it rode.
    estimator_.observe(client, provider_, decision.path, mbps, elapsed_s,
                       epoch_);
  }
  trace_.note_session(client, decision.path, success, mbps, elapsed_s);
  obs::add(sessions_observed_total_);
}

}  // namespace droute::ctrl
