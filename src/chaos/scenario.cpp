#include "chaos/scenario.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "chaos/injector.h"
#include "ctrl/controller.h"
#include "check/fabric_audit.h"
#include "check/sim_audit.h"
#include "check/valley_free.h"
#include "cloud/provider.h"
#include "cloud/storage_server.h"
#include "net/fabric.h"
#include "net/routing.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "transfer/api_upload.h"
#include "transfer/detour.h"
#include "transfer/parallel.h"
#include "transfer/rsync_engine.h"
#include "transfer/sim_transport.h"

namespace droute::chaos {

namespace {

struct WorkKindName {
  WorkKind kind;
  const char* name;
};

constexpr std::array<WorkKindName, 6> kWorkKindNames{{
    {WorkKind::kApiUpload, "api_upload"},
    {WorkKind::kDetour, "detour"},
    {WorkKind::kDetourPipelined, "detour_pipelined"},
    {WorkKind::kRsyncPush, "rsync_push"},
    {WorkKind::kSteered, "steered"},
    {WorkKind::kBatched, "batched"},
}};

double log_uniform(util::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

void fnv_mix(std::uint64_t& hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
}

void fnv_mix_double(std::uint64_t& hash, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  fnv_mix(hash, bits);
}

}  // namespace

std::string work_kind_name(WorkKind kind) {
  for (const WorkKindName& entry : kWorkKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

util::Result<WorkKind> parse_work_kind(const std::string& token) {
  for (const WorkKindName& entry : kWorkKindNames) {
    if (token == entry.name) return entry.kind;
  }
  return util::Error::make("unknown work kind: " + token);
}

Case random_case(std::uint64_t seed, const CaseSpec& spec) {
  const util::Rng root(seed);
  util::Rng topo_rng = root.split(1);
  util::Rng work_rng = root.split(2);
  util::Rng chaos_rng = root.split(3);

  Case c;
  c.seed = seed;
  c.topology = random_topology(topo_rng, spec.topology);

  const std::vector<int> hosts = c.topology.hosts();
  // The generator guarantees >= 2 ASes x >= 1 host, so hosts is never
  // smaller than 2; the server takes one, clients draw from the rest.
  c.server_node = hosts[static_cast<std::size_t>(work_rng.uniform_int(
      0, static_cast<std::int64_t>(hosts.size()) - 1))];
  std::vector<int> clients;
  for (int h : hosts) {
    if (h != c.server_node) clients.push_back(h);
  }

  const int items = static_cast<int>(work_rng.uniform_int(
      spec.min_work, std::max(spec.min_work, spec.max_work)));
  for (int i = 0; i < items && !clients.empty(); ++i) {
    WorkItem item;
    item.start_s = work_rng.uniform(0.0, 0.35 * spec.horizon_s);
    item.client = clients[static_cast<std::size_t>(work_rng.uniform_int(
        0, static_cast<std::int64_t>(clients.size()) - 1))];
    item.bytes = static_cast<std::uint64_t>(
        log_uniform(work_rng, 256.0 * 1024, 48.0 * 1024 * 1024));
    item.file_seed = work_rng.next_u64();
    const std::int64_t pick = work_rng.uniform_int(0, 9);
    // 40% direct upload, 20% detour, 10% pipelined detour, 10% rsync,
    // 10% controller-steered upload, 10% striped batch upload.
    WorkKind kind = WorkKind::kApiUpload;
    if (pick >= 4 && pick <= 5) kind = WorkKind::kDetour;
    if (pick == 6) kind = WorkKind::kDetourPipelined;
    if (pick == 7) kind = WorkKind::kRsyncPush;
    if (pick == 8) kind = WorkKind::kSteered;
    if (pick == 9) kind = WorkKind::kBatched;
    if (kind != WorkKind::kApiUpload && kind != WorkKind::kSteered &&
        kind != WorkKind::kBatched) {
      // Detours and rsync need a second endpoint distinct from the client.
      std::vector<int> vias;
      for (int h : clients) {
        if (h != item.client) vias.push_back(h);
      }
      if (vias.empty()) {
        kind = WorkKind::kApiUpload;
      } else {
        item.via = vias[static_cast<std::size_t>(work_rng.uniform_int(
            0, static_cast<std::int64_t>(vias.size()) - 1))];
      }
    }
    item.kind = kind;
    c.work.push_back(item);
  }

  PlanSpec plan_spec;
  plan_spec.horizon_s = spec.horizon_s;
  plan_spec.links = static_cast<int>(c.topology.links.size());
  plan_spec.nodes = static_cast<int>(c.topology.nodes.size());
  plan_spec.servers = 1;
  // Every work item opens a handful of flows (rsync runs two, uploads one
  // per chunk); over-approximating the id range keeps aborts interesting
  // while documented-no-op on ids that never materialize.
  plan_spec.max_flow_id = std::max(1, items * 6);
  plan_spec.max_events = spec.max_chaos_events;
  c.plan = random_plan(chaos_rng, plan_spec);
  c.plan.seed = seed;
  return c;
}

namespace {

/// Everything drive_item needs, stable for the whole run.
struct Stack {
  sim::Simulator* simulator = nullptr;
  transfer::ApiUploadEngine* api = nullptr;
  transfer::DetourEngine* detour = nullptr;
  transfer::RsyncEngine* rsync = nullptr;
  ctrl::Steering* steering = nullptr;  // only with kSteered work
  transfer::ParallelPushEngine* parallel = nullptr;  // kBatched striped pushes
  int server_node = 0;
};

// Stripe count for kBatched work: enough to exercise multi-request batch
// fan-out (launch order, partial failure, cancel cascade) without swamping
// the chaos plan's flow-id range.
constexpr int kBatchedStreams = 3;

/// Folds a finished item's join into its outcome: a Task-level error
/// (escaped exception, cancellation) ends the item now, unsuccessfully.
template <typename R>
void fold_outcome(const util::Result<R>& joined, double now,
                  WorkOutcome* out) {
  if (!joined.ok()) {
    out->error = joined.error().message;
    out->end_s = now;
    return;
  }
  out->success = joined.value().success;
  out->error = joined.value().error;
  out->end_s = joined.value().end_time;
}

sim::Task<void> drive_item(Stack stack, WorkItem item, WorkOutcome* out) {
  auto wake = sim::delay_until(*stack.simulator, item.start_s);
  if (!co_await wake) {
    out->done = true;
    out->cancelled = true;
    co_return;
  }
  out->start_s = stack.simulator->now();
  // Built via += to dodge GCC 12's -Wrestrict false positive on
  // `"literal" + std::to_string(...)` (libstdc++ PR 105651).
  std::string file_name = "w";
  file_name += std::to_string(item.file_seed);
  transfer::FileSpec file{file_name, item.bytes, item.file_seed};
  switch (item.kind) {
    case WorkKind::kApiUpload: {
      auto task = stack.api->upload_task(item.client, file);
      const auto result = co_await task;
      fold_outcome(result, stack.simulator->now(), out);
      break;
    }
    case WorkKind::kDetour:
    case WorkKind::kDetourPipelined: {
      transfer::DetourOptions options;
      options.mode = item.kind == WorkKind::kDetour
                         ? transfer::DetourMode::kStoreAndForward
                         : transfer::DetourMode::kPipelined;
      auto task = stack.detour->transfer_task(
          item.client, ctrl::PathSpec{{item.via}}, file, options);
      const auto result = co_await task;
      fold_outcome(result, stack.simulator->now(), out);
      // Only detours report legs: the run digest mixes both fields of
      // every outcome.
      if (result.ok()) {
        out->leg1_s = result.value().leg1_s;
        out->leg2_s = result.value().leg2_s;
      }
      break;
    }
    case WorkKind::kRsyncPush: {
      auto task = stack.rsync->push_task(item.client, item.via, file);
      const auto result = co_await task;
      fold_outcome(result, stack.simulator->now(), out);
      break;
    }
    case WorkKind::kSteered: {
      auto task =
          stack.detour->steered_task(item.client, file, *stack.steering);
      const auto result = co_await task;
      fold_outcome(result, stack.simulator->now(), out);
      break;
    }
    case WorkKind::kBatched: {
      auto task = stack.parallel->push_task(item.client, stack.server_node,
                                            file, kBatchedStreams);
      const auto result = co_await task;
      fold_outcome(result, stack.simulator->now(), out);
      break;
    }
  }
  out->done = true;
  co_return;
}

}  // namespace

RunReport run_case(const Case& c) { return run_case(c, RunOptions{}); }

RunReport run_case(const Case& c, const RunOptions& options) {
  RunReport report;
  auto fail = [&report](const std::string& property,
                        const std::string& detail) {
    if (report.violated.empty()) {
      report.violated = property;
      report.detail = detail;
    }
  };

  auto topo_result = c.topology.build();
  if (!topo_result.ok()) {
    fail("topology_build", topo_result.error().message);
    return report;
  }
  net::Topology topo = std::move(topo_result).value();

  sim::Simulator simulator;
  check::SimAuditor auditor(&simulator);
  net::RouteTable routes(&topo);
  net::Fabric fabric(&simulator, &topo, &routes);
  if (options.full_recompute) {
    fabric.set_alloc_mode(net::Fabric::AllocMode::kFullRecompute);
  }
  // The fabric's one batch layer: every engine and the controller below
  // move their bytes through it (declared first, so destroyed last).
  transfer::SimTransport transport(&fabric);
  transfer::TransferEngine xfer(&transport);
  cloud::StorageServer server(
      cloud::ProviderKind::kGoogleDrive,
      cloud::default_profile(cloud::ProviderKind::kGoogleDrive));
  server.set_clock([&simulator] { return simulator.now(); });
  transfer::ApiUploadEngine api(&fabric, xfer, &server, c.server_node);
  transfer::DetourEngine detour(&fabric, xfer, &api);
  transfer::RsyncEngine rsync(&fabric, xfer);
  transfer::ParallelPushEngine parallel(&fabric, xfer);

  // kSteered work brings up the online control plane: the controller probes
  // candidate paths (every non-server host is a potential relay) and each
  // steered session of the detour engine consults it. The decision hook
  // enforces ctrl_no_dead_steer live: a routable decision must re-validate
  // leg by leg against the same route table the controller consulted.
  const bool has_steered =
      std::any_of(c.work.begin(), c.work.end(), [](const WorkItem& item) {
        return item.kind == WorkKind::kSteered;
      });
  std::unique_ptr<ctrl::Controller> controller;
  if (has_steered) {
    controller = std::make_unique<ctrl::Controller>(simulator, xfer, routes);
    controller->set_provider(c.server_node);
    std::vector<int> steered_clients;
    for (const WorkItem& item : c.work) {
      if (item.kind != WorkKind::kSteered) continue;
      if (std::find(steered_clients.begin(), steered_clients.end(),
                    item.client) == steered_clients.end()) {
        steered_clients.push_back(item.client);
      }
    }
    for (const int client : steered_clients) controller->add_client(client);
    for (const int host : c.topology.hosts()) {
      if (host != c.server_node) controller->add_relay(host);
    }
    controller->set_decision_hook(
        [&fail, &routes, &c](net::NodeId client, const ctrl::Decision& d) {
          if (!d.routable) return;  // no live path existed; nothing steered
          net::NodeId prev = client;
          std::vector<net::NodeId> legs = d.path.relays;
          legs.push_back(c.server_node);
          for (const net::NodeId hop : legs) {
            if (!routes.route(prev, hop).ok()) {
              fail("ctrl_no_dead_steer",
                   "decision " + d.path.label() + " for client " +
                       std::to_string(client) + " has dead leg " +
                       std::to_string(prev) + " -> " + std::to_string(hop));
              return;
            }
            prev = hop;
          }
        });
    controller->start();
  }

  // Gao–Rexford: every AS pair BGP can route must be valley-free.
  // Unreachable pairs are legitimate under policy routing (e.g. after a
  // shrinker dropped the only transit link), so as_path errors pass.
  auto gao_rexford = [&topo, &routes]() -> util::Status {
    const auto as_count = static_cast<net::AsId>(topo.as_count());
    for (net::AsId src = 0; src < as_count; ++src) {
      for (net::AsId dst = 0; dst < as_count; ++dst) {
        if (src == dst) continue;
        auto path = routes.as_path(src, dst);
        if (!path.ok()) continue;
        auto valid = check::validate_as_path(topo, path.value());
        if (!valid.ok()) return valid;
      }
    }
    return util::Status::success();
  };
  if (auto st = gao_rexford(); !st.ok()) {
    fail("gao_rexford", st.error().message);
  }

  Injector injector({&simulator, &fabric, &topo, &routes, {&server}});
  injector.set_post_apply([&](const Event& event) {
    if (auto st = check::audit_fabric(fabric); !st.ok()) {
      fail("fabric_audit", st.error().message);
    }
    if (event_churns_routes(event.kind)) {
      if (auto st = gao_rexford(); !st.ok()) {
        fail("gao_rexford", st.error().message);
      }
    }
    // The control plane reacts to every injected fault with an immediate
    // out-of-band epoch (re-probe + re-steer).
    if (controller != nullptr) {
      controller->on_network_event(event_kind_name(event.kind));
    }
  });
  injector.arm(c.plan);

  report.outcomes.resize(c.work.size());
  std::vector<sim::Task<void>> tasks;
  tasks.reserve(c.work.size());
  const Stack stack{&simulator, &api,      &detour,      &rsync,
                    controller.get(), &parallel, c.server_node};
  for (std::size_t i = 0; i < c.work.size(); ++i) {
    tasks.push_back(drive_item(stack, c.work[i], &report.outcomes[i]));
  }

  double last_stimulus = 0.0;
  for (const Event& event : c.plan.events) {
    last_stimulus = std::max(last_stimulus, event.at_s);
  }
  for (const WorkItem& item : c.work) {
    last_stimulus = std::max(last_stimulus, item.start_s);
  }
  simulator.run_until(last_stimulus + kRunAllowanceS);
  // Stop the controller's epoch loop (and any in-flight probes) before the
  // drain: its self-rescheduling tick would otherwise never quiesce.
  if (controller != nullptr) controller->stop();
  for (auto& task : tasks) {
    if (!task.done()) task.cancel();
  }
  simulator.run();  // drain cancellation fallout

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!tasks[i].done()) {
      fail("task_completion",
           "work item " + std::to_string(i) + " never finished");
    }
  }
  for (const WorkOutcome& outcome : report.outcomes) {
    if (outcome.cancelled) {
      ++report.cancelled_work;
    } else if (outcome.done) {
      ++report.completed_work;
    }
  }
  if (fabric.active_flow_count() != 0) {
    fail("flow_leak", std::to_string(fabric.active_flow_count()) +
                          " flows still active after drain");
  }
  if (server.open_sessions() != 0) {
    fail("session_leak", std::to_string(server.open_sessions()) +
                             " upload sessions still open after drain");
  }
  // The batch layer must have settled every BatchHandle — the engines' and
  // the controller's probes alike: a cancelled or abandoned batch that
  // failed to release its requests shows up here as a stuck
  // transfer.batch_inflight count.
  const std::size_t batch_leak = xfer.batches_inflight();
  if (batch_leak != 0) {
    fail("batch_leak", std::to_string(batch_leak) +
                           " transfer batches still inflight after drain");
  }
  if (auto st = auditor.audit_quiescent(); !st.ok()) {
    fail("quiescent", st.error().message);
  }
  if (auto st = check::audit_fabric(fabric); !st.ok()) {
    fail("fabric_audit", st.error().message);
  }

  // Store-and-forward detours run their legs back to back; the total must
  // be the sum of the legs (the paper's 19 s + 17 s = 36 s identity).
  for (std::size_t i = 0; i < c.work.size(); ++i) {
    if (c.work[i].kind != WorkKind::kDetour) continue;
    const WorkOutcome& outcome = report.outcomes[i];
    if (!outcome.done || !outcome.success) continue;
    const double duration = outcome.end_s - outcome.start_s;
    const double legs = outcome.leg1_s + outcome.leg2_s;
    const double slack = kDetourIdentitySlack * std::max(1.0, duration);
    if (std::fabs(duration - legs) > slack) {
      fail("detour_identity",
           "work item " + std::to_string(i) + ": duration " +
               format_double(duration) + " != leg1+leg2 " +
               format_double(legs));
    }
  }

  report.injected = injector.injected();
  report.skipped = injector.skipped();

  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  fnv_mix(digest, c.seed);
  for (const WorkOutcome& outcome : report.outcomes) {
    fnv_mix(digest, (outcome.done ? 1u : 0u) | (outcome.cancelled ? 2u : 0u) |
                        (outcome.success ? 4u : 0u));
    fnv_mix_double(digest, outcome.start_s);
    fnv_mix_double(digest, outcome.end_s);
    fnv_mix_double(digest, outcome.leg1_s);
    fnv_mix_double(digest, outcome.leg2_s);
  }
  fnv_mix(digest, report.injected);
  fnv_mix(digest, report.skipped);
  fnv_mix(digest, fabric.delivered_bytes());
  fnv_mix(digest, server.throttled_requests());
  fnv_mix(digest, simulator.executed_events());
  if (controller != nullptr) {
    // Steered runs also pin the full decision trace (mixed only when the
    // control plane ran, so plain cases keep their historical digests).
    fnv_mix(digest, controller->trace().fnv1a());
  }
  report.digest = digest;
  return report;
}

}  // namespace droute::chaos
