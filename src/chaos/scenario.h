// Randomized end-to-end scenarios: a topology, a workload, a chaos plan —
// and the properties every run must satisfy.
//
// A chaos::Case is the unit the property harness generates, runs, shrinks
// and serializes. random_case derives three independent Rng substreams from
// one seed via util::Rng::split (keys 1/2/3 for topology/workload/chaos), so
// shrinking one component never perturbs the others' draws and a seed
// identifies the whole case.
//
// run_case builds the full stack (Simulator + SimAuditor + RouteTable +
// Fabric + StorageServer + upload/detour/rsync engines), arms a
// chaos::Injector, drives every work item as a sim::Task coroutine, and
// checks, during and after the run:
//   * fabric_audit     — flow conservation + link capacity (check::audit_fabric)
//     after every injected fault and at quiescence,
//   * gao_rexford      — every BGP-selected AS path valley-free, re-checked
//     after every routing-churning fault,
//   * task_completion  — every work task finishes (or is cancelled at the
//     deadline and then finishes),
//   * flow_leak / session_leak — no active flows, no open upload sessions
//     after the drain,
//   * quiescent        — simulator fully drained, no cancelled backlog,
//   * detour_identity  — successful store-and-forward detours satisfy
//     duration == leg1 + leg2 (within fluid rounding slack),
//   * ctrl_no_dead_steer — when steered work is present, every routable
//     steering decision's legs re-validate against the live route table at
//     decision time (the controller never steers onto a dead path).
// The report carries a digest of all observable outcomes; identical seeds
// must produce identical digests (the determinism property).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/plan.h"
#include "chaos/topology_gen.h"
#include "util/result.h"

namespace droute::chaos {

/// What one workload item does (which transfer engine it drives).
enum class WorkKind : std::uint8_t {
  kApiUpload,        // direct client -> provider API upload
  kDetour,           // store-and-forward via an intermediate DTN
  kDetourPipelined,  // pipelined detour (legs overlap)
  kRsyncPush,        // bare rsync push client -> DTN (no provider)
  kSteered,          // upload path chosen online by ctrl::Controller
  kBatched,          // striped multi-request batch via submit_batch()
};

/// Serialization token for a work kind (e.g. "api_upload").
std::string work_kind_name(WorkKind kind);

/// Inverse of work_kind_name.
[[nodiscard]] util::Result<WorkKind> parse_work_kind(const std::string& token);

struct WorkItem {
  double start_s = 0.0;
  WorkKind kind = WorkKind::kApiUpload;
  int client = 0;             // source host (node index)
  int via = -1;               // DTN host for detours, destination for rsync
  std::uint64_t bytes = 0;
  std::uint64_t file_seed = 0;

  friend bool operator==(const WorkItem& a, const WorkItem& b) {
    // Exact double equality on purpose: round-trip fidelity (see Event).
    return a.start_s == b.start_s && a.kind == b.kind &&
           a.client == b.client && a.via == b.via && a.bytes == b.bytes &&
           a.file_seed == b.file_seed;
  }
};

/// One self-contained scenario. Plain data: generated, shrunk, serialized.
struct Case {
  std::uint64_t seed = 0;
  GenTopology topology;
  int server_node = 0;  // host node acting as the provider front-end
  std::vector<WorkItem> work;
  Plan plan;

  friend bool operator==(const Case&, const Case&) = default;
};

struct CaseSpec {
  TopologySpec topology;
  double horizon_s = 90.0;  // work starts and chaos events land inside this
  int min_work = 1;
  int max_work = 4;
  int max_chaos_events = 8;
};

/// Draws a complete case from `seed`. Topology, workload and chaos plan use
/// split substreams (keys 1, 2, 3), so each is independently reproducible.
Case random_case(std::uint64_t seed, const CaseSpec& spec = {});

/// Per-work-item observable outcome (inputs to the run digest).
struct WorkOutcome {
  bool done = false;
  bool cancelled = false;  // cancelled at the deadline before starting/finishing
  bool success = false;
  std::string error;
  double start_s = 0.0;
  double end_s = 0.0;
  double leg1_s = 0.0;  // detours only
  double leg2_s = 0.0;  // store-and-forward detours only
};

struct RunReport {
  std::string violated;  // first violated property name; empty = all held
  std::string detail;    // human-readable description of the violation
  std::uint64_t digest = 0;  // FNV-1a over all observable outcomes
  std::size_t injected = 0;
  std::size_t skipped = 0;
  std::size_t completed_work = 0;
  std::size_t cancelled_work = 0;
  std::vector<WorkOutcome> outcomes;

  bool ok() const { return violated.empty(); }
};

/// Slack allowed on the detour duration == leg1 + leg2 identity (relative
/// to the duration, floored at 1 second's worth of 1e-6).
inline constexpr double kDetourIdentitySlack = 1e-6;

/// After the last scheduled stimulus (work start or chaos event), the run
/// gets this much more simulated time before stragglers are cancelled.
inline constexpr double kRunAllowanceS = 3600.0;

/// Knobs orthogonal to the case itself — never serialized, never shrunk, so
/// a seed still identifies the case under any options.
struct RunOptions {
  /// Drive the fabric in the retained full-recompute reference mode instead
  /// of the default incremental allocator. The differential equivalence
  /// suite runs every case both ways and holds the digests byte-equal.
  bool full_recompute = false;
};

/// Builds the stack, runs the case to quiescence, checks every property.
/// Deterministic: same case + same options, same report (incl. the digest).
RunReport run_case(const Case& c, const RunOptions& options);
RunReport run_case(const Case& c);

}  // namespace droute::chaos
