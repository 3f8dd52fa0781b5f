// Flow-level network fabric: fluid flows over the topology with max-min fair
// bandwidth sharing under per-flow TCP caps.
//
// Model. Each flow follows a fixed route (computed at start). At any instant
// every active flow has a rate; rates are the max-min fair allocation given
//   * each link's shared capacity,
//   * each flow's individual cap (TCP window/loss limit, policers,
//     middleboxes — see tcp_model.h).
// The allocation is recomputed at every flow arrival, departure, activation
// and failure (event-driven fluid simulation); between events rates are
// constant, so completions are scheduled exactly.
//
// Allocation is *incremental* (DESIGN.md §12): the max-min allocation
// decomposes exactly over connected components of the flow/link sharing
// graph, so each event water-fills only the component(s) reachable from the
// flows it dirtied; every other flow keeps its retained rate. Because the
// per-component fill is a deterministic function of the component's flows
// and links alone, retained rates are bit-identical to what a full
// recomputation would produce — the retained reference path
// (AllocMode::kFullRecompute) re-fills every component from scratch on every
// event, and the differential suite (tests/fabric_equivalence_test.cpp,
// proptest property `fabric_equivalence`) holds the two paths byte-equal.
//
// Because each component's fill is independent, dirty components are also
// embarrassingly parallel *within* one event: AllocMode::kSharded fans the
// per-component water-fills out to a private util::ThreadPool while keeping
// component collection and the advance/re-key merge single-threaded in
// collection order, so event schedules, digests and metrics stay
// byte-identical to the single-threaded modes at any worker count
// (DESIGN.md §16).
//
// Between-event bookkeeping is lazy so untouched flows cost nothing per
// event: byte progress is advanced per flow only when its rate is about to
// change (or it leaves), and completions are scheduled from an indexed
// min-heap of absolute finish times, re-keyed in place only on rate change
// and holding at most one entry per live flow. Both are keyed off "did this
// flow's rate change bitwise", which the component argument above makes
// identical across the two allocation modes.
//
// Slow start is modelled as an activation delay during which the flow
// consumes no bandwidth (conservative for short flows, negligible for bulk).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/routing.h"
#include "net/tcp_model.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "util/result.h"

namespace droute::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace droute::obs

namespace droute::util {
class ThreadPool;
}  // namespace droute::util

namespace droute::net {

using FlowId = std::uint64_t;

enum class FlowOutcome { kCompleted, kAborted, kLinkFailed };

struct FlowStats {
  FlowId id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint64_t bytes = 0;
  sim::Time start_time = 0.0;
  sim::Time end_time = 0.0;
  FlowOutcome outcome = FlowOutcome::kCompleted;
  double rtt_s = 0.0;       // model RTT used for the cap
  double cap_mbps = 0.0;    // per-flow ceiling applied
  Route route;

  double duration_s() const { return end_time - start_time; }
  double achieved_mbps() const {
    return duration_s() > 0.0 ? static_cast<double>(bytes) * 8e-6 / duration_s()
                              : 0.0;
  }
};

struct FlowOptions {
  TcpParams tcp;
  /// Charge the slow-start ramp delay before the flow carries bytes.
  /// Engines reusing a warm connection (later chunks) disable this.
  bool charge_slow_start = true;
  /// Extra per-flow cap in Mbps on top of the TCP model (0 = none) —
  /// e.g. an application-level throttle.
  double app_cap_mbps = 0.0;
  /// Label for debugging and cross-traffic identification.
  std::string label;
};

class Fabric {
 public:
  using CompletionFn = std::function<void(const FlowStats&)>;

  /// How each event re-derives the max-min allocation.
  ///   kIncremental    water-fill only the component(s) dirtied by the event;
  ///                   all other flows keep their retained rates (default).
  ///   kFullRecompute  re-fill every component from scratch on every event —
  ///                   the reference the differential suite compares against.
  ///   kSharded        like kIncremental, but the dirty components of each
  ///                   event are water-filled in parallel on a private
  ///                   ThreadPool (shard boundary = sharing component);
  ///                   collection and merge stay single-threaded and ordered,
  ///                   so results are byte-identical to the other modes at
  ///                   any worker count (DESIGN.md §16).
  enum class AllocMode { kIncremental, kFullRecompute, kSharded };

  /// When the DROUTE_SHARD_WORKERS environment variable is a positive
  /// integer N, new fabrics default to AllocMode::kSharded with N workers
  /// (explicit set_alloc_mode/set_shard_workers calls override it). Lets CI
  /// run the whole suite sharded without touching every stack constructor.
  Fabric(sim::Simulator* simulator, Topology* topo, RouteTable* routes);

  ~Fabric();  // out-of-line: owns the (forward-declared) shard pool

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// The simulator this fabric schedules on (shared with callers that need
  /// to interleave protocol timers with flow completions).
  sim::Simulator* simulator() const { return simulator_; }

  /// Selects the allocation strategy (see AllocMode). Switching mid-run is
  /// allowed — both modes maintain identical state — but the differential
  /// suite always fixes the mode for a whole scenario.
  void set_alloc_mode(AllocMode mode) { alloc_mode_ = mode; }
  AllocMode alloc_mode() const { return alloc_mode_; }

  /// Worker count for AllocMode::kSharded (>= 1). 1 runs the sharded
  /// batch/merge discipline inline on the simulation thread (no pool);
  /// >= 2 fans component fills out to a private ThreadPool, created lazily
  /// on the first multi-component batch. Worker count can never change
  /// results — only wall-clock time (the determinism contract the
  /// three-mode differential suite enforces).
  void set_shard_workers(int workers);
  int shard_workers() const { return shard_workers_; }

  /// Base RTT added to propagation (host stacks, serialization); default 3ms.
  void set_base_rtt_s(double base_rtt) { base_rtt_s_ = base_rtt; }
  double base_rtt_s() const { return base_rtt_s_; }

  /// Model RTT between two nodes along current routes (forward + reverse
  /// propagation + base). Errors if either direction is unroutable.
  [[nodiscard]] util::Result<double> rtt_s(NodeId a, NodeId b) const;

  /// Starts a flow of `bytes` from src to dst; `on_complete` fires exactly
  /// once with the final stats (any outcome). Fails if no route exists.
  [[nodiscard]]
  util::Result<FlowId> start_flow(NodeId src, NodeId dst, std::uint64_t bytes,
                                  CompletionFn on_complete,
                                  FlowOptions options = {});

  /// Aborts an in-flight flow (its callback fires with kAborted).
  /// No-op if the flow already finished.
  void abort_flow(FlowId id);

  /// Disables a link; flows routed over it fail with kLinkFailed and the
  /// route tables are invalidated (new flows re-route around it).
  void fail_link(LinkId link);

  /// Re-enables a previously failed link.
  void restore_link(LinkId link);

  /// Re-derives the max-min allocation immediately. Call after an
  /// out-of-band topology mutation that changes shared capacity (e.g.
  /// Topology::set_link_capacity from a chaos plan): flows keep their
  /// routes and per-flow caps; only the fair shares converge to the new
  /// capacities. Always falls back to a full recompute (the fabric cannot
  /// see which links were rewritten). With nothing active and no completion
  /// pending it early-outs and only bumps realloc_skipped().
  void reallocate_now();

  /// Times reallocate_now() was skipped because the fabric was idle
  /// (mirrored by the `net.realloc_skipped_total` counter when an obs
  /// recorder is installed).
  std::uint64_t realloc_skipped() const { return realloc_skipped_; }

  /// Current allocated rate of a flow in Mbps (0 if pending/unknown).
  double current_rate_mbps(FlowId id) const;

  std::size_t active_flow_count() const { return live_flows_; }

  /// Flows currently queued in the finish heap: those with a finite finish
  /// time, so never more than active_flow_count().
  std::size_t finish_heap_size() const { return finish_heap_.size(); }

  /// Total payload bytes fully delivered since construction.
  std::uint64_t delivered_bytes() const { return delivered_bytes_; }

  /// Total payload bytes of every flow ever accepted by start_flow().
  /// Conservation bound audited by check::audit_flow_conservation:
  /// moved_bytes() and delivered_bytes() can never exceed it.
  std::uint64_t submitted_bytes() const { return submitted_bytes_; }

  /// Sum over all flows, finished or not, of bytes actually moved so far.
  /// Used by conservation tests: never exceeds the sum of submitted bytes.
  double moved_bytes() const;

  /// Instantaneous per-link load (observability for congestion analysis).
  struct LinkLoad {
    LinkId link = kInvalidLink;
    double allocated_mbps = 0.0;
    double capacity_mbps = 0.0;
    int flows = 0;

    double utilization() const {
      return capacity_mbps > 0.0 ? allocated_mbps / capacity_mbps : 0.0;
    }
  };

  /// Loads of every link currently carrying at least one active flow.
  std::vector<LinkLoad> link_loads() const;

 private:
  struct Flow {
    FlowStats stats;
    CompletionFn on_complete;
    double remaining_bytes = 0.0;   // as of last_advance_s, not now
    double last_advance_s = 0.0;    // when remaining_bytes was last settled
    double rate_bps = 0.0;   // current allocation, bytes/sec
    double cap_bps = 0.0;    // per-flow ceiling, bytes/sec
    bool activated = false;  // false while in modelled slow start
    bool frozen = false;     // scratch during a fill: rate is final
    sim::EventId activation_event;
    // Position of this flow's entry in each route link's flow list
    // (parallel to stats.route.links); maintained while activated.
    std::vector<std::uint32_t> link_pos;
  };

  static constexpr std::uint32_t kNotQueued = 0xffffffffu;

  /// One dense storage cell; `id == 0` marks a free slot. Slots are reused
  /// LIFO, so slot assignment is deterministic for a given event history.
  /// While the flow has a finite finish time the slot sits in finish_heap_
  /// at `heap_pos`, keyed by `finish_s`; otherwise `heap_pos == kNotQueued`.
  struct Slot {
    FlowId id = 0;
    std::uint32_t mark = 0;  // component-BFS visitation epoch
    std::uint32_t heap_pos = kNotQueued;
    double finish_s = 0.0;   // absolute finish time (valid while queued)
    Flow flow;
  };

  /// Per-link dense state, indexed by LinkId. `flows` lists every activated
  /// flow crossing the link (one entry per route occurrence); `remaining_bps`
  /// retains the headroom left by the last water-fill that touched the link.
  struct LinkFlowRef {
    std::uint32_t slot = 0;
    std::uint32_t route_idx = 0;  // index into that flow's route.links
  };
  struct LinkState {
    double remaining_bps = 0.0;
    std::int32_t active = 0;  // scratch during a fill round
    std::uint32_t mark = 0;   // component-BFS visitation epoch
    std::vector<LinkFlowRef> flows;
  };

  // Settles `flow`'s byte progress up to now, charging `rate_bps` (its rate
  // since last_advance_s). Called only when the rate changes or the flow
  // leaves — never per event.
  void advance_flow(Flow& flow, double rate_bps) const;

  // remaining_bytes as of now, without mutating (for const queries).
  double live_remaining(const Flow& flow) const;

  // Re-keys `slot`'s finish time from its current rate/remaining, in place:
  // inserts or sifts the slot when the finish is finite, erases it from the
  // heap otherwise (e.g. a flow frozen at rate 0).
  void push_finish(std::uint32_t slot);

  // Indexed-heap primitives over finish_heap_: heap_fix restores the heap
  // order around `pos` after its key changed (sifting up or down, updating
  // every moved slot's heap_pos); heap_erase removes `slot` if queued.
  void heap_fix(std::size_t pos);
  void heap_erase(std::uint32_t slot);

  // Points completion_event_ at the heap's minimum finish time,
  // cancelling/rescheduling only when that minimum changed.
  void resync_completion_event();

  // Inserts/removes an activated flow into/from its links' flow lists.
  void attach_to_links(std::uint32_t slot);
  void detach_from_links(std::uint32_t slot);

  // Collects the connected component reachable from `seed_slot`, appending
  // its flows (plus their pre-fill rates) and links to the batch arrays
  // (epoch-marked; callers bumped epoch_ and push the component offsets).
  void collect_component(std::uint32_t seed_slot);

  // Max-min water-fill over batch component `comp` only, using `unfrozen`
  // as scratch. Returns rounds. Pure per component: in sharded mode it
  // runs on a pool worker and touches only this component's slots_/links_
  // entries (disjoint across components by construction) — never the
  // simulator, the finish heap, or obs.
  std::uint64_t fill_component(std::size_t comp,
                               std::vector<std::uint32_t>& unfrozen);

  // Water-fills the components reachable from `seeds` (incremental mode) or
  // every component (full mode / force_full) in three phases — serial
  // collect into the batch, per-component fill (parallel when sharded),
  // serial merge in collection order; flows whose rate changed are settled
  // and re-keyed in the finish heap, then the completion event is resynced
  // to the new heap minimum.
  void reallocate_and_reschedule(const std::vector<std::uint32_t>& seeds,
                                 bool force_full = false);

  // Seed helper: every activated flow currently sharing a link with `route`.
  std::vector<std::uint32_t> flows_on_links(const Route& route) const;

  // Completes/fails `flow` (already removed from slots) and fires callback.
  void finish(Flow flow, FlowOutcome outcome);

  void on_completion_event();

  // Removes the slot from storage (and adjacency if activated); returns the
  // flow by value. Does not reallocate.
  Flow extract_flow(std::uint32_t slot);

  std::uint32_t slot_of(FlowId id) const;  // UINT32_MAX when unknown

  sim::Simulator* simulator_;
  Topology* topo_;
  RouteTable* routes_;
  double base_rtt_s_ = 0.003;
  AllocMode alloc_mode_ = AllocMode::kIncremental;
  int shard_workers_ = 1;
  // Private fill pool for kSharded (lazy; sized to shard_workers_).
  std::unique_ptr<util::ThreadPool> shard_pool_;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<FlowId, std::uint32_t> slot_index_;
  std::size_t live_flows_ = 0;
  std::vector<LinkState> links_;
  std::uint32_t epoch_ = 0;

  // Fill batch, rebuilt by every reallocation (buffers retained across
  // events): the dirty components in collection order. Component c owns
  // flows[flow_begin[c], flow_begin[c+1]) and links[link_begin[c],
  // link_begin[c+1]); prev_rates parallels flows; rounds[c] is written by
  // the (possibly parallel) fill and read back by the serial merge.
  std::vector<std::uint32_t> batch_flows_;
  std::vector<LinkId> batch_links_;
  std::vector<double> batch_prev_rates_;  // pre-fill rates, ∥ batch_flows_
  std::vector<std::size_t> batch_flow_begin_;
  std::vector<std::size_t> batch_link_begin_;
  std::vector<std::uint64_t> batch_rounds_;
  // Serial-path scratch (parallel fills use per-thread scratch instead).
  std::vector<std::uint32_t> bfs_stack_;
  std::vector<std::uint32_t> unfrozen_;

  FlowId next_flow_id_ = 1;
  // Indexed binary min-heap of slots keyed by Slot::finish_s: exactly the
  // live flows with a finite finish time, each once (Slot::heap_pos).
  std::vector<std::uint32_t> finish_heap_;
  // Finish time completion_event_ targets; infinity when none is scheduled.
  sim::Time scheduled_finish_ = sim::kTimeInfinity;
  sim::EventId completion_event_;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t submitted_bytes_ = 0;
  double finished_moved_bytes_ = 0.0;
  std::uint64_t realloc_skipped_ = 0;

  // obs handles (null when recording is disabled at construction).
  obs::Counter* obs_flows_started_ = nullptr;
  obs::Counter* obs_flows_completed_ = nullptr;
  obs::Counter* obs_flows_failed_ = nullptr;
  obs::Counter* obs_flows_policer_capped_ = nullptr;
  obs::Counter* obs_realloc_rounds_ = nullptr;
  obs::Counter* obs_realloc_components_ = nullptr;
  obs::Counter* obs_realloc_skipped_ = nullptr;
  obs::Histogram* obs_flow_duration_ = nullptr;
  obs::Histogram* obs_link_utilization_ = nullptr;
  // Shard-boundary diagnostics, recorded in *every* mode from the batch
  // structure alone (identical across modes and worker counts, so metrics
  // CSVs stay byte-identical between single-threaded and sharded runs).
  obs::Counter* obs_shard_batches_ = nullptr;
  obs::Counter* obs_shard_fills_ = nullptr;
  obs::Gauge* obs_shard_batch_components_ = nullptr;
  obs::Histogram* obs_shard_imbalance_ = nullptr;
};

}  // namespace droute::net
