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
// Route classes (DESIGN.md §12). The water-fill reads only a flow's route
// links and its cap, so activated flows with the same (route links, cap) are
// interchangeable: the fabric groups them into one route class with a member
// count. Links list classes, not flows, and each link keeps the integer count
// of activated flows crossing it; the fill freezes whole classes and
// subtracts their member counts, so its arithmetic, and therefore every rate,
// is bit-identical to a per-flow fill. Per-event work scales with the
// distinct classes in a component, not with its flows.
//
// Allocation is *incremental*: the max-min allocation decomposes exactly over
// connected components of the class/link sharing graph, so each event
// water-fills only the component(s) reachable from the classes it dirtied;
// every other flow keeps its retained rate. Because the per-component fill is
// a deterministic function of the component's classes and links alone,
// retained rates are bit-identical to what a full recomputation would
// produce — the retained reference path (AllocMode::kFullRecompute) re-fills
// every component from scratch on every event, and the differential suite
// (tests/fabric_equivalence_test.cpp, proptest property
// `fabric_equivalence`) holds the two paths byte-equal.
//
// Each event handles its dirty components one at a time, in a deterministic
// order: collect the component's classes, water-fill them, then merge (settle
// byte progress and re-key completions for the members whose rate changed).
// A class's members are visited only when the class rate changed bitwise; a
// flow that just joined a class whose rate did not move is settled on its
// own. A parallel fill was measured and removed (DESIGN.md §12): an event
// dirties less than one component on average, so there is nothing to fan
// out.
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
// consumes no bandwidth (conservative for short flows, negligible for bulk);
// a flow joins its route class when it activates.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/routing.h"
#include "net/tcp_model.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "util/indexed_heap.h"
#include "util/result.h"

namespace droute::obs {
class Counter;
class Histogram;
}  // namespace droute::obs

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
  ///                   the test oracle the differential suite compares the
  ///                   incremental path against, byte for byte.
  enum class AllocMode { kIncremental, kFullRecompute };

  Fabric(sim::Simulator* simulator, Topology* topo, RouteTable* routes);

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
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kNoClass = 0xffffffffu;

  struct Flow {
    FlowStats stats;
    CompletionFn on_complete;
    double remaining_bytes = 0.0;   // as of last_advance_s, not now
    double last_advance_s = 0.0;    // when remaining_bytes was last settled
    double rate_bps = 0.0;   // current allocation, bytes/sec
    double cap_bps = 0.0;    // per-flow ceiling, bytes/sec
    bool activated = false;  // false while in modelled slow start
    sim::EventId activation_event;
    // Route class and index in its `members` while activated.
    std::uint32_t cls = kNoClass;
    std::uint32_t member_pos = 0;
  };

  /// One dense storage cell; `id == 0` marks a free slot. Slots are reused
  /// LIFO, so slot assignment is deterministic for a given event history.
  /// While the flow has a finite finish time the slot is queued in
  /// finish_heap_, keyed by `finish_s`.
  struct Slot {
    FlowId id = 0;
    double finish_s = 0.0;   // absolute finish time (valid while queued)
    Flow flow;
  };

  // Orders finish_heap_ by Slot::finish_s.
  struct FinishLess {
    const std::vector<Slot>* slots;
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      return (*slots)[a].finish_s < (*slots)[b].finish_s;
    }
  };

  /// The activated flows that share one (route links, cap_bps): the unit the
  /// fill, the component BFS and the link lists work in. A class is live
  /// while it has members and is then listed on every link of its route (one
  /// entry per route occurrence, `link_pos` ∥ `links`). An emptied class is
  /// parked: detached from its links but still indexed, so the next flow of
  /// the same (route, cap) reuses it, vectors and all. Ids are dense and
  /// reused LIFO once parked classes are released.
  struct RouteClass {
    std::vector<LinkId> links;           // the members' route.links
    double cap_bps = 0.0;                // the members' cap_bps
    double rate_bps = 0.0;               // rate of the last fill
    std::uint32_t next_same_key = kNoClass;  // class_index_ chain
    std::uint32_t mark = 0;              // component-BFS visitation epoch
    bool frozen = false;                 // scratch during a fill: rate final
    bool indexed = false;                // live or parked (not released)
    std::vector<std::uint32_t> members;  // slots
    std::vector<std::uint32_t> link_pos;  // entry in each link's `classes`
  };

  /// Per-link dense state, indexed by LinkId. `classes` lists every live
  /// class crossing the link, and `flows` counts their members (per route
  /// occurrence); `remaining_bps` retains the headroom left by the last
  /// water-fill that touched the link.
  struct ClassRef {
    std::uint32_t cls = 0;
    std::uint32_t route_idx = 0;  // index into that class's links
  };
  struct LinkState {
    double remaining_bps = 0.0;
    std::int32_t flows = 0;   // activated flows crossing the link
    std::int32_t active = 0;  // scratch during a fill: unfrozen flows
    std::uint32_t mark = 0;   // component-BFS visitation epoch
    std::vector<ClassRef> classes;
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

  // Points completion_event_ at the heap's minimum finish time,
  // cancelling/rescheduling only when that minimum changed.
  void resync_completion_event();

  // Activates the pending flow in `slot`: joins its route class and refills
  // the class's component, settling the flow itself as the joiner.
  void activate(std::uint32_t slot);

  // Adds the activated flow in `slot` to the class of its (route, cap),
  // reusing a parked class or creating one; removes it again, parking the
  // class once it empties.
  void join_class(std::uint32_t slot);
  void leave_class(std::uint32_t slot);

  // Lists a class on / removes it from every link of its route.
  void attach_class(std::uint32_t cls);
  void detach_class(std::uint32_t cls);

  // Releases every parked class once they outnumber the live ones (and a
  // small floor): unindexed, its id back on the free list, its vectors kept.
  void release_parked_classes();

  // Appends every live class crossing `links` to seeds_.
  void seed_classes_on(const std::vector<LinkId>& links);

  // Settles `slot` onto `rate_bps` if its rate differs bitwise: byte
  // progress at the old rate, then the new rate and its finish time.
  void settle(std::uint32_t slot, double rate_bps);

  // Replaces the batch with the connected component reachable from
  // `seed_class`: its classes (plus their pre-fill rates) and links
  // (epoch-marked; the caller bumped epoch_).
  void collect_component(std::uint32_t seed_class);

  // Max-min water-fill over the batch component only. Returns rounds.
  std::uint64_t fill_component();

  // Water-fills the components reachable from the classes in `seeds`
  // (incremental mode) or every component (full mode / force_full), one at
  // a time in collection order: collect, fill, then settle the members of
  // every class whose rate changed. `joiner`, a flow that just joined its
  // class, is settled too even when its class rate did not move. Finally
  // resyncs the completion event to the new heap minimum.
  void reallocate_and_reschedule(const std::vector<std::uint32_t>& seeds,
                                 bool force_full = false,
                                 std::uint32_t joiner = kNoSlot);

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

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<FlowId, std::uint32_t> slot_index_;
  std::size_t live_flows_ = 0;
  std::vector<LinkState> links_;
  std::uint32_t epoch_ = 0;

  // Route classes by dense id. class_index_ maps class_key() to the first
  // class of that key (further ones chain through next_same_key); it is
  // only ever looked up, never iterated.
  std::vector<RouteClass> classes_;
  std::vector<std::uint32_t> free_classes_;
  std::unordered_map<std::uint64_t, std::uint32_t> class_index_;
  std::size_t live_classes_ = 0;
  std::size_t parked_classes_ = 0;

  // The component being refilled, rebuilt by collect_component (buffers
  // retained across events).
  std::vector<std::uint32_t> batch_classes_;
  std::vector<LinkId> batch_links_;
  std::vector<double> batch_prev_rates_;  // pre-fill rates, ∥ batch_classes_
  // Dirty classes of the current event, and collect/fill scratch.
  std::vector<std::uint32_t> seeds_;
  std::vector<std::uint32_t> bfs_stack_;
  std::vector<std::uint32_t> unfrozen_;

  FlowId next_flow_id_ = 1;
  // Slots keyed by Slot::finish_s: exactly the live flows with a finite
  // finish time, each once.
  util::IndexedHeap<FinishLess> finish_heap_{FinishLess{&slots_}};
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
  obs::Counter* obs_realloc_classes_ = nullptr;
  obs::Counter* obs_realloc_class_flows_ = nullptr;
  obs::Counter* obs_realloc_skipped_ = nullptr;
  obs::Histogram* obs_flow_duration_ = nullptr;
  obs::Histogram* obs_link_utilization_ = nullptr;
};

}  // namespace droute::net
