#include "net/fabric.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "check/contract.h"
#include "obs/recorder.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace droute::net {

namespace {
// Completion tolerance: half a byte absorbs fluid-model rounding.
constexpr double kByteEps = 0.5;
constexpr double kRateEps = 1e-6;  // bytes/sec

constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

// A flow counts as finished once its residue would drain within a
// nanosecond: scheduling an event that close to `now` can round to exactly
// `now` in double precision, which would otherwise livelock the event loop
// (time stops advancing while the residue never shrinks).
bool drained(double remaining_bytes, double rate_bps) {
  return remaining_bytes <= kByteEps + rate_bps * 1e-9;
}
}  // namespace

Fabric::Fabric(sim::Simulator* simulator, Topology* topo, RouteTable* routes)
    : simulator_(simulator), topo_(topo), routes_(routes) {
  DROUTE_CHECK(simulator_ && topo_ && routes_, "Fabric: null dependency");
  obs_flows_started_ = obs::counter("net.flows_started_total");
  obs_flows_completed_ = obs::counter("net.flows_completed_total");
  obs_flows_failed_ = obs::counter("net.flows_failed_total");
  obs_flows_policer_capped_ = obs::counter("net.flows_policer_capped_total");
  obs_realloc_rounds_ = obs::counter("net.realloc_rounds_total");
  obs_realloc_components_ = obs::counter("net.realloc_components_total");
  obs_realloc_skipped_ = obs::counter("net.realloc_skipped_total");
  obs_flow_duration_ =
      obs::histogram("net.flow_duration_s", obs::duration_bounds_s());
  obs_link_utilization_ =
      obs::histogram("net.link_utilization_ratio", obs::ratio_bounds());
  obs_shard_batches_ = obs::counter("net.shard_batches_total");
  obs_shard_fills_ = obs::counter("net.shard_fills_total");
  obs_shard_batch_components_ = obs::gauge("net.shard_batch_components");
  obs_shard_imbalance_ =
      obs::histogram("net.shard_imbalance_ratio", obs::log_ratio_bounds());
  if (const char* env = std::getenv("DROUTE_SHARD_WORKERS")) {
    const int workers = std::atoi(env);
    if (workers >= 1) {
      alloc_mode_ = AllocMode::kSharded;
      shard_workers_ = workers;
    }
  }
  // Link ids are dense topology indices; size the per-link table up front
  // so attach never regrows it mid-simulation (late-added links still grow
  // it lazily).
  links_.resize(topo_->link_count());
}

Fabric::~Fabric() = default;

void Fabric::set_shard_workers(int workers) {
  DROUTE_CHECK(workers >= 1, "shard workers must be >= 1");
  if (workers != shard_workers_) shard_pool_.reset();
  shard_workers_ = workers;
}

util::Result<double> Fabric::rtt_s(NodeId a, NodeId b) const {
  auto forward = routes_->route(a, b);
  if (!forward.ok()) return util::Error{forward.error()};
  auto back = routes_->route(b, a);
  if (!back.ok()) return util::Error{back.error()};
  return routes_->one_way_delay_s(forward.value()) +
         routes_->one_way_delay_s(back.value()) + base_rtt_s_;
}

std::uint32_t Fabric::slot_of(FlowId id) const {
  const auto it = slot_index_.find(id);
  return it == slot_index_.end() ? kNoSlot : it->second;
}

util::Result<FlowId> Fabric::start_flow(NodeId src, NodeId dst,
                                        std::uint64_t bytes,
                                        CompletionFn on_complete,
                                        FlowOptions options) {
  if (bytes == 0) return util::Error::make("start_flow: zero-byte flow");
  auto route = routes_->route(src, dst);
  if (!route.ok()) return util::Error{route.error()};
  auto rtt = rtt_s(src, dst);
  if (!rtt.ok()) return util::Error{rtt.error()};

  const double loss = routes_->path_loss(route.value());
  const double policer = routes_->min_policer_mbps(route.value());
  const double middlebox = routes_->min_middlebox_mbps(route.value());
  double cap_mbps = flow_cap_mbps(rtt.value(), loss, policer, middlebox,
                                  options.tcp);
  if (options.app_cap_mbps > 0.0) {
    cap_mbps = std::min(cap_mbps, options.app_cap_mbps);
  }
  // A flow can never exceed its narrowest link even alone.
  cap_mbps = std::min(cap_mbps,
                      routes_->bottleneck_capacity_mbps(route.value()));
  DROUTE_CHECK(cap_mbps > 0.0, "flow cap must be positive");
  obs::add(obs_flows_started_);
  if (policer > 0.0 && cap_mbps >= policer - 1e-9) {
    // The route's policer is the binding ceiling — the "dropped to the
    // policed rate" signal operators look for first.
    obs::add(obs_flows_policer_capped_);
  }

  const FlowId id = next_flow_id_++;

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& cell = slots_[slot];
  DROUTE_CHECK(cell.id == 0, "slot reuse of a live flow");
  cell.id = id;
  Flow& flow = cell.flow;
  flow.stats = FlowStats{};
  flow.stats.id = id;
  flow.stats.src = src;
  flow.stats.dst = dst;
  flow.stats.bytes = bytes;
  flow.stats.start_time = simulator_->now();
  flow.stats.rtt_s = rtt.value();
  flow.stats.cap_mbps = cap_mbps;
  flow.stats.route = std::move(route).value();
  flow.on_complete = std::move(on_complete);
  flow.remaining_bytes = static_cast<double>(bytes);
  flow.last_advance_s = simulator_->now();
  flow.rate_bps = 0.0;
  flow.cap_bps = util::mbps_to_bytes_per_sec(cap_mbps);
  flow.activated = false;
  flow.activation_event = sim::EventId{};
  flow.link_pos.clear();

  slot_index_.emplace(id, slot);
  ++live_flows_;
  submitted_bytes_ += bytes;

  const double ss_delay =
      options.charge_slow_start
          ? slow_start_delay_s(rtt.value(), cap_mbps, options.tcp)
          : 0.0;
  if (ss_delay > 0.0) {
    flow.activation_event = simulator_->schedule_in(ss_delay, [this, id] {
      const std::uint32_t s = slot_of(id);
      if (s == kNoSlot) return;  // aborted during slow start
      slots_[s].flow.activated = true;
      attach_to_links(s);
      reallocate_and_reschedule({s});
    });
    // The pending flow consumes nothing until activation: no component is
    // dirtied, no completion can move.
  } else {
    flow.activated = true;
    attach_to_links(slot);
    reallocate_and_reschedule({slot});
  }
  return id;
}

void Fabric::abort_flow(FlowId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) return;
  advance_flow(slots_[slot].flow, slots_[slot].flow.rate_bps);
  std::vector<std::uint32_t> seeds;
  if (slots_[slot].flow.activated) {
    seeds = flows_on_links(slots_[slot].flow.stats.route);
  }
  Flow flow = extract_flow(slot);
  if (flow.activation_event.valid()) simulator_->cancel(flow.activation_event);
  reallocate_and_reschedule(seeds);
  finish(std::move(flow), FlowOutcome::kAborted);
}

void Fabric::fail_link(LinkId link) {
  const auto status = topo_->set_link_enabled(link, false);
  DROUTE_CHECK(status.ok(), "fail_link: unknown link");
  routes_->invalidate();
  std::vector<std::pair<FlowId, std::uint32_t>> victims;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].id == 0) continue;
    const auto& links = slots_[slot].flow.stats.route.links;
    if (std::find(links.begin(), links.end(), link) != links.end()) {
      victims.emplace_back(slots_[slot].id, slot);
    }
  }
  std::sort(victims.begin(), victims.end());
  // Survivors sharing a link with any victim get more headroom; collect
  // them as dirty seeds before the victims leave the adjacency lists.
  std::vector<std::uint32_t> seeds;
  for (const auto& [vid, vslot] : victims) {
    if (!slots_[vslot].flow.activated) continue;
    for (const LinkId lid : slots_[vslot].flow.stats.route.links) {
      for (const LinkFlowRef& ref : links_[lid].flows) seeds.push_back(ref.slot);
    }
  }
  std::vector<Flow> failed;
  failed.reserve(victims.size());
  for (const auto& [vid, vslot] : victims) {
    advance_flow(slots_[vslot].flow, slots_[vslot].flow.rate_bps);
    Flow flow = extract_flow(vslot);
    if (flow.activation_event.valid()) {
      simulator_->cancel(flow.activation_event);
    }
    failed.push_back(std::move(flow));
  }
  reallocate_and_reschedule(seeds);
  for (auto& flow : failed) finish(std::move(flow), FlowOutcome::kLinkFailed);
}

void Fabric::restore_link(LinkId link) {
  const auto status = topo_->set_link_enabled(link, true);
  DROUTE_CHECK(status.ok(), "restore_link: unknown link");
  routes_->invalidate();
  // In-flight flows keep their routes, so no allocation input changed — the
  // restored link carries no flows (they all failed with it). Only new
  // flows see it, via the invalidated route tables.
  reallocate_and_reschedule({});
}

void Fabric::reallocate_now() {
  if (live_flows_ == 0) {
    // Nothing allocated and nothing scheduled (a pending completion implies
    // a live flow): the recompute would be a pure no-op. Policer/capacity
    // rewrite hooks hit this constantly between campaign runs.
    ++realloc_skipped_;
    obs::add(obs_realloc_skipped_);
    return;
  }
  // The caller mutated the topology out-of-band (capacity/policer rewrite);
  // the fabric cannot see which links changed, so every component is dirty.
  reallocate_and_reschedule({}, /*force_full=*/true);
}

double Fabric::current_rate_mbps(FlowId id) const {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) return 0.0;
  return util::bytes_per_sec_to_mbps(slots_[slot].flow.rate_bps);
}

double Fabric::moved_bytes() const {
  double moved = finished_moved_bytes_;
  for (const Slot& cell : slots_) {
    if (cell.id == 0) continue;
    moved += static_cast<double>(cell.flow.stats.bytes) -
             live_remaining(cell.flow);
  }
  return moved;
}

std::vector<Fabric::LinkLoad> Fabric::link_loads() const {
  // Accumulate in flow-id order (stable, matches the historical std::map
  // walk) so per-link sums are reproducible run to run.
  std::vector<std::pair<FlowId, std::uint32_t>> order;
  order.reserve(live_flows_);
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].id != 0) order.emplace_back(slots_[slot].id, slot);
  }
  std::sort(order.begin(), order.end());
  std::map<LinkId, LinkLoad> loads;
  for (const auto& [id, slot] : order) {
    const Flow& flow = slots_[slot].flow;
    if (!flow.activated) continue;
    for (LinkId lid : flow.stats.route.links) {
      LinkLoad& load = loads[lid];
      load.link = lid;
      load.capacity_mbps = topo_->link(lid).capacity_mbps;
      load.allocated_mbps += util::bytes_per_sec_to_mbps(flow.rate_bps);
      ++load.flows;
    }
  }
  std::vector<LinkLoad> out;
  out.reserve(loads.size());
  for (const auto& [lid, load] : loads) out.push_back(load);
  return out;
}

void Fabric::advance_flow(Flow& flow, double rate_bps) const {
  const sim::Time now = simulator_->now();
  const double dt = now - flow.last_advance_s;
  DROUTE_CHECK(dt >= -1e-12, "fabric clock went backwards");
  if (dt > 0.0) {
    flow.remaining_bytes =
        std::max(0.0, flow.remaining_bytes - rate_bps * dt);
  }
  flow.last_advance_s = now;
}

double Fabric::live_remaining(const Flow& flow) const {
  const double dt = simulator_->now() - flow.last_advance_s;
  if (dt <= 0.0) return flow.remaining_bytes;
  return std::max(0.0, flow.remaining_bytes - flow.rate_bps * dt);
}

void Fabric::push_finish(std::uint32_t slot) {
  Slot& cell = slots_[slot];
  const Flow& flow = cell.flow;
  DROUTE_CHECK(flow.last_advance_s == simulator_->now(),
               "finish keyed from a stale remaining");
  double finish_s = std::numeric_limits<double>::infinity();
  if (flow.rate_bps > kRateEps) {
    finish_s = simulator_->now() +
               std::max(0.0, flow.remaining_bytes - kByteEps) / flow.rate_bps;
  } else if (flow.activated && drained(flow.remaining_bytes, 0.0)) {
    finish_s = simulator_->now();  // already done, just needs the event
  }
  if (!std::isfinite(finish_s)) {
    heap_erase(slot);
    return;
  }
  cell.finish_s = finish_s;
  if (cell.heap_pos == kNotQueued) {
    cell.heap_pos = static_cast<std::uint32_t>(finish_heap_.size());
    finish_heap_.push_back(slot);
  }
  heap_fix(cell.heap_pos);
}

void Fabric::heap_fix(std::size_t pos) {
  const std::uint32_t slot = finish_heap_[pos];
  const double key = slots_[slot].finish_s;
  const auto place = [this](std::size_t at, std::uint32_t s) {
    finish_heap_[at] = s;
    slots_[s].heap_pos = static_cast<std::uint32_t>(at);
  };
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (slots_[finish_heap_[parent]].finish_s <= key) break;
    place(pos, finish_heap_[parent]);
    pos = parent;
  }
  // A slot that moved up already keys no later than its new children; only
  // a slot that stayed put can need to sink.
  const std::size_t size = finish_heap_.size();
  for (std::size_t child = 2 * pos + 1; child < size; child = 2 * pos + 1) {
    if (child + 1 < size && slots_[finish_heap_[child + 1]].finish_s <
                                slots_[finish_heap_[child]].finish_s) {
      ++child;
    }
    if (slots_[finish_heap_[child]].finish_s >= key) break;
    place(pos, finish_heap_[child]);
    pos = child;
  }
  place(pos, slot);
}

void Fabric::heap_erase(std::uint32_t slot) {
  const std::uint32_t pos = slots_[slot].heap_pos;
  if (pos == kNotQueued) return;
  slots_[slot].heap_pos = kNotQueued;
  const std::uint32_t last = finish_heap_.back();
  finish_heap_.pop_back();
  if (pos == finish_heap_.size()) return;  // erased the last entry
  finish_heap_[pos] = last;
  heap_fix(pos);
}

void Fabric::resync_completion_event() {
  const sim::Time want = finish_heap_.empty()
                             ? sim::kTimeInfinity
                             : slots_[finish_heap_.front()].finish_s;
  if (want == scheduled_finish_) return;
  if (completion_event_.valid()) {
    simulator_->cancel(completion_event_);
    completion_event_ = sim::EventId{};
  }
  scheduled_finish_ = want;
  if (std::isfinite(want)) {
    completion_event_ =
        simulator_->schedule_at(want, [this] { on_completion_event(); });
  }
}

void Fabric::attach_to_links(std::uint32_t slot) {
  Flow& flow = slots_[slot].flow;
  const auto& route_links = flow.stats.route.links;
  flow.link_pos.resize(route_links.size());
  for (std::uint32_t i = 0; i < route_links.size(); ++i) {
    const LinkId lid = route_links[i];
    if (static_cast<std::size_t>(lid) >= links_.size()) {
      links_.resize(static_cast<std::size_t>(lid) + 1);
    }
    flow.link_pos[i] = static_cast<std::uint32_t>(links_[lid].flows.size());
    links_[lid].flows.push_back(LinkFlowRef{slot, i});
  }
}

void Fabric::detach_from_links(std::uint32_t slot) {
  Flow& flow = slots_[slot].flow;
  const auto& route_links = flow.stats.route.links;
  for (std::uint32_t i = 0; i < route_links.size(); ++i) {
    auto& refs = links_[route_links[i]].flows;
    const std::uint32_t pos = flow.link_pos[i];
    DROUTE_CHECK(pos < refs.size() && refs[pos].slot == slot &&
                     refs[pos].route_idx == i,
                 "link adjacency out of sync");
    refs[pos] = refs.back();
    refs.pop_back();
    if (pos < refs.size()) {
      const LinkFlowRef moved = refs[pos];
      slots_[moved.slot].flow.link_pos[moved.route_idx] = pos;
    }
  }
  flow.link_pos.clear();
}

Fabric::Flow Fabric::extract_flow(std::uint32_t slot) {
  Slot& cell = slots_[slot];
  DROUTE_CHECK(cell.id != 0, "extract of a free slot");
  heap_erase(slot);
  if (cell.flow.activated) detach_from_links(slot);
  slot_index_.erase(cell.id);
  cell.id = 0;
  --live_flows_;
  free_slots_.push_back(slot);
  return std::move(cell.flow);
}

std::vector<std::uint32_t> Fabric::flows_on_links(const Route& route) const {
  std::vector<std::uint32_t> slots;
  for (const LinkId lid : route.links) {
    if (static_cast<std::size_t>(lid) >= links_.size()) continue;
    for (const LinkFlowRef& ref : links_[lid].flows) slots.push_back(ref.slot);
  }
  return slots;
}

void Fabric::collect_component(std::uint32_t seed_slot) {
  bfs_stack_.clear();
  slots_[seed_slot].mark = epoch_;
  bfs_stack_.push_back(seed_slot);
  while (!bfs_stack_.empty()) {
    const std::uint32_t slot = bfs_stack_.back();
    bfs_stack_.pop_back();
    batch_flows_.push_back(slot);
    batch_prev_rates_.push_back(slots_[slot].flow.rate_bps);
    for (const LinkId lid : slots_[slot].flow.stats.route.links) {
      LinkState& link = links_[lid];
      if (link.mark == epoch_) continue;
      link.mark = epoch_;
      batch_links_.push_back(lid);
      for (const LinkFlowRef& ref : link.flows) {
        Slot& other = slots_[ref.slot];
        if (other.mark == epoch_) continue;
        other.mark = epoch_;
        bfs_stack_.push_back(ref.slot);
      }
    }
  }
}

std::uint64_t Fabric::fill_component(std::size_t comp,
                                     std::vector<std::uint32_t>& unfrozen) {
  // --- Progressive filling (water-filling) with per-flow caps. ---
  // Invariants on exit (checked by tests): no link over capacity, no flow
  // over its cap, and every unfrozen flow is blocked by a saturated link.
  //
  // The arithmetic below must stay a pure function of this component's
  // flows and links: the incremental/full-recompute equivalence (DESIGN.md
  // §12) rests on unchanged components reproducing their retained rates
  // bit-for-bit, and the sharded mode (DESIGN.md §16) additionally runs
  // this on pool workers — it may touch only this component's slots_/links_
  // entries (disjoint across the batch by construction), read the topology,
  // and must never reach the simulator, the finish heap, obs, or any clock.
  // Min-reductions are exact and all updates are per-entry, so iteration
  // order cannot perturb the result.
  const std::size_t fbegin = batch_flow_begin_[comp];
  const std::size_t fend = batch_flow_begin_[comp + 1];
  const std::size_t lbegin = batch_link_begin_[comp];
  const std::size_t lend = batch_link_begin_[comp + 1];
  for (std::size_t l = lbegin; l < lend; ++l) {
    const LinkId lid = batch_links_[l];
    links_[lid].remaining_bps =
        util::mbps_to_bytes_per_sec(topo_->link(lid).capacity_mbps);
    links_[lid].active = static_cast<std::int32_t>(links_[lid].flows.size());
  }
  // Every unfrozen flow receives the same `+= delta` sequence from 0.0, so
  // all of them share one rate, `level`, and a flow's rate is written once,
  // as the level at which it freezes. The per-flow cap bound
  // min(cap - level) equals min(cap) - level exactly (rounding is
  // monotone), so each round needs only the smallest unfrozen cap.
  unfrozen.clear();
  double min_cap = std::numeric_limits<double>::infinity();
  for (std::size_t i = fbegin; i < fend; ++i) {
    Flow& flow = slots_[batch_flows_[i]].flow;
    flow.frozen = false;
    min_cap = std::min(min_cap, flow.cap_bps);
    unfrozen.push_back(batch_flows_[i]);
  }
  double level = 0.0;
  const auto freeze = [this, &level](Flow& flow) {
    flow.frozen = true;
    flow.rate_bps = level;
    for (const LinkId lid : flow.stats.route.links) --links_[lid].active;
  };
  std::uint64_t rounds = 0;
  while (!unfrozen.empty()) {
    ++rounds;
    double delta = min_cap - level;
    for (std::size_t l = lbegin; l < lend; ++l) {
      const LinkState& link = links_[batch_links_[l]];
      if (link.active > 0) {
        delta = std::min(delta, link.remaining_bps / link.active);
      }
    }
    delta = std::max(delta, 0.0);

    level += delta;
    for (std::size_t l = lbegin; l < lend; ++l) {
      LinkState& link = links_[batch_links_[l]];
      link.remaining_bps -= delta * link.active;
    }

    // Freeze every flow crossing a link that saturated this round (an
    // unfrozen flow keeps its links' `active` > 0, so links saturated in
    // earlier rounds have nothing left to freeze)...
    for (std::size_t l = lbegin; l < lend; ++l) {
      const LinkState& link = links_[batch_links_[l]];
      if (link.active <= 0 || link.remaining_bps > kRateEps) continue;
      for (const LinkFlowRef& ref : link.flows) {
        Flow& flow = slots_[ref.slot].flow;
        if (!flow.frozen) freeze(flow);
      }
    }
    // ...then every flow at its cap, keeping the rest for the next round.
    std::size_t kept = 0;
    min_cap = std::numeric_limits<double>::infinity();
    for (const std::uint32_t slot : unfrozen) {
      Flow& flow = slots_[slot].flow;
      if (!flow.frozen && level >= flow.cap_bps - kRateEps) freeze(flow);
      if (flow.frozen) continue;
      min_cap = std::min(min_cap, flow.cap_bps);
      unfrozen[kept++] = slot;
    }
    DROUTE_CHECK(kept < unfrozen.size() || delta > 0.0,
                 "allocation failed to make progress");
    unfrozen.resize(kept);
  }
  return rounds;
}

void Fabric::reallocate_and_reschedule(const std::vector<std::uint32_t>& seeds,
                                       bool force_full) {
  ++epoch_;
  if (epoch_ == 0) {
    // uint32 wrap: stale marks could alias the new epoch; reset them all.
    for (Slot& cell : slots_) cell.mark = 0;
    for (LinkState& link : links_) link.mark = 0;
    epoch_ = 1;
  }

  // Phase A — collect (serial, deterministic order: dense slot ids in full
  // mode, caller-provided seed order otherwise). Component membership and
  // pre-fill rates land in the batch arrays; nothing is mutated yet.
  batch_flows_.clear();
  batch_links_.clear();
  batch_prev_rates_.clear();
  batch_flow_begin_.assign(1, 0);
  batch_link_begin_.assign(1, 0);
  const auto consider = [this](std::uint32_t slot) {
    const Slot& cell = slots_[slot];
    if (cell.id == 0 || !cell.flow.activated || cell.mark == epoch_) return;
    collect_component(slot);
    batch_flow_begin_.push_back(batch_flows_.size());
    batch_link_begin_.push_back(batch_links_.size());
  };
  const bool full = force_full || alloc_mode_ == AllocMode::kFullRecompute;
  if (full) {
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) consider(slot);
  } else {
    for (const std::uint32_t slot : seeds) consider(slot);
  }
  const std::size_t components = batch_flow_begin_.size() - 1;

  // Phase B — water-fill every collected component. Each fill is a pure
  // function of its component (see fill_component), so sharded mode fans
  // the batch out to the pool; any order of execution produces bit-identical
  // rates. The simulator is guarded against worker scheduling for the whole
  // parallel window.
  batch_rounds_.assign(components, 0);
  if (alloc_mode_ == AllocMode::kSharded && shard_workers_ > 1 &&
      components > 1) {
    if (!shard_pool_ ||
        shard_pool_->thread_count() !=
            static_cast<std::size_t>(shard_workers_)) {
      shard_pool_ = std::make_unique<util::ThreadPool>(
          static_cast<std::size_t>(shard_workers_));
    }
    simulator_->begin_parallel_section();
    try {
      shard_pool_->parallel_for(components, [this](std::size_t comp) {
        thread_local std::vector<std::uint32_t> unfrozen;
        batch_rounds_[comp] = fill_component(comp, unfrozen);
      });
    } catch (...) {
      simulator_->end_parallel_section();
      throw;
    }
    simulator_->end_parallel_section();
  } else {
    for (std::size_t comp = 0; comp < components; ++comp) {
      batch_rounds_[comp] = fill_component(comp, unfrozen_);
    }
  }

  // Phase C — merge (serial, strictly in collection order): settle byte
  // progress and re-key the finish heap for exactly the flows whose rate
  // changed bitwise, then observe per-link utilization. An unchanged
  // component reproduces its retained rates exactly, so every mode takes
  // the same advance/re-key actions in the same order — the invariant the
  // equivalence suite pins down, and the reason no wall-clock or scheduling
  // order can leak into event timestamps or metrics.
  std::uint64_t rounds = 0;
  std::size_t largest_component = 0;
  for (std::size_t comp = 0; comp < components; ++comp) {
    rounds += batch_rounds_[comp];
    const std::size_t fbegin = batch_flow_begin_[comp];
    const std::size_t fend = batch_flow_begin_[comp + 1];
    largest_component = std::max(largest_component, fend - fbegin);
    for (std::size_t i = fbegin; i < fend; ++i) {
      const std::uint32_t slot = batch_flows_[i];
      Flow& flow = slots_[slot].flow;
      if (flow.rate_bps == batch_prev_rates_[i]) continue;
      advance_flow(flow, batch_prev_rates_[i]);
      push_finish(slot);
    }
    if (obs_link_utilization_ != nullptr) {
      for (std::size_t l = batch_link_begin_[comp];
           l < batch_link_begin_[comp + 1]; ++l) {
        const LinkId lid = batch_links_[l];
        const double capacity_bps =
            util::mbps_to_bytes_per_sec(topo_->link(lid).capacity_mbps);
        if (capacity_bps <= 0.0) continue;
        obs_link_utilization_->observe(
            std::max(0.0, 1.0 - links_[lid].remaining_bps / capacity_bps));
      }
    }
  }
  obs::add(obs_realloc_rounds_, rounds);
  obs::add(obs_realloc_components_, components);
  // Shard-boundary diagnostics, derived from the batch structure alone so
  // the values are identical in every mode and at every worker count.
  obs::add(obs_shard_batches_);
  obs::add(obs_shard_fills_, components);
  obs::set(obs_shard_batch_components_, static_cast<double>(components));
  if (!batch_flows_.empty()) {
    obs::observe(obs_shard_imbalance_,
                 static_cast<double>(largest_component) /
                     static_cast<double>(batch_flows_.size()));
  }

  resync_completion_event();
}

void Fabric::on_completion_event() {
  completion_event_ = sim::EventId{};
  scheduled_finish_ = sim::kTimeInfinity;
  const sim::Time now = simulator_->now();
  std::vector<std::pair<FlowId, std::uint32_t>> done_order;
  while (!finish_heap_.empty()) {
    const std::uint32_t slot = finish_heap_.front();
    if (slots_[slot].finish_s > now) break;
    heap_erase(slot);
    Flow& flow = slots_[slot].flow;
    advance_flow(flow, flow.rate_bps);
    if (drained(flow.remaining_bytes, flow.rate_bps)) {
      done_order.emplace_back(slots_[slot].id, slot);
    } else {
      // Residue not quite drained (fp rounding): re-key strictly later. The
      // nanosecond term in drained() guarantees the new finish is > now.
      push_finish(slot);
    }
  }
  std::sort(done_order.begin(), done_order.end());
  // Survivors that shared a link with a completing flow must be refilled;
  // gather them before the completions leave the adjacency lists.
  std::vector<std::uint32_t> seeds;
  for (const auto& [id, slot] : done_order) {
    for (const LinkId lid : slots_[slot].flow.stats.route.links) {
      for (const LinkFlowRef& ref : links_[lid].flows) seeds.push_back(ref.slot);
    }
  }
  std::vector<Flow> done;
  done.reserve(done_order.size());
  for (const auto& [id, slot] : done_order) {
    done.push_back(extract_flow(slot));
  }
  reallocate_and_reschedule(seeds);
  for (auto& flow : done) {
    delivered_bytes_ += flow.stats.bytes;
    finish(std::move(flow), FlowOutcome::kCompleted);
  }
}

void Fabric::finish(Flow flow, FlowOutcome outcome) {
  flow.stats.end_time = simulator_->now();
  flow.stats.outcome = outcome;
  if (outcome == FlowOutcome::kCompleted) {
    obs::add(obs_flows_completed_);
    obs::observe(obs_flow_duration_, flow.stats.duration_s());
  } else {
    obs::add(obs_flows_failed_);
  }
  finished_moved_bytes_ +=
      static_cast<double>(flow.stats.bytes) - flow.remaining_bytes;
  if (outcome == FlowOutcome::kCompleted) {
    // A completed flow moved all of its payload by definition; reconcile the
    // sub-byte fluid residue into the moved-bytes ledger.
    finished_moved_bytes_ += flow.remaining_bytes;
  }
  DROUTE_LOG(kDebug) << "flow " << flow.stats.id << " " << flow.stats.bytes
                     << "B " << topo_->node(flow.stats.src).name << "->"
                     << topo_->node(flow.stats.dst).name << " outcome="
                     << static_cast<int>(outcome) << " t="
                     << flow.stats.duration_s();
  if (flow.on_complete) flow.on_complete(flow.stats);
}

}  // namespace droute::net
