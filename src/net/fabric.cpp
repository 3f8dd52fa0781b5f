#include "net/fabric.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "check/contract.h"
#include "obs/recorder.h"
#include "util/logging.h"
#include "util/units.h"

namespace droute::net {

namespace {
// Completion tolerance: half a byte absorbs fluid-model rounding.
constexpr double kByteEps = 0.5;
constexpr double kRateEps = 1e-6;  // bytes/sec
// Added to propagation in every model RTT: host stacks and serialization.
constexpr double kBaseRttS = 0.003;

// Parked (emptied) route classes are released once they outnumber both the
// live classes and this floor, so class memory stays within a small factor
// of the live classes while a closed loop that re-creates a class right
// after it empties finds it parked.
constexpr std::size_t kMinParkedClasses = 64;

// class_index_ key of a route class: its route links and the bits of its cap.
std::uint64_t class_key(const std::vector<LinkId>& links, double cap_bps) {
  std::uint64_t key = std::bit_cast<std::uint64_t>(cap_bps);
  for (const LinkId lid : links) {
    key = (key ^ static_cast<std::uint32_t>(lid)) * 0x100000001b3ull;
  }
  return key ^ (key >> 31);
}

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
  obs_realloc_classes_ = obs::counter("net.realloc_classes_total");
  obs_realloc_class_flows_ = obs::counter("net.realloc_class_flows_total");
  obs_realloc_skipped_ = obs::counter("net.realloc_skipped_total");
  obs_flow_duration_ =
      obs::histogram("net.flow_duration_s", obs::duration_bounds_s());
  obs_link_utilization_ =
      obs::histogram("net.link_utilization_ratio", obs::ratio_bounds());
  // Link ids are dense topology indices; size the per-link table up front
  // so attach never regrows it mid-simulation (late-added links still grow
  // it lazily).
  links_.resize(topo_->link_count());
}

util::Result<double> Fabric::rtt_s(NodeId a, NodeId b) const {
  const auto& forward = routes_->route(a, b);
  if (!forward.ok()) return util::Error{forward.error()};
  const auto& back = routes_->route(b, a);
  if (!back.ok()) return util::Error{back.error()};
  return routes_->one_way_delay_s(forward.value()) +
         routes_->one_way_delay_s(back.value()) + kBaseRttS;
}

std::uint32_t Fabric::slot_of(FlowId id) const {
  static_assert(util::FlatIdMap::kAbsent == kNoSlot);
  return slot_index_.find(id);
}

util::Result<FlowId> Fabric::start_flow(NodeId src, NodeId dst,
                                        std::uint64_t bytes,
                                        CompletionFn on_complete,
                                        FlowOptions options) {
  if (bytes == 0) return util::Error::make("start_flow: zero-byte flow");
  const auto& route = routes_->route(src, dst);
  if (!route.ok()) return util::Error{route.error()};
  const auto rtt = rtt_s(src, dst);
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
  cell.finish_s = std::numeric_limits<double>::infinity();
  Flow& flow = cell.flow;
  flow.stats = FlowStats{};
  flow.stats.id = id;
  flow.stats.src = src;
  flow.stats.dst = dst;
  flow.stats.bytes = bytes;
  flow.stats.start_time = simulator_->now();
  flow.stats.rtt_s = rtt.value();
  flow.stats.cap_mbps = cap_mbps;
  flow.stats.route = &route.value();
  flow.on_complete = std::move(on_complete);
  flow.remaining_bytes = static_cast<double>(bytes);
  flow.last_advance_s = simulator_->now();
  flow.rate_bps = 0.0;
  flow.cap_bps = util::mbps_to_bytes_per_sec(cap_mbps);
  flow.activated = false;
  flow.activation_event = sim::EventId{};
  flow.cls = kNoClass;

  slot_index_.insert(id, slot);
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
      activate(s);
    });
    // The pending flow consumes nothing until activation: no component is
    // dirtied, no completion can move.
  } else {
    activate(slot);
  }
  return id;
}

void Fabric::activate(std::uint32_t slot) {
  slots_[slot].flow.activated = true;
  join_class(slot);
  seeds_.assign(1, slots_[slot].flow.cls);
  reallocate_and_reschedule(seeds_, /*force_full=*/false, /*joiner=*/slot);
}

void Fabric::abort_flow(FlowId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot == kNoSlot) return;
  Flow& live = slots_[slot].flow;
  advance_flow(live, live.rate_bps);
  seeds_.clear();
  if (live.activated) seed_classes_on(live.stats.route->links);
  Flow flow = extract_flow(slot);
  if (flow.activation_event.valid()) simulator_->cancel(flow.activation_event);
  reallocate_and_reschedule(seeds_);
  finish(std::move(flow), FlowOutcome::kAborted);
}

void Fabric::fail_link(LinkId link) {
  const auto status = topo_->set_link_enabled(link, false);
  DROUTE_CHECK(status.ok(), "fail_link: unknown link");
  routes_->invalidate();
  leaving_.clear();
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].id == 0) continue;
    const auto& links = slots_[slot].flow.stats.route->links;
    if (std::find(links.begin(), links.end(), link) != links.end()) {
      leaving_.emplace_back(slots_[slot].id, slot);
    }
  }
  std::sort(leaving_.begin(), leaving_.end());
  // Survivors sharing a link with any victim get more headroom; collect
  // their classes as dirty seeds before the victims leave the link lists.
  seeds_.clear();
  for (const auto& [vid, vslot] : leaving_) {
    if (slots_[vslot].flow.activated) {
      seed_classes_on(slots_[vslot].flow.stats.route->links);
    }
  }
  std::vector<Flow> failed = std::move(finishing_);
  failed.clear();
  for (const auto& [vid, vslot] : leaving_) {
    advance_flow(slots_[vslot].flow, slots_[vslot].flow.rate_bps);
    Flow flow = extract_flow(vslot);
    if (flow.activation_event.valid()) {
      simulator_->cancel(flow.activation_event);
    }
    failed.push_back(std::move(flow));
  }
  reallocate_and_reschedule(seeds_);
  for (auto& flow : failed) finish(std::move(flow), FlowOutcome::kLinkFailed);
  failed.clear();
  finishing_ = std::move(failed);
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
    for (LinkId lid : flow.stats.route->links) {
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

std::vector<Fabric::ClassFinish> Fabric::finish_order() const {
  std::vector<ClassFinish> order;
  order.reserve(live_classes_ + 1);
  for (std::uint32_t cls = 0; cls < classes_.size(); ++cls) {
    const RouteClass& route_class = classes_[cls];
    if (route_class.members.empty()) continue;
    ClassFinish& entry = order.emplace_back();
    entry.queued = finish_heap_.contains(cls);
    entry.head_finish_s = route_class.head_finish_s;
    for (const std::uint32_t slot : route_class.members) {
      entry.members.emplace_back(slots_[slot].id, slots_[slot].finish_s);
    }
  }
  ClassFinish& pending = order.emplace_back();
  pending.head_finish_s = std::numeric_limits<double>::infinity();
  for (const Slot& cell : slots_) {
    if (cell.id != 0 && !cell.flow.activated) {
      pending.members.emplace_back(cell.id, cell.finish_s);
    }
  }
  return order;
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
  cell.finish_s = finish_s;
}

void Fabric::clear_head(RouteClass& route_class) {
  route_class.head = kNoSlot;
  route_class.head_finish_s = std::numeric_limits<double>::infinity();
}

bool Fabric::offer_head(RouteClass& route_class, std::uint32_t slot) {
  if (slots_[slot].finish_s >= route_class.head_finish_s) return false;
  route_class.head = slot;
  route_class.head_finish_s = slots_[slot].finish_s;
  return true;
}

void Fabric::rekey_class(std::uint32_t cls) {
  if (std::isfinite(classes_[cls].head_finish_s)) {
    finish_heap_.update(cls);
  } else if (!finish_heap_.erase(cls)) {
    return;
  }
  ++finish_rekeys_;
}

void Fabric::resync_completion_event() {
  const sim::Time want = finish_heap_.empty()
                             ? sim::kTimeInfinity
                             : classes_[finish_heap_.top()].head_finish_s;
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

void Fabric::join_class(std::uint32_t slot) {
  Flow& flow = slots_[slot].flow;
  const std::vector<LinkId>& links = flow.stats.route->links;
  const std::uint64_t key = class_key(links, flow.cap_bps);
  std::uint32_t cls = kNoClass;
  if (const auto head = class_index_.find(key); head != class_index_.end()) {
    for (cls = head->second; cls != kNoClass;
         cls = classes_[cls].next_same_key) {
      const RouteClass& other = classes_[cls];
      if (other.cap_bps == flow.cap_bps && other.links == links) break;
    }
  }
  if (cls == kNoClass) {
    if (!free_classes_.empty()) {
      cls = free_classes_.back();
      free_classes_.pop_back();
    } else {
      cls = static_cast<std::uint32_t>(classes_.size());
      classes_.emplace_back();
    }
    RouteClass& fresh = classes_[cls];
    fresh.links.assign(links.begin(), links.end());
    fresh.cap_bps = flow.cap_bps;
    fresh.rate_bps = 0.0;
    fresh.indexed = true;
    const auto [head, inserted] = class_index_.try_emplace(key, cls);
    fresh.next_same_key = inserted ? kNoClass : head->second;
    head->second = cls;
    attach_class(cls);
    ++live_classes_;
  } else if (classes_[cls].members.empty()) {
    attach_class(cls);  // a parked class comes back
    --parked_classes_;
    ++live_classes_;
  }
  RouteClass& joined = classes_[cls];
  flow.cls = cls;
  flow.member_pos = static_cast<std::uint32_t>(joined.members.size());
  joined.members.push_back(slot);
  for (const LinkId lid : joined.links) ++links_[lid].flows;
}

void Fabric::leave_class(std::uint32_t slot) {
  Flow& flow = slots_[slot].flow;
  const std::uint32_t cls = flow.cls;
  RouteClass& left = classes_[cls];
  auto& members = left.members;
  const std::uint32_t pos = flow.member_pos;
  DROUTE_CHECK(pos < members.size() && members[pos] == slot,
               "class membership out of sync");
  for (const LinkId lid : left.links) --links_[lid].flows;
  members[pos] = members.back();
  members.pop_back();
  if (pos < members.size()) slots_[members[pos]].flow.member_pos = pos;
  flow.cls = kNoClass;
  if (left.head == slot) {
    clear_head(left);
    for (const std::uint32_t member : members) offer_head(left, member);
    rekey_class(cls);
  }
  if (!members.empty()) return;
  // Class ids are reused LIFO, so an emptied class must hold no heap entry
  // by now: its head left last.
  DROUTE_DCHECK(!finish_heap_.contains(cls), "emptied class still queued");
  detach_class(cls);
  --live_classes_;
  ++parked_classes_;
  release_parked_classes();
}

void Fabric::attach_class(std::uint32_t cls) {
  RouteClass& route_class = classes_[cls];
  const auto& route_links = route_class.links;
  route_class.link_pos.resize(route_links.size());
  for (std::uint32_t i = 0; i < route_links.size(); ++i) {
    const LinkId lid = route_links[i];
    if (static_cast<std::size_t>(lid) >= links_.size()) {
      links_.resize(static_cast<std::size_t>(lid) + 1);
    }
    route_class.link_pos[i] =
        static_cast<std::uint32_t>(links_[lid].classes.size());
    links_[lid].classes.push_back(ClassRef{cls, i});
  }
}

void Fabric::detach_class(std::uint32_t cls) {
  const RouteClass& route_class = classes_[cls];
  const auto& route_links = route_class.links;
  for (std::uint32_t i = 0; i < route_links.size(); ++i) {
    auto& refs = links_[route_links[i]].classes;
    const std::uint32_t pos = route_class.link_pos[i];
    DROUTE_CHECK(pos < refs.size() && refs[pos].cls == cls &&
                     refs[pos].route_idx == i,
                 "link adjacency out of sync");
    refs[pos] = refs.back();
    refs.pop_back();
    if (pos < refs.size()) {
      const ClassRef moved = refs[pos];
      classes_[moved.cls].link_pos[moved.route_idx] = pos;
    }
  }
}

void Fabric::release_parked_classes() {
  if (parked_classes_ <= std::max(kMinParkedClasses, live_classes_)) return;
  for (std::uint32_t cls = 0; cls < classes_.size(); ++cls) {
    RouteClass& parked = classes_[cls];
    if (!parked.indexed || !parked.members.empty()) continue;
    const auto head =
        class_index_.find(class_key(parked.links, parked.cap_bps));
    if (head->second == cls) {
      if (parked.next_same_key == kNoClass) {
        class_index_.erase(head);
      } else {
        head->second = parked.next_same_key;
      }
    } else {
      std::uint32_t prev = head->second;
      while (classes_[prev].next_same_key != cls) {
        prev = classes_[prev].next_same_key;
      }
      classes_[prev].next_same_key = parked.next_same_key;
    }
    parked.indexed = false;
    parked.next_same_key = kNoClass;
    free_classes_.push_back(cls);
  }
  parked_classes_ = 0;
}

Fabric::Flow Fabric::extract_flow(std::uint32_t slot) {
  Slot& cell = slots_[slot];
  DROUTE_CHECK(cell.id != 0, "extract of a free slot");
  if (cell.flow.activated) leave_class(slot);
  cell.finish_s = std::numeric_limits<double>::infinity();
  slot_index_.erase(cell.id);
  cell.id = 0;
  --live_flows_;
  free_slots_.push_back(slot);
  return std::move(cell.flow);
}

void Fabric::seed_classes_on(const std::vector<LinkId>& links) {
  for (const LinkId lid : links) {
    for (const ClassRef& ref : links_[lid].classes) seeds_.push_back(ref.cls);
  }
}

void Fabric::settle(std::uint32_t slot, double rate_bps) {
  Flow& flow = slots_[slot].flow;
  if (flow.rate_bps == rate_bps) return;
  advance_flow(flow, flow.rate_bps);
  flow.rate_bps = rate_bps;
  push_finish(slot);
}

void Fabric::collect_component(std::uint32_t seed_class) {
  batch_classes_.clear();
  batch_links_.clear();
  batch_prev_rates_.clear();
  bfs_stack_.clear();
  classes_[seed_class].mark = epoch_;
  bfs_stack_.push_back(seed_class);
  while (!bfs_stack_.empty()) {
    const std::uint32_t cls = bfs_stack_.back();
    bfs_stack_.pop_back();
    const RouteClass& route_class = classes_[cls];
    batch_classes_.push_back(cls);
    batch_prev_rates_.push_back(route_class.rate_bps);
    for (const LinkId lid : route_class.links) {
      LinkState& link = links_[lid];
      if (link.mark == epoch_) continue;
      link.mark = epoch_;
      batch_links_.push_back(lid);
      for (const ClassRef& ref : link.classes) {
        RouteClass& other = classes_[ref.cls];
        if (other.mark == epoch_) continue;
        other.mark = epoch_;
        bfs_stack_.push_back(ref.cls);
      }
    }
  }
}

std::uint64_t Fabric::fill_component() {
  // --- Progressive filling (water-filling) with per-flow caps. ---
  // Invariants on exit (checked by tests): no link over capacity, no flow
  // over its cap, and every unfrozen flow is blocked by a saturated link.
  //
  // The arithmetic below must stay a pure function of this component's
  // flows and links: the incremental/full-recompute equivalence (DESIGN.md
  // §12) rests on unchanged components reproducing their retained rates
  // bit-for-bit. Min-reductions are exact and all updates are per-entry, so
  // iteration order cannot perturb the result.
  //
  // It runs over route classes: every member of a class has the same links
  // and cap, so all of them freeze in the same round at the same level. A
  // link's `active` starts at its flow count and a freeze subtracts the
  // class's member count, so every count, and hence every rate, is the one
  // a per-flow fill computes.
  for (const LinkId lid : batch_links_) {
    links_[lid].remaining_bps =
        util::mbps_to_bytes_per_sec(topo_->link(lid).capacity_mbps);
    links_[lid].active = links_[lid].flows;
  }
  // Every unfrozen flow receives the same `+= delta` sequence from 0.0, so
  // all of them share one rate, `level`, and a class's rate is written once,
  // as the level at which it freezes. The per-flow cap bound
  // min(cap - level) equals min(cap) - level exactly (rounding is
  // monotone), so each round needs only the smallest unfrozen cap.
  unfrozen_.clear();
  double min_cap = std::numeric_limits<double>::infinity();
  for (const std::uint32_t cls : batch_classes_) {
    RouteClass& route_class = classes_[cls];
    route_class.frozen = false;
    min_cap = std::min(min_cap, route_class.cap_bps);
    unfrozen_.push_back(cls);
  }
  double level = 0.0;
  const auto freeze = [this, &level](RouteClass& route_class) {
    route_class.frozen = true;
    route_class.rate_bps = level;
    const auto count = static_cast<std::int32_t>(route_class.members.size());
    for (const LinkId lid : route_class.links) links_[lid].active -= count;
  };
  std::uint64_t rounds = 0;
  while (!unfrozen_.empty()) {
    ++rounds;
    double delta = min_cap - level;
    for (const LinkId lid : batch_links_) {
      const LinkState& link = links_[lid];
      if (link.active > 0) {
        delta = std::min(delta, link.remaining_bps / link.active);
      }
    }
    delta = std::max(delta, 0.0);

    level += delta;
    for (const LinkId lid : batch_links_) {
      LinkState& link = links_[lid];
      link.remaining_bps -= delta * link.active;
    }

    // Freeze every class crossing a link that saturated this round (an
    // unfrozen class keeps its links' `active` > 0, so links saturated in
    // earlier rounds have nothing left to freeze)...
    for (const LinkId lid : batch_links_) {
      const LinkState& link = links_[lid];
      if (link.active <= 0 || link.remaining_bps > kRateEps) continue;
      for (const ClassRef& ref : link.classes) {
        RouteClass& route_class = classes_[ref.cls];
        if (!route_class.frozen) freeze(route_class);
      }
    }
    // ...then every class at its cap, keeping the rest for the next round.
    std::size_t kept = 0;
    min_cap = std::numeric_limits<double>::infinity();
    for (const std::uint32_t cls : unfrozen_) {
      RouteClass& route_class = classes_[cls];
      if (!route_class.frozen && level >= route_class.cap_bps - kRateEps) {
        freeze(route_class);
      }
      if (route_class.frozen) continue;
      min_cap = std::min(min_cap, route_class.cap_bps);
      unfrozen_[kept++] = cls;
    }
    DROUTE_CHECK(kept < unfrozen_.size() || delta > 0.0,
                 "allocation failed to make progress");
    unfrozen_.resize(kept);
  }
  return rounds;
}

void Fabric::reallocate_and_reschedule(const std::vector<std::uint32_t>& seeds,
                                       bool force_full, std::uint32_t joiner) {
  ++epoch_;
  if (epoch_ == 0) {
    // uint32 wrap: stale marks could alias the new epoch; reset them all.
    for (RouteClass& route_class : classes_) route_class.mark = 0;
    for (LinkState& link : links_) link.mark = 0;
    epoch_ = 1;
  }

  // One component at a time, in a deterministic order (dense class ids in
  // full mode, caller-provided seed order otherwise): collect it, water-fill
  // it, then settle byte progress and re-key the finish heap for exactly the
  // flows whose rate changed bitwise. An unchanged component reproduces its
  // retained rates exactly, so both modes take the same advance/re-key
  // actions — the invariant the equivalence suite pins down. Components are
  // disjoint, so filling one never touches another's pre-fill rates.
  std::uint64_t rounds = 0;
  std::uint64_t components = 0;
  std::uint64_t classes = 0;
  std::uint64_t class_flows = 0;
  const auto refill = [&](std::uint32_t seed) {
    const RouteClass& seed_class = classes_[seed];
    if (seed_class.members.empty() || seed_class.mark == epoch_) return;
    collect_component(seed);
    rounds += fill_component();
    ++components;
    classes += batch_classes_.size();
    for (std::size_t i = 0; i < batch_classes_.size(); ++i) {
      const std::uint32_t cls = batch_classes_[i];
      RouteClass& route_class = classes_[cls];
      class_flows += route_class.members.size();
      if (route_class.rate_bps == batch_prev_rates_[i]) continue;
      const double old_head_finish_s = route_class.head_finish_s;
      clear_head(route_class);
      for (const std::uint32_t slot : route_class.members) {
        settle(slot, route_class.rate_bps);
        offer_head(route_class, slot);
      }
      if (route_class.head_finish_s != old_head_finish_s) rekey_class(cls);
    }
    if (obs_link_utilization_ != nullptr) {
      for (const LinkId lid : batch_links_) {
        const double capacity_bps =
            util::mbps_to_bytes_per_sec(topo_->link(lid).capacity_mbps);
        if (capacity_bps <= 0.0) continue;
        obs_link_utilization_->observe(
            std::max(0.0, 1.0 - links_[lid].remaining_bps / capacity_bps));
      }
    }
  };
  if (force_full || alloc_mode_ == AllocMode::kFullRecompute) {
    for (std::uint32_t cls = 0; cls < classes_.size(); ++cls) refill(cls);
  } else {
    for (const std::uint32_t cls : seeds) refill(cls);
  }
  // A flow that joined a class whose rate did not move still holds its
  // pre-activation rate 0: the member walk above skipped it.
  if (joiner != kNoSlot) {
    const std::uint32_t cls = slots_[joiner].flow.cls;
    RouteClass& route_class = classes_[cls];
    settle(joiner, route_class.rate_bps);
    if (offer_head(route_class, joiner)) rekey_class(cls);
  }
  obs::add(obs_realloc_rounds_, rounds);
  obs::add(obs_realloc_components_, components);
  obs::add(obs_realloc_classes_, classes);
  obs::add(obs_realloc_class_flows_, class_flows);

  resync_completion_event();
}

void Fabric::on_completion_event() {
  completion_event_ = sim::EventId{};
  scheduled_finish_ = sim::kTimeInfinity;
  const sim::Time now = simulator_->now();
  leaving_.clear();
  // Every class whose head is due: one pass settles each member due by now
  // and recomputes the head, then the class is re-keyed strictly later (or
  // leaves the heap), so the loop moves on to the next due class.
  while (!finish_heap_.empty()) {
    const std::uint32_t cls = finish_heap_.top();
    RouteClass& route_class = classes_[cls];
    if (route_class.head_finish_s > now) break;
    clear_head(route_class);
    for (const std::uint32_t slot : route_class.members) {
      Slot& cell = slots_[slot];
      if (cell.finish_s <= now) {
        Flow& flow = cell.flow;
        advance_flow(flow, flow.rate_bps);
        if (drained(flow.remaining_bytes, flow.rate_bps)) {
          leaving_.emplace_back(cell.id, slot);
          cell.finish_s = std::numeric_limits<double>::infinity();
          continue;
        }
        // Residue not quite drained (fp rounding): re-key strictly later.
        // The nanosecond term in drained() keeps the new finish > now while
        // the clock resolves a nanosecond; past 2^24 s it can round back to
        // now, and the next representable instant drains the residue.
        push_finish(slot);
        if (cell.finish_s <= now) {
          cell.finish_s =
              std::nextafter(now, std::numeric_limits<double>::infinity());
        }
      }
      offer_head(route_class, slot);
    }
    rekey_class(cls);
  }
  // Completions at one instant fire in FlowId order, whatever order the
  // classes came due in.
  std::sort(leaving_.begin(), leaving_.end());
  // Survivors that shared a link with a completing flow must be refilled;
  // gather their classes before the completions leave them.
  seeds_.clear();
  for (const auto& [id, slot] : leaving_) {
    seed_classes_on(slots_[slot].flow.stats.route->links);
  }
  std::vector<Flow> done = std::move(finishing_);
  done.clear();
  for (const auto& [id, slot] : leaving_) {
    done.push_back(extract_flow(slot));
  }
  reallocate_and_reschedule(seeds_);
  for (auto& flow : done) {
    delivered_bytes_ += flow.stats.bytes;
    finish(std::move(flow), FlowOutcome::kCompleted);
  }
  done.clear();
  finishing_ = std::move(done);
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
