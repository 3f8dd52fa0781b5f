// Runtime auditor for net::Fabric conservation invariants.
//
// The fabric is an event-driven fluid simulation; its correctness reduces to
// two conservation laws that must hold at every instant:
//   * capacity: the sum of allocated flow rates on any link never exceeds
//     the link's capacity (max-min fairness shares, it never oversubscribes),
//   * flow conservation: bytes only move while a flow is active, so the
//     total moved never exceeds the total submitted, and delivered bytes
//     (completed payloads) never exceed submitted bytes either.
//
// A third check covers the completion schedule rather than a law: every
// queued route class is keyed by the least finish among its members, and no
// flow outside the queue has a finite finish, so the next completion the
// fabric schedules is the earliest one.
//
// Auditors return util::Status so tests can assert on the exact violation;
// `audit_fabric` composes all three against a live fabric. The link-load and
// finish-order overloads take plain snapshots so tests can inject a
// corrupted state and prove the auditor rejects it.
#pragma once

#include <vector>

#include "net/fabric.h"
#include "util/result.h"

namespace droute::check {

/// Relative headroom tolerated on a link before the audit fails. Water-
/// filling accumulates one rounding step per freeze round; 1e-6 relative
/// slack absorbs that without masking real oversubscription.
inline constexpr double kCapacitySlack = 1e-6;

/// Checks every link-load snapshot entry for: non-negative allocation, a
/// positive capacity, at least one flow on any loaded link, and allocation
/// within capacity (plus relative slack).
[[nodiscard]]
util::Status audit_link_loads(const std::vector<net::Fabric::LinkLoad>& loads,
                              double relative_slack = kCapacitySlack);

/// Checks the byte ledger of a live fabric: moved <= submitted and
/// delivered <= submitted (both with sub-byte fluid rounding slack).
[[nodiscard]] util::Status audit_flow_conservation(const net::Fabric& fabric);

/// Checks a finish-order snapshot (net::Fabric::finish_order()): a queued
/// class's head_finish_s is finite and equals the least of its members'
/// finish times, and every member of an unqueued class has an infinite one.
[[nodiscard]] util::Status audit_finish_order(
    const std::vector<net::Fabric::ClassFinish>& classes);

/// Full audit of a live fabric: link capacities, byte conservation and the
/// finish order.
[[nodiscard]] util::Status audit_fabric(
    const net::Fabric& fabric, double relative_slack = kCapacitySlack);

}  // namespace droute::check
