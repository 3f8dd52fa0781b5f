#include "check/fabric_audit.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace droute::check {

namespace {
std::string describe_link(const net::Fabric::LinkLoad& load) {
  std::ostringstream out;
  out << "link " << load.link << " (" << load.allocated_mbps << " of "
      << load.capacity_mbps << " Mbps across " << load.flows << " flow(s))";
  return out.str();
}
}  // namespace

util::Status audit_link_loads(const std::vector<net::Fabric::LinkLoad>& loads,
                              double relative_slack) {
  for (const net::Fabric::LinkLoad& load : loads) {
    if (load.link == net::kInvalidLink) {
      return util::Status::failure("link load entry with invalid link id");
    }
    if (load.allocated_mbps < 0.0) {
      return util::Status::failure("negative allocation on " +
                                   describe_link(load));
    }
    if (load.capacity_mbps <= 0.0) {
      return util::Status::failure("non-positive capacity on " +
                                   describe_link(load));
    }
    if (load.flows <= 0) {
      return util::Status::failure("loaded link carries no flows: " +
                                   describe_link(load));
    }
    const double limit = load.capacity_mbps * (1.0 + relative_slack);
    if (load.allocated_mbps > limit) {
      return util::Status::failure("capacity exceeded on " +
                                   describe_link(load));
    }
  }
  return util::Status::success();
}

util::Status audit_flow_conservation(const net::Fabric& fabric) {
  // Half a byte per flow absorbs the fluid-model completion tolerance.
  const double slack =
      0.5 * static_cast<double>(fabric.active_flow_count() + 1);
  const double submitted = static_cast<double>(fabric.submitted_bytes());
  if (fabric.moved_bytes() > submitted + slack) {
    std::ostringstream out;
    out << "flow conservation violated: moved " << fabric.moved_bytes()
        << " bytes but only " << submitted << " were submitted";
    return util::Status::failure(out.str());
  }
  if (static_cast<double>(fabric.delivered_bytes()) > submitted) {
    std::ostringstream out;
    out << "delivered " << fabric.delivered_bytes()
        << " bytes exceed submitted " << submitted;
    return util::Status::failure(out.str());
  }
  return util::Status::success();
}

util::Status audit_finish_order(
    const std::vector<net::Fabric::ClassFinish>& classes) {
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const net::Fabric::ClassFinish& entry = classes[i];
    double least = std::numeric_limits<double>::infinity();
    for (const auto& [id, finish_s] : entry.members) {
      least = std::min(least, finish_s);
    }
    if (entry.queued && (!std::isfinite(entry.head_finish_s) ||
                         entry.head_finish_s != least)) {
      std::ostringstream out;
      out << "finish order: queued class " << i << " keyed at "
          << entry.head_finish_s << " but its earliest member finishes at "
          << least;
      return util::Status::failure(out.str());
    }
    if (!entry.queued && std::isfinite(least)) {
      std::ostringstream out;
      out << "finish order: unqueued class " << i
          << " has a member finishing at " << least;
      return util::Status::failure(out.str());
    }
  }
  return util::Status::success();
}

util::Status audit_fabric(const net::Fabric& fabric, double relative_slack) {
  if (auto status = audit_link_loads(fabric.link_loads(), relative_slack);
      !status.ok()) {
    return status;
  }
  if (auto status = audit_flow_conservation(fabric); !status.ok()) {
    return status;
  }
  return audit_finish_order(fabric.finish_order());
}

}  // namespace droute::check
