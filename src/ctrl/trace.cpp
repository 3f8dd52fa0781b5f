#include "ctrl/trace.h"

#include <string_view>

#include "util/fmt.h"

namespace droute::ctrl {

namespace {
constexpr char kHeader[] = "# droute ctrl trace v1";

std::string fd(double value) { return util::format_double(value); }
}  // namespace

void DecisionTrace::note_epoch(std::uint64_t epoch, double at_s,
                               int probes_launched,
                               std::uint64_t budget_spent_bytes) {
  lines_.push_back("epoch " + std::to_string(epoch) + " at=" + fd(at_s) +
                   " probes=" + std::to_string(probes_launched) +
                   " budget_spent=" + std::to_string(budget_spent_bytes));
}

void DecisionTrace::note_probe(net::NodeId client, const PathSpec& path,
                               bool ok, double mbps, double elapsed_s,
                               std::uint64_t epoch) {
  lines_.push_back("probe client=" + std::to_string(client) + " path=" +
                   path.label() + (ok ? " ok" : " fail") + " mbps=" +
                   fd(mbps) + " elapsed=" + fd(elapsed_s) + " epoch=" +
                   std::to_string(epoch));
}

std::string DecisionTrace::tiv_line_prefix(net::NodeId client,
                                           net::NodeId provider,
                                           const PathSpec& path,
                                           double path_mbps,
                                           double direct_mbps) {
  return "tiv client=" + std::to_string(client) + " provider=" +
         std::to_string(provider) + " path=" + path.label() + " path_mbps=" +
         fd(path_mbps) + " direct_mbps=" + fd(direct_mbps) + " epoch=";
}

void DecisionTrace::note_tiv(const std::string& prefix, std::uint64_t epoch) {
  lines_.push_back(prefix + std::to_string(epoch));
}

void DecisionTrace::note_steer(net::NodeId client, std::uint64_t bytes,
                               const Decision& decision) {
  lines_.push_back(
      "steer client=" + std::to_string(client) + " bytes=" +
      std::to_string(bytes) + " path=" + decision.path.label() + " epoch=" +
      std::to_string(decision.epoch) + " at=" + fd(decision.at_s) +
      " expected_mbps=" + fd(decision.expected_mbps) + " benefit_usd=" +
      fd(decision.benefit_usd) + (decision.routable ? "" : " unroutable") +
      (decision.switched ? " switched" : "") + " reason=\"" +
      decision.reason + "\"");
}

void DecisionTrace::note_session(net::NodeId client, const PathSpec& path,
                                 bool success, double mbps,
                                 double elapsed_s) {
  lines_.push_back("session client=" + std::to_string(client) + " path=" +
                   path.label() + (success ? " ok" : " fail") + " mbps=" +
                   fd(mbps) + " elapsed=" + fd(elapsed_s));
}

void DecisionTrace::note_event(double at_s, const std::string& what) {
  lines_.push_back("event at=" + fd(at_s) + " " + what);
}

std::string DecisionTrace::serialize() const {
  std::string out = kHeader;
  out += '\n';
  for (const std::string& line : lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

std::uint64_t DecisionTrace::fnv1a() const {
  // Hashes the bytes serialize() would produce, in place: the header, then
  // each line followed by '\n'.
  std::uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](std::string_view text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
  };
  mix(kHeader);
  mix("\n");
  for (const std::string& line : lines_) {
    mix(line);
    mix("\n");
  }
  return hash;
}

}  // namespace droute::ctrl
