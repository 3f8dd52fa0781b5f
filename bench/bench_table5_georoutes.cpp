// Table V: geographical summary of the fastest routes per client — the
// route the full campaign recommends for every (client, provider) pair,
// sorted by client then provider, with the paper's captions.
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "common.h"
#include "core/advisor.h"
#include "util/units.h"

int main() {
  using namespace droute;
  std::printf("=== Table V: geographic summary of fastest routes ===\n\n");

  std::map<std::pair<std::string, std::string>, std::string> rows;
  for (const auto client : scenario::all_clients()) {
    for (const auto provider : cloud::all_providers()) {
      const auto series = bench::measure_figure(
          client, provider, {100 * util::kMB});
      std::vector<core::RouteStats> stats;
      for (const auto& s : series) {
        core::RouteStats rs;
        rs.key = scenario::route_name(s.route);
        rs.summary = s.by_size.at(100 * util::kMB).kept;
        rs.is_direct = s.route == scenario::RouteChoice::kDirect;
        stats.push_back(rs);
      }
      const auto recommendation = core::RouteAdvisor().recommend(stats);
      const std::string client_label = scenario::client_name(client);
      const std::string provider_label = cloud::provider_name(provider);
      std::ostringstream row;
      row << client_label << " -> " << provider_label << " : "
          << recommendation.route_key << " (expected "
          << recommendation.expected_s << " s"
          << (recommendation.confidence == core::Confidence::kClear
                  ? ""
                  : ", overlapping bars")
          << ")\n";
      rows[{client_label, provider_label}] = row.str();
    }
  }
  for (const auto& [key, row] : rows) std::printf("%s", row.c_str());
  std::printf("\n");
  std::printf(
      "Paper's Table V captions:\n"
      "  UBC   : Google Drive detours via UAlberta (dashed); Dropbox and\n"
      "          OneDrive go direct (solid).\n"
      "  Purdue: Google Drive via UAlberta or UMich; Dropbox and OneDrive\n"
      "          direct.\n"
      "  UCLA  : everything direct.\n");
  return 0;
}
