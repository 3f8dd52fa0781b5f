// chaos_cases: chaos::random_case(seed_i) then chaos::run_case, one case at
// a time, over case seeds derive_seed(seed, i). An op is one case,
// generation included. Every RunReport must be ok().
//
// Case cost is heavy tailed (p50 ~0.07 ms, p99 ~20 ms). A window of fresh
// cases draws different content into every chunk, so its best chunk would be
// the one that drew the fewest expensive cases, and which one that is varies
// with the seed. The timed window instead replays the pool of the seed's
// first kPoolCases cases, one pass per chunk: every pass is the same work, so
// passes differ only in how fast the host ran, and each must reproduce the
// first pass's outcome digest. The pool is large enough that its total cost
// differs little from seed to seed (README.md).
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "net/routing.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace chaos = droute::chaos;

constexpr std::uint64_t kWarmupCases = 20;
/// Cases in the pool the timed window replays, and in the outcome digest.
/// peak_rss_mb is set by the pool's most memory-hungry case, so the pool
/// must be large for that maximum to repeat from seed to seed: over 2000
/// cases it spread by 20% across seeds 1-10.
constexpr std::uint64_t kPoolCases = 4000;
/// Host seconds of one pass over the pool (one chunk) on the tuning machine.
constexpr double kNominalChunkS = 6.5;

struct ChaosProbe {
  Tally random_case;
  Tally run_case;
  Tally cold_route;
};

/// Resolves every route the case's work items will ask for on a table of
/// its own, so the cold routing cost shows in the trace. run_case builds
/// its own tables, so its routing work is unchanged.
void resolve_routes(const chaos::Case& c, ChaosProbe& probe) {
  auto topo = c.topology.build();
  if (!topo.ok()) return;  // run_case reports unbuildable topologies
  droute::net::RouteTable routes(&topo.value());
  auto resolve = [&](int a, int b) {
    LayerSpan span("routing.cold_route", probe.cold_route);
    const auto route = routes.route(a, b);
    (void)route;
  };
  for (const chaos::WorkItem& item : c.work) {
    switch (item.kind) {
      case chaos::WorkKind::kRsyncPush:
        resolve(item.client, item.via);
        break;
      case chaos::WorkKind::kDetour:
      case chaos::WorkKind::kDetourPipelined:
        resolve(item.client, item.via);
        resolve(item.via, c.server_node);
        break;
      default:
        resolve(item.client, c.server_node);
    }
  }
}

/// Runs the cases of one pass over the pool and digests their outcomes.
class CaseRunner {
 public:
  CaseRunner(std::uint64_t seed, ChaosProbe* probe)
      : seed_(seed), probe_(probe) {}

  /// Runs case `index`; records its outcome and digest, and its host time
  /// in `window` when there is one.
  void run(std::uint64_t index, Result& result, Window* window) {
    const std::uint64_t case_seed = derive_seed(seed_, index);
    const double start = host_now_s();
    const chaos::RunReport report = [&] {
      if (probe_ == nullptr) return chaos::run_case(chaos::random_case(case_seed));
      chaos::Case c;
      {
        LayerSpan span("chaos.random_case", probe_->random_case);
        c = chaos::random_case(case_seed);
      }
      resolve_routes(c, *probe_);
      LayerSpan span("chaos.run_case", probe_->run_case);
      return chaos::run_case(c);
    }();
    const double ms = (host_now_s() - start) * 1e3;
    if (report.ok()) {
      if (window != nullptr) window->add_op(ms);
    } else {
      result.fail_check("case seed " + std::to_string(case_seed) +
                        " violated " + report.violated + ": " + report.detail);
    }
    result.ops.add(1, report.ok() ? 0 : 1);
    digest_.add(report.digest);
  }

  std::uint64_t digest() const { return digest_.value; }

 private:
  std::uint64_t seed_;
  ChaosProbe* probe_;
  Digest digest_;
};

/// Runs one pass over the pool; returns cases per host second.
double run_pass(CaseRunner& runner, Result& result, Window* window) {
  const double start = host_now_s();
  for (std::uint64_t i = 0; i < kPoolCases; ++i) runner.run(i, result, window);
  return static_cast<double>(kPoolCases) / (host_now_s() - start);
}

/// Set-up: kWarmupCases cases from a fixed seed, so allocator and lazy
/// statics are warm before timing and set-up cost does not depend on the
/// workload seed.
double setup_once() {
  const double start = host_now_s();
  for (std::uint64_t i = 0; i < kWarmupCases; ++i) {
    const chaos::RunReport warm =
        chaos::run_case(chaos::random_case(derive_seed(0, i)));
    (void)warm;
  }
  return host_now_s() - start;
}

}  // namespace

Result run_chaos_cases(const Options& options) {
  Result result;
  result.digest_ops = kPoolCases;
  if (!options.trace) {
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRepeats; ++i) {
      pin_to_cpu(static_cast<std::size_t>(i));
      setup_s.push_back(setup_once());
    }
    Window window(window_chunks(options.seconds, kNominalChunkS), true);
    for (std::uint64_t pass = 0;; ++pass) {
      CaseRunner runner(options.seed, nullptr);
      (void)run_pass(runner, result, &window);
      if (result.digest && *result.digest != runner.digest()) {
        result.fail_check("pass " + std::to_string(pass) +
                          " changed the outcome digest");
      }
      result.digest = runner.digest();
      if (window.boundary()) break;
    }
    set_end_to_end(result, setup_s, window.figures());
    return result;
  }

  // Traced run: one untraced pass over the pool, then one traced pass.
  (void)setup_once();
  CaseRunner untraced(options.seed, nullptr);
  const double untraced_ops_per_s = run_pass(untraced, result, nullptr);
  result.digest = untraced.digest();

  droute::obs::Recorder recorder;
  droute::obs::ScopedRecorder installed(&recorder);
  ChaosProbe probe;
  CaseRunner traced(options.seed, &probe);
  const double traced_ops_per_s = run_pass(traced, result, nullptr);
  if (traced.digest() != *result.digest) {
    result.fail_check("the traced pass changed the outcome digest");
  }
  const double ops = static_cast<double>(kPoolCases);

  std::map<std::string, double> layer;
  read_program_counters(recorder, ops, layer);
  layer["chaos.random_case_us"] = probe.random_case.mean_us();
  layer["chaos.run_case_ms"] = probe.run_case.mean_ms();
  layer["routing.cold_routes"] = static_cast<double>(probe.cold_route.calls);
  layer["routing.cold_route_us"] = probe.cold_route.mean_us();
  write_chrome_trace(recorder, options, result);
  result.info["traced_ops"] = ops;
  finish_traced(result, untraced_ops_per_s, traced_ops_per_s, std::move(layer));
  return result;
}

}  // namespace perfbench
