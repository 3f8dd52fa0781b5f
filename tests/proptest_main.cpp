// proptest — property-based scenario fuzzer over droute::chaos.
//
// Modes:
//   proptest --seed N --iters K        run K random cases from seeds N..N+K-1
//   proptest ... --selfcheck           run every case twice, require
//                                      byte-identical outcome digests
//   proptest --replay FILE...          replay committed .case files; every
//                                      property must hold (regression corpus)
//
// On a violated property the failing case is minimized (chaos::shrink) and
// written to --out-dir (default ".") as proptest-<seed>.case with `# seed:`
// and `# violated:` provenance headers; exit status 1. Fully deterministic:
// the same command line always produces the same verdicts and digests.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/case_io.h"
#include "chaos/scenario.h"
#include "chaos/shrink.h"

namespace {

using droute::chaos::Case;
using droute::chaos::RunReport;

struct Options {
  std::uint64_t seed = 1;
  int iters = 50;
  bool selfcheck = false;
  std::string out_dir = ".";
  std::vector<std::string> replay_files;
  std::size_t shrink_attempts = 300;
  droute::chaos::CaseSpec spec;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--iters K] [--selfcheck]\n"
               "          [--out-dir DIR] [--shrink-attempts N]\n"
               "          [--max-events N] [--max-work N] [--max-ases N]\n"
               "          [--replay FILE...]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      options->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--iters") {
      const char* v = next();
      if (v == nullptr) return false;
      options->iters = std::atoi(v);
    } else if (arg == "--selfcheck") {
      options->selfcheck = true;
    } else if (arg == "--out-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      options->out_dir = v;
    } else if (arg == "--shrink-attempts") {
      const char* v = next();
      if (v == nullptr) return false;
      options->shrink_attempts =
          static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--max-events") {
      const char* v = next();
      if (v == nullptr) return false;
      options->spec.max_chaos_events = std::atoi(v);
    } else if (arg == "--max-work") {
      const char* v = next();
      if (v == nullptr) return false;
      options->spec.max_work = std::atoi(v);
    } else if (arg == "--max-ases") {
      const char* v = next();
      if (v == nullptr) return false;
      options->spec.topology.max_ases = std::atoi(v);
    } else if (arg == "--replay") {
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        options->replay_files.emplace_back(argv[++i]);
      }
      if (options->replay_files.empty()) return false;
    } else {
      return false;
    }
  }
  return true;
}

int replay(const Options& options) {
  int failures = 0;
  for (const std::string& path : options.replay_files) {
    auto loaded = droute::chaos::load_case_file(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                   loaded.error().message.c_str());
      ++failures;
      continue;
    }
    const RunReport report = droute::chaos::run_case(loaded.value());
    if (report.ok()) {
      // fabric_equivalence: the incremental allocator must reproduce the
      // full-recompute reference digest on every corpus case, forever.
      const RunReport reference = droute::chaos::run_case(
          loaded.value(), droute::chaos::RunOptions{.full_recompute = true});
      if (reference.digest != report.digest) {
        std::fprintf(stderr,
                     "FAIL %s: property 'fabric_equivalence' violated: "
                     "incremental digest %016llx != full-recompute %016llx\n",
                     path.c_str(),
                     static_cast<unsigned long long>(report.digest),
                     static_cast<unsigned long long>(reference.digest));
        ++failures;
        continue;
      }
      std::printf("ok   %s digest=%016llx\n", path.c_str(),
                  static_cast<unsigned long long>(report.digest));
    } else {
      std::fprintf(stderr, "FAIL %s: property '%s' violated: %s\n",
                   path.c_str(), report.violated.c_str(),
                   report.detail.c_str());
      ++failures;
    }
  }
  std::printf("replayed %zu case(s), %d failure(s)\n",
              options.replay_files.size(), failures);
  return failures == 0 ? 0 : 1;
}

int fuzz(const Options& options) {
  for (int i = 0; i < options.iters; ++i) {
    const std::uint64_t seed = options.seed + static_cast<std::uint64_t>(i);
    const Case c = droute::chaos::random_case(seed, options.spec);
    RunReport report = droute::chaos::run_case(c);
    std::string violated = report.violated;
    std::string detail = report.detail;
    if (report.ok()) {
      // fabric_equivalence: re-run against the retained full-recompute
      // allocator; any digest drift means a stale incremental rate.
      const RunReport reference = droute::chaos::run_case(
          c, droute::chaos::RunOptions{.full_recompute = true});
      if (reference.digest != report.digest) {
        violated = "fabric_equivalence";
        detail = "incremental and full-recompute digests differ";
      }
    }
    if (violated.empty() && options.selfcheck) {
      const RunReport second = droute::chaos::run_case(c);
      if (second.digest != report.digest) {
        violated = "replay_divergence";
        detail = "digests differ across identical runs";
      }
    }
    if (violated.empty()) {
      std::printf("ok   seed=%llu digest=%016llx injected=%zu work=%zu\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(report.digest),
                  report.injected, report.completed_work);
      continue;
    }
    std::fprintf(stderr, "FAIL seed=%llu property '%s': %s\n",
                 static_cast<unsigned long long>(seed), violated.c_str(),
                 detail.c_str());
    droute::chaos::ShrinkStats stats;
    const Case minimal = droute::chaos::shrink(
        c,
        [&violated](const Case& candidate) {
          const RunReport run = droute::chaos::run_case(candidate);
          if (violated == "fabric_equivalence") {
            if (!run.ok()) return false;
            const RunReport reference = droute::chaos::run_case(
                candidate, droute::chaos::RunOptions{.full_recompute = true});
            return reference.digest != run.digest;
          }
          return run.violated == violated;
        },
        options.shrink_attempts, &stats);
    const std::string out_path =
        options.out_dir + "/proptest-" + std::to_string(seed) + ".case";
    auto saved = droute::chaos::save_case_file(out_path, minimal, violated);
    std::fprintf(stderr,
                 "     shrunk: -%zu events -%zu links -%zu work "
                 "(%zu reruns); %s\n",
                 stats.events_dropped, stats.links_dropped, stats.work_dropped,
                 stats.oracle_calls,
                 saved.ok() ? ("wrote " + out_path).c_str()
                            : saved.error().message.c_str());
    return 1;
  }
  std::printf("all %d case(s) passed (seeds %llu..%llu)%s\n", options.iters,
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(
                  options.seed + static_cast<std::uint64_t>(options.iters) - 1),
              options.selfcheck ? " with determinism selfcheck" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, &options)) return usage(argv[0]);
  if (!options.replay_files.empty()) return replay(options);
  if (options.iters <= 0) return usage(argv[0]);
  return fuzz(options);
}
