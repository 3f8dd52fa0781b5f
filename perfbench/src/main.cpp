// droute_perfbench: runs one workload and prints its result as one JSON
// line. perfbench/run.py builds this binary and wraps it.
//
//   droute_perfbench --workload paper_grid --seed 1 --seconds 10 --trace 0
//                    (--seconds is required)
//                    [--out-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: droute_perfbench --workload "
               "paper_grid|world_fleet|chaos_cases|wire_uploads --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || options.seconds <= 0.0) return usage();

  const std::map<std::string, std::function<Result(const Options&)>> workloads =
      {{"paper_grid", run_paper_grid},
       {"world_fleet", run_world_fleet},
       {"chaos_cases", run_chaos_cases},
       {"wire_uploads", run_wire_uploads}};
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) return usage();

  const Result result = it->second(options);
  std::printf("%s\n",
              to_json(options, result, machine_fingerprint()).c_str());
  return 0;
}
