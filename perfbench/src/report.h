// Run options, the result every workload returns, and its JSON rendering.
//
// An untraced run reports exactly the end-to-end metrics; a traced run
// reports exactly the per-layer metrics of layer_specs(), with 0 for a
// layer the workload never calls. perfbench/run.py checks both sets against
// BENCHMARK.json before printing the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;  // required: BENCHMARK.json's run_seconds
  bool trace = false;
  std::string out_dir = ".";  // where the traced run writes its Chrome trace
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Fingerprint {
  unsigned cores = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
};

Fingerprint machine_fingerprint();

/// Seconds on the host's steady clock, for op and set-up timing.
inline double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One stretch of an untraced run's timed window.
struct Chunk {
  double seconds = 0.0;       // host seconds
  std::vector<double> op_ms;  // host ms per completed op
};

/// A chunk closes at the first workload boundary where it holds this many
/// ops (p99 needs 1000: min_samples_for(99)).
inline constexpr std::size_t kChunkOps = 1000;

/// Fewest chunks in a window.
inline constexpr std::size_t kMinWindowChunks = 4;

/// Chunks in the window of a `seconds`-long run, for a workload whose chunk
/// takes about `nominal_chunk_s` host seconds on the machine the benchmark
/// was tuned on (README.md). The count depends on the run length only, never
/// on how fast the program runs, so every build gets the same number of
/// draws for its best case; a faster build measures for less time.
std::size_t window_chunks(double seconds, double nominal_chunk_s);

/// Set-up is repeated this many times per run; setup_s is the lower
/// quartile (see set_end_to_end).
inline constexpr int kSetupRepeats = 31;

/// peak_rss_mb is read once the window has completed this many ops: a
/// fixed amount of work, so the figure does not depend on how fast the
/// host ran.
inline constexpr std::size_t kRssOps = 5000;

/// What a timed window measured, as set_end_to_end consumes it.
struct WindowFigures {
  std::vector<Chunk> chunks;
  double peak_rss_mb = 0.0;
};

/// Moves the calling thread to the `index`-th CPU (cyclically) of those the
/// process started with. Best effort: a failure leaves the thread where it
/// is. Threads the caller creates afterwards inherit the pin.
void pin_to_cpu(std::size_t index);

/// Lets the calling thread run on every CPU the process started with again,
/// so that threads it creates afterwards are not pinned.
void unpin_cpu();

/// The timed window of an untraced run: a fixed number of chunks, cut at the
/// workload's natural boundaries (a grid pass, a fleet replay, a case, a
/// round of uploads), so that chunks repeat the same or like work.
/// Contention from other tenants of a shared host only ever slows work down
/// (a bare register loop varies by up to 45% from one 0.1 s window to the
/// next on a busy 4-core VM), so the run reports best cases over the
/// chunks: the highest chunk throughput and the lowest chunk percentiles.
class Window {
 public:
  /// `rotate_cpus`: run chunk i on CPU i (pin_to_cpu). On a shared VM the
  /// same loop can run twice as fast on one vCPU as on another at the same
  /// moment, for minutes, and the scheduler cannot see it; rotating lets
  /// the best case sample every vCPU. Only for single-threaded workloads,
  /// since threads started during the window would inherit the pin.
  Window(std::size_t chunks, bool rotate_cpus);

  void add_op(double ms);

  /// Host time between pause() and resume() (untimed set-up between
  /// repeats) does not count toward the open chunk.
  void pause() { paused_at_s_ = host_now_s(); }
  void resume() { chunk_start_s_ += host_now_s() - paused_at_s_; }

  /// Called at a workload boundary: closes the open chunk once it holds
  /// kChunkOps ops. Returns true once the window is over: all its chunks
  /// have closed.
  bool boundary();

  WindowFigures figures() const;

 private:
  std::size_t chunks_wanted_;
  bool rotate_cpus_;
  double chunk_start_s_;
  double paused_at_s_ = 0.0;
  std::size_t ops_ = 0;
  double rss_mb_ = 0.0;
  Chunk open_;
  std::vector<Chunk> chunks_;
};

struct Result {
  OpTally ops;
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> metrics;
  /// Sample counts and other context, reported next to the metrics.
  std::map<std::string, double> info;
  /// Digest of the outcomes of the first `digest_ops` ops (sim workloads).
  std::optional<std::uint64_t> digest;
  std::uint64_t digest_ops = 0;
  /// Per-layer counts that must repeat exactly across traced runs.
  std::map<std::string, double> counts;
  std::string trace_file;

  bool correct() const { return check_failures.empty() && ops.failed == 0; }
  void fail_check(std::string what) { check_failures.push_back(std::move(what)); }
};

/// Fills the end-to-end metrics: setup_s is the lower quartile of the
/// set-up repetitions (a best case, like the window's figures, over a fixed
/// count); the rest come from the window (see Window). A percentile without
/// enough samples beyond it is a failed check, never a silently reported
/// maximum.
void set_end_to_end(Result& result, const std::vector<double>& setup_s,
                    const WindowFigures& window);

struct LayerSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order.
const std::vector<LayerSpec>& layer_specs();

/// Fills the per-layer metrics: every spec, `values[name]` or 0. Aborts on
/// a name that is not a spec (a typo would otherwise vanish silently).
void set_per_layer(Result& result, const std::map<std::string, double>& values);

/// Peak resident set of this process in MB (10^6 bytes).
double peak_rss_mb();

/// Threads of this process, from the `Threads:` line of /proc/self/status.
int thread_count();

std::string to_json(const Options& options, const Result& result,
                    const Fingerprint& fingerprint);

/// Op seeds: the workload seed split into an independent stream per index.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

}  // namespace perfbench
