// The four workloads and the helpers their traced runs share.
//
// An untraced run sets up (kSetupRepeats times, for a steady set-up
// figure), then runs closed-loop ops through a Window (report.h) of
// window_chunks(seconds, ...) chunks, and fills the end-to-end metrics.
//
// A traced run does a fixed amount of work twice from the same seed: once
// untraced, once with an obs::Recorder installed. The first gives the
// tracing overhead; the second gives per-layer numbers, taken by timing the
// benchmark's own calls into each layer's public functions (recorded as
// wall-clock spans) and by reading the counters the program already keeps
// from the recorder's Registry. Fixed work makes every per-layer count
// repeat exactly for one seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/recorder.h"
#include "report.h"

namespace perfbench {

Result run_paper_grid(const Options& options);
Result run_world_fleet(const Options& options);
Result run_chaos_cases(const Options& options);
Result run_wire_uploads(const Options& options);

/// Times one call into a layer: the elapsed host time goes into `tally`,
/// and a wall-clock span named `name` into the installed recorder.
class LayerSpan {
 public:
  LayerSpan(std::string_view name, Tally& tally)
      : name_(name),
        tally_(tally),
        recorder_(droute::obs::recorder()),
        wall_start_s_(recorder_ != nullptr ? recorder_->wall_now_s() : 0.0),
        start_s_(host_now_s()) {}
  ~LayerSpan() {
    tally_.add(host_now_s() - start_s_);
    if (recorder_ != nullptr) {
      droute::obs::emit_span(name_, droute::obs::Clock::kWall, wall_start_s_,
                             recorder_->wall_now_s());
    }
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  std::string_view name_;
  Tally& tally_;
  droute::obs::Recorder* recorder_;
  double wall_start_s_;
  double start_s_;
};

/// Per-layer values every sim workload reads from the Registry alone:
/// fabric, transfer, cloud, chaos and ctrl counters and their ratios.
/// `ops` is the traced pass's op count (for sim.events_per_op).
void read_program_counters(droute::obs::Recorder& recorder, double ops,
                           std::map<std::string, double>& layer);

/// Writes the recorder's Chrome trace to
/// <out_dir>/trace-<workload>-seed<seed>.json; records the path (or a
/// failed check) in `result`.
void write_chrome_trace(const droute::obs::Recorder& recorder,
                        const Options& options, Result& result);

/// Shared tail of a traced run: tracing overhead from the two passes'
/// throughput, the per-layer metrics, and the exact counts that must repeat.
void finish_traced(Result& result, double untraced_ops_per_s,
                   double traced_ops_per_s, std::map<std::string, double> layer);

}  // namespace perfbench
