// Helpers shared by the traced runs of every workload.
#include <set>
#include <string>

#include "obs/export.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Value of a program counter in `recorder`'s Registry (0 if never bumped).
double counter_value(droute::obs::Recorder& recorder, std::string_view name) {
  return static_cast<double>(recorder.metrics().counter(name)->value());
}

/// Spans named `name` in `recorder`'s buffer.
double span_count(const droute::obs::Recorder& recorder,
                  std::string_view name) {
  double n = 0.0;
  for (const droute::obs::Span& span : recorder.spans()) {
    if (span.name == name) n += 1.0;
  }
  return n;
}

}  // namespace

void read_program_counters(droute::obs::Recorder& recorder, double ops,
                           std::map<std::string, double>& layer) {
  auto c = [&recorder](std::string_view name) {
    return counter_value(recorder, name);
  };
  const double events = c("sim.events_executed_total");
  layer["sim.events_per_op"] = ratio(events, ops);

  layer["measure.runs"] = c("measure.runs_total");
  layer["measure.run_failures"] = c("measure.run_failures_total");

  const double started = c("net.flows_started_total");
  layer["fabric.flows_started"] = started;
  layer["fabric.flows_completed"] = c("net.flows_completed_total");
  layer["fabric.flows_failed"] = c("net.flows_failed_total");
  const double rounds = c("net.realloc_rounds_total");
  const double components = c("net.realloc_components_total");
  layer["fabric.realloc_rounds"] = rounds;
  layer["fabric.realloc_components"] = components;
  layer["fabric.realloc_skipped"] = c("net.realloc_skipped_total");
  layer["fabric.rounds_per_flow"] = ratio(rounds, started);
  layer["fabric.components_per_event"] = ratio(components, events);

  layer["transfer.batches_submitted"] = c("transfer.batches_submitted_total");
  layer["transfer.batch_requests"] = c("transfer.batch_requests_total");
  layer["transfer.throttle_retries"] = c("transfer.throttle_retries_total");
  layer["transfer.chunk_puts_per_upload"] =
      ratio(span_count(recorder, "transfer.chunk_put"),
            span_count(recorder, "transfer.api_upload"));

  const double opened = c("cloud.sessions_opened_total");
  const double finalized = c("cloud.sessions_finalized_total");
  layer["cloud.sessions_opened"] = opened;
  layer["cloud.sessions_finalized"] = finalized;
  layer["cloud.finalize_ratio"] = ratio(finalized, opened);
  layer["cloud.requests_throttled"] = c("cloud.requests_throttled_total");
  layer["cloud.token_refreshes"] = c("cloud.token_refreshes_total");

  const double injected = c("chaos.events_injected_total");
  const double skipped = c("chaos.events_skipped_total");
  layer["chaos.events_injected"] = injected;
  layer["chaos.events_skipped"] = skipped;
  layer["chaos.inject_ratio"] = ratio(injected, injected + skipped);

  layer["ctrl.probes_launched"] = c("ctrl.probes_launched_total");
  layer["ctrl.probes_failed"] = c("ctrl.probes_failed_total");
  layer["ctrl.decisions_made"] = c("ctrl.decisions_made_total");

  layer["wire.bytes_sent"] = c("wire.bytes_sent_total");
  layer["wire.bytes_received"] = c("wire.bytes_received_total");
}

void write_chrome_trace(const droute::obs::Recorder& recorder,
                        const Options& options, Result& result) {
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  const auto written =
      droute::obs::write_file(path, droute::obs::chrome_trace_json(recorder));
  if (!written.ok()) {
    result.fail_check("chrome trace not written: " + written.error().message);
    return;
  }
  result.trace_file = path;
  result.info["trace_spans"] = static_cast<double>(recorder.span_count());
  result.info["trace_spans_dropped"] =
      static_cast<double>(recorder.dropped_spans());
}

void finish_traced(Result& result, double untraced_ops_per_s,
                   double traced_ops_per_s,
                   std::map<std::string, double> layer) {
  layer["fail_ratio"] = result.ops.fail_ratio();
  layer["trace.ops_per_s_untraced"] = untraced_ops_per_s;
  layer["trace.ops_per_s_traced"] = traced_ops_per_s;
  layer["trace.overhead_ratio"] = ratio(untraced_ops_per_s, traced_ops_per_s);
  set_per_layer(result, layer);
  // Work counts repeat exactly for a seed; host times and thread samples
  // do not.
  static const std::set<std::string> sampled = {"wire.peak_threads",
                                                "trace.overhead_ratio"};
  for (const LayerSpec& spec : layer_specs()) {
    const std::string unit = spec.unit;
    if ((unit == "count" || unit == "ratio" || unit == "bytes") &&
        sampled.count(spec.name) == 0) {
      result.counts[spec.name] = result.metrics[spec.name].value;
    }
  }
}

}  // namespace perfbench
