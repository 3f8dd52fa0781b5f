#include "report.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <set>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Fingerprint machine_fingerprint() {
  Fingerprint fp;
  fp.cores = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        fp.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
      }
      break;
    }
  }
  if (fp.cpu_model.empty()) fp.cpu_model = "unknown";
#if defined(__clang__)
  fp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = std::string("gcc ") + __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = PERFBENCH_BUILD_TYPE;
  return fp;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  // SplitMix64 finalizer over (seed, index).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::size_t window_chunks(double seconds, double nominal_chunk_s) {
  return std::max(kMinWindowChunks,
                  static_cast<std::size_t>(std::llround(seconds / nominal_chunk_s)));
}

namespace {

/// The CPUs the process may run on, as it started.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
      }
    }
    return allowed;
  }();
  return cpus;
}

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

void pin_to_cpu(std::size_t index) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  set_affinity({cpus[index % cpus.size()]});
}

void unpin_cpu() {
  if (allowed_cpus().size() >= 2) set_affinity(allowed_cpus());
}

Window::Window(std::size_t chunks, bool rotate_cpus)
    : chunks_wanted_(chunks), rotate_cpus_(rotate_cpus) {
  if (rotate_cpus_) pin_to_cpu(0);
  chunk_start_s_ = host_now_s();
}

void Window::add_op(double ms) {
  open_.op_ms.push_back(ms);
  if (++ops_ == kRssOps) rss_mb_ = peak_rss_mb();
}

bool Window::boundary() {
  if (open_.op_ms.size() >= kChunkOps) {
    open_.seconds = host_now_s() - chunk_start_s_;
    chunks_.push_back(std::move(open_));
    open_ = Chunk{};
    if (rotate_cpus_) pin_to_cpu(chunks_.size());
    chunk_start_s_ = host_now_s();
  }
  return chunks_.size() == chunks_wanted_;
}

WindowFigures Window::figures() const {
  WindowFigures figures;
  figures.chunks = chunks_;
  figures.peak_rss_mb = ops_ >= kRssOps ? rss_mb_ : peak_rss_mb();
  return figures;
}

void set_end_to_end(Result& result, const std::vector<double>& setup_s,
                    const WindowFigures& window) {
  double best_rate = 0.0;
  double samples = 0.0;
  double timed_s = 0.0;
  for (const Chunk& chunk : window.chunks) {
    best_rate = std::max(
        best_rate, ratio(static_cast<double>(chunk.op_ms.size()), chunk.seconds));
    samples += static_cast<double>(chunk.op_ms.size());
    timed_s += chunk.seconds;
  }
  std::optional<double> p50;
  std::optional<double> p99;
  for (const Chunk& chunk : window.chunks) {
    const auto chunk_p50 = percentile(chunk.op_ms, 50.0);
    const auto chunk_p99 = percentile(chunk.op_ms, 99.0);
    if (chunk_p50 && (!p50 || *chunk_p50 < *p50)) p50 = chunk_p50;
    if (chunk_p99 && (!p99 || *chunk_p99 < *p99)) p99 = chunk_p99;
  }
  if (window.chunks.empty()) result.fail_check("the timed window closed no chunk");
  if (!p50 || !p99) {
    result.fail_check("too few ops for p99 (needs " +
                      std::to_string(min_samples_for(99.0)) + ")");
  }
  const auto setup = percentile(setup_s, 25.0);
  if (!setup) result.fail_check("too few set-up repeats for a lower quartile");
  result.metrics["setup_s"] = {setup.value_or(0.0), "s"};
  result.metrics["ops_per_s"] = {best_rate, "1/s"};
  result.metrics["op_ms_p50"] = {p50.value_or(0.0), "ms"};
  result.metrics["op_ms_p99"] = {p99.value_or(0.0), "ms"};
  result.metrics["peak_rss_mb"] = {window.peak_rss_mb, "MB"};
  result.info["op_samples"] = samples;
  result.info["chunks"] = static_cast<double>(window.chunks.size());
  result.info["setup_repeats"] = static_cast<double>(setup_s.size());
  result.info["timed_s"] = timed_s;
}

const std::vector<LayerSpec>& layer_specs() {
  static const std::vector<LayerSpec> specs = {
      // End-to-end figures only the traced run breaks out.
      {"fail_ratio", "ratio"},
      {"small_upload_ms_p50", "ms"},
      {"small_upload_ms_p90", "ms"},
      {"large_goodput_mbps", "MB/s"},
      // Tracing overhead: the same fixed work, untraced then traced.
      {"trace.ops_per_s_untraced", "1/s"},
      {"trace.ops_per_s_traced", "1/s"},
      {"trace.overhead_ratio", "ratio"},
      {"scenario.world_create_ms", "ms"},
      {"scenario.run_upload_ms", "ms"},
      {"measure.runs", "count"},
      {"measure.run_failures", "count"},
      {"sim.events_per_op", "count"},
      {"sim.host_ns_per_event", "ns"},
      {"sim.peak_pending", "count"},
      {"sim.peak_cancelled_backlog", "count"},
      {"sim.dead_entry_ratio", "ratio"},
      {"routing.cold_routes", "count"},
      {"routing.cold_route_us", "us"},
      {"fabric.flows_started", "count"},
      {"fabric.flows_completed", "count"},
      {"fabric.flows_failed", "count"},
      {"fabric.delivered_ratio", "ratio"},
      {"fabric.start_flow_us", "us"},
      {"fabric.peak_active_flows", "count"},
      {"fabric.realloc_rounds", "count"},
      {"fabric.realloc_components", "count"},
      {"fabric.realloc_skipped", "count"},
      {"fabric.rounds_per_flow", "ratio"},
      {"fabric.components_per_event", "ratio"},
      {"transfer.batches_submitted", "count"},
      {"transfer.batch_requests", "count"},
      {"transfer.throttle_retries", "count"},
      {"transfer.chunk_puts_per_upload", "ratio"},
      {"cloud.sessions_opened", "count"},
      {"cloud.sessions_finalized", "count"},
      {"cloud.finalize_ratio", "ratio"},
      {"cloud.requests_throttled", "count"},
      {"cloud.token_refreshes", "count"},
      {"chaos.random_case_us", "us"},
      {"chaos.run_case_ms", "ms"},
      {"chaos.events_injected", "count"},
      {"chaos.events_skipped", "count"},
      {"chaos.inject_ratio", "ratio"},
      {"ctrl.probes_launched", "count"},
      {"ctrl.probes_failed", "count"},
      {"ctrl.decisions_made", "count"},
      {"wire.bytes_sent", "bytes"},
      {"wire.bytes_received", "bytes"},
      {"wire.overhead_ratio", "ratio"},
      {"wire.peak_threads", "count"},
      {"rsyncx.md5_mib_per_s", "MiB/s"},
  };
  return specs;
}

void set_per_layer(Result& result,
                   const std::map<std::string, double>& values) {
  std::set<std::string> known;
  for (const LayerSpec& spec : layer_specs()) {
    known.insert(spec.name);
    const auto it = values.find(spec.name);
    result.metrics[spec.name] = {it == values.end() ? 0.0 : it->second,
                                 spec.unit};
  }
  for (const auto& [name, value] : values) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
                   name.c_str());
      std::abort();
    }
  }
}

namespace {

/// A `Name:  <n> kB` line of /proc/self/status, or -1.
long status_field(const char* name) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(name);
  while (std::getline(status, line)) {
    if (line.compare(0, len, name) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::atol(line.c_str() + len + 1);
    }
  }
  return -1;
}

}  // namespace

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report the
  // launching process's peak when that was larger.
  return static_cast<double>(status_field("VmHWM")) * 1024.0 / 1e6;
}

int thread_count() { return static_cast<int>(status_field("Threads")); }

std::string to_json(const Options& options, const Result& result,
                    const Fingerprint& fingerprint) {
  std::ostringstream out;
  out << "{\"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"correct\": " << (result.correct() ? "true" : "false")
      << ", \"attempted\": " << result.ops.attempted
      << ", \"failed\": " << result.ops.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, metric] : result.metrics) {
    out << sep << json_string(name) << ": {\"value\": "
        << json_number(metric.value)
        << ", \"unit\": " << json_string(metric.unit) << "}";
    sep = ", ";
  }
  out << "}, \"info\": {";
  sep = "";
  for (const auto& [name, value] : result.info) {
    out << sep << json_string(name) << ": " << json_number(value);
    sep = ", ";
  }
  out << "}, \"counts\": {";
  sep = "";
  for (const auto& [name, value] : result.counts) {
    out << sep << json_string(name) << ": " << json_number(value);
    sep = ", ";
  }
  out << "}, \"check_failures\": [";
  sep = "";
  for (const std::string& failure : result.check_failures) {
    out << sep << json_string(failure);
    sep = ", ";
  }
  out << "]";
  if (result.digest) {
    char digest[24];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, *result.digest);
    out << ", \"digest\": " << json_string(digest)
        << ", \"digest_ops\": " << result.digest_ops;
  }
  if (!result.trace_file.empty()) {
    out << ", \"trace_file\": " << json_string(result.trace_file);
  }
  out << ", \"fingerprint\": {\"cores\": " << fingerprint.cores
      << ", \"cpu_model\": " << json_string(fingerprint.cpu_model)
      << ", \"compiler\": " << json_string(fingerprint.compiler)
      << ", \"build_type\": " << json_string(fingerprint.build_type) << "}}";
  return out.str();
}

}  // namespace perfbench
