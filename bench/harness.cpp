#include "harness.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace droute::bench {

std::vector<BenchCase>& registry() {
  static std::vector<BenchCase> cases;
  return cases;
}

bool register_case(BenchCase c) {
  registry().push_back(std::move(c));
  return true;
}

BenchStats summarize(std::vector<double> samples_ms) {
  BenchStats stats;
  if (samples_ms.empty()) return stats;
  std::sort(samples_ms.begin(), samples_ms.end());
  const std::size_t n = samples_ms.size();
  stats.min_ms = samples_ms.front();
  stats.max_ms = samples_ms.back();
  stats.mean_ms =
      std::accumulate(samples_ms.begin(), samples_ms.end(), 0.0) /
      static_cast<double>(n);
  stats.median_ms = n % 2 == 1
                        ? samples_ms[n / 2]
                        : 0.5 * (samples_ms[n / 2 - 1] + samples_ms[n / 2]);
  // Nearest-rank p95: smallest sample >= 95% of the distribution.
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(n)));
  stats.p95_ms = samples_ms[rank == 0 ? 0 : rank - 1];
  stats.samples_ms = std::move(samples_ms);
  return stats;
}

namespace {

struct Options {
  bool list = false;
  bool quick = false;
  int repeats = 5;
  int warmup = 1;
  std::string filter;
  std::string json_path;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--quick] [--filter SUBSTR]\n"
               "          [--repeats N] [--warmup N] [--json PATH]\n",
               argv0);
  return 2;
}

// The whole token must be a base-10 integer: "3x" and "abc" are rejected,
// not read as 3 and 0.
bool parse_int(const char* text, int* out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end;
}

bool parse_args(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      options->list = true;
    } else if (arg == "--quick") {
      options->quick = true;
    } else if (arg == "--filter") {
      const char* v = next();
      if (v == nullptr) return false;
      options->filter = v;
    } else if (arg == "--repeats") {
      const char* v = next();
      if (v == nullptr || !parse_int(v, &options->repeats)) return false;
    } else if (arg == "--warmup") {
      const char* v = next();
      if (v == nullptr || !parse_int(v, &options->warmup)) return false;
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return false;
      options->json_path = v;
    } else {
      return false;
    }
  }
  return options->repeats > 0 && options->warmup >= 0;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

// %.17g round-trips doubles; JSON needs non-finite values spelled out of
// band, but bench samples are always finite wall-clock durations.
std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

struct CaseReport {
  const BenchCase* c = nullptr;
  BenchStats stats;
  int warmup = 0;
  double events = 0.0;
  double events_per_sec = 0.0;
  std::map<std::string, double> extras;
};

}  // namespace

int bench_main(int argc, char** argv, const std::string& default_json) {
  Options options;
  if (!parse_args(argc, argv, &options)) return usage(argv[0]);
  if (options.json_path.empty()) options.json_path = default_json;
  if (options.quick) {
    options.repeats = 1;
    options.warmup = 0;
  }

  if (options.list) {
    for (const BenchCase& c : registry()) {
      std::printf("%-40s %s\n", c.name.c_str(), c.unit.c_str());
    }
    return 0;
  }

  using clock = std::chrono::steady_clock;
  std::vector<CaseReport> reports;
  for (const BenchCase& c : registry()) {
    if (!options.filter.empty() &&
        c.name.find(options.filter) == std::string::npos) {
      continue;
    }
    BenchContext ctx(options.quick);
    c.body(ctx);
    if (!ctx.work_) {
      std::fprintf(stderr, "bench %s never called set_work()\n",
                   c.name.c_str());
      return 1;
    }
    for (int i = 0; i < options.warmup; ++i) ctx.work_();
    std::vector<double> samples_ms;
    samples_ms.reserve(static_cast<std::size_t>(options.repeats));
    for (int i = 0; i < options.repeats; ++i) {
      const auto t0 = clock::now();
      ctx.work_();
      const auto t1 = clock::now();
      samples_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }

    CaseReport report;
    report.c = &c;
    report.stats = summarize(std::move(samples_ms));
    report.warmup = options.warmup;
    report.events = ctx.events_;
    if (ctx.events_ > 0.0 && report.stats.median_ms > 0.0) {
      report.events_per_sec = ctx.events_ / (report.stats.median_ms / 1e3);
    }
    report.extras = std::move(ctx.extras_);
    reports.push_back(std::move(report));

    std::printf("%-40s median %12.3f %-12s p95 %12.3f", c.name.c_str(),
                reports.back().stats.median_ms, c.unit.c_str(),
                reports.back().stats.p95_ms);
    if (reports.back().events_per_sec > 0.0) {
      std::printf("  %12.0f events/s", reports.back().events_per_sec);
    }
    for (const auto& [key, value] : reports.back().extras) {
      std::printf("  %s=%g", key.c_str(), value);
    }
    std::printf("\n");
  }

  if (reports.empty()) {
    std::fprintf(stderr, "no bench case matches filter '%s'\n",
                 options.filter.c_str());
    return 1;
  }

  std::FILE* out = std::fopen(options.json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", options.json_path.c_str());
    return 1;
  }
  std::string json = "{\n  \"schema\": \"droute-bench-v1\",\n  \"binary\": \"";
  json += json_escape(argv[0] != nullptr ? argv[0] : "bench");
  json += "\",\n  \"quick\": ";
  json += options.quick ? "true" : "false";
  json += ",\n  \"cases\": [";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CaseReport& r = reports[i];
    json += i == 0 ? "\n" : ",\n";
    json += "    {\"name\": \"" + json_escape(r.c->name) + "\", \"unit\": \"" +
            json_escape(r.c->unit) + "\",\n     \"warmup\": " +
            std::to_string(r.warmup) + ", \"repeats\": " +
            std::to_string(r.stats.samples_ms.size()) +
            ", \"samples_ms\": [";
    for (std::size_t s = 0; s < r.stats.samples_ms.size(); ++s) {
      if (s > 0) json += ", ";
      json += json_number(r.stats.samples_ms[s]);
    }
    json += "],\n     \"median_ms\": " + json_number(r.stats.median_ms) +
            ", \"p95_ms\": " + json_number(r.stats.p95_ms) +
            ", \"mean_ms\": " + json_number(r.stats.mean_ms) +
            ", \"min_ms\": " + json_number(r.stats.min_ms) +
            ", \"max_ms\": " + json_number(r.stats.max_ms) +
            ",\n     \"events\": " + json_number(r.events) +
            ", \"events_per_sec\": " + json_number(r.events_per_sec) +
            ",\n     \"extras\": {";
    bool first = true;
    for (const auto& [key, value] : r.extras) {
      if (!first) json += ", ";
      first = false;
      json += '"';
      json += json_escape(key);
      json += "\": ";
      json += json_number(value);
    }
    json += "}}";
  }
  json += "\n  ]\n}\n";
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  if (written != json.size()) {
    std::fprintf(stderr, "short write to %s\n", options.json_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu case(s))\n", options.json_path.c_str(),
              reports.size());
  return 0;
}

}  // namespace droute::bench
