#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

std::string compiler_id() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

Report::Report(const Args& args) {
  stamp_ = {
      {"workload", json_string(args.workload)},
      {"seed", std::to_string(args.seed)},
      {"machine_frames", "null"},
      {"host_cores", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"build_type", json_string(PERFBENCH_BUILD_TYPE)},
      {"compiler", json_string(compiler_id())},
      {"git_sha", json_string(args.git_sha)},
      {"src_digest", json_string(args.src_digest)},
      {"load", json_string("closed loop, 1 caller")},
      {"traced", args.trace ? "true" : "false"},
  };
}

void Report::set_machine_frames(std::uint64_t frames) {
  for (auto& [key, value] : stamp_) {
    if (key == "machine_frames") value = std::to_string(frames);
  }
}

void Report::row(std::string_view metric, double value, std::string_view unit,
                 std::string_view kind, const Fields& extra) {
  std::string line = "BENCH_ROW {\"metric\":" + json_string(metric) +
                     ",\"value\":" + json_number(value) +
                     ",\"unit\":" + json_string(unit) +
                     ",\"kind\":" + json_string(kind);
  for (const auto& [key, literal] : extra) {
    line += "," + json_string(key) + ":" + literal;
  }
  for (const auto& [key, literal] : stamp_) {
    line += "," + json_string(key) + ":" + literal;
  }
  line += "}";
  std::puts(line.c_str());
}

void Report::metric(std::string_view metric, double value,
                    std::string_view unit, std::string_view kind,
                    const Fields& extra) {
  row(metric, value, unit, kind, extra);
  metrics_.emplace_back(std::string{metric},
                        "{\"value\":" + json_number(value) +
                            ",\"unit\":" + json_string(unit) + "}");
}

void Report::failed(std::uint64_t units, const std::string& why) {
  if (failed_ < 20) std::fprintf(stderr, "perfbench: check failed: %s\n",
                                 why.c_str());
  failed_ += units;
}

int Report::finish() {
  const double rate = attempted_ == 0
                          ? 1.0
                          : static_cast<double>(failed_) /
                                static_cast<double>(attempted_);
  row("error_rate", rate, "ratio", "e2e",
      {{"attempted", std::to_string(attempted_)},
       {"failed", std::to_string(failed_)}});
  const bool correct = attempted_ > 0 && failed_ == 0;
  std::string line = std::string{"{\"correct\": "} +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i != 0) line += ", ";
    line += json_string(metrics_[i].first) + ": " + metrics_[i].second;
  }
  line += "}}";
  std::puts(line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void emit_end_to_end(Report& report, const std::vector<double>& setup_s,
                     const std::vector<double>& batch_rate, double rate_q,
                     const std::vector<double>& unit_s,
                     std::string_view clock) {
  report.metric("setup_s", median(setup_s), "s", "e2e",
                {{"samples", std::to_string(setup_s.size())},
                 {"stat", json_string("median")},
                 {"clock", json_string("process cpu")}});
  report.metric("peak_rss_mb", peak_rss_mib(), "MiB", "e2e");
  report.metric("units_per_s", quantile(batch_rate, rate_q), "1/s", "e2e",
                {{"samples", std::to_string(batch_rate.size())},
                 {"stat", json_string("quantile over batches")},
                 {"quantile", json_number(rate_q)},
                 {"clock", json_string(clock)}});
  report.row("unit_p50_us", median(unit_s) * 1e6, "us", "e2e",
             {{"samples", std::to_string(unit_s.size())},
              {"stat", json_string("median")},
              {"clock", json_string(clock)}});
}

void emit_layer_metrics(Report& report, const LayerMetrics& m) {
  const auto put = [&](std::string_view name, const LayerValue& v,
                       std::string_view unit) {
    report.metric(name, v.value, unit, v.kind, v.extra);
  };
  put("hv.hash.us", m.hash_us, "us");
  put("hv.rewind.us", m.rewind_us, "us");
  put("hv.audit.us", m.audit_us, "us");
  put("hv.validate.us", m.validate_us, "us");
  put("sim.walk.ns", m.walk_ns, "ns");
  put("guest.boot.ms", m.boot_ms, "ms");
  put("hv.hash.frames_rehashed_per_unit", m.hash_frames_rehashed_per_unit,
      "count");
  put("hv.rewind.frames_per_unit", m.rewind_frames_per_unit, "count");
  put("hv.validate.calls_per_unit", m.validate_calls_per_unit, "count");
  put("hv.validate.refused_ratio", m.validate_refused_ratio, "ratio");
  put("hv.hash.share", m.hash_share, "ratio");
  put("hv.rewind.share", m.rewind_share, "ratio");
  put("analysis.captures_per_state", m.captures_per_state, "count");
  put("analysis.admit_ratio", m.admit_ratio, "ratio");
  put("analysis.peak_frontier_mb", m.peak_frontier_mb, "MiB");
  put("core.fuzz.execs_per_iter", m.execs_per_iter, "count");
  put("unexplained_share", m.unexplained_share, "ratio");
  put("obs.trace_overhead", m.trace_overhead, "ratio");
}

}  // namespace perfbench
