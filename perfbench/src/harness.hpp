// Shared plumbing of the benchmark program: arguments, clocks, order
// statistics, and the report that prints one BENCH_ROW line per measured
// quantity plus the final result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  /// The run's private, existing, empty directory for every file it
  /// writes; the caller creates it uniquely and removes it afterwards.
  std::string scratch_dir;
  /// Campaign verdict table (campaign_verdicts.tsv).
  std::string verdicts = "perfbench/campaign_verdicts.tsv";
  std::string git_sha = "none";
  std::string src_digest = "none";
};

/// CPU time the whole process (every thread) has consumed, in seconds. The
/// set-up times and the unit times of the single-threaded workloads use this
/// clock: on a shared host the time the process was not running (steal,
/// preemption) is most of the run-to-run noise, and a single-threaded
/// closed-loop caller on an idle host sees the same figure on the wall
/// clock.
[[nodiscard]] double process_cpu_s();

/// Sample quantile with linear interpolation between order statistics
/// (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// 64-bit FNV-1a, for fingerprinting rendered program output.
[[nodiscard]] std::uint64_t fnv1a(std::string_view text);

/// Extra key/value pairs of a row; values are JSON literals.
using Fields = std::vector<std::pair<std::string, std::string>>;

[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(std::string_view text);

/// Accumulates one run's outcome. Every measured quantity is printed as a
/// BENCH_ROW JSON line stamped with the run's provenance; the quantities
/// named in BENCHMARK.json for the run's mode are also collected for the
/// final result line.
class Report {
 public:
  explicit Report(const Args& args);

  /// Machine size the workload runs on, stamped on every later row.
  void set_machine_frames(std::uint64_t frames);

  /// Print one row. `kind` is e2e, span, count, phase or probe.
  void row(std::string_view metric, double value, std::string_view unit,
           std::string_view kind, const Fields& extra = {});
  /// Same, and record the value for the final result line.
  void metric(std::string_view metric, double value, std::string_view unit,
              std::string_view kind, const Fields& extra = {});

  /// Count units of work attempted, and units whose output check failed.
  void attempted(std::uint64_t units) { attempted_ += units; }
  void failed(std::uint64_t units, const std::string& why);

  /// Print error_rate and the final result line; returns the exit code.
  int finish();

 private:
  Fields stamp_;
  std::vector<std::pair<std::string, std::string>> metrics_;  // name, json
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Median per-call cost, in seconds, of `fn` repeated for at least
/// `min_calls` calls and `min_seconds` (at most 100000 calls).
template <typename Fn>
double time_per_call(Fn&& fn, unsigned min_calls, double min_seconds) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 100000 &&
         (samples.size() < min_calls ||
          seconds_between(start, Clock::now()) < min_seconds)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  return median(std::move(samples));
}

/// The end-to-end metrics of BENCHMARK.json from one run's samples.
/// `setup_s` holds process CPU seconds per set-up. `batch_rate` holds the
/// units per second of each batch of work (a campaign round, one fuzzer run,
/// one check) and units_per_s is their `rate_q` quantile (0.5: the median);
/// `unit_s` holds one time per unit (or per batch, as seconds per unit) and
/// their median is printed as the unit_p50_us row. `clock` names the clock
/// of the last two.
void emit_end_to_end(Report& report, const std::vector<double>& setup_s,
                     const std::vector<double>& batch_rate, double rate_q,
                     const std::vector<double>& unit_s,
                     std::string_view clock);

/// One per-layer value with its kind (span, count, phase or probe) and the
/// row's extra fields (share of the traced unit time, its base, ...).
struct LayerValue {
  double value = 0;
  std::string kind = "count";
  Fields extra = {};
};

/// The per-layer metrics of BENCHMARK.json. Every workload reports all of
/// them; a layer a workload never calls reports a zero count or share, and
/// its per-call cost as a probe on a machine of the workload's shape.
struct LayerMetrics {
  LayerValue hash_us, rewind_us, audit_us, validate_us, walk_ns, boot_ms;
  LayerValue hash_frames_rehashed_per_unit, rewind_frames_per_unit;
  LayerValue validate_calls_per_unit, validate_refused_ratio;
  LayerValue hash_share, rewind_share;
  LayerValue captures_per_state, admit_ratio, peak_frontier_mb;
  LayerValue execs_per_iter;
  LayerValue unexplained_share, trace_overhead;
};

void emit_layer_metrics(Report& report, const LayerMetrics& m);

// Workloads (one translation unit each).
void run_campaign_matrix(const Args& args, Report& report);
void run_fuzz_guided(const Args& args, Report& report);
void run_check_d4(const Args& args, unsigned threads, Report& report);

}  // namespace perfbench
