// Campaign engine: runs use cases across Xen versions and collects the
// per-cell verdicts that make up the paper's tables.
//
// One cell = (use case, version, mode). Each cell runs on a platform at
// its boot baseline — by default a pooled platform delta-restored there
// (CampaignConfig::reuse_platforms), otherwise a freshly booted one — the
// attempt is executed, and the monitor/auditor decide:
//   err_state  — the erroneous state is observably present afterwards;
//   violation  — the use case's security violation materialized;
//   handled    — err_state && !violation (Table III's shield cells).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/usecase.hpp"
#include "guest/platform.hpp"
#include "hv/version.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/status.hpp"
#include "obs/trace.hpp"

namespace ii::core {

/// How the erroneous state is driven into the system.
enum class Mode {
  Exploit,    ///< original third-party PoC against the stock hypervisor
  Injection,  ///< injector script against the patched hypervisor
};

[[nodiscard]] std::string to_string(Mode mode);

struct CellResult {
  std::string use_case;
  hv::XenVersion version{};
  Mode mode{};
  CaseOutcome outcome;          ///< what the attempt reported
  bool err_state = false;       ///< audited after the attempt
  bool violation = false;       ///< observed after the attempt
  std::uint64_t wall_us = 0;    ///< wall-clock time for the cell
  std::uint64_t hypercalls = 0;  ///< HypercallEnter events during the cell
  /// Per-cell observability snapshot (trace/hypercall counters). The cell's
  /// sink starts at seq 0, so metrics and trace depend only on the cell's
  /// own execution — identical under run() and the supervisor.
  obs::MetricsSnapshot metrics;
  /// Captured ring contents, only when CampaignConfig::capture_trace.
  std::vector<obs::TraceEvent> trace;
  /// Execution attempts the supervisor made for this cell (0 when the cell
  /// was quarantined without running, 1 for a plain Campaign::run).
  unsigned attempts = 1;
  /// ReHype recovery ran after a failure/crash and its post-audit was clean.
  bool recovered = false;
  /// The supervisor refused to run the cell after repeated failures of the
  /// same use case.
  bool quarantined = false;
  /// Why the cell failed (escaped exception or budget overrun); empty on a
  /// normally-completed cell. Distinct from outcome.rc, which reports what
  /// the *attempt* observed.
  std::string failure;
  [[nodiscard]] bool handled() const { return err_state && !violation; }
  [[nodiscard]] bool failed() const { return !failure.empty(); }
};

struct CampaignConfig {
  std::vector<hv::XenVersion> versions{hv::kXen46, hv::kXen48, hv::kXen413};
  std::vector<Mode> modes{Mode::Exploit, Mode::Injection};
  /// Base platform shape; version/injector fields are overridden per cell.
  guest::PlatformConfig platform{};
  /// Record full event traces per cell (counters are always collected).
  bool capture_trace = false;
  /// Ring size when capturing. Sized for the busiest paper cell (the
  /// XSA-212 grooming exploit emits ~20k events); ~32 B/event, per cell.
  std::size_t trace_capacity = 65536;
  /// Report wall_us as the cell's emitted trace-event count instead of the
  /// wall clock. Trace steps carry no time, so with this set the rendered
  /// CSV is byte-identical across runs and thread counts — the property the
  /// supervisor's resume machinery depends on.
  bool logical_time = false;
  /// After a failed cell — escaped exception, tripped budget, hypervisor
  /// panic or wedged CPU — run Hypervisor::recover() and record whether the
  /// post-recovery invariant audit came back clean (CellResult::recovered).
  bool attempt_recovery = false;
  /// Deterministic per-cell watchdog: fail the cell once it emits more than
  /// this many HypercallEnter events (0 = unlimited). With reuse_platforms
  /// the budget covers exactly the cell's own execution; without it, the
  /// whole cell including platform boot.
  std::uint64_t max_cell_hypercalls = 0;
  /// Same watchdog over total trace steps (0 = unlimited).
  std::uint64_t max_cell_steps = 0;
  /// Keep one warm platform per (version, mode), snapshotted once and
  /// delta-restored to its boot baseline before every cell instead of
  /// re-booting from scratch. The per-cell trace sink is attached only
  /// after the rewind, so a cell's trace, counters and budget accounting
  /// cover exactly its own execution — identical whether the platform was
  /// freshly built or reused, and identical under run() and the supervisor.
  /// When false, every cell boots a private platform and the sink observes
  /// the boot as well (the pre-reuse behaviour).
  bool reuse_platforms = true;
  /// Optional span profiler (null = instrumentation costs one branch per
  /// site). run_cell records cell/{acquire,restore,inject,monitor,recover}
  /// spans whose counts and steps are deterministic per cell — trace-sink
  /// step deltas and rewind frame counts, never wall time — so the
  /// aggregated tree is identical under run() and the supervisor at any
  /// thread count (the supervisor gives each worker a private lane profiler
  /// and merges them here after the join).
  obs::SpanProfiler* profiler = nullptr;
  /// Optional live status board: run() and the supervisor publish cells done/total, per-worker heartbeats and retry/quarantine
  /// counts; preflight forwards it to the model checker.
  obs::StatusBoard* status = nullptr;
};

/// One warm platform per (version, injector) pair, each parked at its
/// captured boot baseline. Owned by a single worker (not thread-safe):
/// Campaign::run keeps one for the whole matrix, and the supervisor one per
/// worker. run_cell rewinds a leased platform back to the baseline when the
/// cell finishes, so a pooled platform is always clean between cells.
class PlatformPool {
 public:
  struct Entry {
    std::unique_ptr<guest::VirtualPlatform> platform;
    guest::PlatformBaseline baseline;
    bool warm = false;  ///< a previous cell already ran on this platform
  };

  /// Return the pooled platform for `config`, building it (sink-less) and
  /// capturing its baseline on first use. The entry stays pool-owned.
  Entry& lease(const guest::PlatformConfig& config);

  /// Drop every pooled platform so the next lease boots fresh — the last
  /// rung of the supervisor's escalation ladder (a use case that failed
  /// its way into quarantine may have poisoned the warm platforms it ran
  /// on; later use cases must not inherit them).
  void clear() { pool_.clear(); }

 private:
  std::map<std::pair<hv::XenVersion, bool>, Entry> pool_;
};

/// What Campaign::preflight concluded for one configured version.
struct PreflightVersionReport {
  hv::XenVersion version{};
  /// Policy carries at least one of the modelled XSA knobs, so the bounded
  /// space is *expected* to reach an erroneous state.
  bool expected_vulnerable = false;
  /// States the bounded check actually reached / flagged.
  std::uint64_t states_explored = 0;
  std::uint64_t violations_found = 0;
  bool reached_xsa = false;  ///< at least one recognized XSA class
  /// The exploration hit max_states before covering the bounded space.
  bool truncated = false;
  /// The version matches its expectation: vulnerable versions reach an XSA
  /// class, patched versions admit no violation at all. A truncated clean
  /// run is NOT ok — "no violation found" proves nothing about the part of
  /// the space the check never visited (same rule as analysis_cli
  /// --expect clean).
  [[nodiscard]] bool ok() const {
    return expected_vulnerable ? reached_xsa
                               : violations_found == 0 && !truncated;
  }
};

/// Bounded model check of every configured version policy (src/analysis),
/// run before any campaign cell executes.
struct PreflightReport {
  unsigned depth = 0;
  std::vector<PreflightVersionReport> versions;
  /// All versions matched expectations; campaign verdicts over these
  /// policies are meaningful.
  [[nodiscard]] bool ok() const {
    for (const auto& v : versions)
      if (!v.ok()) return false;
    return !versions.empty();
  }
};

class Campaign {
 public:
  explicit Campaign(CampaignConfig config) : config_{std::move(config)} {}

  /// Model-check each configured version's policy up to `depth` before
  /// running any cell: a patched policy that reaches an XSA erroneous state
  /// (or a vulnerable one that cannot) means the campaign's spec and the
  /// validation engine disagree, and every cell verdict would be suspect.
  /// `threads` shards the checker's frontier (0 = hardware concurrency);
  /// the verdict is identical at any count.
  [[nodiscard]] PreflightReport preflight(unsigned depth = 2,
                                          unsigned threads = 0) const;

  /// Run every (use case × version × mode) cell.
  [[nodiscard]] std::vector<CellResult> run(
      const std::vector<std::unique_ptr<UseCase>>& cases) const;

  /// Run a single cell on a fresh platform (a one-shot pool).
  [[nodiscard]] CellResult run_cell(UseCase& use_case, hv::XenVersion version,
                                    Mode mode) const;

  /// Run a single cell, leasing the platform from `pool` when
  /// reuse_platforms is set (the pool is untouched otherwise). Callers that
  /// run many cells — run() and the supervisor's workers — pass
  /// a long-lived pool so consecutive cells share warm platforms.
  [[nodiscard]] CellResult run_cell(UseCase& use_case, hv::XenVersion version,
                                    Mode mode, PlatformPool& pool) const;

  /// Same, recording spans into `profiler` instead of config().profiler —
  /// the per-worker-lane entry point used by the supervisor (profilers are
  /// single-writer, like trace sinks).
  [[nodiscard]] CellResult run_cell(UseCase& use_case, hv::XenVersion version,
                                    Mode mode, PlatformPool& pool,
                                    obs::SpanProfiler* profiler) const;

 private:
  /// The attempt + audit + optional recovery on an already-built platform.
  /// Exception-contained: use-case failures land in `cell.failure`.
  void run_attempt(CellResult& cell, UseCase& use_case,
                   guest::VirtualPlatform& platform, Mode mode,
                   obs::TraceSink& sink, obs::SpanProfiler* profiler) const;

  CampaignConfig config_;
};

}  // namespace ii::core
