#include "core/campaign.hpp"

#include <chrono>
#include <new>

#include "analysis/model_checker.hpp"
#include "core/chaos.hpp"
#include "hv/recovery.hpp"

namespace ii::core {

std::string to_string(Mode mode) {
  return mode == Mode::Exploit ? "exploit" : "injection";
}

PreflightReport Campaign::preflight(unsigned depth, unsigned threads) const {
  PreflightReport report;
  report.depth = depth;
  for (const hv::XenVersion version : config_.versions) {
    const hv::VersionPolicy policy = hv::VersionPolicy::for_version(version);

    analysis::ModelCheckConfig mc;
    mc.version = version;
    mc.depth = depth;
    mc.threads = threads;
    mc.profiler = config_.profiler;
    mc.status = config_.status;
    const analysis::ModelCheckResult result = analysis::run_model_check(mc);

    PreflightVersionReport v;
    v.version = version;
    // The grant-downgrade leak is excluded: grant ops are not in the
    // default alphabet (model_checker.hpp), so only the memory XSAs decide
    // the expectation.
    v.expected_vulnerable = policy.xsa148_l2_pse_unvalidated ||
                            policy.xsa182_l4_fastpath_unvalidated ||
                            policy.xsa212_unchecked_exchange_output;
    v.states_explored = result.states_explored;
    v.violations_found = result.violations_found;
    v.truncated = result.truncated;
    v.reached_xsa =
        result.reached(analysis::ErroneousStateClass::Xsa148SuperpageWindow) ||
        result.reached(analysis::ErroneousStateClass::Xsa182WritableSelfMap) ||
        result.reached(analysis::ErroneousStateClass::Xsa212IdtClobber) ||
        result.reached(analysis::ErroneousStateClass::Xsa387StaleGrantStatus);
    report.versions.push_back(v);
  }
  return report;
}

PlatformPool::Entry& PlatformPool::lease(const guest::PlatformConfig& config) {
  const auto key = std::make_pair(config.version, config.injector_enabled);
  auto it = pool_.find(key);
  if (it == pool_.end()) {
    // Build sink-less and capture the baseline before any cell touches the
    // platform; a construction failure leaves no half-built pool entry.
    Entry entry;
    entry.platform = std::make_unique<guest::VirtualPlatform>(config);
    entry.baseline = entry.platform->baseline();
    it = pool_.emplace(key, std::move(entry)).first;
  }
  return it->second;
}

namespace {

/// Scope guard for one pooled cell: on exit — normal or unwinding — detach
/// the cell's sink and span profiler and rewind the platform to the pool
/// baseline, so the pool never retains a dirty platform or a dangling
/// observer pointer. The rewind is timed as the cell's restore span (its
/// deterministic step count — frames copied — is added by run_cell from
/// the snapshot stats afterwards).
struct Lease {
  guest::VirtualPlatform& platform;
  const guest::PlatformBaseline& baseline;
  obs::SpanProfiler* profiler;
  ~Lease() {
    platform.hv().set_trace_sink(nullptr);
    platform.hv().set_span_profiler(nullptr);
    const obs::ScopedSpan restore_span{profiler, obs::kSpanRestore};
    platform.restore(baseline);
  }
};

}  // namespace

void Campaign::run_attempt(CellResult& cell, UseCase& use_case,
                           guest::VirtualPlatform& platform, Mode mode,
                           obs::TraceSink& sink,
                           obs::SpanProfiler* profiler) const {
  try {
    {
      // Step source = the cell's sink, so inject/monitor steps are the
      // trace events each phase emitted — deterministic, and credited even
      // when the phase throws (the delta is read in the span destructor).
      const obs::ScopedSpan inject_span{profiler, obs::kSpanInject,
                                        obs::SpanKind::Det, &sink};
      cell.outcome = mode == Mode::Exploit ? use_case.run_exploit(platform)
                                           : use_case.run_injection(platform);
    }
    const obs::ScopedSpan monitor_span{profiler, obs::kSpanMonitor,
                                       obs::SpanKind::Det, &sink};
    cell.err_state = use_case.erroneous_state_present(platform);
    cell.violation = use_case.security_violation(platform);
  } catch (const std::exception& e) {
    // Per-cell isolation: a throwing use case (or a tripped budget
    // watchdog) fails this cell, never the campaign.
    cell.failure = e.what();
    cell.outcome.completed = false;
    cell.outcome.notes.push_back("cell failed: " + cell.failure);
  } catch (...) {
    cell.failure = "non-standard exception";
    cell.outcome.completed = false;
    cell.outcome.notes.push_back("cell failed: " + cell.failure);
  }
  if (config_.attempt_recovery &&
      (cell.failed() || platform.hv().crashed() || platform.hv().cpu_hung())) {
    // Lift the budget before recovering: the watchdog's trip point is
    // deterministic, so everything after it is too, and recovery must be
    // able to emit its own events.
    sink.set_budget(0, 0);
    // The hypervisor's own recovery phases (pre_audit, idt, frame_table,
    // p2m, domains, grants, post_audit) nest under this span — the
    // platform's profiler is this same instance.
    const obs::ScopedSpan recover_span{profiler, obs::kSpanRecover,
                                       obs::SpanKind::Det, &sink};
    try {
      const hv::RecoveryReport rec = platform.hv().recover();
      cell.recovered = rec.succeeded();
      // Re-audit on the recovered platform: the cell now measures whether
      // the erroneous state survived the micro-reboot.
      cell.err_state = use_case.erroneous_state_present(platform);
      cell.violation = use_case.security_violation(platform);
    } catch (const std::exception& e) {
      cell.outcome.notes.push_back("recovery failed: " +
                                   std::string{e.what()});
    }
  }
}

CellResult Campaign::run_cell(UseCase& use_case, hv::XenVersion version,
                              Mode mode) const {
  PlatformPool pool;
  return run_cell(use_case, version, mode, pool);
}

CellResult Campaign::run_cell(UseCase& use_case, hv::XenVersion version,
                              Mode mode, PlatformPool& pool) const {
  return run_cell(use_case, version, mode, pool, config_.profiler);
}

CellResult Campaign::run_cell(UseCase& use_case, hv::XenVersion version,
                              Mode mode, PlatformPool& pool,
                              obs::SpanProfiler* prof) const {
  // One sink per cell: the platform is private to the cell while it runs,
  // so the sink needs no locking, and seq numbers restart at 0 — traces are
  // identical no matter which worker thread ran the cell. With
  // capture_trace off the ring mask is 0: only the cheap counters advance.
  obs::TraceSink sink{config_.trace_capacity,
                      config_.capture_trace ? obs::kAllCategories : 0u};
  sink.set_budget(config_.max_cell_hypercalls, config_.max_cell_steps);

  guest::PlatformConfig pc = config_.platform;
  pc.version = version;
  // The exploit runs against a stock hypervisor; the injection against the
  // patched build — keeping each mode's environment honest.
  pc.injector_enabled = mode == Mode::Injection;

  CellResult cell;
  cell.use_case = use_case.name();
  cell.version = version;
  cell.mode = mode;

  bool reused = false;
  hv::SnapshotStats snap{};
  const obs::ScopedSpan cell_span{prof, obs::kSpanCell};
  // ii-analyze:allow(determinism): wall_us is wall-clock by contract; the
  // deterministic runs use --logical-time, which bypasses this reading.
  const auto start = std::chrono::steady_clock::now();
  try {
    // Chaos cell.alloc_fail: platform/guest allocation fails during cell
    // setup. Thrown before any platform is touched, so it exercises the
    // same containment path as a real bad_alloc out of lease(): the catch
    // below turns it into a failed cell for the supervisor's retry ladder.
    if (chaos_fire("cell.alloc_fail")) throw std::bad_alloc{};
    if (config_.reuse_platforms) {
      // Lease a pooled platform parked at its boot baseline; the sink is
      // attached only now, so the trace covers exactly the cell's own
      // execution whether the platform is fresh or reused.
      pc.trace_sink = nullptr;
      PlatformPool::Entry* entry = nullptr;
      {
        const obs::ScopedSpan acquire_span{prof, obs::kSpanAcquire};
        entry = &pool.lease(pc);
      }
      reused = entry->warm;
      entry->warm = true;
      guest::VirtualPlatform& platform = *entry->platform;
      platform.hv().reset_snapshot_stats();
      platform.hv().set_trace_sink(&sink);
      platform.hv().set_span_profiler(prof);
      {
        Lease lease{platform, entry->baseline, prof};
        run_attempt(cell, use_case, platform, mode, sink, prof);
      }
      // The release rewind runs inside the stats window: frames_copied is
      // then the set of frames *this cell* dirtied, independent of which
      // cells the worker ran before — serial and parallel runs agree.
      snap = platform.hv().snapshot_stats();
      if (prof != nullptr) {
        // The restore span's deterministic step count: the rewind copies
        // exactly the frames this cell dirtied.
        prof->add({obs::kSpanCell, obs::kSpanRestore}, 0, snap.frames_copied);
      }
    } else {
      std::unique_ptr<guest::VirtualPlatform> owned;
      {
        const obs::ScopedSpan acquire_span{prof, obs::kSpanAcquire};
        pc.trace_sink = &sink;
        owned = std::make_unique<guest::VirtualPlatform>(pc);
      }
      guest::VirtualPlatform& platform = *owned;
      platform.hv().set_span_profiler(prof);
      run_attempt(cell, use_case, platform, mode, sink, prof);
      platform.hv().set_span_profiler(nullptr);
    }
  } catch (const std::exception& e) {
    // Platform construction itself failed; there is nothing to audit.
    cell.failure = e.what();
    cell.outcome.completed = false;
  } catch (...) {
    cell.failure = "non-standard exception";
    cell.outcome.completed = false;
  }
  cell.wall_us =
      config_.logical_time
          ? sink.emitted()
          : static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    // ii-analyze:allow(determinism): the non-logical-time
                    // branch is wall-clock by contract.
                    std::chrono::steady_clock::now() - start)
                    .count());
  cell.hypercalls = sink.count(obs::TraceCategory::HypercallEnter);
  cell.metrics = obs::sink_metrics(sink);
  if (config_.reuse_platforms) {
    cell.metrics.counters["snapshot.frames_copied"] += snap.frames_copied;
    cell.metrics.counters["hash.frames_rehashed"] += snap.frames_rehashed;
    cell.metrics.counters["cell.reuse_hits"] += reused ? 1 : 0;
  }
  if (config_.capture_trace) cell.trace = sink.ring().snapshot();
  return cell;
}

std::vector<CellResult> Campaign::run(
    const std::vector<std::unique_ptr<UseCase>>& cases) const {
  std::vector<CellResult> results;
  PlatformPool pool;  // shared across the whole matrix: one boot per cfg
  obs::StatusBoard* const status = config_.status;
  if (status != nullptr) {
    status->campaign_begin(
        cases.size() * config_.versions.size() * config_.modes.size(), 1);
  }
  for (const auto& use_case : cases) {
    for (const hv::XenVersion version : config_.versions) {
      for (const Mode mode : config_.modes) {
        results.push_back(run_cell(*use_case, version, mode, pool));
        if (status != nullptr) status->cell_done(0, results.back().failed());
      }
    }
  }
  if (status != nullptr) status->campaign_end();
  return results;
}

}  // namespace ii::core
