// check_d4_t1 / check_d4_t4: run_model_check on Xen 4.6 at depth 4 in its
// default 64-frame configuration, with 1 or 4 workers. The unit of work is
// one exhaustive check. The check is exhaustive, so it ignores the seed.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/model_checker.hpp"
#include "harness.hpp"
#include "hv/hypervisor.hpp"
#include "hv/snapshot.hpp"
#include "obs/span.hpp"
#include "probes.hpp"
#include "sim/phys_mem.hpp"

namespace perfbench {
namespace {

using namespace ii;

constexpr unsigned kDepth = 4;

analysis::ModelCheckConfig check_config(unsigned threads) {
  analysis::ModelCheckConfig config;
  config.version = hv::kXen46;
  config.depth = kDepth;
  config.threads = threads;
  return config;
}

/// Why a check's output is wrong, or empty: it must cover the bounded
/// space, reach the paper's three memory XSAs and render the reference
/// report byte for byte.
std::string check_result(const analysis::ModelCheckResult& r,
                         const std::string& expected_report) {
  if (r.truncated) return "check truncated at max_states";
  for (const auto c : {analysis::ErroneousStateClass::Xsa148SuperpageWindow,
                       analysis::ErroneousStateClass::Xsa182WritableSelfMap,
                       analysis::ErroneousStateClass::Xsa212IdtClobber}) {
    if (!r.reached(c)) return "check did not reach " + analysis::to_string(c);
  }
  if (analysis::render_report(r) != expected_report) {
    return "report differs from the 1-worker reference (" +
           std::to_string(r.threads_used) + " workers)";
  }
  return {};
}

/// Slowest-worker wall time of each engine phase, summed over depths, and
/// the time the other workers waited for the slowest.
struct Phases {
  double produce_s = 0, admit_s = 0, settle_s = 0, wait_s = 0;
};

void add_phases(const obs::SpanProfiler& profiler, Phases& out) {
  const auto check = profiler.root().children.find(obs::kSpanCheck);
  if (check == profiler.root().children.end()) return;
  for (const auto& [depth_name, depth] : check->second->children) {
    const auto add = [&](std::string_view phase, double& total) {
      const auto it = depth->children.find(phase);
      if (it == depth->children.end()) return;
      std::vector<double> lanes;
      for (const auto& [lane, node] : it->second->children) {
        lanes.push_back(static_cast<double>(node->wall_ns) * 1e-9);
      }
      if (lanes.empty()) return;
      const double slowest = *std::max_element(lanes.begin(), lanes.end());
      total += slowest;
      for (const double lane_s : lanes) out.wait_s += slowest - lane_s;
    };
    add(obs::kSpanProduce, out.produce_s);
    add(obs::kSpanAdmit, out.admit_s);
    add(obs::kSpanSettle, out.settle_s);
  }
}

/// A machine of the checker's shape (ModelCheckConfig defaults): 64 frames,
/// dom0 and one guest of 16 pages each.
struct CheckerMachine {
  explicit CheckerMachine(const analysis::ModelCheckConfig& config)
      : mem{config.machine_frames},
        vmm{mem, hv::VersionPolicy::for_version(config.version)} {
    (void)vmm.create_domain("dom0", /*privileged=*/true, config.dom0_pages);
    guest = vmm.create_domain("guest1", /*privileged=*/false,
                              config.domain_pages);
    root = vmm.snapshot();
  }
  sim::PhysicalMemory mem;
  hv::Hypervisor vmm;
  hv::DomainId guest = hv::kDomInvalid;
  hv::HvSnapshot root;
};

}  // namespace

void run_check_d4(const Args& args, unsigned threads, Report& report) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, cores);
  const analysis::ModelCheckConfig config = check_config(threads);
  report.set_machine_frames(config.machine_frames);
  report.row("check.seed_ignored", 1, "count", "count",
             {{"note", json_string("the check is exhaustive; --seed is "
                                   "recorded but not used")}});

  // The 1-worker and 4-worker reference checks, whose reports must agree
  // byte for byte; every measured check is compared with them.
  const analysis::ModelCheckResult one =
      analysis::run_model_check(check_config(1));
  const analysis::ModelCheckResult four =
      analysis::run_model_check(check_config(std::min(4u, cores)));
  const std::string reference = analysis::render_report(one);
  const double serial_restores =
      static_cast<double>(one.delta_restores + one.full_restores);
  for (const auto* r : {&one, &four}) {
    report.attempted(1);
    const std::string problem = check_result(*r, reference);
    if (!problem.empty()) report.failed(1, problem);
  }

  // Set-up: the work run_model_check does before it explores, one
  // checker-shaped machine booted and snapshotted per worker. A set-up takes
  // about half a millisecond per worker, so its time is the median of many.
  std::vector<double> setup_s;
  const Clock::time_point setup_start = Clock::now();
  while (setup_s.size() < 50 ||
         (setup_s.size() < 5000 &&
          seconds_between(setup_start, Clock::now()) < 0.5)) {
    std::vector<std::unique_ptr<CheckerMachine>> machines;
    const double cpu0 = process_cpu_s();
    for (unsigned w = 0; w < threads; ++w) {
      machines.push_back(std::make_unique<CheckerMachine>(config));
    }
    setup_s.push_back(process_cpu_s() - cpu0);
  }

  // Wall and CPU seconds of every check, until `seconds` have passed.
  const auto run_checks = [&](double seconds, bool profiled,
                              std::vector<double>& check_s,
                              std::vector<double>& check_cpu_s,
                              Phases* phases,
                              analysis::ModelCheckResult* last) {
    const Clock::time_point start = Clock::now();
    do {
      analysis::ModelCheckConfig c = config;
      obs::SpanProfiler profiler;
      if (profiled) c.profiler = &profiler;
      const double cpu0 = process_cpu_s();
      const Clock::time_point t0 = Clock::now();
      analysis::ModelCheckResult r = analysis::run_model_check(c);
      check_s.push_back(seconds_between(t0, Clock::now()));
      check_cpu_s.push_back(process_cpu_s() - cpu0);
      report.attempted(1);
      const std::string problem = check_result(r, reference);
      if (!problem.empty()) report.failed(1, problem);
      if (phases != nullptr) add_phases(profiler, *phases);
      if (last != nullptr) *last = std::move(r);
    } while (seconds_between(start, Clock::now()) < seconds);
  };

  std::vector<double> check_s;
  std::vector<double> check_cpu_s;
  analysis::ModelCheckResult result;
  run_checks(args.seconds, false, check_s, check_cpu_s, nullptr, &result);
  const std::string name = "check.t" + std::to_string(threads) + "_s";

  if (!args.trace) {
    // The serial check runs on the calling thread, so its CPU time is its
    // duration less the host's preemption. The sharded engine's workers
    // idle while they wait for the slowest one, which CPU time does not
    // show, so a check with several workers is timed on the wall clock.
    const bool sharded = result.threads_used > 1;
    const std::vector<double>& unit_s = sharded ? check_s : check_cpu_s;
    std::vector<double> rate;
    for (const double s : unit_s) rate.push_back(1.0 / s);
    emit_end_to_end(report, setup_s, rate, 0.5, unit_s,
                    sharded ? "wall" : "process cpu");
    const std::string samples = std::to_string(check_s.size());
    report.row(name, median(check_s), "s", "e2e",
               {{"samples", samples},
                {"clock", json_string("wall")},
                {"states_explored", std::to_string(result.states_explored)},
                {"ops_applied", std::to_string(result.ops_applied)},
                {"workers", std::to_string(result.threads_used)}});
    report.row("check.cpu_s", median(check_cpu_s), "s", "e2e",
               {{"samples", samples},
                {"clock", json_string("process cpu")},
                {"workers", std::to_string(result.threads_used)}});
    return;
  }

  // Traced pass: the checker's own profiler attached to every check.
  std::vector<double> traced_s;
  std::vector<double> traced_cpu_s;
  Phases phases;
  run_checks(args.seconds, true, traced_s, traced_cpu_s, &phases, nullptr);
  const double n = static_cast<double>(traced_s.size());
  double traced_total = 0;
  for (const double s : traced_s) traced_total += s;
  const double traced_mean = traced_total / n;
  double untraced_total = 0;
  for (const double s : check_s) untraced_total += s;
  const double untraced_mean =
      untraced_total / static_cast<double>(check_s.size());

  // Probes on a machine of the checker's shape, paired with its counts.
  CheckerMachine machine{config};
  const LayerProbes probes =
      probe_layers(machine.vmm, machine.guest,
                   [&] { (void)machine.vmm.restore_delta(machine.root); });
  // State capture with one dirty frame: the serial engine keeps a delta per
  // queued state, the sharded engine a CoW forest node per candidate.
  hv::Hypervisor& vmm = machine.vmm;
  const sim::Paddr scratch = sim::mfn_to_paddr(
      *vmm.domain(machine.guest).p2m(hv::kFirstFreePfn));
  std::uint64_t stamp = 0;
  const double capture_s = time_per_call(
      [&] {
        const std::uint64_t marker = vmm.memory().generation();
        vmm.memory().write_u64(scratch, ++stamp);
        if (threads == 1) {
          (void)vmm.snapshot_delta(machine.root);
        } else {
          (void)vmm.snapshot_cow(machine.root, nullptr, marker);
        }
      },
      10, 0.05);
  (void)vmm.restore_delta(machine.root);

  const std::string run_base = json_string("traced check wall time");
  const auto phase_row = [&](std::string_view metric, double total_s) {
    report.row(metric, total_s / n * 1e3, "ms", "phase",
               {{"share", json_number(total_s / traced_total)},
                {"base", run_base}});
  };
  phase_row("analysis.produce_ms", phases.produce_s);
  phase_row("analysis.admit_ms", phases.admit_s);
  phase_row("analysis.settle_ms", phases.settle_s);
  phase_row("analysis.wait_ms", phases.wait_s);

  // Per-check layer work implied by the program's counts: every op
  // application is validated and hashed, every explored state is walked and
  // audited, every admitted state (serial) or candidate (sharded) is
  // captured. ModelCheckResult counts no CoW restores, so restores are the
  // serial engine's count over the same bounded space. Worker time is the
  // traced wall time times the workers.
  const double ops = static_cast<double>(result.ops_applied);
  const double states = static_cast<double>(result.states_explored);
  const double captures =
      threads == 1 ? states - static_cast<double>(result.violations_found)
                   : static_cast<double>(result.cow_captures);
  const double worker_s = traced_mean * result.threads_used;
  const std::string base =
      json_string("traced check wall time x workers; probe cost x count");
  const auto probe = [&](double per_call_s, double calls) {
    return LayerValue{per_call_s * 1e6, "probe",
                      {{"calls_per_unit", json_number(calls)},
                       {"share", json_number(per_call_s * calls / worker_s)},
                       {"base", base}}};
  };
  const LayerValue capture = probe(capture_s, captures);
  report.row("hv.capture.us", capture.value, "us", capture.kind,
             capture.extra);
  LayerMetrics m;
  m.hash_us = probe(probes.hash_s, ops);
  m.rewind_us = probe(probes.rewind_s, serial_restores);
  m.audit_us = probe(probes.invariant_audit_s, states);
  m.validate_us = probe(probes.validate_s, ops);
  m.walk_ns = {probes.walk_s * 1e9, "probe"};
  m.boot_ms = {median(setup_s) / threads * 1e3, "span",
               {{"samples", std::to_string(setup_s.size())},
                {"clock", json_string("process cpu")},
                {"note", json_string("checker-shaped machine + snapshot(), "
                                     "median set-up / workers")}}};
  m.hash_frames_rehashed_per_unit = {
      static_cast<double>(result.hash_frames_rehashed), "count"};
  m.rewind_frames_per_unit = {
      static_cast<double>(result.snapshot_frames_copied), "count"};
  m.validate_calls_per_unit = {ops, "count"};
  m.validate_refused_ratio = {
      ops == 0 ? 0.0 : static_cast<double>(result.failed_ops) / ops, "count"};
  m.hash_share = {probes.hash_s * ops / worker_s, "probe", {{"base", base}}};
  m.rewind_share = {probes.rewind_s * serial_restores / worker_s, "probe",
                    {{"base", base}}};
  const double new_states = states - 1;  // the root is not a candidate
  m.captures_per_state = {
      static_cast<double>(result.cow_captures) / states, "count"};
  m.admit_ratio = {
      new_states / (new_states + static_cast<double>(result.states_deduped)),
      "count"};
  m.peak_frontier_mb = {
      static_cast<double>(result.peak_frontier_bytes) / (1024.0 * 1024.0),
      "count"};
  const double layer_s = probes.hash_s * ops + probes.validate_s * ops +
                         probes.invariant_audit_s * states +
                         probes.rewind_s * serial_restores +
                         capture_s * captures;
  m.unexplained_share = {1.0 - layer_s / worker_s, "probe", {{"base", base}}};
  m.trace_overhead = {traced_mean / untraced_mean, "phase",
                      {{"untraced_check_s", json_number(untraced_mean)},
                       {"traced_check_s", json_number(traced_mean)}}};
  emit_layer_metrics(report, m);
}

}  // namespace perfbench
