// fuzz_guided: run_sequence_fuzzer on Xen 4.6, guided, minimizer on, on
// fuzz_cli's default machine, seeded from the benchmark's --seed. The unit
// of work is one fuzzer iteration; the fuzzer's loop is internal, so
// iterations are timed in whole runs of kIterations (including the
// fuzzer's own boot and every minimizer execution).
#include <algorithm>
#include <array>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/model_checker.hpp"
#include "core/fuzz.hpp"
#include "core/injector.hpp"
#include "harness.hpp"
#include "hv/audit.hpp"
#include "hv/recovery.hpp"
#include "obs/span.hpp"
#include "probes.hpp"

namespace perfbench {
namespace {

using namespace ii;

/// Iterations per fuzzer run: past the corpus warm-up (by 1000 iterations
/// the corpus is within a few entries of its 64-entry cap), so the run
/// includes steady-state mutation and minimization.
constexpr unsigned kIterations = 1000;

/// Fuzzer runs per benchmark run: a fixed panel of seeds, so a faster
/// program measures the same seeds rather than more of them. A run took
/// about 2 s of CPU (1.4 to 6.3 s over 40 seeds) on the 4-vCPU Xeon host the
/// panel was sized on, so the panel holds one seed per 2 s of --seconds.
unsigned panel_size(unsigned seconds) { return std::max(3u, seconds / 2); }

core::SeqFuzzConfig fuzz_config(std::uint64_t seed) {
  core::SeqFuzzConfig config;
  config.version = hv::kXen46;
  config.iterations = kIterations;
  config.seed = seed;
  config.guided = true;
  config.minimize = true;
  // fuzz_cli's default machine.
  config.platform.machine_frames = 8192;
  config.platform.dom0_pages = 128;
  config.platform.guest_pages = 64;
  return config;
}

guest::PlatformConfig fuzz_platform(const core::SeqFuzzConfig& config) {
  guest::PlatformConfig pc = config.platform;
  pc.version = config.version;
  pc.injector_enabled = true;
  return pc;
}

/// What must repeat exactly across runs at one seed.
struct Fingerprint {
  std::size_t coverage_points = 0;
  std::size_t survivors = 0;
  std::uint64_t render_hash = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint fingerprint(core::SeqFuzzStats stats) {
  // Corpus file names appear in the render only when the run persisted
  // its corpus; drop them so traced and untraced runs compare.
  for (core::Survivor& s : stats.survivors) s.file.clear();
  return {stats.coverage_points, stats.survivors.size(),
          fnv1a(stats.render())};
}

std::string to_string(const Fingerprint& f) {
  return "coverage " + std::to_string(f.coverage_points) + ", survivors " +
         std::to_string(f.survivors) + ", render " +
         std::to_string(f.render_hash);
}

/// One trace op through the guest-facing interfaces, as the fuzzer's
/// executor issues it.
long apply_op(guest::VirtualPlatform& platform, const core::FuzzOp& op) {
  using Kind = core::FuzzOp::Kind;
  hv::Hypervisor& vmm = platform.hv();
  guest::GuestKernel& attacker = platform.guest(0);
  const hv::DomainId caller = attacker.id();
  switch (op.kind) {
    case Kind::ArbitraryWrite: {
      core::ArbitraryAccessInjector injector{attacker};
      if (injector.write_u64(op.addr, op.value, core::AddressMode::Physical)) {
        return hv::kOk;
      }
      return injector.last_rc() != hv::kOk ? injector.last_rc() : hv::kEINVAL;
    }
    case Kind::MmuUpdate: {
      const hv::MmuUpdate req{op.addr | hv::kMmuNormalPtUpdate, op.value};
      return vmm.hypercall_mmu_update(caller, std::span{&req, 1});
    }
    case Kind::Pin: {
      const auto cmd = static_cast<hv::MmuExtCmd>(
          static_cast<int>(hv::MmuExtCmd::PinL1Table) + op.level - 1);
      return vmm.hypercall_mmuext_op(caller,
                                     hv::MmuExtOp{cmd, sim::Mfn{op.mfn}});
    }
    case Kind::Unpin:
      return vmm.hypercall_mmuext_op(
          caller, hv::MmuExtOp{hv::MmuExtCmd::UnpinTable, sim::Mfn{op.mfn}});
    case Kind::NewBaseptr:
      return vmm.hypercall_mmuext_op(
          caller, hv::MmuExtOp{hv::MmuExtCmd::NewBaseptr, sim::Mfn{op.mfn}});
    case Kind::Exchange: {
      hv::MemoryExchange exch{{sim::Pfn{op.pfn}}, sim::Vaddr{op.out}, 0};
      return vmm.hypercall_memory_exchange(caller, exch);
    }
    case Kind::GrantSetVersion:
      return vmm.grants().set_version(caller, op.version);
    case Kind::GrantAccess:
      return vmm.grants().grant_access(caller, op.gref, hv::kDom0,
                                       sim::Pfn{op.pfn}, /*readonly=*/false);
    case Kind::GrantEndAccess:
      return vmm.grants().end_access(caller, op.gref);
  }
  return hv::kEINVAL;
}

/// The fuzzer's activation workload: reads, a page fault, two software
/// interrupts and the event loop, issued by the attacking guest.
void activate(guest::GuestKernel& attacker) {
  std::array<std::uint8_t, 8> buf{};
  for (unsigned i = 0; i < 4; ++i) {
    const sim::Pfn pfn{guest::kFirstFreePfn.raw() + i};
    (void)attacker.read_virt(attacker.pfn_va(pfn), buf);
  }
  (void)attacker.read_virt(sim::Vaddr{0xDEAD000000ULL}, buf);
  (void)attacker.software_interrupt(3);
  (void)attacker.software_interrupt(14);
  (void)attacker.handle_events();
}

/// Span time per layer over a set of re-executed traces.
struct LayerTimes {
  double traces = 0;
  double rewind_s = 0, validate_s = 0, activate_s = 0, audit_s = 0,
         classify_s = 0, hash_s = 0;

  [[nodiscard]] double total_s() const {
    return rewind_s + validate_s + activate_s + audit_s + classify_s + hash_s;
  }
  /// Mean seconds per trace of one layer.
  [[nodiscard]] double per_trace(double LayerTimes::*layer) const {
    return traces == 0 ? 0.0 : this->*layer / traces;
  }
};

/// A trace file of the traced run: a final corpus entry or a survivor.
struct PersistedTrace {
  core::CorpusEntry entry;
  bool survivor = false;
};

/// Span totals of re-executing every persisted trace on one warm machine,
/// kept apart for corpus entries and survivors.
struct Reexecution {
  LayerTimes corpus, survivors;
  std::uint64_t ops = 0, activations = 0, classifications = 0;
  double wall_s = 0;
  hv::SnapshotStats stats;
  LayerProbes probes;

  /// Both sets together.
  [[nodiscard]] LayerTimes all() const {
    LayerTimes t = corpus;
    t.traces += survivors.traces;
    t.rewind_s += survivors.rewind_s;
    t.validate_s += survivors.validate_s;
    t.activate_s += survivors.activate_s;
    t.audit_s += survivors.audit_s;
    t.classify_s += survivors.classify_s;
    t.hash_s += survivors.hash_s;
    return t;
  }
};

Reexecution reexecute(const core::SeqFuzzConfig& config,
                      const std::vector<PersistedTrace>& traces,
                      Report& report, std::vector<double>& boot_s) {
  Reexecution r;
  const Clock::time_point b0 = Clock::now();
  guest::VirtualPlatform platform{fuzz_platform(config)};
  const guest::PlatformBaseline baseline = platform.baseline();
  boot_s.push_back(seconds_between(b0, Clock::now()));
  hv::Hypervisor& vmm = platform.hv();
  vmm.reset_snapshot_stats();

  const Clock::time_point loop_start = Clock::now();
  for (const PersistedTrace& trace : traces) {
    const core::CorpusEntry& entry = trace.entry;
    const Clock::time_point t0 = Clock::now();
    (void)platform.restore(baseline);
    const Clock::time_point t1 = Clock::now();
    unsigned refused = 0;
    for (const core::FuzzOp& op : entry.ops) {
      refused += apply_op(platform, op) != hv::kOk ? 1 : 0;
      ++r.ops;
      if (vmm.crashed() || vmm.cpu_hung()) break;
    }
    const Clock::time_point t2 = Clock::now();
    if (!vmm.crashed() && !vmm.cpu_hung()) {
      activate(platform.guest(0));
      ++r.activations;
    }
    const Clock::time_point t3 = Clock::now();

    core::FuzzOutcome outcome = core::FuzzOutcome::NoObservableEffect;
    std::vector<analysis::ErroneousStateClass> classes;
    double classify_s = 0;
    if (vmm.crashed()) {
      outcome = core::FuzzOutcome::HostCrash;
    } else if (vmm.cpu_hung()) {
      outcome = core::FuzzOutcome::CpuHang;
    } else {
      const hv::SystemWalk walk = hv::walk_system(vmm);
      const hv::InvariantReport invariants =
          hv::InvariantAuditor{vmm}.audit(walk);
      if (!invariants.clean()) {
        outcome = core::FuzzOutcome::IsolationViolation;
        const Clock::time_point c0 = Clock::now();
        classes = analysis::classify_erroneous_state(vmm, walk, invariants);
        classify_s = seconds_between(c0, Clock::now());
        ++r.classifications;
      } else if (!hv::audit_system(vmm, walk).clean()) {
        outcome = core::FuzzOutcome::DetectedByAudit;
      } else if (!entry.ops.empty() && refused == entry.ops.size()) {
        outcome = core::FuzzOutcome::Refused;
      }
    }
    const Clock::time_point t4 = Clock::now();
    const std::uint64_t hash = vmm.state_hash();
    const Clock::time_point t5 = Clock::now();

    LayerTimes& t = trace.survivor ? r.survivors : r.corpus;
    ++t.traces;
    t.rewind_s += seconds_between(t0, t1);
    t.validate_s += seconds_between(t1, t2);
    t.activate_s += seconds_between(t2, t3);
    t.audit_s += seconds_between(t3, t4) - classify_s;
    t.classify_s += classify_s;
    t.hash_s += seconds_between(t4, t5);

    report.attempted(1);
    if (outcome != entry.outcome || classes != entry.classes ||
        hash != entry.state_hash) {
      report.failed(1, "re-executed trace of " +
                           std::to_string(entry.ops.size()) +
                           " ops did not reproduce its recorded result");
    }
  }
  r.wall_s = seconds_between(loop_start, Clock::now());
  r.stats = vmm.snapshot_stats();
  r.probes = probe_layers(vmm, platform.guest(0).id(),
                          [&] { (void)platform.restore(baseline); });
  return r;
}

/// Every trace file the fuzzer persisted (corpus_NNNN.trace for the final
/// corpus, survivor_NNNN.trace for survivors), in name order.
std::vector<PersistedTrace> load_corpus(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator{dir}) {
    if (e.is_regular_file()) files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<PersistedTrace> traces;
  for (const auto& file : files) {
    hv::XenVersion version{};
    auto entry = core::load_trace_file(file.string(), &version);
    if (!entry || version != hv::kXen46) {
      throw std::runtime_error{"unreadable trace file " + file.string()};
    }
    traces.push_back({std::move(*entry),
                      file.filename().string().starts_with("survivor_")});
  }
  return traces;
}

double phase_s(const obs::SpanNode& node, std::string_view child) {
  const auto it = node.children.find(child);
  return it == node.children.end()
             ? 0.0
             : static_cast<double>(it->second->wall_ns) * 1e-9;
}

}  // namespace

void run_fuzz_guided(const Args& args, Report& report) {
  const core::SeqFuzzConfig config = fuzz_config(args.seed);
  report.set_machine_frames(config.platform.machine_frames);

  // Set-up: boot and baseline a machine of the fuzzer's shape, the work
  // run_sequence_fuzzer does before its first iteration.
  std::vector<double> setup_s;
  std::vector<double> boot_s;
  for (unsigned s = 0; s < 5; ++s) {
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    guest::VirtualPlatform platform{fuzz_platform(config)};
    const guest::PlatformBaseline baseline = platform.baseline();
    boot_s.push_back(seconds_between(t0, Clock::now()));
    setup_s.push_back(process_cpu_s() - cpu0);
  }

  // Warm-up run: its fingerprint is the reference every later run at this
  // seed must repeat.
  const Fingerprint reference = fingerprint(core::run_sequence_fuzzer(config));
  const auto check = [&](const core::SeqFuzzConfig& run,
                         const core::SeqFuzzStats& stats) {
    report.attempted(kIterations);
    const std::string seed = "fuzzer run at seed " + std::to_string(run.seed);
    const Fingerprint got = fingerprint(stats);
    if (run.seed == args.seed && !(got == reference)) {
      report.failed(kIterations, seed + " gave " + to_string(got) +
                                     ", expected " + to_string(reference));
      return;
    }
    // The first survivor's stored trace must replay to its recorded result
    // on a freshly booted machine.
    if (!stats.survivors.empty()) {
      const core::CorpusEntry& entry = stats.survivors.front().entry;
      const core::TraceResult replay = core::replay_trace(run, entry.ops);
      if (replay.outcome != entry.outcome || replay.classes != entry.classes ||
          replay.state_hash != entry.state_hash) {
        report.failed(kIterations,
                      seed + ": first survivor did not replay to its result");
      }
    }
  };

  // The panel's first run uses the benchmark seed; the others use seeds
  // derived from it. A seed's cost per iteration depends on the states it
  // reaches (the audit walk of some states costs several times that of
  // others), so the metrics are medians over the panel. Only the fuzzer
  // runs are timed, not the checks.
  const unsigned panel = panel_size(args.seconds);
  std::vector<double> iter_s;
  std::uint64_t total_execs = 0;
  double wall_s = 0;
  double seed_run_s = 0;
  for (std::uint64_t k = 0; k < panel; ++k) {
    core::SeqFuzzConfig run = config;
    run.seed = k == 0 ? args.seed : core::rng_for(args.seed, k)();
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    const core::SeqFuzzStats stats = core::run_sequence_fuzzer(run);
    const double run_s = seconds_between(t0, Clock::now());
    const double run_cpu_s = process_cpu_s() - cpu0;
    const std::uint64_t run_execs = kIterations + stats.minimizer_execs;
    iter_s.push_back(run_cpu_s / kIterations);
    total_execs += run_execs;
    wall_s += run_s;
    if (k == 0) seed_run_s = run_s;
    check(run, stats);
  }
  const std::uint64_t iterations = iter_s.size() * kIterations;
  const Fields run_fields{{"runs", std::to_string(iter_s.size())},
                          {"clock", json_string("wall")},
                          {"iterations_per_run", std::to_string(kIterations)},
                          {"coverage_points",
                           std::to_string(reference.coverage_points)},
                          {"survivors", std::to_string(reference.survivors)}};

  if (!args.trace) {
    std::vector<double> rate;
    for (const double s : iter_s) rate.push_back(1.0 / s);
    emit_end_to_end(report, setup_s, rate, 0.5, iter_s, "process cpu");
    report.row("fuzz.iters_per_s", static_cast<double>(iterations) / wall_s,
               "iterations/s", "e2e", run_fields);
    report.row("fuzz.execs_per_s", static_cast<double>(total_execs) / wall_s,
               "executions/s", "e2e", run_fields);
    return;
  }

  // Traced run: the fuzzer's own profiler attached and its corpus and
  // survivors persisted to this run's private directory.
  if (args.scratch_dir.empty()) {
    throw std::runtime_error{"the traced fuzz run needs --scratch-dir"};
  }
  const std::filesystem::path corpus_dir =
      std::filesystem::path{args.scratch_dir} / "corpus";
  core::SeqFuzzConfig traced = config;
  traced.corpus_dir = corpus_dir.string();
  obs::SpanProfiler profiler;
  traced.profiler = &profiler;
  const Clock::time_point t0 = Clock::now();
  const core::SeqFuzzStats stats = core::run_sequence_fuzzer(traced);
  const double traced_s = seconds_between(t0, Clock::now());
  check(config, stats);
  if (stats.corpus_write_failures != 0) {
    report.failed(1, "corpus writes failed");
  }

  const auto fuzz_it = profiler.root().children.find(obs::kSpanFuzz);
  if (fuzz_it == profiler.root().children.end()) {
    throw std::runtime_error{"fuzzer profile has no fuzz span"};
  }
  const obs::SpanNode& fuzz = *fuzz_it->second;
  const double fuzz_s = static_cast<double>(fuzz.wall_ns) * 1e-9;
  const double exec_s = phase_s(fuzz, obs::kSpanFuzzExec);
  const double minimize_s = phase_s(fuzz, obs::kSpanFuzzMinimize);
  const double corpus_s = phase_s(fuzz, obs::kSpanFuzzCorpus);
  const double sched_s = fuzz_s - exec_s - minimize_s - corpus_s;
  const std::string run_base = json_string("traced fuzzer run wall time");
  const auto phase_row = [&](std::string_view name, double s) {
    report.row(name, s * 1e3, "ms", "phase",
               {{"share", json_number(s / traced_s)}, {"base", run_base}});
  };
  phase_row("core.fuzz.exec_ms", exec_s);
  phase_row("core.fuzz.minimize_ms", minimize_s);
  phase_row("core.fuzz.sched_ms", sched_s);
  phase_row("core.fuzz.corpus_io_ms", corpus_s);

  // Re-execute every persisted trace through the public calls, one span
  // per layer; each must reproduce its recorded state hash.
  const Reexecution r =
      reexecute(config, load_corpus(corpus_dir), report, boot_s);
  // Layer time in the traced run, estimated from the re-execution: final
  // corpus entries stand for the run's iterations, survivors for its
  // minimizer probes (which execute pieces of survivor traces).
  const LayerTimes all = r.all();
  const double executions =
      static_cast<double>(kIterations + stats.minimizer_execs);
  const auto run_s = [&](double LayerTimes::*layer) {
    return r.corpus.per_trace(layer) * kIterations +
           r.survivors.per_trace(layer) * stats.minimizer_execs;
  };
  const std::string base = json_string(
      "traced fuzzer run wall time; iterations x corpus-entry span cost + "
      "minimizer probes x survivor span cost");
  const auto span = [&](double LayerTimes::*layer, double calls) {
    return LayerValue{calls == 0 ? 0.0 : all.*layer / calls * 1e6, "span",
                      {{"share", json_number(run_s(layer) / traced_s)},
                       {"base", base},
                       {"calls", json_number(calls)}}};
  };
  const LayerValue activate =
      span(&LayerTimes::activate_s, static_cast<double>(r.activations));
  report.row("guest.activate.us", activate.value, "us", activate.kind,
             activate.extra);
  const LayerValue classify =
      span(&LayerTimes::classify_s, static_cast<double>(r.classifications));
  report.row("analysis.classify.us", classify.value, "us", classify.kind,
             classify.extra);
  report.row("fuzz.reexecuted_traces", all.traces, "count", "count",
             {{"survivors", json_number(r.survivors.traces)},
              {"span_coverage", json_number(all.total_s() / r.wall_s)}});
  report.row("hv.hash.calls_per_unit", executions / kIterations, "count",
             "count",
             {{"note", json_string("one state_hash per trace execution")}});
  const double digests = static_cast<double>(r.stats.frames_rehashed +
                                             r.stats.frames_hash_cached);
  report.row("hv.hash.cached_ratio",
             digests == 0 ? 0.0
                          : static_cast<double>(r.stats.frames_hash_cached) /
                                digests,
             "ratio", "count",
             {{"base", json_string("frame digests of the re-execution")}});

  LayerMetrics m;
  m.hash_us = span(&LayerTimes::hash_s, all.traces);
  m.rewind_us = span(&LayerTimes::rewind_s, all.traces);
  m.audit_us = span(&LayerTimes::audit_s, all.traces);
  m.validate_us = span(&LayerTimes::validate_s, static_cast<double>(r.ops));
  m.walk_ns = {r.probes.walk_s * 1e9, "probe"};
  m.boot_ms = {median(boot_s) * 1e3, "span",
               {{"samples", std::to_string(boot_s.size())},
                {"note", json_string("VirtualPlatform + baseline()")}}};
  const Fields per_trace{{"base", json_string("per re-executed trace")}};
  m.hash_frames_rehashed_per_unit = {
      static_cast<double>(r.stats.frames_rehashed) / all.traces, "count",
      per_trace};
  m.rewind_frames_per_unit = {
      static_cast<double>(r.stats.frames_copied) / all.traces, "count",
      per_trace};
  m.validate_calls_per_unit = {
      static_cast<double>(stats.ops_executed) / kIterations, "count",
      {{"base", json_string("per iteration, minimizer probes excluded")}}};
  m.validate_refused_ratio = {
      stats.ops_executed == 0 ? 0.0
                              : static_cast<double>(stats.ops_refused) /
                                    static_cast<double>(stats.ops_executed),
      "count"};
  m.hash_share = {run_s(&LayerTimes::hash_s) / traced_s, "span",
                  {{"base", base}}};
  m.rewind_share = {run_s(&LayerTimes::rewind_s) / traced_s, "span",
                    {{"base", base}}};
  m.execs_per_iter = {executions / kIterations, "count"};
  const double layers_s =
      run_s(&LayerTimes::rewind_s) + run_s(&LayerTimes::validate_s) +
      run_s(&LayerTimes::activate_s) + run_s(&LayerTimes::audit_s) +
      run_s(&LayerTimes::classify_s) + run_s(&LayerTimes::hash_s);
  m.unexplained_share = {1.0 - layers_s / traced_s, "span", {{"base", base}}};
  m.trace_overhead = {traced_s / seed_run_s, "span",
                      {{"untraced_run_s", json_number(seed_run_s)},
                       {"traced_run_s", json_number(traced_s)}}};
  emit_layer_metrics(report, m);
}

}  // namespace perfbench
