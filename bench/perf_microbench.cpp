// Performance micro-benchmarks, built on the obs metrics registry.
//
// Not part of the paper's evaluation — the paper measures feasibility, not
// speed — but a production injector cares about the cost of its building
// blocks: MMU walks, validated page-table updates, exchange grooming vs.
// one injector hypercall (the paper's "easier to induce a representative
// erroneous state than effectively attack the system", quantified), audits,
// and full platform construction.
//
// Each benchmark records per-iteration latency into an obs::Histogram and
// reports mean/p50/p95/p99 from its snapshot. Besides the human-readable
// table, every benchmark emits one machine-readable line:
//   BENCH_JSON {"name":"mmu_walk","iters":N,"ns_mean":...,...}
// so CI can collect results with `grep ^BENCH_JSON | cut -d' ' -f2-`.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/model_checker.hpp"
#include "core/campaign.hpp"
#include "core/injector.hpp"
#include "hv/snapshot.hpp"
#include "guest/platform.hpp"
#include "hv/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "xsa/exchange_primitive.hpp"
#include "xsa/usecases.hpp"

namespace {

using namespace ii;  // NOLINT: bench-local convenience

guest::PlatformConfig bench_config(hv::XenVersion version = hv::kXen46) {
  guest::PlatformConfig pc{};
  pc.version = version;
  pc.machine_frames = 16384;
  pc.dom0_pages = 256;
  pc.guest_pages = 128;
  return pc;
}

/// Keep a result alive past the optimizer, like benchmark::DoNotOptimize.
template <typename T>
void do_not_optimize(T&& value) {
  asm volatile("" : : "g"(value) : "memory");
}

obs::MetricsRegistry& registry() {
  static obs::MetricsRegistry reg;
  return reg;
}

/// Run `fn` `iters` times (after `warmup` untimed runs), recording each
/// iteration's latency in nanoseconds into the registry histogram
/// "bench.<name>.ns", and print the summary row + BENCH_JSON line.
void run_bench(const std::string& name, std::size_t iters,
               const std::function<void()>& fn, std::size_t warmup = 16) {
  using clock = std::chrono::steady_clock;
  for (std::size_t i = 0; i < warmup; ++i) fn();

  obs::Histogram& histo = registry().histogram("bench." + name + ".ns");
  obs::Counter& count = registry().counter("bench." + name + ".iters");
  for (std::size_t i = 0; i < iters; ++i) {
    const auto start = clock::now();
    fn();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        clock::now() - start)
                        .count();
    histo.record(static_cast<std::uint64_t>(ns));
    count.inc();
  }

  std::printf("%-28s %8zu iters  mean %10.0f ns  p50 %10.0f  p95 %10.0f  "
              "p99 %10.0f  max %8llu\n",
              name.c_str(), iters, histo.mean(), histo.percentile(0.50),
              histo.percentile(0.95), histo.percentile(0.99),
              static_cast<unsigned long long>(histo.max()));
  std::printf("BENCH_JSON {\"name\":\"%s\",\"iters\":%zu,\"ns_mean\":%.1f,"
              "\"ns_p50\":%.1f,\"ns_p95\":%.1f,\"ns_p99\":%.1f,"
              "\"ns_min\":%llu,\"ns_max\":%llu,\"host_cores\":%u}\n",
              name.c_str(), iters, histo.mean(), histo.percentile(0.50),
              histo.percentile(0.95), histo.percentile(0.99),
              static_cast<unsigned long long>(histo.min()),
              static_cast<unsigned long long>(histo.max()),
              std::thread::hardware_concurrency());
}

void bench_mmu_walk() {
  auto pc = bench_config();
  guest::VirtualPlatform p{pc};
  const sim::Mfn root = p.hv().domain(p.guest(0).id()).cr3();
  const sim::Vaddr va{hv::kGuestKernelBase + 5 * sim::kPageSize};
  run_bench("mmu_walk", 100000, [&] {
    auto walk = p.hv().mmu().walk(root, va);
    do_not_optimize(walk);
  });
}

void bench_guest_read64() {
  auto pc = bench_config();
  guest::VirtualPlatform p{pc};
  guest::GuestKernel& g = p.guest(0);
  const sim::Vaddr va = g.pfn_va(sim::Pfn{5});
  run_bench("guest_read64", 100000, [&] {
    auto v = g.read_u64(va);
    do_not_optimize(v);
  });
}

/// The acceptance hot path: validated mmu_update with no sink attached vs.
/// the same loop with an attached counters-only sink. The first must not
/// regress against the pre-observability baseline (the only added cost is
/// one null check per instrumentation site); comparing the two rows bounds
/// the tracing overhead itself.
void bench_mmu_update_remap(bool traced) {
  auto pc = bench_config();
  obs::TraceSink sink{64, /*category_mask=*/0};
  if (traced) pc.trace_sink = &sink;
  guest::VirtualPlatform p{pc};
  guest::GuestKernel& g = p.guest(0);
  const sim::Paddr slot = g.l1_slot_paddr(sim::Pfn{5});
  const std::uint64_t a =
      sim::Pte::make(*g.pfn_to_mfn(sim::Pfn{5}),
                     sim::Pte::kPresent | sim::Pte::kWritable |
                         sim::Pte::kUser)
          .raw();
  const std::uint64_t b =
      sim::Pte::make(*g.pfn_to_mfn(sim::Pfn{6}),
                     sim::Pte::kPresent | sim::Pte::kWritable |
                         sim::Pte::kUser)
          .raw();
  bool flip = false;
  run_bench(traced ? "mmu_update_remap_traced" : "mmu_update_remap", 50000,
            [&] {
              do_not_optimize(g.mmu_update_one(slot, flip ? a : b));
              flip = !flip;
            });
}

void bench_memory_exchange() {
  auto pc = bench_config();
  guest::VirtualPlatform p{pc};
  guest::GuestKernel& g = p.guest(0);
  const auto pfn = g.alloc_pfn();
  (void)g.unmap_pfn(*pfn);
  const sim::Vaddr out = g.pfn_va(sim::Pfn{5});
  run_bench("memory_exchange", 20000, [&] {
    hv::MemoryExchange exch{};
    exch.in_extents = {*pfn};
    exch.out_extent_start = out;
    do_not_optimize(g.memory_exchange(exch));
  });
}

void bench_injector_write64() {
  auto pc = bench_config();
  guest::VirtualPlatform p{pc};
  core::ArbitraryAccessInjector injector{p.guest(0)};
  const std::uint64_t target =
      sim::mfn_to_paddr(p.hv().domain(hv::kDom0).start_info_mfn()).raw() +
      0x200;
  run_bench("injector_write64", 50000, [&] {
    do_not_optimize(
        injector.write_u64(target, 0xFEED, core::AddressMode::Physical));
  });
}

/// The asymmetry the paper argues for: one controlled 8-byte write through
/// the real XSA-212 exploit primitive (allocator grooming and all) vs. the
/// single-hypercall injector write above. Platform construction is inside
/// the timed region (grooming consumes frames, so every attempt needs a
/// fresh machine) — compare against platform_boot to separate the costs.
void bench_exploit_groomed_write64() {
  auto pc = bench_config(hv::kXen46);
  pc.injector_enabled = false;
  run_bench(
      "exploit_groomed_write64", 20,
      [&] {
        guest::VirtualPlatform p{pc};
        xsa::ExchangeWritePrimitive prim{p.guest(0)};
        const auto target = hv::directmap_vaddr(
            sim::mfn_to_paddr(p.hv().domain(hv::kDom0).start_info_mfn()) +
            0x200);
        do_not_optimize(prim.write_u64(target, 0xFEEDFACECAFEBEEF));
      },
      /*warmup=*/2);
}

void bench_audit_system() {
  auto pc = bench_config();
  guest::VirtualPlatform p{pc};
  run_bench("audit_system", 2000, [&] {
    auto report = hv::audit_system(p.hv());
    do_not_optimize(report);
  });
}

void bench_platform_boot() {
  const auto pc = bench_config();
  run_bench(
      "platform_boot", 50,
      [&] {
        guest::VirtualPlatform p{pc};
        do_not_optimize(p.hv().crashed());
      },
      /*warmup=*/2);
}

void bench_campaign_cell_injection() {
  const auto cases = xsa::make_paper_use_cases();
  core::CampaignConfig config{};
  config.platform = bench_config(hv::kXen413);
  const core::Campaign campaign{config};
  core::PlatformPool pool;  // persistent: cells after the first lease warm
  run_bench(
      "campaign_cell_injection", 20,
      [&] {
        auto cell = campaign.run_cell(*cases[0], hv::kXen413,
                                      core::Mode::Injection, pool);
        do_not_optimize(cell);
      },
      /*warmup=*/2);
}

/// Warm vs cold cell setup (DESIGN.md §10): the same use-case cell leased
/// from a persistent pool (delta-restored baseline) vs booted from scratch
/// every iteration (reuse_platforms off). The ratio is the campaign-side
/// payoff of dirty-frame tracking.
void bench_campaign_cell_warm_vs_cold() {
  const auto cases = xsa::make_paper_use_cases();
  core::CampaignConfig config{};
  config.platform = bench_config(hv::kXen413);
  {
    const core::Campaign campaign{config};
    core::PlatformPool pool;
    run_bench(
        "campaign_cell_warm", 50,
        [&] {
          auto cell = campaign.run_cell(*cases[0], hv::kXen413,
                                        core::Mode::Injection, pool);
          do_not_optimize(cell);
        },
        /*warmup=*/2);
  }
  {
    auto cold_config = config;
    cold_config.reuse_platforms = false;
    const core::Campaign campaign{cold_config};
    run_bench(
        "campaign_cell_cold", 20,
        [&] {
          auto cell = campaign.run_cell(*cases[0], hv::kXen413,
                                        core::Mode::Injection);
          do_not_optimize(cell);
        },
        /*warmup=*/2);
  }
}

/// Incremental vs full state hashing over a lightly-dirtied machine: the
/// steady-state of the model checker's dedup loop. Each iteration dirties
/// one frame, so the incremental path rehashes O(1) frames while the full
/// path walks all 16384.
void bench_state_hash() {
  auto pc = bench_config();
  guest::VirtualPlatform p{pc};
  guest::GuestKernel& g = p.guest(0);
  const sim::Vaddr va = g.pfn_va(sim::Pfn{5});
  std::uint64_t x = 0;
  (void)p.hv().state_hash();  // populate the digest cache
  run_bench("state_hash_incremental", 2000, [&] {
    (void)g.write_u64(va, ++x);
    do_not_optimize(p.hv().state_hash());
  });
  run_bench("state_hash_full", 200, [&] {
    (void)g.write_u64(va, ++x);
    do_not_optimize(p.hv().state_hash_full());
  });
}

/// Full and delta snapshots and the delta restore, with one dirty frame
/// per iteration — the checker's per-state working set.
void bench_snapshot_restore() {
  auto pc = bench_config();
  guest::VirtualPlatform p{pc};
  guest::GuestKernel& g = p.guest(0);
  const sim::Vaddr va = g.pfn_va(sim::Pfn{5});
  std::uint64_t x = 0;
  run_bench("snapshot_full", 200, [&] {
    (void)g.write_u64(va, ++x);
    do_not_optimize(p.hv().snapshot());
  });
  const hv::HvSnapshot base = p.hv().snapshot();
  run_bench("snapshot_delta", 2000, [&] {
    (void)g.write_u64(va, ++x);
    do_not_optimize(p.hv().snapshot_delta(base));
  });
  run_bench("restore_delta", 2000, [&] {
    (void)g.write_u64(va, ++x);
    p.hv().restore_delta(base);
  });
}

/// The whole depth-2 bounded check — the end-to-end number behind the
/// analysis_cli speedup gate.
void bench_model_check_depth2() {
  analysis::ModelCheckConfig mc;
  mc.version = hv::kXen46;
  mc.depth = 2;
  run_bench(
      "model_check_depth2", 10,
      [&] { do_not_optimize(analysis::run_model_check(mc)); },
      /*warmup=*/1);
}

/// The depth-3 bounded check, serial vs sharded (DESIGN.md §12). One row
/// per thread count; the speedup only materializes with real cores, but
/// the rows also pin that sharding costs ~nothing when it cannot help
/// (single-core hosts run the barrier-synchronized passes back to back).
void bench_model_check_depth3() {
  analysis::ModelCheckConfig mc;
  mc.version = hv::kXen46;
  mc.depth = 3;
  for (const unsigned threads : {1u, 2u, 4u}) {
    mc.threads = threads;
    run_bench(
        "model_check_depth3_t" + std::to_string(threads), 3,
        [&] { do_not_optimize(analysis::run_model_check(mc)); },
        /*warmup=*/1);
  }
}

/// Span-profiler cost, both sides of the `if (profiler)` branch. The
/// unprofiled rows are the existing campaign_cell_warm / model_check_depth2
/// benches (every instrumentation site compiled in, no profiler attached) —
/// the no-sink gate compares those against the pre-telemetry seed. These
/// rows measure the *attached* cost: scoped spans, step accounting, and the
/// per-depth tree updates.
void bench_profiler_attached() {
  {
    const auto cases = xsa::make_paper_use_cases();
    obs::SpanProfiler prof;
    core::CampaignConfig config{};
    config.platform = bench_config(hv::kXen413);
    config.profiler = &prof;
    const core::Campaign campaign{config};
    core::PlatformPool pool;
    run_bench(
        "campaign_cell_warm_profiled", 50,
        [&] {
          auto cell = campaign.run_cell(*cases[0], hv::kXen413,
                                        core::Mode::Injection, pool);
          do_not_optimize(cell);
        },
        /*warmup=*/2);
  }
  {
    obs::SpanProfiler prof;
    analysis::ModelCheckConfig mc;
    mc.version = hv::kXen46;
    mc.depth = 2;
    mc.profiler = &prof;
    run_bench(
        "model_check_depth2_profiled", 10,
        [&] { do_not_optimize(analysis::run_model_check(mc)); },
        /*warmup=*/1);
  }
}

/// Where the sharded checker's wall time actually goes: one profiled
/// depth-3 run at 4 workers, reported as one BENCH_JSON line per engine
/// phase (produce / admit / settle, summed over depths). The
/// BENCH_PR5 numbers attributed the old two-pass engine's overhead to its
/// re-derive pass; this breakdown shows what the single-pass owner-computes
/// engine spends instead.
void bench_checker_phase_breakdown() {
  obs::SpanProfiler prof;
  analysis::ModelCheckConfig mc;
  mc.version = hv::kXen46;
  mc.depth = 3;
  mc.threads = 4;
  mc.profiler = &prof;
  do_not_optimize(analysis::run_model_check(mc));

  constexpr int kPhases = 3;
  std::uint64_t wall[kPhases] = {0, 0, 0};
  std::uint64_t steps[kPhases] = {0, 0, 0};
  static constexpr std::string_view names[kPhases] = {
      obs::kSpanProduce, obs::kSpanAdmit, obs::kSpanSettle};
  const auto check = prof.root().children.find(obs::kSpanCheck);
  if (check != prof.root().children.end()) {
    for (const auto& [depth_name, depth_node] : check->second->children) {
      for (int p = 0; p < kPhases; ++p) {
        const auto it = depth_node->children.find(names[p]);
        if (it == depth_node->children.end()) continue;
        wall[p] += it->second->wall_ns;
        steps[p] += it->second->total_steps(true);
      }
    }
  }
  for (int p = 0; p < kPhases; ++p) {
    std::printf(
        "BENCH_JSON {\"name\":\"mc_depth3_t4_phase_%s\",\"wall_us\":%llu,"
        "\"steps\":%llu,\"host_cores\":%u}\n",
        std::string{names[p]}.c_str(),
        static_cast<unsigned long long>(wall[p] / 1000),
        static_cast<unsigned long long>(steps[p]),
        std::thread::hardware_concurrency());
  }
}

}  // namespace

int main() {
  bench_mmu_walk();
  bench_guest_read64();
  bench_mmu_update_remap(/*traced=*/false);
  bench_mmu_update_remap(/*traced=*/true);
  bench_memory_exchange();
  bench_injector_write64();
  bench_exploit_groomed_write64();
  bench_audit_system();
  bench_platform_boot();
  bench_campaign_cell_injection();
  bench_state_hash();
  bench_snapshot_restore();
  bench_campaign_cell_warm_vs_cold();
  bench_model_check_depth2();
  bench_model_check_depth3();
  bench_profiler_attached();
  bench_checker_phase_breakdown();
  return 0;
}
