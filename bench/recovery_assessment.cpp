// Recovery assessment bench: how expensive is a ReHype-style hypervisor
// micro-reboot, and what does it actually restore?
//
// For each (use case, version) pair the loop builds a fresh platform,
// injects the use case's erroneous state through the injector interface,
// then times Hypervisor::recover() alone — platform construction and the
// injection are outside the timed region. Each row reports the recover()
// latency distribution plus what the pass repaired (invariants violated
// before / restored after, IDT gates, scrubbed PTEs, ...).
//
// The "recover_clean" baseline row measures the same walk over an
// uncorrupted platform: the fixed cost of auditing + reconstruction when
// there is nothing to repair.
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "guest/platform.hpp"
#include "hv/recovery.hpp"
#include "obs/metrics.hpp"
#include "xsa/usecases.hpp"

namespace {

using namespace ii;  // NOLINT: bench-local convenience

guest::PlatformConfig bench_config(hv::XenVersion version) {
  guest::PlatformConfig pc{};
  pc.version = version;
  pc.machine_frames = 16384;
  pc.dom0_pages = 256;
  pc.guest_pages = 128;
  pc.injector_enabled = true;
  return pc;
}

obs::MetricsRegistry& registry() {
  static obs::MetricsRegistry reg;
  return reg;
}

std::string join_invariants(const std::vector<hv::Invariant>& invariants) {
  std::string out;
  for (const hv::Invariant invariant : invariants) {
    if (!out.empty()) out += ",";
    out += hv::to_string(invariant);
  }
  return out.empty() ? "-" : out;
}

/// One bench row: `iters` rounds of (fresh platform -> corrupt() -> timed
/// recover()). The last round's RecoveryReport feeds the summary columns.
void bench_recovery(
    const std::string& name, hv::XenVersion version, std::size_t iters,
    const std::function<void(guest::VirtualPlatform&)>& corrupt) {
  using clock = std::chrono::steady_clock;
  const auto pc = bench_config(version);

  obs::Histogram& histo = registry().histogram("bench." + name + ".ns");
  hv::RecoveryReport last{};
  std::size_t succeeded = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    guest::VirtualPlatform platform{pc};
    corrupt(platform);

    const auto start = clock::now();
    hv::RecoveryReport report = platform.hv().recover();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        clock::now() - start)
                        .count();
    histo.record(static_cast<std::uint64_t>(ns));
    if (report.succeeded()) ++succeeded;
    last = std::move(report);
  }

  std::printf(
      "%-26s %4zu iters  mean %9.0f ns  p95 %9.0f  ok %zu/%zu\n"
      "    pre-violated: %s\n"
      "    restored:     %s\n"
      "    repairs: idt=%llu xen_l3=%llu retyped=%llu p2m_dropped=%llu "
      "ptes_scrubbed=%llu unrecovered_domains=%zu\n",
      name.c_str(), iters, histo.mean(), histo.percentile(0.95), succeeded,
      iters, join_invariants(last.pre.violated_set()).c_str(),
      join_invariants(last.restored()).c_str(),
      static_cast<unsigned long long>(last.idt_gates_restored),
      static_cast<unsigned long long>(last.xen_l3_entries_cleared),
      static_cast<unsigned long long>(last.frames_retyped),
      static_cast<unsigned long long>(last.p2m_entries_dropped),
      static_cast<unsigned long long>(last.ptes_scrubbed),
      last.unrecovered_domains.size());
}

/// Inject one use case's erroneous state (ignoring its outcome: a partial
/// injection still leaves corrupted state worth recovering from).
void inject(core::UseCase& use_case, guest::VirtualPlatform& platform) {
  (void)use_case.run_injection(platform);
}

}  // namespace

int main() {
  constexpr std::size_t kIters = 20;

  for (const hv::XenVersion version : {hv::kXen48, hv::kXen413}) {
    std::string suffix = "_";
    suffix += version.to_string();

    bench_recovery("recover_clean" + suffix, version, kIters,
                   [](guest::VirtualPlatform&) {});

    // Paper use cases: each injects a distinct corruption family (IDT gate,
    // shared Xen L3, writable-page-table window, linear self map).
    for (auto& use_case : xsa::make_paper_use_cases()) {
      bench_recovery(
          "recover_" + use_case->name() + suffix, version, kIters,
          [&use_case](guest::VirtualPlatform& p) { inject(*use_case, p); });
    }

    // XSA-387 keeps a stale grant-status mapping across a version
    // downgrade — the grant-lifecycle invariant.
    for (auto& use_case : xsa::make_extension_use_cases()) {
      if (use_case->name() != "XSA-387-keep") continue;
      bench_recovery(
          "recover_" + use_case->name() + suffix, version, kIters,
          [&use_case](guest::VirtualPlatform& p) { inject(*use_case, p); });
    }
  }
  return 0;
}
