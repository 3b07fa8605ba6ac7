// Randomized injection campaign (paper §IV-C's fuzz-style suggestion,
// implemented as an extension experiment) on the sequence fuzzer
// (DESIGN.md §17, BENCH_PR10.json):
//
//  1. one blind run per release (outcome distributions, no feedback);
//  2. warm-vs-cold throughput — the fuzzer's warm iterations (one boot plus
//     delta rewinds) vs replay_trace, which boots once per trace;
//  3. guided-vs-blind coverage at equal iteration budgets across seeds
//     (the acceptance claim: guided must reach strictly more);
//  4. the guided run's coverage growth curve per 1k iterations.
//
// Emits BENCH_JSON lines like perf_microbench so CI can collect them.
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "core/fuzz.hpp"

namespace {

using Clock = std::chrono::steady_clock;

ii::core::SeqFuzzConfig seq_config(std::uint64_t seed, unsigned iterations,
                                   bool guided) {
  ii::core::SeqFuzzConfig config;
  config.version = ii::hv::kXen46;
  config.seed = seed;
  config.iterations = iterations;
  config.guided = guided;
  config.minimize = false;  // coverage comparison, not survivor triage
  config.platform.machine_frames = 8192;
  config.platform.dom0_pages = 128;
  config.platform.guest_pages = 64;
  return config;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  using namespace ii;
  const unsigned cores = std::thread::hardware_concurrency();

  // 1. One blind run per release (the original experiment).
  for (const hv::XenVersion version : {hv::kXen46, hv::kXen48, hv::kXen413}) {
    core::SeqFuzzConfig config = seq_config(7, 60, /*guided=*/false);
    config.version = version;
    const core::SeqFuzzStats stats = core::run_sequence_fuzzer(config);
    std::printf("== Xen %s ==\n%s\n", version.to_string().c_str(),
                stats.render().c_str());
  }

  // 2. Warm (one boot, delta rewinds) vs cold (a boot per trace): the
  // blind run's iterations against replay_trace over its survivors'
  // traces, round-robin, as many times.
  {
    constexpr unsigned kIterations = 200;
    const core::SeqFuzzConfig blind = seq_config(7, kIterations, false);
    const auto warm_t0 = Clock::now();
    const core::SeqFuzzStats warm = core::run_sequence_fuzzer(blind);
    const double warm_ms = ms_since(warm_t0);
    std::vector<std::vector<core::FuzzOp>> traces;
    for (const core::Survivor& s : warm.survivors) {
      traces.push_back(s.entry.ops);
    }
    if (traces.empty()) traces.emplace_back();  // still one boot per trace
    const auto cold_t0 = Clock::now();
    for (unsigned i = 0; i < kIterations; ++i) {
      (void)core::replay_trace(blind, traces[i % traces.size()]);
    }
    const double cold_ms = ms_since(cold_t0);
    for (const auto& [name, ms] :
         {std::pair{"warm", warm_ms}, std::pair{"cold", cold_ms}}) {
      const double iters_per_sec = kIterations / (ms / 1000.0);
      std::printf("blind %s: %u iterations in %.1f ms "
                  "(%.0f iterations/sec)\n",
                  name, kIterations, ms, iters_per_sec);
      std::printf("BENCH_JSON {\"name\":\"fuzz_blind_%s_%u\","
                  "\"wall_ms\":%.1f,\"iters_per_sec\":%.1f,"
                  "\"host_cores\":%u}\n",
                  name, kIterations, ms, iters_per_sec, cores);
    }
  }

  // 3. Guided vs blind coverage at equal budgets. The strictly-more gate
  // applies at 1500 iterations, where the feedback loop has had time to
  // pay for its corpus warm-up; the 400-iteration cells are recorded as
  // the honest short-budget picture (guided usually ahead, not always).
  bool guided_always_ahead = true;
  for (const unsigned budget : {400u, 1500u}) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      const auto t0 = Clock::now();
      const core::SeqFuzzStats g =
          core::run_sequence_fuzzer(seq_config(seed, budget, true));
      const auto t1 = Clock::now();
      const core::SeqFuzzStats b =
          core::run_sequence_fuzzer(seq_config(seed, budget, false));
      const double guided_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      const bool ahead = g.coverage_points > b.coverage_points;
      if (budget >= 1500) guided_always_ahead = guided_always_ahead && ahead;
      std::printf("seq fuzzer seed %llu @%u: guided %zu vs blind %zu "
                  "points %s(guided: %.1f ms, %.0f iterations/sec)\n",
                  static_cast<unsigned long long>(seed), budget,
                  g.coverage_points, b.coverage_points,
                  ahead ? "" : "[GUIDED BEHIND] ", guided_ms,
                  budget / (guided_ms / 1000.0));
      std::printf("BENCH_JSON {\"name\":\"fuzz_guided_vs_blind_s%llu_i%u\","
                  "\"guided_points\":%zu,\"blind_points\":%zu,"
                  "\"guided_wall_ms\":%.1f,\"host_cores\":%u}\n",
                  static_cast<unsigned long long>(seed), budget,
                  g.coverage_points, b.coverage_points, guided_ms, cores);
    }
  }
  std::printf("guided strictly ahead on all 1500-iteration cells: %s\n",
              guided_always_ahead ? "yes" : "NO");

  // 4. Coverage growth per 1k iterations of one longer guided run.
  const core::SeqFuzzStats curve =
      core::run_sequence_fuzzer(seq_config(7, 3000, true));
  std::printf("coverage curve (seed 7, per 1k iterations):");
  for (const std::size_t points : curve.coverage_curve) {
    std::printf(" %zu", points);
  }
  std::printf(" / %zu total\n", core::CoverageMap::total_points());

  return guided_always_ahead ? 0 : 1;
}
