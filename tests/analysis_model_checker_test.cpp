// The bounded model checker's core theorem (model_checker.hpp): under the
// 4.6 policy the depth-2 space reaches the paper's XSA erroneous states,
// while 4.8 and 4.13 admit no invariant violation over the same space.
// Plus the structural properties that make counterexamples trustworthy:
// determinism, BFS minimality, and hash dedup actually firing.
#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <stdexcept>
#include <string>

#include "analysis/model_checker.hpp"
#include "obs/span.hpp"
#include "obs/status.hpp"

namespace ii::analysis {
namespace {

ModelCheckConfig config_for(hv::XenVersion version, unsigned depth,
                            bool grants = false) {
  ModelCheckConfig config;
  config.version = version;
  config.depth = depth;
  config.include_grant_ops = grants;
  return config;
}

/// A fresh, empty spill directory owned by one test, so tests that run as
/// parallel processes never share a spill location.
std::string own_spill_dir(const std::string& test) {
  const std::filesystem::path dir =
      std::filesystem::path{testing::TempDir()} / ("ii-spill-" + test);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// The check deleted its spill file on return.
bool spill_dir_empty(const std::string& dir) {
  return std::filesystem::is_empty(std::filesystem::path{dir});
}

TEST(ModelChecker, Xen46Depth1ReachesXsa148) {
  const auto result = run_model_check(config_for(hv::kXen46, 1));
  EXPECT_TRUE(result.reached(ErroneousStateClass::Xsa148SuperpageWindow));
  EXPECT_FALSE(result.reached(ErroneousStateClass::Xsa182WritableSelfMap));
  EXPECT_FALSE(result.reached(ErroneousStateClass::Xsa212IdtClobber));
  ASSERT_FALSE(result.counterexamples.empty());
  // BFS minimality: the superpage window is one operation away from boot,
  // so its counterexample must have depth exactly 1.
  EXPECT_EQ(1u, result.counterexamples.front().depth);
}

TEST(ModelChecker, Xen46Depth2ReachesAllThreeMemoryXsas) {
  const auto result = run_model_check(config_for(hv::kXen46, 2));
  EXPECT_TRUE(result.reached(ErroneousStateClass::Xsa148SuperpageWindow));
  EXPECT_TRUE(result.reached(ErroneousStateClass::Xsa182WritableSelfMap));
  EXPECT_TRUE(result.reached(ErroneousStateClass::Xsa212IdtClobber));
  EXPECT_FALSE(result.reached(ErroneousStateClass::Other));
  EXPECT_FALSE(result.truncated);
  // Every violating state is captured while under max_counterexamples.
  EXPECT_EQ(result.violations_found, result.counterexamples.size());
}

TEST(ModelChecker, Xen48Depth2IsClean) {
  const auto result = run_model_check(config_for(hv::kXen48, 2));
  EXPECT_TRUE(result.clean()) << render_report(result);
  EXPECT_FALSE(result.truncated);
}

TEST(ModelChecker, Xen413Depth2IsClean) {
  const auto result = run_model_check(config_for(hv::kXen413, 2));
  EXPECT_TRUE(result.clean()) << render_report(result);
}

TEST(ModelChecker, GrantOpsExposeXsa387OnPre413Only) {
  const auto old46 = run_model_check(config_for(hv::kXen46, 2, true));
  EXPECT_TRUE(old46.reached(ErroneousStateClass::Xsa387StaleGrantStatus));

  // 4.8 fixed the memory XSAs but still carries the downgrade leak: with
  // grant ops in the alphabet it must find exactly that class and nothing
  // else.
  const auto old48 = run_model_check(config_for(hv::kXen48, 2, true));
  EXPECT_TRUE(old48.reached(ErroneousStateClass::Xsa387StaleGrantStatus));
  EXPECT_FALSE(old48.reached(ErroneousStateClass::Xsa148SuperpageWindow));
  EXPECT_FALSE(old48.reached(ErroneousStateClass::Xsa182WritableSelfMap));
  EXPECT_FALSE(old48.reached(ErroneousStateClass::Xsa212IdtClobber));
  EXPECT_FALSE(old48.reached(ErroneousStateClass::Other));

  const auto fixed = run_model_check(config_for(hv::kXen413, 2, true));
  EXPECT_TRUE(fixed.clean()) << render_report(fixed);
}

TEST(ModelChecker, RunsAreDeterministic) {
  const auto a = run_model_check(config_for(hv::kXen46, 2));
  const auto b = run_model_check(config_for(hv::kXen46, 2));
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.ops_applied, b.ops_applied);
  EXPECT_EQ(a.violations_found, b.violations_found);
  ASSERT_EQ(a.counterexamples.size(), b.counterexamples.size());
  for (std::size_t i = 0; i < a.counterexamples.size(); ++i) {
    EXPECT_EQ(a.counterexamples[i].state_hash,
              b.counterexamples[i].state_hash);
    EXPECT_EQ(a.counterexamples[i].trace_string(),
              b.counterexamples[i].trace_string());
  }
}

TEST(ModelChecker, HashDedupFolds) {
  // Depth 2 revisits states (e.g. write X then write Y == write Y then
  // write X for independent slots), so dedup must fire.
  const auto result = run_model_check(config_for(hv::kXen46, 2));
  EXPECT_GT(result.states_deduped, 0u);
}

TEST(ModelChecker, CounterexamplesCarryDiffAndFindings) {
  const auto result = run_model_check(config_for(hv::kXen46, 1));
  ASSERT_FALSE(result.counterexamples.empty());
  const Counterexample& cx = result.counterexamples.front();
  EXPECT_FALSE(cx.steps.empty());
  EXPECT_FALSE(cx.steps.front().label.empty());
  EXPECT_FALSE(cx.state_diff.empty());
  EXPECT_FALSE(cx.report.findings.empty());
  EXPECT_FALSE(cx.violated.empty());
}

TEST(ModelChecker, MaxStatesTruncates) {
  auto config = config_for(hv::kXen46, 3);
  config.max_states = 20;
  const auto result = run_model_check(config);
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.states_explored, 21u);  // may finish the expansion step
}

TEST(ModelChecker, DeltaExplorationMatchesReplayFallbackExactly) {
  // The delta-restore scheme is a pure optimization: against the
  // snapshot-root-and-replay fallback it must agree on every externally
  // visible result, down to counterexample traces, hashes and diffs.
  for (const hv::XenVersion version : {hv::kXen46, hv::kXen48}) {
    auto config = config_for(version, 2, /*grants=*/version == hv::kXen48);
    config.use_replay_fallback = false;
    const auto delta = run_model_check(config);
    config.use_replay_fallback = true;
    const auto replay = run_model_check(config);

    EXPECT_EQ(delta.states_explored, replay.states_explored);
    EXPECT_EQ(delta.ops_applied, replay.ops_applied);
    EXPECT_EQ(delta.states_deduped, replay.states_deduped);
    EXPECT_EQ(delta.failed_ops, replay.failed_ops);
    EXPECT_EQ(delta.violations_found, replay.violations_found);
    EXPECT_EQ(delta.invariant_hits, replay.invariant_hits);
    EXPECT_EQ(delta.class_hits, replay.class_hits);
    ASSERT_EQ(delta.counterexamples.size(), replay.counterexamples.size());
    for (std::size_t i = 0; i < delta.counterexamples.size(); ++i) {
      const auto& a = delta.counterexamples[i];
      const auto& b = replay.counterexamples[i];
      EXPECT_EQ(a.trace_string(), b.trace_string()) << i;
      EXPECT_EQ(a.state_hash, b.state_hash) << i;
      EXPECT_EQ(a.state_diff, b.state_diff) << i;
      EXPECT_EQ(a.violated == b.violated, true) << i;
    }
    // The schemes differ exactly where they should: the delta run restores
    // deltas, the fallback restores full snapshots.
    EXPECT_GT(delta.delta_restores, 0u);
    EXPECT_EQ(delta.full_restores, 0u);
    EXPECT_GT(replay.full_restores, 0u);
  }
}

TEST(ModelChecker, RenderReportMentionsEveryClass) {
  const auto result = run_model_check(config_for(hv::kXen46, 1));
  const std::string report = render_report(result);
  for (std::size_t c = 0; c < kErroneousStateClassCount; ++c) {
    EXPECT_NE(std::string::npos,
              report.find(to_string(static_cast<ErroneousStateClass>(c))));
  }
}

// Sharded exploration is a pure parallelization: dedup admission is owned
// per hash shard and each owner reproduces the serial first-encounter
// decision, so everything except the scheduling-dependent snapshot-engine
// counters must be byte-identical at any thread count.
void expect_identical_runs(ModelCheckConfig config) {
  config.threads = 1;
  const auto serial = run_model_check(config);
  const std::string serial_report = render_report(serial);
  for (const unsigned threads : {2u, 4u, 8u}) {
    config.threads = threads;
    const auto parallel = run_model_check(config);
    EXPECT_EQ(serial_report, render_report(parallel)) << threads;
    EXPECT_EQ(serial.states_explored, parallel.states_explored) << threads;
    EXPECT_EQ(serial.ops_applied, parallel.ops_applied) << threads;
    EXPECT_EQ(serial.states_deduped, parallel.states_deduped) << threads;
    EXPECT_EQ(serial.failed_ops, parallel.failed_ops) << threads;
    EXPECT_EQ(serial.violations_found, parallel.violations_found) << threads;
    EXPECT_EQ(serial.truncated, parallel.truncated) << threads;
    EXPECT_EQ(serial.invariant_hits, parallel.invariant_hits) << threads;
    EXPECT_EQ(serial.class_hits, parallel.class_hits) << threads;
    ASSERT_EQ(serial.counterexamples.size(), parallel.counterexamples.size())
        << threads;
    for (std::size_t i = 0; i < serial.counterexamples.size(); ++i) {
      const auto& a = serial.counterexamples[i];
      const auto& b = parallel.counterexamples[i];
      EXPECT_EQ(a.trace_string(), b.trace_string()) << threads << "#" << i;
      EXPECT_EQ(a.state_hash, b.state_hash) << threads << "#" << i;
      EXPECT_EQ(a.state_diff, b.state_diff) << threads << "#" << i;
      EXPECT_TRUE(a.violated == b.violated) << threads << "#" << i;
    }
  }
}

TEST(ModelChecker, ParallelMatchesSerialAcrossVersions) {
  for (const hv::XenVersion version : {hv::kXen46, hv::kXen48, hv::kXen413}) {
    expect_identical_runs(config_for(version, 2));
  }
}

TEST(ModelChecker, ParallelMatchesSerialWithGrantOps) {
  for (const hv::XenVersion version : {hv::kXen46, hv::kXen48, hv::kXen413}) {
    expect_identical_runs(config_for(version, 2, /*grants=*/true));
  }
}

TEST(ModelChecker, ParallelMatchesSerialAtDepth3) {
  // Deeper run: multiple levels of frontier sharding with violations,
  // dedup and refused ops all live at once.
  expect_identical_runs(config_for(hv::kXen46, 3));
}

TEST(ModelChecker, ParallelTruncationMatchesSerial) {
  // max_states trips mid-level; the merge must cut the claim list at the
  // same lexicographic pair the serial BFS stopped on.
  auto config = config_for(hv::kXen46, 3);
  config.max_states = 20;
  expect_identical_runs(config);
}

TEST(ModelChecker, RandomizedConfigsMatchSerialProperty) {
  // Property sweep: random points of the configuration space (version,
  // depth <= 3, grant alphabet, truncation limits, domain sizing) must
  // yield byte-identical reports at every thread count. Fixed seed so a
  // failure reproduces.
  std::mt19937 rng{0x5eed9u};
  const hv::XenVersion versions[] = {hv::kXen46, hv::kXen48, hv::kXen413};
  for (int trial = 0; trial < 5; ++trial) {
    ModelCheckConfig config;
    config.version = versions[rng() % 3];
    config.depth = 1 + rng() % 3;
    config.include_grant_ops = (rng() % 2) == 0;
    // Depth 3 with grants is the slowest corner; cap it via max_states so
    // the sweep also exercises truncation cuts at random points.
    if (rng() % 2 == 0) config.max_states = 25 + rng() % 200;
    config.domain_pages = 8 + 8 * (rng() % 2);
    SCOPED_TRACE("trial " + std::to_string(trial) + " version " +
                 std::string(config.version.to_string()) + " depth " +
                 std::to_string(config.depth));
    expect_identical_runs(config);
  }
}

TEST(ModelChecker, SpillingPreservesTheReportExactly) {
  // Force the frontier through the spill file with a budget far below the
  // depth-2/3 frontier size: every externally visible result must match
  // the unbounded run, and only ops_executed may grow (replay reloads).
  // The two-guest case carries steps of a second caller through the spill
  // records.
  for (const unsigned guests : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(guests) + " guest(s)");
    auto config = config_for(hv::kXen46, 3);
    config.threads = 2;
    config.guest_domains = guests;
    config.machine_frames =
        16 + config.dom0_pages + guests * config.domain_pages + 16;
    const auto unbounded = run_model_check(config);
    ASSERT_FALSE(unbounded.truncated);
    EXPECT_EQ(unbounded.frontier_spilled_items, 0u);
    EXPECT_EQ(unbounded.ops_executed, unbounded.ops_applied);

    config.max_frontier_bytes = 16 * 1024;
    config.spill_dir = own_spill_dir("SpillingPreservesTheReportExactly" +
                                     std::to_string(guests));
    const auto spilled = run_model_check(config);
    EXPECT_TRUE(spill_dir_empty(config.spill_dir));
    EXPECT_GT(spilled.frontier_spilled_items, 0u);
    EXPECT_GT(spilled.frontier_spill_reloads, 0u);
    EXPECT_GT(spilled.frontier_spill_bytes, 0u);
    EXPECT_EQ(render_report(unbounded), render_report(spilled));
    EXPECT_EQ(unbounded.states_explored, spilled.states_explored);
    EXPECT_EQ(unbounded.ops_applied, spilled.ops_applied);
    EXPECT_EQ(unbounded.shard_occupancy, spilled.shard_occupancy);
    EXPECT_GE(spilled.ops_executed, spilled.ops_applied);

    // Acceptance bound: at a budget that keeps a useful fraction of the
    // frontier resident (the intended operating point, not the
    // pathological everything-spills one above), replay reloads stay
    // within 5% of the real enumeration work.
    config.max_frontier_bytes = 256 * 1024;
    const auto bounded = run_model_check(config);
    EXPECT_GT(bounded.frontier_spilled_items, 0u);
    EXPECT_EQ(render_report(unbounded), render_report(bounded));
    EXPECT_GE(bounded.ops_executed, bounded.ops_applied);
    EXPECT_LE(bounded.ops_executed, bounded.ops_applied * 105 / 100);
  }
}

TEST(ModelChecker, BudgetWithoutSpillDirIsRefused) {
  // A frontier budget is a ceiling, and only spilling can keep it, so a
  // budget with nowhere to spill is a configuration error.
  auto config = config_for(hv::kXen46, 2);
  config.max_frontier_bytes = 16 * 1024;
  EXPECT_THROW((void)run_model_check(config), std::invalid_argument);
}

TEST(ModelChecker, SerialSpillingAlsoPreservesTheReport) {
  // The serial BFS owns the spill path: a single-worker spilling run with
  // grant ops must match its resident twin.
  auto config = config_for(hv::kXen48, 2, /*grants=*/true);
  config.threads = 1;
  const auto resident = run_model_check(config);
  config.max_frontier_bytes = 8 * 1024;
  config.spill_dir = own_spill_dir("SerialSpillingAlsoPreservesTheReport");
  const auto spilled = run_model_check(config);
  EXPECT_TRUE(spill_dir_empty(config.spill_dir));
  EXPECT_EQ(render_report(resident), render_report(spilled));
  EXPECT_GT(spilled.frontier_spilled_items, 0u);
}

TEST(ModelChecker, SpillingRunStaysWithinItsFrontierBudget) {
  // The budget is a ceiling on resident frontier bytes, not a chunk size:
  // the accounted peak never passes it, every spilled state is reloaded
  // (none is left behind in the file), and the report is the resident
  // run's.
  auto config = config_for(hv::kXen46, 3);
  config.guest_domains = 2;
  config.machine_frames =
      16 + config.dom0_pages + 2 * config.domain_pages + 16;
  const auto resident = run_model_check(config);
  ASSERT_FALSE(resident.truncated);

  config.max_frontier_bytes = 1024 * 1024;
  config.spill_dir = own_spill_dir("SpillingRunStaysWithinItsFrontierBudget");
  const auto spilled = run_model_check(config);
  EXPECT_TRUE(spill_dir_empty(config.spill_dir));
  EXPECT_GT(spilled.frontier_spilled_items, 0u);
  EXPECT_LE(spilled.peak_frontier_bytes, config.max_frontier_bytes);
  EXPECT_EQ(spilled.frontier_spill_reloads, spilled.frontier_spilled_items);
  EXPECT_EQ(render_report(resident), render_report(spilled));
}

TEST(ModelChecker, TruncatedCleanRunFailsTheExpectation) {
  // A clean-but-truncated result must not pass an "expect clean" gate:
  // the unexplored remainder could hold a violation.
  auto config = config_for(hv::kXen413, 3);
  config.max_states = 10;
  const auto truncated = run_model_check(config);
  ASSERT_TRUE(truncated.truncated);
  ASSERT_TRUE(truncated.clean());
  EXPECT_FALSE(evaluate_expectation(truncated, "clean").pass);
  EXPECT_NE(std::string::npos,
            evaluate_expectation(truncated, "clean").message.find("TRUNCATED"));
  EXPECT_TRUE(
      evaluate_expectation(truncated, "clean", /*allow_truncated=*/true).pass);

  // Full-coverage runs keep their verdicts on both sides of the gate.
  const auto clean = run_model_check(config_for(hv::kXen413, 2));
  EXPECT_TRUE(evaluate_expectation(clean, "clean").pass);
  const auto vulnerable = run_model_check(config_for(hv::kXen46, 2));
  EXPECT_FALSE(evaluate_expectation(vulnerable, "clean").pass);
  EXPECT_TRUE(evaluate_expectation(vulnerable, "vulnerable").pass);
}

TEST(ModelChecker, EngineStatsAreSeparateFromTheReport) {
  auto config = config_for(hv::kXen46, 2);
  config.threads = 2;
  const auto result = run_model_check(config);
  EXPECT_EQ(2u, result.threads_used);
  // Work was done and summed from the per-worker machines: the sharded
  // engine runs on the CoW forest, so captures and rehashes must show up.
  EXPECT_GT(result.cow_captures, 0u);
  EXPECT_GT(result.hash_frames_rehashed, 0u);
  EXPECT_NE(std::string::npos,
            render_engine_stats(result).find("snapshot engine"));
  // ...but the report proper never mentions it (it is the one output that
  // would differ between thread counts).
  EXPECT_EQ(std::string::npos, render_report(result).find("snapshot engine"));
}

TEST(ModelChecker, DeterministicProfileIsIdenticalAcrossThreadCounts) {
  // The dual-clock contract: the deterministic render (logical counts only)
  // must be byte-identical at any --threads; scheduling-dependent phases
  // appear only in the wall render, flagged with '*'.
  std::string baseline;
  for (const unsigned threads : {1u, 2u, 4u}) {
    auto config = config_for(hv::kXen46, 2, /*grants=*/true);
    config.threads = threads;
    obs::SpanProfiler prof;
    config.profiler = &prof;
    (void)run_model_check(config);
    const std::string det = render_profile(prof, /*include_wall=*/false);
    if (baseline.empty()) {
      baseline = det;
      EXPECT_NE(det.find("check"), std::string::npos);
      EXPECT_NE(det.find("expand"), std::string::npos);
      EXPECT_NE(det.find("audit"), std::string::npos);
    } else {
      EXPECT_EQ(baseline, det) << "threads=" << threads;
    }
    if (threads > 1) {
      const std::string wall = render_profile(prof, /*include_wall=*/true);
      EXPECT_NE(wall.find("produce *"), std::string::npos);
      EXPECT_NE(wall.find("admit *"), std::string::npos);
      EXPECT_NE(wall.find("settle *"), std::string::npos);
      // None of those may leak into the cmp-gated deterministic render.
      EXPECT_EQ(det.find("produce"), std::string::npos);
    }
  }
}

TEST(ModelChecker, StatusBoardTracksCheckerProgress) {
  auto config = config_for(hv::kXen46, 2);
  obs::StatusBoard board;
  config.status = &board;
  const auto result = run_model_check(config);
  const obs::StatusSnapshot s = board.snapshot();
  EXPECT_FALSE(s.checker_active);  // checker_end() ran
  EXPECT_EQ(s.checker_states, result.states_explored);
  EXPECT_EQ(s.checker_violations, result.violations_found);
  EXPECT_EQ(s.checker_depth, 2u);
}

}  // namespace
}  // namespace ii::analysis
