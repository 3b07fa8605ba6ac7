// Bounded model checker for the hypervisor state machine.
//
// The paper's verdict logic (erroneous state either causes a security
// violation or is handled) rests on the direct-paging invariants being
// airtight; campaigns only exercise the handful of paths a use case
// happens to drive. This checker closes that gap for small configurations:
// starting from a freshly booted machine with one or two small PV domains,
// it exhaustively enumerates guest-issuable operation sequences
// (mmu_update / pin / unpin / new_baseptr / memory_exchange, optionally the
// grant ops) up to a depth bound, driving the *real* validation engine —
// Hypervisor::validate_and_write_entry, validate_table and the frame-table
// type transitions — and audits every reachable state against all nine
// InvariantAuditor invariants.
//
// Exploration is breadth-first with Hypervisor::state_hash() as the dedup
// key and a FIFO work queue, so runs are deterministic and every
// counterexample trace is minimal (no shorter operation sequence reaches
// that violating state). A queued state is its op prefix and its hash:
// expanding it rewinds to the root snapshot, replays the prefix and checks
// the hash, then applies each op and rewinds to the parent by delta
// (hv/snapshot.hpp). Violating states are terminal: the checker reports
// the op sequence, the violated invariants, and a state diff against the
// parent state, then does not expand further.
//
// The intended theorem, checked by tests and CI: under the 4.6 policy the
// bounded space reaches the paper's XSA erroneous states (XSA-148 superpage
// window at depth 1, XSA-182 writable self map and XSA-212 IDT clobber at
// depth 2, XSA-387 stale grant status with grant ops enabled), while the
// 4.8 and 4.13 policies admit NO invariant violation anywhere in the same
// space.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hv/guest_op.hpp"
#include "hv/recovery.hpp"
#include "hv/version.hpp"

namespace ii::obs {
class SpanProfiler;
class StatusBoard;
}  // namespace ii::obs

namespace ii::analysis {

/// Shape of the bounded configuration and exploration limits.
struct ModelCheckConfig {
  hv::XenVersion version = hv::kXen46;
  /// Maximum operation-sequence length explored.
  unsigned depth = 2;
  /// Whole-machine size. Must fit Xen (16 frames) + all domains + slack
  /// for memory_exchange's fresh allocations.
  std::uint64_t machine_frames = 64;
  /// Unprivileged guests built next to dom0; ops are issued by guests.
  unsigned guest_domains = 1;
  std::uint64_t dom0_pages = 16;
  std::uint64_t domain_pages = 16;
  /// Include the grant-table ops (set_version / grant / map / unmap) in
  /// the alphabet. Off by default: the v2→v1 downgrade leak (XSA-387) is
  /// present on every pre-4.13 policy, so with grants enabled 4.8 is
  /// *expected* to show GrantLifecycle violations.
  bool include_grant_ops = false;
  /// Safety valves.
  std::uint64_t max_states = 100000;
  std::size_t max_counterexamples = 32;
  /// Worker threads for the single-pass owner-computes exploration: 0 picks
  /// hardware concurrency, 1 keeps the serial BFS. Any value produces
  /// byte-identical violations, counterexamples and render_report() —
  /// dedup admission is partitioned by state hash over fixed shards, and
  /// each shard owner independently reproduces the serial first-encounter
  /// decision (see DESIGN.md §16). A run with max_frontier_bytes set is
  /// always serial, whatever this says.
  unsigned threads = 1;
  /// Ceiling on resident frontier bytes (deterministic accounting: op-prefix
  /// labels + fixed per-item overhead). 0 = unbounded. A state that would
  /// push the queued total past it spills to spill_dir, which must then be
  /// set (run_model_check throws otherwise). Spilling runs use the serial
  /// BFS (DESIGN.md §9).
  std::uint64_t max_frontier_bytes = 0;
  /// Directory for the frontier spill file (created by the caller). The
  /// file gets a unique name (frontier-XXXXXX.spill), so concurrent checks
  /// may share the directory, and is deleted when the check ends. A spilled
  /// state is the record a resident one holds — its op prefix and expected
  /// hash — written to the file and read back when it pops. Spilling adds
  /// no engine work: reports and every counter except the frontier peak and
  /// the spill counters match the resident run's.
  std::string spill_dir;
  /// Optional telemetry, both null by default (instrumentation then costs
  /// one branch per site). The profiler receives deterministic per-depth
  /// check/dN/{expand,audit} spans whose counts and steps are identical at
  /// any thread count — the serial driver records them directly, the
  /// sharded driver recomputes the serial tallies from its per-parent scan
  /// records — plus Sched-kind engine phases (wall-only): the sharded
  /// engine's per-worker produce/admit/settle and the serial BFS's
  /// spill-file writes and reads. The board receives live depth / frontier /
  /// states-explored updates for the /status endpoint. Single run per
  /// profiler: spans accumulate.
  obs::SpanProfiler* profiler = nullptr;
  obs::StatusBoard* status = nullptr;
};

/// The erroneous-state families of the paper's use cases, recognized in
/// violating states so the checker can *prove* which XSAs a version policy
/// admits (classification uses the same shared SystemWalk as the audits).
enum class ErroneousStateClass : std::uint8_t {
  Xsa148SuperpageWindow,   ///< writable 2 MiB leaf covering page-table frames
  Xsa182WritableSelfMap,   ///< writable 4 KiB leaf covering a table frame
  Xsa212IdtClobber,        ///< IDT gate no longer matches boot state
  Xsa387StaleGrantStatus,  ///< grant-status frame reachable after downgrade
  Other,                   ///< any violation outside the four families
};

[[nodiscard]] std::string to_string(ErroneousStateClass c);
inline constexpr std::size_t kErroneousStateClassCount = 5;

/// Classify a violating state against the paper's erroneous-state families,
/// over the same SystemWalk the invariant audit used. Sorted, deduplicated.
/// Public because the coverage-guided fuzzer (core/fuzz.hpp) reuses the
/// checker's recognizers to flag surviving states the four XSA scenarios do
/// not cover (those classify as ErroneousStateClass::Other).
[[nodiscard]] std::vector<ErroneousStateClass> classify_erroneous_state(
    const hv::Hypervisor& vmm, const hv::SystemWalk& walk,
    const hv::InvariantReport& report);

/// One step of an enumerated trace: a guest op, the guest that issues it,
/// and its human-readable form, e.g.
/// "d1: mmu_update L2[mfn 0x33][0] <- 2MiB PSE superpage over own region".
/// The op is self-contained, so a trace replays against a fresh machine of
/// the same configuration through hv::apply_guest_op.
struct Step {
  hv::DomainId caller = 0;
  hv::GuestOp op;
  std::string label;
};

/// A minimal trace into a violating state.
struct Counterexample {
  std::vector<Step> steps;         ///< root → violation, in order
  unsigned depth = 0;              ///< == steps.size()
  std::uint64_t state_hash = 0;    ///< hash of the violating state
  hv::InvariantReport report;      ///< the failed audit, with details
  std::vector<hv::Invariant> violated;          ///< deduplicated
  std::vector<ErroneousStateClass> classes;     ///< recognized families
  std::vector<std::string> state_diff;          ///< vs the parent state
  [[nodiscard]] std::string trace_string() const;
};

struct ModelCheckResult {
  ModelCheckConfig config;
  std::uint64_t states_explored = 0;  ///< unique states audited (incl. root)
  std::uint64_t ops_applied = 0;      ///< total operation applications
  std::uint64_t states_deduped = 0;   ///< successors folded by hash
  std::uint64_t failed_ops = 0;       ///< rc != 0 and state unchanged
  std::uint64_t violations_found = 0; ///< violating states (all, incl. uncaptured)
  bool truncated = false;             ///< hit max_states
  unsigned threads_used = 1;          ///< workers the run actually used
  std::vector<Counterexample> counterexamples;  ///< first max_counterexamples

  /// Snapshot-engine work done during the run (from the hypervisor's
  /// SnapshotStats): proof the incremental paths skip what they should.
  std::uint64_t snapshot_frames_copied = 0;  ///< frames written by restores
  std::uint64_t hash_frames_rehashed = 0;    ///< frame digests recomputed
  std::uint64_t delta_restores = 0;
  /// Always 0: every rewind is a delta restore. Kept for perfbench, which
  /// reads it.
  std::uint64_t full_restores = 0;
  std::uint64_t cow_captures = 0;            ///< CoW forest nodes captured
  std::uint64_t cow_frames_copied = 0;       ///< frames materialized as blocks
  std::uint64_t cow_frames_shared = 0;       ///< frames aliased from a parent

  /// Frontier accounting. `ops_executed` counts actual op applications on
  /// any machine. The serial BFS adds each expanded state's prefix replay
  /// to the enumeration (ops_applied), spilled or not; the sharded engine
  /// restores CoW nodes and replays nothing. Kept out of render_report
  /// because it differs between the engines.
  std::uint64_t ops_executed = 0;
  std::uint64_t peak_frontier_bytes = 0;     ///< deterministic accounting
  std::uint64_t frontier_spilled_items = 0;  ///< states written to the spill
  std::uint64_t frontier_spill_reloads = 0;  ///< states replayed back in
  std::uint64_t frontier_spill_bytes = 0;    ///< bytes appended to the spill
  /// Visited-set occupancy per hash shard at the end of the run (identical
  /// at any thread count for non-truncated runs: the committed set is the
  /// reachable bounded space regardless of scheduling).
  std::vector<std::uint64_t> shard_occupancy;

  /// Per-invariant violating-state counts, indexed by hv::Invariant.
  std::array<std::uint64_t, hv::kInvariantCount> invariant_hits{};
  /// Violating-state counts per recognized erroneous-state class.
  std::array<std::uint64_t, kErroneousStateClassCount> class_hits{};

  [[nodiscard]] bool clean() const { return violations_found == 0; }
  [[nodiscard]] bool reached(ErroneousStateClass c) const {
    return class_hits[static_cast<std::size_t>(c)] != 0;
  }
};

/// Run the bounded check. Deterministic: identical config → identical
/// result, including counterexample order.
[[nodiscard]] ModelCheckResult run_model_check(const ModelCheckConfig& config);

/// Multi-line human-readable summary (what analysis_cli prints).
/// Byte-identical at any thread count; snapshot-engine work counters are
/// deliberately excluded (render_engine_stats) because per-worker restore
/// costs depend on scheduling.
[[nodiscard]] std::string render_report(const ModelCheckResult& result);

/// Engine work summary (restores, frames copied, digests redone, CoW
/// forest sharing, frontier peak/spill, shard occupancy). Kept out of
/// render_report: with multiple workers each machine restores from
/// whatever state it last held, the engines differ in replay and capture
/// work, and the frontier budget sets the peak and the spill counters, so
/// these counters — and only these — vary with configuration and
/// scheduling.
[[nodiscard]] std::string render_engine_stats(const ModelCheckResult& result);

/// CI-gate verdict shared by analysis_cli --expect and the preflight tests.
/// A truncated run never passes an `expect == "clean"` gate unless
/// `allow_truncated` is set: "no violation found" is meaningless when the
/// bounded space was not actually covered.
struct GateVerdict {
  bool pass = false;
  std::string message;  ///< one line, no trailing newline
};
[[nodiscard]] GateVerdict evaluate_expectation(const ModelCheckResult& result,
                                               std::string_view expect,
                                               bool allow_truncated = false);

}  // namespace ii::analysis
