// Deterministic hierarchical span profiler.
//
// The trace layer (obs/trace.hpp) answers "what happened"; this module
// answers "where did the work go". A SpanProfiler aggregates named, nested
// phases — checker depths, campaign cell stages, recovery steps — into a
// tree of (count, steps, wall) triples with a *dual clock* design:
//
//   step clock   deterministic work units supplied by the instrumentation
//                site (ops applied, states audited, trace-sink steps,
//                frames copied). Counts and steps are pure functions of the
//                workload, so the deterministic render is byte-identical at
//                any worker count — cmp-gateable exactly like the model
//                checker's report.
//   wall clock   real elapsed time, collected alongside but kept
//                *out-of-band*: it appears only in the wall render, the
//                JSONL export and the Chrome trace, never in the
//                deterministic profile.
//
// Spans are Det or Sched. Det spans live on the logical execution path and
// carry thread-count-independent counts/steps (the serial checker and the
// sharded checker account the same expand/audit work). Sched spans are
// engine mechanics — the sharded checker's produce/admit/settle phases,
// per-worker drains, the serial checker's spill traffic — whose very
// existence depends on --threads or the frontier budget; they are excluded
// from the deterministic render and shown only with wall data (the same
// split as render_report vs render_engine_stats).
//
// Cost model, inherited from TraceSink: every instrumentation site is a
// single `if (profiler)` branch when no profiler is attached; a ScopedSpan
// constructed with a null profiler reads no clock and touches no memory.
// A profiler instance is single-writer (one per cell / per worker, like
// trace sinks); per-worker profilers merge deterministically by path.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace ii::obs {

/// Whether a span's count/steps are deterministic (logical work, identical
/// at any thread count) or scheduling-dependent engine detail.
enum class SpanKind : std::uint8_t { Det, Sched };

// ----------------------------------------------------- span name registry
//
// Every span name used by instrumentation sites is a named constant here,
// and every constant appears in the render-name table in span.cpp
// (span_name_description) — enforced by ii-lint rule span-render-name.
// Dynamic segments (the checker's per-depth "d1", "d2", ... nodes) are the
// deliberate exception: they are data, not vocabulary.

// Model checker (src/analysis). expand/audit are the deterministic
// logical-work spans; produce/admit/settle are the single-pass
// owner-computes engine's Sched-kind phases (DESIGN.md §16), and spill is
// the serial BFS's Sched-kind spill writes and replay reloads (§9).
inline constexpr std::string_view kSpanCheck = "check";
inline constexpr std::string_view kSpanExpand = "expand";
inline constexpr std::string_view kSpanAudit = "audit";
inline constexpr std::string_view kSpanProduce = "produce";
inline constexpr std::string_view kSpanAdmit = "admit";
inline constexpr std::string_view kSpanSettle = "settle";
inline constexpr std::string_view kSpanSpill = "spill";

// Campaign cell lifecycle (src/core/campaign.cpp).
inline constexpr std::string_view kSpanCell = "cell";
inline constexpr std::string_view kSpanAcquire = "acquire";
inline constexpr std::string_view kSpanRestore = "restore";
inline constexpr std::string_view kSpanInject = "inject";
inline constexpr std::string_view kSpanMonitor = "monitor";
inline constexpr std::string_view kSpanRecover = "recover";

// Campaign supervisor (src/core/supervisor.cpp).
inline constexpr std::string_view kSpanSupervisor = "supervisor";
inline constexpr std::string_view kSpanRetry = "retry";
inline constexpr std::string_view kSpanQuarantine = "quarantine";
inline constexpr std::string_view kSpanJournal = "journal";
/// Chaos-engine fault handling (worker crash re-claims, stall spins).
/// Always SpanKind::Sched: which worker absorbs a fault is scheduling,
/// so these must stay out of the deterministic render.
inline constexpr std::string_view kSpanChaos = "chaos";

// ReHype recovery phases (src/hv/recovery.cpp), nested under cell/recover
// when the campaign drives recovery.
inline constexpr std::string_view kSpanPreAudit = "pre_audit";
inline constexpr std::string_view kSpanIdt = "idt";
inline constexpr std::string_view kSpanFrameTable = "frame_table";
inline constexpr std::string_view kSpanP2m = "p2m";
inline constexpr std::string_view kSpanDomains = "domains";
inline constexpr std::string_view kSpanGrants = "grants";
inline constexpr std::string_view kSpanPostAudit = "post_audit";

// Coverage-guided sequence fuzzer (src/core/fuzz.cpp). exec/minimize carry
// deterministic step counts (ops applied); corpus_io wraps trace-file
// persistence.
inline constexpr std::string_view kSpanFuzz = "fuzz";
inline constexpr std::string_view kSpanFuzzExec = "exec";
inline constexpr std::string_view kSpanFuzzMinimize = "minimize";
inline constexpr std::string_view kSpanFuzzCorpus = "corpus_io";

/// One-line description of a registered span name (the render-name table);
/// empty for unregistered/dynamic names.
[[nodiscard]] std::string_view span_name_description(std::string_view name);

/// All registered span names, for tooling and the lint rule's tests.
[[nodiscard]] std::vector<std::string_view> registered_span_names();

// ------------------------------------------------------------------- tree

/// One aggregated node of the span tree. `steps` and `wall_ns` are *self*
/// contributions for steps (children accounted separately) but *inclusive*
/// for wall (a ScopedSpan times everything nested inside it).
struct SpanNode {
  std::string name;
  SpanKind kind = SpanKind::Det;
  std::uint64_t count = 0;    ///< times the span was entered / occurrences
  std::uint64_t steps = 0;    ///< deterministic self work units
  std::uint64_t wall_ns = 0;  ///< out-of-band inclusive elapsed time
  std::map<std::string, std::unique_ptr<SpanNode>, std::less<>> children;

  /// steps plus every descendant's steps. With `include_sched` false,
  /// Sched subtrees are excluded — the roll-up the deterministic render
  /// uses, so engine-mechanics accounting can never leak into a
  /// cmp-gated column.
  [[nodiscard]] std::uint64_t total_steps(bool include_sched = true) const;
};

/// One completed span instance, recorded only when event capture is on —
/// the raw material of the Chrome trace export.
struct SpanEvent {
  std::string path;  ///< "check/d1/classify"
  SpanKind kind = SpanKind::Det;
  std::uint32_t tid = 0;        ///< worker lane
  std::uint64_t ts_us = 0;      ///< start, µs since the profiler epoch
  std::uint64_t dur_us = 0;
  std::uint64_t steps = 0;      ///< deterministic steps inside this instance
};

class SpanProfiler {
 public:
  // ii-analyze:allow(determinism): the wall-clock columns this clock feeds
  // are SpanKind::Sched-gated and excluded from the deterministic render
  // (DESIGN.md §13); the byte-identical profile counts steps, not time.
  using Clock = std::chrono::steady_clock;

  /// Profilers that will be merged (per-worker instances) should share one
  /// epoch so their Chrome-trace timestamps are comparable.
  explicit SpanProfiler(Clock::time_point epoch = Clock::now())
      : epoch_{epoch} {}

  SpanProfiler(const SpanProfiler&) = delete;
  SpanProfiler& operator=(const SpanProfiler&) = delete;

  [[nodiscard]] Clock::time_point epoch() const { return epoch_; }

  /// Worker lane stamped on recorded events.
  void set_tid(std::uint32_t tid) { tid_ = tid; }
  [[nodiscard]] std::uint32_t tid() const { return tid_; }
  /// Record one SpanEvent per completed ScopedSpan (off by default; the
  /// aggregate tree is always maintained).
  void set_record_events(bool on) { record_events_ = on; }
  [[nodiscard]] bool record_events() const { return record_events_; }

  // Cursor interface (used by ScopedSpan; usable directly).
  /// Descend into (creating if absent) the named child of the current span.
  void enter(std::string_view name, SpanKind kind = SpanKind::Det);
  /// Resolve `path` from the root and make its leaf the current span. Only
  /// the leaf's count is incremented. Returns a cursor mark for exit_to.
  std::size_t enter_path(std::initializer_list<std::string_view> path,
                         SpanKind kind = SpanKind::Det);
  /// Pop one level.
  void exit();
  /// Pop to a mark previously returned by enter_path / cursor_mark.
  void exit_to(std::size_t mark);
  [[nodiscard]] std::size_t cursor_mark() const { return stack_.size(); }

  /// Add deterministic work units to the current span.
  void add_steps(std::uint64_t n);
  /// Add out-of-band wall time to the current span.
  void add_wall_ns(std::uint64_t ns);

  /// Record counts/steps at an absolute path without moving the cursor —
  /// the clock-free accounting used on deterministic logical paths.
  void add(std::initializer_list<std::string_view> path, std::uint64_t count,
           std::uint64_t steps, SpanKind kind = SpanKind::Det);

  /// Full path of the current span ("a/b/c"; empty at the root).
  [[nodiscard]] std::string current_path() const;

  [[nodiscard]] const SpanNode& root() const { return root_; }
  [[nodiscard]] const std::vector<SpanEvent>& events() const {
    return events_;
  }
  void record_event(SpanEvent event) { events_.push_back(std::move(event)); }

  /// Fold `other`'s tree (summing by path; Sched taints kind) and append
  /// its events. Merging per-worker profilers in any order produces the
  /// same tree: sums commute and rendering iterates sorted maps.
  void merge(const SpanProfiler& other);

  /// Drop all aggregated data and events (the cursor must be at the root).
  void reset();

 private:
  SpanNode* node_at(std::initializer_list<std::string_view> path,
                    SpanKind kind);

  SpanNode root_;
  std::vector<SpanNode*> stack_;  ///< cursor: root_ excluded, leaf at back
  std::vector<SpanEvent> events_;
  Clock::time_point epoch_;
  std::uint32_t tid_ = 0;
  bool record_events_ = false;
};

/// RAII span: enters on construction, accumulates inclusive wall time (and
/// a SpanEvent when capture is on) on destruction. With a null profiler
/// every member is a no-op and no clock is read. When `step_source` is
/// given, the sink's emitted-count delta over the span's lifetime is added
/// as steps — deterministic, and exception-safe (the delta is captured in
/// the destructor, so a throwing span still accounts its work).
class ScopedSpan {
 public:
  ScopedSpan(SpanProfiler* profiler, std::string_view name,
             SpanKind kind = SpanKind::Det,
             const TraceSink* step_source = nullptr);
  ScopedSpan(SpanProfiler* profiler,
             std::initializer_list<std::string_view> path,
             SpanKind kind = SpanKind::Det,
             const TraceSink* step_source = nullptr);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Add deterministic steps to this span.
  void add_steps(std::uint64_t n);

  /// Finalize now instead of at destruction (idempotent) — for phases
  /// whose lexical scope outlives the timed region.
  void end();

 private:
  void begin(SpanKind kind, const TraceSink* step_source);

  SpanProfiler* profiler_;
  const TraceSink* step_source_ = nullptr;
  std::uint64_t start_sink_steps_ = 0;
  std::uint64_t span_steps_ = 0;
  std::size_t mark_ = 0;
  SpanKind kind_ = SpanKind::Det;
  SpanProfiler::Clock::time_point start_{};
  /// Root-absolute path of this span's node, captured only while event
  /// recording is on. The cursor stack cannot supply it: a ScopedSpan
  /// opened with an absolute path inside an open span would render with
  /// the outer prefix doubled.
  std::string path_;
};

// ---------------------------------------------------------------- renders

/// Aggregated span tree as a fixed-width indented table. With
/// `include_wall` false (the default): deterministic — Det nodes only,
/// columns count / total steps / self steps, byte-identical at any worker
/// count. With `include_wall` true: every node plus a wall-µs column
/// (scheduling-dependent; keep it out of cmp gates).
[[nodiscard]] std::string render_profile(const SpanProfiler& profiler,
                                         bool include_wall = false);

/// Chrome trace-event JSON (chrome://tracing, Perfetto, speedscope). One
/// complete ("ph":"X") event per recorded span instance, µs timestamps
/// from the shared epoch, one lane per tid. Requires
/// set_record_events(true) during the run; returns an empty array
/// otherwise.
[[nodiscard]] std::string chrome_trace_json(const SpanProfiler& profiler);

}  // namespace ii::obs
