// Event tracing, modeled on Xen's xentrace: a bounded ring buffer of typed
// trace events with per-domain attribution and a monotonic sequence counter.
//
// Determinism is a design constraint: events carry *no wall clock*, only a
// per-sink sequence number, so two runs of the same campaign cell produce
// byte-identical traces regardless of host load or thread placement. The
// campaign engine gives every cell its own TraceSink (one hypervisor, one
// sink, one thread), which is what keeps the ring lock-free: there is never
// a concurrent writer, and the campaign supervisor stores per-cell traces
// in deterministic matrix order.
//
// Cost model: every instrumentation site in the hypervisor/simulator is a
// single `if (sink)` branch when no sink is attached — the zero-
// instrumentation configuration every test and benchmark runs in unless it
// opts in.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ii::obs {

/// What kind of event a TraceEvent records. Mirrors xentrace's event
/// classes, specialized to the surfaces this reproduction instruments.
enum class TraceCategory : std::uint8_t {
  HypercallEnter,  ///< numbered hypercall dispatched (code = nr)
  HypercallExit,   ///< numbered hypercall returned (code = nr, rc = status)
  MmuWalk,         ///< software-MMU walk faulted (code = FaultReason, addr = va)
  PageFault,       ///< exception dispatched through the IDT (code = vector)
  PageTypeGet,     ///< frame type reference acquired (code = PageType, addr = mfn)
  PageTypePut,     ///< frame type reference dropped (code = PageType, addr = mfn)
  Panic,           ///< hypervisor panic (host crash)
  CpuHang,         ///< watchdog-detected livelocked CPU
  Injection,       ///< HYPERVISOR_arbitrary_access performed (addr = target)
  GrantOp,         ///< grant-table operation (code = sub-op)
  EventChannel,    ///< event-channel operation (code = sub-op)
  RecoverEnter,    ///< ReHype-style recovery started (code = bit0 panic, bit1 hang)
  RecoverExit,     ///< recovery finished (rc = 0 iff the post-audit is clean)
  InvariantViolation,  ///< invariant auditor finding (code = hv::Invariant)
};

inline constexpr std::size_t kCategoryCount = 14;

[[nodiscard]] std::string to_string(TraceCategory category);

/// Bit for `category` in a category mask.
[[nodiscard]] constexpr std::uint32_t category_bit(TraceCategory category) {
  return 1u << static_cast<unsigned>(category);
}

inline constexpr std::uint32_t kAllCategories =
    (1u << kCategoryCount) - 1;

/// Domain attribution for events raised outside any domain context
/// (hypervisor-internal work, MMU walks).
inline constexpr std::uint16_t kNoDomain = 0xFFFF;

/// One trace record. Fixed-size and trivially copyable so the ring is a
/// flat array; the meaning of `code`/`rc`/`addr` depends on the category
/// (see TraceCategory).
struct TraceEvent {
  std::uint64_t seq = 0;      ///< per-sink monotonic sequence number
  TraceCategory category{};
  std::uint16_t domain = kNoDomain;
  std::uint32_t code = 0;
  std::int64_t rc = 0;
  std::uint64_t addr = 0;
};

/// Thrown by TraceSink::emit when a cell budget is exhausted. The campaign
/// supervisor's deterministic watchdog: budgets count trace steps, which
/// carry no wall clock, so the same cell trips (or doesn't) identically on
/// every run and every thread count.
class BudgetExceededError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Bounded ring of TraceEvents. Overflow overwrites the oldest record, like
/// xentrace's per-cpu buffers; `overwritten()` reports how many were lost.
/// The buffer grows with the events pushed, up to the capacity, so a ring
/// that records nothing allocates nothing.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events currently held (≤ capacity).
  [[nodiscard]] std::size_t size() const;
  /// Total events ever pushed, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const { return total_; }
  [[nodiscard]] std::uint64_t overwritten() const;

  void push(const TraceEvent& event);
  /// Drop every held event; the grown buffer is kept for reuse.
  void clear();

  /// Held events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> buf_;  ///< size() == min(total_, capacity_)
  std::uint64_t total_ = 0;
};

/// The attachment point instrumented code writes to. Owns the ring, the
/// sequence counter, and cheap always-on aggregate counters (per category
/// and per hypercall number) so callers get counts even with an empty
/// category mask.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  /// Per-nr hypercall counters cover the classic table plus the vacant
  /// slots the injector patch occupies (all < 64).
  static constexpr unsigned kMaxHypercallNr = 64;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity,
                     std::uint32_t category_mask = kAllCategories);

  void set_category_mask(std::uint32_t mask) { mask_ = mask; }
  [[nodiscard]] std::uint32_t category_mask() const { return mask_; }

  /// Arm the deterministic watchdog: emit() throws BudgetExceededError once
  /// more than `max_hypercalls` HypercallEnter events or `max_steps` total
  /// events have been recorded (0 disables a cap). The budget is enforced
  /// *after* the offending event is counted, so the trace still shows it.
  void set_budget(std::uint64_t max_hypercalls, std::uint64_t max_steps) {
    hypercall_budget_ = max_hypercalls;
    step_budget_ = max_steps;
  }

  /// Record one event: assigns the next sequence number, bumps the
  /// aggregate counters, and pushes into the ring iff the category is in
  /// the mask. The sequence counter advances for every emit (masked or
  /// not) so counts and sequences stay comparable across masks.
  void emit(TraceCategory category, std::uint16_t domain,
            std::uint32_t code = 0, std::int64_t rc = 0,
            std::uint64_t addr = 0);

  [[nodiscard]] std::uint64_t emitted() const { return seq_; }
  [[nodiscard]] std::uint64_t count(TraceCategory category) const {
    return by_category_[static_cast<std::size_t>(category)];
  }
  [[nodiscard]] std::uint64_t hypercall_count(unsigned nr) const {
    return nr < kMaxHypercallNr ? by_hypercall_[nr] : 0;
  }
  [[nodiscard]] const std::array<std::uint64_t, kMaxHypercallNr>&
  hypercall_counts() const {
    return by_hypercall_;
  }

  [[nodiscard]] TraceRing& ring() { return ring_; }
  [[nodiscard]] const TraceRing& ring() const { return ring_; }

 private:
  TraceRing ring_;
  std::uint32_t mask_;
  std::uint64_t seq_ = 0;
  std::uint64_t hypercall_budget_ = 0;
  std::uint64_t step_budget_ = 0;
  std::array<std::uint64_t, kCategoryCount> by_category_{};
  std::array<std::uint64_t, kMaxHypercallNr> by_hypercall_{};
};

}  // namespace ii::obs
