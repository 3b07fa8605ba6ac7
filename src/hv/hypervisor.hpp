// The simulated Xen PV hypervisor.
//
// One Hypervisor instance owns the machine: it reserves frames for its own
// text/data/IDT, builds its address space (directmap + guest-visible area +
// the version-dependent linear alias), builds PV domains with direct-paging
// page tables, and services hypercalls with the validation behaviour of the
// configured VersionPolicy. Everything an intrusion can corrupt is in the
// shared sim::PhysicalMemory, so exploits and the injector act on the same
// substrate the legitimate paths use.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hv/abi.hpp"
#include "hv/coverage.hpp"
#include "hv/domain.hpp"
#include "hv/errors.hpp"
#include "hv/event_channel.hpp"
#include "hv/frame_table.hpp"
#include "hv/grant_table.hpp"
#include "hv/layout.hpp"
#include "hv/version.hpp"
#include "obs/trace.hpp"
#include "sim/expected.hpp"
#include "sim/idt.hpp"
#include "sim/mmu.hpp"
#include "sim/phys_mem.hpp"

namespace ii::obs {
class SpanProfiler;  // obs/span.hpp
}  // namespace ii::obs

namespace ii::hv {

struct RecoveryReport;  // recovery.hpp
struct HvSnapshot;      // snapshot.hpp
struct HvDelta;         // snapshot.hpp
struct HvCowState;      // snapshot.hpp

/// Counters over the snapshot/hash/restore machinery since the last
/// reset_snapshot_stats(). The campaign and the model checker surface these
/// as obs metrics (snapshot.frames_copied, hash.frames_rehashed, ...) to
/// prove the incremental paths actually skip work.
struct SnapshotStats {
  std::uint64_t hash_calls = 0;        ///< state_hash() invocations
  std::uint64_t frames_rehashed = 0;   ///< frame digests recomputed
  /// Logged frames whose digest was still current (written, then rewound
  /// to the generation it was computed at).
  std::uint64_t frames_hash_cached = 0;
  /// Memory frames plus PageInfo entries that hashes, captures and rewinds
  /// examined: the dirty logs' entries, or every frame on a full hash or
  /// on a capture or rewind against an unsynced baseline.
  std::uint64_t frames_visited = 0;
  std::uint64_t delta_restores = 0;    ///< both restore_delta overloads
  std::uint64_t frames_copied = 0;     ///< frames written by restores
  std::uint64_t delta_snapshots = 0;
  std::uint64_t frames_delta_captured = 0;  ///< frames copied into deltas
  std::uint64_t cow_captures = 0;      ///< snapshot_cow() invocations
  std::uint64_t cow_restores = 0;      ///< restore_cow() invocations
  std::uint64_t cow_frames_copied = 0;  ///< frames materialized into new blocks
  std::uint64_t cow_frames_shared = 0;  ///< frames aliased from the parent

  /// Fold another engine's counters in (the parallel model checker sums
  /// per-worker machines into one result).
  SnapshotStats& operator+=(const SnapshotStats& o) {
    hash_calls += o.hash_calls;
    frames_rehashed += o.frames_rehashed;
    frames_hash_cached += o.frames_hash_cached;
    frames_visited += o.frames_visited;
    delta_restores += o.delta_restores;
    frames_copied += o.frames_copied;
    delta_snapshots += o.delta_snapshots;
    frames_delta_captured += o.frames_delta_captured;
    cow_captures += o.cow_captures;
    cow_restores += o.cow_restores;
    cow_frames_copied += o.cow_frames_copied;
    cow_frames_shared += o.cow_frames_shared;
    return *this;
  }

  friend bool operator==(const SnapshotStats&, const SnapshotStats&) = default;
};

/// Construction parameters.
struct HvConfig {
  /// Frames reserved at boot for hypervisor text/data (frame 0 holds the
  /// guest-readable XenInfoPage; the IDT gets its own frame).
  std::uint64_t xen_frames = 16;
  /// Whether the HYPERVISOR_arbitrary_access injector hypercall is compiled
  /// in (the paper's prototype is a patched build; stock builds refuse it
  /// with -ENOSYS).
  bool injector_enabled = false;
};

/// Guest-readable identification block at the start of Xen's text mapping
/// (stand-in for the layout knowledge a real attacker gets from the Xen
/// binary and its symbol table).
struct XenInfoPage {
  static constexpr std::uint64_t kMagic = 0x58454E5F494E464FULL;  // "XEN_INFO"
  std::uint64_t magic = kMagic;
  std::uint32_t version_major = 0;
  std::uint32_t version_minor = 0;
  std::uint64_t xen_l3_paddr = 0;  ///< machine address of the shared Xen L3
  std::uint64_t idt_paddr = 0;     ///< machine address of the IDT
};

/// What the hypervisor passes to the registered code executor when an IDT
/// gate dispatches into attacker-mapped memory.
struct ExecutionContext {
  unsigned vector = 0;
  sim::Vaddr handler{};    ///< gate target (hypervisor linear address)
  sim::Mfn code_frame{};   ///< machine frame the handler resolved to
  std::uint64_t offset = 0;  ///< handler offset within the frame
};

/// Outcome of a guest-virtual-address access attempt.
struct GuestAccessFault {
  sim::FaultReason reason{};
  std::string detail;
};

class Hypervisor {
 public:
  Hypervisor(sim::PhysicalMemory& mem, VersionPolicy policy,
             HvConfig config = {});

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  // ------------------------------------------------------------- identity
  [[nodiscard]] const VersionPolicy& policy() const { return policy_; }
  [[nodiscard]] XenVersion version() const { return policy_.version; }
  [[nodiscard]] bool injector_enabled() const { return config_.injector_enabled; }

  // ------------------------------------------------------------- lifecycle
  [[nodiscard]] bool crashed() const { return crashed_; }
  /// Fatal error: logs the Xen panic banner and halts the machine. Public
  /// because the platform glue reports guest-triggered fatal states too.
  void panic(const std::string& reason);

  /// ReHype-style micro-reboot (recovery.cpp): after a panic or a wedged
  /// CPU, reconstruct the hypervisor's bookkeeping in place — IDT and
  /// shared-L3 reset, frame types/refcounts re-derived by re-walking (and
  /// sanitizing) every domain's page tables, P2M reconciliation, grant
  /// reference re-derivation — while preserving guest memory contents.
  /// Returns the invariant audits taken before and after. Domains whose
  /// tables cannot be made safe again are marked crashed (ReHype's
  /// "failed VM" outcome) rather than aborting recovery.
  RecoveryReport recover();

  /// Per-line hypervisor console ring ("(XEN) ..." lines).
  [[nodiscard]] const std::vector<std::string>& console() const {
    return console_;
  }
  void log(const std::string& line);

  // ------------------------------------------------------------- domains
  /// Build a PV domain: allocates `nr_pages` machine-contiguous frames,
  /// constructs its initial direct-paging tables (kernel directmap at
  /// kGuestKernelBase), pins the L4 and loads CR3. The first domain created
  /// must be dom0 (privileged).
  DomainId create_domain(const std::string& name, bool privileged,
                         std::uint64_t nr_pages);

  [[nodiscard]] Domain& domain(DomainId id);
  [[nodiscard]] const Domain& domain(DomainId id) const;
  [[nodiscard]] std::vector<DomainId> domain_ids() const;

  // ------------------------------------------------------------- hypercalls
  /// HYPERVISOR_mmu_update: validated page-table writes. `done` (optional)
  /// receives the number of requests completed.
  long hypercall_mmu_update(DomainId caller, std::span<const MmuUpdate> reqs,
                            unsigned* done = nullptr);

  /// HYPERVISOR_update_va_mapping: update the L1 entry mapping `va` in the
  /// caller's current address space.
  long hypercall_update_va_mapping(DomainId caller, sim::Vaddr va,
                                   sim::Pte val);

  /// HYPERVISOR_mmuext_op: pin/unpin/baseptr operations.
  long hypercall_mmuext_op(DomainId caller, const MmuExtOp& op);

  /// HYPERVISOR_memory_op(XENMEM_exchange). Carries XSA-212 when the policy
  /// says so.
  long hypercall_memory_exchange(DomainId caller, MemoryExchange& exch);

  /// HYPERVISOR_memory_op(XENMEM_decrease_reservation): balloon one page
  /// out. The page must be unmapped and type-free; its P2M slot empties.
  long hypercall_decrease_reservation(DomainId caller, sim::Pfn pfn);

  /// HYPERVISOR_memory_op(XENMEM_populate_physmap): balloon one page back
  /// into an empty P2M slot. Deliberately does NOT scrub the frame — a
  /// recycled frame carries whatever the scrub-on-destroy policy left in it.
  long hypercall_populate_physmap(DomainId caller, sim::Pfn pfn);

  /// XEN_DOMCTL_destroydomain, dom0-only: tear a domain down — unpin its
  /// tables, release every frame (scrubbed per policy), drop it from the
  /// domain list. Refused with -EBUSY while foreign grant mappings of its
  /// pages exist.
  long hypercall_domctl_destroy(DomainId caller, DomainId victim);

  /// HYPERVISOR_set_trap_table.
  long hypercall_set_trap_table(DomainId caller, std::span<const TrapInfo> traps);

  /// HYPERVISOR_console_io: append a guest line to the console ring.
  long hypercall_console_io(DomainId caller, const std::string& line);

  /// HYPERVISOR_sched_op(shutdown).
  long hypercall_sched_op_shutdown(DomainId caller, ShutdownReason reason);

  /// HYPERVISOR_arbitrary_access — the intrusion-injection interface
  /// (paper §V-B). Refused with -ENOSYS unless built with the injector.
  long hypercall_arbitrary_access(DomainId caller, const ArbitraryAccess& req);

  /// HYPERVISOR_grant_table_op surface (see GrantOps for the sub-ops).
  [[nodiscard]] GrantOps& grants() { return grants_; }
  [[nodiscard]] const GrantOps& grants() const { return grants_; }

  /// HYPERVISOR_event_channel_op surface (see EventChannelOps).
  [[nodiscard]] EventChannelOps& events() { return events_; }
  [[nodiscard]] const EventChannelOps& events() const { return events_; }

  /// Grant-v2 plumbing used by GrantOps: expose/remove the Xen-owned grant
  /// status frame through the guest's kGrantStatusPfn window.
  long map_grant_status_page(DomainId domain, sim::Mfn status_frame);
  long unmap_grant_status_page(DomainId domain);

  /// Availability state: a wedged (livelocked) CPU, distinct from a panic.
  [[nodiscard]] bool cpu_hung() const { return cpu_hung_; }
  void report_cpu_hang(const std::string& reason);

  // --------------------------------------------------------------- snapshot
  // Capture, rewind and the state digest (snapshot.cpp). Their cost follows
  // the frames an execution dirtied, not the machine size (DESIGN.md §10):
  // PhysicalMemory and the FrameTable log every written frame, and these
  // paths read the logs.
  //
  // Rewinds and captures are O(dirty) against the *synced* baseline: the
  // snapshot most recently taken by snapshot() or rewound to by
  // restore_delta / restore_cow. Against any other snapshot they stay
  // correct but sweep every frame, and a restore then makes its target the
  // synced baseline.

  /// Capture the complete mutable machine state — physical memory image,
  /// frame table (incl. allocator), domains, grant and event-channel state,
  /// liveness flags — as a value, and make it the synced baseline. A
  /// snapshot is only valid for restoring onto the *same* Hypervisor
  /// instance (boot-time layout — xen tables, IDT base, policy — is not
  /// captured because it never changes after construction). The bounded
  /// model checker (src/analysis) rewinds to one such root instead of
  /// rebooting.
  /// Memory bytes are copied only for frames written since construction;
  /// every other frame is zero (HvSnapshot::frame()).
  [[nodiscard]] HvSnapshot snapshot() const;

  /// Capture the current state as a delta against `base` (a full snapshot
  /// previously taken from this machine): only frames written since the
  /// baseline, changed frame-table entries, and the small bookkeeping in
  /// full. No byte comparisons.
  [[nodiscard]] HvDelta snapshot_delta(const HvSnapshot& base) const;

  /// Restore back to `base` from any state and make it the synced
  /// baseline, copying only frames written since it was taken. Against an
  /// unsynced snapshot it compares every frame's generation and copies
  /// only the frames whose generation differs. Returns frames copied.
  std::uint64_t restore_delta(const HvSnapshot& base);

  /// Restore to the state `delta` describes (captured against `base` on
  /// this machine), from any current state: frames currently diverged from
  /// the baseline are rewound, frames the delta carries are applied with
  /// their recorded write generations. Returns frames copied.
  std::uint64_t restore_delta(const HvSnapshot& base, const HvDelta& delta);

  /// Capture the current state as a node of the copy-on-write snapshot
  /// forest (snapshot.hpp): frames diverged from `base` either alias the
  /// parent node's refcounted blocks (unchanged since the parent) or are
  /// materialized into fresh blocks. `gen_marker` must be the memory
  /// generation observed immediately after the parent state was restored
  /// onto this machine — every frame written since then (generation >
  /// marker) gets a new block, every other diverged frame must be present
  /// in `parent`. Pass parent == nullptr when the machine was last rewound
  /// to `base` itself (all diverged frames are then fresh).
  [[nodiscard]] HvCowState snapshot_cow(const HvSnapshot& base,
                                        const HvCowState* parent,
                                        std::uint64_t gen_marker) const;

  /// Restore to the state a CoW node describes, from any current state.
  /// CoW nodes are machine-portable (they carry bytes, not generations):
  /// node frames go through the ordinary write path, which stamps fresh
  /// generations — the capturing machine's generations could collide with
  /// ones this machine already gave to different bytes and leave a stale
  /// frame digest — and frames diverged from `base` that the node does not
  /// carry are rewound to the baseline. Returns frames copied.
  std::uint64_t restore_cow(const HvSnapshot& base, const HvCowState& cow);

  /// Digest of the semantically observable state (memory, frame table +
  /// allocator, domains with canonicalized pin order, grant and
  /// event-channel state, liveness flags; console excluded). Two states
  /// with equal hashes behave identically under every further hypercall —
  /// the model checker's dedup key.
  ///
  /// The digest is an order-independent sum with one term per memory frame
  /// (mixing its MFN with the 64-bit FNV-1a digest of its bytes) and one
  /// per PageInfo, plus a sequential word hash of the small bookkeeping.
  /// It depends only on the state, never on the path that reached it or on
  /// the machine that computed it. Incremental: only the terms of frames
  /// the dirty logs report since the previous call are recomputed, and a
  /// memory frame's bytes are re-read only when its write generation moved.
  [[nodiscard]] std::uint64_t state_hash() const;

  /// Same digest computed from scratch, ignoring and not touching the
  /// cached terms or the logs. Exists so tests can assert the incremental
  /// path never drifts; always equals state_hash().
  [[nodiscard]] std::uint64_t state_hash_full() const;

  [[nodiscard]] const SnapshotStats& snapshot_stats() const { return snap_stats_; }
  void reset_snapshot_stats() { snap_stats_ = SnapshotStats{}; }

  // ---------------------------------------------------------- observability
  /// Attach (or detach with nullptr) a trace sink. The same sink is wired
  /// into the software MMU so walk faults carry through. The hypervisor
  /// never owns the sink; campaigns attach a per-cell sink, tools a
  /// process-wide one. With no sink attached every instrumentation site is
  /// one predicted-not-taken branch.
  void set_trace_sink(obs::TraceSink* sink) {
    trace_ = sink;
    mmu_.set_trace_sink(sink);
  }
  [[nodiscard]] obs::TraceSink* trace_sink() const { return trace_; }

  /// Attach (or detach with nullptr) a span profiler; same ownership and
  /// cost model as the trace sink. Currently only recover() is phase-
  /// instrumented: its pre_audit/idt/frame_table/p2m/domains/grants/
  /// post_audit spans nest under whatever span the caller has open (the
  /// campaign's cell/recover), with deterministic step counts taken from
  /// the RecoveryReport counters.
  void set_span_profiler(obs::SpanProfiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] obs::SpanProfiler* span_profiler() const { return profiler_; }

  /// Attach (or detach with nullptr) a validation-branch coverage hook
  /// (hv/coverage.hpp); same ownership and cost model as the trace sink.
  /// The coverage-guided fuzzer is the intended consumer: every accept/
  /// reject decision in the validation engine reports which branch it took
  /// and what kind of frame it was deciding about.
  void set_coverage_hook(CoverageHook* hook) { cov_ = hook; }
  [[nodiscard]] CoverageHook* coverage_hook() const { return cov_; }

  // ----------------------------------------------------- guest memory access
  /// Perform a data access at guest virtual address `va` on behalf of
  /// domain `caller` (guest kernel or user code; both are "user" to the
  /// MMU in this PV model). On fault the hypervisor first dispatches the
  /// page-fault vector through the IDT — which is how a corrupted IDT turns
  /// the *next* fault into a host crash — and then reports the fault.
  [[nodiscard]] Expected<std::monostate, GuestAccessFault> guest_read(
      DomainId caller, sim::Vaddr va, std::span<std::uint8_t> out);
  [[nodiscard]] Expected<std::monostate, GuestAccessFault> guest_write(
      DomainId caller, sim::Vaddr va, std::span<const std::uint8_t> in);

  /// Resolve a guest VA without performing an access (no fault delivery).
  [[nodiscard]] Expected<sim::Walk, sim::PageFault> guest_walk(
      DomainId caller, sim::Vaddr va) const;

  // -------------------------------------------------------------- interrupts
  /// `int $vector` executed by a guest. Dispatches through the (corruptible)
  /// in-memory IDT: a malformed gate double-faults the host; a gate whose
  /// handler resolves into mapped executable memory outside Xen's text runs
  /// through the registered code executor with hypervisor privilege.
  long software_interrupt(DomainId caller, unsigned vector);

  using CodeExecutor = std::function<void(const ExecutionContext&)>;
  void set_code_executor(CodeExecutor exec) { executor_ = std::move(exec); }

  /// `sidt`: linear address of the IDT as the hypervisor sees it.
  [[nodiscard]] sim::Vaddr sidt() const;

  // ------------------------------------------------------------ introspection
  [[nodiscard]] sim::PhysicalMemory& memory() { return *mem_; }
  [[nodiscard]] const sim::PhysicalMemory& memory() const { return *mem_; }
  [[nodiscard]] FrameTable& frames() { return frames_; }
  [[nodiscard]] const FrameTable& frames() const { return frames_; }
  [[nodiscard]] const sim::Mmu& mmu() const { return mmu_; }

  [[nodiscard]] sim::Mfn xen_root() const { return xen_l4_; }
  [[nodiscard]] sim::Mfn xen_l3() const { return xen_l3_; }
  [[nodiscard]] sim::Paddr idt_base() const { return idt_base_; }
  [[nodiscard]] sim::Idt idt() { return sim::Idt{*mem_, idt_base_}; }

  /// Legitimate handler address installed at boot for `vector`.
  [[nodiscard]] std::uint64_t default_handler(unsigned vector) const;

  /// Hypervisor-privilege translation (through Xen's own tables).
  [[nodiscard]] Expected<sim::Walk, sim::PageFault> hv_translate(
      sim::Vaddr va, sim::AccessType access) const;

  /// True when the 4.9+ policy forbids guest data access to `va` outside
  /// the explicitly exposed Xen ranges. Exposed for tests.
  [[nodiscard]] bool guest_range_blocked(sim::Vaddr va) const;

 private:
  // boot helpers
  void build_xen_address_space();
  void install_default_idt();
  sim::Mfn alloc_xen_table();

  // domain-builder helpers
  sim::Mfn build_guest_tables(Domain& dom, sim::Mfn first_frame,
                              std::uint64_t nr_pages);
  void install_reserved_slots(sim::Mfn l4);
  /// Machine address of the L1 slot backing `pfn`'s directmap address, or
  /// nullopt when the backing table's P2M entry is gone (possible after a
  /// recovery dropped corrupted P2M slots).
  [[nodiscard]] std::optional<sim::Paddr> guest_l1_slot(const Domain& dom,
                                                        sim::Pfn pfn) const;

  // validation engine (memory.cpp)
  long validate_and_write_entry(Domain& caller, sim::Mfn table, unsigned index,
                                sim::Pte entry);
  long validate_entry_target(Domain& caller, sim::PtLevel level, sim::Pte entry);
  long get_page_type(Domain& caller, sim::Mfn mfn, PageType wanted);
  long get_page_type_impl(Domain& caller, sim::Mfn mfn, PageType wanted);
  void put_page_type(sim::Mfn mfn);
  long validate_table(Domain& caller, sim::Mfn mfn, sim::PtLevel level);
  void invalidate_table(sim::Mfn mfn);
  [[nodiscard]] PageType table_type_of(sim::PtLevel level) const;
  [[nodiscard]] std::optional<sim::PtLevel> level_of_type(PageType t) const;

  // copy engine
  long copy_to_guest(Domain& caller, sim::Vaddr va,
                     std::span<const std::uint8_t> bytes, bool checked);

  // recovery helpers (recovery.cpp). `pins` carries the pre-crash (mfn,
  // type) hints for the domain's pinned tables — the frame reset wipes the
  // live types before the sanitizer runs.
  std::uint64_t recover_sanitize_tables(
      Domain& dom, const std::vector<std::pair<sim::Mfn, PageType>>& pins);

  // fault plumbing
  void dispatch_exception(unsigned vector);

  sim::PhysicalMemory* mem_;
  VersionPolicy policy_;
  HvConfig config_;
  sim::Mmu mmu_;
  FrameTable frames_;

  // Xen's own address space.
  sim::Mfn xen_l4_{};
  sim::Mfn xen_l3_{};        ///< shared L3 installed at L4 slot 256
  sim::Mfn directmap_l3_{};  ///< supervisor directmap at L4 slot 262
  sim::Paddr idt_base_{};
  std::uint64_t xen_text_bytes_ = 0;
  std::vector<std::uint64_t> default_handlers_;

  std::map<DomainId, std::unique_ptr<Domain>> domains_;
  DomainId next_domid_ = kDom0;

  GrantOps grants_{*this};
  EventChannelOps events_{*this};

  bool crashed_ = false;
  bool cpu_hung_ = false;
  std::vector<std::string> console_;
  CodeExecutor executor_;
  obs::TraceSink* trace_ = nullptr;
  obs::SpanProfiler* profiler_ = nullptr;
  CoverageHook* cov_ = nullptr;

  /// Instrumentation shorthand for the validation engine (memory.cpp).
  void cover(ValidationBranch b, PageType t = PageType::None) const {
    if (cov_ != nullptr) cov_->on_branch(b, t);
  }

  // The incremental state digest (snapshot.cpp). Mutable: the cached
  // terms are an optimization of a const observation, not state.
  // mem_term_gen_[m] is the write generation mem_term_[m] was computed at;
  // digest_sum_ is the sum of every memory and PageInfo term. Empty until
  // the first state_hash() computes every term.
  mutable std::vector<std::uint64_t> mem_term_;
  mutable std::vector<std::uint64_t> mem_term_gen_;
  mutable std::vector<std::uint64_t> info_term_;
  mutable std::uint64_t digest_sum_ = 0;
  /// HvSnapshot::id of the synced baseline (0: none): the snapshot the
  /// Rewind readers of both dirty logs were last synced to.
  mutable std::uint64_t rewind_base_ = 0;
  mutable SnapshotStats snap_stats_;

  // snapshot.cpp helpers.
  [[nodiscard]] std::uint64_t bookkeeping_digest() const;
  /// Make `base` the synced baseline; the machine must be in its state,
  /// apart from frames written after this call.
  void sync_rewind(std::uint64_t base_id) const;
  /// Frames to examine against `base`, ascending: `log` (a Rewind log)
  /// when `base` is the synced baseline, every frame otherwise.
  [[nodiscard]] std::vector<std::uint64_t> rewind_set(
      const HvSnapshot& base, std::span<const std::uint64_t> log) const;
  /// Frame-table entries differing from `base`, ascending.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, PageInfo>> changed_info(
      const HvSnapshot& base) const;
  /// Rewind every memory frame and PageInfo diverged from `base` except
  /// the memory frames in `overlay` (ascending; the caller writes them
  /// next), then make `base` the synced baseline. Returns frames copied.
  std::uint64_t rewind_to(const HvSnapshot& base,
                          std::span<const std::uint64_t> overlay);
  template <class State>
  void capture_bookkeeping(State& s) const;
  template <class State>
  void restore_bookkeeping(const State& s);
};

}  // namespace ii::hv
