// Page-table and IDT auditing.
//
// The paper's experiments verify injected erroneous states by *auditing* the
// live system ("a page-table walk to audit the same erroneous state was
// performed", §VI-C). This module provides that capability: enumerate every
// guest-reachable leaf mapping, check the direct-paging safety invariants,
// and diff the IDT against the boot-time handlers. The ii::core monitors
// build their erroneous-state verdicts on top of these reports.
//
// An audit costs what changed since the previous audit of the same machine
// (DESIGN.md §9): the Hypervisor keeps an AuditMemo, and walk_system() and
// audit_system() reuse what it holds while the frames it was read from
// keep their write generations. walk_system_full() and audit_system_full()
// recompute everything and touch no memo; they are the tests' oracle, as
// state_hash_full() is for the state digest.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hv/hypervisor.hpp"

namespace ii::hv {

/// One leaf mapping discovered by a full table walk.
struct LeafMapping {
  sim::Vaddr va{};          ///< first virtual address of the run
  sim::Mfn mfn{};           ///< first machine frame mapped
  std::uint64_t bytes = 0;  ///< 4 KiB or 2 MiB
  bool writable = false;    ///< cumulative RW along the walk
  bool user = false;        ///< cumulative US along the walk

  friend bool operator==(const LeafMapping&, const LeafMapping&) = default;
};

/// Invoke `fn` for every present leaf reachable from the L4 table `root`.
/// Self-referencing entries are followed exactly as the hardware would
/// (depth-limited by the 4 walk levels), so linear/self maps show up as
/// leaves pointing at table frames.
void for_each_leaf(const Hypervisor& hv, sim::Mfn root,
                   const std::function<void(const LeafMapping&)>& fn);

/// The user-reachable leaf mappings of one domain's current address space.
/// Supervisor-only leaves (Xen text, the private directmap) are not
/// materialized: every consumer filters them out, and the directmap alone
/// contributes one leaf per machine frame.
struct DomainWalk {
  DomainId domain = kDomInvalid;
  std::vector<LeafMapping> leaves;

  friend bool operator==(const DomainWalk&, const DomainWalk&) = default;
};

/// One page-table walk over every live domain, materialized. Built once per
/// audit and shared by every invariant check (and by the model checker's
/// erroneous-state classifiers), so the tables are traversed at most once
/// and all consumers agree on what was reachable.
using SystemWalk = std::vector<DomainWalk>;

/// The walk of every live domain. A domain whose cr3 and every table its
/// memoized walk read still carry the same write generations is not
/// walked again: its leaves are copied from the memo.
[[nodiscard]] SystemWalk walk_system(const Hypervisor& hv);

/// The same walk computed from scratch, ignoring and not touching the
/// memo. Exists so tests can assert the memoized walk never drifts.
[[nodiscard]] SystemWalk walk_system_full(const Hypervisor& hv);

/// Classes of invariant violations the auditor recognizes.
enum class FindingKind {
  GuestWritablePageTable,  ///< a user-writable mapping covers a PT frame
  GuestWritableXenFrame,   ///< a user-writable mapping covers a Xen frame
  GuestMapsForeignFrame,   ///< a user mapping covers another domain's frame
  CorruptIdtGate,          ///< an IDT gate no longer matches boot state
  ForeignXenL3Entry,       ///< a non-Xen entry linked into the shared Xen L3
  ReservedSlotTampered,    ///< guest L4 reserved slot deviates from Xen's
  StaleGrantMapping,       ///< grant-status frame reachable after downgrade
};

[[nodiscard]] std::string to_string(FindingKind kind);

struct AuditFinding {
  FindingKind kind{};
  DomainId domain = kDomInvalid;  ///< domain whose tables exposed it (if any)
  std::string detail;

  friend bool operator==(const AuditFinding&, const AuditFinding&) = default;
};

struct AuditReport {
  std::vector<AuditFinding> findings;
  [[nodiscard]] bool clean() const { return findings.empty(); }
  [[nodiscard]] bool has(FindingKind kind) const {
    for (const auto& f : findings)
      if (f.kind == kind) return true;
    return false;
  }
};

/// Run every audit over the whole platform (walks the tables itself).
[[nodiscard]] AuditReport audit_system(const Hypervisor& hv);

/// Same audits over a walk the caller already materialized — the hoisted
/// form every repeated consumer (InvariantAuditor, model checker) uses.
/// The leaf and reserved-slot checks run on every call; the IDT and
/// Xen-L3 findings come from the memo while those frames are unwritten.
[[nodiscard]] AuditReport audit_system(const Hypervisor& hv,
                                       const SystemWalk& walk);

/// Every audit from scratch over walk_system_full(), ignoring and not
/// touching the memo: the oracle audit_system() must always equal.
[[nodiscard]] AuditReport audit_system_full(const Hypervisor& hv);

/// What the audits of one machine remember between calls. The Hypervisor
/// owns it (mutable, beside the state digest's terms) and of() hands it
/// out. Every entry is keyed by what it was computed from, so a stale
/// entry is recomputed, never used:
///  - a domain's user-leaf walk, by the domain's cr3 and the (table MFN,
///    write generation) pairs the walk read. The walk depends only on those
///    tables' bytes, and a (frame, generation) pair names fixed bytes on one
///    machine (sim/phys_mem.hpp);
///  - the IDT and Xen-L3 findings, by the generations of the frames read;
///  - the refcount pass's suspects (recovery.cpp), by the synced
///    baseline's HvSnapshot::id.
/// Like the digest cache, the memo makes an audit a write to the machine:
/// audit one machine from one thread at a time.
struct AuditMemo {
  /// One domain's walk, kept in domain order: entry i serves the i-th live
  /// domain. A walk is small (a domain's user leaves and a handful of
  /// tables), so the memo keeps one whole walk per domain, not parsed
  /// tables.
  struct Walk {
    sim::Mfn cr3{~std::uint64_t{0}};  ///< root walked; ~0 until a walk ends
    std::vector<LeafMapping> leaves;
    /// (table MFN, write generation) for every table the walk parsed.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> tables;
  };
  /// The findings of a check that reads fixed frames.
  struct FrameCheck {
    std::vector<std::uint64_t> generations;  ///< of the frames read; empty
                                             ///< until the check first runs
    std::vector<AuditFinding> findings;
  };

  std::vector<Walk> walks;
  FrameCheck idt;
  FrameCheck xen_l3;
  /// Frames whose PageInfo may carry a refcount finding at the synced
  /// baseline `suspects_base` (0: none worked out), ascending.
  std::vector<std::uint64_t> suspects;
  std::uint64_t suspects_base = 0;

  /// `hv`'s memo, made on first use.
  static AuditMemo& of(const Hypervisor& hv) {
    if (!hv.audit_memo_) hv.audit_memo_ = std::make_unique<AuditMemo>();
    return *hv.audit_memo_;
  }
  /// `hv`'s work counters, where the audit adds tables_parsed and
  /// page_infos_checked.
  static SnapshotStats& stats(const Hypervisor& hv) { return hv.snap_stats_; }
  /// HvSnapshot::id of `hv`'s synced baseline (0: none).
  static std::uint64_t synced_baseline(const Hypervisor& hv) {
    return hv.rewind_base_;
  }
};

}  // namespace ii::hv
