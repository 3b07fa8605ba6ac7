// Page-table and IDT auditing.
//
// The paper's experiments verify injected erroneous states by *auditing* the
// live system ("a page-table walk to audit the same erroneous state was
// performed", §VI-C). This module provides that capability: enumerate every
// guest-reachable leaf mapping, check the direct-paging safety invariants,
// and diff the IDT against the boot-time handlers. The ii::core monitors
// build their erroneous-state verdicts on top of these reports.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
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
};

/// One page-table walk over every live domain, materialized. Built once per
/// audit and shared by every invariant check (and by the model checker's
/// erroneous-state classifiers), so the tables are traversed exactly once
/// and all consumers agree on what was reachable.
using SystemWalk = std::vector<DomainWalk>;

[[nodiscard]] SystemWalk walk_system(const Hypervisor& hv);

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
[[nodiscard]] AuditReport audit_system(const Hypervisor& hv,
                                       const SystemWalk& walk);

}  // namespace ii::hv
