// ReHype-style hypervisor recovery and the invariant auditor behind it.
//
// ReHype (Le & Tamir) showed that a failed hypervisor can be *recovered in
// place* — micro-rebooting the hypervisor component while preserving the
// state of running VMs — instead of rebuilding the whole machine. This
// module brings that idea to the simulator: `Hypervisor::recover()`
// reconstructs every piece of hypervisor bookkeeping an intrusion can
// corrupt (IDT, shared Xen tables, frame types/refcounts, P2M, grant
// references) from the surviving ground truth, and the InvariantAuditor
// measures which safety invariants were violated before and restored after
// — turning "does recovery survive an injected erroneous state?" into a
// campaign-measurable experiment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hv/audit.hpp"
#include "hv/hypervisor.hpp"

namespace ii::hv {

/// The safety invariants recovery promises to restore. The first six are
/// the structural audits of hv/audit.hpp grouped by the property they
/// protect; the last three are bookkeeping-consistency checks only the
/// recovery path needs (a live system maintains them by construction).
enum class Invariant : std::uint8_t {
  Liveness,              ///< not panicked, no wedged CPU
  FrameTypeSafety,       ///< no guest-writable page-table or Xen frame
  AddressSpaceIsolation, ///< no guest mapping of another domain's frame
  IdtIntegrity,          ///< every IDT gate matches its boot-time handler
  XenL3Hygiene,          ///< no foreign entry in the shared Xen L3
  ReservedSlotIntegrity, ///< guest L4 reserved slots match Xen's
  GrantLifecycle,        ///< no stale grant-status mapping
  P2mConsistency,        ///< every P2M entry maps a frame the domain owns
  RefcountConsistency,   ///< frame type/refcount state is self-consistent
};

inline constexpr std::size_t kInvariantCount = 9;

[[nodiscard]] std::string to_string(Invariant invariant);

struct InvariantFinding {
  Invariant invariant{};
  DomainId domain = kDomInvalid;  ///< domain implicated, if any
  std::string detail;
};

/// One full audit pass: which invariants hold, with per-finding detail.
struct InvariantReport {
  std::vector<InvariantFinding> findings;

  [[nodiscard]] bool clean() const { return findings.empty(); }
  [[nodiscard]] bool violated(Invariant invariant) const {
    for (const auto& f : findings)
      if (f.invariant == invariant) return true;
    return false;
  }
  /// Violated invariants, deduplicated, in enum order.
  [[nodiscard]] std::vector<Invariant> violated_set() const;
};

/// Audits the full invariant list against a live hypervisor. Each finding
/// is also emitted on the hypervisor's trace sink as an InvariantViolation
/// event (code = Invariant, domain = implicated domain), so campaigns see
/// violations in the per-cell stream.
class InvariantAuditor {
 public:
  explicit InvariantAuditor(const Hypervisor& hv) : hv_{&hv} {}

  /// Walks the page tables once (hv/audit.hpp walk_system) and runs every
  /// invariant check over the shared walk.
  [[nodiscard]] InvariantReport audit() const;

  /// Same checks over a walk the caller already materialized — what the
  /// model checker uses so audit and erroneous-state classification see
  /// the identical traversal.
  [[nodiscard]] InvariantReport audit(const SystemWalk& walk) const;

  /// Same checks given the structural report audit_system() already made
  /// of the current state; nothing is walked. A caller that needs both
  /// reports (the fuzzer tells "detected by audit" from "no effect" by the
  /// structural one) audits the state once.
  [[nodiscard]] InvariantReport audit(const AuditReport& structural) const;

 private:
  const Hypervisor* hv_;
};

/// What one recovery pass observed and repaired.
struct RecoveryReport {
  InvariantReport pre;   ///< audit taken on entry (the corrupted state)
  InvariantReport post;  ///< audit taken after reconstruction

  std::uint64_t idt_gates_restored = 0;   ///< gates differing from boot state
  std::uint64_t xen_l3_entries_cleared = 0;
  std::uint64_t frames_retyped = 0;       ///< guest frames with rebuilt info
  std::uint64_t p2m_entries_dropped = 0;  ///< P2M slots failing reconciliation
  std::uint64_t ptes_scrubbed = 0;        ///< guest PTEs the sanitizer cleared
  std::vector<DomainId> unrecovered_domains;  ///< revalidation failed; crashed

  /// Recovery succeeded iff the post-recovery audit is clean.
  [[nodiscard]] bool succeeded() const { return post.clean(); }
  /// Invariants violated on entry and clean on exit.
  [[nodiscard]] std::vector<Invariant> restored() const;
};

}  // namespace ii::hv
