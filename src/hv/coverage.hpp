// Validation-engine branch coverage (the fuzzer's feedback signal).
//
// The validation engine (memory.cpp, grant_table.cpp) makes a small, closed
// set of accept/reject decisions, several of them gated on VersionPolicy
// knobs — the XSA-148 PSE acceptance, the XSA-182 linear-slot fast path, the
// XSA-212 unchecked copy, the XSA-387 downgrade leak. ValidationBranch
// enumerates every such decision point; a CoverageHook attached to the
// Hypervisor observes (branch, frame type) pairs as hypercalls execute.
// Combined with the issuing operation's kind, that triple — op type × frame
// type × version-policy branch taken — is the coverage key the
// coverage-guided fuzzer (core/fuzz.hpp) feeds on.
//
// Cost model, same as TraceSink/SpanProfiler: the hypervisor never owns the
// hook, and with none attached every instrumentation site is one
// predicted-not-taken branch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "hv/frame_table.hpp"

namespace ii::hv {

/// One accept/reject decision point in the validation engine. Entries are
/// grouped by the function that fires them; the Xsa*-named branches exist
/// only under the vulnerable policies, so covering them is direct evidence
/// the fuzzer reached a version-dependent path.
enum class ValidationBranch : std::uint8_t {
  // validate_entry_target()
  EntryNonPresent,      ///< non-present entry accepted as-is
  EntryReservedBits,    ///< reserved bits set -> EINVAL
  EntryBadFrame,        ///< target frame outside the machine -> EINVAL
  Xsa148PseAccepted,    ///< vulnerable L2 PSE entry accepted unvalidated
  PseRejected,          ///< hardened superpage rejection
  EntryForeignFrame,    ///< target owned by another domain, or a linear
                        ///< slot naming another table -> EPERM
  L1Writable,           ///< writable leaf: target must take Writable type
  L1ReadOnlyRef,        ///< read-only leaf: plain existence reference
  IntermediateLink,     ///< intermediate entry: child table must validate
  // get_page_type()
  TypeWritableOk,       ///< Writable type granted (fresh or re-referenced)
  TypeWritableBusy,     ///< typed page may not become guest-writable
  TypeTableRef,         ///< already-validated table re-referenced
  TypeTableBusy,        ///< conflicting type -> EBUSY
  TypeTableValidated,   ///< fresh table validation succeeded
  TypeTableRejected,    ///< fresh table validation failed
  // validate_and_write_entry(), Xen-reserved L4 window
  ReservedSlotStrict,   ///< strict_reserved_slot_check refusal
  ReservedSlotNonLinear,///< reserved slot other than the linear slot
  LinearSlotCleared,    ///< linear slot cleared (non-present write)
  LinearRoSelfMap,      ///< read-only linear self map accepted
  Xsa182FastpathTaken,  ///< writable linear map via the unvalidated fast path
  LinearRwRefused,      ///< writable linear map refused (the fix)
  // copy_to_guest() / hypercall_memory_exchange()
  ExchangeOutputChecked,   ///< XSA-212 fix: access_ok'd user-rights copy
  ExchangeOutputUnchecked, ///< XSA-212: supervisor-rights unchecked copy
  ExchangeBusy,            ///< in-extent still typed/mapped -> EBUSY
  // hypercall_mmuext_op()
  PinOk,
  PinRefused,
  UnpinOk,
  UnpinRefused,
  BaseptrOk,
  BaseptrRefused,
  // GrantOps::set_version()
  GrantStatusMapped,    ///< v2 upgrade exposed the Xen-owned status frame
  GrantDowngradeLeak,   ///< XSA-387: downgrade kept the status mapping
  GrantDowngradeClean,  ///< hardened downgrade released the status frame
  // hypercall_arbitrary_access()
  InjectorServed,
  InjectorRefused,
};

inline constexpr std::size_t kValidationBranchCount = 35;

/// Number of PageType values a coverage key distinguishes (None..XenHeap).
inline constexpr std::size_t kCoverageFrameTypes = 9;

[[nodiscard]] std::string to_string(ValidationBranch b);

/// Observer interface the fuzzer implements. `frame_type` is the type of
/// the frame the decision was about at the time of the decision (None when
/// the branch is not about a specific frame).
class CoverageHook {
 public:
  virtual ~CoverageHook() = default;
  virtual void on_branch(ValidationBranch branch, PageType frame_type) = 0;
};

}  // namespace ii::hv
