// Frame table: per-machine-frame ownership, type and reference tracking.
//
// This is the simulator's equivalent of Xen's `struct page_info` array and
// the heart of PV memory safety. Xen's direct-paging security invariant —
// the one every vulnerability in the paper's use cases breaks — is enforced
// through page *types*: a frame validated as a page-table page (L1..L4) must
// never simultaneously be mapped writable by a guest, and vice versa. The
// hypervisor's entry-validation code acquires and releases type references
// here; the monitors audit it; the exploits bypass it.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/dirty_log.hpp"
#include "sim/types.hpp"

namespace ii::hv {

/// Domain identifier. 0 is the privileged control domain (dom0).
using DomainId = std::uint16_t;

inline constexpr DomainId kDom0 = 0;
/// Owner of hypervisor-private frames (Xen text/data, IDT, grant status).
inline constexpr DomainId kDomXen = 0x7FF0;
/// "No domain" marker for free frames.
inline constexpr DomainId kDomInvalid = 0x7FFF;

/// Validated role of a frame. Mirrors Xen's PGT_* types.
enum class PageType : std::uint8_t {
  None,         ///< no constrained use yet
  L1,           ///< leaf page-table page
  L2,
  L3,
  L4,           ///< top-level page-table page
  Writable,     ///< mapped writable by at least one guest mapping
  SegDesc,      ///< descriptor-table page (GDT/LDT/IDT)
  GrantStatus,  ///< grant-table v2 status page
  XenHeap,      ///< hypervisor-private allocation
};

[[nodiscard]] std::string to_string(PageType type);

/// True for the four page-table types.
[[nodiscard]] constexpr bool is_pagetable_type(PageType t) {
  return t == PageType::L1 || t == PageType::L2 || t == PageType::L3 ||
         t == PageType::L4;
}

/// Page-table type for a numeric walk level (1..4), None otherwise.
[[nodiscard]] constexpr PageType pagetable_type_of_level(int level) {
  switch (level) {
    case 1: return PageType::L1;
    case 2: return PageType::L2;
    case 3: return PageType::L3;
    case 4: return PageType::L4;
    default: return PageType::None;
  }
}

/// The direct-paging core invariant, in predicate form: a guest-reachable
/// mapping with write rights must never cover a frame in page-table use.
/// Shared by the auditor (audit.cpp), the recovery sanitizer (recovery.cpp)
/// and the model checker (src/analysis) so all three agree by construction.
[[nodiscard]] constexpr bool is_writable_pagetable_mapping(bool writable,
                                                           PageType frame_type) {
  return writable && is_pagetable_type(frame_type);
}

/// Book-keeping for one machine frame.
struct PageInfo {
  DomainId owner = kDomInvalid;
  PageType type = PageType::None;
  /// References holding the frame at its current type (e.g. the number of
  /// validated upper-level entries pointing at a page-table page, or the
  /// number of writable mappings of a Writable page).
  std::uint32_t type_count = 0;
  /// General existence references (allocation itself counts as one).
  std::uint32_t ref_count = 0;
  /// Set once the frame's contents passed validation for its type.
  bool validated = false;

  friend bool operator==(const PageInfo&, const PageInfo&) = default;
};

/// The frame table plus a simple FIFO frame allocator.
///
/// The allocator's FIFO recycling is deliberately observable: the XSA-212
/// privilege-escalation exploit grooms allocation so that the machine frame
/// number returned by `memory_exchange` has attacker-chosen low bits, and a
/// FIFO free list makes frame numbers cycle predictably, just like the
/// paper's real-world exploit relied on allocator predictability.
///
/// Like PhysicalMemory, the table keeps a sim::DirtyLog of the entries
/// handed out for writing: the mutable info() and the allocator note the
/// frame, so the state digest and the snapshot rewind (hv/snapshot.cpp)
/// visit only entries that may have changed.
class FrameTable {
 public:
  explicit FrameTable(std::uint64_t frames);

  [[nodiscard]] std::uint64_t frame_count() const { return info_.size(); }

  /// Mutable access logs `mfn` as written; read through the const overload
  /// where no write follows. The const overload is inline: the invariant
  /// audit reads one entry per machine frame.
  [[nodiscard]] PageInfo& info(sim::Mfn mfn);
  [[nodiscard]] const PageInfo& info(sim::Mfn mfn) const {
    return info_.at(mfn.raw());
  }

  /// Entries handed out for writing since `reader` last synced.
  [[nodiscard]] std::span<const std::uint64_t> dirty_frames(
      sim::DirtyReader reader) const {
    return log_.since_sync(reader);
  }
  /// Start `reader`'s log afresh. Const because it changes what a reader
  /// has seen, not the table.
  void sync_dirty(sim::DirtyReader reader) const { log_.sync(reader); }

  /// Allocate one free frame for `owner`. Returns nullopt when memory is
  /// exhausted. The frame comes back with type None, ref_count 1.
  /// Prefers never-allocated frames (sequential MFNs — what exchange's
  /// fresh-chunk allocation models, and what the XSA-212 grooming relies
  /// on), falling back to the free list.
  [[nodiscard]] std::optional<sim::Mfn> alloc(DomainId owner);

  /// Allocate preferring recently-freed frames (FIFO) — what heap reuse on
  /// ballooning (populate_physmap) models. Falls back to the bump region.
  [[nodiscard]] std::optional<sim::Mfn> alloc_prefer_recycled(DomainId owner);

  /// Allocate `count` machine-contiguous frames (used by the domain builder
  /// so that XSA-148's 2 MiB superpage window is meaningful).
  [[nodiscard]] std::optional<sim::Mfn> alloc_contiguous(DomainId owner,
                                                         std::uint64_t count);

  /// Return a frame to the free list. Requires ref_count==1, type_count==0.
  void free(sim::Mfn mfn);

  /// Frames currently allocated to `owner`.
  [[nodiscard]] std::vector<sim::Mfn> frames_of(DomainId owner) const;

  [[nodiscard]] std::uint64_t free_frames() const;

  /// The allocator's complete hidden state. Snapshot/restore (see
  /// hv/snapshot.hpp) must capture it because allocation order is
  /// semantically observable: the XSA-212 grooming depends on it, and a
  /// restored state must hand out the same frames as the original would.
  struct AllocatorState {
    std::deque<std::uint64_t> free_list;  ///< FIFO
    std::uint64_t bump = 0;               ///< next never-allocated frame
  };
  [[nodiscard]] const AllocatorState& allocator_state() const {
    return alloc_;
  }
  void restore_allocator(const AllocatorState& state) { alloc_ = state; }

 private:
  /// Reset `raw` to a fresh allocation owned by `owner`.
  void hand_out(std::uint64_t raw, DomainId owner);

  std::vector<PageInfo> info_;
  AllocatorState alloc_;
  mutable sim::DirtyLog log_;
};

}  // namespace ii::hv
