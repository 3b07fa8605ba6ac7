// Cloneable, hashable hypervisor state snapshots — full, delta, and
// copy-on-write forest nodes (HvCowState, below).
//
// The Hypervisor itself is non-copyable (it owns callbacks and is wired
// into shared PhysicalMemory), but everything an intrusion — or a hypercall
// — can mutate is plain data: the memory image, the frame table, the
// domains, grant and event-channel bookkeeping, and the liveness flags.
// HvSnapshot captures exactly that set as a value, so the bounded model
// checker (src/analysis) can rewind to its root instead of rebooting, and
// tests can assert byte-precise state equivalence after a rewind.
//
// A snapshot does NOT capture boot-time constants (Xen's own tables, the
// IDT base, default handlers, the version policy, registered sinks and
// executors): those never change after construction, which is why a
// snapshot may only be restored onto the Hypervisor it was taken from.
//
// A full snapshot stores bytes only for the frames written since the
// machine was built: a frame still at PhysicalMemory::kInitialGeneration
// reads as zero, so its bytes go unrecorded and HvSnapshot::frame() hands
// out the zero frame for it. A booted machine's baseline therefore costs
// what boot wrote, plus one generation and one PageInfo per frame.
//
// Incremental capture (DESIGN.md §10): a full snapshot also records the
// physical memory's per-frame write generations at capture time. Relative
// to such a baseline, HvDelta carries only the frames written since —
// identified by generation mismatch, no byte comparison — plus the changed
// frame-table entries and the (small) bookkeeping state in full. The pair
// (baseline, delta) densely describes a machine state:
//   Hypervisor::restore_delta(base)         — back to the baseline, copying
//                                             only frames dirtied since;
//   Hypervisor::snapshot_delta(base)        — capture the current state as
//                                             a delta against the baseline;
//   Hypervisor::restore_delta(base, delta)  — to the delta's state from
//                                             *any* current state, copying
//                                             only frames that can differ.
// Each of these visits only the frames the machine's dirty logs recorded
// since it was last synced to `base` (see Hypervisor's snapshot section);
// against a baseline it is not synced to, it sweeps every frame's
// generation instead.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hv/hypervisor.hpp"

namespace ii::hv {

struct HvSnapshot {
  /// Identity of this capture, unique in the process and shared by copies
  /// (0: none). A Hypervisor compares it with its synced baseline to decide
  /// whether its dirty logs describe the divergence from this snapshot, so
  /// a snapshot must not be modified after capture.
  std::uint64_t id = 0;

  /// Per-frame PhysicalMemory write generation at capture time; together
  /// with the frame bytes this makes "changed since this snapshot" an
  /// integer compare per logged frame instead of an O(bytes) comparison.
  std::vector<std::uint64_t> frame_gens;
  /// Global PhysicalMemory generation at capture (>= every frame_gens[i]).
  std::uint64_t mem_generation = 0;

  /// The frames whose bytes are stored: every frame past
  /// kInitialGeneration at capture, ascending.
  std::vector<std::uint64_t> written_frames;
  /// Their bytes, one frame each in written_frames order. Read them
  /// through frame().
  std::vector<std::uint8_t> written_bytes;

  /// Frame `mfn`'s bytes at capture time: its stored copy, or the zero
  /// frame for a frame never written.
  [[nodiscard]] std::span<const std::uint8_t> frame(std::uint64_t mfn) const;

  /// Per-frame PageInfo, index = MFN.
  std::vector<PageInfo> frames;
  FrameTable::AllocatorState allocator;

  /// Value copies of every live domain, in DomainId order.
  std::vector<Domain> domains;
  DomainId next_domid = kDom0;

  GrantOps::State grants;
  EventChannelOps::State events;

  bool crashed = false;
  bool cpu_hung = false;
  std::vector<std::string> console;

  /// state_hash() at capture time.
  std::uint64_t hash = 0;
};

/// A machine state expressed against a baseline HvSnapshot: only the memory
/// frames written since the baseline (conservatively, by generation — a
/// rewrite of identical bytes is included), only the changed frame-table
/// entries, and the small bookkeeping state in full. Meaningful only
/// together with the baseline it was captured against.
struct HvDelta {
  /// The baseline's mem_generation, for shape/identity sanity checks.
  std::uint64_t base_generation = 0;

  /// MFNs whose contents may differ from the baseline, ascending.
  std::vector<std::uint64_t> mem_frames;
  /// mem_frames.size() * kPageSize bytes, frame-by-frame.
  std::vector<std::uint8_t> mem_bytes;
  /// The write generation of each listed frame at capture time.
  std::vector<std::uint64_t> mem_frame_gens;

  /// Frame-table entries differing from the baseline: (mfn, new PageInfo).
  std::vector<std::pair<std::uint64_t, PageInfo>> frames;

  FrameTable::AllocatorState allocator;
  std::vector<Domain> domains;
  DomainId next_domid = kDom0;
  GrantOps::State grants;
  EventChannelOps::State events;
  bool crashed = false;
  bool cpu_hung = false;
  std::vector<std::string> console;

  /// state_hash() at capture time.
  std::uint64_t hash = 0;
};

/// One immutable 4 KiB frame image, shared between every CoW node whose
/// state contains it. Nodes hold shared_ptr<const HvFrameBlock>; the last
/// node referencing a block frees it — no explicit forest bookkeeping.
struct HvFrameBlock {
  std::array<std::uint8_t, sim::kPageSize> bytes;
};

using HvFrameBlockRef = std::shared_ptr<const HvFrameBlock>;

/// A node of the copy-on-write snapshot *forest*: a machine state expressed
/// against a shared root HvSnapshot, like HvDelta, but with the frame
/// payloads factored into refcounted blocks so sibling states (children of
/// one parent that an op left mostly untouched) share the frames the op
/// did not write instead of each carrying a private copy. Unlike HvDelta a
/// CoW node records no write generations: it is machine-portable by
/// construction and always restored through the write path, which stamps
/// fresh generations.
struct HvCowState {
  /// Frames whose contents may differ from the root, ascending by MFN.
  /// Blocks are shared with the parent node where the capture proved the
  /// frame unchanged since the parent (write generation <= the capture
  /// marker), freshly materialized otherwise.
  std::vector<std::pair<std::uint64_t, HvFrameBlockRef>> mem_frames;

  /// Frame-table entries differing from the root: (mfn, new PageInfo).
  std::vector<std::pair<std::uint64_t, PageInfo>> frames;

  FrameTable::AllocatorState allocator;
  std::vector<Domain> domains;
  DomainId next_domid = kDom0;
  GrantOps::State grants;
  EventChannelOps::State events;
  bool crashed = false;
  bool cpu_hung = false;
  std::vector<std::string> console;

  /// state_hash() at capture time.
  std::uint64_t hash = 0;

  /// Frames this node materialized itself (mem_frames entries not aliased
  /// from the parent). Deterministic — a function of (parent, op), not of
  /// which machine captured the node — so the checker's frontier byte
  /// accounting can budget on it.
  std::uint64_t owned_frames = 0;
};

}  // namespace ii::hv
