// Machine physical memory: a flat array of 4 KiB frames.
//
// All state that the simulated platform can corrupt lives here — page
// tables, the IDT, guest kernel pages, the vDSO, exploit payloads. The
// hypervisor, the guests, the exploits and the injector all read and write
// the same PhysicalMemory instance, which is what makes cross-privilege
// memory corruption observable end to end.
//
// Frame store: one calloc'd block, so every frame reads as zero from the
// start. On glibc a block this large is a fresh anonymous mapping, whose
// pages the kernel backs on first write: a frame that is never written
// costs no resident memory and no construction time, and an access stays
// one offset into one block.
//
// Write tracking: every mutation path stamps the covered frames with a
// fresh value of a monotonically increasing generation counter. Because a
// frame's generation changes on every write, the pair (generation,
// contents) is unique per frame: two observations of a frame at the same
// generation are guaranteed byte-identical. In particular a frame still at
// kInitialGeneration reads as zero, so the state digest and the baseline
// snapshot (hv/snapshot.cpp) need not read it. The same stamp also notes
// the frame in a DirtyLog (sim/dirty_log.hpp), so a reader can ask which
// frames were written since it last synced without scanning the machine.
// The hypervisor's state digest and its snapshot rewind are the two
// readers, so a PhysicalMemory serves one Hypervisor at a time; DESIGN.md
// §10 has the model.
//
// Mutation paths that stamp generations and feed the log: write(),
// write_u64(), write_slot(), zero_frame() of a frame past
// kInitialGeneration, mark_dirty(), writable_frame() guards, and
// restore_frame() (which rolls a frame's generation *back* to a recorded
// value together with the bytes that were captured at that value — the
// only path allowed to do so). zero_frame() of a frame still at
// kInitialGeneration changes no byte, so it stamps and logs nothing: the
// domain builder and memory_exchange zero every frame they hand out, and
// a machine stays as cheap as the frames that hold a non-zero byte.
// frame_bytes() is const-only; there is deliberately no unguarded mutable
// view.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "sim/dirty_log.hpp"
#include "sim/types.hpp"

namespace ii::sim {

class PhysicalMemory {
 public:
  /// The generation every frame starts at (0 is reserved as "never
  /// observed"). Invariant: a frame at this generation reads as zero — it
  /// was never written, or restore_frame() rolled it back to bytes
  /// captured before its first write.
  static constexpr std::uint64_t kInitialGeneration = 1;

  /// Create a machine with `frames` frames of 4 KiB, zero-initialized.
  explicit PhysicalMemory(std::uint64_t frames);

  [[nodiscard]] std::uint64_t frame_count() const { return frames_; }
  [[nodiscard]] std::uint64_t byte_size() const { return frames_ * kPageSize; }

  /// True when `pa .. pa+len` lies entirely inside installed memory.
  [[nodiscard]] bool contains(Paddr pa, std::uint64_t len = 1) const;
  [[nodiscard]] bool contains(Mfn mfn) const { return mfn.raw() < frames_; }

  /// Raw byte access. Out-of-range accesses throw std::out_of_range — in
  /// this simulator that models the machine check you would get for a
  /// physical access beyond installed RAM, and tests rely on it.
  void read(Paddr pa, std::span<std::uint8_t> out) const;
  void write(Paddr pa, std::span<const std::uint8_t> in);

  [[nodiscard]] std::uint64_t read_u64(Paddr pa) const;
  void write_u64(Paddr pa, std::uint64_t value);

  /// Read/write one 8-byte page-table slot of a table page.
  [[nodiscard]] std::uint64_t read_slot(Mfn table, unsigned index) const;
  void write_slot(Mfn table, unsigned index, std::uint64_t value);

  /// Zero an entire frame (what the hypervisor does when scrubbing). A
  /// frame at kInitialGeneration is zero already and is left unstamped.
  void zero_frame(Mfn mfn);

  /// Read-only view of one frame's 4096 bytes. Mutation goes through
  /// writable_frame() so the dirty tracking sees it.
  [[nodiscard]] std::span<const std::uint8_t> frame_bytes(Mfn mfn) const;

  // ------------------------------------------------------- write tracking

  /// RAII mutable view of one frame. Stamps the frame dirty on acquisition
  /// and again on release, so writes performed through the span anywhere in
  /// the guard's lifetime are covered even if a hash was taken in between.
  class FrameWriteGuard {
   public:
    FrameWriteGuard(PhysicalMemory& mem, Mfn mfn)
        : mem_{&mem}, mfn_{mfn} { mem.mark_dirty(mfn); }
    ~FrameWriteGuard() { mem_->mark_dirty(mfn_); }
    FrameWriteGuard(const FrameWriteGuard&) = delete;
    FrameWriteGuard& operator=(const FrameWriteGuard&) = delete;

    [[nodiscard]] std::span<std::uint8_t> bytes() {
      return {mem_->bytes_.get() + mfn_.raw() * kPageSize, kPageSize};
    }
    std::uint8_t& operator[](std::uint64_t i) { return bytes()[i]; }

   private:
    PhysicalMemory* mem_;
    Mfn mfn_;
  };

  /// Acquire a write guard for `mfn` (range-checked).
  [[nodiscard]] FrameWriteGuard writable_frame(Mfn mfn);

  /// Stamp `mfn` with a fresh generation without writing (for callers that
  /// mutated — or are about to mutate — through a sanctioned view).
  void mark_dirty(Mfn mfn);

  /// Global write counter: increases on every mutation call, never
  /// decreases. generation() >= frame_generation(m) for every frame.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// Generation stamped on `mfn`'s last write.
  [[nodiscard]] std::uint64_t frame_generation(Mfn mfn) const {
    return frame_gen_[mfn.raw()];
  }
  [[nodiscard]] std::span<const std::uint64_t> frame_generations() const {
    return frame_gen_;
  }

  /// Frames written since `reader` last synced (see DirtyLog): a superset
  /// of the frames whose (generation, contents) moved since then.
  [[nodiscard]] std::span<const std::uint64_t> dirty_frames(
      DirtyReader reader) const {
    return log_.since_sync(reader);
  }
  /// Start `reader`'s log afresh. Const because it changes what a reader
  /// has seen, not the memory.
  void sync_dirty(DirtyReader reader) const { log_.sync(reader); }

  // -------------------------------------------------- snapshot-engine hook
  // The generation-rolling entry point below is reserved for the
  // snapshot/restore engine (hv/snapshot.cpp): it re-establishes a
  // previously observed (generation, contents) pair, which is only sound
  // when bytes and generation were captured together. ii_analyze's
  // dirty-tracking rule enforces the confinement.

  /// Write `bytes` into `mfn` and roll its generation to `gen` (the value
  /// recorded when `bytes` were captured).
  void restore_frame(Mfn mfn, std::span<const std::uint8_t> bytes,
                     std::uint64_t gen);

 private:
  void check_range(Paddr pa, std::uint64_t len) const;
  /// Stamp every frame overlapping [pa, pa+len) with one fresh generation.
  void mark_range_dirty(Paddr pa, std::uint64_t len);
  /// The one place a frame's generation is set: stamp it and log it.
  void stamp(std::uint64_t frame, std::uint64_t gen) {
    frame_gen_[frame] = gen;
    log_.note(frame);
  }

  struct FreeBytes {
    void operator()(std::uint8_t* p) const { std::free(p); }
  };

  std::uint64_t frames_;
  std::unique_ptr<std::uint8_t[], FreeBytes> bytes_;  ///< calloc'd frames
  std::vector<std::uint64_t> frame_gen_;
  std::uint64_t generation_ = kInitialGeneration;
  mutable DirtyLog log_;
};

}  // namespace ii::sim
