// Dirty-frame log: the frames written since a reader last synced.
//
// sim::PhysicalMemory and hv::FrameTable each keep one, fed from the single
// place that already stamps a write, so the hypervisor's state digest and
// its snapshot rewind visit the frames an execution touched instead of
// sweeping the machine (DESIGN.md §10). One log serves a fixed set of
// readers: each sees every frame noted since its own last sync(), once, in
// first-write order, and a sync costs what that reader had logged.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ii::sim {

/// The readers of a DirtyLog. Each keeps its own sync point.
enum class DirtyReader : std::uint8_t {
  Digest,  ///< the incremental state hash's per-frame terms
  Rewind,  ///< capture and rewind against the synced baseline snapshot
};
inline constexpr std::size_t kDirtyReaders = 2;

class DirtyLog {
 public:
  explicit DirtyLog(std::uint64_t frames) : marks_(frames, 0) {}

  /// Record a write to `frame` for every reader that has not logged it yet.
  void note(std::uint64_t frame) {
    std::uint8_t& mark = marks_[frame];
    if (mark == kAllReaders) return;
    for (std::size_t r = 0; r < kDirtyReaders; ++r) {
      if ((mark & (1u << r)) == 0) lists_[r].push_back(frame);
    }
    mark = kAllReaders;
  }

  /// Frames noted since `reader` last synced, each once, first write first.
  [[nodiscard]] std::span<const std::uint64_t> since_sync(
      DirtyReader reader) const {
    return lists_[index(reader)];
  }

  /// Start `reader` afresh; O(frames it had logged).
  void sync(DirtyReader reader) {
    const std::size_t r = index(reader);
    const auto keep = static_cast<std::uint8_t>(~(1u << r));
    for (const std::uint64_t frame : lists_[r]) marks_[frame] &= keep;
    lists_[r].clear();
  }

 private:
  static constexpr std::uint8_t kAllReaders = (1u << kDirtyReaders) - 1;
  static constexpr std::size_t index(DirtyReader reader) {
    return static_cast<std::size_t>(reader);
  }

  std::vector<std::uint8_t> marks_;  ///< bit r: frame is in lists_[r]
  std::array<std::vector<std::uint64_t>, kDirtyReaders> lists_;
};

}  // namespace ii::sim
