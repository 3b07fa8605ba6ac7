#include "sim/phys_mem.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>

namespace ii::sim {

PhysicalMemory::PhysicalMemory(std::uint64_t frames)
    : frames_{frames},
      frame_gen_(frames, kInitialGeneration),
      log_{frames} {
  if (frames == 0) throw std::invalid_argument{"PhysicalMemory: zero frames"};
  bytes_.reset(static_cast<std::uint8_t*>(std::calloc(frames, kPageSize)));
  if (bytes_ == nullptr) throw std::bad_alloc{};
}

bool PhysicalMemory::contains(Paddr pa, std::uint64_t len) const {
  return len != 0 && pa.raw() < byte_size() && byte_size() - pa.raw() >= len;
}

void PhysicalMemory::check_range(Paddr pa, std::uint64_t len) const {
  if (!contains(pa, len)) {
    throw std::out_of_range{"physical access beyond installed RAM at 0x" +
                            std::to_string(pa.raw())};
  }
}

void PhysicalMemory::mark_range_dirty(Paddr pa, std::uint64_t len) {
  const std::uint64_t gen = ++generation_;
  const std::uint64_t first = pa.raw() / kPageSize;
  const std::uint64_t last = (pa.raw() + len - 1) / kPageSize;
  for (std::uint64_t m = first; m <= last; ++m) stamp(m, gen);
}

void PhysicalMemory::read(Paddr pa, std::span<std::uint8_t> out) const {
  check_range(pa, out.size());
  std::memcpy(out.data(), bytes_.get() + pa.raw(), out.size());
}

void PhysicalMemory::write(Paddr pa, std::span<const std::uint8_t> in) {
  check_range(pa, in.size());
  mark_range_dirty(pa, in.size());
  std::memcpy(bytes_.get() + pa.raw(), in.data(), in.size());
}

std::uint64_t PhysicalMemory::read_u64(Paddr pa) const {
  check_range(pa, sizeof(std::uint64_t));
  std::uint64_t v = 0;
  std::memcpy(&v, bytes_.get() + pa.raw(), sizeof v);
  return v;
}

void PhysicalMemory::write_u64(Paddr pa, std::uint64_t value) {
  check_range(pa, sizeof value);
  mark_range_dirty(pa, sizeof value);
  std::memcpy(bytes_.get() + pa.raw(), &value, sizeof value);
}

std::uint64_t PhysicalMemory::read_slot(Mfn table, unsigned index) const {
  if (index >= kPtEntries) throw std::out_of_range{"page-table slot index"};
  return read_u64(mfn_to_paddr(table) + index * sizeof(std::uint64_t));
}

void PhysicalMemory::write_slot(Mfn table, unsigned index,
                                std::uint64_t value) {
  if (index >= kPtEntries) throw std::out_of_range{"page-table slot index"};
  write_u64(mfn_to_paddr(table) + index * sizeof(std::uint64_t), value);
}

void PhysicalMemory::zero_frame(Mfn mfn) {
  check_range(mfn_to_paddr(mfn), kPageSize);
  mark_dirty(mfn);
  std::memset(bytes_.get() + mfn_to_paddr(mfn).raw(), 0, kPageSize);
}

std::span<const std::uint8_t> PhysicalMemory::frame_bytes(Mfn mfn) const {
  check_range(mfn_to_paddr(mfn), kPageSize);
  return {bytes_.get() + mfn_to_paddr(mfn).raw(), kPageSize};
}

PhysicalMemory::FrameWriteGuard PhysicalMemory::writable_frame(Mfn mfn) {
  check_range(mfn_to_paddr(mfn), kPageSize);
  return FrameWriteGuard{*this, mfn};
}

void PhysicalMemory::mark_dirty(Mfn mfn) {
  check_range(mfn_to_paddr(mfn), kPageSize);
  stamp(mfn.raw(), ++generation_);
}

void PhysicalMemory::restore_frame(Mfn mfn, std::span<const std::uint8_t> bytes,
                                   std::uint64_t gen) {
  check_range(mfn_to_paddr(mfn), kPageSize);
  if (bytes.size() != kPageSize) {
    throw std::logic_error{"restore_frame: not a whole frame"};
  }
  std::memcpy(bytes_.get() + mfn_to_paddr(mfn).raw(), bytes.data(),
              kPageSize);
  stamp(mfn.raw(), gen);
  generation_ = std::max(generation_, gen);
}

}  // namespace ii::sim
