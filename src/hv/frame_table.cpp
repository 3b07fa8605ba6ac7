#include "hv/frame_table.hpp"

#include <stdexcept>

namespace ii::hv {

std::string to_string(PageType type) {
  switch (type) {
    case PageType::None: return "none";
    case PageType::L1: return "l1_pagetable";
    case PageType::L2: return "l2_pagetable";
    case PageType::L3: return "l3_pagetable";
    case PageType::L4: return "l4_pagetable";
    case PageType::Writable: return "writable";
    case PageType::SegDesc: return "seg_descriptor";
    case PageType::GrantStatus: return "grant_status";
    case PageType::XenHeap: return "xen_heap";
  }
  return "invalid";
}

FrameTable::FrameTable(std::uint64_t frames) : info_(frames), log_{frames} {
  if (frames == 0) throw std::invalid_argument{"FrameTable: zero frames"};
}

PageInfo& FrameTable::info(sim::Mfn mfn) {
  PageInfo& pi = info_.at(mfn.raw());
  log_.note(mfn.raw());
  return pi;
}

void FrameTable::hand_out(std::uint64_t raw, DomainId owner) {
  PageInfo& pi = info_[raw];
  pi = PageInfo{};
  pi.owner = owner;
  pi.ref_count = 1;
  log_.note(raw);
}

std::optional<sim::Mfn> FrameTable::alloc(DomainId owner) {
  // Prefer never-allocated frames (sequential MFNs), falling back to the
  // FIFO free list once the machine fills up. Sequential allocation is the
  // predictability the XSA-212 exploit's value grooming banks on.
  std::uint64_t raw;
  if (alloc_.bump < info_.size()) {
    raw = alloc_.bump++;
  } else if (!alloc_.free_list.empty()) {
    raw = alloc_.free_list.front();
    alloc_.free_list.pop_front();
  } else {
    return std::nullopt;
  }
  hand_out(raw, owner);
  return sim::Mfn{raw};
}

std::optional<sim::Mfn> FrameTable::alloc_prefer_recycled(DomainId owner) {
  std::uint64_t raw;
  if (!alloc_.free_list.empty()) {
    raw = alloc_.free_list.front();
    alloc_.free_list.pop_front();
  } else if (alloc_.bump < info_.size()) {
    raw = alloc_.bump++;
  } else {
    return std::nullopt;
  }
  hand_out(raw, owner);
  return sim::Mfn{raw};
}

std::optional<sim::Mfn> FrameTable::alloc_contiguous(DomainId owner,
                                                     std::uint64_t count) {
  if (count == 0) return std::nullopt;
  // Contiguous runs only come from the never-allocated bump region; the
  // FIFO list is for single-frame churn.
  if (alloc_.bump + count > info_.size()) return std::nullopt;
  const std::uint64_t start = alloc_.bump;
  alloc_.bump += count;
  for (std::uint64_t i = 0; i < count; ++i) hand_out(start + i, owner);
  return sim::Mfn{start};
}

void FrameTable::free(sim::Mfn mfn) {
  PageInfo& pi = info(mfn);
  if (pi.owner == kDomInvalid) throw std::logic_error{"double free of frame"};
  if (pi.ref_count != 1 || pi.type_count != 0) {
    throw std::logic_error{"freeing frame with live references"};
  }
  pi = PageInfo{};
  alloc_.free_list.push_back(mfn.raw());
}

std::vector<sim::Mfn> FrameTable::frames_of(DomainId owner) const {
  std::vector<sim::Mfn> out;
  for (std::uint64_t i = 0; i < info_.size(); ++i) {
    if (info_[i].owner == owner) out.push_back(sim::Mfn{i});
  }
  return out;
}

std::uint64_t FrameTable::free_frames() const {
  return alloc_.free_list.size() + (info_.size() - alloc_.bump);
}

}  // namespace ii::hv
