#include "obs/trace.hpp"

#include <algorithm>

namespace ii::obs {

std::string to_string(TraceCategory category) {
  switch (category) {
    case TraceCategory::HypercallEnter: return "hypercall_enter";
    case TraceCategory::HypercallExit: return "hypercall_exit";
    case TraceCategory::MmuWalk: return "mmu_walk";
    case TraceCategory::PageFault: return "page_fault";
    case TraceCategory::PageTypeGet: return "page_type_get";
    case TraceCategory::PageTypePut: return "page_type_put";
    case TraceCategory::Panic: return "panic";
    case TraceCategory::CpuHang: return "cpu_hang";
    case TraceCategory::Injection: return "injection";
    case TraceCategory::GrantOp: return "grant_op";
    case TraceCategory::EventChannel: return "event_channel";
    case TraceCategory::RecoverEnter: return "recover_enter";
    case TraceCategory::RecoverExit: return "recover_exit";
    case TraceCategory::InvariantViolation: return "invariant_violation";
  }
  return "unknown";
}

TraceRing::TraceRing(std::size_t capacity)
    : capacity_{capacity == 0 ? 1 : capacity} {}

std::size_t TraceRing::size() const { return buf_.size(); }

std::uint64_t TraceRing::overwritten() const { return total_ - buf_.size(); }

void TraceRing::push(const TraceEvent& event) {
  if (buf_.size() < capacity_) {
    if (buf_.size() == buf_.capacity()) {  // grow geometrically, to capacity
      buf_.reserve(std::min(capacity_, 2 * buf_.size() + 64));
    }
    buf_.push_back(event);
  } else {
    buf_[static_cast<std::size_t>(total_ % capacity_)] = event;
  }
  ++total_;
}

void TraceRing::clear() {
  buf_.clear();
  total_ = 0;
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = total_ - n;
  for (std::uint64_t i = first; i < total_; ++i) {
    out.push_back(buf_[static_cast<std::size_t>(i % capacity_)]);
  }
  return out;
}

TraceSink::TraceSink(std::size_t capacity, std::uint32_t category_mask)
    : ring_{capacity}, mask_{category_mask} {}

void TraceSink::emit(TraceCategory category, std::uint16_t domain,
                     std::uint32_t code, std::int64_t rc,
                     std::uint64_t addr) {
  const std::uint64_t seq = seq_++;
  ++by_category_[static_cast<std::size_t>(category)];
  if (category == TraceCategory::HypercallEnter && code < kMaxHypercallNr) {
    ++by_hypercall_[code];
  }
  if ((mask_ & category_bit(category)) != 0) {
    ring_.push(TraceEvent{seq, category, domain, code, rc, addr});
  }
  if (step_budget_ != 0 && seq_ > step_budget_) {
    throw BudgetExceededError{"cell step budget exceeded (" +
                              std::to_string(step_budget_) + " trace steps)"};
  }
  if (hypercall_budget_ != 0 &&
      by_category_[static_cast<std::size_t>(TraceCategory::HypercallEnter)] >
          hypercall_budget_) {
    throw BudgetExceededError{"cell hypercall budget exceeded (" +
                              std::to_string(hypercall_budget_) +
                              " hypercalls)"};
  }
}

}  // namespace ii::obs
