// Hypervisor-side domain state (the "struct domain" of the simulator).
//
// Guest-kernel behaviour (filesystem, processes, exploit modules) lives in
// ii::guest; this class only holds what the hypervisor itself tracks per
// domain: the pseudo-physical-to-machine (P2M) map, the paging base, pinned
// tables, registered trap handlers, and lifecycle state.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hv/frame_table.hpp"
#include "sim/types.hpp"

namespace ii::hv {

class Domain {
 public:
  Domain(DomainId id, std::string name, bool privileged)
      : id_{id}, name_{std::move(name)}, privileged_{privileged} {}

  [[nodiscard]] DomainId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool privileged() const { return privileged_; }

  // -- P2M ------------------------------------------------------------------
  /// Number of pseudo-physical pages the domain was built with.
  [[nodiscard]] std::uint64_t nr_pages() const { return p2m_.size(); }

  /// Machine frame backing pseudo-physical frame `pfn`, if populated.
  [[nodiscard]] std::optional<sim::Mfn> p2m(sim::Pfn pfn) const {
    const auto raw = pfn.raw();
    return raw < p2m_.size() ? p2m_[raw] : std::nullopt;
  }
  void set_p2m(sim::Pfn pfn, std::optional<sim::Mfn> mfn) {
    p2m_.at(pfn.raw()) = mfn;
  }
  void resize_p2m(std::uint64_t pages) { p2m_.resize(pages); }

  // -- paging ---------------------------------------------------------------
  [[nodiscard]] sim::Mfn cr3() const { return cr3_; }
  void set_cr3(sim::Mfn root) { cr3_ = root; }

  [[nodiscard]] const std::vector<sim::Mfn>& pinned_tables() const {
    return pinned_;
  }
  void add_pinned(sim::Mfn mfn) { pinned_.push_back(mfn); }
  bool remove_pinned(sim::Mfn mfn) {
    for (auto it = pinned_.begin(); it != pinned_.end(); ++it) {
      if (*it == mfn) {
        pinned_.erase(it);
        return true;
      }
    }
    return false;
  }

  // -- traps ----------------------------------------------------------------
  void set_trap_handler(std::uint8_t vector, sim::Vaddr handler) {
    trap_table_[vector] = handler;
  }
  [[nodiscard]] std::optional<sim::Vaddr> trap_handler(
      std::uint8_t vector) const {
    auto it = trap_table_.find(vector);
    return it == trap_table_.end() ? std::nullopt
                                   : std::optional<sim::Vaddr>{it->second};
  }
  /// Every registered handler, by vector.
  [[nodiscard]] const std::map<std::uint8_t, sim::Vaddr>& trap_table() const {
    return trap_table_;
  }

  // -- lifecycle --------------------------------------------------------------
  [[nodiscard]] bool crashed() const { return crashed_; }
  void mark_crashed() { crashed_ = true; }

  /// Machine frame of the start_info page (set by the domain builder).
  [[nodiscard]] sim::Mfn start_info_mfn() const { return start_info_mfn_; }
  void set_start_info_mfn(sim::Mfn m) { start_info_mfn_ = m; }

 private:
  DomainId id_;
  std::string name_;
  bool privileged_;
  std::vector<std::optional<sim::Mfn>> p2m_;
  sim::Mfn cr3_{};
  std::vector<sim::Mfn> pinned_;
  std::map<std::uint8_t, sim::Vaddr> trap_table_;
  bool crashed_ = false;
  sim::Mfn start_info_mfn_{};
};

}  // namespace ii::hv
