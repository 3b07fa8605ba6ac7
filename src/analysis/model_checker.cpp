// Bounded model checking over the real validation engine (see
// model_checker.hpp for the exploration model).
//
// Layout of this file:
//   - machine construction for the bounded configuration
//   - the operation alphabet (enumerated per state, deterministic order)
//   - state diffing (counterexample readability)
//   - erroneous-state classification over the shared SystemWalk
//   - the BFS driver
#include "analysis/model_checker.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include <unistd.h>

#include "analysis/visited.hpp"
#include "hv/audit.hpp"
#include "hv/errors.hpp"
#include "hv/layout.hpp"
#include "hv/snapshot.hpp"
#include "obs/span.hpp"
#include "obs/status.hpp"

namespace ii::analysis {

namespace {

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

int level_of(hv::PageType t) {
  switch (t) {
    case hv::PageType::L1: return 1;
    case hv::PageType::L2: return 2;
    case hv::PageType::L3: return 3;
    case hv::PageType::L4: return 4;
    default: return 0;
  }
}

// ------------------------------------------------------------------ machine

/// The bounded configuration under test: one machine, dom0, and the guests
/// that issue every enumerated operation.
struct Machine {
  sim::PhysicalMemory mem;
  hv::Hypervisor vmm;
  std::vector<hv::DomainId> guests;

  explicit Machine(const ModelCheckConfig& config)
      : mem{config.machine_frames},
        vmm{mem, hv::VersionPolicy::for_version(config.version)} {
    (void)vmm.create_domain("dom0", /*privileged=*/true, config.dom0_pages);
    for (unsigned i = 0; i < config.guest_domains; ++i) {
      guests.push_back(vmm.create_domain("guest" + std::to_string(i + 1),
                                         /*privileged=*/false,
                                         config.domain_pages));
    }
  }
};

// ----------------------------------------------------------------- alphabet

/// Enumerate the operation alphabet for the current state, in a fixed
/// deterministic order. The palette is curated but adversarial: for every
/// live page table it includes clears, remaps, read-only and writable
/// (self-)maps, superpage attempts, reserved-slot writes, pin/unpin and
/// baseptr switches, and exchange with benign and hostile output pointers —
/// the full guest-issuable surface the paper's three memory XSAs sit on.
std::vector<Step> enumerate_ops(const hv::Hypervisor& vmm,
                                const ModelCheckConfig& config,
                                const std::vector<hv::DomainId>& guests) {
  using Kind = hv::GuestOp::Kind;
  constexpr std::uint64_t kP = sim::Pte::kPresent;
  constexpr std::uint64_t kW = sim::Pte::kWritable;
  constexpr std::uint64_t kU = sim::Pte::kUser;
  constexpr std::uint64_t kS = sim::Pte::kPageSize;

  std::vector<Step> ops;
  for (const hv::DomainId id : guests) {
    const hv::Domain& dom = vmm.domain(id);
    if (dom.crashed()) continue;
    const std::string who = "d" + std::to_string(id);

    const sim::Mfn cr3 = dom.cr3();
    const auto base = dom.p2m(sim::Pfn{0});
    const auto data = dom.p2m(hv::kFirstFreePfn);
    const sim::Pfn data2_pfn{hv::kFirstFreePfn.raw() + 1};
    const sim::Pfn l1_pfn{config.domain_pages - 4};

    // Live page tables the domain owns, in MFN order.
    struct Table {
      sim::Mfn mfn;
      int level;
    };
    std::vector<Table> tables;
    for (std::uint64_t m = 0; m < vmm.frames().frame_count(); ++m) {
      const hv::PageInfo& pi = vmm.frames().info(sim::Mfn{m});
      if (pi.owner == id && hv::is_pagetable_type(pi.type) && pi.validated) {
        tables.push_back(Table{sim::Mfn{m}, level_of(pi.type)});
      }
    }

    const auto add_mmu = [&](const Table& t, unsigned slot, std::uint64_t val,
                             const std::string& what) {
      Step step{id, {}, who + ": mmu_update L" + std::to_string(t.level) +
                            "[mfn " + hex(t.mfn.raw()) + "][" +
                            std::to_string(slot) + "] <- " + what};
      step.op.kind = Kind::MmuUpdate;
      step.op.addr = sim::mfn_to_paddr(t.mfn).raw() + 8ULL * slot;
      step.op.value = val;
      ops.push_back(std::move(step));
    };
    const auto pte = [](sim::Mfn f, std::uint64_t flags) {
      return sim::Pte::make(f, flags).raw();
    };

    for (const Table& t : tables) {
      switch (t.level) {
        case 1:
          for (const unsigned slot :
               {static_cast<unsigned>(hv::kFirstFreePfn.raw()),
                static_cast<unsigned>(l1_pfn.raw())}) {
            add_mmu(t, slot, 0, "clear");
            if (data) {
              add_mmu(t, slot, pte(*data, kP | kW | kU), "rw data page");
              add_mmu(t, slot, pte(*data, kP | kU), "ro data page");
            }
            add_mmu(t, slot, pte(t.mfn, kP | kW | kU), "rw map of this L1");
            add_mmu(t, slot, pte(cr3, kP | kU), "ro map of own L4");
            add_mmu(t, slot, pte(cr3, kP | kW | kU), "rw map of own L4");
            add_mmu(t, slot, pte(sim::Mfn{0}, kP | kW | kU),
                    "rw map of xen frame 0");
          }
          break;
        case 2:
          add_mmu(t, 0, 0, "clear kernel L1 link");
          if (base) {
            add_mmu(t, 0, pte(*base, kP | kW | kU | kS),
                    "2MiB PSE superpage over own region");
          }
          if (data) {
            add_mmu(t, 0, pte(*data, kP | kU), "link data page as L1");
          }
          break;
        case 3:
          add_mmu(t, 0, 0, "clear kernel L2 link");
          if (data) {
            add_mmu(t, 0, pte(*data, kP | kU), "link data page as L2");
          }
          if (base) {
            add_mmu(t, 0, pte(*base, kP | kW | kU | kS), "1GiB PSE attempt");
          }
          break;
        case 4: {
          const unsigned kernel_slot = sim::level_index_of(
              sim::Vaddr{hv::kGuestKernelBase}, sim::PtLevel::L4);
          add_mmu(t, kernel_slot, 0, "clear kernel L3 link");
          if (data) {
            add_mmu(t, kernel_slot, pte(*data, kP | kU),
                    "link data page as L3");
          }
          add_mmu(t, hv::kLinearPtSlot, 0, "clear linear slot");
          add_mmu(t, hv::kLinearPtSlot, pte(cr3, kP | kU),
                  "ro linear self map");
          add_mmu(t, hv::kLinearPtSlot, pte(cr3, kP | kW | kU),
                  "RW linear self map (XSA-182 flip)");
          if (data) {
            add_mmu(t, hv::kLinearPtSlot, pte(*data, kP | kU),
                    "ro data page in linear slot");
          }
          add_mmu(t, hv::kXenFirstReservedSlot, pte(cr3, kP | kU),
                  "ro self map in xen text slot");
          break;
        }
        default: break;
      }
    }

    // Pin / unpin / baseptr.
    const auto add_ext = [&](Kind kind, sim::Mfn mfn, int level,
                             const std::string& what) {
      Step step{id, {}, who + ": " + what};
      step.op.kind = kind;
      step.op.mfn = mfn.raw();
      step.op.level = static_cast<std::uint8_t>(level);
      ops.push_back(std::move(step));
    };
    if (data) {
      add_ext(Kind::Pin, *data, 1, "pin data mfn " + hex(data->raw()) + " as L1");
      add_ext(Kind::Pin, *data, 4, "pin data mfn " + hex(data->raw()) + " as L4");
    }
    for (const Table& t : tables) {
      if (t.level == 1) {
        add_ext(Kind::Pin, t.mfn, 1, "re-pin L1 mfn " + hex(t.mfn.raw()));
        break;
      }
    }
    std::set<std::uint64_t> pinned;
    for (const sim::Mfn m : dom.pinned_tables()) pinned.insert(m.raw());
    for (const std::uint64_t m : pinned) {
      add_ext(Kind::Unpin, sim::Mfn{m}, 0, "unpin mfn " + hex(m));
    }
    for (const Table& t : tables) {
      if (t.level == 4) {
        add_ext(Kind::NewBaseptr, t.mfn, 4,
                "new_baseptr mfn " + hex(t.mfn.raw()));
      }
    }

    // memory_exchange with benign and hostile output pointers.
    if (data) {
      const auto add_exchange = [&](sim::Vaddr out, const std::string& what) {
        Step step{id, {},
                  who + ": exchange pfn " +
                      std::to_string(hv::kFirstFreePfn.raw()) + ", out = " +
                      what};
        step.op.kind = Kind::Exchange;
        step.op.pfn = hv::kFirstFreePfn.raw();
        step.op.out = out.raw();
        ops.push_back(std::move(step));
      };
      add_exchange(hv::guest_directmap_vaddr(data2_pfn), "own data page");
      add_exchange(hv::directmap_vaddr(vmm.idt_base()),
                   "hypervisor IDT (XSA-212 target)");
      add_exchange(sim::Vaddr{hv::kXenTextBase}, "xen text");
      add_exchange(hv::guest_directmap_vaddr(l1_pfn), "own RO-mapped L1 page");
    }

    // Grant ops (gated: the v2->v1 downgrade leak is pre-4.13 by design).
    if (config.include_grant_ops) {
      const auto add_grant = [&](Kind kind, unsigned version, unsigned gref,
                                 const std::string& what) {
        Step step{id, {}, who + ": " + what};
        step.op.kind = kind;
        step.op.version = version;
        step.op.gref = gref;
        step.op.pfn = hv::kFirstFreePfn.raw();
        ops.push_back(std::move(step));
      };
      add_grant(Kind::GrantSetVersion, 2, 0, "grant set_version 2");
      add_grant(Kind::GrantSetVersion, 1, 0, "grant set_version 1");
      add_grant(Kind::GrantAccess, 0, 0, "grant ref 0 to dom0");
      add_grant(Kind::GrantEndAccess, 0, 0, "grant end_access ref 0");
    }
  }
  return ops;
}

// --------------------------------------------------------------- state diff

/// Read-only view of a machine state expressed against a shared root
/// snapshot, sourced from either an HvDelta or a CoW forest node: resolves
/// frame bytes and PageInfo without materializing a full snapshot, and
/// exposes the state's dirty sets so two views over the same root can be
/// diffed in O(changed) instead of O(machine). Diff lines are emitted only
/// where *contents* differ, so the two sources — whose dirty lists are both
/// conservative supersets of the content-diverged frames — yield identical
/// diffs for the same logical state.
class StateView {
 public:
  StateView(const hv::HvSnapshot& base, const hv::HvDelta& delta)
      : base_{&base},
        dirty_{&delta.mem_frames},
        frames_{&delta.frames},
        domains_{&delta.domains},
        grants_{&delta.grants},
        crashed_{delta.crashed},
        cpu_hung_{delta.cpu_hung} {
    ptrs_.reserve(delta.mem_frames.size());
    for (std::size_t i = 0; i < delta.mem_frames.size(); ++i) {
      ptrs_.push_back(delta.mem_bytes.data() + i * sim::kPageSize);
    }
  }
  StateView(const hv::HvSnapshot& base, const hv::HvCowState& cow)
      : base_{&base},
        frames_{&cow.frames},
        domains_{&cow.domains},
        grants_{&cow.grants},
        crashed_{cow.crashed},
        cpu_hung_{cow.cpu_hung} {
    dirty_storage_.reserve(cow.mem_frames.size());
    ptrs_.reserve(cow.mem_frames.size());
    for (const auto& [m, block] : cow.mem_frames) {
      dirty_storage_.push_back(m);
      ptrs_.push_back(block->bytes.data());
    }
    dirty_ = &dirty_storage_;
  }

  [[nodiscard]] const std::uint8_t* frame(std::uint64_t m) const {
    const auto it = std::lower_bound(dirty_->begin(), dirty_->end(), m);
    if (it != dirty_->end() && *it == m) {
      return ptrs_[std::size_t(it - dirty_->begin())];
    }
    return base_->frame(m).data();
  }
  [[nodiscard]] std::uint64_t frame_u64(std::uint64_t m, unsigned slot) const {
    std::uint64_t v = 0;
    std::memcpy(&v, frame(m) + 8ULL * slot, sizeof v);
    return v;
  }
  [[nodiscard]] const hv::PageInfo& page_info(std::uint64_t m) const {
    const auto& fs = *frames_;  // ascending by mfn (capture order)
    const auto it = std::lower_bound(
        fs.begin(), fs.end(), m,
        [](const auto& entry, std::uint64_t mfn) { return entry.first < mfn; });
    if (it != fs.end() && it->first == m) return it->second;
    return base_->frames[m];
  }

  /// MFNs whose contents may differ from the shared root.
  [[nodiscard]] const std::vector<std::uint64_t>& dirty_frames() const {
    return *dirty_;
  }
  /// MFNs whose PageInfo differs from the shared root.
  [[nodiscard]] std::vector<std::uint64_t> changed_page_infos() const {
    std::vector<std::uint64_t> out;
    out.reserve(frames_->size());
    for (const auto& [m, pi] : *frames_) out.push_back(m);
    return out;
  }

  [[nodiscard]] const std::vector<hv::Domain>& domains() const {
    return *domains_;
  }
  [[nodiscard]] const hv::GrantOps::State& grants() const { return *grants_; }
  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] bool cpu_hung() const { return cpu_hung_; }

 private:
  const hv::HvSnapshot* base_;
  const std::vector<std::uint64_t>* dirty_ = nullptr;
  std::vector<std::uint64_t> dirty_storage_;      ///< CoW source only
  std::vector<const std::uint8_t*> ptrs_;         ///< parallel to *dirty_
  const std::vector<std::pair<std::uint64_t, hv::PageInfo>>* frames_;
  const std::vector<hv::Domain>* domains_;
  const hv::GrantOps::State* grants_;
  bool crashed_ = false;
  bool cpu_hung_ = false;
};

/// Ascending union of two sorted MFN lists.
std::vector<std::uint64_t> merge_sorted(const std::vector<std::uint64_t>& a,
                                        const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Human-readable field-level differences between a parent state and its
/// violating successor, both expressed against the same root; capped so
/// counterexamples stay printable. Only frames in either state's dirty set
/// are examined — frames untouched by both resolve to the shared root and
/// cannot differ.
std::vector<std::string> diff_states(const StateView& before,
                                     const StateView& after) {
  constexpr std::size_t kMaxLines = 48;
  std::vector<std::string> out;
  std::uint64_t suppressed = 0;
  const auto add = [&](std::string line) {
    if (out.size() < kMaxLines) {
      out.push_back(std::move(line));
    } else {
      ++suppressed;
    }
  };

  if (before.crashed() != after.crashed()) {
    add(std::string{"hypervisor: "} +
        (after.crashed() ? "PANICKED" : "un-crashed"));
  }
  if (before.cpu_hung() != after.cpu_hung()) {
    add(std::string{"cpu0: "} + (after.cpu_hung() ? "WEDGED" : "released"));
  }

  for (const std::uint64_t m :
       merge_sorted(before.changed_page_infos(), after.changed_page_infos())) {
    const hv::PageInfo& a = before.page_info(m);
    const hv::PageInfo& b = after.page_info(m);
    std::string delta;
    if (a.owner != b.owner) {
      delta += " owner d" + std::to_string(a.owner) + " -> d" +
               std::to_string(b.owner);
    }
    if (a.type != b.type) {
      delta += " type " + hv::to_string(a.type) + " -> " + hv::to_string(b.type);
    }
    if (a.type_count != b.type_count) {
      delta += " type_count " + std::to_string(a.type_count) + " -> " +
               std::to_string(b.type_count);
    }
    if (a.ref_count != b.ref_count) {
      delta += " ref_count " + std::to_string(a.ref_count) + " -> " +
               std::to_string(b.ref_count);
    }
    if (a.validated != b.validated) {
      delta += std::string{" validated "} + (a.validated ? "yes" : "no") +
               " -> " + (b.validated ? "yes" : "no");
    }
    if (!delta.empty()) add("mfn " + hex(m) + ":" + delta);
  }

  // Memory content diffs: per-slot for frames that are (or were) page
  // tables or Xen-owned (the IDT lives there), summarized otherwise.
  for (const std::uint64_t m :
       merge_sorted(before.dirty_frames(), after.dirty_frames())) {
    const std::uint8_t* pa = before.frame(m);
    const std::uint8_t* pb = after.frame(m);
    if (std::memcmp(pa, pb, sim::kPageSize) == 0) continue;
    const bool decode = hv::is_pagetable_type(before.page_info(m).type) ||
                        hv::is_pagetable_type(after.page_info(m).type) ||
                        before.page_info(m).owner == hv::kDomXen;
    if (!decode) {
      add("mfn " + hex(m) + ": data changed");
      continue;
    }
    for (unsigned s = 0; s < sim::kPtEntries; ++s) {
      const std::uint64_t va = before.frame_u64(m, s);
      const std::uint64_t vb = after.frame_u64(m, s);
      if (va != vb) {
        add("mfn " + hex(m) + "[" + std::to_string(s) + "]: " + hex(va) +
            " -> " + hex(vb));
      }
    }
  }

  // Domain bookkeeping, matched by id.
  for (const hv::Domain& db : after.domains()) {
    const hv::Domain* da = nullptr;
    for (const hv::Domain& d : before.domains()) {
      if (d.id() == db.id()) da = &d;
    }
    const std::string who = "d" + std::to_string(db.id());
    if (da == nullptr) {
      add(who + ": created");
      continue;
    }
    if (da->cr3() != db.cr3()) {
      add(who + ": cr3 " + hex(da->cr3().raw()) + " -> " + hex(db.cr3().raw()));
    }
    if (!da->crashed() && db.crashed()) add(who + ": crashed");
    for (std::uint64_t p = 0; p < db.nr_pages(); ++p) {
      const auto ma = da->p2m(sim::Pfn{p});
      const auto mb = db.p2m(sim::Pfn{p});
      if (ma != mb) {
        add(who + ": p2m pfn " + std::to_string(p) + ": " +
            (ma ? "mfn " + hex(ma->raw()) : "-") + " -> " +
            (mb ? "mfn " + hex(mb->raw()) : "-"));
      }
    }
    std::set<std::uint64_t> pa_set, pb_set;
    for (const sim::Mfn m : da->pinned_tables()) pa_set.insert(m.raw());
    for (const sim::Mfn m : db.pinned_tables()) pb_set.insert(m.raw());
    for (const std::uint64_t m : pb_set) {
      if (pa_set.count(m) == 0) add(who + ": pinned mfn " + hex(m));
    }
    for (const std::uint64_t m : pa_set) {
      if (pb_set.count(m) == 0) add(who + ": unpinned mfn " + hex(m));
    }
  }

  // Grant-table deltas (version switches and mapping counts).
  for (const auto& [id, tb] : after.grants().tables) {
    const auto it = before.grants().tables.find(id);
    const unsigned va =
        it == before.grants().tables.end() ? 1 : it->second.version();
    if (va != tb.version()) {
      add("d" + std::to_string(id) + ": grant table v" + std::to_string(va) +
          " -> v" + std::to_string(tb.version()));
    }
  }
  if (before.grants().mappings.size() != after.grants().mappings.size()) {
    add("grant mappings: " + std::to_string(before.grants().mappings.size()) +
        " -> " + std::to_string(after.grants().mappings.size()));
  }

  if (suppressed != 0) {
    out.push_back("... (+" + std::to_string(suppressed) + " more)");
  }
  return out;
}

}  // namespace

// ----------------------------------------------------------- classification

/// Which of the paper's erroneous-state families a violating state belongs
/// to, decided over the same SystemWalk the audit used. Public so the
/// coverage-guided fuzzer shares the checker's recognizers.
std::vector<ErroneousStateClass> classify_erroneous_state(
    const hv::Hypervisor& vmm, const hv::SystemWalk& walk,
    const hv::InvariantReport& report) {
  std::set<ErroneousStateClass> classes;
  std::set<hv::Invariant> explained;

  const auto violated = report.violated_set();
  const auto is_violated = [&](hv::Invariant inv) {
    for (const hv::Invariant v : violated)
      if (v == inv) return true;
    return false;
  };

  if (is_violated(hv::Invariant::IdtIntegrity)) {
    classes.insert(ErroneousStateClass::Xsa212IdtClobber);
    explained.insert(hv::Invariant::IdtIntegrity);
  }
  if (is_violated(hv::Invariant::GrantLifecycle)) {
    classes.insert(ErroneousStateClass::Xsa387StaleGrantStatus);
    explained.insert(hv::Invariant::GrantLifecycle);
  }
  if (is_violated(hv::Invariant::FrameTypeSafety)) {
    for (const hv::DomainWalk& dw : walk) {
      for (const hv::LeafMapping& m : dw.leaves) {
        if (!m.user || !m.writable) continue;
        const std::uint64_t n_frames = m.bytes / sim::kPageSize;
        for (std::uint64_t k = 0; k < n_frames; ++k) {
          const sim::Mfn f{m.mfn.raw() + k};
          if (!vmm.memory().contains(f)) break;
          if (hv::is_writable_pagetable_mapping(
                  true, vmm.frames().info(f).type)) {
            classes.insert(m.bytes > sim::kPageSize
                               ? ErroneousStateClass::Xsa148SuperpageWindow
                               : ErroneousStateClass::Xsa182WritableSelfMap);
          }
        }
      }
    }
    explained.insert(hv::Invariant::FrameTypeSafety);
    // A writable self map necessarily tampers the reserved slot too.
    explained.insert(hv::Invariant::ReservedSlotIntegrity);
  }

  for (const hv::Invariant inv : violated) {
    if (explained.count(inv) == 0) classes.insert(ErroneousStateClass::Other);
  }
  return {classes.begin(), classes.end()};
}

std::string to_string(ErroneousStateClass c) {
  switch (c) {
    case ErroneousStateClass::Xsa148SuperpageWindow:
      return "XSA-148 superpage window";
    case ErroneousStateClass::Xsa182WritableSelfMap:
      return "XSA-182 writable self map";
    case ErroneousStateClass::Xsa212IdtClobber:
      return "XSA-212 IDT clobber";
    case ErroneousStateClass::Xsa387StaleGrantStatus:
      return "XSA-387 stale grant status";
    case ErroneousStateClass::Other: return "other invariant violation";
  }
  return "unknown";
}

std::string Counterexample::trace_string() const {
  std::string out;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i != 0) out += " ; ";
    out += steps[i].label;
  }
  return out;
}

// ----------------------------------------------------- engine-shared helpers

namespace {

/// Deterministic byte accounting for one queued frontier state: a pure
/// function of the item (label bytes, resident frame count, bookkeeping
/// overrides), never of allocator behavior — so spill decisions are
/// reproducible and peak_frontier_bytes is a cmp-stable statistic.
/// `resident_frames` is the delta dirty count for the serial queue and the
/// owned-block count for a CoW node.
std::uint64_t frontier_item_cost(const std::vector<Step>& prefix,
                                 std::uint64_t resident_frames,
                                 std::uint64_t page_infos) {
  std::uint64_t bytes = 512;
  for (const Step& step : prefix) bytes += 128 + step.label.size();
  return bytes + resident_frames * (sim::kPageSize + 64) + page_infos * 48;
}

// A spill record is one length-prefixed little-endian blob: the step
// prefix that re-derives the state by replay from the root — per step the
// caller, the shared op record (hv::encode_op) and the label — then the
// expected state hash (reloads self-verify). Bookkeeping like GrantTable is
// deliberately not serialized — replay through the public hypercall surface
// is the only portable encoding of hypervisor-private state (DESIGN.md §9).

/// Encoded bytes of a step before its label: caller, op record, label size.
constexpr std::size_t kStepFixedBytes = 4 + hv::kGuestOpRecordBytes + 4;

std::vector<std::uint8_t> encode_spill_record(const std::vector<Step>& prefix,
                                              std::uint64_t hash) {
  std::vector<std::uint8_t> rec;
  hv::put_u32(rec, 0);  // body length, patched below
  hv::put_u32(rec, static_cast<std::uint32_t>(prefix.size()));
  for (const Step& step : prefix) {
    hv::put_u32(rec, step.caller);
    hv::encode_op(rec, step.op);
    hv::put_u32(rec, static_cast<std::uint32_t>(step.label.size()));
    rec.insert(rec.end(), step.label.begin(), step.label.end());
  }
  hv::put_u64(rec, hash);
  std::vector<std::uint8_t> length;
  hv::put_u32(length, static_cast<std::uint32_t>(rec.size() - 4));
  std::copy(length.begin(), length.end(), rec.begin());
  return rec;
}

struct SpillRecord {
  std::vector<Step> prefix;
  std::uint64_t hash = 0;
};

/// Append-only frontier spill file with one sequential reader. The serial
/// BFS pops its spilled stubs in the order it appended their records, so
/// reloads read the file front to back and never seek.
///
/// The file is created on the first append under a fresh name in the spill
/// directory (frontier-XXXXXX.spill, made with O_EXCL by mkstemps), so runs
/// that share a directory never touch each other's file, and it is removed
/// when the check returns or throws.
class SpillFile {
 public:
  explicit SpillFile(std::string dir) : dir_{std::move(dir)} {}
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  ~SpillFile() {
    if (path_.empty()) return;
    out_.close();
    in_.close();
    std::remove(path_.c_str());
  }

  /// Serialize one spilled state behind the ones already appended.
  void append(const std::vector<Step>& prefix, std::uint64_t hash) {
    if (path_.empty()) create();
    const std::vector<std::uint8_t> rec = encode_spill_record(prefix, hash);
    out_.write(reinterpret_cast<const char*>(rec.data()),
               static_cast<std::streamsize>(rec.size()));
    if (!out_) {
      throw std::runtime_error{"model checker: spill write failed: " + path_};
    }
    bytes_ += rec.size();
  }

  /// The oldest record not read yet.
  SpillRecord read_next();

  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_; }

 private:
  void create() {
    std::string name = dir_ + "/frontier-XXXXXX.spill";
    const int fd = ::mkstemps(name.data(), 6);
    if (fd < 0) {
      throw std::runtime_error{"model checker: cannot create a spill file in " +
                               dir_};
    }
    ::close(fd);
    path_ = std::move(name);
    out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!out_) {
      throw std::runtime_error{"model checker: cannot open spill file " +
                               path_};
    }
  }

  std::string dir_;
  std::string path_;  ///< empty until the first append
  std::ofstream out_;
  std::ifstream in_;  ///< opened by the first read
  std::uint64_t bytes_ = 0;
};

SpillRecord SpillFile::read_next() {
  // The record may still sit in the write buffer.
  if (!out_.flush()) {
    throw std::runtime_error{"model checker: spill write failed: " + path_};
  }
  if (!in_.is_open()) {
    in_.open(path_, std::ios::binary);
    if (!in_) {
      throw std::runtime_error{"model checker: cannot open spill file " +
                               path_};
    }
  }
  const auto read_bytes = [&](std::size_t n) {
    std::vector<std::uint8_t> buf(n);
    if (!in_.read(reinterpret_cast<char*>(buf.data()),
                  static_cast<std::streamsize>(n))) {
      throw std::runtime_error{"model checker: truncated spill record"};
    }
    return buf;
  };
  const std::vector<std::uint8_t> length = read_bytes(4);
  const std::vector<std::uint8_t> body =
      read_bytes(hv::ByteReader{length}.u32());

  const auto corrupt = [] {
    return std::runtime_error{"model checker: corrupt spill record"};
  };
  hv::ByteReader r{body};
  SpillRecord rec;
  const std::uint32_t n_steps = r.u32();
  if (!r.ok || n_steps > r.remaining() / kStepFixedBytes) throw corrupt();
  rec.prefix.reserve(n_steps);
  for (std::uint32_t i = 0; i < n_steps; ++i) {
    Step step;
    step.caller = static_cast<hv::DomainId>(r.u32());
    const std::optional<hv::GuestOp> op = hv::decode_op(r);
    if (!op) throw corrupt();
    step.op = *op;
    const std::span<const std::uint8_t> label = r.take(r.u32());
    step.label.assign(label.begin(), label.end());
    rec.prefix.push_back(std::move(step));
  }
  rec.hash = r.u64();
  if (!r.ok || r.remaining() != 0) throw corrupt();
  return rec;
}

}  // namespace

// --------------------------------------------------------- serial BFS driver

namespace {

ModelCheckResult run_model_check_serial(const ModelCheckConfig& config) {
  ModelCheckResult result;
  result.config = config;
  result.threads_used = 1;

  Machine machine{config};
  hv::Hypervisor& vmm = machine.vmm;
  vmm.reset_snapshot_stats();

  const hv::HvSnapshot root = vmm.snapshot();
  // The serial driver commits through the same owner API and shard layout
  // as the sharded engine (it owns every shard), so shard_occupancy is
  // identical at any thread count and the visited-ownership lint rule has
  // no serial-path exception to carry.
  ShardedVisited visited;
  visited.owner_insert(visited.shard_of(root.hash), root.hash);
  result.states_explored = 1;

  // Violation records diff parent and child from their dirty sets against
  // the shared root — no full snapshot is ever taken for a counterexample.
  const auto record_violation = [&](const hv::HvDelta& parent_delta,
                                    const std::vector<Step>& steps,
                                    std::uint64_t state_hash,
                                    const hv::SystemWalk& walk,
                                    hv::InvariantReport report) {
    ++result.violations_found;
    const auto violated = report.violated_set();
    for (const hv::Invariant inv : violated) {
      ++result.invariant_hits[static_cast<std::size_t>(inv)];
    }
    const auto classes = classify_erroneous_state(vmm, walk, report);
    for (const ErroneousStateClass c : classes) {
      ++result.class_hits[static_cast<std::size_t>(c)];
    }
    if (result.counterexamples.size() >= config.max_counterexamples) return;
    Counterexample cx;
    cx.steps = steps;
    cx.depth = static_cast<unsigned>(steps.size());
    cx.state_hash = state_hash;
    cx.violated = violated;
    cx.classes = classes;
    const hv::HvDelta child_delta = vmm.snapshot_delta(root);
    cx.state_diff = diff_states(StateView{root, parent_delta},
                                StateView{root, child_delta});
    cx.report = std::move(report);
    result.counterexamples.push_back(std::move(cx));
  };

  // The boot state itself must satisfy every invariant; a dirty root makes
  // everything downstream meaningless, so it is reported and terminal.
  {
    const hv::SystemWalk walk = hv::walk_system(vmm);
    hv::InvariantReport report = hv::InvariantAuditor{vmm}.audit(walk);
    if (!report.clean()) {
      record_violation(vmm.snapshot_delta(root), {}, root.hash, walk,
                       std::move(report));
      return result;
    }
  }

  // Each queued state carries its delta against the root, so expansion is
  // one delta-restore (O(dirty frames)) instead of restore-root-and-replay
  // (O(machine) + prefix re-execution). The replay fallback preserves the
  // old scheme; both must produce identical results.
  //
  // Resident items are bounded by max_frontier_bytes of frontier_item_cost:
  // a state that would push the resident total past the budget is queued
  // as a stub instead, its prefix and hash appended to the spill file.
  // Stubs pop in append order, and popping one replays its prefix from the
  // root — replay is the portable encoding of a state.
  struct WorkItem {
    std::vector<Step> prefix;
    hv::HvDelta delta;  ///< state vs root (unused by the replay fallback)
    std::uint64_t cost = 0;  ///< frontier_item_cost; 0 for a stub
    bool spilled = false;    ///< a stub: prefix and hash are in the spill
  };
  SpillFile spill{config.spill_dir};
  std::uint64_t replayed_ops = 0;
  std::deque<WorkItem> queue;
  queue.push_back(WorkItem{{}, vmm.snapshot_delta(root), 0, false});
  queue.back().cost = frontier_item_cost(queue.back().prefix,
                                         queue.back().delta.mem_frames.size(),
                                         queue.back().delta.frames.size());
  std::uint64_t frontier_bytes = queue.back().cost;
  result.peak_frontier_bytes = frontier_bytes;

  obs::SpanProfiler* const prof = config.profiler;
  bool stop = false;
  while (!queue.empty() && !stop) {
    WorkItem item = std::move(queue.front());
    queue.pop_front();
    frontier_bytes -= item.cost;
    std::uint64_t spilled_hash = 0;
    if (item.spilled) {
      SpillRecord rec = spill.read_next();
      item.prefix = std::move(rec.prefix);
      spilled_hash = rec.hash;
    }
    if (item.prefix.size() >= config.depth) continue;  // a depth-0 root
    // Depth of the states this parent generates ("d1" = first op applied).
    const unsigned depth = static_cast<unsigned>(item.prefix.size()) + 1;
    const std::string dname =
        prof != nullptr ? "d" + std::to_string(depth) : std::string{};
    if (config.status != nullptr) {
      config.status->checker_depth(depth, queue.size() + 1);
      config.status->checker_progress(result.states_explored,
                                      result.violations_found);
    }

    if (item.spilled) {
      // Reload: rewind to the root, replay the recorded prefix, check it
      // lands on the recorded state, and capture the delta again.
      const obs::ScopedSpan reload_span{
          prof, {obs::kSpanCheck, dname, obs::kSpanSpill}, obs::SpanKind::Sched};
      (void)vmm.restore_delta(root);
      for (const Step& step : item.prefix) {
        (void)hv::apply_guest_op(vmm, step.caller, step.op);
      }
      replayed_ops += item.prefix.size();
      ++result.frontier_spill_reloads;
      if (vmm.state_hash() != spilled_hash) {
        throw std::logic_error{
            "model checker: spill replay diverged from its capture"};
      }
      item.delta = vmm.snapshot_delta(root);
    }
    hv::HvSnapshot parent_full;  // replay fallback only
    if (config.use_replay_fallback) {
      vmm.restore(root);
      for (const Step& step : item.prefix) {
        (void)hv::apply_guest_op(vmm, step.caller, step.op);
      }
      parent_full = vmm.snapshot();
      item.delta = vmm.snapshot_delta(root);
    } else if (!item.spilled) {
      (void)vmm.restore_delta(root, item.delta);
    }
    const hv::HvDelta& parent_delta = item.delta;
    const std::uint64_t parent_hash = parent_delta.hash;
    const auto restore_parent = [&] {
      if (config.use_replay_fallback) {
        vmm.restore(parent_full);
      } else {
        (void)vmm.restore_delta(root, parent_delta);
      }
    };

    const std::vector<Step> alphabet =
        enumerate_ops(vmm, config, machine.guests);
    std::uint64_t parent_applied = 0;  // deterministic expand/audit spans,
    std::uint64_t parent_audited = 0;  // mirrored by the parallel merge
    for (const Step& step : alphabet) {
      ++result.ops_applied;
      ++parent_applied;
      const long rc = hv::apply_guest_op(vmm, step.caller, step.op);
      const std::uint64_t h = vmm.state_hash();
      if (h == parent_hash) {
        if (rc != hv::kOk) ++result.failed_ops;
        continue;  // nothing changed; nothing to restore
      }
      if (!visited.owner_insert(visited.shard_of(h), h)) {
        ++result.states_deduped;
        restore_parent();
        continue;
      }
      ++result.states_explored;
      ++parent_audited;

      std::vector<Step> trace = item.prefix;
      trace.push_back(step);
      const hv::SystemWalk walk = hv::walk_system(vmm);
      hv::InvariantReport report = hv::InvariantAuditor{vmm}.audit(walk);
      if (!report.clean()) {
        // Violating states are terminal: the counterexample is minimal by
        // BFS order, and exploring beyond a broken invariant only yields
        // derivative noise.
        record_violation(parent_delta, trace, h, walk, std::move(report));
      } else if (depth < config.depth) {
        // A clean state at the depth bound is never expanded, so it is
        // audited above but never captured or queued.
        WorkItem child{std::move(trace),
                       config.use_replay_fallback ? hv::HvDelta{}
                                                  : vmm.snapshot_delta(root),
                       0, false};
        child.cost = frontier_item_cost(child.prefix,
                                        child.delta.mem_frames.size(),
                                        child.delta.frames.size());
        if (config.max_frontier_bytes != 0 &&
            frontier_bytes + child.cost > config.max_frontier_bytes) {
          const obs::ScopedSpan spill_span{
              prof, {obs::kSpanCheck, dname, obs::kSpanSpill},
              obs::SpanKind::Sched};
          spill.append(child.prefix, h);
          ++result.frontier_spilled_items;
          child = WorkItem{{}, {}, 0, true};
        } else {
          frontier_bytes += child.cost;
          result.peak_frontier_bytes =
              std::max(result.peak_frontier_bytes, frontier_bytes);
        }
        queue.push_back(std::move(child));
      }
      if (result.states_explored >= config.max_states) {
        result.truncated = true;
        stop = true;
        break;
      }
      restore_parent();
    }
    if (prof != nullptr && parent_applied != 0) {
      prof->add({obs::kSpanCheck, dname, obs::kSpanExpand}, 1, parent_applied);
      if (parent_audited != 0) {
        prof->add({obs::kSpanCheck, dname, obs::kSpanAudit}, parent_audited,
                  parent_audited);
      }
    }
  }

  const hv::SnapshotStats& stats = vmm.snapshot_stats();
  result.snapshot_frames_copied = stats.frames_copied;
  result.hash_frames_rehashed = stats.frames_rehashed;
  result.delta_restores = stats.delta_restores;
  result.full_restores = stats.full_restores;
  result.cow_captures = stats.cow_captures;
  result.cow_frames_copied = stats.cow_frames_copied;
  result.cow_frames_shared = stats.cow_frames_shared;
  result.ops_executed = result.ops_applied + replayed_ops;
  result.frontier_spill_bytes = spill.bytes_written();
  result.shard_occupancy = visited.occupancy();
  return result;
}

// ------------------------------------------ single-pass owner-computes engine
//
// Ownership-partitioned exploration (DESIGN.md §16). The BFS frontier of
// one depth runs in a single expansion pass — every operation is applied
// exactly once, the serial engine's op count — followed by a parallel
// owner-shard admission and a parallel audit of the admitted states:
//
//   produce (parallel)  workers pull parents from an atomic cursor, restore
//                       their CoW nodes, apply the whole alphabet, and
//                       record a per-parent op-outcome byte (unchanged-ok /
//                       unchanged-failed / changed). Each changed successor
//                       not already in the frozen pre-depth visited set is
//                       speculatively captured as a CoW forest node and
//                       posted to inbox[shard][worker] — the single-writer
//                       cell of the shard that owns its hash.
//   admit  (parallel)   after the barrier each worker walks the shards it
//                       owns (shard % threads == worker). The owner alone
//                       decides admission: candidates sort by (hash,
//                       parent, op) and the first (parent, op) pair of each
//                       new hash — exactly the pair the serial BFS would
//                       have encountered first — is committed. No global
//                       merge, no replay of the visit order.
//   settle (parallel)   admitted claims, sorted into serial (parent, op)
//                       order with the serial max_states cut applied, are
//                       restored from their captured CoW node — no op
//                       re-application — and walked/audited/classified.
//                       A serial assembly then emits violations,
//                       counterexamples and the next frontier in claim
//                       order.
//
// The whole frontier stays in memory: a run with a frontier budget goes to
// the serial BFS, which owns the spillable frontier.
//
// Determinism rests on: admission is a pure function of the candidate set
// (owner order can't matter — candidates carry their serial coordinates);
// op application is a pure function of the restored state; counters and
// the deterministic expand/audit spans are recomputed from the op-outcome
// arrays in serial parent order; and diff lines depend only on contents,
// for which every dirty list is a conservative superset. The visited
// partition is `hash % kDefaultShards` with a fixed shard count, so the
// committed set — and shard_occupancy — never depends on --threads.

/// One worker's private machine and root. All roots must hash identically
/// (checked when the workers are built) — that is what makes a CoW node
/// captured on one worker's machine restorable on another's.
struct ShardWorker {
  Machine machine;
  hv::HvSnapshot root;

  explicit ShardWorker(const ModelCheckConfig& config) : machine{config} {
    machine.vmm.reset_snapshot_stats();
    root = machine.vmm.snapshot();
  }
};

/// A queued state of the sharded engine: its op prefix and its CoW forest
/// node.
struct CowFrontierItem {
  std::vector<Step> prefix;
  hv::HvCowState cow;
  std::uint64_t hash = 0;
  std::uint64_t cost = 0;  ///< frontier_item_cost at admission
};

/// A speculatively captured successor, posted by its producing worker to
/// the owning shard's inbox. Carries its serial coordinates (frontier
/// index of the parent, alphabet index) so admission order is
/// scheduling-free.
struct Candidate {
  std::uint32_t parent = 0;
  std::uint32_t op = 0;
  std::uint64_t hash = 0;
  Step step;               ///< the producing step (labels the trace)
  hv::HvCowState cow;      ///< captured child — settle never re-applies ops
};

/// Settle-phase audit result for one admitted claim (violating only;
/// clean claims just become next-frontier items).
struct Settled {
  bool violating = false;
  hv::InvariantReport report;
  std::vector<hv::Invariant> violated;
  std::vector<ErroneousStateClass> classes;
  std::vector<std::string> state_diff;
};

/// Per-parent produce-phase outcome byte, the raw material from which the
/// serial counters and the deterministic expand/audit spans are recomputed
/// — uniformly for full and truncated runs.
enum : std::uint8_t {
  kOpUnchangedOk = 0,
  kOpUnchangedFailed = 1,
  kOpChanged = 2,
};

/// Run fn(w) for w in [0, threads), worker 0 on the calling thread. A
/// worker's exception is captured and rethrown after every thread joined
/// (the others drain the shared cursor and exit).
void run_on_workers(unsigned threads, const std::function<void(unsigned)>& fn) {
  std::mutex error_mu;
  std::exception_ptr error;
  const auto wrapped = [&](unsigned w) {
    try {
      fn(w);
    } catch (...) {
      const std::lock_guard<std::mutex> lock{error_mu};
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned w = 1; w < threads; ++w) pool.emplace_back(wrapped, w);
  wrapped(0);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

ModelCheckResult run_model_check_sharded(const ModelCheckConfig& config,
                                         unsigned threads) {
  ModelCheckResult result;
  result.config = config;
  result.threads_used = threads;

  std::vector<std::unique_ptr<ShardWorker>> workers;
  workers.reserve(threads);
  for (unsigned w = 0; w < threads; ++w) {
    workers.push_back(std::make_unique<ShardWorker>(config));
    if (workers[w]->root.hash != workers[0]->root.hash ||
        workers[w]->root.mem_generation != workers[0]->root.mem_generation) {
      throw std::logic_error{
          "model checker: worker machines did not boot identically"};
    }
  }
  hv::Hypervisor& vmm0 = workers[0]->machine.vmm;
  const hv::HvSnapshot& root = workers[0]->root;
  result.states_explored = 1;

  // Root audit, identical to the serial driver: a dirty boot state is
  // reported and terminal.
  {
    const hv::SystemWalk walk = hv::walk_system(vmm0);
    hv::InvariantReport report = hv::InvariantAuditor{vmm0}.audit(walk);
    if (!report.clean()) {
      ++result.violations_found;
      const auto violated = report.violated_set();
      for (const hv::Invariant inv : violated) {
        ++result.invariant_hits[static_cast<std::size_t>(inv)];
      }
      const auto classes = classify_erroneous_state(vmm0, walk, report);
      for (const ErroneousStateClass c : classes) {
        ++result.class_hits[static_cast<std::size_t>(c)];
      }
      Counterexample cx;
      cx.state_hash = root.hash;
      cx.violated = violated;
      cx.classes = classes;
      const hv::HvDelta root_delta = vmm0.snapshot_delta(root);
      cx.state_diff = diff_states(StateView{root, root_delta},
                                  StateView{root, root_delta});
      cx.report = std::move(report);
      result.counterexamples.push_back(std::move(cx));
      return result;
    }
  }

  // Owner-partitioned visited set: frozen for probes during produce,
  // owner-written during admit, barrier-separated — no locks anywhere.
  ShardedVisited visited;
  const std::size_t n_shards = visited.shard_count();
  visited.owner_insert(visited.shard_of(root.hash), root.hash);

  std::vector<CowFrontierItem> frontier;
  {
    CowFrontierItem root_item;
    root_item.cow = vmm0.snapshot_cow(root, nullptr, root.mem_generation);
    root_item.hash = root.hash;
    root_item.cost = frontier_item_cost(root_item.prefix, 0, 0);
    frontier.push_back(std::move(root_item));
  }
  std::uint64_t resident = frontier[0].cost;
  result.peak_frontier_bytes = resident;

  // Per-worker scheduling-dependent tallies, folded after the run. Their
  // sums are deterministic (which worker did the work is not).
  std::vector<std::uint64_t> ops_executed_w(threads, 0);

  // Per-worker profilers (shared epoch, worker-numbered lanes) hold the
  // Sched-kind engine spans each worker records for itself; they merge
  // into the main profiler — order-independently — after the run. The
  // deterministic expand/audit spans are recomputed by the serial
  // assembly from the op-outcome arrays, never recorded by workers.
  obs::SpanProfiler* const prof = config.profiler;
  std::vector<std::unique_ptr<obs::SpanProfiler>> wprofs;
  if (prof != nullptr) {
    for (unsigned w = 0; w < threads; ++w) {
      wprofs.push_back(std::make_unique<obs::SpanProfiler>(prof->epoch()));
      wprofs[w]->set_tid(w);
      wprofs[w]->set_record_events(prof->record_events());
    }
  }

  bool stop = false;
  unsigned level = 0;  // op-prefix length of the current frontier
  while (!frontier.empty() && !stop && level < config.depth) {
    const unsigned depth = level + 1;
    const std::string dname = "d" + std::to_string(depth);
    if (config.status != nullptr) {
      config.status->checker_depth(depth, frontier.size());
      config.status->checker_progress(result.states_explored,
                                      result.violations_found);
    }
    const std::size_t n_parents = frontier.size();

    // ---- produce: apply every op of every parent exactly once.
    std::vector<std::vector<std::uint8_t>> op_outcome(n_parents);
    // inbox[shard][producer]: each producer appends only to its own cell,
    // each cell is read only after the barrier — race-free by layout, no
    // locks.
    std::vector<std::vector<std::vector<Candidate>>> inbox(
        n_shards, std::vector<std::vector<Candidate>>(threads));
    std::atomic<std::size_t> next_parent{0};
    obs::ScopedSpan produce_span{prof,
                                 {obs::kSpanCheck, dname, obs::kSpanProduce},
                                 obs::SpanKind::Sched};
    run_on_workers(threads, [&](unsigned w) {
      ShardWorker& self = *workers[w];
      hv::Hypervisor& vmm = self.machine.vmm;
      obs::ScopedSpan lane{
          prof != nullptr ? wprofs[w].get() : nullptr,
          {obs::kSpanCheck, dname, obs::kSpanProduce, "w" + std::to_string(w)},
          obs::SpanKind::Sched};
      while (true) {
        const std::size_t idx = next_parent.fetch_add(1);
        if (idx >= n_parents) return;
        const CowFrontierItem& item = frontier[idx];
        (void)vmm.restore_cow(self.root, item.cow);
        // The capture marker is re-taken after every restore: restores
        // stamp fresh generations, so "written after the marker" is
        // exactly "diverged from the restored parent".
        std::uint64_t marker = vmm.memory().generation();
        const std::vector<Step> alphabet =
            enumerate_ops(vmm, config, self.machine.guests);
        lane.add_steps(alphabet.size());
        ops_executed_w[w] += alphabet.size();
        std::vector<std::uint8_t>& outcome = op_outcome[idx];
        outcome.assign(alphabet.size(), kOpUnchangedOk);
        for (std::uint32_t o = 0; o < alphabet.size(); ++o) {
          const long rc =
              hv::apply_guest_op(vmm, alphabet[o].caller, alphabet[o].op);
          const std::uint64_t h = vmm.state_hash();
          if (h == item.hash) {
            if (rc != hv::kOk) outcome[o] = kOpUnchangedFailed;
            continue;  // nothing changed; nothing to restore
          }
          outcome[o] = kOpChanged;
          // Probe the frozen pre-depth set: a hash committed at an earlier
          // depth can never be admitted, so skip its capture. Same-depth
          // collisions are the owner's call.
          if (!visited.probe(h)) {
            Candidate c;
            c.parent = static_cast<std::uint32_t>(idx);
            c.op = o;
            c.hash = h;
            c.step = alphabet[o];
            c.cow = vmm.snapshot_cow(self.root, &item.cow, marker);
            inbox[visited.shard_of(h)][w].push_back(std::move(c));
          }
          (void)vmm.restore_cow(self.root, item.cow);
          marker = vmm.memory().generation();
        }
      }
    });
    produce_span.end();

    // ---- admit: each owner decides its shards, no cross-shard state.
    std::vector<std::vector<Candidate>> admitted(n_shards);
    obs::ScopedSpan admit_span{prof,
                               {obs::kSpanCheck, dname, obs::kSpanAdmit},
                               obs::SpanKind::Sched};
    run_on_workers(threads, [&](unsigned w) {
      obs::ScopedSpan lane{
          prof != nullptr ? wprofs[w].get() : nullptr,
          {obs::kSpanCheck, dname, obs::kSpanAdmit, "w" + std::to_string(w)},
          obs::SpanKind::Sched};
      for (std::size_t s = w; s < n_shards; s += threads) {
        std::size_t total = 0;
        for (unsigned pw = 0; pw < threads; ++pw) {
          total += inbox[s][pw].size();
        }
        if (total == 0) continue;
        lane.add_steps(total);
        std::vector<Candidate> cands;
        cands.reserve(total);
        for (unsigned pw = 0; pw < threads; ++pw) {
          for (Candidate& c : inbox[s][pw]) cands.push_back(std::move(c));
        }
        std::sort(cands.begin(), cands.end(),
                  [](const Candidate& a, const Candidate& b) {
                    if (a.hash != b.hash) return a.hash < b.hash;
                    if (a.parent != b.parent) return a.parent < b.parent;
                    return a.op < b.op;
                  });
        for (std::size_t i = 0; i < cands.size();) {
          std::size_t j = i;
          while (j < cands.size() && cands[j].hash == cands[i].hash) ++j;
          // The owner alone admits: the first (parent, op) pair of a new
          // hash is the pair the serial BFS encounters first.
          if (visited.owner_insert(s, cands[i].hash)) {
            admitted[s].push_back(std::move(cands[i]));
          }
          i = j;
        }
      }
    });
    admit_span.end();

    // ---- assembly 1 (serial): serial claim order, truncation cut,
    // counters and the deterministic expand/audit spans.
    std::vector<Candidate> claims;
    {
      std::size_t total = 0;
      for (std::size_t s = 0; s < n_shards; ++s) total += admitted[s].size();
      claims.reserve(total);
      for (std::size_t s = 0; s < n_shards; ++s) {
        for (Candidate& c : admitted[s]) claims.push_back(std::move(c));
      }
    }
    std::sort(claims.begin(), claims.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.parent != b.parent ? a.parent < b.parent
                                            : a.op < b.op;
              });
    // The serial BFS stops right after the admission that reaches
    // max_states; later pairs were never executed there and must not be
    // counted, audited or queued here. (Hashes past the cut stay in the
    // visited set — visible only through shard_occupancy on truncated
    // runs, never in the report.)
    const std::uint64_t allowed = config.max_states - result.states_explored;
    if (claims.size() >= allowed) {
      claims.resize(static_cast<std::size_t>(allowed));
      result.truncated = true;
      stop = true;
    }
    const std::uint32_t cut_parent = stop ? claims.back().parent : 0;
    const std::uint32_t cut_op = stop ? claims.back().op : 0;
    std::vector<std::uint64_t> audited(n_parents, 0);
    for (const Candidate& c : claims) ++audited[c.parent];
    std::uint64_t changed_total = 0;
    for (std::size_t idx = 0; idx < n_parents; ++idx) {
      if (stop && idx > cut_parent) break;
      const std::vector<std::uint8_t>& outcome = op_outcome[idx];
      const std::size_t n_ops = stop && idx == cut_parent
                                    ? std::size_t{cut_op} + 1
                                    : outcome.size();
      for (std::size_t o = 0; o < n_ops; ++o) {
        if (outcome[o] == kOpUnchangedFailed) ++result.failed_ops;
        if (outcome[o] == kOpChanged) ++changed_total;
      }
      result.ops_applied += n_ops;
      if (prof != nullptr && n_ops != 0) {
        prof->add({obs::kSpanCheck, dname, obs::kSpanExpand}, 1, n_ops);
        if (audited[idx] != 0) {
          prof->add({obs::kSpanCheck, dname, obs::kSpanAudit}, audited[idx],
                    audited[idx]);
        }
      }
    }
    result.states_explored += claims.size();
    result.states_deduped += changed_total - claims.size();

    // ---- settle: audit the admitted states from their captures — the
    // single-pass payoff: no op is ever applied a second time.
    std::vector<Settled> settled(claims.size());
    std::atomic<std::size_t> next_claim{0};
    obs::ScopedSpan settle_span{prof,
                                {obs::kSpanCheck, dname, obs::kSpanSettle},
                                obs::SpanKind::Sched};
    run_on_workers(threads, [&](unsigned w) {
      ShardWorker& self = *workers[w];
      hv::Hypervisor& vmm = self.machine.vmm;
      obs::ScopedSpan lane{
          prof != nullptr ? wprofs[w].get() : nullptr,
          {obs::kSpanCheck, dname, obs::kSpanSettle, "w" + std::to_string(w)},
          obs::SpanKind::Sched};
      while (true) {
        const std::size_t i = next_claim.fetch_add(1);
        if (i >= claims.size()) return;
        lane.add_steps(1);
        const Candidate& c = claims[i];
        (void)vmm.restore_cow(self.root, c.cow);
        if (vmm.state_hash() != c.hash) {
          throw std::logic_error{
              "model checker: settled state diverged from its capture"};
        }
        const hv::SystemWalk walk = hv::walk_system(vmm);
        hv::InvariantReport report = hv::InvariantAuditor{vmm}.audit(walk);
        if (report.clean()) continue;
        Settled& s = settled[i];
        s.violating = true;
        s.violated = report.violated_set();
        s.classes = classify_erroneous_state(vmm, walk, report);
        s.state_diff = diff_states(StateView{self.root, frontier[c.parent].cow},
                                   StateView{self.root, c.cow});
        s.report = std::move(report);
      }
    });
    settle_span.end();

    // ---- assembly 2 (serial): violations and the next frontier, in claim
    // order. Clean states at the depth bound are never expanded, so they
    // are not queued.
    std::vector<CowFrontierItem> next_frontier;
    std::uint64_t next_resident = 0;
    for (std::size_t i = 0; i < claims.size(); ++i) {
      Candidate& c = claims[i];
      std::vector<Step> trace = frontier[c.parent].prefix;
      trace.push_back(std::move(c.step));
      Settled& s = settled[i];
      if (s.violating) {
        ++result.violations_found;
        for (const hv::Invariant inv : s.violated) {
          ++result.invariant_hits[static_cast<std::size_t>(inv)];
        }
        for (const ErroneousStateClass cls : s.classes) {
          ++result.class_hits[static_cast<std::size_t>(cls)];
        }
        if (result.counterexamples.size() < config.max_counterexamples) {
          Counterexample cx;
          cx.steps = std::move(trace);
          cx.depth = static_cast<unsigned>(cx.steps.size());
          cx.state_hash = c.hash;
          cx.violated = std::move(s.violated);
          cx.classes = std::move(s.classes);
          cx.state_diff = std::move(s.state_diff);
          cx.report = std::move(s.report);
          result.counterexamples.push_back(std::move(cx));
        }
      } else if (!stop && depth < config.depth) {
        CowFrontierItem child;
        child.hash = c.hash;
        child.cost = frontier_item_cost(trace, c.cow.owned_frames,
                                        c.cow.frames.size());
        child.prefix = std::move(trace);
        child.cow = std::move(c.cow);
        next_resident += child.cost;
        next_frontier.push_back(std::move(child));
      }
    }
    result.peak_frontier_bytes =
        std::max(result.peak_frontier_bytes, resident + next_resident);

    frontier = std::move(next_frontier);
    resident = next_resident;
    ++level;
  }

  if (prof != nullptr) {
    for (const auto& wp : wprofs) prof->merge(*wp);
  }

  hv::SnapshotStats total{};
  for (const auto& w : workers) total += w->machine.vmm.snapshot_stats();
  result.snapshot_frames_copied = total.frames_copied;
  result.hash_frames_rehashed = total.frames_rehashed;
  result.delta_restores = total.delta_restores;
  result.full_restores = total.full_restores;
  result.cow_captures = total.cow_captures;
  result.cow_frames_copied = total.cow_frames_copied;
  result.cow_frames_shared = total.cow_frames_shared;
  for (const std::uint64_t n : ops_executed_w) result.ops_executed += n;
  result.shard_occupancy = visited.occupancy();
  return result;
}

}  // namespace

// --------------------------------------------------------------- dispatcher

ModelCheckResult run_model_check(const ModelCheckConfig& config) {
  if (config.max_frontier_bytes != 0 && config.spill_dir.empty()) {
    throw std::invalid_argument{
        "model checker: a frontier budget needs a spill directory"};
  }
  unsigned threads = config.threads != 0
                         ? config.threads
                         : std::max(1u, std::thread::hardware_concurrency());
  // More workers than cores only adds machines to boot; cap generously.
  threads = std::min(threads, 32u);
  // The serial BFS owns the spillable frontier, so a budgeted run is
  // serial; the report is byte-identical either way.
  if (config.use_replay_fallback || config.max_frontier_bytes != 0) {
    threads = 1;
  }
  if (config.status != nullptr) config.status->checker_begin();
  ModelCheckResult result;
  {
    // Root of the deterministic span tree; per-depth children hang off it.
    obs::ScopedSpan check_span{config.profiler, obs::kSpanCheck};
    result = threads <= 1 ? run_model_check_serial(config)
                          : run_model_check_sharded(config, threads);
  }
  if (config.status != nullptr) {
    config.status->checker_progress(result.states_explored,
                                    result.violations_found);
    config.status->checker_end();
  }
  return result;
}

// ------------------------------------------------------------------- report

std::string render_report(const ModelCheckResult& r) {
  std::string out;
  out += "model check: xen " + r.config.version.to_string() + ", depth " +
         std::to_string(r.config.depth) + ", " +
         std::to_string(r.config.guest_domains) + " guest(s) of " +
         std::to_string(r.config.domain_pages) + " pages, machine " +
         std::to_string(r.config.machine_frames) + " frames" +
         (r.config.include_grant_ops ? ", grant ops on" : "") + "\n";
  out += "  states explored: " + std::to_string(r.states_explored) +
         "  (ops applied " + std::to_string(r.ops_applied) + ", deduped " +
         std::to_string(r.states_deduped) + ", refused " +
         std::to_string(r.failed_ops) + ")" +
         (r.truncated ? "  [TRUNCATED at max_states]" : "") + "\n";
  out += "  violating states: " + std::to_string(r.violations_found) + "\n";
  out += "  erroneous-state classes:\n";
  for (std::size_t c = 0; c < kErroneousStateClassCount; ++c) {
    out += "    " + to_string(static_cast<ErroneousStateClass>(c)) + ": ";
    out += r.class_hits[c] != 0
               ? "REACHED (" + std::to_string(r.class_hits[c]) + " state(s))"
               : "not reached";
    out += "\n";
  }
  for (std::size_t i = 0; i < r.counterexamples.size(); ++i) {
    const Counterexample& cx = r.counterexamples[i];
    out += "  counterexample #" + std::to_string(i + 1) + " (depth " +
           std::to_string(cx.depth) + ", hash " + hex(cx.state_hash) + ")\n";
    for (std::size_t s = 0; s < cx.steps.size(); ++s) {
      out += "    " + std::to_string(s + 1) + ". " + cx.steps[s].label + "\n";
    }
    out += "    violates:";
    for (const hv::Invariant inv : cx.violated) out += " " + hv::to_string(inv);
    out += "\n";
    out += "    classes:";
    for (const ErroneousStateClass c : cx.classes) out += " [" + to_string(c) + "]";
    out += "\n";
    out += "    state diff vs parent:\n";
    for (const std::string& line : cx.state_diff) {
      out += "      " + line + "\n";
    }
    for (const hv::InvariantFinding& f : cx.report.findings) {
      out += "    finding: " + hv::to_string(f.invariant) + ": " + f.detail +
             "\n";
    }
  }
  return out;
}

std::string render_engine_stats(const ModelCheckResult& r) {
  std::string out =
      "snapshot engine (" + std::to_string(r.threads_used) +
      " worker(s)): " + std::to_string(r.delta_restores) + " delta + " +
      std::to_string(r.full_restores) + " full restores, frames copied " +
      std::to_string(r.snapshot_frames_copied) + ", frame digests redone " +
      std::to_string(r.hash_frames_rehashed) + "\n";
  out += "cow forest: " + std::to_string(r.cow_captures) + " captures, " +
         std::to_string(r.cow_frames_copied) + " frames owned, " +
         std::to_string(r.cow_frames_shared) + " frames shared\n";
  out += "frontier: peak " + std::to_string(r.peak_frontier_bytes) +
         " bytes, " + std::to_string(r.frontier_spilled_items) +
         " spilled (" + std::to_string(r.frontier_spill_bytes) + " bytes, " +
         std::to_string(r.frontier_spill_reloads) + " reloads), ops executed " +
         std::to_string(r.ops_executed) + "\n";
  if (!r.shard_occupancy.empty()) {
    std::uint64_t min_occ = r.shard_occupancy[0];
    std::uint64_t max_occ = r.shard_occupancy[0];
    std::uint64_t total_occ = 0;
    for (const std::uint64_t n : r.shard_occupancy) {
      min_occ = std::min(min_occ, n);
      max_occ = std::max(max_occ, n);
      total_occ += n;
    }
    out += "visited shards: " + std::to_string(r.shard_occupancy.size()) +
           ", occupancy min " + std::to_string(min_occ) + " / max " +
           std::to_string(max_occ) + " / total " + std::to_string(total_occ) +
           "\n";
  }
  return out;
}

GateVerdict evaluate_expectation(const ModelCheckResult& result,
                                 std::string_view expect,
                                 bool allow_truncated) {
  const std::string version = result.config.version.to_string();
  GateVerdict v;
  if (expect == "clean") {
    if (!result.clean()) {
      v.message = "FAIL: expected clean, found " +
                  std::to_string(result.violations_found) +
                  " violating state(s)";
      return v;
    }
    if (result.truncated && !allow_truncated) {
      // "No violation found" means nothing when the search never covered
      // the bounded space: the clipped region could hold one.
      v.message = "FAIL: expected clean, but the search was TRUNCATED at "
                  "max_states (" +
                  std::to_string(result.states_explored) +
                  " states explored); the bounded space was not covered — "
                  "raise --max-states or pass --allow-truncated";
      return v;
    }
    v.pass = true;
    v.message = result.truncated
                    ? "OK: no invariant violation in the TRUNCATED space "
                      "(xen " + version + "; coverage incomplete)"
                    : "OK: no invariant violation in the bounded space (xen " +
                          version + ")";
    return v;
  }
  bool any_xsa = false;
  for (std::size_t c = 0; c + 1 < kErroneousStateClassCount; ++c) {
    any_xsa |= result.reached(static_cast<ErroneousStateClass>(c));
  }
  if (!any_xsa) {
    v.message = "FAIL: expected an XSA erroneous state, none reached";
    return v;
  }
  v.pass = true;
  v.message = "OK: XSA erroneous state(s) reachable (xen " + version + ")";
  return v;
}

}  // namespace ii::analysis
