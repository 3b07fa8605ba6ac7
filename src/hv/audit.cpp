#include "hv/audit.hpp"

#include <array>
#include <cstring>
#include <span>

namespace ii::hv {

namespace {

/// `v` as "0x" and lower-case hex digits without leading zeros (printf's
/// "0x%llx"), formatted by hand: finding texts are built on every audit of
/// a violating state, and snprintf took most of their cost.
std::string hex(std::uint64_t v) {
  char buf[2 + 16];
  char* p = buf + sizeof buf;
  do {
    *--p = "0123456789abcdef"[v & 0xF];
    v >>= 4;
  } while (v != 0);
  *--p = 'x';
  *--p = '0';
  return std::string(p, buf + sizeof buf);
}

struct WalkFrame {
  sim::Mfn table;
  int level;  // 4..1
  std::uint64_t va_base;
  bool writable;
  bool user;
};

constexpr std::uint64_t level_span(int level) {
  // Bytes covered by one slot at `level`.
  return std::uint64_t{1} << (12 + 9 * (level - 1));
}

std::uint64_t sign_extend(std::uint64_t va) {
  if (va & (std::uint64_t{1} << 47)) return va | 0xFFFF000000000000ULL;
  return va;
}

/// Slot `index` of a table, copied out of one bounds-checked frame_bytes()
/// view of it: no per-slot call or range check.
std::uint64_t slot_at(std::span<const std::uint8_t> table, unsigned index) {
  std::uint64_t raw;
  std::memcpy(&raw, table.data() + index * sizeof raw, sizeof raw);
  return raw;
}

/// (table MFN, write generation) of every table a walk parsed.
using TablesRead = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

// UserOnly prunes supervisor-only subtrees: the user flag can only be
// cleared going down (hardware ANDs it along the path), so once an
// intermediate entry drops it no descendant leaf can be user-reachable.
// The hypervisor-private directmap alone is one leaf per machine frame per
// domain, so the pruned walk skips the bulk of the tree. Every table
// parsed is noted in `read` (when given) with its write generation.
template <bool UserOnly, typename Fn>
void walk_rec(const sim::PhysicalMemory& mem, const WalkFrame& frame,
              Fn&& fn, TablesRead* read) {
  const std::span<const std::uint8_t> table = mem.frame_bytes(frame.table);
  if (read != nullptr) {
    read->emplace_back(frame.table.raw(), mem.frame_generation(frame.table));
  }
  for (unsigned i = 0; i < sim::kPtEntries; ++i) {
    const sim::Pte e{slot_at(table, i)};
    if (!e.present()) continue;
    const std::uint64_t va =
        sign_extend(frame.va_base + i * level_span(frame.level));
    const bool writable = frame.writable && e.writable();
    const bool user = frame.user && e.user();
    if (UserOnly && !user) continue;
    const bool leaf =
        frame.level == 1 || (e.large_page() && frame.level <= 3);
    if (leaf) {
      LeafMapping m{};
      m.va = sim::Vaddr{va};
      m.mfn = e.frame();
      m.bytes = frame.level == 1 ? sim::kPageSize : level_span(frame.level);
      m.writable = writable;
      m.user = user;
      fn(m);
      continue;
    }
    if (!mem.contains(e.frame())) continue;
    walk_rec<UserOnly>(
        mem, WalkFrame{e.frame(), frame.level - 1, va, writable, user}, fn,
        read);
  }
}

/// Append the user-reachable leaves of the address space rooted at `cr3`.
void walk_user_leaves(const sim::PhysicalMemory& mem, sim::Mfn cr3,
                      std::vector<LeafMapping>& leaves, TablesRead* read) {
  walk_rec<true>(mem, WalkFrame{cr3, 4, 0, true, true},
                 [&](const LeafMapping& m) { leaves.push_back(m); }, read);
}

/// True when `walk` is of the root `cr3` and every table it read still has
/// the generation it was read at: the walk is then exactly what a new one
/// would find.
bool walk_current(const sim::PhysicalMemory& mem, const AuditMemo::Walk& walk,
                  sim::Mfn cr3) {
  if (walk.cr3 != cr3) return false;
  for (const auto& [table, gen] : walk.tables) {
    if (mem.frame_generation(sim::Mfn{table}) != gen) return false;
  }
  return true;
}

using Findings = std::vector<AuditFinding>;

// 1. Per-domain leaf-mapping invariants, over the shared walk.
void check_leaves(const Hypervisor& hv, const SystemWalk& walk,
                  Findings& out) {
  const sim::PhysicalMemory& mem = hv.memory();
  const FrameTable& frames = hv.frames();
  for (const DomainWalk& dw : walk) {
    const DomainId id = dw.domain;
    const GrantTable* grant_table = hv.grants().find_table(id);
    const unsigned grant_version =
        grant_table != nullptr ? grant_table->version() : 1;
    for (const LeafMapping& m : dw.leaves) {
      if (!m.user) continue;  // supervisor-only mappings are Xen's business
      const std::uint64_t n_frames = m.bytes / sim::kPageSize;
      for (std::uint64_t k = 0; k < n_frames; ++k) {
        const sim::Mfn f{m.mfn.raw() + k};
        if (!mem.contains(f)) break;
        const PageInfo& pi = frames.info(f);
        // The text is built only for a finding: a clean leaf costs no
        // allocation.
        const auto where = [&] {
          return "va " + hex(m.va.raw() + k * sim::kPageSize) + " -> mfn " +
                 hex(f.raw());
        };
        if (pi.type == PageType::GrantStatus && grant_version != 2) {
          // Keep-Page-Access erroneous state: a v2 status frame is still
          // guest-reachable although the table was downgraded (XSA-387).
          out.push_back({FindingKind::StaleGrantMapping, id, where()});
        }
        if (is_writable_pagetable_mapping(m.writable, pi.type)) {
          out.push_back({FindingKind::GuestWritablePageTable, id,
                         where() + " (" + to_string(pi.type) + ")"});
        } else if (m.writable && pi.owner == kDomXen) {
          out.push_back({FindingKind::GuestWritableXenFrame, id, where()});
        } else if (pi.owner != id && pi.owner != kDomXen &&
                   pi.owner != kDomInvalid) {
          out.push_back(
              {FindingKind::GuestMapsForeignFrame, id,
               where() + " (owner d" + std::to_string(pi.owner) + ")"});
        }
      }
    }
  }
}

// 2. IDT gates vs boot-time handlers, decoded from one bounds-checked read
// of the whole table.
void check_idt(const Hypervisor& hv, Findings& out) {
  constexpr std::uint64_t kGate = sim::Idt::kGateBytes;
  std::array<std::uint8_t, sim::kIdtVectors * kGate> idt;
  hv.memory().read(hv.idt_base(), idt);
  for (unsigned v = 0; v < sim::kIdtVectors; ++v) {
    const sim::IdtGate gate = sim::Idt::decode(
        std::span<const std::uint8_t, kGate>{idt.data() + v * kGate, kGate});
    if (gate.handler != hv.default_handler(v) || !gate.well_formed()) {
      out.push_back(
          {FindingKind::CorruptIdtGate, kDomInvalid,
           "vector " + std::to_string(v) + " handler " + hex(gate.handler)});
    }
  }
}

// 3. Shared Xen L3: the linear-page-table window (slots 256..511) must be
// empty on a healthy system of any version.
void check_xen_l3(const Hypervisor& hv, Findings& out) {
  const std::span<const std::uint8_t> xen_l3 =
      hv.memory().frame_bytes(hv.xen_l3());
  for (unsigned s = 256; s < sim::kPtEntries; ++s) {
    const sim::Pte e{slot_at(xen_l3, s)};
    if (e.present()) {
      out.push_back({FindingKind::ForeignXenL3Entry, kDomInvalid,
                     "xen_l3 slot " + std::to_string(s) + " = " +
                         hex(e.raw())});
    }
  }
}

// 4. Guest L4 reserved slots: everything except the two Xen links must be
// empty; the Xen links must point at the shared tables.
void check_reserved_slots(const Hypervisor& hv, Findings& out) {
  const sim::PhysicalMemory& mem = hv.memory();
  const FrameTable& frames = hv.frames();
  const unsigned xen_slot =
      sim::level_index_of(sim::Vaddr{kXenAreaBase}, sim::PtLevel::L4);
  const unsigned dm_slot =
      sim::level_index_of(sim::Vaddr{kDirectmapBase}, sim::PtLevel::L4);
  for (const DomainId id : hv.domain_ids()) {
    const std::span<const std::uint8_t> l4 =
        mem.frame_bytes(hv.domain(id).cr3());
    for (unsigned s = kXenFirstReservedSlot; s <= kXenLastReservedSlot; ++s) {
      const sim::Pte e{slot_at(l4, s)};
      bool ok;
      if (s == xen_slot) {
        ok = e.present() && e.frame() == hv.xen_l3();
      } else if (s == dm_slot) {
        ok = e.present();
      } else if (s == kLinearPtSlot && e.present() &&
                 !hv.policy().strict_reserved_slot_check) {
        // Pre-4.9 linear-page-table facility: a READ-ONLY self map of the
        // domain's own validated L4 is a legitimate resident of this slot —
        // exactly what validate_and_write_entry accepts. Writable (the
        // XSA-182 erroneous state), foreign or non-L4 entries are tampering.
        const PageInfo* ti =
            mem.contains(e.frame()) ? &frames.info(e.frame()) : nullptr;
        ok = !e.writable() && ti != nullptr && ti->owner == id &&
             ti->type == PageType::L4 && ti->validated;
      } else {
        ok = !e.present();
      }
      if (!ok) {
        out.push_back({FindingKind::ReservedSlotTampered, id,
                       "l4 slot " + std::to_string(s) + " = " +
                           hex(e.raw())});
      }
    }
  }
}

/// The findings of `check`, which reads only frames [first, first + count):
/// kept in `memo` and re-run only when one of those frames was written.
template <typename Check>
const Findings& memoized(const sim::PhysicalMemory& mem,
                         AuditMemo::FrameCheck& memo, std::uint64_t first,
                         std::uint64_t count, Check&& check) {
  bool current = memo.generations.size() == count;
  for (std::uint64_t i = 0; current && i < count; ++i) {
    current = mem.frame_generation(sim::Mfn{first + i}) == memo.generations[i];
  }
  if (!current) {
    // Keyed only once the check is complete, as a walk is.
    memo.generations.clear();
    memo.findings.clear();
    check(memo.findings);
    for (std::uint64_t i = 0; i < count; ++i) {
      memo.generations.push_back(mem.frame_generation(sim::Mfn{first + i}));
    }
  }
  return memo.findings;
}

}  // namespace

void for_each_leaf(const Hypervisor& hv, sim::Mfn root,
                   const std::function<void(const LeafMapping&)>& fn) {
  walk_rec<false>(hv.memory(), WalkFrame{root, 4, 0, true, true}, fn,
                  nullptr);
}

SystemWalk walk_system(const Hypervisor& hv) {
  const sim::PhysicalMemory& mem = hv.memory();
  AuditMemo& memo = AuditMemo::of(hv);
  const std::vector<DomainId> ids = hv.domain_ids();
  // Entry i serves the i-th domain. Which domain it was walked for does not
  // matter: the walk is a function of the root and the tables' bytes.
  memo.walks.resize(ids.size());
  SystemWalk walk;
  walk.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const sim::Mfn cr3 = hv.domain(ids[i]).cr3();
    AuditMemo::Walk& kept = memo.walks[i];
    if (!walk_current(mem, kept, cr3)) {
      // The root is set only once the walk is complete, so a walk that
      // throws leaves no entry that could pass for current.
      kept.cr3 = AuditMemo::Walk{}.cr3;
      kept.leaves.clear();
      kept.tables.clear();
      walk_user_leaves(mem, cr3, kept.leaves, &kept.tables);
      kept.cr3 = cr3;
      AuditMemo::stats(hv).tables_parsed += kept.tables.size();
    }
    walk.push_back(DomainWalk{ids[i], kept.leaves});
  }
  return walk;
}

SystemWalk walk_system_full(const Hypervisor& hv) {
  SystemWalk walk;
  for (const DomainId id : hv.domain_ids()) {
    DomainWalk dw{id, {}};
    walk_user_leaves(hv.memory(), hv.domain(id).cr3(), dw.leaves, nullptr);
    walk.push_back(std::move(dw));
  }
  return walk;
}

std::string to_string(FindingKind kind) {
  switch (kind) {
    case FindingKind::GuestWritablePageTable:
      return "guest-writable page-table frame";
    case FindingKind::GuestWritableXenFrame:
      return "guest-writable hypervisor frame";
    case FindingKind::GuestMapsForeignFrame:
      return "guest mapping of foreign frame";
    case FindingKind::CorruptIdtGate: return "corrupt IDT gate";
    case FindingKind::ForeignXenL3Entry:
      return "foreign entry linked into shared Xen L3";
    case FindingKind::ReservedSlotTampered:
      return "tampered reserved L4 slot";
    case FindingKind::StaleGrantMapping:
      return "stale grant-status mapping after version downgrade";
  }
  return "unknown finding";
}

AuditReport audit_system(const Hypervisor& hv) {
  return audit_system(hv, walk_system(hv));
}

AuditReport audit_system(const Hypervisor& hv, const SystemWalk& walk) {
  const sim::PhysicalMemory& mem = hv.memory();
  AuditMemo& memo = AuditMemo::of(hv);
  AuditReport report;
  Findings& out = report.findings;
  check_leaves(hv, walk, out);
  const std::uint64_t idt_first = hv.idt_base().raw() / sim::kPageSize;
  const std::uint64_t idt_last =
      (hv.idt_base().raw() + sim::kIdtVectors * sim::Idt::kGateBytes - 1) /
      sim::kPageSize;
  const Findings& idt =
      memoized(mem, memo.idt, idt_first, idt_last - idt_first + 1,
               [&](Findings& found) { check_idt(hv, found); });
  out.insert(out.end(), idt.begin(), idt.end());
  const Findings& xen_l3 =
      memoized(mem, memo.xen_l3, hv.xen_l3().raw(), 1, [&](Findings& found) {
        check_xen_l3(hv, found);
        ++AuditMemo::stats(hv).tables_parsed;
      });
  out.insert(out.end(), xen_l3.begin(), xen_l3.end());
  check_reserved_slots(hv, out);
  return report;
}

AuditReport audit_system_full(const Hypervisor& hv) {
  AuditReport report;
  check_leaves(hv, walk_system_full(hv), report.findings);
  check_idt(hv, report.findings);
  check_xen_l3(hv, report.findings);
  check_reserved_slots(hv, report.findings);
  return report;
}

}  // namespace ii::hv
