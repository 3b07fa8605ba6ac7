#include "hv/audit.hpp"

#include <cstdio>
#include <cstring>
#include <span>

namespace ii::hv {

namespace {

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
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

// UserOnly prunes supervisor-only subtrees: the user flag can only be
// cleared going down (hardware ANDs it along the path), so once an
// intermediate entry drops it no descendant leaf can be user-reachable.
// The hypervisor-private directmap alone is one leaf per machine frame per
// domain, so the pruned walk skips the bulk of the tree.
template <bool UserOnly, typename Fn>
void walk_rec(const sim::PhysicalMemory& mem, const WalkFrame& frame,
              Fn&& fn) {
  const std::span<const std::uint8_t> table = mem.frame_bytes(frame.table);
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
        mem, WalkFrame{e.frame(), frame.level - 1, va, writable, user}, fn);
  }
}

}  // namespace

void for_each_leaf(const Hypervisor& hv, sim::Mfn root,
                   const std::function<void(const LeafMapping&)>& fn) {
  walk_rec<false>(hv.memory(), WalkFrame{root, 4, 0, true, true}, fn);
}

SystemWalk walk_system(const Hypervisor& hv) {
  SystemWalk walk;
  for (const DomainId id : hv.domain_ids()) {
    DomainWalk dw{id, {}};
    dw.leaves.reserve(hv.domain(id).nr_pages());
    walk_rec<true>(hv.memory(),
                   WalkFrame{hv.domain(id).cr3(), 4, 0, true, true},
                   [&](const LeafMapping& m) { dw.leaves.push_back(m); });
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
  AuditReport report;
  const sim::PhysicalMemory& mem = hv.memory();
  const FrameTable& frames = hv.frames();

  // 1. Per-domain leaf-mapping invariants, over the shared walk.
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
          report.findings.push_back(
              {FindingKind::StaleGrantMapping, id, where()});
        }
        if (is_writable_pagetable_mapping(m.writable, pi.type)) {
          report.findings.push_back(
              {FindingKind::GuestWritablePageTable, id,
               where() + " (" + to_string(pi.type) + ")"});
        } else if (m.writable && pi.owner == kDomXen) {
          report.findings.push_back(
              {FindingKind::GuestWritableXenFrame, id, where()});
        } else if (pi.owner != id && pi.owner != kDomXen &&
                   pi.owner != kDomInvalid) {
          report.findings.push_back(
              {FindingKind::GuestMapsForeignFrame, id,
               where() + " (owner d" + std::to_string(pi.owner) + ")"});
        }
      }
    }
  }

  // 2. IDT gates vs boot-time handlers.
  sim::Idt idt{const_cast<sim::PhysicalMemory&>(mem), hv.idt_base()};
  for (unsigned v = 0; v < sim::kIdtVectors; ++v) {
    const sim::IdtGate gate = idt.read(v);
    if (gate.handler != hv.default_handler(v) || !gate.well_formed()) {
      report.findings.push_back(
          {FindingKind::CorruptIdtGate, kDomInvalid,
           "vector " + std::to_string(v) + " handler " + hex(gate.handler)});
    }
  }

  // 3. Shared Xen L3: the linear-page-table window (slots 256..511) must be
  // empty on a healthy system of any version.
  const std::span<const std::uint8_t> xen_l3 = mem.frame_bytes(hv.xen_l3());
  for (unsigned s = 256; s < sim::kPtEntries; ++s) {
    const sim::Pte e{slot_at(xen_l3, s)};
    if (e.present()) {
      report.findings.push_back(
          {FindingKind::ForeignXenL3Entry, kDomInvalid,
           "xen_l3 slot " + std::to_string(s) + " = " + hex(e.raw())});
    }
  }

  // 4. Guest L4 reserved slots: everything except the two Xen links must be
  // empty; the Xen links must point at the shared tables.
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
        report.findings.push_back(
            {FindingKind::ReservedSlotTampered, id,
             "l4 slot " + std::to_string(s) + " = " + hex(e.raw())});
      }
    }
  }

  return report;
}

}  // namespace ii::hv
