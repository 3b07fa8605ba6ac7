// ReHype-style in-place hypervisor recovery (see recovery.hpp).
//
// The recovery strategy mirrors ReHype's key observation: almost all of the
// state a hypervisor failure (or an injected intrusion) can corrupt is
// *derived* state — the IDT derives from the boot-time handler table, frame
// types and reference counts derive from the page tables and grant state,
// the reserved L4 slots derive from Xen's own tables. Guest memory contents
// are the ground truth that must survive. recover() therefore throws the
// derived bookkeeping away and rebuilds it by re-running the same
// validation engine the live hypercall paths use, after a sanitizer pass
// has cleared every page-table entry that could never have passed
// validation legitimately.
#include "hv/recovery.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "core/chaos.hpp"
#include "hv/audit.hpp"
#include "hv/errors.hpp"
#include "hv/layout.hpp"
#include "obs/span.hpp"

namespace ii::hv {

namespace {

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

bool guest_l4_slot(unsigned index) {
  return index < kXenFirstReservedSlot || index > kXenLastReservedSlot;
}

}  // namespace

std::string to_string(Invariant invariant) {
  switch (invariant) {
    case Invariant::Liveness: return "liveness";
    case Invariant::FrameTypeSafety: return "frame-type-safety";
    case Invariant::AddressSpaceIsolation: return "address-space-isolation";
    case Invariant::IdtIntegrity: return "idt-integrity";
    case Invariant::XenL3Hygiene: return "xen-l3-hygiene";
    case Invariant::ReservedSlotIntegrity: return "reserved-slot-integrity";
    case Invariant::GrantLifecycle: return "grant-lifecycle";
    case Invariant::P2mConsistency: return "p2m-consistency";
    case Invariant::RefcountConsistency: return "refcount-consistency";
  }
  return "unknown";
}

std::vector<Invariant> InvariantReport::violated_set() const {
  std::vector<Invariant> out;
  for (std::size_t i = 0; i < kInvariantCount; ++i) {
    const auto inv = static_cast<Invariant>(i);
    if (violated(inv)) out.push_back(inv);
  }
  return out;
}

std::vector<Invariant> RecoveryReport::restored() const {
  std::vector<Invariant> out;
  for (const Invariant inv : pre.violated_set()) {
    if (!post.violated(inv)) out.push_back(inv);
  }
  return out;
}

// ----------------------------------------------------------------- auditor

InvariantReport InvariantAuditor::audit() const {
  return audit(walk_system(*hv_));
}

InvariantReport InvariantAuditor::audit(const SystemWalk& walk) const {
  return audit(audit_system(*hv_, walk));
}

InvariantReport InvariantAuditor::audit(const AuditReport& structural) const {
  InvariantReport report;
  const Hypervisor& hv = *hv_;
  const FrameTable& frames = hv.frames();

  const std::vector<DomainId> ids = hv.domain_ids();
  // Invariants quantify over *runnable* domains: a crashed VM never executes
  // again, so its (possibly unsalvageable) address space is inert — exactly
  // ReHype's "failed VM" outcome, which does not count against recovery.
  // The crashed set is worked out once; it is almost always empty, and
  // kDomInvalid / unknown owners are never in it.
  std::vector<DomainId> crashed;
  for (const DomainId id : ids) {
    if (hv.domain(id).crashed()) crashed.push_back(id);
  }
  const auto dead = [&](DomainId id) {
    return std::find(crashed.begin(), crashed.end(), id) != crashed.end();
  };
  const auto add = [&](Invariant inv, DomainId domain, std::string detail) {
    report.findings.push_back(InvariantFinding{inv, domain, std::move(detail)});
  };

  // 1. Liveness: the flags panic()/report_cpu_hang() latch.
  if (hv.crashed()) add(Invariant::Liveness, kDomInvalid, "hypervisor panicked");
  if (hv.cpu_hung()) add(Invariant::Liveness, kDomInvalid, "CPU0 wedged");

  // 2. Structural audits, grouped by the property they protect. The page
  // tables were walked exactly once (walk_system) and the materialized walk
  // was shared by every structural check instead of re-walking per invariant.
  for (const AuditFinding& f : structural.findings) {
    if (dead(f.domain)) continue;
    Invariant inv{};
    switch (f.kind) {
      case FindingKind::GuestWritablePageTable:
      case FindingKind::GuestWritableXenFrame:
        inv = Invariant::FrameTypeSafety;
        break;
      case FindingKind::GuestMapsForeignFrame:
        inv = Invariant::AddressSpaceIsolation;
        break;
      case FindingKind::CorruptIdtGate: inv = Invariant::IdtIntegrity; break;
      case FindingKind::ForeignXenL3Entry: inv = Invariant::XenL3Hygiene; break;
      case FindingKind::ReservedSlotTampered:
        inv = Invariant::ReservedSlotIntegrity;
        break;
      case FindingKind::StaleGrantMapping:
        inv = Invariant::GrantLifecycle;
        break;
    }
    add(inv, f.domain, f.detail);
  }

  // 3. P2M consistency: every populated slot maps an in-range frame the
  // domain actually owns.
  for (const DomainId id : ids) {
    const Domain& dom = hv.domain(id);
    if (dom.crashed()) continue;
    for (std::uint64_t p = 0; p < dom.nr_pages(); ++p) {
      const auto mfn = dom.p2m(sim::Pfn{p});
      if (!mfn) continue;
      if (!hv.memory().contains(*mfn)) {
        add(Invariant::P2mConsistency, id,
            "pfn " + hex(p) + " -> out-of-range mfn " + hex(mfn->raw()));
      } else if (frames.info(*mfn).owner != id) {
        add(Invariant::P2mConsistency, id,
            "pfn " + hex(p) + " -> mfn " + hex(mfn->raw()) + " owned by d" +
                std::to_string(frames.info(*mfn).owner));
      }
    }
  }

  // 4. Frame-table self-consistency (what recovery's rebuild must restore).
  // The one pass of the audit that grows with the machine, not the tables.
  for (std::uint64_t m = 0; m < frames.frame_count(); ++m) {
    const PageInfo& pi = frames.info(sim::Mfn{m});
    if (pi.owner == kDomXen || pi.owner == kDomInvalid || dead(pi.owner)) {
      continue;
    }
    if (pi.type == PageType::None && pi.type_count != 0) {
      add(Invariant::RefcountConsistency, pi.owner,
          "mfn " + hex(m) + " typeless with type_count " +
              std::to_string(pi.type_count));
    }
    if (is_pagetable_type(pi.type) && !pi.validated) {
      add(Invariant::RefcountConsistency, pi.owner,
          "mfn " + hex(m) + " typed " + to_string(pi.type) +
              " but never validated");
    }
    if (pi.ref_count == 0) {
      add(Invariant::RefcountConsistency, pi.owner,
          "allocated mfn " + hex(m) + " with zero existence refs");
    }
  }
  for (const DomainId id : ids) {
    const Domain& dom = hv.domain(id);
    if (dom.crashed()) continue;
    const PageInfo& pi = frames.info(dom.cr3());
    if (pi.owner != id || pi.type != PageType::L4 || !pi.validated) {
      add(Invariant::RefcountConsistency, id,
          "cr3 mfn " + hex(dom.cr3().raw()) + " is not a validated L4 (" +
              to_string(pi.type) + ")");
    }
  }

  if (obs::TraceSink* sink = hv.trace_sink()) {
    for (const InvariantFinding& f : report.findings) {
      sink->emit(obs::TraceCategory::InvariantViolation,
                 f.domain == kDomInvalid ? obs::kNoDomain : f.domain,
                 static_cast<std::uint32_t>(f.invariant));
    }
  }
  return report;
}

// --------------------------------------------------------------- sanitizer

// Clear every page-table entry reachable from the domain's roots that the
// validation engine could never have accepted legitimately, so that the
// subsequent revalidation (get_page_type on the roots) succeeds without
// re-admitting injected state. Two passes: the first fixes each reachable
// table frame's level (first visit wins — matching the DFS order validation
// itself uses), the second drops entries that are malformed, foreign,
// level-conflicting, or writable windows over live table frames.
std::uint64_t Hypervisor::recover_sanitize_tables(
    Domain& dom, const std::vector<std::pair<sim::Mfn, PageType>>& pins) {
  std::map<std::uint64_t, int> seen_level;
  const auto collect = [&](auto&& self, sim::Mfn table, int level) -> void {
    if (!mem_->contains(table)) return;
    if (frames_.info(table).owner != dom.id()) return;
    if (!seen_level.try_emplace(table.raw(), level).second) return;
    if (level == 1) return;
    for (unsigned s = 0; s < sim::kPtEntries; ++s) {
      if (level == 4 && !guest_l4_slot(s)) continue;
      const sim::Pte e{mem_->read_slot(table, s)};
      if (!e.present() || e.large_page() || e.has_reserved_bits()) continue;
      if (!mem_->contains(e.frame())) continue;
      self(self, e.frame(), level - 1);
    }
  };
  collect(collect, dom.cr3(), 4);
  for (const auto& [mfn, type] : pins) {
    if (const auto level = level_of_type(type)) {
      collect(collect, mfn, level_index(*level));
    }
  }

  std::uint64_t cleared = 0;
  std::set<std::uint64_t> visited;
  const auto scrub = [&](auto&& self, sim::Mfn table, int level) -> void {
    if (!visited.insert(table.raw()).second) return;
    for (unsigned s = 0; s < sim::kPtEntries; ++s) {
      // Reserved L4 slots belong to Xen; validate_table() reinstalls them.
      if (level == 4 && !guest_l4_slot(s)) continue;
      const sim::Pte e{mem_->read_slot(table, s)};
      if (!e.present()) continue;
      bool drop = false;
      if (e.has_reserved_bits() || !mem_->contains(e.frame())) {
        drop = true;
      } else if (e.large_page()) {
        // PV guests cannot legitimately create superpages; any PSE entry is
        // XSA-148 fallout granting unchecked machine-contiguous access.
        drop = true;
      } else if (frames_.info(e.frame()).owner != dom.id()) {
        drop = true;  // foreign or Xen-owned frame linked below a guest root
      } else if (level > 1) {
        const auto it = seen_level.find(e.frame().raw());
        if (it == seen_level.end() || it->second != level - 1) {
          drop = true;  // level conflict (includes self/ancestor references)
        } else {
          self(self, e.frame(), level - 1);
        }
      } else {
        // L1 leaf: the shared core-invariant predicate decides. During
        // recovery a frame's "type" is the level the collect pass assigned
        // it (the live types were wiped by the frame reset).
        const auto it = seen_level.find(e.frame().raw());
        const PageType in_use = it == seen_level.end()
                                    ? PageType::None
                                    : pagetable_type_of_level(it->second);
        if (is_writable_pagetable_mapping(e.writable(), in_use)) {
          drop = true;  // writable window over a live page-table frame
        }
      }
      if (drop) {
        mem_->write_slot(table, s, 0);
        ++cleared;
      }
    }
  };
  if (mem_->contains(dom.cr3()) &&
      frames_.info(dom.cr3()).owner == dom.id()) {
    scrub(scrub, dom.cr3(), 4);
  }
  for (const auto& [mfn, type] : pins) {
    const auto level = level_of_type(type);
    if (!level || !mem_->contains(mfn)) continue;
    if (frames_.info(mfn).owner != dom.id()) continue;
    const auto it = seen_level.find(mfn.raw());
    if (it != seen_level.end() && it->second == level_index(*level)) {
      scrub(scrub, mfn, level_index(*level));
    }
  }
  return cleared;
}

// ---------------------------------------------------------------- recover()

namespace {

/// Chaos recover.abort: recovery itself dies at a phase boundary (the
/// micro-reboot machinery is not immune to the corruption it repairs).
/// Occurrence N of the point is the N-th boundary crossed, so a plan like
/// recover.abort@3 deterministically kills recovery between named phases.
/// The throw propagates to the campaign's recover try-block, which records
/// the cell as unrecovered — the same containment as a real recovery bug.
void chaos_phase_boundary(const char* next_phase) {
  if (core::chaos_fire("recover.abort")) {
    throw std::runtime_error{std::string{"chaos: recovery aborted before "} +
                             next_phase};
  }
}

}  // namespace

RecoveryReport Hypervisor::recover() {
  RecoveryReport report;
  // Phase spans nest under whatever span the caller holds open (the
  // campaign's cell/recover). Step counts are the report's own counters —
  // deterministic functions of the corrupted state, never wall time.
  obs::SpanProfiler* const prof = profiler_;
  if (trace_) {
    trace_->emit(obs::TraceCategory::RecoverEnter, obs::kNoDomain,
                 (crashed_ ? 1u : 0u) | (cpu_hung_ ? 2u : 0u));
  }
  {
    obs::ScopedSpan span{prof, obs::kSpanPreAudit};
    report.pre = InvariantAuditor{*this}.audit();
    span.add_steps(report.pre.findings.size());
  }

  chaos_phase_boundary("idt");
  log("(XEN) ReHype: micro-rebooting hypervisor state in place");

  // Capture pin hints (mfn, pre-crash type) per domain before the frame
  // reset wipes the live types; a pin whose type hint is unusable is simply
  // dropped during re-pinning.
  std::map<DomainId, std::vector<std::pair<sim::Mfn, PageType>>> pin_hints;
  for (const auto& [id, dom] : domains_) {
    auto& hints = pin_hints[id];
    for (const sim::Mfn mfn : dom->pinned_tables()) {
      PageType type =
          mem_->contains(mfn) ? frames_.info(mfn).type : PageType::None;
      if (!is_pagetable_type(type)) {
        type = mfn == dom->cr3() ? PageType::L4 : PageType::None;
      }
      hints.emplace_back(mfn, type);
    }
  }

  // 1. Liveness: un-latch the failure flags so validation hypercall paths
  // (and the guests, afterwards) can run again.
  crashed_ = false;
  cpu_hung_ = false;

  // 2. IDT: every gate re-derives from the boot-time handler table.
  {
    obs::ScopedSpan span{prof, obs::kSpanIdt};
    sim::Idt table = idt();
    for (unsigned v = 0; v < sim::kIdtVectors; ++v) {
      const sim::IdtGate gate = table.read(v);
      if (gate.handler != default_handlers_[v] || !gate.well_formed()) {
        ++report.idt_gates_restored;
      }
    }
    install_default_idt();
    span.add_steps(report.idt_gates_restored);
  }

  // 3. Shared Xen L3: only slot 0 (the text L2 link) is ever legitimate;
  // anything else is an injected PUD (the XSA-212 escalation) or garbage.
  for (unsigned s = 1; s < sim::kPtEntries; ++s) {
    if (mem_->read_slot(xen_l3_, s) != 0) {
      mem_->write_slot(xen_l3_, s, 0);
      ++report.xen_l3_entries_cleared;
    }
  }

  chaos_phase_boundary("frame_table");
  // 4. Frame-table rebuild: throw away every guest frame's derived state
  // (type, type refs, validation) and fall back to the allocation ref.
  {
    obs::ScopedSpan span{prof, obs::kSpanFrameTable};
    for (std::uint64_t m = 0; m < frames_.frame_count(); ++m) {
      // Read through the const view: only the entries rewritten below are
      // logged as dirty, so the next hash and rewind visit just those.
      const PageInfo& cur = std::as_const(frames_).info(sim::Mfn{m});
      if (cur.owner == kDomXen || cur.owner == kDomInvalid) continue;
      if (cur.type != PageType::None || cur.type_count != 0 ||
          cur.ref_count != 1 || cur.validated) {
        PageInfo& pi = frames_.info(sim::Mfn{m});
        pi.type = PageType::None;
        pi.type_count = 0;
        pi.ref_count = 1;
        pi.validated = false;
        ++report.frames_retyped;
      }
    }
    span.add_steps(report.frames_retyped);
  }

  chaos_phase_boundary("p2m");
  // 5. P2M reconciliation against frame ownership (the M2P ground truth).
  {
    obs::ScopedSpan span{prof, obs::kSpanP2m};
    for (const auto& [id, dom] : domains_) {
      for (std::uint64_t p = 0; p < dom->nr_pages(); ++p) {
        const sim::Pfn pfn{p};
        const auto mfn = dom->p2m(pfn);
        if (!mfn) continue;
        if (!mem_->contains(*mfn) || frames_.info(*mfn).owner != id) {
          dom->set_p2m(pfn, std::nullopt);
          ++report.p2m_entries_dropped;
        }
      }
    }
    span.add_steps(report.p2m_entries_dropped);
  }

  chaos_phase_boundary("domains");
  // 6. Per-domain: sanitize the tables, then re-derive types and refcounts
  // by re-running the normal validation engine over the cleaned trees.
  obs::ScopedSpan domains_span{prof, obs::kSpanDomains};
  for (const auto& [id, dom] : domains_) {
    const auto& hints = pin_hints[id];
    report.ptes_scrubbed += recover_sanitize_tables(*dom, hints);

    // Rebuild the pin list from scratch so a failed re-pin leaves no
    // dangling type reference for domain destruction to release.
    for (const auto& [mfn, type] : hints) dom->remove_pinned(mfn);
    for (const auto& [mfn, type] : hints) {
      if (!is_pagetable_type(type)) continue;  // unusable hint: drop the pin
      if (get_page_type(*dom, mfn, type) == kOk) dom->add_pinned(mfn);
    }

    // The domain is recoverable iff its paging root revalidates.
    const PageInfo& root = frames_.info(dom->cr3());
    bool root_ok = root.owner == id && root.type == PageType::L4 &&
                   root.validated;
    if (!root_ok && get_page_type(*dom, dom->cr3(), PageType::L4) == kOk) {
      dom->add_pinned(dom->cr3());
      root_ok = true;
    }
    if (!root_ok) {
      dom->mark_crashed();
      report.unrecovered_domains.push_back(id);
      log("(XEN) ReHype: d" + std::to_string(id) +
          " paging root failed revalidation; domain marked crashed");
    }
  }

  domains_span.add_steps(report.ptes_scrubbed);
  domains_span.end();

  chaos_phase_boundary("grants");
  // 7. Grant re-derivation: live mappings hold existence refs; active-v2
  // domains get their status window remapped (a downgraded-but-leaked
  // XSA-387 window stays gone — the sanitizer already dropped it).
  {
    obs::ScopedSpan span{prof, obs::kSpanGrants};
    for (const auto& [handle, mapping] : grants_.mappings()) {
      if (mem_->contains(mapping.frame)) {
        ++frames_.info(mapping.frame).ref_count;
        span.add_steps(1);
      }
    }
    for (const auto& [id, table] : grants_.tables()) {
      if (domains_.find(id) == domains_.end()) continue;
      if (table.version() == 2 && !table.status_frames().empty()) {
        (void)map_grant_status_page(id, table.status_frames().front());
      }
    }
  }

  chaos_phase_boundary("post_audit");
  {
    obs::ScopedSpan span{prof, obs::kSpanPostAudit};
    report.post = InvariantAuditor{*this}.audit();
    span.add_steps(report.post.findings.size());
  }
  if (trace_) {
    trace_->emit(obs::TraceCategory::RecoverExit, obs::kNoDomain,
                 static_cast<std::uint32_t>(report.unrecovered_domains.size()),
                 report.succeeded() ? 0 : -1);
  }
  log("(XEN) ReHype: recovery " +
      std::string(report.succeeded() ? "complete" : "INCOMPLETE") + " (" +
      std::to_string(report.pre.findings.size()) + " finding(s) before, " +
      std::to_string(report.post.findings.size()) + " after; " +
      std::to_string(report.idt_gates_restored) + " IDT gate(s), " +
      std::to_string(report.xen_l3_entries_cleared) + " xen-L3 slot(s), " +
      std::to_string(report.frames_retyped) + " frame(s) retyped, " +
      std::to_string(report.ptes_scrubbed) + " PTE(s) scrubbed)");
  return report;
}

}  // namespace ii::hv
