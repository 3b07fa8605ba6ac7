// Direct-paging validation engine and memory hypercalls.
//
// This file is where the paper's three use-case vulnerabilities live, each
// behind its VersionPolicy knob and marked with an `XSA-...` comment at the
// exact check it removes:
//
//   XSA-148: validate_entry_target() L2/PSE handling
//   XSA-182: validate_and_write_entry() L4 linear-slot fast path
//   XSA-212: hypercall_memory_exchange() output-pointer check
//
// Everything else implements the *correct* behaviour those checks protect:
// the page-type system guaranteeing that no frame is simultaneously a
// validated page table and writable by a guest.
#include <algorithm>
#include <vector>

#include "hv/hypervisor.hpp"

namespace ii::hv {

namespace {

/// Guest-controllable L4 slots: everything outside the Xen-reserved window.
bool guest_l4_slot(unsigned index) {
  return index < kXenFirstReservedSlot || index > kXenLastReservedSlot;
}

}  // namespace

PageType Hypervisor::table_type_of(sim::PtLevel level) const {
  switch (level) {
    case sim::PtLevel::L1: return PageType::L1;
    case sim::PtLevel::L2: return PageType::L2;
    case sim::PtLevel::L3: return PageType::L3;
    case sim::PtLevel::L4: return PageType::L4;
  }
  return PageType::None;
}

std::optional<sim::PtLevel> Hypervisor::level_of_type(PageType t) const {
  switch (t) {
    case PageType::L1: return sim::PtLevel::L1;
    case PageType::L2: return sim::PtLevel::L2;
    case PageType::L3: return sim::PtLevel::L3;
    case PageType::L4: return sim::PtLevel::L4;
    default: return std::nullopt;
  }
}

// ----------------------------------------------------------- type machinery

long Hypervisor::get_page_type(Domain& caller, sim::Mfn mfn, PageType wanted) {
  const long rc = get_page_type_impl(caller, mfn, wanted);
  if (trace_) {
    trace_->emit(obs::TraceCategory::PageTypeGet, caller.id(),
                 static_cast<std::uint32_t>(wanted), rc, mfn.raw());
  }
  return rc;
}

long Hypervisor::get_page_type_impl(Domain& caller, sim::Mfn mfn,
                                    PageType wanted) {
  if (!mem_->contains(mfn)) return kEINVAL;
  PageInfo& pi = frames_.info(mfn);
  if (pi.owner != caller.id()) return kEPERM;

  if (wanted == PageType::Writable) {
    if (pi.type == PageType::Writable) {
      ++pi.type_count;
      cover(ValidationBranch::TypeWritableOk, PageType::Writable);
      return kOk;
    }
    if (pi.type == PageType::None) {
      pi.type = PageType::Writable;
      pi.type_count = 1;
      pi.validated = true;
      cover(ValidationBranch::TypeWritableOk, PageType::None);
      return kOk;
    }
    // The core protection: page-table (and descriptor) pages must never
    // become guest-writable.
    cover(ValidationBranch::TypeWritableBusy, pi.type);
    return kEBUSY;
  }

  if (is_pagetable_type(wanted)) {
    if (pi.type == wanted && pi.validated) {
      ++pi.type_count;
      cover(ValidationBranch::TypeTableRef, pi.type);
      return kOk;
    }
    if (pi.type != PageType::None) {
      cover(ValidationBranch::TypeTableBusy, pi.type);
      return kEBUSY;
    }
    const long rc = validate_table(caller, mfn, *level_of_type(wanted));
    if (rc != kOk) {
      cover(ValidationBranch::TypeTableRejected, wanted);
      return rc;
    }
    pi.type = wanted;
    pi.type_count = 1;
    pi.validated = true;
    cover(ValidationBranch::TypeTableValidated, wanted);
    return kOk;
  }
  return kEINVAL;
}

void Hypervisor::put_page_type(sim::Mfn mfn) {
  PageInfo& pi = frames_.info(mfn);
  if (pi.type_count == 0) return;  // defensive: never underflow
  if (trace_) {
    trace_->emit(obs::TraceCategory::PageTypePut, obs::kNoDomain,
                 static_cast<std::uint32_t>(pi.type), 0, mfn.raw());
  }
  if (--pi.type_count == 0) {
    if (is_pagetable_type(pi.type)) invalidate_table(mfn);
    pi.type = PageType::None;
    pi.validated = false;
  }
}

void Hypervisor::invalidate_table(sim::Mfn mfn) {
  const PageInfo& pi = frames_.info(mfn);
  const auto level = level_of_type(pi.type);
  if (!level) return;
  const unsigned first = 0, last = sim::kPtEntries;
  for (unsigned i = first; i < last; ++i) {
    if (*level == sim::PtLevel::L4 && !guest_l4_slot(i)) continue;
    const sim::Pte e{mem_->read_slot(mfn, i)};
    if (!e.present()) continue;
    if (!mem_->contains(e.frame())) continue;
    if (*level == sim::PtLevel::L1) {
      if (e.writable()) {
        put_page_type(e.frame());
      } else {
        PageInfo& ti = frames_.info(e.frame());
        if (ti.ref_count > 1) --ti.ref_count;
      }
    } else if (!e.large_page()) {
      put_page_type(e.frame());
    }
    // PSE entries (only possible via XSA-148) acquired no references.
  }
}

long Hypervisor::validate_entry_target(Domain& caller, sim::PtLevel level,
                                       sim::Pte entry) {
  if (!entry.present()) {
    cover(ValidationBranch::EntryNonPresent);
    return kOk;
  }
  if (entry.has_reserved_bits()) {
    cover(ValidationBranch::EntryReservedBits);
    return kEINVAL;
  }
  const sim::Mfn target = entry.frame();
  if (!mem_->contains(target)) {
    cover(ValidationBranch::EntryBadFrame);
    return kEINVAL;
  }

  if (entry.large_page() && level != sim::PtLevel::L1) {
    if (level == sim::PtLevel::L2) {
      // XSA-148: the vulnerable L2 validation ignores the PSE bit, so the
      // entry is accepted as-is — handing the guest a writable 2 MiB
      // machine-contiguous window with no ownership or type checks at all.
      if (policy_.xsa148_l2_pse_unvalidated) {
        cover(ValidationBranch::Xsa148PseAccepted, frames_.info(target).type);
        return kOk;
      }
      cover(ValidationBranch::PseRejected);
      return kEINVAL;  // fixed versions: PV guests may not create superpages
    }
    cover(ValidationBranch::PseRejected);
    return kEINVAL;  // no 1 GiB guest pages at L3, PSE invalid at L4
  }

  const PageInfo& ti = frames_.info(target);
  if (ti.owner != caller.id()) {
    cover(ValidationBranch::EntryForeignFrame, ti.type);
    return kEPERM;
  }

  if (level == sim::PtLevel::L1) {
    if (entry.writable()) {
      cover(ValidationBranch::L1Writable, ti.type);
      return get_page_type(caller, target, PageType::Writable);
    }
    // Read-only mappings of anything the caller owns (including its own
    // page tables) are legitimate; take a plain existence reference.
    cover(ValidationBranch::L1ReadOnlyRef, ti.type);
    ++frames_.info(target).ref_count;
    return kOk;
  }

  // Intermediate entries link child tables; the child must validate.
  cover(ValidationBranch::IntermediateLink, ti.type);
  const sim::PtLevel child =
      static_cast<sim::PtLevel>(level_index(level) - 1);
  return get_page_type(caller, target, table_type_of(child));
}

long Hypervisor::validate_table(Domain& caller, sim::Mfn mfn,
                                sim::PtLevel level) {
  // Mark in-progress to terminate (reject) self-referencing structures that
  // would otherwise recurse: a table reached again during its own
  // validation shows up with a non-None transient type.
  PageInfo& pi = frames_.info(mfn);
  const PageType saved = pi.type;
  pi.type = table_type_of(level);

  std::vector<std::pair<unsigned, sim::Pte>> accepted;
  long rc = kOk;
  for (unsigned i = 0; i < sim::kPtEntries && rc == kOk; ++i) {
    if (level == sim::PtLevel::L4 && !guest_l4_slot(i)) continue;
    const sim::Pte e{mem_->read_slot(mfn, i)};
    if (!e.present()) continue;
    rc = validate_entry_target(caller, level, e);
    if (rc == kOk) accepted.emplace_back(i, e);
  }

  if (rc != kOk) {
    // Roll back references taken for already-accepted entries.
    for (auto it = accepted.rbegin(); it != accepted.rend(); ++it) {
      const sim::Pte e = it->second;
      if (level == sim::PtLevel::L1) {
        if (e.writable()) {
          put_page_type(e.frame());
        } else {
          PageInfo& ti = frames_.info(e.frame());
          if (ti.ref_count > 1) --ti.ref_count;
        }
      } else if (!e.large_page()) {
        put_page_type(e.frame());
      }
    }
    pi.type = saved;
    return rc;
  }

  if (level == sim::PtLevel::L4) install_reserved_slots(mfn);
  pi.type = saved;  // get_page_type() sets the final type on success
  return kOk;
}

// -------------------------------------------------------------- mmu_update

long Hypervisor::validate_and_write_entry(Domain& caller, sim::Mfn table,
                                          unsigned index, sim::Pte entry) {
  const PageInfo& pi = frames_.info(table);
  if (pi.owner != caller.id()) return kEPERM;
  const auto level = level_of_type(pi.type);
  if (!level || !pi.validated) return kEINVAL;  // not a live page table

  const sim::Pte old{mem_->read_slot(table, index)};

  if (*level == sim::PtLevel::L4 && !guest_l4_slot(index)) {
    // Guest writes into the Xen-reserved window of its own L4.
    if (policy_.strict_reserved_slot_check) {
      cover(ValidationBranch::ReservedSlotStrict, pi.type);
      return kEPERM;
    }
    if (index != kLinearPtSlot) {
      cover(ValidationBranch::ReservedSlotNonLinear, pi.type);
      return kEPERM;
    }
    // Pre-4.9 linear-page-table support: a READ-ONLY same-level self map.
    // Only the self map is modelled (DESIGN.md §5): an entry naming any
    // other L4 is refused, because the slot takes no type reference and
    // would keep linking that frame after it is unpinned.
    if (!entry.present()) {
      cover(ValidationBranch::LinearSlotCleared, pi.type);
      mem_->write_slot(table, index, entry.raw());
      return kOk;
    }
    if (!mem_->contains(entry.frame())) {
      cover(ValidationBranch::EntryBadFrame, pi.type);
      return kEINVAL;
    }
    const PageInfo& ti = frames_.info(entry.frame());
    if (entry.frame() != table) {
      cover(ValidationBranch::EntryForeignFrame, ti.type);
      return kEPERM;
    }
    if (entry.writable()) {
      // XSA-182: the fast path skips re-validation when an update keeps the
      // frame and only flips flag bits — letting RW onto a linear mapping.
      const bool fastpath = policy_.xsa182_l4_fastpath_unvalidated &&
                            old.present() && old.frame() == entry.frame();
      if (!fastpath) {
        cover(ValidationBranch::LinearRwRefused, ti.type);
        return kEPERM;  // the fix: writable linear maps refused
      }
      cover(ValidationBranch::Xsa182FastpathTaken, ti.type);
    } else {
      cover(ValidationBranch::LinearRoSelfMap, ti.type);
    }
    mem_->write_slot(table, index, entry.raw());
    return kOk;
  }

  const long rc = validate_entry_target(caller, *level, entry);
  if (rc != kOk) return rc;

  // Release whatever the old entry held.
  if (old.present() && mem_->contains(old.frame())) {
    if (*level == sim::PtLevel::L1) {
      if (old.writable()) {
        put_page_type(old.frame());
      } else {
        PageInfo& ti = frames_.info(old.frame());
        if (ti.ref_count > 1) --ti.ref_count;
      }
    } else if (!old.large_page()) {
      put_page_type(old.frame());
    }
  }
  mem_->write_slot(table, index, entry.raw());
  return kOk;
}

long Hypervisor::hypercall_mmu_update(DomainId caller,
                                      std::span<const MmuUpdate> reqs,
                                      unsigned* done) {
  if (done) *done = 0;
  if (crashed_) return kEINVAL;
  Domain& dom = domain(caller);
  for (const MmuUpdate& req : reqs) {
    long rc = kOk;
    switch (req.command()) {
      case kMmuNormalPtUpdate:
      case kMmuPtUpdatePreserveAd: {
        const sim::Paddr target = req.target();
        if (!mem_->contains(target, 8) || target.raw() % 8 != 0) {
          rc = kEINVAL;
          break;
        }
        const sim::Mfn table = sim::paddr_to_mfn(target);
        const unsigned index =
            static_cast<unsigned>(sim::page_offset(target) / 8);
        rc = validate_and_write_entry(dom, table, index, sim::Pte{req.val});
        break;
      }
      case kMmuMachphysUpdate:
        rc = kOk;  // M2P bookkeeping is implicit in this model
        break;
      default:
        rc = kEINVAL;
    }
    if (rc != kOk) return rc;
    if (done) ++*done;
  }
  return kOk;
}

long Hypervisor::hypercall_update_va_mapping(DomainId caller, sim::Vaddr va,
                                             sim::Pte val) {
  if (crashed_) return kEINVAL;
  Domain& dom = domain(caller);
  auto walk = mmu_.walk(dom.cr3(), va);
  // Locate the L1 slot covering `va`: the walk must reach L1 (a PSE
  // mapping has no L1 to update).
  const std::vector<sim::WalkStep>* steps = nullptr;
  if (walk) {
    steps = &walk.value().steps;
  } else {
    // A not-present fault still visited the slot we want iff it got to L1.
    return kEFAULT;
  }
  const sim::WalkStep& leaf = steps->back();
  if (leaf.level != sim::PtLevel::L1) return kEINVAL;
  return validate_and_write_entry(dom, leaf.table, leaf.index, val);
}

long Hypervisor::hypercall_mmuext_op(DomainId caller, const MmuExtOp& op) {
  if (crashed_) return kEINVAL;
  Domain& dom = domain(caller);
  switch (op.cmd) {
    case MmuExtCmd::PinL1Table:
    case MmuExtCmd::PinL2Table:
    case MmuExtCmd::PinL3Table:
    case MmuExtCmd::PinL4Table: {
      const auto level = static_cast<sim::PtLevel>(
          static_cast<int>(op.cmd) - static_cast<int>(MmuExtCmd::PinL1Table) +
          1);
      const long rc = get_page_type(dom, op.mfn, table_type_of(level));
      if (rc == kOk) dom.add_pinned(op.mfn);
      cover(rc == kOk ? ValidationBranch::PinOk : ValidationBranch::PinRefused,
            mem_->contains(op.mfn) ? frames_.info(op.mfn).type
                                   : PageType::None);
      return rc;
    }
    case MmuExtCmd::UnpinTable: {
      // The loaded baseptr keeps its table in use: real Xen holds a
      // separate type reference for cr3, which this model folds into the
      // pin — so dropping the pin of the live root would cascade-invalidate
      // the whole tree out from under the running domain.
      const PageType t =
          mem_->contains(op.mfn) ? frames_.info(op.mfn).type : PageType::None;
      if (op.mfn == dom.cr3()) {
        cover(ValidationBranch::UnpinRefused, t);
        return kEBUSY;
      }
      if (!dom.remove_pinned(op.mfn)) {
        cover(ValidationBranch::UnpinRefused, t);
        return kEINVAL;
      }
      put_page_type(op.mfn);
      cover(ValidationBranch::UnpinOk, t);
      return kOk;
    }
    case MmuExtCmd::NewBaseptr: {
      if (!mem_->contains(op.mfn)) {
        cover(ValidationBranch::BaseptrRefused);
        return kEINVAL;
      }
      const PageInfo& pi = frames_.info(op.mfn);
      if (pi.owner != caller || pi.type != PageType::L4 || !pi.validated) {
        cover(ValidationBranch::BaseptrRefused, pi.type);
        return kEINVAL;
      }
      dom.set_cr3(op.mfn);
      cover(ValidationBranch::BaseptrOk, pi.type);
      return kOk;
    }
    case MmuExtCmd::TlbFlushLocal:
    case MmuExtCmd::InvlpgLocal:
      return kOk;
  }
  return kEINVAL;
}

// ---------------------------------------------------------- memory_exchange

long Hypervisor::copy_to_guest(Domain& caller, sim::Vaddr va,
                               std::span<const std::uint8_t> bytes,
                               bool checked) {
  cover(checked ? ValidationBranch::ExchangeOutputChecked
                : ValidationBranch::ExchangeOutputUnchecked);
  std::uint64_t done = 0;
  while (done < bytes.size()) {
    const sim::Vaddr cur = va + done;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(bytes.size() - done,
                                sim::kPageSize - sim::page_offset(cur));
    if (checked) {
      // The XSA-212 *fix*: the destination must be a guest-writable
      // address — both range-checked and translated with user rights.
      if (guest_range_blocked(cur) || in_xen_reserved_slots(cur)) {
        return kEFAULT;
      }
      auto walk = mmu_.translate(caller.cr3(), cur, sim::AccessType::Write,
                                 sim::AccessMode::User);
      if (!walk) return kEFAULT;
      mem_->write(walk.value().physical, bytes.subspan(done, chunk));
    } else {
      // XSA-212: no access_ok() — the hypervisor writes with supervisor
      // rights through the current (caller's) page tables, which include
      // every Xen mapping, at an arbitrary linear address.
      auto walk = mmu_.translate(caller.cr3(), cur, sim::AccessType::Write,
                                 sim::AccessMode::Supervisor);
      if (!walk) return kEFAULT;
      mem_->write(walk.value().physical, bytes.subspan(done, chunk));
    }
    done += chunk;
  }
  return kOk;
}

long Hypervisor::hypercall_memory_exchange(DomainId caller,
                                           MemoryExchange& exch) {
  if (crashed_) return kEINVAL;
  Domain& dom = domain(caller);
  for (const sim::Pfn pfn : exch.in_extents) {
    const auto old = dom.p2m(pfn);
    if (!old) return kEINVAL;
    PageInfo& pi = frames_.info(*old);
    if (pi.owner != caller) return kEPERM;
    if (pi.type != PageType::None || pi.type_count != 0 || pi.ref_count != 1) {
      cover(ValidationBranch::ExchangeBusy, pi.type);
      return kEBUSY;  // page still mapped or typed; unmap it first
    }

    // Allocate the replacement before releasing the old frame, like the
    // real hypercall (steal_page + alloc_domheap_pages ordering).
    const auto fresh = frames_.alloc(caller);
    if (!fresh) return kENOMEM;
    frames_.free(*old);
    mem_->zero_frame(*fresh);
    dom.set_p2m(pfn, *fresh);

    const std::uint64_t result = fresh->raw();
    const sim::Vaddr out{exch.out_extent_start.raw() +
                         8 * exch.nr_exchanged};
    const bool checked = !policy_.xsa212_unchecked_exchange_output;
    const long rc = copy_to_guest(
        dom, out,
        {reinterpret_cast<const std::uint8_t*>(&result), sizeof result},
        checked);
    if (rc != kOk) return rc;
    ++exch.nr_exchanged;
  }
  return kOk;
}

// ----------------------------------------------------------------- ballooning

long Hypervisor::hypercall_decrease_reservation(DomainId caller,
                                                sim::Pfn pfn) {
  if (crashed_) return kEINVAL;
  Domain& dom = domain(caller);
  const auto mfn = dom.p2m(pfn);
  if (!mfn) return kEINVAL;
  PageInfo& pi = frames_.info(*mfn);
  if (pi.owner != caller) return kEPERM;
  if (pi.type != PageType::None || pi.type_count != 0 || pi.ref_count != 1) {
    return kEBUSY;  // still mapped or typed; unmap it first
  }
  // NOTE: the frame is returned to the heap *unscrubbed* — scrubbing policy
  // applies on domain destruction, and reuse is what the recycled-frame
  // confidentiality model exercises.
  frames_.free(*mfn);
  dom.set_p2m(pfn, std::nullopt);
  return kOk;
}

long Hypervisor::hypercall_populate_physmap(DomainId caller, sim::Pfn pfn) {
  if (crashed_) return kEINVAL;
  Domain& dom = domain(caller);
  if (pfn.raw() >= dom.nr_pages()) return kEINVAL;
  if (dom.p2m(pfn)) return kEINVAL;  // slot already populated
  const auto fresh = frames_.alloc_prefer_recycled(caller);
  if (!fresh) return kENOMEM;
  dom.set_p2m(pfn, *fresh);
  return kOk;
}

// --------------------------------------------------------- arbitrary_access

long Hypervisor::hypercall_arbitrary_access(DomainId caller,
                                            const ArbitraryAccess& req) {
  if (crashed_) return kEINVAL;
  if (!config_.injector_enabled) {
    cover(ValidationBranch::InjectorRefused);
    return kENOSYS;
  }
  Domain& dom = domain(caller);
  if (trace_) {
    trace_->emit(obs::TraceCategory::Injection, caller,
                 static_cast<std::uint32_t>(req.action),
                 static_cast<std::int64_t>(req.buffer.size()), req.addr);
  }

  if (is_linear(req.action)) {
    // Linear addresses are already mapped in the hypervisor and are used
    // directly (paper §V-B): supervisor rights on the current page tables,
    // which contain both the guest's and every Xen mapping.
    std::uint64_t done = 0;
    PageType first_type = PageType::None;
    while (done < req.buffer.size()) {
      const sim::Vaddr cur{req.addr + done};
      const std::uint64_t chunk =
          std::min<std::uint64_t>(req.buffer.size() - done,
                                  sim::kPageSize - sim::page_offset(cur));
      auto walk = mmu_.translate(dom.cr3(), cur,
                                 is_write(req.action) ? sim::AccessType::Write
                                                      : sim::AccessType::Read,
                                 sim::AccessMode::Supervisor);
      if (!walk) {
        cover(ValidationBranch::InjectorRefused);
        return kEFAULT;
      }
      if (done == 0) {
        first_type =
            frames_.info(sim::paddr_to_mfn(walk.value().physical)).type;
      }
      if (is_write(req.action)) {
        mem_->write(walk.value().physical, req.buffer.subspan(done, chunk));
      } else {
        mem_->read(walk.value().physical, req.buffer.subspan(done, chunk));
      }
      done += chunk;
    }
    cover(ValidationBranch::InjectorServed, first_type);
    return kOk;
  }

  // Physical addresses are mapped into the hypervisor address space first
  // (our directmap stands in for map_domain_page()).
  const sim::Paddr pa{req.addr};
  if (!mem_->contains(pa, req.buffer.size())) {
    cover(ValidationBranch::InjectorRefused);
    return kEFAULT;
  }
  cover(ValidationBranch::InjectorServed,
        frames_.info(sim::paddr_to_mfn(pa)).type);
  if (is_write(req.action)) {
    mem_->write(pa, req.buffer);
  } else {
    mem_->read(pa, req.buffer);
  }
  return kOk;
}

}  // namespace ii::hv
