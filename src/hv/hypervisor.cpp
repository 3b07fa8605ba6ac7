#include "hv/hypervisor.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "hv/audit.hpp"

namespace ii::hv {

namespace {

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

constexpr std::uint64_t kGuestSlotFlags =
    sim::Pte::kPresent | sim::Pte::kWritable | sim::Pte::kUser;

}  // namespace

Hypervisor::Hypervisor(sim::PhysicalMemory& mem, VersionPolicy policy,
                       HvConfig config)
    : mem_{&mem},
      policy_{policy},
      config_{config},
      mmu_{mem},
      frames_{mem.frame_count()},
      default_handlers_(sim::kIdtVectors, 0) {
  if (config_.xen_frames < 4 ||
      config_.xen_frames * sim::kPageSize > mem.byte_size() / 2) {
    throw std::invalid_argument{"HvConfig::xen_frames out of range"};
  }
  // Reserve the hypervisor image frames (frame 0 = XenInfoPage, frame 1 =
  // IDT, the rest model text/data).
  auto reserved = frames_.alloc_contiguous(kDomXen, config_.xen_frames);
  if (!reserved || reserved->raw() != 0) {
    throw std::logic_error{"hypervisor image must start at frame 0"};
  }
  for (std::uint64_t i = 0; i < config_.xen_frames; ++i) {
    frames_.info(sim::Mfn{i}).type = PageType::XenHeap;
  }
  xen_text_bytes_ = config_.xen_frames * sim::kPageSize;
  idt_base_ = sim::mfn_to_paddr(sim::Mfn{1});

  build_xen_address_space();
  install_default_idt();

  // Publish the layout-knowledge block guests could derive from the binary.
  XenInfoPage info{};
  info.version_major = static_cast<std::uint32_t>(policy_.version.major);
  info.version_minor = static_cast<std::uint32_t>(policy_.version.minor);
  info.xen_l3_paddr = sim::mfn_to_paddr(xen_l3_).raw();
  info.idt_paddr = idt_base_.raw();
  mem_->write(sim::Paddr{0},
              {reinterpret_cast<const std::uint8_t*>(&info), sizeof info});

  log("(XEN) Xen version " + policy_.version.to_string() + " (simulated)");
  log("(XEN) " + std::to_string(mem_->frame_count()) + " machine frames, " +
      std::to_string(config_.xen_frames) + " reserved for Xen");
  if (config_.injector_enabled) {
    log("(XEN) intrusion-injection hypercall ENABLED (patched build)");
  }
}

// Out of line: the audit memo's type is complete only here.
Hypervisor::~Hypervisor() = default;

sim::Mfn Hypervisor::alloc_xen_table() {
  auto mfn = frames_.alloc(kDomXen);
  if (!mfn) throw std::runtime_error{"out of memory for Xen page tables"};
  frames_.info(*mfn).type = PageType::XenHeap;
  mem_->zero_frame(*mfn);
  return *mfn;
}

void Hypervisor::build_xen_address_space() {
  xen_l4_ = alloc_xen_table();
  xen_l3_ = alloc_xen_table();
  directmap_l3_ = alloc_xen_table();

  // --- Xen text/data, guest-readable, at kXenTextBase (L3 slot 0). --------
  const sim::Mfn text_l2 = alloc_xen_table();
  const sim::Mfn text_l1 = alloc_xen_table();
  for (std::uint64_t i = 0; i < config_.xen_frames && i < sim::kPtEntries;
       ++i) {
    mem_->write_slot(text_l1, static_cast<unsigned>(i),
                     sim::Pte::make(sim::Mfn{i},
                                    sim::Pte::kPresent | sim::Pte::kUser)
                         .raw());
  }
  mem_->write_slot(text_l2, 0,
                   sim::Pte::make(text_l1, kGuestSlotFlags).raw());
  mem_->write_slot(xen_l3_, 0, sim::Pte::make(text_l2, kGuestSlotFlags).raw());

  // Note on the pre-4.9 "linear page table" window (L3 slots 256..511 of
  // the shared Xen L3): it is *reachable* by guest walks but deliberately
  // left empty — a stock system maps nothing there. The XSA-212-priv attack
  // consists precisely of linking an attacker PMD into one of these slots;
  // removal of the window in 4.9+ is modelled by the strict reserved-slot
  // access check, not by page-table contents.

  // --- Hypervisor-private directmap at kDirectmapBase (all versions). -----
  {
    const std::uint64_t bytes = mem_->byte_size();
    const std::uint64_t two_mb = sim::kPageSize * sim::kPtEntries;
    const std::uint64_t n_l2_slots = (bytes + two_mb - 1) / two_mb;
    const std::uint64_t n_l2_tables =
        (n_l2_slots + sim::kPtEntries - 1) / sim::kPtEntries;
    constexpr std::uint64_t kSupFlags = sim::Pte::kPresent | sim::Pte::kWritable;
    for (std::uint64_t t = 0; t < n_l2_tables; ++t) {
      const sim::Mfn l2 = alloc_xen_table();
      for (std::uint64_t s = 0; s < sim::kPtEntries; ++s) {
        const std::uint64_t slot_index = t * sim::kPtEntries + s;
        if (slot_index >= n_l2_slots) break;
        const sim::Mfn base{slot_index * sim::kPtEntries};
        mem_->write_slot(
            l2, static_cast<unsigned>(s),
            sim::Pte::make(base, kSupFlags | sim::Pte::kPageSize).raw());
      }
      mem_->write_slot(directmap_l3_, static_cast<unsigned>(t),
                       sim::Pte::make(l2, kSupFlags).raw());
    }
  }

  install_reserved_slots(xen_l4_);
}

void Hypervisor::install_reserved_slots(sim::Mfn l4) {
  const unsigned xen_slot =
      sim::level_index_of(sim::Vaddr{kXenAreaBase}, sim::PtLevel::L4);
  const unsigned dm_slot =
      sim::level_index_of(sim::Vaddr{kDirectmapBase}, sim::PtLevel::L4);
  for (unsigned s = kXenFirstReservedSlot; s <= kXenLastReservedSlot; ++s) {
    if (s != xen_slot && s != dm_slot) mem_->write_slot(l4, s, 0);
  }
  mem_->write_slot(l4, xen_slot,
                   sim::Pte::make(xen_l3_, kGuestSlotFlags).raw());
  mem_->write_slot(
      l4, dm_slot,
      sim::Pte::make(directmap_l3_,
                     sim::Pte::kPresent | sim::Pte::kWritable)
          .raw());
}

void Hypervisor::install_default_idt() {
  sim::Idt table = idt();
  for (unsigned v = 0; v < sim::kIdtVectors; ++v) {
    // Handlers conceptually live in Xen text; the dispatcher recognizes
    // them by address equality, so no bytes are needed behind them.
    const std::uint64_t handler = kXenTextBase + 0x2000 + v * 16;
    default_handlers_[v] = handler;
    table.write(v, sim::IdtGate::interrupt_gate(handler));
  }
}

std::uint64_t Hypervisor::default_handler(unsigned vector) const {
  return default_handlers_.at(vector);
}

sim::Vaddr Hypervisor::sidt() const { return directmap_vaddr(idt_base_); }

void Hypervisor::log(const std::string& line) { console_.push_back(line); }

void Hypervisor::panic(const std::string& reason) {
  if (crashed_) return;
  crashed_ = true;
  if (trace_) trace_->emit(obs::TraceCategory::Panic, obs::kNoDomain);
  log("(XEN) ****************************************");
  log("(XEN) Panic on CPU 0:");
  log("(XEN) " + reason);
  log("(XEN) ****************************************");
  log("(XEN) Reboot in five seconds...");
}

// --------------------------------------------------------------- domains

DomainId Hypervisor::create_domain(const std::string& name, bool privileged,
                                   std::uint64_t nr_pages) {
  if (crashed_) throw std::logic_error{"hypervisor crashed"};
  if (domains_.empty() && !privileged) {
    throw std::logic_error{"first domain must be the privileged dom0"};
  }
  if (nr_pages < 8) throw std::invalid_argument{"domain too small"};

  const DomainId id = next_domid_++;
  auto dom = std::make_unique<Domain>(id, name, privileged);
  dom->resize_p2m(nr_pages);

  auto first = frames_.alloc_contiguous(id, nr_pages);
  if (!first) throw std::runtime_error{"out of memory for domain"};
  for (std::uint64_t p = 0; p < nr_pages; ++p) {
    const sim::Mfn mfn{first->raw() + p};
    mem_->zero_frame(mfn);
    dom->set_p2m(sim::Pfn{p}, mfn);
  }

  const sim::Mfn l4 = build_guest_tables(*dom, *first, nr_pages);
  dom->set_cr3(l4);
  dom->add_pinned(l4);
  dom->set_start_info_mfn(*first);  // pfn 0 holds start_info

  log("(XEN) d" + std::to_string(id) + " (" + name + "): " +
      std::to_string(nr_pages) + " pages at mfn 0x" + hex(first->raw()) +
      (privileged ? " [privileged]" : ""));

  Domain& ref = *dom;
  domains_.emplace(id, std::move(dom));

  // Validate + pin through the regular engine so types/refcounts are the
  // same as if the guest had pinned the tables itself.
  const long rc = get_page_type(ref, l4, PageType::L4);
  if (rc != kOk) throw std::logic_error{"initial page tables failed validation"};
  return id;
}

sim::Mfn Hypervisor::build_guest_tables(Domain& dom, sim::Mfn first_frame,
                                        std::uint64_t nr_pages) {
  // Page-table frames are taken from the TOP of the domain's own
  // machine-contiguous allocation, exactly like a PV domain builder: the
  // guest's tables are guest pages (which is what makes the XSA-148
  // superpage window able to reach them).
  const std::uint64_t l1_count = (nr_pages + sim::kPtEntries - 1) / sim::kPtEntries;
  const std::uint64_t l2_count = (l1_count + sim::kPtEntries - 1) / sim::kPtEntries;
  if (l2_count > 1) throw std::invalid_argument{"domain too large for builder"};
  const std::uint64_t table_frames = l1_count + /*l2*/ 1 + /*l3*/ 1 + /*l4*/ 1;
  if (table_frames + 4 > nr_pages) throw std::invalid_argument{"domain too small"};

  const std::uint64_t first_table_pfn = nr_pages - table_frames;
  auto table_mfn = [&](std::uint64_t k) {  // k-th table frame
    return sim::Mfn{first_frame.raw() + first_table_pfn + k};
  };
  const sim::Mfn l4 = table_mfn(table_frames - 1);
  const sim::Mfn l3 = table_mfn(table_frames - 2);
  const sim::Mfn l2 = table_mfn(table_frames - 3);
  auto l1_mfn = [&](std::uint64_t i) { return table_mfn(i); };  // i < l1_count

  auto is_table_pfn = [&](std::uint64_t pfn) {
    return pfn >= first_table_pfn;
  };

  // Leaf mappings: guest pseudo-physical page p appears at
  // kGuestKernelBase + p*4K; page-table pages are mapped read-only; the
  // grant-status window pfn is left unmapped (GrantOps manages it).
  for (std::uint64_t p = 0; p < nr_pages; ++p) {
    if (p == kGrantStatusPfn.raw()) continue;
    const sim::Mfn target{first_frame.raw() + p};
    std::uint64_t flags = sim::Pte::kPresent | sim::Pte::kUser;
    if (!is_table_pfn(p)) flags |= sim::Pte::kWritable;
    mem_->write_slot(l1_mfn(p / sim::kPtEntries),
                     static_cast<unsigned>(p % sim::kPtEntries),
                     sim::Pte::make(target, flags).raw());
  }
  for (std::uint64_t i = 0; i < l1_count; ++i) {
    mem_->write_slot(l2, static_cast<unsigned>(i),
                     sim::Pte::make(l1_mfn(i), kGuestSlotFlags).raw());
  }
  mem_->write_slot(l3, 0, sim::Pte::make(l2, kGuestSlotFlags).raw());

  const unsigned guest_slot =
      sim::level_index_of(sim::Vaddr{kGuestKernelBase}, sim::PtLevel::L4);
  mem_->write_slot(l4, guest_slot, sim::Pte::make(l3, kGuestSlotFlags).raw());
  install_reserved_slots(l4);

  (void)dom;
  return l4;
}

long Hypervisor::hypercall_domctl_destroy(DomainId caller, DomainId victim) {
  if (crashed_) return kEINVAL;
  const Domain& control = domain(caller);
  if (!control.privileged()) return kEPERM;
  auto it = domains_.find(victim);
  if (it == domains_.end()) return kENOENT;
  if (victim == caller || it->second->privileged()) return kEINVAL;
  Domain& dom = *it->second;

  // Pages shared out through grants must be unmapped by the peers first.
  if (grants_.has_foreign_mappings_of(victim)) return kEBUSY;
  grants_.domain_destroyed(victim);
  events_.domain_destroyed(victim);

  // Release page-table pins; type references cascade down the hierarchy,
  // returning every frame to type None.
  for (const sim::Mfn pinned : dom.pinned_tables()) put_page_type(pinned);

  // Free every remaining frame. Under normal operation all references are
  // gone by now; a frame with residual counts indicates an intrusion-
  // corrupted state, which teardown force-reclaims (and logs).
  std::uint64_t leaked = 0;
  for (const sim::Mfn mfn : frames_.frames_of(victim)) {
    PageInfo& pi = frames_.info(mfn);
    if (pi.type_count != 0 || pi.ref_count != 1 ||
        pi.type != PageType::None) {
      ++leaked;
      pi.type = PageType::None;
      pi.type_count = 0;
      pi.ref_count = 1;
      pi.validated = false;
    }
    if (policy_.scrub_on_destroy) mem_->zero_frame(mfn);
    frames_.free(mfn);
  }
  if (leaked > 0) {
    log("(XEN) d" + std::to_string(victim) + ": reclaimed " +
        std::to_string(leaked) + " frames with dangling references");
  }
  log("(XEN) d" + std::to_string(victim) + " destroyed (" +
      (policy_.scrub_on_destroy ? "pages scrubbed" : "pages NOT scrubbed") +
      ")");
  domains_.erase(it);
  return kOk;
}

Domain& Hypervisor::domain(DomainId id) {
  auto it = domains_.find(id);
  if (it == domains_.end()) throw std::out_of_range{"no such domain"};
  return *it->second;
}

const Domain& Hypervisor::domain(DomainId id) const {
  auto it = domains_.find(id);
  if (it == domains_.end()) throw std::out_of_range{"no such domain"};
  return *it->second;
}

std::vector<DomainId> Hypervisor::domain_ids() const {
  std::vector<DomainId> out;
  out.reserve(domains_.size());
  for (const auto& [id, dom] : domains_) out.push_back(id);
  return out;
}

// ------------------------------------------------------- guest memory access

bool Hypervisor::guest_range_blocked(sim::Vaddr va) const {
  if (!policy_.strict_reserved_slot_check) return false;
  if (!in_xen_reserved_slots(va)) return false;
  // The only reserved-area range 4.9+ still exposes to guests is the
  // read-only Xen text window.
  return !(va.raw() >= kXenTextBase &&
           va.raw() < kXenTextBase + xen_text_bytes_);
}

Expected<sim::Walk, sim::PageFault> Hypervisor::guest_walk(
    DomainId caller, sim::Vaddr va) const {
  return mmu_.walk(domain(caller).cr3(), va);
}

Expected<sim::Walk, sim::PageFault> Hypervisor::hv_translate(
    sim::Vaddr va, sim::AccessType access) const {
  return mmu_.translate(xen_l4_, va, access, sim::AccessMode::Supervisor);
}

namespace {
/// Apply `fn(paddr, chunk)` over a VA range page by page.
template <typename Translate, typename Apply>
Expected<std::monostate, sim::PageFault> for_each_page(
    sim::Vaddr va, std::uint64_t len, Translate&& translate, Apply&& apply) {
  std::uint64_t done = 0;
  while (done < len) {
    const sim::Vaddr cur = va + done;
    const std::uint64_t in_page = sim::kPageSize - sim::page_offset(cur);
    const std::uint64_t chunk = std::min(len - done, in_page);
    auto walk = translate(cur);
    if (!walk) return Unexpected{walk.error()};
    apply(walk.value().physical, done, chunk);
    done += chunk;
  }
  return std::monostate{};
}
}  // namespace

Expected<std::monostate, GuestAccessFault> Hypervisor::guest_read(
    DomainId caller, sim::Vaddr va, std::span<std::uint8_t> out) {
  if (crashed_) {
    return Unexpected{GuestAccessFault{sim::FaultReason::NotPresent,
                                       "machine halted (hypervisor crashed)"}};
  }
  if (guest_range_blocked(va)) {
    dispatch_exception(sim::kPageFaultVector);
    return Unexpected{GuestAccessFault{
        sim::FaultReason::UserProtected,
        "guest access to hardened hypervisor range refused"}};
  }
  const sim::Mfn root = domain(caller).cr3();
  auto res = for_each_page(
      va, out.size(),
      [&](sim::Vaddr v) {
        return mmu_.translate(root, v, sim::AccessType::Read,
                              sim::AccessMode::User);
      },
      [&](sim::Paddr pa, std::uint64_t off, std::uint64_t chunk) {
        mem_->read(pa, out.subspan(off, chunk));
      });
  if (!res) {
    dispatch_exception(sim::kPageFaultVector);
    return Unexpected{GuestAccessFault{res.error().reason,
                                       res.error().describe()}};
  }
  return std::monostate{};
}

Expected<std::monostate, GuestAccessFault> Hypervisor::guest_write(
    DomainId caller, sim::Vaddr va, std::span<const std::uint8_t> in) {
  if (crashed_) {
    return Unexpected{GuestAccessFault{sim::FaultReason::NotPresent,
                                       "machine halted (hypervisor crashed)"}};
  }
  if (guest_range_blocked(va)) {
    dispatch_exception(sim::kPageFaultVector);
    return Unexpected{GuestAccessFault{
        sim::FaultReason::UserProtected,
        "guest access to hardened hypervisor range refused"}};
  }
  const sim::Mfn root = domain(caller).cr3();
  auto res = for_each_page(
      va, in.size(),
      [&](sim::Vaddr v) {
        return mmu_.translate(root, v, sim::AccessType::Write,
                              sim::AccessMode::User);
      },
      [&](sim::Paddr pa, std::uint64_t off, std::uint64_t chunk) {
        mem_->write(pa, in.subspan(off, chunk));
      });
  if (!res) {
    dispatch_exception(sim::kPageFaultVector);
    return Unexpected{GuestAccessFault{res.error().reason,
                                       res.error().describe()}};
  }
  return std::monostate{};
}

// ---------------------------------------------------------------- interrupts

void Hypervisor::dispatch_exception(unsigned vector) {
  if (crashed_) return;
  if (trace_) {
    trace_->emit(obs::TraceCategory::PageFault, obs::kNoDomain, vector);
  }
  const sim::IdtGate gate = idt().read(vector);
  if (!gate.well_formed()) {
    panic("DOUBLE FAULT -- corrupt IDT gate for vector " +
          std::to_string(vector));
    return;
  }
  if (gate.handler == default_handler(vector)) {
    return;  // normal handling: fault forwarded to the guest
  }
  // Hijacked gate: the CPU vectors into whatever the handler address maps.
  auto walk = hv_translate(sim::Vaddr{gate.handler}, sim::AccessType::Execute);
  if (!walk) {
    panic("DOUBLE FAULT -- IDT vector " + std::to_string(vector) +
          " points at unmapped code (" + walk.error().describe() + ")");
    return;
  }
  if (executor_) {
    ExecutionContext ctx{};
    ctx.vector = vector;
    ctx.handler = sim::Vaddr{gate.handler};
    ctx.code_frame = sim::paddr_to_mfn(walk.value().physical);
    ctx.offset = sim::page_offset(walk.value().physical);
    executor_(ctx);
  }
}

long Hypervisor::software_interrupt(DomainId caller, unsigned vector) {
  if (crashed_) return kEINVAL;
  (void)domain(caller);  // must exist
  if (vector >= sim::kIdtVectors) return kEINVAL;
  dispatch_exception(vector);
  return kOk;
}

// ------------------------------------------------------------ small hypercalls

long Hypervisor::hypercall_set_trap_table(DomainId caller,
                                          std::span<const TrapInfo> traps) {
  if (crashed_) return kEINVAL;
  Domain& dom = domain(caller);
  for (const TrapInfo& t : traps) dom.set_trap_handler(t.vector, t.address);
  return kOk;
}

long Hypervisor::hypercall_console_io(DomainId caller,
                                      const std::string& line) {
  if (crashed_) return kEINVAL;
  log("(d" + std::to_string(caller) + ") " + line);
  return kOk;
}

std::optional<sim::Paddr> Hypervisor::guest_l1_slot(const Domain& dom,
                                                    sim::Pfn pfn) const {
  const std::uint64_t nr = dom.nr_pages();
  const std::uint64_t l1_count = (nr + sim::kPtEntries - 1) / sim::kPtEntries;
  const std::uint64_t first_table_pfn = nr - (l1_count + 3);
  const auto l1 =
      dom.p2m(sim::Pfn{first_table_pfn + pfn.raw() / sim::kPtEntries});
  if (!l1) return std::nullopt;
  return sim::mfn_to_paddr(*l1) + (pfn.raw() % sim::kPtEntries) * 8;
}

long Hypervisor::map_grant_status_page(DomainId domain, sim::Mfn status_frame) {
  const Domain& dom = this->domain(domain);
  if (kGrantStatusPfn.raw() >= dom.nr_pages()) return kEINVAL;
  const auto slot = guest_l1_slot(dom, kGrantStatusPfn);
  if (!slot) return kEINVAL;
  // Hypervisor-managed read-only mapping; deliberately outside the guest
  // page-type accounting, like real status-page sharing.
  mem_->write_u64(*slot,
                  sim::Pte::make(status_frame,
                                 sim::Pte::kPresent | sim::Pte::kUser)
                      .raw());
  return kOk;
}

long Hypervisor::unmap_grant_status_page(DomainId domain) {
  const Domain& dom = this->domain(domain);
  if (kGrantStatusPfn.raw() >= dom.nr_pages()) return kEINVAL;
  const auto slot = guest_l1_slot(dom, kGrantStatusPfn);
  if (!slot) return kEINVAL;
  mem_->write_u64(*slot, 0);
  return kOk;
}

void Hypervisor::report_cpu_hang(const std::string& reason) {
  if (cpu_hung_) return;
  cpu_hung_ = true;
  if (trace_) trace_->emit(obs::TraceCategory::CpuHang, obs::kNoDomain);
  log("(XEN) " + reason);
  log("(XEN) Watchdog timer detects that CPU0 is stuck!");
}

long Hypervisor::hypercall_sched_op_shutdown(DomainId caller,
                                             ShutdownReason reason) {
  if (crashed_) return kEINVAL;
  Domain& dom = domain(caller);
  if (reason == ShutdownReason::Crash) {
    dom.mark_crashed();
    log("(XEN) d" + std::to_string(caller) + " crashed (guest-requested)");
  } else {
    log("(XEN) d" + std::to_string(caller) + " shutdown");
  }
  return kOk;
}

}  // namespace ii::hv
