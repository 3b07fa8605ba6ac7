// Auditing (page tables, IDT, reserved slots), exception dispatch
// (double faults, hijacked gates, code execution), and the trace/console
// behaviour of the panic and CPU-hang paths.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hv/audit.hpp"
#include "hv/hypervisor.hpp"
#include "hv/recovery.hpp"
#include "obs/trace.hpp"

namespace ii::hv {
namespace {

constexpr std::uint64_t kPUW =
    sim::Pte::kPresent | sim::Pte::kUser | sim::Pte::kWritable;

struct Fixture {
  explicit Fixture(XenVersion version = kXen48)
      : mem{8192}, hv{mem, VersionPolicy::for_version(version)} {
    dom0 = hv.create_domain("dom0", true, 64);
    guest = hv.create_domain("guest01", false, 64);
  }
  sim::Mfn guest_mfn(std::uint64_t pfn) {
    return *hv.domain(guest).p2m(sim::Pfn{pfn});
  }
  sim::PhysicalMemory mem;
  Hypervisor hv;
  DomainId dom0{}, guest{};
};

// --------------------------------------------------------------- auditing

TEST(Audit, DetectsGuestWritablePageTable) {
  Fixture f;
  // Tamper directly (simulating a successful intrusion): point an L1 slot
  // at the guest's own L1 table, writable.
  const sim::Mfn l1 = f.guest_mfn(60);
  f.mem.write_slot(l1, 5, sim::Pte::make(l1, kPUW).raw());
  const auto report = audit_system(f.hv);
  EXPECT_TRUE(report.has(FindingKind::GuestWritablePageTable));
}

TEST(Audit, DetectsGuestWritableXenFrame) {
  Fixture f;
  f.mem.write_slot(f.guest_mfn(60), 5,
                   sim::Pte::make(sim::Mfn{1}, kPUW).raw());  // the IDT frame
  EXPECT_TRUE(audit_system(f.hv).has(FindingKind::GuestWritableXenFrame));
}

TEST(Audit, DetectsForeignFrameMapping) {
  Fixture f;
  const sim::Mfn foreign = *f.hv.domain(f.dom0).p2m(sim::Pfn{3});
  f.mem.write_slot(f.guest_mfn(60), 5,
                   sim::Pte::make(foreign, sim::Pte::kPresent |
                                               sim::Pte::kUser)
                       .raw());
  const auto report = audit_system(f.hv);
  EXPECT_TRUE(report.has(FindingKind::GuestMapsForeignFrame));
}

TEST(Audit, DetectsCorruptIdtGate) {
  Fixture f;
  f.mem.write_u64(f.hv.idt().gate_address(14), 0x1234);
  const auto report = audit_system(f.hv);
  EXPECT_TRUE(report.has(FindingKind::CorruptIdtGate));
}

TEST(Audit, DetectsForeignXenL3Entry) {
  Fixture f;
  f.mem.write_slot(f.hv.xen_l3(), 300,
                   sim::Pte::make(f.guest_mfn(5), kPUW).raw());
  EXPECT_TRUE(audit_system(f.hv).has(FindingKind::ForeignXenL3Entry));
}

TEST(Audit, DetectsReservedSlotTampering) {
  Fixture f;
  // A WRITABLE linear self map (the XSA-182 erroneous state) is tampering
  // on every version, including the pre-4.9 policies that tolerate the
  // read-only linear-page-table facility in this slot.
  f.mem.write_slot(f.hv.domain(f.guest).cr3(), kLinearPtSlot,
                   sim::Pte::make(f.hv.domain(f.guest).cr3(),
                                  sim::Pte::kPresent | sim::Pte::kWritable |
                                      sim::Pte::kUser)
                       .raw());
  EXPECT_TRUE(audit_system(f.hv).has(FindingKind::ReservedSlotTampered));
}

TEST(Audit, ReadOnlyLinearSelfMapLegalOnlyPre49) {
  // The legitimate pre-4.9 linear-page-table shape: a read-only self map
  // of the domain's own validated L4. validate_and_write_entry accepts it
  // on 4.6/4.8, so the audit must not flag it there — but 4.9+ rejects any
  // guest entry in the reserved slots, so on 4.13 the same PTE is tampering.
  Fixture old{kXen48};
  old.mem.write_slot(old.hv.domain(old.guest).cr3(), kLinearPtSlot,
                     sim::Pte::make(old.hv.domain(old.guest).cr3(),
                                    sim::Pte::kPresent | sim::Pte::kUser)
                         .raw());
  EXPECT_FALSE(audit_system(old.hv).has(FindingKind::ReservedSlotTampered));

  Fixture strict{kXen413};
  strict.mem.write_slot(strict.hv.domain(strict.guest).cr3(), kLinearPtSlot,
                        sim::Pte::make(strict.hv.domain(strict.guest).cr3(),
                                       sim::Pte::kPresent | sim::Pte::kUser)
                            .raw());
  EXPECT_TRUE(audit_system(strict.hv).has(FindingKind::ReservedSlotTampered));
}

TEST(Audit, FindingNamesAreStable) {
  EXPECT_EQ(to_string(FindingKind::GuestWritablePageTable),
            "guest-writable page-table frame");
  EXPECT_EQ(to_string(FindingKind::CorruptIdtGate), "corrupt IDT gate");
}

TEST(Audit, ForEachLeafCoversGuestDirectmap) {
  Fixture f;
  std::uint64_t user_leaves = 0;
  for_each_leaf(f.hv, f.hv.domain(f.guest).cr3(),
                [&](const LeafMapping& m) {
                  if (m.user && m.va.raw() >= kGuestKernelBase &&
                      m.va.raw() < kGuestKernelBase + (1ULL << 30)) {
                    user_leaves += m.bytes / sim::kPageSize;
                  }
                });
  // Every guest page except the unmapped grant-status window.
  EXPECT_EQ(user_leaves, 63u);
}

// ------------------------------------------------- finding text, pinned
//
// The audit builds a finding's text only when it reports the finding; these
// pin every finding of each tampered state, text included, so the reports
// read exactly as they always have.

/// Every finding as "kind | dN | detail", in report order.
std::vector<std::string> rendered(const AuditReport& report) {
  std::vector<std::string> out;
  for (const AuditFinding& f : report.findings) {
    out.push_back(to_string(f.kind) + " | d" + std::to_string(f.domain) +
                  " | " + f.detail);
  }
  return out;
}

std::vector<std::string> rendered(const InvariantReport& report) {
  std::vector<std::string> out;
  for (const InvariantFinding& f : report.findings) {
    out.push_back(to_string(f.invariant) + " | d" +
                  std::to_string(f.domain) + " | " + f.detail);
  }
  return out;
}

using Lines = std::vector<std::string>;

TEST(AuditDetail, GuestWritablePageTable) {
  Fixture f;
  const sim::Mfn l1 = f.guest_mfn(60);
  f.mem.write_slot(l1, 5, sim::Pte::make(l1, kPUW).raw());
  EXPECT_EQ(rendered(audit_system(f.hv)),
            (Lines{"guest-writable page-table frame | d1 | "
                   "va 0xffff880000005000 -> mfn 0x92 (l1_pagetable)"}));
}

TEST(AuditDetail, GuestWritableXenFrame) {
  Fixture f;
  f.mem.write_slot(f.guest_mfn(60), 5,
                   sim::Pte::make(sim::Mfn{1}, kPUW).raw());
  EXPECT_EQ(rendered(audit_system(f.hv)),
            (Lines{"guest-writable hypervisor frame | d1 | "
                   "va 0xffff880000005000 -> mfn 0x1"}));
}

TEST(AuditDetail, GuestMapsForeignFrame) {
  Fixture f;
  const sim::Mfn foreign = *f.hv.domain(f.dom0).p2m(sim::Pfn{3});
  f.mem.write_slot(f.guest_mfn(60), 5,
                   sim::Pte::make(foreign, sim::Pte::kPresent |
                                               sim::Pte::kUser)
                       .raw());
  EXPECT_EQ(rendered(audit_system(f.hv)),
            (Lines{"guest mapping of foreign frame | d1 | "
                   "va 0xffff880000005000 -> mfn 0x19 (owner d0)"}));
}

TEST(AuditDetail, CorruptIdtGate) {
  Fixture f;
  f.mem.write_u64(f.hv.idt().gate_address(14), 0x1234);
  EXPECT_EQ(rendered(audit_system(f.hv)),
            (Lines{"corrupt IDT gate | d32767 | "
                   "vector 14 handler 0xffff800000001234"}));
}

TEST(AuditDetail, ForeignXenL3Entry) {
  Fixture f;
  f.mem.write_slot(f.hv.xen_l3(), 300,
                   sim::Pte::make(f.guest_mfn(5), kPUW).raw());
  EXPECT_EQ(rendered(audit_system(f.hv)),
            (Lines{"foreign entry linked into shared Xen L3 | d32767 | "
                   "xen_l3 slot 300 = 0x5b007"}));
}

TEST(AuditDetail, ReservedSlotTampered) {
  Fixture f;
  f.mem.write_slot(f.hv.domain(f.guest).cr3(), kLinearPtSlot,
                   sim::Pte::make(f.hv.domain(f.guest).cr3(),
                                  sim::Pte::kPresent | sim::Pte::kWritable |
                                      sim::Pte::kUser)
                       .raw());
  // The writable self map exposes the whole table tree and the Xen frames
  // it links, through the linear window, before the slot itself.
  EXPECT_EQ(
      rendered(audit_system(f.hv)),
      (Lines{"guest-writable hypervisor frame | d1 | "
             "va 0xffff814000000000 -> mfn 0x14",
             "guest-writable hypervisor frame | d1 | "
             "va 0xffff8140a0000000 -> mfn 0x13",
             "guest-writable hypervisor frame | d1 | "
             "va 0xffff8140a0500000 -> mfn 0x11",
             "guest-writable page-table frame | d1 | "
             "va 0xffff8140a0502000 -> mfn 0x95 (l4_pagetable)",
             "guest-writable page-table frame | d1 | "
             "va 0xffff8140a0510000 -> mfn 0x94 (l3_pagetable)",
             "guest-writable page-table frame | d1 | "
             "va 0xffff8140a2000000 -> mfn 0x93 (l2_pagetable)",
             "guest-writable page-table frame | d1 | "
             "va 0xffff814400000000 -> mfn 0x92 (l1_pagetable)",
             "tampered reserved L4 slot | d1 | l4 slot 258 = 0x95007"}));
}

TEST(AuditDetail, StaleGrantMapping) {
  // The XSA-387 downgrade leak: 4.8 keeps the v2 status frame mapped.
  Fixture f{kXen48};
  ASSERT_EQ(f.hv.grants().set_version(f.guest, 2), kOk);
  ASSERT_EQ(f.hv.grants().set_version(f.guest, 1), kOk);
  EXPECT_EQ(rendered(audit_system(f.hv)),
            (Lines{"stale grant-status mapping after version downgrade | "
                   "d1 | va 0xffff880000003000 -> mfn 0x96"}));
}

TEST(AuditDetail, P2mConsistency) {
  Fixture f;
  Domain& guest = f.hv.domain(f.guest);
  guest.set_p2m(sim::Pfn{7}, sim::Mfn{f.mem.frame_count() + 9});
  guest.set_p2m(sim::Pfn{8}, *f.hv.domain(f.dom0).p2m(sim::Pfn{3}));
  EXPECT_EQ(rendered(InvariantAuditor{f.hv}.audit()),
            (Lines{"p2m-consistency | d1 | pfn 0x7 -> out-of-range mfn 0x2009",
                   "p2m-consistency | d1 | pfn 0x8 -> mfn 0x19 owned by d0"}));
}

TEST(AuditDetail, RefcountConsistency) {
  Fixture f;
  PageInfo& typeless = f.hv.frames().info(f.guest_mfn(20));
  typeless.type = PageType::None;
  typeless.type_count = 2;
  PageInfo& unvalidated = f.hv.frames().info(f.guest_mfn(21));
  unvalidated.type = PageType::L2;
  unvalidated.validated = false;
  f.hv.frames().info(f.guest_mfn(22)).ref_count = 0;
  f.hv.frames().info(f.hv.domain(f.guest).cr3()).validated = false;
  // The unvalidated L2 is still mapped writable by the guest's directmap.
  EXPECT_EQ(
      rendered(InvariantAuditor{f.hv}.audit()),
      (Lines{"frame-type-safety | d1 | "
             "va 0xffff880000015000 -> mfn 0x6b (l2_pagetable)",
             "refcount-consistency | d1 | mfn 0x6a typeless with type_count 2",
             "refcount-consistency | d1 | "
             "mfn 0x6b typed l2_pagetable but never validated",
             "refcount-consistency | d1 | "
             "allocated mfn 0x6c with zero existence refs",
             "refcount-consistency | d1 | "
             "mfn 0x95 typed l4_pagetable but never validated",
             "refcount-consistency | d1 | "
             "cr3 mfn 0x95 is not a validated L4 (l4_pagetable)"}));
}

TEST(AuditDetail, Liveness) {
  Fixture f;
  f.hv.report_cpu_hang("CPU0: wedged");
  f.hv.panic("halt");
  EXPECT_EQ(rendered(InvariantAuditor{f.hv}.audit()),
            (Lines{"liveness | d32767 | hypervisor panicked",
                   "liveness | d32767 | CPU0 wedged"}));
}

// The split the fuzzer's "detected by audit" outcome rests on: a finding
// on a crashed domain stays in the structural report, but no invariant
// quantifies over a domain that never runs again.
TEST(AuditDetail, CrashedDomainFindingIsStructuralOnly) {
  Fixture f;
  const sim::Mfn l1 = f.guest_mfn(60);
  f.mem.write_slot(l1, 5, sim::Pte::make(l1, kPUW).raw());
  f.hv.domain(f.guest).mark_crashed();

  const AuditReport structural = audit_system(f.hv);
  ASSERT_EQ(structural.findings.size(), 1u);
  EXPECT_EQ(structural.findings.front().domain, f.guest);
  EXPECT_TRUE(InvariantAuditor{f.hv}.audit(structural).clean());
  EXPECT_TRUE(InvariantAuditor{f.hv}.audit().clean());
}

// -------------------------------------------------------------- exceptions

TEST(Exceptions, DefaultGateHandlesQuietly) {
  Fixture f;
  EXPECT_EQ(f.hv.software_interrupt(f.guest, 14), kOk);
  EXPECT_FALSE(f.hv.crashed());
}

TEST(Exceptions, MalformedGateDoubleFaults) {
  Fixture f;
  f.mem.write_u64(f.hv.idt().gate_address(14), 0x1234);
  EXPECT_EQ(f.hv.software_interrupt(f.guest, 14), kOk);
  EXPECT_TRUE(f.hv.crashed());
  bool double_fault = false;
  for (const auto& line : f.hv.console()) {
    if (line.find("DOUBLE FAULT") != std::string::npos) double_fault = true;
  }
  EXPECT_TRUE(double_fault);
}

TEST(Exceptions, GuestFaultThroughCorruptGateCrashesHost) {
  // The XSA-212-crash mechanism in isolation: corrupt gate + guest fault.
  Fixture f;
  f.mem.write_u64(f.hv.idt().gate_address(14), 0);
  std::array<std::uint8_t, 1> byte{};
  EXPECT_FALSE(
      f.hv.guest_read(f.guest, sim::Vaddr{0xDEAD000000ULL}, byte)
          .has_value());
  EXPECT_TRUE(f.hv.crashed());
}

TEST(Exceptions, HijackedGateToUnmappedCodeDoubleFaults) {
  Fixture f;
  f.hv.idt().write(0x80, sim::IdtGate::interrupt_gate(0xDEAD00000000ULL));
  EXPECT_EQ(f.hv.software_interrupt(f.guest, 0x80), kOk);
  EXPECT_TRUE(f.hv.crashed());
}

TEST(Exceptions, HijackedGateToMappedCodeRunsExecutor) {
  Fixture f;
  // Map attacker "code" into the shared Xen L3 and register a gate on it.
  const sim::Mfn pmd = f.guest_mfn(10);
  const sim::Mfn l1t = f.guest_mfn(11);
  const sim::Mfn code = f.guest_mfn(12);
  f.mem.write_slot(l1t, 0, sim::Pte::make(code, kPUW).raw());
  f.mem.write_slot(pmd, 0, sim::Pte::make(l1t, kPUW).raw());
  f.mem.write_slot(f.hv.xen_l3(), 300, sim::Pte::make(pmd, kPUW).raw());
  const sim::Vaddr handler = sim::compose_vaddr(256, 300, 0, 0, 0x40);

  ExecutionContext seen{};
  bool executed = false;
  f.hv.set_code_executor([&](const ExecutionContext& ctx) {
    seen = ctx;
    executed = true;
  });
  f.hv.idt().write(0x80, sim::IdtGate::interrupt_gate(handler.raw()));
  EXPECT_EQ(f.hv.software_interrupt(f.guest, 0x80), kOk);
  ASSERT_TRUE(executed);
  EXPECT_FALSE(f.hv.crashed());
  EXPECT_EQ(seen.vector, 0x80u);
  EXPECT_EQ(seen.code_frame, code);
  EXPECT_EQ(seen.offset, 0x40u);
}

TEST(Exceptions, InvalidVectorRejected) {
  Fixture f;
  EXPECT_EQ(f.hv.software_interrupt(f.guest, 256), kEINVAL);
}

TEST(Exceptions, HypercallsRefusedAfterCrash) {
  Fixture f;
  f.hv.panic("halt");
  const MmuUpdate req{0, 0};
  EXPECT_EQ(f.hv.hypercall_mmu_update(f.guest, {&req, 1}), kEINVAL);
  MemoryExchange exch{};
  EXPECT_EQ(f.hv.hypercall_memory_exchange(f.guest, exch), kEINVAL);
  EXPECT_EQ(f.hv.hypercall_console_io(f.guest, "x"), kEINVAL);
  EXPECT_EQ(f.hv.software_interrupt(f.guest, 14), kEINVAL);
  std::array<std::uint8_t, 1> byte{};
  EXPECT_FALSE(f.hv.guest_read(f.guest, sim::Vaddr{kGuestKernelBase}, byte)
                   .has_value());
}

// ------------------------------------------------ panic / hang observability

TEST(TraceObservability, PanicEmitsEventAndKeepsConsoleBanner) {
  Fixture f;
  obs::TraceSink sink;
  f.hv.set_trace_sink(&sink);
  f.hv.panic("FATAL PAGE FAULT");
  EXPECT_EQ(sink.count(obs::TraceCategory::Panic), 1u);

  bool banner = false;
  bool reason = false;
  for (const auto& line : f.hv.console()) {
    if (line.find("Panic on CPU 0:") != std::string::npos) banner = true;
    if (line.find("FATAL PAGE FAULT") != std::string::npos) reason = true;
  }
  EXPECT_TRUE(banner);
  EXPECT_TRUE(reason);

  // Repeated panics stay idempotent, on the trace side too.
  f.hv.panic("again");
  EXPECT_EQ(sink.count(obs::TraceCategory::Panic), 1u);
}

TEST(TraceObservability, CpuHangPathEmitsEventAndConsoleLines) {
  // Drive the real livelock: 4.8 re-queues events raised on handler-less
  // ports, so one pending bit wedges the delivery loop.
  Fixture f{kXen48};
  obs::TraceSink sink;
  f.hv.set_trace_sink(&sink);

  unsigned gport = 0;
  unsigned dport = 0;
  ASSERT_EQ(f.hv.events().alloc_unbound(f.guest, f.dom0, &gport), kOk);
  ASSERT_EQ(f.hv.events().bind_interdomain(f.dom0, f.guest, gport, &dport),
            kOk);
  ASSERT_EQ(f.hv.events().send(f.dom0, dport), kOk);

  const auto result = f.hv.events().dispatch(f.guest);
  EXPECT_TRUE(result.livelocked);
  EXPECT_TRUE(f.hv.cpu_hung());
  EXPECT_EQ(sink.count(obs::TraceCategory::CpuHang), 1u);

  bool stuck = false;
  bool watchdog = false;
  for (const auto& line : f.hv.console()) {
    if (line.find("stuck in event delivery loop") != std::string::npos) {
      stuck = true;
    }
    if (line.find("Watchdog timer detects that CPU0 is stuck!") !=
        std::string::npos) {
      watchdog = true;
    }
  }
  EXPECT_TRUE(stuck);
  EXPECT_TRUE(watchdog);
}

TEST(TraceObservability, HangWithoutSinkStillLogs) {
  Fixture f;
  f.hv.report_cpu_hang("CPU0: wedged");
  EXPECT_TRUE(f.hv.cpu_hung());
  bool watchdog = false;
  for (const auto& line : f.hv.console()) {
    if (line.find("Watchdog timer") != std::string::npos) watchdog = true;
  }
  EXPECT_TRUE(watchdog);
}

// ------------------------------------------- 4.13 hardened access checks

TEST(HardenedAccess, GuestBlockedFromLinearWindowOn413) {
  Fixture f{kXen413};
  // Even with a valid-looking entry linked into the Xen L3, the guest
  // cannot reach the linear-page-table window.
  const sim::Mfn pmd = f.guest_mfn(10);
  f.mem.write_slot(f.hv.xen_l3(), 300, sim::Pte::make(pmd, kPUW).raw());
  std::array<std::uint8_t, 1> byte{};
  const auto res = f.hv.guest_read(
      f.guest, sim::compose_vaddr(256, 300, 0, 0), byte);
  ASSERT_FALSE(res.has_value());
  EXPECT_EQ(res.error().reason, sim::FaultReason::UserProtected);
}

TEST(HardenedAccess, SameAccessWorksPre49OnceMapped) {
  Fixture f{kXen46};
  const sim::Mfn pmd = f.guest_mfn(10);
  const sim::Mfn l1t = f.guest_mfn(11);
  const sim::Mfn data = f.guest_mfn(12);
  f.mem.write_slot(l1t, 0, sim::Pte::make(data, kPUW).raw());
  f.mem.write_slot(pmd, 0, sim::Pte::make(l1t, kPUW).raw());
  f.mem.write_slot(f.hv.xen_l3(), 300, sim::Pte::make(pmd, kPUW).raw());
  std::array<std::uint8_t, 1> byte{0x7E};
  ASSERT_TRUE(f.hv.guest_write(f.guest, sim::compose_vaddr(256, 300, 0, 0),
                               byte)
                  .has_value());
  EXPECT_EQ(f.mem.frame_bytes(data)[0], 0x7E);
}

}  // namespace
}  // namespace ii::hv
