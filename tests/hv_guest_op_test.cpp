// The shared guest-op vocabulary (hv/guest_op.hpp): the refusal of pins
// that are not pins, the executor's injector write, a checker trace
// against the linear slot, and cross-driver replay — every model-checker
// counterexample, sent through the op record the fuzzer's trace files
// use, reaches the checker's violating state.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "analysis/model_checker.hpp"
#include "core/injector.hpp"
#include "guest/platform.hpp"
#include "hv/errors.hpp"
#include "hv/guest_op.hpp"
#include "hv/hypervisor.hpp"
#include "hv/layout.hpp"
#include "hv/recovery.hpp"
#include "sim/phys_mem.hpp"

namespace ii::hv {
namespace {

/// A freshly booted machine of the checker's shape for `config`.
struct CheckerMachine {
  explicit CheckerMachine(const analysis::ModelCheckConfig& config)
      : mem{config.machine_frames},
        vmm{mem, VersionPolicy::for_version(config.version)} {
    (void)vmm.create_domain("dom0", /*privileged=*/true, config.dom0_pages);
    for (unsigned i = 0; i < config.guest_domains; ++i) {
      guests.push_back(vmm.create_domain("guest" + std::to_string(i + 1),
                                         /*privileged=*/false,
                                         config.domain_pages));
    }
  }
  sim::PhysicalMemory mem;
  Hypervisor vmm;
  std::vector<DomainId> guests;
};

/// Counts validation branches the engine reports.
class BranchCounter final : public CoverageHook {
 public:
  unsigned branches = 0;
  void on_branch(ValidationBranch, PageType) override { ++branches; }
};

/// Remembers the last validation branch the engine reports.
class LastBranch final : public CoverageHook {
 public:
  std::optional<ValidationBranch> branch;
  void on_branch(ValidationBranch b, PageType) override { branch = b; }
};

GuestOp pin(std::uint64_t mfn, std::uint8_t level) {
  GuestOp op;
  op.kind = GuestOp::Kind::Pin;
  op.mfn = mfn;
  op.level = level;
  return op;
}

GuestOp unpin(std::uint64_t mfn) {
  GuestOp op;
  op.kind = GuestOp::Kind::Unpin;
  op.mfn = mfn;
  return op;
}

GuestOp mmu_update(std::uint64_t table, unsigned slot, std::uint64_t pte) {
  GuestOp op;
  op.kind = GuestOp::Kind::MmuUpdate;
  op.addr = sim::mfn_to_paddr(sim::Mfn{table}).raw() + 8ULL * slot;
  op.value = pte;
  return op;
}

TEST(GuestOp, PinLevelsOutsideOneToFourAreRejected) {
  // PinL1Table + level - 1 names UnpinTable at level 5 and NewBaseptr at
  // level 6. The op record refuses such a pin, and so does the executor,
  // before it reaches the validation engine: a "pin" of the guest's own L4
  // leaves the state and the coverage alone.
  const analysis::ModelCheckConfig config;
  CheckerMachine m{config};
  const DomainId guest = m.guests.front();
  const std::uint64_t l4 = m.vmm.domain(guest).cr3().raw();
  BranchCounter counter;
  m.vmm.set_coverage_hook(&counter);
  const std::uint64_t before = m.vmm.state_hash();
  for (const std::uint8_t level : {0, 5, 6}) {
    std::vector<std::uint8_t> bytes;
    encode_op(bytes, pin(l4, level));
    ByteReader in{bytes};
    EXPECT_FALSE(decode_op(in).has_value()) << int{level};
    EXPECT_EQ(apply_guest_op(m.vmm, guest, pin(l4, level)), kEINVAL)
        << int{level};
    EXPECT_EQ(m.vmm.state_hash(), before) << int{level};
  }
  EXPECT_EQ(counter.branches, 0u);
  m.vmm.set_coverage_hook(nullptr);

  for (std::uint8_t level = 1; level <= 4; ++level) {
    std::vector<std::uint8_t> bytes;
    encode_op(bytes, pin(l4, level));
    ByteReader in{bytes};
    EXPECT_EQ(decode_op(in), pin(l4, level));
  }
  // The level byte means nothing to the other kinds.
  GuestOp unpin;
  unpin.kind = GuestOp::Kind::Unpin;
  unpin.level = 5;
  std::vector<std::uint8_t> bytes;
  encode_op(bytes, unpin);
  ByteReader in{bytes};
  EXPECT_EQ(decode_op(in), unpin);
}

TEST(GuestOp, ArbitraryWriteMatchesTheInjector) {
  // The executor's injector write takes the arbitrary-access hypercall
  // slot of the running version, as ArbitraryAccessInjector does.
  for (const XenVersion version : {kXen46, kXen48, kXen413}) {
    guest::PlatformConfig pc;
    pc.version = version;
    pc.machine_frames = 8192;
    pc.dom0_pages = 128;
    pc.guest_pages = 64;
    guest::VirtualPlatform platform{pc};
    guest::GuestKernel& attacker = platform.guest(0);
    const std::uint64_t slot =
        sim::mfn_to_paddr(attacker.l1_mfn(0)).raw() + 8 * 300;
    GuestOp op;
    op.kind = GuestOp::Kind::ArbitraryWrite;
    op.addr = slot;
    op.value = 0x1234567890ABCDEFULL;
    ASSERT_EQ(apply_guest_op(platform.hv(), attacker.id(), op), kOk)
        << version.to_string();
    core::ArbitraryAccessInjector injector{attacker};
    EXPECT_EQ(injector.read_u64(slot, core::AddressMode::Physical), op.value)
        << version.to_string();

    pc.injector_enabled = false;
    guest::VirtualPlatform stock{pc};
    core::ArbitraryAccessInjector refused{stock.guest(0)};
    EXPECT_FALSE(refused.write_u64(slot, op.value,
                                   core::AddressMode::Physical));
    EXPECT_EQ(apply_guest_op(stock.hv(), stock.guest(0).id(), op),
              refused.last_rc())
        << version.to_string();
  }
}

TEST(GuestOp, LinearSlotAcceptsOnlyTheSelfMap) {
  // The checker's four-step trace against the pre-4.9 linear slot: drop
  // the guest's writable mapping of data page 0x2a, pin 0x2a as an L4,
  // link it read-only into slot 258 of the active L4 0x35, unpin it. The
  // slot takes no type reference, so accepting step 3 left it linking a
  // frame whose type then fell to none (reserved-slot-integrity). Only
  // the self map is modelled (DESIGN.md §5), and it stays legal where
  // linear page tables exist, because XSA-182 starts from it.
  constexpr std::uint64_t kData = 0x2a, kDataL1 = 0x32, kActiveL4 = 0x35;
  constexpr std::uint64_t kUserRo = sim::Pte::kPresent | sim::Pte::kUser;
  for (const XenVersion version : {kXen46, kXen48, kXen413}) {
    const std::string v = version.to_string();
    analysis::ModelCheckConfig config;
    config.version = version;
    CheckerMachine m{config};
    const DomainId guest = m.guests.front();
    ASSERT_EQ(m.vmm.domain(guest).cr3().raw(), kActiveL4) << v;
    const sim::Pte data_map{m.mem.read_slot(sim::Mfn{kDataL1}, 4)};
    ASSERT_TRUE(data_map.writable()) << v;
    ASSERT_EQ(data_map.frame().raw(), kData) << v;
    LastBranch last;
    m.vmm.set_coverage_hook(&last);

    ASSERT_EQ(apply_guest_op(m.vmm, guest, mmu_update(kDataL1, 4, 0)), kOk)
        << v;
    ASSERT_EQ(apply_guest_op(m.vmm, guest, pin(kData, 4)), kOk) << v;
    const std::uint64_t link =
        sim::Pte::make(sim::Mfn{kData}, kUserRo).raw();
    EXPECT_EQ(apply_guest_op(m.vmm, guest,
                             mmu_update(kActiveL4, kLinearPtSlot, link)),
              kEPERM)
        << v;
    EXPECT_EQ(last.branch, version == kXen413
                               ? ValidationBranch::ReservedSlotStrict
                               : ValidationBranch::EntryForeignFrame)
        << v;
    EXPECT_EQ(m.mem.read_slot(sim::Mfn{kActiveL4}, kLinearPtSlot), 0u) << v;
    ASSERT_EQ(apply_guest_op(m.vmm, guest, unpin(kData)), kOk) << v;
    EXPECT_TRUE(InvariantAuditor{m.vmm}.audit().clean())
        << v;

    const std::uint64_t self =
        sim::Pte::make(sim::Mfn{kActiveL4}, kUserRo).raw();
    const long rc = apply_guest_op(m.vmm, guest,
                                   mmu_update(kActiveL4, kLinearPtSlot, self));
    if (version == kXen413) {
      EXPECT_EQ(rc, kEPERM);
      EXPECT_EQ(last.branch, ValidationBranch::ReservedSlotStrict);
    } else {
      EXPECT_EQ(rc, kOk) << v;
      EXPECT_EQ(last.branch, ValidationBranch::LinearRoSelfMap) << v;
      EXPECT_EQ(m.mem.read_slot(sim::Mfn{kActiveL4}, kLinearPtSlot), self)
          << v;
    }
    m.vmm.set_coverage_hook(nullptr);
  }
}

TEST(GuestOp, CheckerCounterexamplesReplayThroughTheOpRecord) {
  // Every counterexample of three 4.6 depth-2 checks, encoded and decoded
  // through the op record and re-issued by its callers on a fresh machine,
  // must reach the violating state the checker recorded.
  analysis::ModelCheckConfig plain;
  plain.depth = 2;
  analysis::ModelCheckConfig grants = plain;
  grants.include_grant_ops = true;
  analysis::ModelCheckConfig two_guests = plain;
  two_guests.guest_domains = 2;
  two_guests.machine_frames = 80;

  unsigned second_guest_steps = 0;
  for (const analysis::ModelCheckConfig& config :
       {plain, grants, two_guests}) {
    const analysis::ModelCheckResult result = analysis::run_model_check(config);
    ASSERT_FALSE(result.counterexamples.empty());
    for (const analysis::Counterexample& cx : result.counterexamples) {
      std::vector<std::uint8_t> bytes;
      for (const analysis::Step& step : cx.steps) encode_op(bytes, step.op);
      ASSERT_EQ(bytes.size(), cx.steps.size() * kGuestOpRecordBytes);

      CheckerMachine m{config};
      ByteReader in{bytes};
      for (const analysis::Step& step : cx.steps) {
        const std::optional<GuestOp> op = decode_op(in);
        ASSERT_TRUE(op.has_value()) << step.label;
        EXPECT_EQ(*op, step.op) << step.label;
        (void)apply_guest_op(m.vmm, step.caller, *op);
        if (m.guests.size() > 1 && step.caller == m.guests[1]) {
          ++second_guest_steps;
        }
      }
      EXPECT_EQ(m.vmm.state_hash(), cx.state_hash) << cx.trace_string();
    }
  }
  EXPECT_GT(second_guest_steps, 0u);
}

}  // namespace
}  // namespace ii::hv
