// Unit-level tests of the use-case building blocks: the exchange write
// primitive, per-case intrusion models, and per-case behaviour details the
// campaign matrix does not pin down.
#include <gtest/gtest.h>

#include <cstring>

#include "core/injector.hpp"
#include "core/monitor.hpp"
#include "hv/hypercall_table.hpp"
#include "obs/trace.hpp"
#include "xsa/exchange_primitive.hpp"
#include "xsa/usecases.hpp"

namespace ii::xsa {
namespace {

guest::VirtualPlatform make_platform(hv::XenVersion version,
                                     bool injector = true) {
  guest::PlatformConfig pc{};
  pc.version = version;
  pc.injector_enabled = injector;
  return guest::VirtualPlatform{pc};
}

// ------------------------------------------------------ exchange primitive

TEST(ExchangePrimitive, ReadyAfterSetup) {
  auto p = make_platform(hv::kXen46, false);
  ExchangeWritePrimitive prim{p.guest(0)};
  EXPECT_TRUE(prim.ready());
}

TEST(ExchangePrimitive, RawShotWritesFreshMfn) {
  auto p = make_platform(hv::kXen46, false);
  ExchangeWritePrimitive prim{p.guest(0)};
  // Target: a byte inside dom0's start_info frame, via its directmap
  // (hypervisor linear) address.
  const sim::Paddr pa =
      sim::mfn_to_paddr(p.hv().domain(hv::kDom0).start_info_mfn()) + 0x300;
  ASSERT_EQ(prim.write_mfn_at(hv::directmap_vaddr(pa)), hv::kOk);
  std::uint64_t written = 0;
  p.memory().read(pa, {reinterpret_cast<std::uint8_t*>(&written),
                       sizeof written});
  EXPECT_EQ(written, prim.last_mfn());
  EXPECT_NE(written, 0u);
}

// The paper's capability (i), "easier to induce a representative erroneous
// state than effectively attack the system", counted in hypercalls: the
// groomed exploit write issues one memory_exchange per groomed byte
// attempt, the injector write of the same target exactly one hypercall.
TEST(ExchangePrimitive, GroomedWritePlacesExactValue) {
  auto p = make_platform(hv::kXen46, false);
  ExchangeWritePrimitive prim{p.guest(0)};
  const sim::Paddr pa =
      sim::mfn_to_paddr(p.hv().domain(hv::kDom0).start_info_mfn()) + 0x300;
  const std::uint64_t value = 0x0123456789ABCDEFULL;
  obs::TraceSink exploit_sink{obs::TraceSink::kDefaultCapacity,
                              /*category_mask=*/0};
  p.hv().set_trace_sink(&exploit_sink);
  ASSERT_TRUE(prim.write_u64(hv::directmap_vaddr(pa), value));
  p.hv().set_trace_sink(nullptr);
  std::uint64_t written = 0;
  p.memory().read(pa, {reinterpret_cast<std::uint8_t*>(&written),
                       sizeof written});
  EXPECT_EQ(written, value);
  EXPECT_GT(prim.exchanges_used(), 8u);
  EXPECT_EQ(exploit_sink.count(obs::TraceCategory::HypercallEnter),
            prim.exchanges_used());
  EXPECT_EQ(exploit_sink.hypercall_count(hv::kHcMemoryOp),
            prim.exchanges_used());

  auto q = make_platform(hv::kXen46);
  ASSERT_EQ(q.hv().domain(hv::kDom0).start_info_mfn(),
            p.hv().domain(hv::kDom0).start_info_mfn());
  core::ArbitraryAccessInjector injector{q.guest(0)};
  obs::TraceSink injector_sink{obs::TraceSink::kDefaultCapacity,
                               /*category_mask=*/0};
  q.hv().set_trace_sink(&injector_sink);
  ASSERT_TRUE(injector.write_u64(hv::directmap_vaddr(pa).raw(), value,
                                 core::AddressMode::Linear));
  q.hv().set_trace_sink(nullptr);
  written = 0;
  q.memory().read(pa, {reinterpret_cast<std::uint8_t*>(&written),
                       sizeof written});
  EXPECT_EQ(written, value);
  EXPECT_EQ(injector_sink.count(obs::TraceCategory::HypercallEnter), 1u);
  EXPECT_EQ(injector_sink.hypercall_count(hv::arbitrary_access_nr(hv::kXen46)),
            1u);
}

TEST(ExchangePrimitive, ZeroByteCleansSpill) {
  auto p = make_platform(hv::kXen46, false);
  ExchangeWritePrimitive prim{p.guest(0)};
  const sim::Paddr pa =
      sim::mfn_to_paddr(p.hv().domain(hv::kDom0).start_info_mfn()) + 0x300;
  ASSERT_TRUE(prim.write_u64(hv::directmap_vaddr(pa), 0x11ULL));
  ASSERT_TRUE(
      prim.zero_byte_at(sim::Vaddr{hv::directmap_vaddr(pa).raw() + 8}));
  std::uint8_t spill = 0xFF;
  p.memory().read(pa + 8, {&spill, 1});
  EXPECT_EQ(spill, 0);
}

TEST(ExchangePrimitive, RefusedOnFixedVersions) {
  for (const auto version : {hv::kXen48, hv::kXen413}) {
    auto p = make_platform(version, false);
    ExchangeWritePrimitive prim{p.guest(0)};
    const auto target = hv::directmap_vaddr(sim::Paddr{0x1000});
    EXPECT_FALSE(prim.write_u64(target, 42)) << version.to_string();
    EXPECT_EQ(prim.rc(), hv::kEFAULT) << version.to_string();
  }
}

// --------------------------------------------------------- intrusion models

TEST(UseCaseModels, MatchTableTwo) {
  const auto cases = make_paper_use_cases();
  ASSERT_EQ(cases.size(), 4u);
  EXPECT_EQ(cases[0]->name(), "XSA-212-crash");
  EXPECT_EQ(cases[1]->name(), "XSA-212-priv");
  EXPECT_EQ(cases[2]->name(), "XSA-148-priv");
  EXPECT_EQ(cases[3]->name(), "XSA-182-test");

  using AF = core::AbusiveFunctionality;
  EXPECT_EQ(cases[0]->model().functionality,
            AF::WriteUnauthorizedArbitraryMemory);
  EXPECT_EQ(cases[1]->model().functionality,
            AF::WriteUnauthorizedArbitraryMemory);
  EXPECT_EQ(cases[2]->model().functionality,
            AF::GuestWritablePageTableEntry);
  EXPECT_EQ(cases[3]->model().functionality,
            AF::GuestWritablePageTableEntry);

  for (const auto& uc : cases) {
    EXPECT_EQ(uc->model().source, core::TriggeringSource::UnprivilegedGuest);
    EXPECT_EQ(uc->model().component, core::TargetComponent::MemoryManagement);
    EXPECT_EQ(uc->model().interface, core::InteractionInterface::Hypercall);
  }
}

// --------------------------------------------------- per-case fine details

TEST(UseCaseDetails, FreshPlatformHasNoErroneousStates) {
  auto p = make_platform(hv::kXen46);
  for (const auto& uc : make_paper_use_cases()) {
    EXPECT_FALSE(uc->erroneous_state_present(p)) << uc->name();
    EXPECT_FALSE(uc->security_violation(p)) << uc->name();
  }
}

TEST(UseCaseDetails, Xsa212CrashInjectionLogsAndCrashes) {
  auto p = make_platform(hv::kXen413);
  Xsa212Crash uc;
  const auto out = uc.run_injection(p);
  EXPECT_TRUE(out.completed);
  EXPECT_TRUE(p.hv().crashed());
  bool panic_line = false;
  for (const auto& line : p.hv().console()) {
    if (line.find("DOUBLE FAULT") != std::string::npos) panic_line = true;
  }
  EXPECT_TRUE(panic_line);
}

TEST(UseCaseDetails, Xsa212PrivExploitEmitsPaperMessages) {
  auto p = make_platform(hv::kXen46, false);
  Xsa212Priv uc;
  const auto out = uc.run_exploit(p);
  ASSERT_TRUE(out.completed);
  const auto has_note = [&](const char* text) {
    for (const auto& n : out.notes) {
      if (n.find(text) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_note("### crafted PUD entry written"));
  EXPECT_TRUE(has_note("going to link PMD into target PUD"));
  EXPECT_TRUE(has_note("linked PMD into target PUD"));
  // And the injector_log content matches the transcript.
  const auto log = p.guest(1).fs().read("/tmp/injector_log", 0);
  ASSERT_TRUE(log.has_value());
  EXPECT_EQ(*log, "|uid=0(root) gid=0(root) groups=0(root)|@guest02");
}

TEST(UseCaseDetails, Xsa212PrivInjectionAbortsCleanlyOn413) {
  auto p = make_platform(hv::kXen413);
  Xsa212Priv uc;
  const auto out = uc.run_injection(p);
  EXPECT_FALSE(out.completed);  // payload install faulted
  EXPECT_TRUE(uc.erroneous_state_present(p));
  EXPECT_FALSE(uc.security_violation(p));
  bool bug_line = false;
  for (const auto& n : out.notes) {
    if (n.find("unable to handle page request") != std::string::npos) {
      bug_line = true;
    }
  }
  EXPECT_TRUE(bug_line);
  EXPECT_FALSE(p.hv().crashed());  // handled, not a host crash
}

TEST(UseCaseDetails, Xsa148ExploitEmitsPaperMessages) {
  auto p = make_platform(hv::kXen46, false);
  Xsa148Priv uc;
  const auto out = uc.run_exploit(p);
  ASSERT_TRUE(out.completed);
  const auto has_note = [&](const char* text) {
    for (const auto& n : out.notes) {
      if (n.find(text) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_note("xen_exploit: xen version = 4.6"));
  EXPECT_TRUE(has_note("startup_dump ok"));
  EXPECT_TRUE(has_note("dom0!"));
  EXPECT_TRUE(has_note("dom0 vdso"));
}

TEST(UseCaseDetails, Xsa148ShellReadsConfidentialRootFile) {
  // The paper's final transcript: the attacker cats /root/root_msg over the
  // reverse shell.
  auto p = make_platform(hv::kXen413);
  Xsa148Priv uc;
  ASSERT_TRUE(uc.run_injection(p).completed);
  const auto conns = p.attacker().accepted(Xsa148Priv::kShellPort);
  ASSERT_EQ(conns.size(), 1u);
  conns[0]->send(net::Endpoint::Client, "whoami && hostname");
  conns[0]->send(net::Endpoint::Client, "cat /root/root_msg");
  p.pump();
  EXPECT_EQ(conns[0]->poll(net::Endpoint::Client), "root\nxen-dom0");
  EXPECT_EQ(conns[0]->poll(net::Endpoint::Client),
            "Confidential content in root folder!");
}

TEST(UseCaseDetails, Xsa182ExploitStopsAtRwFlipOn48) {
  auto p = make_platform(hv::kXen48, false);
  Xsa182Test uc;
  const auto out = uc.run_exploit(p);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.rc, hv::kEPERM);
  bool not_vulnerable = false;
  for (const auto& n : out.notes) {
    if (n.find("not vulnerable") != std::string::npos) not_vulnerable = true;
  }
  EXPECT_TRUE(not_vulnerable);
  EXPECT_FALSE(uc.erroneous_state_present(p));
}

TEST(UseCaseDetails, Xsa182InjectionPrintsPageDirectoryLine) {
  auto p = make_platform(hv::kXen48);
  Xsa182Test uc;
  const auto out = uc.run_injection(p);
  ASSERT_TRUE(out.completed);
  bool probe_line = false;
  for (const auto& n : out.notes) {
    if (n.find("page_directory[42] = 0x") != std::string::npos) {
      probe_line = true;
    }
  }
  EXPECT_TRUE(probe_line);
  EXPECT_TRUE(uc.security_violation(p));
}

TEST(UseCaseDetails, Xsa182InjectionHandledOn413WithException) {
  auto p = make_platform(hv::kXen413);
  Xsa182Test uc;
  const auto out = uc.run_injection(p);
  EXPECT_FALSE(out.completed);
  bool exception_line = false;
  for (const auto& n : out.notes) {
    if (n.find("exception while updating") != std::string::npos) {
      exception_line = true;
    }
  }
  EXPECT_TRUE(exception_line);
  EXPECT_TRUE(uc.erroneous_state_present(p));
  EXPECT_FALSE(uc.security_violation(p));
}

TEST(UseCaseDetails, ExploitsRefuseWithoutRequiredPrimitive) {
  // Running the injection scripts against a stock (injector-less) build
  // fails with -ENOSYS rather than silently "succeeding".
  auto p = make_platform(hv::kXen46, /*injector=*/false);
  Xsa182Test uc;
  const auto out = uc.run_injection(p);
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.rc, hv::kENOSYS);
}

}  // namespace
}  // namespace ii::xsa
