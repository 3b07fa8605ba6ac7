// ReHype-style recovery: injected erroneous states are repaired in place,
// guest memory survives, and the invariant auditor tells the truth on both
// sides of the micro-reboot.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/model_checker.hpp"
#include "guest/platform.hpp"
#include "hv/audit.hpp"
#include "hv/recovery.hpp"
#include "obs/trace.hpp"
#include "xsa/usecases.hpp"

namespace ii {
namespace {

guest::PlatformConfig test_config(hv::XenVersion version) {
  guest::PlatformConfig pc{};
  pc.version = version;
  pc.machine_frames = 16384;
  pc.dom0_pages = 256;
  pc.guest_pages = 128;
  pc.injector_enabled = true;
  return pc;
}

/// A recognizable marker in a guest data page, to prove recovery preserves
/// guest memory (the whole point of recovering instead of rebooting).
constexpr std::uint64_t kMarker = 0x5EED0FDEADC0DEULL;

sim::Vaddr marker_va(guest::GuestKernel& g) { return g.pfn_va(sim::Pfn{7}); }

std::unique_ptr<core::UseCase> find_case(const std::string& name) {
  auto cases = xsa::make_paper_use_cases();
  for (auto& extension : xsa::make_extension_use_cases()) {
    cases.push_back(std::move(extension));
  }
  for (auto& use_case : cases) {
    if (use_case->name() == name) return std::move(use_case);
  }
  return nullptr;
}

/// Every finding as "invariant | dN | detail", in report order.
std::vector<std::string> rendered(const hv::InvariantReport& report) {
  std::vector<std::string> out;
  for (const hv::InvariantFinding& f : report.findings) {
    out.push_back(hv::to_string(f.invariant) + " | d" +
                  std::to_string(f.domain) + " | " + f.detail);
  }
  return out;
}

TEST(InvariantAuditor, CleanPlatformIsClean) {
  guest::VirtualPlatform p{test_config(hv::kXen48)};
  const hv::InvariantReport report = hv::InvariantAuditor{p.hv()}.audit();
  EXPECT_TRUE(report.clean()) << report.findings.size() << " findings";
}

// Callers that already hold the structural report (the fuzzer) derive the
// invariant report from it; it must be the report the walk gives. Each
// state is the one the use case's exploit leaves on 4.6, where all four
// vulnerabilities are live.
TEST(InvariantAuditor, ReportEntryPointMatchesWalkOnXsaStates) {
  using analysis::ErroneousStateClass;
  const std::pair<const char*, ErroneousStateClass> states[] = {
      {"XSA-148-priv", ErroneousStateClass::Xsa148SuperpageWindow},
      {"XSA-182-test", ErroneousStateClass::Xsa182WritableSelfMap},
      {"XSA-212-priv", ErroneousStateClass::Xsa212IdtClobber},
      {"XSA-387-keep", ErroneousStateClass::Xsa387StaleGrantStatus},
  };
  for (const auto& [name, family] : states) {
    auto use_case = find_case(name);
    ASSERT_NE(use_case, nullptr) << name;
    guest::VirtualPlatform p{test_config(hv::kXen46)};
    (void)use_case->run_exploit(p);
    const hv::Hypervisor& vmm = p.hv();
    const hv::SystemWalk walk = hv::walk_system(vmm);
    const hv::InvariantReport from_walk = hv::InvariantAuditor{vmm}.audit(walk);
    const hv::InvariantReport from_report =
        hv::InvariantAuditor{vmm}.audit(hv::audit_system(vmm, walk));
    const auto classes =
        analysis::classify_erroneous_state(vmm, walk, from_walk);
    EXPECT_NE(std::find(classes.begin(), classes.end(), family),
              classes.end())
        << name;
    EXPECT_FALSE(from_walk.clean()) << name;
    EXPECT_EQ(rendered(from_walk), rendered(from_report)) << name;
  }
}

TEST(Recovery, CleanPlatformRecoversAndPreservesGuestMemory) {
  guest::VirtualPlatform p{test_config(hv::kXen48)};
  ASSERT_TRUE(p.guest(0).write_u64(marker_va(p.guest(0)), kMarker));

  const hv::RecoveryReport report = p.hv().recover();
  EXPECT_TRUE(report.pre.clean());
  EXPECT_TRUE(report.succeeded());
  EXPECT_TRUE(report.restored().empty());
  EXPECT_EQ(report.unrecovered_domains.size(), 0u);

  EXPECT_EQ(p.guest(0).read_u64(marker_va(p.guest(0))), kMarker);
  // The real frame-table audit agrees with the invariant auditor.
  EXPECT_TRUE(hv::audit_system(p.hv()).clean());
}

class RecoveryVersions : public ::testing::TestWithParam<hv::XenVersion> {};

// The acceptance experiment: inject the XSA-212 erroneous state (the priv
// variant corrupts the shared Xen L3 + IDT), recover, and pass the full
// invariant audit — with guest memory intact and the erroneous state gone.
TEST_P(RecoveryVersions, InjectedXsa212StateIsRepaired) {
  auto use_case = find_case("XSA-212-priv");
  ASSERT_NE(use_case, nullptr);

  guest::VirtualPlatform p{test_config(GetParam())};
  ASSERT_TRUE(p.guest(0).write_u64(marker_va(p.guest(0)), kMarker));

  (void)use_case->run_injection(p);
  ASSERT_TRUE(use_case->erroneous_state_present(p));
  const hv::InvariantReport pre = hv::InvariantAuditor{p.hv()}.audit();
  ASSERT_FALSE(pre.clean());

  const hv::RecoveryReport report = p.hv().recover();
  EXPECT_FALSE(report.pre.clean());
  EXPECT_TRUE(report.succeeded());
  EXPECT_FALSE(report.restored().empty());

  EXPECT_FALSE(use_case->erroneous_state_present(p));
  EXPECT_EQ(p.guest(0).read_u64(marker_va(p.guest(0))), kMarker);
  EXPECT_TRUE(hv::audit_system(p.hv()).clean());
  EXPECT_TRUE(hv::InvariantAuditor{p.hv()}.audit().clean());

  // Post-recovery type refs are balanced: tearing the attacker down must
  // not trip the frame table.
  EXPECT_EQ(p.destroy_guest(0), hv::kOk);
}

TEST_P(RecoveryVersions, PanicIsClearedAndIdtRestored) {
  auto use_case = find_case("XSA-212-crash");
  ASSERT_NE(use_case, nullptr);

  guest::VirtualPlatform p{test_config(GetParam())};
  (void)use_case->run_injection(p);
  ASSERT_TRUE(p.hv().crashed());

  const hv::RecoveryReport report = p.hv().recover();
  EXPECT_TRUE(report.pre.violated(hv::Invariant::Liveness));
  EXPECT_TRUE(report.succeeded());
  EXPECT_FALSE(p.hv().crashed());
  EXPECT_GE(report.idt_gates_restored, 1u);
}

TEST_P(RecoveryVersions, WritablePageTableWindowIsScrubbed) {
  auto use_case = find_case("XSA-182-test");
  ASSERT_NE(use_case, nullptr);

  guest::VirtualPlatform p{test_config(GetParam())};
  (void)use_case->run_injection(p);
  const hv::InvariantReport pre = hv::InvariantAuditor{p.hv()}.audit();
  ASSERT_TRUE(pre.violated(hv::Invariant::FrameTypeSafety));

  const hv::RecoveryReport report = p.hv().recover();
  EXPECT_TRUE(report.succeeded());
  EXPECT_FALSE(use_case->erroneous_state_present(p));
  // The self map sits in a reserved L4 slot, which revalidation itself
  // rewrites; only the 4.8 PoC's probe write leaves a PTE for the scrubber.
  if (GetParam().minor == 8) {
    EXPECT_GE(report.ptes_scrubbed, 1u);
  }
  EXPECT_TRUE(hv::audit_system(p.hv()).clean());
}

TEST_P(RecoveryVersions, StaleGrantMappingIsReleased) {
  auto use_case = find_case("XSA-387-keep");
  ASSERT_NE(use_case, nullptr);

  guest::VirtualPlatform p{test_config(GetParam())};
  (void)use_case->run_injection(p);
  const hv::InvariantReport pre = hv::InvariantAuditor{p.hv()}.audit();
  ASSERT_TRUE(pre.violated(hv::Invariant::GrantLifecycle));

  const hv::RecoveryReport report = p.hv().recover();
  EXPECT_TRUE(report.succeeded());
  EXPECT_TRUE(hv::InvariantAuditor{p.hv()}.audit().clean());
}

INSTANTIATE_TEST_SUITE_P(Versions, RecoveryVersions,
                         ::testing::Values(hv::kXen48, hv::kXen413),
                         [](const auto& info) {
                           return info.param.major == 4 &&
                                          info.param.minor == 8
                                      ? "Xen48"
                                      : "Xen413";
                         });

TEST(Recovery, WedgedCpuIsRevived) {
  auto use_case = find_case("EVTCHN-storm");
  ASSERT_NE(use_case, nullptr);

  // 4.8 predates the delivery-loop hardening: the storm wedges the CPU.
  guest::VirtualPlatform p{test_config(hv::kXen48)};
  (void)use_case->run_injection(p);
  ASSERT_TRUE(p.hv().cpu_hung());

  const hv::RecoveryReport report = p.hv().recover();
  EXPECT_TRUE(report.pre.violated(hv::Invariant::Liveness));
  EXPECT_FALSE(p.hv().cpu_hung());
  EXPECT_TRUE(report.succeeded());
}

TEST(Recovery, EmitsTraceEventsAroundThePass) {
  auto use_case = find_case("XSA-212-priv");
  ASSERT_NE(use_case, nullptr);

  obs::TraceSink sink{8192};
  auto pc = test_config(hv::kXen48);
  pc.trace_sink = &sink;
  guest::VirtualPlatform p{pc};
  (void)use_case->run_injection(p);

  const std::uint64_t violations_before =
      sink.count(obs::TraceCategory::InvariantViolation);
  const hv::RecoveryReport report = p.hv().recover();
  ASSERT_TRUE(report.succeeded());

  EXPECT_EQ(sink.count(obs::TraceCategory::RecoverEnter), 1u);
  EXPECT_EQ(sink.count(obs::TraceCategory::RecoverExit), 1u);
  // The pre-audit emits one InvariantViolation per finding; the clean
  // post-audit emits none.
  EXPECT_EQ(sink.count(obs::TraceCategory::InvariantViolation),
            violations_before + report.pre.findings.size());
}

TEST(Recovery, InvariantNamesAreStable) {
  EXPECT_EQ(hv::to_string(hv::Invariant::Liveness), "liveness");
  EXPECT_EQ(hv::to_string(hv::Invariant::FrameTypeSafety),
            "frame-type-safety");
  EXPECT_EQ(hv::to_string(hv::Invariant::GrantLifecycle), "grant-lifecycle");
  EXPECT_EQ(hv::to_string(hv::Invariant::RefcountConsistency),
            "refcount-consistency");
}

}  // namespace
}  // namespace ii
