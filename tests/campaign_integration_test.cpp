// End-to-end reproduction of the paper's experimental matrix (§VI–§VIII).
//
// These tests assert the *shape* of the published results:
//   RQ1 (Fig. 4): on vulnerable Xen 4.6, every exploit succeeds and every
//        injection reproduces the same erroneous state and violation.
//   §VII first step: on 4.8/4.13 the original exploits all fail.
//   RQ2/RQ3 (Table III): injections induce the erroneous state on every
//        version; 4.8 suffers every violation; 4.13 handles XSA-212-priv
//        and XSA-182-test (the "shield" cells) but not the other two.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/supervisor.hpp"
#include "xsa/usecases.hpp"

namespace ii {
namespace {

core::Campaign make_campaign() {
  core::CampaignConfig config{};
  return core::Campaign{config};
}

class CampaignMatrix : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto cases = xsa::make_paper_use_cases();
    results_ = new std::vector<core::CellResult>{make_campaign().run(cases)};
  }
  static void TearDownTestSuite() {
    delete results_;
    results_ = nullptr;
  }

  static const core::CellResult& cell(const std::string& name,
                                      hv::XenVersion version,
                                      core::Mode mode) {
    for (const auto& r : *results_) {
      if (r.use_case == name && r.version == version && r.mode == mode) {
        return r;
      }
    }
    throw std::logic_error{"missing cell " + name};
  }

  static std::vector<core::CellResult>* results_;
};

std::vector<core::CellResult>* CampaignMatrix::results_ = nullptr;

const char* kCases[] = {"XSA-212-crash", "XSA-212-priv", "XSA-148-priv",
                        "XSA-182-test"};

TEST_F(CampaignMatrix, RQ1ExploitsSucceedOnVulnerableVersion) {
  for (const char* name : kCases) {
    const auto& c = cell(name, hv::kXen46, core::Mode::Exploit);
    EXPECT_TRUE(c.outcome.completed) << name;
    EXPECT_TRUE(c.err_state) << name;
    EXPECT_TRUE(c.violation) << name;
  }
}

TEST_F(CampaignMatrix, RQ1InjectionsMatchExploitsOnVulnerableVersion) {
  for (const char* name : kCases) {
    const auto& exploit = cell(name, hv::kXen46, core::Mode::Exploit);
    const auto& injection = cell(name, hv::kXen46, core::Mode::Injection);
    EXPECT_EQ(exploit.err_state, injection.err_state) << name;
    EXPECT_EQ(exploit.violation, injection.violation) << name;
    EXPECT_TRUE(injection.err_state) << name;
  }
}

TEST_F(CampaignMatrix, ExploitsFailOnFixedVersions) {
  for (const char* name : kCases) {
    for (const auto version : {hv::kXen48, hv::kXen413}) {
      const auto& c = cell(name, version, core::Mode::Exploit);
      EXPECT_FALSE(c.outcome.completed)
          << name << " on " << version.to_string();
      EXPECT_FALSE(c.err_state) << name << " on " << version.to_string();
      EXPECT_FALSE(c.violation) << name << " on " << version.to_string();
    }
  }
}

TEST_F(CampaignMatrix, ExploitFailureCodesMatchPaper) {
  // "the exploit execution fails with a return code of -EFAULT" (XSA-212).
  EXPECT_EQ(cell("XSA-212-crash", hv::kXen48, core::Mode::Exploit).outcome.rc,
            hv::kEFAULT);
  EXPECT_EQ(cell("XSA-212-crash", hv::kXen413, core::Mode::Exploit).outcome.rc,
            hv::kEFAULT);
  EXPECT_EQ(cell("XSA-212-priv", hv::kXen48, core::Mode::Exploit).outcome.rc,
            hv::kEFAULT);
}

TEST_F(CampaignMatrix, RQ2InjectionInducesErroneousStateEverywhere) {
  for (const char* name : kCases) {
    for (const auto version : {hv::kXen46, hv::kXen48, hv::kXen413}) {
      const auto& c = cell(name, version, core::Mode::Injection);
      EXPECT_TRUE(c.err_state) << name << " on " << version.to_string();
    }
  }
}

TEST_F(CampaignMatrix, TableIIIViolationsOn48) {
  for (const char* name : kCases) {
    const auto& c = cell(name, hv::kXen48, core::Mode::Injection);
    EXPECT_TRUE(c.violation) << name;
  }
}

TEST_F(CampaignMatrix, TableIIIXen413HandlesTwoCases) {
  EXPECT_TRUE(
      cell("XSA-212-crash", hv::kXen413, core::Mode::Injection).violation);
  EXPECT_TRUE(
      cell("XSA-148-priv", hv::kXen413, core::Mode::Injection).violation);
  // The shield cells: erroneous state injected, violation prevented.
  const auto& priv = cell("XSA-212-priv", hv::kXen413, core::Mode::Injection);
  EXPECT_TRUE(priv.handled());
  const auto& test182 =
      cell("XSA-182-test", hv::kXen413, core::Mode::Injection);
  EXPECT_TRUE(test182.handled());
}

TEST_F(CampaignMatrix, ReportsRender) {
  const std::string rq1 = core::render_rq1_table(*results_);
  const std::string t3 = core::render_table3(*results_);
  EXPECT_NE(rq1.find("XSA-212-crash"), std::string::npos);
  EXPECT_NE(t3.find("[shield]"), std::string::npos);
}

// --- supervisor fault containment ----------------------------------------
//
// A worker's factory or a use case throwing must never escape a worker
// thread (std::terminate would take the whole campaign down); it fails
// the owning worker/cell only, and siblings finish the matrix.

/// Inert use case: completes without touching the platform.
class BenignCase : public core::UseCase {
 public:
  explicit BenignCase(std::string name) : name_{std::move(name)} {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] core::IntrusionModel model() const override { return {}; }
  core::CaseOutcome run_exploit(guest::VirtualPlatform&) override {
    core::CaseOutcome outcome;
    outcome.completed = true;
    return outcome;
  }
  core::CaseOutcome run_injection(guest::VirtualPlatform& p) override {
    return run_exploit(p);
  }
  [[nodiscard]] bool erroneous_state_present(
      guest::VirtualPlatform&) const override {
    return false;
  }
  [[nodiscard]] bool security_violation(
      guest::VirtualPlatform&) const override {
    return false;
  }

 private:
  std::string name_;
};

/// Throws a non-std type from the attempt itself.
class ThrowingCase : public BenignCase {
 public:
  ThrowingCase() : BenignCase{"thrower"} {}
  core::CaseOutcome run_exploit(guest::VirtualPlatform&) override {
    throw 42;  // deliberately not std::exception
  }
  core::CaseOutcome run_injection(guest::VirtualPlatform&) override {
    throw 42;
  }
};

core::CampaignConfig tiny_config() {
  core::CampaignConfig config{};
  config.versions = {hv::kXen46};
  config.modes = {core::Mode::Exploit};
  return config;
}

/// The tiny matrix under a two-worker supervisor.
std::vector<core::CellResult> run_two_workers(
    const std::function<std::vector<std::unique_ptr<core::UseCase>>()>&
        factory) {
  core::SupervisorConfig supervision;
  supervision.threads = 2;
  return core::CampaignSupervisor{tiny_config(), supervision}.run(factory);
}

TEST(CampaignParallel, OneThrowingFactoryDoesNotSinkTheRun) {
  // Call 0 names the use cases; of the two per-worker calls, exactly one
  // throws. The surviving worker must drain every cell.
  std::atomic<unsigned> calls{0};
  const auto factory = [&]() -> std::vector<std::unique_ptr<core::UseCase>> {
    if (calls.fetch_add(1) == 1) {
      throw std::runtime_error{"factory exploded"};
    }
    std::vector<std::unique_ptr<core::UseCase>> cases;
    cases.push_back(std::make_unique<BenignCase>("alpha"));
    cases.push_back(std::make_unique<BenignCase>("beta"));
    cases.push_back(std::make_unique<BenignCase>("gamma"));
    return cases;
  };
  const auto results = run_two_workers(factory);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].use_case, "alpha");
  EXPECT_EQ(results[2].use_case, "gamma");
  for (const auto& cell : results) {
    EXPECT_TRUE(cell.outcome.completed) << cell.use_case;
    EXPECT_FALSE(cell.failed()) << cell.use_case;
  }
}

TEST(CampaignParallel, AllFactoriesThrowingIsReportedLoudly) {
  // When no worker can construct its cases, no cell ever runs; returning a
  // default-constructed matrix would masquerade as results, and starting
  // another round of workers would fail the same way forever.
  std::atomic<unsigned> calls{0};
  const auto factory = [&]() -> std::vector<std::unique_ptr<core::UseCase>> {
    if (calls.fetch_add(1) == 0) {
      std::vector<std::unique_ptr<core::UseCase>> cases;
      cases.push_back(std::make_unique<BenignCase>("alpha"));
      cases.push_back(std::make_unique<BenignCase>("beta"));
      return cases;  // naming the use cases succeeds: two workers start
    }
    throw std::runtime_error{"no cases for you"};
  };
  EXPECT_THROW((void)run_two_workers(factory), std::runtime_error);
  EXPECT_EQ(calls.load(), 3u);
}

TEST(CampaignParallel, NonStandardExceptionFailsOnlyItsCell) {
  const auto factory = [] {
    std::vector<std::unique_ptr<core::UseCase>> cases;
    cases.push_back(std::make_unique<BenignCase>("alpha"));
    cases.push_back(std::make_unique<ThrowingCase>());
    cases.push_back(std::make_unique<BenignCase>("gamma"));
    return cases;
  };
  const auto results = run_two_workers(factory);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].failed());
  EXPECT_TRUE(results[0].outcome.completed);
  EXPECT_TRUE(results[1].failed());
  EXPECT_EQ(results[1].failure, "non-standard exception");
  EXPECT_FALSE(results[1].outcome.completed);
  EXPECT_FALSE(results[2].failed());
  EXPECT_TRUE(results[2].outcome.completed);
}

}  // namespace
}  // namespace ii
