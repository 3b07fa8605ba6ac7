// Model-coverage accounting and the supervisor's parallel campaign.
#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/coverage.hpp"
#include "core/supervisor.hpp"
#include "cvedb/advisories.hpp"
#include "xsa/usecases.hpp"

namespace ii {
namespace {

std::vector<std::unique_ptr<core::UseCase>> all_cases() {
  auto cases = xsa::make_paper_use_cases();
  for (auto& extension : xsa::make_extension_use_cases()) {
    cases.push_back(std::move(extension));
  }
  return cases;
}

/// The paper's use cases under a supervisor with `threads` workers.
std::vector<core::CellResult> run_supervised(const core::CampaignConfig& config,
                                             unsigned threads) {
  core::SupervisorConfig supervision;
  supervision.threads = threads;
  return core::CampaignSupervisor{config, supervision}.run(
      &xsa::make_paper_use_cases);
}

std::vector<core::IntrusionModel> derived_catalogue() {
  std::vector<core::IntrusionModel> catalogue;
  for (const auto& d :
       cvedb::derive_intrusion_models(cvedb::study_records())) {
    catalogue.push_back(d.model);
  }
  return catalogue;
}

TEST(ModelCoverage, PaperUseCasesCoverTheirOwnModels) {
  const auto cases = all_cases();
  std::vector<core::IntrusionModel> catalogue;
  for (const auto& use_case : cases) catalogue.push_back(use_case->model());
  const auto coverage = core::compute_model_coverage(catalogue, cases);
  for (const auto& entry : coverage) {
    EXPECT_TRUE(entry.covered());
  }
}

TEST(ModelCoverage, StudyCatalogueIsPartiallyCovered) {
  const auto coverage =
      core::compute_model_coverage(derived_catalogue(), all_cases());
  std::size_t covered = 0;
  for (const auto& entry : coverage) covered += entry.covered();
  // The executable suite covers several derived models but far from all —
  // the honest picture the accounting exists to show.
  EXPECT_GE(covered, 5u);
  EXPECT_LT(covered, coverage.size());
}

TEST(ModelCoverage, MatchesOnComponentAndFunctionality) {
  const auto cases = all_cases();
  core::IntrusionModel model{};
  model.component = core::TargetComponent::MemoryManagement;
  model.functionality =
      core::AbusiveFunctionality::WriteUnauthorizedArbitraryMemory;
  const auto coverage = core::compute_model_coverage({&model, 1}, cases);
  ASSERT_EQ(coverage.size(), 1u);
  ASSERT_TRUE(coverage[0].covered());
  EXPECT_EQ(coverage[0].covered_by.size(), 2u);  // both XSA-212 cases

  model.component = core::TargetComponent::Scheduler;
  const auto none = core::compute_model_coverage({&model, 1}, cases);
  EXPECT_FALSE(none[0].covered());
}

TEST(ModelCoverage, RenderShowsRatioAndMarks) {
  const auto coverage =
      core::compute_model_coverage(derived_catalogue(), all_cases());
  const std::string out = core::render_coverage(coverage);
  EXPECT_NE(out.find("intrusion-model coverage: "), std::string::npos);
  EXPECT_NE(out.find("[x] "), std::string::npos);
  EXPECT_NE(out.find("[ ] "), std::string::npos);
  EXPECT_NE(out.find("XSA-212-priv"), std::string::npos);
}

TEST(ParallelCampaign, MatchesSerialResults) {
  core::CampaignConfig config{};
  config.modes = {core::Mode::Injection};
  config.platform.machine_frames = 8192;
  config.platform.dom0_pages = 128;
  config.platform.guest_pages = 64;
  const core::Campaign campaign{config};

  const auto serial = campaign.run(xsa::make_paper_use_cases());
  const auto parallel = run_supervised(config, 4);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].use_case, serial[i].use_case) << i;
    EXPECT_EQ(parallel[i].version, serial[i].version) << i;
    EXPECT_EQ(parallel[i].mode, serial[i].mode) << i;
    EXPECT_EQ(parallel[i].err_state, serial[i].err_state) << i;
    EXPECT_EQ(parallel[i].violation, serial[i].violation) << i;
  }
}

TEST(ParallelCampaign, SingleThreadAndOversubscription) {
  core::CampaignConfig config{};
  config.versions = {hv::kXen413};
  config.modes = {core::Mode::Injection};
  config.platform.machine_frames = 8192;
  config.platform.dom0_pages = 128;
  config.platform.guest_pages = 64;
  const auto one = run_supervised(config, 1);
  const auto many = run_supervised(config, 64);
  ASSERT_EQ(one.size(), 4u);
  ASSERT_EQ(many.size(), 4u);
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].violation, many[i].violation) << i;
  }
}

}  // namespace
}  // namespace ii
