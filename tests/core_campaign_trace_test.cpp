// Campaign-level observability: per-cell traces, hypercall pairing,
// deterministic sequence numbers under the parallel supervisor, and the CSV
// columns.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/supervisor.hpp"
#include "obs/span.hpp"
#include "obs/status.hpp"

namespace ii::core {
namespace {

/// Deterministic probe: a fixed little hypercall workload per attempt so
/// traces are predictable — a console write, a grant cycle, an event send,
/// and a balloon round-trip.
class TraceProbeCase : public UseCase {
 public:
  explicit TraceProbeCase(std::string name = "trace-probe")
      : name_{std::move(name)} {}
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] IntrusionModel model() const override { return {}; }

  CaseOutcome run_exploit(guest::VirtualPlatform& platform) override {
    return drive(platform);
  }
  CaseOutcome run_injection(guest::VirtualPlatform& platform) override {
    return drive(platform);
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
  static CaseOutcome drive(guest::VirtualPlatform& platform) {
    guest::GuestKernel& g = platform.guest(0);
    CaseOutcome outcome;
    outcome.rc = g.console_write("probe");
    (void)g.grant_set_version(2);
    (void)g.grant_set_version(1);
    unsigned port = 0;
    (void)g.evtchn_alloc_unbound(hv::kDom0, &port);
    const auto pfn = g.alloc_pfn();
    (void)g.unmap_pfn(*pfn);
    (void)g.decrease_reservation(*pfn);
    (void)g.populate_physmap(*pfn);
    outcome.completed = true;
    return outcome;
  }

  std::string name_;
};

CampaignConfig small_config(bool capture) {
  CampaignConfig config;
  config.versions = {hv::kXen46, hv::kXen413};
  config.modes = {Mode::Exploit, Mode::Injection};
  config.platform.machine_frames = 8192;
  config.platform.dom0_pages = 128;
  config.platform.guest_pages = 64;
  config.platform.n_guests = 1;
  config.capture_trace = capture;
  return config;
}

std::vector<std::unique_ptr<UseCase>> probe_cases() {
  std::vector<std::unique_ptr<UseCase>> cases;
  cases.push_back(std::make_unique<TraceProbeCase>());
  return cases;
}

/// Three probe use cases, so a supervisor (which hands out whole use cases)
/// really runs up to three workers.
std::vector<std::unique_ptr<UseCase>> probe_matrix() {
  std::vector<std::unique_ptr<UseCase>> cases;
  for (const char* name : {"probe-a", "probe-b", "probe-c"}) {
    cases.push_back(std::make_unique<TraceProbeCase>(name));
  }
  return cases;
}

std::vector<CellResult> run_supervised(const CampaignConfig& config,
                                       unsigned workers) {
  SupervisorConfig supervision;
  supervision.threads = workers;
  return CampaignSupervisor{config, supervision}.run(probe_matrix);
}

/// A cell's counters, less the ones that depend on who ran it: the
/// supervisor.* verdicts only the supervisor adds, and cell.reuse_hits,
/// which follows the use cases the worker's pool served before.
std::map<std::string, std::uint64_t> cell_counters(const CellResult& cell) {
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, value] : cell.metrics.counters) {
    if (name.rfind("supervisor.", 0) != 0 && name != "cell.reuse_hits") {
      counters.emplace(name, value);
    }
  }
  return counters;
}

TEST(CampaignTrace, EveryCellPairsEnterAndExitInOrder) {
  const Campaign campaign{small_config(/*capture=*/true)};
  const auto results = campaign.run(probe_cases());
  ASSERT_EQ(results.size(), 4u);
  for (const CellResult& cell : results) {
    ASSERT_FALSE(cell.trace.empty());
    std::uint64_t enters = 0;
    std::uint64_t exits = 0;
    std::uint64_t last_seq = 0;
    bool first = true;
    int depth = 0;
    for (const obs::TraceEvent& event : cell.trace) {
      if (!first) {
        EXPECT_GT(event.seq, last_seq);
      }
      first = false;
      last_seq = event.seq;
      if (event.category == obs::TraceCategory::HypercallEnter) {
        // Hypercalls never nest in this model: each Enter is closed by an
        // Exit before the next dispatch.
        EXPECT_EQ(depth, 0);
        ++depth;
        ++enters;
      } else if (event.category == obs::TraceCategory::HypercallExit) {
        EXPECT_EQ(depth, 1);
        --depth;
        ++exits;
      }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_GE(enters, 1u);
    EXPECT_EQ(enters, exits);
    EXPECT_EQ(enters, cell.hypercalls);
  }
}

TEST(CampaignTrace, PerNrCountersSumToEnterEvents) {
  const Campaign campaign{small_config(/*capture=*/false)};
  const auto results = campaign.run(probe_cases());
  for (const CellResult& cell : results) {
    // capture off: counters still collected, ring stays empty.
    EXPECT_TRUE(cell.trace.empty());
    EXPECT_GE(cell.hypercalls, 1u);
    std::uint64_t per_nr = 0;
    for (const auto& [name, value] : cell.metrics.counters) {
      if (name.rfind("hypercall.nr", 0) == 0) per_nr += value;
    }
    EXPECT_EQ(per_nr, cell.metrics.counter("trace.hypercall_enter"));
    EXPECT_EQ(per_nr, cell.hypercalls);
  }
}

TEST(CampaignTrace, ParallelTracesMatchSerialByCell) {
  const CampaignConfig config = small_config(/*capture=*/true);
  const auto serial = Campaign{config}.run(probe_matrix());
  const auto parallel1 = run_supervised(config, 1);
  const auto parallel4 = run_supervised(config, 4);

  ASSERT_EQ(serial.size(), parallel1.size());
  ASSERT_EQ(serial.size(), parallel4.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    for (const auto* run : {&parallel1[i], &parallel4[i]}) {
      EXPECT_EQ(serial[i].use_case, run->use_case);
      EXPECT_EQ(serial[i].version, run->version);
      EXPECT_EQ(serial[i].mode, run->mode);
      EXPECT_EQ(serial[i].hypercalls, run->hypercalls);
      EXPECT_EQ(cell_counters(serial[i]), cell_counters(*run));
      // Per-cell sinks restart seq at 0, so the trace is byte-identical
      // regardless of worker count and scheduling.
      ASSERT_EQ(serial[i].trace.size(), run->trace.size());
      for (std::size_t e = 0; e < serial[i].trace.size(); ++e) {
        EXPECT_EQ(serial[i].trace[e].seq, run->trace[e].seq);
        EXPECT_EQ(serial[i].trace[e].category, run->trace[e].category);
        EXPECT_EQ(serial[i].trace[e].domain, run->trace[e].domain);
        EXPECT_EQ(serial[i].trace[e].code, run->trace[e].code);
        EXPECT_EQ(serial[i].trace[e].rc, run->trace[e].rc);
      }
    }
  }
}

TEST(CampaignTrace, CsvCarriesTimingColumns) {
  const Campaign campaign{small_config(/*capture=*/false)};
  const auto results = campaign.run(probe_cases());
  const std::string csv = render_csv(results);
  EXPECT_NE(csv.find(",wall_us,hypercalls,attempts,recovered,quarantined\n"),
            std::string::npos);
  // Each data row carries the cell's hypercall count (nonzero), now four
  // columns from the end (before attempts,recovered,quarantined).
  std::istringstream lines{csv};
  std::string line;
  std::getline(lines, line);  // header
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    std::vector<std::string> fields;
    std::istringstream row{line};
    std::string field;
    while (std::getline(row, field, ',')) fields.push_back(field);
    ASSERT_GE(fields.size(), 4u);
    EXPECT_GE(std::stoull(fields[fields.size() - 4]), 1u);
    ++rows;
  }
  EXPECT_EQ(rows, results.size());
}

TEST(CampaignTrace, MetricsSummaryRendersCounters) {
  const Campaign campaign{small_config(/*capture=*/false)};
  const auto results = campaign.run(probe_cases());
  obs::MetricsRegistry aggregate;
  for (const auto& cell : results) aggregate.merge(cell.metrics);
  const std::string summary = render_metrics_summary(aggregate.snapshot());
  EXPECT_NE(summary.find("trace.hypercall_enter"), std::string::npos);
  EXPECT_NE(summary.find("Counter"), std::string::npos);
}

TEST(CampaignWarmReuse, WarmAndColdCellsAgreeOnEverythingObservable) {
  // Warm platform reuse is a pure setup optimization: verdicts, hypercall
  // counts and traces must match a campaign that boots every cell cold.
  auto warm_config = small_config(/*capture=*/true);
  warm_config.reuse_platforms = true;
  auto cold_config = warm_config;
  cold_config.reuse_platforms = false;

  const auto warm = Campaign{warm_config}.run(probe_cases());
  const auto cold = Campaign{cold_config}.run(probe_cases());
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].err_state, cold[i].err_state) << i;
    EXPECT_EQ(warm[i].violation, cold[i].violation) << i;
    EXPECT_EQ(warm[i].outcome.completed, cold[i].outcome.completed) << i;
    EXPECT_EQ(warm[i].outcome.rc, cold[i].outcome.rc) << i;
    EXPECT_EQ(warm[i].failure, cold[i].failure) << i;
    // Boot issues no hypercalls through the dispatch table, so the count
    // matches even though the cold cell's sink observed the boot.
    EXPECT_EQ(warm[i].hypercalls, cold[i].hypercalls) << i;
  }
}

TEST(CampaignWarmReuse, SecondCellOnSameConfigIsAReuseHit) {
  // Two probe cases × one version × one mode: the second cell leases the
  // platform the first cell warmed up, and pays only a delta restore.
  auto config = small_config(/*capture=*/false);
  config.versions = {hv::kXen46};
  config.modes = {Mode::Exploit};
  const Campaign campaign{config};

  std::vector<std::unique_ptr<UseCase>> cases;
  cases.push_back(std::make_unique<TraceProbeCase>());
  cases.push_back(std::make_unique<TraceProbeCase>());
  const auto results = campaign.run(cases);
  ASSERT_EQ(results.size(), 2u);

  const auto counter = [](const CellResult& cell, const char* name) {
    const auto it = cell.metrics.counters.find(name);
    return it == cell.metrics.counters.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(counter(results[0], "cell.reuse_hits"), 0u);
  EXPECT_EQ(counter(results[1], "cell.reuse_hits"), 1u);
  // The probe dirties frames (console ring, balloon churn), so the release
  // rewind copies some — but far fewer than the whole 8192-frame machine.
  for (const auto& cell : results) {
    const std::uint64_t copied = counter(cell, "snapshot.frames_copied");
    EXPECT_GT(copied, 0u);
    EXPECT_LT(copied, config.platform.machine_frames / 4);
  }
  // Identical cells on the same pooled platform dirty the identical frame
  // set: the rewind cost is a property of the cell, not of pool history.
  EXPECT_EQ(counter(results[0], "snapshot.frames_copied"),
            counter(results[1], "snapshot.frames_copied"));
}

TEST(CampaignProfile, SpanTreeCoversTheCellLifecycle) {
  auto config = small_config(/*capture=*/false);
  obs::SpanProfiler prof;
  config.profiler = &prof;
  const auto results = Campaign{config}.run(probe_cases());
  ASSERT_EQ(results.size(), 4u);
  const obs::SpanNode& root = prof.root();
  ASSERT_NE(root.children.find("cell"), root.children.end());
  const obs::SpanNode& cell = *root.children.at("cell");
  EXPECT_EQ(cell.count, results.size());
  for (const char* phase : {"acquire", "restore", "inject", "monitor"}) {
    ASSERT_NE(cell.children.find(phase), cell.children.end()) << phase;
  }
  // Injection drove real hypercalls; their deterministic step counts land
  // on the inject span via the trace-sink delta.
  EXPECT_GT(cell.children.at("inject")->steps, 0u);
  EXPECT_EQ(cell.children.at("inject")->count, results.size());
}

TEST(CampaignProfile, MergedParallelProfileMatchesSerial) {
  // The supervisor records into per-worker lane profilers and merges after
  // join; the aggregated deterministic render must equal a serial run's,
  // at any worker count.
  auto serial_config = small_config(/*capture=*/false);
  obs::SpanProfiler serial_prof;
  serial_config.profiler = &serial_prof;
  (void)Campaign{serial_config}.run(probe_matrix());
  const std::string baseline = render_profile(serial_prof);
  for (const unsigned workers : {1u, 3u}) {
    auto config = small_config(/*capture=*/false);
    obs::SpanProfiler prof;
    config.profiler = &prof;
    (void)run_supervised(config, workers);
    EXPECT_EQ(baseline, render_profile(prof)) << "workers=" << workers;
  }
}

TEST(CampaignProfile, StatusBoardSeesTheWholeMatrix) {
  auto config = small_config(/*capture=*/false);
  obs::StatusBoard board;
  config.status = &board;
  const auto results = run_supervised(config, 2);
  const obs::StatusSnapshot s = board.snapshot();
  EXPECT_FALSE(s.campaign_active);  // campaign_end() ran
  EXPECT_EQ(s.cells_total, results.size());
  EXPECT_EQ(s.cells_done, results.size());
  ASSERT_EQ(s.worker_heartbeat.size(), 2u);
  std::uint64_t heartbeat_sum = 0;
  for (const std::uint64_t h : s.worker_heartbeat) heartbeat_sum += h;
  EXPECT_EQ(heartbeat_sum, results.size());
}

}  // namespace
}  // namespace ii::core
