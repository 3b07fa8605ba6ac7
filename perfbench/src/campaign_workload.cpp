// campaign_matrix: the full matrix campaign_cli runs (8 use cases x Xen
// 4.6/4.8/4.13 x exploit/injection = 48 cells per round), repeated on one
// persistent PlatformPool of default-size machines. The unit of work is one
// warm cell: Campaign::run_cell on a pooled machine parked at its boot
// baseline. The seed shuffles the cell order of every round; verdicts do
// not depend on order because every cell starts from the pool baseline.
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/fuzz.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "xsa/usecases.hpp"

namespace perfbench {
namespace {

using namespace ii;

struct Verdict {
  bool completed = false;
  bool err_state = false;
  bool violation = false;
  bool handled = false;

  friend bool operator==(const Verdict&, const Verdict&) = default;
};

std::string to_string(const Verdict& v) {
  return std::string{"completed="} + (v.completed ? "1" : "0") +
         " err_state=" + (v.err_state ? "1" : "0") +
         " violation=" + (v.violation ? "1" : "0") +
         " handled=" + (v.handled ? "1" : "0");
}

std::string cell_key(const std::string& use_case, hv::XenVersion version,
                     core::Mode mode) {
  return use_case + "@" + version.to_string() + "/" + core::to_string(mode);
}

/// The verdict table: one line per cell, "use_case version mode completed
/// err_state violation handled source", '#' starts a comment.
std::map<std::string, Verdict> load_verdicts(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot read verdict table " + path};
  std::map<std::string, Verdict> table;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::string use_case, version, mode;
    int completed = 0, err_state = 0, violation = 0, handled = 0;
    if (!(fields >> use_case >> version >> mode >> completed >> err_state >>
          violation >> handled)) {
      throw std::runtime_error{"malformed verdict line: " + line};
    }
    table[use_case + "@" + version + "/" + mode] =
        Verdict{completed != 0, err_state != 0, violation != 0, handled != 0};
  }
  return table;
}

struct Cell {
  std::size_t use_case = 0;
  hv::XenVersion version{};
  core::Mode mode{};
  std::string key;
  Verdict expected;
};

guest::PlatformConfig cell_platform(const core::CampaignConfig& config,
                                    hv::XenVersion version, core::Mode mode) {
  // What Campaign::run_cell leases for the cell: the pool key is
  // (version, injector_enabled).
  guest::PlatformConfig pc = config.platform;
  pc.version = version;
  pc.injector_enabled = mode == core::Mode::Injection;
  pc.trace_sink = nullptr;
  return pc;
}

/// Cell order of one measured round: the matrix shuffled by (seed, round).
std::vector<std::size_t> round_order(std::size_t n, std::uint64_t seed,
                                     std::uint64_t round) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng = core::rng_for(seed, round);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[core::draw_below(rng, i)]);
  }
  return order;
}

class CampaignMatrix {
 public:
  CampaignMatrix(const Args& args, Report& report)
      : args_{args}, report_{report}, campaign_{config_} {
    use_cases_ = xsa::make_paper_use_cases();
    for (auto& extension : xsa::make_extension_use_cases()) {
      use_cases_.push_back(std::move(extension));
    }
    const std::map<std::string, Verdict> table = load_verdicts(args.verdicts);
    for (std::size_t u = 0; u < use_cases_.size(); ++u) {
      for (const hv::XenVersion version : config_.versions) {
        for (const core::Mode mode : config_.modes) {
          Cell cell{u, version, mode,
                    cell_key(use_cases_[u]->name(), version, mode), {}};
          const auto it = table.find(cell.key);
          if (it == table.end()) {
            throw std::runtime_error{"no verdict for cell " + cell.key};
          }
          cell.expected = it->second;
          cells_.push_back(std::move(cell));
        }
      }
    }
  }

  [[nodiscard]] std::uint64_t machine_frames() const {
    return config_.platform.machine_frames;
  }

  /// Boot and baseline the matrix's six machines into an empty pool.
  /// Returns the CPU seconds taken; each machine's wall-clock boot time goes
  /// to `boot_s`.
  double fill_pool(std::vector<double>& boot_s) {
    pool_.clear();
    const double cpu0 = process_cpu_s();
    for (const hv::XenVersion version : config_.versions) {
      for (const core::Mode mode : config_.modes) {
        const Clock::time_point t0 = Clock::now();
        (void)pool_.lease(cell_platform(config_, version, mode));
        boot_s.push_back(seconds_between(t0, Clock::now()));
      }
    }
    return process_cpu_s() - cpu0;
  }

  void check(const Cell& cell, const Verdict& got, const std::string& failure) {
    report_.attempted(1);
    if (!failure.empty()) {
      report_.failed(1, cell.key + " failed: " + failure);
    } else if (!(got == cell.expected)) {
      report_.failed(1, cell.key + ": " + to_string(got) + ", expected " +
                            to_string(cell.expected));
    }
  }

  /// CPU and wall time of every cell and CPU-clock throughput of every
  /// round measured so far.
  struct Measured {
    std::vector<double> cell_cpu_s, cell_wall_s, round_rate;
    double wall_s = 0;
  };

  /// Run whole rounds through Campaign::run_cell until `seconds` have passed
  /// on the wall clock (at least one round), appending to `m`. Shuffled
  /// rounds are numbered on from the rounds `m` already holds.
  void measure(double seconds, bool shuffle, Measured& m) {
    const Clock::time_point start = Clock::now();
    for (std::uint64_t round = 1 + m.round_rate.size();; ++round) {
      const std::vector<std::size_t> order =
          shuffle ? round_order(cells_.size(), args_.seed, round)
                  : round_order(cells_.size(), 0, 0);
      const double round_cpu0 = process_cpu_s();
      for (const std::size_t i : order) {
        const Cell& cell = cells_[i];
        const double cpu0 = process_cpu_s();
        const Clock::time_point t0 = Clock::now();
        const core::CellResult r = campaign_.run_cell(
            *use_cases_[cell.use_case], cell.version, cell.mode, pool_);
        m.cell_wall_s.push_back(seconds_between(t0, Clock::now()));
        m.cell_cpu_s.push_back(process_cpu_s() - cpu0);
        check(cell, {r.outcome.completed, r.err_state, r.violation,
                     r.handled()},
              r.failure);
      }
      m.round_rate.push_back(static_cast<double>(order.size()) /
                             (process_cpu_s() - round_cpu0));
      if (!shuffle || seconds_between(start, Clock::now()) >= seconds) break;
    }
    m.wall_s += seconds_between(start, Clock::now());
  }

  /// The cell's attempt and its two monitor checks, as run_cell runs them.
  /// `attempt_end` is set when the attempt returns; an escaped exception is
  /// the cell's `failure`.
  Verdict attempt(const Cell& cell, guest::VirtualPlatform& platform,
                  std::string& failure, Clock::time_point& attempt_end) {
    core::UseCase& use_case = *use_cases_[cell.use_case];
    Verdict got;
    try {
      const core::CaseOutcome outcome =
          cell.mode == core::Mode::Exploit ? use_case.run_exploit(platform)
                                           : use_case.run_injection(platform);
      attempt_end = Clock::now();
      got.completed = outcome.completed;
      got.err_state = use_case.erroneous_state_present(platform);
      got.violation = use_case.security_violation(platform);
      got.handled = got.err_state && !got.violation;
    } catch (const std::exception& e) {
      failure = e.what();
    }
    return got;
  }

  /// The cell's trace sink, built as run_cell builds it: the campaign's
  /// ring capacity and budget, and a ring that captures the categories in
  /// `mask` (run_cell's mask is 0: only the counters advance).
  [[nodiscard]] std::unique_ptr<obs::TraceSink> cell_sink(
      std::uint32_t mask) const {
    auto sink = std::make_unique<obs::TraceSink>(config_.trace_capacity, mask);
    sink->set_budget(config_.max_cell_hypercalls, config_.max_cell_steps);
    return sink;
  }

  /// Hypercalls the matrix's cells issue and how many of them the
  /// hypervisor refused (nonzero rc), from one untimed round in matrix
  /// order whose sinks keep every hypercall exit in their ring.
  struct Refusals {
    std::uint64_t hypercalls = 0, refused = 0;
  };

  Refusals count_refusals() {
    Refusals out;
    for (const Cell& cell : cells_) {
      const auto sink =
          cell_sink(obs::category_bit(obs::TraceCategory::HypercallExit));
      core::PlatformPool::Entry& entry =
          pool_.lease(cell_platform(config_, cell.version, cell.mode));
      guest::VirtualPlatform& platform = *entry.platform;
      platform.hv().set_trace_sink(sink.get());
      std::string failure;
      Clock::time_point attempt_end;
      const Verdict got = attempt(cell, platform, failure, attempt_end);
      platform.hv().set_trace_sink(nullptr);
      platform.restore(entry.baseline);
      check(cell, got, failure);
      if (sink->ring().overwritten() != 0) {
        throw std::runtime_error{"hypercall exits of " + cell.key +
                                 " overflowed the trace ring"};
      }
      out.hypercalls += sink->count(obs::TraceCategory::HypercallEnter);
      for (const obs::TraceEvent& e : sink->ring().snapshot()) {
        out.refused += e.rc != 0 ? 1 : 0;
      }
    }
    return out;
  }

  /// Per-call spans of traced cells, rebuilt from the public calls
  /// run_cell makes: the cell's trace sink, lease, attempt, the two monitor
  /// checks, restore.
  struct TracedTotals {
    std::uint64_t cells = 0;
    double wall_s = 0, sink_s = 0, lease_s = 0, attempt_s = 0,
           monitor_s = 0, restore_s = 0;
    std::vector<double> attempt_samples;
    std::uint64_t hypercalls = 0;
    std::uint64_t frames_copied = 0, frames_rehashed = 0, hash_calls = 0;
  };

  TracedTotals measure_traced(double seconds) {
    TracedTotals t;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t round = 1;; ++round) {
      for (const std::size_t i :
           round_order(cells_.size(), args_.seed, round)) {
        const Cell& cell = cells_[i];
        const Clock::time_point t0 = Clock::now();
        auto sink = cell_sink(0);
        const Clock::time_point t_sink = Clock::now();

        core::PlatformPool::Entry& entry =
            pool_.lease(cell_platform(config_, cell.version, cell.mode));
        const Clock::time_point t1 = Clock::now();
        guest::VirtualPlatform& platform = *entry.platform;
        platform.hv().reset_snapshot_stats();
        platform.hv().set_trace_sink(sink.get());

        std::string failure;
        const Clock::time_point t2 = Clock::now();
        Clock::time_point t3 = t2;
        const Verdict got = attempt(cell, platform, failure, t3);
        const Clock::time_point t4 = Clock::now();
        if (!failure.empty()) t3 = t4;
        platform.hv().set_trace_sink(nullptr);
        platform.restore(entry.baseline);
        const Clock::time_point t5 = Clock::now();

        const hv::SnapshotStats& stats = platform.hv().snapshot_stats();
        t.frames_copied += stats.frames_copied;
        t.frames_rehashed += stats.frames_rehashed;
        t.hash_calls += stats.hash_calls;
        t.hypercalls += sink->count(obs::TraceCategory::HypercallEnter);
        const Clock::time_point t6 = Clock::now();
        (void)obs::sink_metrics(*sink);
        sink.reset();
        const Clock::time_point t7 = Clock::now();
        ++t.cells;
        t.sink_s += seconds_between(t0, t_sink) + seconds_between(t6, t7);
        t.lease_s += seconds_between(t_sink, t1);
        t.attempt_s += seconds_between(t2, t3);
        t.attempt_samples.push_back(seconds_between(t2, t3));
        t.monitor_s += seconds_between(t3, t4);
        t.restore_s += seconds_between(t4, t5);
        t.wall_s += seconds_between(t0, t5) + seconds_between(t6, t7);
        check(cell, got, failure);
      }
      if (seconds_between(start, Clock::now()) >= seconds) break;
    }
    return t;
  }

  /// Probe the layers on the pooled 4.6 injection machine.
  LayerProbes probe() {
    core::PlatformPool::Entry& entry =
        pool_.lease(cell_platform(config_, hv::kXen46, core::Mode::Injection));
    guest::VirtualPlatform& platform = *entry.platform;
    return probe_layers(platform.hv(), platform.guest(0).id(),
                        [&] { (void)platform.restore(entry.baseline); });
  }

  [[nodiscard]] std::size_t cells_per_round() const { return cells_.size(); }

 private:
  const Args& args_;
  Report& report_;
  core::CampaignConfig config_{};
  core::Campaign campaign_;
  std::vector<std::unique_ptr<core::UseCase>> use_cases_;
  std::vector<Cell> cells_;
  core::PlatformPool pool_;
};

}  // namespace

void run_campaign_matrix(const Args& args, Report& report) {
  CampaignMatrix matrix{args, report};
  report.set_machine_frames(matrix.machine_frames());

  // Set-up: boot and baseline the six pooled machines. It is repeated, so
  // the reported set-up time is a median, and each pool takes an equal
  // share of the measurement: a cell's cost varies by several percent with
  // where a pool's memory landed, and rotating pools averages that out.
  const unsigned pools = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::vector<double> boot_s;
  CampaignMatrix::Measured run;
  for (unsigned p = 0; p < pools; ++p) {
    setup_s.push_back(matrix.fill_pool(boot_s));
    // One warm-up round in matrix order, checked like every other round.
    CampaignMatrix::Measured warmup;
    matrix.measure(0, /*shuffle=*/false, warmup);
    matrix.measure(static_cast<double>(args.seconds) / pools,
                   /*shuffle=*/true, run);
  }
  const std::vector<double>& cell_s = run.cell_wall_s;
  const double wall_s = run.wall_s;
  const std::uint64_t cells = cell_s.size();
  const Fields cell_fields{
      {"samples", std::to_string(cells)},
      {"rounds", std::to_string(cells / matrix.cells_per_round())},
      {"clock", json_string("wall")}};

  if (!args.trace) {
    // Rounds switch between a fast and a slow state of the host within
    // seconds, and the share of rounds in the fast state varied from run to
    // run: over ten runs the median round rate spread by 0.10 to 0.28 of its
    // median, the slowest-decile rate by about 0.07. units_per_s is
    // therefore the 0.1 quantile of round rates, over hundreds of rounds.
    emit_end_to_end(report, setup_s, run.round_rate, 0.1, run.cell_cpu_s,
                    "process cpu");
    report.row("campaign.round_p50_cells_per_s", median(run.round_rate),
               "cells/s", "e2e",
               {{"samples", std::to_string(run.round_rate.size())},
                {"clock", json_string("process cpu")}});
    report.row("campaign.cells_per_s", static_cast<double>(cells) / wall_s,
               "cells/s", "e2e", cell_fields);
    report.row("campaign.cell_p50_us", median(cell_s) * 1e6, "us", "e2e",
               cell_fields);
    report.row("campaign.cell_p99_us", quantile(cell_s, 0.99) * 1e6, "us",
               "e2e", cell_fields);
    return;
  }

  // Traced pass: the same rounds rebuilt from run_cell's public calls.
  const CampaignMatrix::Refusals refusals = matrix.count_refusals();
  const CampaignMatrix::TracedTotals t = matrix.measure_traced(args.seconds);
  const LayerProbes probes = matrix.probe();
  const double n = static_cast<double>(t.cells);
  const auto share = [&](double layer_s) {
    return json_number(layer_s / t.wall_s);
  };
  const std::string base = json_string("traced cell wall time");
  const Fields per_cell{{"samples", std::to_string(t.cells)},
                        {"base", base}};

  report.row("obs.sink.us", t.sink_s / n * 1e6, "us", "span",
             {{"share", share(t.sink_s)}, {"base", base},
              {"note", json_string("the cell's TraceSink: construct, "
                                   "sink_metrics, destroy")}});
  report.row("core.lease.us", t.lease_s / n * 1e6, "us", "span",
             {{"share", share(t.lease_s)}, {"base", base}});
  report.row("xsa.attempt.us_p50", median(t.attempt_samples) * 1e6, "us",
             "span", {{"share", share(t.attempt_s)}, {"base", base}});
  report.row("xsa.attempt.us_p99", quantile(t.attempt_samples, 0.99) * 1e6,
             "us", "span", per_cell);
  report.row("core.monitor.us", t.monitor_s / n * 1e6, "us", "span",
             {{"share", share(t.monitor_s)}, {"base", base}});
  report.row("hv.hash.calls_per_unit", static_cast<double>(t.hash_calls) / n,
             "count", "count", per_cell);

  const double explained_s =
      t.sink_s + t.lease_s + t.attempt_s + t.monitor_s + t.restore_s;
  double untraced_cell_s = 0;
  for (const double c : cell_s) untraced_cell_s += c;
  untraced_cell_s /= static_cast<double>(cells);
  const double hash_calls = static_cast<double>(t.hash_calls) / n;
  LayerMetrics m;
  m.hash_us = {probes.hash_s * 1e6, "probe",
               {{"calls_per_unit", json_number(hash_calls)},
                {"note", json_string("estimate; warm cells never hash")}}};
  m.rewind_us = {t.restore_s / n * 1e6, "span",
                 {{"share", share(t.restore_s)}, {"base", base}}};
  m.audit_us = {probes.audit_s * 1e6, "probe",
                {{"note", json_string("estimate; audits run inside the "
                                      "attempt and monitor spans")}}};
  m.validate_us = {probes.validate_s * 1e6, "probe",
                   {{"note", json_string("estimate; hypercalls run inside "
                                         "the attempt span")}}};
  m.walk_ns = {probes.walk_s * 1e9, "probe"};
  m.boot_ms = {median(boot_s) * 1e3, "span",
               {{"samples", std::to_string(boot_s.size())},
                {"note", json_string("VirtualPlatform + baseline()")}}};
  m.hash_frames_rehashed_per_unit = {
      static_cast<double>(t.frames_rehashed) / n, "count", per_cell};
  m.rewind_frames_per_unit = {static_cast<double>(t.frames_copied) / n,
                              "count", per_cell};
  m.validate_calls_per_unit = {static_cast<double>(t.hypercalls) / n, "count",
                               per_cell};
  m.validate_refused_ratio = {
      refusals.hypercalls == 0
          ? 0.0
          : static_cast<double>(refusals.refused) /
                static_cast<double>(refusals.hypercalls),
      "count",
      {{"base", json_string("hypercalls of one untimed round whose sinks "
                            "keep every hypercall exit")}}};
  m.hash_share = {hash_calls * probes.hash_s * n / t.wall_s, "probe",
                  {{"base", base}}};
  m.rewind_share = {t.restore_s / t.wall_s, "span", {{"base", base}}};
  m.unexplained_share = {1.0 - explained_s / t.wall_s, "span",
                         {{"base", base}}};
  m.trace_overhead = {(t.wall_s / n) / untraced_cell_s, "span",
                      {{"untraced_cell_us", json_number(untraced_cell_s * 1e6)},
                       {"traced_cell_us", json_number(t.wall_s / n * 1e6)}}};
  emit_layer_metrics(report, m);
}

}  // namespace perfbench
