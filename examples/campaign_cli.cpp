// Command-line campaign runner — the shape of the "open-source list of
// tests and experiments covering various Intrusion Models" the paper's
// conclusion calls for.
//
// Usage:
//   campaign_cli [--version 4.6|4.8|4.13] [--mode exploit|injection]
//                [--case NAME] [--csv] [--trace FILE.jsonl] [--list]
//                [--threads N] [--retries N] [--quarantine N]
//                [--budget N] [--steps N] [--recover] [--deterministic]
//                [--journal FILE.jsonl] [--resume]
//                [--profile] [--profile-wall] [--metrics-out FILE]
//                [--chrome-trace FILE] [--status-port N] [--status-hold SEC]
//                [--chaos-seed N] [--chaos-plan SPEC] [--chaos-log FILE]
//                [--backoff-us N]
//
// With no arguments it runs the full paper matrix and prints the RQ1 and
// Table III reports. --trace captures the full per-cell event stream and
// writes it as JSONL (one {"type":"trace",...} line per event, tagged with
// its cell, then one final {"type":"metrics",...} aggregate line).
//
// The robustness flags route the run through the CampaignSupervisor:
// --retries re-runs failed cells, --quarantine skips a use case after N
// consecutive failures, --budget/--steps bound each cell's hypercalls and
// trace steps, --recover triggers ReHype-style hypervisor recovery after a
// failed cell, and --journal/--resume make the campaign resumable — a
// killed run picks up where it left off and reproduces the identical
// report (byte-identical CSV with --deterministic).
//
// Telemetry (DESIGN.md §13):
//   --profile       print the deterministic span profile — per-cell
//                   acquire/restore/inject/monitor/recover work plus the
//                   supervisor's retry/quarantine/journal accounting;
//                   byte-identical at any --threads
//   --profile-wall  same tree with wall time and scheduling-dependent spans
//   --metrics-out   append the campaign-wide metrics aggregate as JSONL
//   --chrome-trace  write a Chrome trace-event JSON of every span instance
//   --status-port   serve /status and /metrics over TCP while the campaign
//                   runs (port 0 picks an ephemeral port, printed to stderr)
//   --status-hold   keep the status server up SEC seconds after the run
//                   finishes (CI smoke tests poll it)
//
// Chaos (DESIGN.md §14): --chaos-seed + --chaos-plan arm the deterministic
// fault-injection engine against the harness itself. A plan is a comma
// list of "point=permille" rates and "point@occurrence" single shots over
// the registered chaos points (see chaos.cpp). Same seed + same plan =>
// byte-identical fault schedule; --chaos-log writes that schedule after
// the run (including a killed one). A supervisor.kill fault exits with
// status 3 — the journal is intact and --resume continues the campaign.
// --backoff-us sets the supervisor's retry backoff base delay.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/chaos.hpp"
#include "core/report.hpp"
#include "core/supervisor.hpp"
#include "net/status_server.hpp"
#include "obs/jsonl.hpp"
#include "obs/span.hpp"
#include "obs/status.hpp"
#include "parse_unsigned.hpp"
#include "xsa/usecases.hpp"

namespace {

using namespace ii;

std::vector<std::unique_ptr<core::UseCase>> all_cases() {
  auto cases = xsa::make_paper_use_cases();
  for (auto& extension : xsa::make_extension_use_cases()) {
    cases.push_back(std::move(extension));
  }
  return cases;
}

int usage() {
  std::puts(
      "usage: campaign_cli [--version 4.6|4.8|4.13] [--mode "
      "exploit|injection] [--case NAME] [--csv] [--trace FILE.jsonl] "
      "[--list]\n"
      "                    [--threads N] [--retries N] [--quarantine N] "
      "[--budget N] [--steps N]\n"
      "                    [--recover] [--deterministic] [--journal "
      "FILE.jsonl] [--resume] [--preflight]\n"
      "                    [--profile] [--profile-wall] [--metrics-out FILE] "
      "[--chrome-trace FILE]\n"
      "                    [--status-port N] [--status-hold SEC]\n"
      "                    [--chaos-seed N] [--chaos-plan SPEC] [--chaos-log "
      "FILE] [--backoff-us N]");
  return 2;
}

/// Stable cell tag for trace lines: "<use_case>@<version>/<mode>".
std::string cell_tag(const core::CellResult& cell) {
  return cell.use_case + "@" + cell.version.to_string() + "/" +
         to_string(cell.mode);
}

}  // namespace

int main(int argc, char** argv) {
  core::CampaignConfig config{};
  core::SupervisorConfig supervision{};
  std::string only_case;
  std::string trace_path;
  bool csv = false;
  bool preflight = false;
  bool show_profile = false;
  bool show_profile_wall = false;
  std::string metrics_out;
  std::string chrome_trace;
  bool status_port_set = false;
  std::uint16_t status_port = 0;
  unsigned status_hold = 0;
  bool chaos_armed = false;
  std::uint64_t chaos_seed = 0;
  std::string chaos_plan_spec;
  std::string chaos_log_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric flag lands straight in its field through the shared
    // range-checked parser: a sign, trailing characters or a value past
    // the field's maximum is a usage error, never a wrapped value.
    const auto number = [&](auto* out) {
      const char* v = next();
      return v != nullptr && cli::parse_unsigned(v, out);
    };
    if (arg == "--list") {
      for (const auto& use_case : all_cases()) {
        std::printf("%-14s %s\n", use_case->name().c_str(),
                    use_case->model().describe().c_str());
      }
      return 0;
    }
    if (arg == "--version") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (std::strcmp(v, "4.6") == 0) {
        config.versions = {hv::kXen46};
      } else if (std::strcmp(v, "4.8") == 0) {
        config.versions = {hv::kXen48};
      } else if (std::strcmp(v, "4.13") == 0) {
        config.versions = {hv::kXen413};
      } else {
        return usage();
      }
    } else if (arg == "--mode") {
      const char* m = next();
      if (m == nullptr) return usage();
      if (std::strcmp(m, "exploit") == 0) {
        config.modes = {core::Mode::Exploit};
      } else if (std::strcmp(m, "injection") == 0) {
        config.modes = {core::Mode::Injection};
      } else {
        return usage();
      }
    } else if (arg == "--case") {
      const char* c = next();
      if (c == nullptr) return usage();
      only_case = c;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--trace") {
      const char* t = next();
      if (t == nullptr) return usage();
      trace_path = t;
      config.capture_trace = true;
    } else if (arg == "--threads") {
      if (!number(&supervision.threads) || supervision.threads == 0) {
        return usage();
      }
    } else if (arg == "--retries") {
      // --retries N means "N retries after the first attempt".
      const char* v = next();
      std::uint64_t n = 0;
      if (v == nullptr ||
          !cli::parse_unsigned(v, std::numeric_limits<unsigned>::max() - 1,
                               &n)) {
        return usage();
      }
      supervision.max_attempts = static_cast<unsigned>(n) + 1;
    } else if (arg == "--quarantine") {
      if (!number(&supervision.quarantine_after)) return usage();
    } else if (arg == "--budget") {
      if (!number(&config.max_cell_hypercalls)) return usage();
    } else if (arg == "--steps") {
      if (!number(&config.max_cell_steps)) return usage();
    } else if (arg == "--recover") {
      config.attempt_recovery = true;
    } else if (arg == "--deterministic") {
      config.logical_time = true;
    } else if (arg == "--journal") {
      const char* j = next();
      if (j == nullptr) return usage();
      supervision.journal_path = j;
    } else if (arg == "--resume") {
      supervision.resume = true;
    } else if (arg == "--preflight") {
      preflight = true;
    } else if (arg == "--profile") {
      show_profile = true;
    } else if (arg == "--profile-wall") {
      show_profile_wall = true;
    } else if (arg == "--metrics-out") {
      const char* m = next();
      if (m == nullptr) return usage();
      metrics_out = m;
    } else if (arg == "--chrome-trace") {
      const char* c = next();
      if (c == nullptr) return usage();
      chrome_trace = c;
    } else if (arg == "--status-port") {
      if (!number(&status_port)) return usage();
      status_port_set = true;
    } else if (arg == "--status-hold") {
      if (!number(&status_hold)) return usage();
    } else if (arg == "--chaos-seed") {
      if (!number(&chaos_seed)) return usage();
      chaos_armed = true;
    } else if (arg == "--chaos-plan") {
      const char* c = next();
      if (c == nullptr) return usage();
      chaos_plan_spec = c;
      chaos_armed = true;
    } else if (arg == "--chaos-log") {
      const char* c = next();
      if (c == nullptr) return usage();
      chaos_log_path = c;
    } else if (arg == "--backoff-us") {
      if (!number(&supervision.retry_backoff_us)) return usage();
    } else {
      return usage();
    }
  }

  // The remaining usage errors, reported before any work: no status port
  // is bound and no preflight check runs for a command line that cannot
  // start its campaign.
  if (supervision.resume && supervision.journal_path.empty()) {
    std::fprintf(stderr, "--resume requires --journal FILE\n");
    return 2;
  }
  if (!only_case.empty()) {
    bool known = false;
    for (const auto& use_case : all_cases()) {
      if (use_case->name() == only_case) known = true;
    }
    if (!known) {
      std::fprintf(stderr, "unknown use case '%s' (try --list)\n",
                   only_case.c_str());
      return 2;
    }
  }
  std::unique_ptr<core::ChaosEngine> chaos;
  if (chaos_armed) {
    try {
      chaos = std::make_unique<core::ChaosEngine>(
          chaos_seed, core::parse_chaos_plan(chaos_plan_spec));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --chaos-plan: %s\n", e.what());
      return 2;
    }
  }

  // Telemetry plane: the profiler aggregates deterministic span trees, the
  // status board feeds the live /status + /metrics endpoints. Both are
  // opt-in; with the flags off every instrumentation site in the engine
  // stays a single untaken branch.
  obs::SpanProfiler profiler;
  obs::StatusBoard board;
  const bool want_profile = show_profile || show_profile_wall ||
                            !chrome_trace.empty() || !trace_path.empty();
  if (want_profile) {
    profiler.set_record_events(!chrome_trace.empty());
    config.profiler = &profiler;
  }

  // /metrics serves the campaign-wide aggregate once the run has finished
  // (board gauges are live throughout); shared with the server thread.
  auto metrics_mu = std::make_shared<std::mutex>();
  auto final_metrics = std::make_shared<obs::MetricsSnapshot>();
  std::unique_ptr<net::TcpStatusServer> server;
  if (status_port_set) {
    config.status = &board;
    net::MetricsProvider provider = [metrics_mu, final_metrics] {
      const std::lock_guard<std::mutex> lock{*metrics_mu};
      return *final_metrics;
    };
    server = std::make_unique<net::TcpStatusServer>(status_port, &board,
                                                    std::move(provider));
    if (!server->running()) {
      std::fprintf(stderr, "cannot listen on status port %u\n",
                   static_cast<unsigned>(status_port));
      return 1;
    }
    std::fprintf(stderr, "campaign_cli: status server on port %u\n",
                 server->port());
  }
  const auto hold_status = [&] {
    if (server != nullptr && status_hold != 0) {
      std::this_thread::sleep_for(std::chrono::seconds{status_hold});
    }
  };

  // Model-check every configured version policy (depth 2) before burning
  // time on cells: a policy that disagrees with its expectation makes the
  // campaign's verdicts meaningless, so refuse to start.
  if (preflight) {
    // Shard the checker over the campaign's worker count (--threads,
    // default 1); the verdict is thread-count independent.
    const core::PreflightReport report =
        core::Campaign{config}.preflight(/*depth=*/2, supervision.threads);
    for (const auto& v : report.versions) {
      std::printf(
          "preflight xen %-5s depth %u: %llu states, %llu violation(s)%s, "
          "expected %s -> %s\n",
          v.version.to_string().c_str(), report.depth,
          static_cast<unsigned long long>(v.states_explored),
          static_cast<unsigned long long>(v.violations_found),
          v.truncated ? " [TRUNCATED]" : "",
          v.expected_vulnerable ? "vulnerable" : "clean",
          v.ok() ? "ok" : "MISMATCH");
    }
    if (!report.ok()) {
      std::fprintf(stderr,
                   "preflight failed: version policy and validation engine "
                   "disagree; not running cells\n");
      return 1;
    }
  }

  // Open the export files up front so a bad path fails before the campaign
  // burns minutes running every cell.
  std::unique_ptr<obs::JsonlWriter> trace_writer;
  if (!trace_path.empty()) {
    trace_writer = std::make_unique<obs::JsonlWriter>(trace_path);
    if (!trace_writer->ok()) {
      std::fprintf(stderr, "cannot open trace file '%s'\n",
                   trace_path.c_str());
      return 1;
    }
  }
  std::unique_ptr<obs::JsonlWriter> metrics_writer;
  if (!metrics_out.empty()) {
    metrics_writer = std::make_unique<obs::JsonlWriter>(metrics_out);
    if (!metrics_writer->ok()) {
      std::fprintf(stderr, "cannot open metrics file '%s'\n",
                   metrics_out.c_str());
      return 1;
    }
  }

  // Everything runs through the supervisor; with default supervision knobs
  // it degenerates to the plain sequential campaign.
  const auto factory = [&only_case] {
    auto cases = all_cases();
    if (only_case.empty()) return cases;
    std::vector<std::unique_ptr<core::UseCase>> filtered;
    for (auto& use_case : cases) {
      if (use_case->name() == only_case) filtered.push_back(std::move(use_case));
    }
    return filtered;
  };

  // Arm the chaos engine for the whole run. The engine outlives the
  // supervisor call so the schedule log can be written even when a
  // supervisor.kill fault aborts the campaign.
  if (chaos != nullptr) core::ChaosEngine::install(chaos.get());
  const auto write_chaos_log = [&] {
    if (chaos == nullptr || chaos_log_path.empty()) return true;
    std::ofstream os{chaos_log_path, std::ios::trunc};
    os << chaos->schedule_log();
    if (!os) {
      std::fprintf(stderr, "cannot write chaos log '%s'\n",
                   chaos_log_path.c_str());
      return false;
    }
    return true;
  };

  const core::CampaignSupervisor supervisor{config, supervision};
  std::vector<core::CellResult> results;
  try {
    results = supervisor.run(factory);
  } catch (const core::CampaignKilled&) {
    // A supervisor.kill chaos fault: the journal holds every finished
    // cell, so a --resume run completes the campaign and reproduces the
    // fault-free report. Exit 3 tells harnesses (chaos_soak.sh) apart
    // from real failures.
    std::fprintf(stderr,
                 "campaign killed by chaos fault (resume with --journal + "
                 "--resume)\n");
    write_chaos_log();
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }
  if (!write_chaos_log()) return 1;

  // Campaign-wide aggregate: the deterministic merge of every cell's
  // metrics snapshot, in cell order.
  obs::MetricsRegistry aggregate;
  for (const auto& cell : results) aggregate.merge(cell.metrics);
  {
    // Publish the final aggregate to the status server's /metrics (it keeps
    // serving through --status-hold).
    const std::lock_guard<std::mutex> lock{*metrics_mu};
    *final_metrics = aggregate.snapshot();
  }

  if (trace_writer != nullptr) {
    for (const auto& cell : results) {
      trace_writer->events(cell.trace, cell_tag(cell));
    }
    trace_writer->metrics(aggregate.snapshot());
    // Span records ride along in the same export when profiling is on.
    if (config.profiler != nullptr) trace_writer->spans(profiler);
  }
  if (metrics_writer != nullptr) metrics_writer->metrics(aggregate.snapshot());
  if (!chrome_trace.empty()) {
    std::ofstream os{chrome_trace, std::ios::trunc};
    os << obs::chrome_trace_json(profiler) << '\n';
    if (!os) {
      std::fprintf(stderr, "cannot write chrome trace '%s'\n",
                   chrome_trace.c_str());
      return 1;
    }
  }
  if (show_profile) {
    std::fputs(obs::render_profile(profiler, false).c_str(), stdout);
  }
  if (show_profile_wall) {
    std::fputs(obs::render_profile(profiler, true).c_str(), stdout);
  }

  if (csv) {
    std::fputs(core::render_csv(results).c_str(), stdout);
    hold_status();
    return 0;
  }
  std::fputs(core::render_rq1_table(results).c_str(), stdout);
  std::fputs(core::render_table3(results).c_str(), stdout);
  std::puts("\ncampaign metrics:");
  std::fputs(core::render_metrics_summary(aggregate.snapshot()).c_str(),
             stdout);
  std::puts("\nper-cell notes:");
  for (const auto& cell : results) {
    std::printf("%-14s %-9s xen %-5s err=%d viol=%d attempts=%u%s%s%s\n",
                cell.use_case.c_str(), to_string(cell.mode).c_str(),
                cell.version.to_string().c_str(), cell.err_state,
                cell.violation, cell.attempts,
                cell.handled() ? " (handled)" : "",
                cell.recovered ? " (recovered)" : "",
                cell.quarantined ? " (quarantined)" : "");
    if (cell.failed()) {
      std::printf("    ! %s\n", cell.failure.c_str());
    }
    for (const auto& note : cell.outcome.notes) {
      std::printf("    | %s\n", note.c_str());
    }
  }
  std::fflush(stdout);
  hold_status();
  return 0;
}
