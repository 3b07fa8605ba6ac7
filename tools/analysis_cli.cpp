// Bounded model checker front end.
//
// Usage:
//   analysis_cli [--version 4.6|4.8|4.13] [--depth N] [--domains N]
//                [--domain-pages N] [--machine-frames N] [--grants]
//                [--max-states N] [--max-counterexamples N] [--threads N]
//                [--spill-dir DIR [--max-frontier-mb N]]
//                [--expect vulnerable|clean] [--allow-truncated]
//                [--stats] [--quiet]
//                [--profile] [--profile-wall] [--metrics-out FILE]
//                [--trace-out FILE] [--chrome-trace FILE] [--status-port N]
//
// Explores every guest-issuable operation sequence up to --depth against
// the selected version policy and prints which of the paper's erroneous
// states are reachable, with a minimal counterexample trace for each
// violating state. --threads partitions dedup admission over hash-owned
// shards (default: hardware concurrency); the report is byte-identical at
// any count. --max-frontier-mb caps the resident frontier (deterministic
// accounting of the queued op prefixes) and needs --spill-dir (exit 2
// without it): the records of states past the cap go to a file of their
// own, <dir>/frontier-XXXXXX.spill, and are read back when they pop. A
// capped run is serial whatever --threads says; its report and engine
// work are those of the uncapped serial run. Numeric flags take a decimal
// number that fits the setting (exit 2 otherwise).
//
// --expect turns the run into a CI gate:
//   --expect vulnerable  exit 0 iff at least one XSA class was reached
//   --expect clean       exit 0 iff no invariant violation exists at all
//                        AND the space was fully covered (a run truncated
//                        at --max-states fails unless --allow-truncated)
//
// Telemetry:
//   --profile       print the deterministic span profile (per-depth
//                   expand/audit work; byte-identical at any --threads)
//   --profile-wall  print the full profile with wall time and the
//                   scheduling-dependent produce/admit/settle/spill spans
//   --metrics-out   append one {"type":"metrics"} JSONL record of the
//                   checker counters
//   --trace-out     append {"type":"span"} JSONL records (tree + wall)
//   --chrome-trace  write a Chrome trace-event JSON (chrome://tracing)
//   --status-port   serve /status and /metrics over TCP while running
//                   (port 0 picks an ephemeral port, printed to stderr)
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>

#include "analysis/model_checker.hpp"
#include "net/status_server.hpp"
#include "obs/jsonl.hpp"
#include "obs/span.hpp"
#include "obs/status.hpp"
#include "parse_unsigned.hpp"

namespace {

int usage() {
  std::puts(
      "usage: analysis_cli [--version 4.6|4.8|4.13] [--depth N] "
      "[--domains N]\n"
      "                    [--domain-pages N] [--machine-frames N] "
      "[--grants]\n"
      "                    [--max-states N] [--max-counterexamples N] "
      "[--threads N]\n"
      "                    [--spill-dir DIR [--max-frontier-mb N]]\n"
      "                    [--expect vulnerable|clean] [--allow-truncated]\n"
      "                    [--stats] [--quiet]\n"
      "                    [--profile] [--profile-wall] [--metrics-out FILE]\n"
      "                    [--trace-out FILE] [--chrome-trace FILE]\n"
      "                    [--status-port N]");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ii;

  analysis::ModelCheckConfig config;
  config.threads = 0;  // hardware concurrency unless --threads says otherwise
  std::string expect;
  bool quiet = false;
  bool allow_truncated = false;
  bool show_stats = false;
  bool machine_frames_set = false;
  bool show_profile = false;
  bool show_profile_wall = false;
  std::string metrics_out;
  std::string trace_out;
  std::string chrome_trace;
  bool status_port_set = false;
  std::uint16_t status_port = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--version") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (std::strcmp(v, "4.6") == 0) {
        config.version = hv::kXen46;
      } else if (std::strcmp(v, "4.8") == 0) {
        config.version = hv::kXen48;
      } else if (std::strcmp(v, "4.13") == 0) {
        config.version = hv::kXen413;
      } else {
        return usage();
      }
    } else if (arg == "--depth") {
      const char* v = next();
      if (v == nullptr || !cli::parse_unsigned(v, &config.depth) ||
          config.depth == 0) {
        return usage();
      }
    } else if (arg == "--domains") {
      const char* v = next();
      if (v == nullptr || !cli::parse_unsigned(v, &config.guest_domains) ||
          config.guest_domains == 0) {
        return usage();
      }
    } else if (arg == "--domain-pages") {
      const char* v = next();
      if (v == nullptr || !cli::parse_unsigned(v, &config.domain_pages)) {
        return usage();
      }
    } else if (arg == "--machine-frames") {
      const char* v = next();
      if (v == nullptr || !cli::parse_unsigned(v, &config.machine_frames)) {
        return usage();
      }
      machine_frames_set = true;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr || !cli::parse_unsigned(v, &config.threads)) {
        return usage();
      }
    } else if (arg == "--max-states") {
      const char* v = next();
      if (v == nullptr || !cli::parse_unsigned(v, &config.max_states)) {
        return usage();
      }
    } else if (arg == "--max-counterexamples") {
      const char* v = next();
      if (v == nullptr ||
          !cli::parse_unsigned(v, &config.max_counterexamples)) {
        return usage();
      }
    } else if (arg == "--max-frontier-mb") {
      const char* v = next();
      // The byte count must fit 64 bits, or the budget would wrap to 0.
      std::uint64_t mb = 0;
      if (v == nullptr || !cli::parse_unsigned(v, UINT64_MAX >> 20, &mb) ||
          mb == 0) {
        return usage();
      }
      config.max_frontier_bytes = mb << 20;
    } else if (arg == "--spill-dir") {
      const char* v = next();
      if (v == nullptr) return usage();
      config.spill_dir = v;
    } else if (arg == "--grants") {
      config.include_grant_ops = true;
    } else if (arg == "--expect") {
      const char* v = next();
      if (v == nullptr) return usage();
      expect = v;
      if (expect != "vulnerable" && expect != "clean") return usage();
    } else if (arg == "--allow-truncated") {
      allow_truncated = true;
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--profile") {
      show_profile = true;
    } else if (arg == "--profile-wall") {
      show_profile_wall = true;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return usage();
      metrics_out = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return usage();
      trace_out = v;
    } else if (arg == "--chrome-trace") {
      const char* v = next();
      if (v == nullptr) return usage();
      chrome_trace = v;
    } else if (arg == "--status-port") {
      const char* v = next();
      if (v == nullptr || !cli::parse_unsigned(v, &status_port)) {
        return usage();
      }
      status_port_set = true;
    } else {
      return usage();
    }
  }
  if (config.max_frontier_bytes != 0 && config.spill_dir.empty()) {
    std::fputs("analysis_cli: --max-frontier-mb needs --spill-dir\n", stderr);
    return usage();
  }

  // Size the machine to the requested domains unless the user pinned it:
  // the 64-frame default fits xen + dom0 + one guest + exchange slack, and
  // a second guest would otherwise fail domain construction outright.
  if (!machine_frames_set) {
    const std::uint64_t need = 16 /*xen*/ + config.dom0_pages +
                               config.guest_domains * config.domain_pages +
                               16 /*exchange slack*/;
    if (need > config.machine_frames) config.machine_frames = need;
  }

  const bool want_profile = show_profile || show_profile_wall ||
                            !trace_out.empty() || !chrome_trace.empty();
  obs::SpanProfiler profiler;
  obs::StatusBoard board;
  if (want_profile) {
    profiler.set_record_events(!chrome_trace.empty());
    config.profiler = &profiler;
  }

  std::unique_ptr<net::TcpStatusServer> server;
  if (status_port_set) {
    config.status = &board;
    server = std::make_unique<net::TcpStatusServer>(status_port, &board,
                                                    net::MetricsProvider{});
    if (!server->running()) {
      std::fprintf(stderr, "analysis_cli: cannot listen on port %u\n",
                   static_cast<unsigned>(status_port));
      return 4;
    }
    std::fprintf(stderr, "analysis_cli: status server on port %u\n",
                 server->port());
  }

  analysis::ModelCheckResult result;
  try {
    result = analysis::run_model_check(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "analysis_cli: error: %s\n", e.what());
    return 4;
  }
  if (!quiet) {
    std::fputs(analysis::render_report(result).c_str(), stdout);
  }
  if (show_stats) {
    // Scheduling-dependent counters, kept off the default output so runs at
    // different --threads stay byte-identical.
    std::fputs(analysis::render_engine_stats(result).c_str(), stdout);
  }
  if (show_profile) {
    // Deterministic render only: safe next to render_report in cmp gates.
    std::fputs(obs::render_profile(profiler, false).c_str(), stdout);
  }
  if (show_profile_wall) {
    std::fputs(obs::render_profile(profiler, true).c_str(), stdout);
  }

  if (!metrics_out.empty()) {
    obs::JsonlWriter writer{metrics_out};
    if (!writer.ok()) {
      std::fprintf(stderr, "analysis_cli: cannot write %s\n",
                   metrics_out.c_str());
      return 4;
    }
    obs::MetricsSnapshot snapshot;
    snapshot.counters["check.states_explored"] = result.states_explored;
    snapshot.counters["check.ops_applied"] = result.ops_applied;
    snapshot.counters["check.states_deduped"] = result.states_deduped;
    snapshot.counters["check.failed_ops"] = result.failed_ops;
    snapshot.counters["check.violations_found"] = result.violations_found;
    snapshot.counters["check.truncated"] = result.truncated ? 1 : 0;
    snapshot.counters["snapshot.frames_copied"] = result.snapshot_frames_copied;
    snapshot.counters["hash.frames_rehashed"] = result.hash_frames_rehashed;
    snapshot.counters["checker.ops_executed"] = result.ops_executed;
    snapshot.counters["checker.peak_frontier_bytes"] =
        result.peak_frontier_bytes;
    snapshot.counters["checker.spilled_items"] = result.frontier_spilled_items;
    snapshot.counters["checker.spill_reloads"] = result.frontier_spill_reloads;
    snapshot.counters["checker.spill_bytes"] = result.frontier_spill_bytes;
    snapshot.counters["checker.cow_captures"] = result.cow_captures;
    snapshot.counters["checker.cow_frames_owned"] = result.cow_frames_copied;
    snapshot.counters["checker.cow_frames_shared"] = result.cow_frames_shared;
    for (std::size_t s = 0; s < result.shard_occupancy.size(); ++s) {
      snapshot.counters["checker.shard." + std::to_string(s) + ".visited"] =
          result.shard_occupancy[s];
    }
    writer.metrics(snapshot);
  }
  if (!trace_out.empty()) {
    obs::JsonlWriter writer{trace_out};
    if (!writer.ok()) {
      std::fprintf(stderr, "analysis_cli: cannot write %s\n",
                   trace_out.c_str());
      return 4;
    }
    writer.spans(profiler);
  }
  if (!chrome_trace.empty()) {
    std::ofstream os{chrome_trace, std::ios::trunc};
    os << obs::chrome_trace_json(profiler) << '\n';
    if (!os) {
      std::fprintf(stderr, "analysis_cli: cannot write %s\n",
                   chrome_trace.c_str());
      return 4;
    }
  }

  if (!expect.empty()) {
    const analysis::GateVerdict verdict =
        analysis::evaluate_expectation(result, expect, allow_truncated);
    std::fprintf(verdict.pass ? stdout : stderr, "%s\n",
                 verdict.message.c_str());
    return verdict.pass ? 0 : 1;
  }
  return result.clean() ? 0 : 3;
}
