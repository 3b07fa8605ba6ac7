// fuzz_cli: the coverage-guided hypercall-sequence fuzzer, on the command
// line (paper §IV-C's randomized erroneous-state generation, grown into a
// feedback loop — DESIGN.md §17).
//
//   fuzz_cli --version 4.6 --seed 7 --iterations 500 --corpus-dir corpus/
//
// runs the guided fuzzer, prints the deterministic stats render (safe to
// cmp across runs at the same seed), ties every surviving erroneous state
// back to the §IV-D advisory taxonomy, and persists survivors + corpus as
// replayable trace files. Other modes:
//
//   --blind         disable the corpus/scheduler feedback (same iteration
//                   budget, fresh random trace every time) — the baseline
//                   the guided mode is benchmarked against
//   --replay FILE   re-execute a recorded trace file and verify it
//                   reproduces the recorded outcome/classes/state hash
//                   (exit 1 on divergence)
//   --no-minimize   keep survivors at their raw trace length
//   --coverage      dump the covered (context x frame type x branch) triples
//   --expect-novel  exit 1 unless at least one survivor is NOT covered by
//                   the paper's four XSA scenarios (the CI acceptance gate)
//
// --corpus-dir must be new or empty (exit 2 otherwise): runs never share
// trace files. A trace file that could not be written exits 4.
//
// --metrics-out writes one {"type":"metrics"} JSONL record. It holds only
// the run's counters, no wall time, so like stdout (--profile included)
// and the corpus bytes it is byte-identical across runs at one seed.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <system_error>

#include "core/fuzz.hpp"
#include "cvedb/advisories.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "parse_unsigned.hpp"

namespace {

int usage() {
  std::puts(
      "usage: fuzz_cli [--version 4.6|4.8|4.13] [--seed N] [--iterations N]\n"
      "                [--corpus-dir DIR] [--replay FILE] [--blind]\n"
      "                [--minimize] [--no-minimize] [--max-ops N]\n"
      "                [--machine-frames N] [--guest-pages N]\n"
      "                [--coverage] [--expect-novel] [--quiet]\n"
      "                [--profile] [--metrics-out FILE]");
  return 2;
}

/// One line per survivor tying its classes to the §IV-D study records.
void print_taxonomy(const ii::core::SeqFuzzStats& stats) {
  using ii::analysis::ErroneousStateClass;
  if (stats.survivors.empty()) return;
  std::puts("taxonomy:");
  for (std::size_t i = 0; i < stats.survivors.size(); ++i) {
    const ii::core::Survivor& s = stats.survivors[i];
    if (s.entry.classes.empty()) {
      std::printf("  #%zu: no classifiable post-state (%s) -- "
                  "not covered by the XSA scenarios\n",
                  i, ii::core::to_string(s.entry.outcome).c_str());
      continue;
    }
    for (const ErroneousStateClass c : s.entry.classes) {
      const ii::cvedb::AdvisoryRecord* rec = ii::cvedb::advisory_for_class(c);
      if (rec != nullptr) {
        std::printf("  #%zu: %s -> %s (%s): %s\n", i,
                    ii::analysis::to_string(c).c_str(), rec->xsa_id.c_str(),
                    rec->cve_id.c_str(), rec->summary.c_str());
      } else {
        std::printf("  #%zu: %s -> no covering advisory in the study "
                    "(candidate new intrusion model)\n",
                    i, ii::analysis::to_string(c).c_str());
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ii;

  core::SeqFuzzConfig config;
  // Small machine by default: the fuzzer reboots nothing (delta rewinds),
  // but every iteration walks the tables, so a 128 MiB machine would spend
  // the budget in the auditor instead of the validation engine.
  config.platform.machine_frames = 8192;
  config.platform.dom0_pages = 128;
  config.platform.guest_pages = 64;
  std::string replay_file;
  std::string metrics_out;
  bool show_coverage = false;
  bool expect_novel = false;
  bool quiet = false;
  bool show_profile = false;

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
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr || !cli::parse_unsigned(v, &config.seed)) return usage();
    } else if (arg == "--iterations") {
      const char* v = next();
      if (v == nullptr || !cli::parse_unsigned(v, &config.iterations)) {
        return usage();
      }
    } else if (arg == "--max-ops") {
      const char* v = next();
      if (v == nullptr || !cli::parse_unsigned(v, &config.max_ops) ||
          config.max_ops == 0) {
        return usage();
      }
    } else if (arg == "--machine-frames") {
      const char* v = next();
      if (v == nullptr ||
          !cli::parse_unsigned(v, &config.platform.machine_frames)) {
        return usage();
      }
    } else if (arg == "--guest-pages") {
      const char* v = next();
      if (v == nullptr ||
          !cli::parse_unsigned(v, &config.platform.guest_pages)) {
        return usage();
      }
    } else if (arg == "--corpus-dir") {
      const char* v = next();
      if (v == nullptr) return usage();
      config.corpus_dir = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return usage();
      replay_file = v;
    } else if (arg == "--blind") {
      config.guided = false;
    } else if (arg == "--minimize") {
      config.minimize = true;
    } else if (arg == "--no-minimize") {
      config.minimize = false;
    } else if (arg == "--coverage") {
      show_coverage = true;
    } else if (arg == "--expect-novel") {
      expect_novel = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--profile") {
      show_profile = true;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return usage();
      metrics_out = v;
    } else {
      return usage();
    }
  }

  obs::SpanProfiler profiler;
  obs::MetricsRegistry metrics;
  config.profiler = &profiler;
  config.metrics = &metrics;

  try {
    if (!replay_file.empty()) {
      // Replay mode: a recorded trace must reproduce its recorded result.
      hv::XenVersion recorded_version = config.version;
      const auto entry = core::load_trace_file(replay_file, &recorded_version);
      if (!entry) {
        std::fprintf(stderr, "fuzz_cli: cannot load %s\n",
                     replay_file.c_str());
        return 4;
      }
      config.version = recorded_version;
      const core::TraceResult result = core::replay_trace(config, entry->ops);
      if (!quiet) {
        std::printf("replay %s: %zu ops on Xen %s\n", replay_file.c_str(),
                    entry->ops.size(), recorded_version.to_string().c_str());
        std::printf("  recorded: %s, hash 0x%llx\n",
                    core::to_string(entry->outcome).c_str(),
                    static_cast<unsigned long long>(entry->state_hash));
        std::printf("  replayed: %s, hash 0x%llx\n",
                    core::to_string(result.outcome).c_str(),
                    static_cast<unsigned long long>(result.state_hash));
      }
      const bool match = result.outcome == entry->outcome &&
                         result.classes == entry->classes &&
                         result.state_hash == entry->state_hash;
      if (!match) std::fprintf(stderr, "fuzz_cli: replay diverged\n");
      return match ? 0 : 1;
    }

    if (!config.corpus_dir.empty()) {
      // Another run's files would be overwritten or mixed into this run's
      // corpus; a missing directory is created by the run.
      std::error_code ec;
      if (std::filesystem::exists(config.corpus_dir, ec) &&
          !std::filesystem::is_empty(config.corpus_dir, ec)) {
        std::fprintf(stderr,
                     "fuzz_cli: --corpus-dir %s is not empty; give each run "
                     "its own directory\n",
                     config.corpus_dir.c_str());
        return 2;
      }
    }

    core::CoverageMap coverage;  // only for --coverage; run owns its map
    const core::SeqFuzzStats stats = core::run_sequence_fuzzer(config);
    if (!quiet) {
      std::fputs(stats.render().c_str(), stdout);
      print_taxonomy(stats);
    }
    if (show_coverage) {
      // The run's map is internal; rebuild one from the survivors so the
      // listing shows the triples the interesting traces exercise.
      for (const core::Survivor& s : stats.survivors) {
        (void)core::replay_trace(config, s.entry.ops, &coverage);
      }
      std::fputs(coverage.render().c_str(), stdout);
    }
    if (show_profile) {
      std::fputs(obs::render_profile(profiler, false).c_str(), stdout);
    }
    if (!metrics_out.empty()) {
      obs::JsonlWriter writer{metrics_out};
      if (!writer.ok()) {
        std::fprintf(stderr, "fuzz_cli: cannot write %s\n",
                     metrics_out.c_str());
        return 4;
      }
      writer.metrics(metrics.snapshot());
    }
    if (stats.corpus_write_failures != 0) {
      std::fprintf(stderr,
                   "fuzz_cli: %u trace file(s) could not be written to %s\n",
                   stats.corpus_write_failures, config.corpus_dir.c_str());
      return 4;
    }
    if (expect_novel && stats.novel_survivors() == 0) {
      std::fprintf(stderr,
                   "fuzz_cli: expected a survivor outside the four XSA "
                   "scenarios; found none\n");
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_cli: error: %s\n", e.what());
    return 4;
  }
  return 0;
}
