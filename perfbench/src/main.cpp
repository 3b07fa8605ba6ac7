// Benchmark of the three drivers of the intrusion-injection stack: the
// campaign, the sequence fuzzer and the bounded model checker.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch-dir DIR] [--verdicts FILE]
//             [--git-sha SHA] [--src-digest HEX]
//
// Workloads: campaign_matrix, fuzz_guided, check_d4_t1, check_d4_t4 (see
// README.md). Every measured quantity is printed as a BENCH_ROW JSON line;
// the last line is the result object with the metrics BENCHMARK.json names
// for the mode (--trace 0: end-to-end, --trace 1: per layer). Exit status
// is 0 only when every output check passed. --scratch-dir names an existing
// private directory for the files a run writes (the traced fuzz corpus);
// the caller creates it uniquely and removes it afterwards.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::fputs(
      "usage: perfbench --workload campaign_matrix|fuzz_guided|check_d4_t1|"
      "check_d4_t4 --seed N --seconds S --trace 0|1 [--scratch-dir DIR] "
      "[--verdicts FILE] [--git-sha SHA] [--src-digest HEX]\n",
      stderr);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[++i] : nullptr;
    if (value == nullptr) return usage();
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      args.seed = n;
    } else if (flag == "--seconds" && parse_u64(value, n) && n >= 1 &&
               n <= 600) {
      args.seconds = static_cast<unsigned>(n);
    } else if (flag == "--trace" && parse_u64(value, n) && n <= 1) {
      args.trace = n == 1;
    } else if (flag == "--scratch-dir") {
      args.scratch_dir = value;
    } else if (flag == "--verdicts") {
      args.verdicts = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--src-digest") {
      args.src_digest = value;
    } else {
      return usage();
    }
  }

  perfbench::Report report{args};
  try {
    if (args.workload == "campaign_matrix") {
      perfbench::run_campaign_matrix(args, report);
    } else if (args.workload == "fuzz_guided") {
      perfbench::run_fuzz_guided(args, report);
    } else if (args.workload == "check_d4_t1") {
      perfbench::run_check_d4(args, 1, report);
    } else if (args.workload == "check_d4_t4") {
      perfbench::run_check_d4(args, 4, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  return report.finish();
}
