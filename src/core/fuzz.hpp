// Randomized erroneous-state injection (paper §IV-C):
//
//   "Relevant erroneous states can be difficult to be designed by a tester.
//    ... One possibility is to randomize inputs to an injector, creating an
//    approach that resembles fuzzing testing but in another level of
//    interaction, in a post-attack phase."
//
// run_sequence_fuzzer implements that suggestion as a coverage-guided
// engine (DESIGN.md §17). Iterations execute *hypercall traces* —
// sequences of hv::GuestOp spanning the whole guest-issuable surface plus
// the injector, the vocabulary the model checker enumerates — against a
// warm platform. Between runs it is rewound to its boot baseline, and the
// rewind and the state hash cost what the trace dirtied, not the machine
// size (hv/snapshot.cpp, DESIGN.md §10). A CoverageMap keyed on (op kind ×
// frame type × validation branch) is fed by a hv::CoverageHook planted in
// the validation engine; traces that light up new coverage enter a corpus
// and a mutation scheduler preferentially extends/mutates the entries that
// grew coverage most recently. Traces that end in an erroneous state
// survive: they are shrunk by a delta-debugging minimizer, classified
// against the model checker's erroneous-state families, and flagged as
// *novel* when the four XSA scenarios do not cover them. With `guided`
// off, every trace is drawn fresh: the blind baseline. Corpus traces
// serialize through the shared op record (hv/guest_op.hpp) and replay
// byte-identically.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "analysis/model_checker.hpp"
#include "guest/platform.hpp"
#include "hv/coverage.hpp"
#include "hv/guest_op.hpp"

namespace ii::obs {
class MetricsRegistry;  // obs/metrics.hpp
class SpanProfiler;     // obs/span.hpp
}  // namespace ii::obs

namespace ii::core {

/// Classified consequence of one trace.
enum class FuzzOutcome {
  NoObservableEffect,   ///< nothing the monitor can see changed
  Refused,              ///< every op of the trace was refused
  DetectedByAudit,      ///< audit findings, but no violation materialized
  IsolationViolation,   ///< an isolation invariant no longer holds
  HostCrash,            ///< hypervisor panic
  CpuHang,              ///< wedged delivery/event loop
};

[[nodiscard]] std::string to_string(FuzzOutcome outcome);

/// Target classes an ArbitraryWrite op is drawn over.
enum class FuzzTarget {
  OwnL1Slot,      ///< random slot of the attacker's leaf table
  OwnL4Slot,      ///< random slot of the attacker's top-level table
  IdtBytes,       ///< random bytes over a random IDT gate
  XenL3Slot,      ///< random slot of the shared Xen L3
  WildPhysical,   ///< random 8 bytes anywhere in machine memory
};

/// Enumerator count of FuzzTarget. The generator's target draw uses this —
/// never a hardcoded literal — and ii_analyze's registry-closure rule flags
/// drift against the enum, exactly like kCategoryCount.
inline constexpr std::size_t kFuzzTargetCount = 5;

// ------------------------------------------------------------ draw helpers

/// Uniform draw in [0, bound) by 64-bit rejection sampling (bound == 0 or 1
/// returns 0). This replaces the `rng() % bound` idiom, which had two bugs:
/// std::mt19937 yields 32-bit values, silently truncating draws over
/// machine-sized bounds (addresses above 4 GiB were never probed), and the
/// modulo carries bias for any bound that does not divide the engine range.
[[nodiscard]] std::uint64_t draw_below(std::mt19937_64& rng,
                                       std::uint64_t bound);

/// Per-iteration engine over the full 64-bit campaign seed: splitmix64
/// decorrelation first, then a seed_seq over all four 32-bit words. All 64
/// seed bits matter, and every draw is a full 64-bit word.
[[nodiscard]] std::mt19937_64 rng_for(std::uint64_t seed,
                                      std::uint64_t iteration);

// ------------------------------------------------------- sequence fuzzer

/// One operation of a fuzz trace: the shared guest-op vocabulary.
using FuzzOp = hv::GuestOp;

/// Coverage contexts: one per op kind, plus one for the activation workload
/// that runs after the trace (reads, faults, interrupts, event loop).
inline constexpr std::size_t kCoverageContexts = hv::kGuestOpKindCount + 1;

/// Dense (op kind × frame type × validation branch) bitmap. record()
/// reports whether the triple was new — the fuzzer's feedback bit.
class CoverageMap {
 public:
  CoverageMap();

  /// Mark a triple; returns true the first time it is seen.
  bool record(std::size_t context, hv::PageType frame_type,
              hv::ValidationBranch branch);
  [[nodiscard]] bool covered(std::size_t context, hv::PageType frame_type,
                             hv::ValidationBranch branch) const;
  /// Distinct triples seen so far.
  [[nodiscard]] std::size_t points() const { return points_; }
  [[nodiscard]] static std::size_t total_points() {
    return kCoverageContexts * hv::kCoverageFrameTypes *
           hv::kValidationBranchCount;
  }
  /// Deterministic listing of covered triples, one per line.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<bool> bits_;
  std::size_t points_ = 0;
};

/// Observed result of executing one trace on a freshly rewound platform.
struct TraceResult {
  FuzzOutcome outcome = FuzzOutcome::NoObservableEffect;
  std::vector<analysis::ErroneousStateClass> classes;  ///< sorted, deduped
  std::uint64_t state_hash = 0;  ///< Hypervisor::state_hash() afterwards
  unsigned new_coverage = 0;     ///< fresh triples added to the map
  unsigned ops_executed = 0;     ///< ops applied (trace stops on crash/hang)
  unsigned ops_refused = 0;      ///< ops whose hypercall returned an error
};

/// A replayable corpus record: the trace plus the result its recording run
/// observed (replay asserts it reproduces).
struct CorpusEntry {
  std::vector<FuzzOp> ops;
  FuzzOutcome outcome = FuzzOutcome::NoObservableEffect;
  std::vector<analysis::ErroneousStateClass> classes;
  std::uint64_t state_hash = 0;

  friend bool operator==(const CorpusEntry&, const CorpusEntry&) = default;
};

/// IIFZ format 1, little-endian: fixed header, one shared op record
/// (hv::encode_op) per op, recorded result.
[[nodiscard]] std::vector<std::uint8_t> serialize_trace(
    const CorpusEntry& entry, hv::XenVersion version);
/// Parse; nullopt on a short, malformed or wrong-magic buffer, or on an op
/// record decode_op rejects.
[[nodiscard]] std::optional<CorpusEntry> deserialize_trace(
    std::span<const std::uint8_t> bytes, hv::XenVersion* version = nullptr);

/// File I/O wrappers (chaos points fuzz.corpus_write_fail /
/// fuzz.corpus_read_fail cover the failure paths). store creates `path`
/// exclusively: it returns false on refusal, I/O error, or when `path`
/// already exists, which it leaves untouched. load returns nullopt.
bool store_trace_file(const std::string& path, const CorpusEntry& entry,
                      hv::XenVersion version);
[[nodiscard]] std::optional<CorpusEntry> load_trace_file(
    const std::string& path, hv::XenVersion* version = nullptr);

struct SeqFuzzConfig {
  hv::XenVersion version = hv::kXen46;
  unsigned iterations = 200;
  std::uint64_t seed = 1;
  /// Coverage-guided (corpus + mutation scheduler) vs blind (every trace
  /// drawn fresh). Both record coverage; only guided feeds on it.
  bool guided = true;
  /// Shrink survivors with the delta-debugging minimizer.
  bool minimize = true;
  /// Generated trace length is 1..max_ops; mutation may extend to 2*max_ops.
  unsigned max_ops = 6;
  /// Execution budget per survivor minimization.
  unsigned max_minimize_execs = 200;
  /// Corpus capacity (energy-weighted eviction beyond it).
  unsigned max_corpus = 64;
  /// When non-empty, survivors and the final corpus are persisted here as
  /// deterministic self-delimiting trace files (CI cmp-gates the bytes).
  /// Files are created exclusively: a name another run already wrote is
  /// counted in SeqFuzzStats::corpus_write_failures, not overwritten.
  std::string corpus_dir;
  /// Platform shape (version/injector overridden).
  guest::PlatformConfig platform{};
  obs::MetricsRegistry* metrics = nullptr;  ///< optional, not owned
  obs::SpanProfiler* profiler = nullptr;    ///< optional, not owned
};

/// A surviving erroneous state: the (possibly minimized) trace that
/// reproduces it, and how it classifies.
struct Survivor {
  CorpusEntry entry;            ///< minimized when config.minimize
  unsigned found_iteration = 0;
  unsigned raw_ops = 0;         ///< trace length before minimization
  /// True when the state is NOT covered by the paper's four XSA scenarios
  /// (it classifies as ErroneousStateClass::Other).
  bool novel = false;
  std::string file;             ///< corpus file name when persisted
};

struct SeqFuzzStats {
  unsigned iterations = 0;
  bool guided = true;
  std::uint64_t seed = 0;
  std::size_t coverage_points = 0;
  unsigned corpus_entries = 0;
  std::map<FuzzOutcome, unsigned> outcomes;
  std::map<analysis::ErroneousStateClass, unsigned> class_hits;
  std::vector<Survivor> survivors;
  unsigned ops_executed = 0;
  unsigned ops_refused = 0;
  unsigned minimizer_execs = 0;
  unsigned corpus_write_failures = 0;
  /// Coverage points after each 1k iterations (growth curve evidence).
  std::vector<std::size_t> coverage_curve;

  [[nodiscard]] unsigned novel_survivors() const;
  [[nodiscard]] std::string render() const;
};

/// Run the coverage-guided (or blind) sequence fuzzer. Deterministic for a
/// given config: stats render, survivor set and corpus bytes are
/// byte-identical across runs at the same seed.
[[nodiscard]] SeqFuzzStats run_sequence_fuzzer(const SeqFuzzConfig& config);

/// Execute one trace against a fresh platform of `config`'s shape and
/// return what it observes. `map`, when given, accumulates coverage (and
/// TraceResult::new_coverage counts its fresh triples). This is the replay
/// path: replaying a recorded CorpusEntry's ops must reproduce its recorded
/// outcome/classes/state_hash exactly.
[[nodiscard]] TraceResult replay_trace(const SeqFuzzConfig& config,
                                       std::span<const FuzzOp> ops,
                                       CoverageMap* map = nullptr);

}  // namespace ii::core
