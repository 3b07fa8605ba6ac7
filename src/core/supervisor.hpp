// Fault-tolerant campaign supervisor.
//
// Campaign::run_cell already isolates each cell (exceptions become failed
// CaseOutcomes, budgets bound runaway cells, recovery is optional per
// config). The supervisor adds the *campaign-level* robustness on top:
//
//   retry      — a failed cell is re-run up to max_attempts times (with
//                exponential backoff and deterministic jitter between
//                attempts), the attempt count recorded in the result;
//   quarantine — after quarantine_after consecutive failed cells of one use
//                case, its remaining cells are skipped (marked quarantined)
//                instead of burning the rest of the campaign's budget;
//   journal    — every finished cell is appended to a JSONL journal
//                (checksummed lines, flush-on-append), and a resumed run
//                skips journaled cells while reproducing the identical
//                report (see journal.hpp).
//
// The escalation ladder for a failing cell, each rung engaged only when
// the previous one did not clear the failure:
//   1. retry          re-run the cell, backoff+jitter between attempts;
//   2. recover        Hypervisor::recover() inside run_cell (when
//                     CampaignConfig::attempt_recovery), so the retry
//                     starts from an audited platform;
//   3. quarantine     stop running the use case after quarantine_after
//                     consecutive failed cells;
//   4. pool-slot      on quarantine, drop the worker's warm platform pool
//      replacement    so every later use case boots fresh platforms
//                     instead of inheriting possibly-poisoned ones.
//
// Worker death (chaos worker.crash, or any escaped WorkerCrash) releases
// the worker's claimed use case back to a re-claim queue: another worker —
// or a respawned one, when all workers died — re-claims it and re-runs the
// use case from its first cell, overwriting the same result slots with the
// identical (deterministic) values. A crashed claim can therefore never
// strand cells until process exit.
//
// Determinism under parallelism: workers claim whole *use cases*, never
// individual cells. All cells of one use case run sequentially in matrix
// order on one worker, so retry and quarantine decisions depend only on
// that ordered history — results are identical for any thread count (and,
// with CampaignConfig::logical_time, byte-identical as CSV).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"

namespace ii::core {

struct SupervisorConfig {
  /// Worker threads; effective parallelism is min(threads, use cases).
  unsigned threads = 1;
  /// Total attempts per cell (1 = no retry). Failed means CellResult::failed().
  unsigned max_attempts = 1;
  /// Consecutive failed cells of one use case before the rest of that use
  /// case is quarantined (0 = never quarantine). Retries that eventually
  /// succeed reset the streak.
  unsigned quarantine_after = 0;
  /// JSONL cell journal path; empty disables journaling.
  std::string journal_path;
  /// Skip cells already present in the journal (header must match).
  bool resume = false;
  /// Base delay before retry attempt 2 (doubling per further attempt,
  /// capped at 1024x) plus a deterministic jitter of up to half the delay,
  /// derived from the cell key and attempt number — every run backs off
  /// identically. 0 disables backoff (the default; unit tests stay fast).
  std::uint64_t retry_backoff_us = 0;
};

class CampaignSupervisor {
 public:
  CampaignSupervisor(CampaignConfig campaign, SupervisorConfig config)
      : campaign_{std::move(campaign)}, config_{std::move(config)} {}

  /// Run the full (use case x version x mode) matrix under supervision.
  /// `factory` builds a private UseCase set per worker, plus one set whose
  /// names define the matrix rows. A worker whose factory throws runs
  /// nothing and its siblings run its share; if every worker's factory
  /// throws, run rethrows the first error. Results come back in matrix
  /// order.
  [[nodiscard]] std::vector<CellResult> run(
      const std::function<std::vector<std::unique_ptr<UseCase>>()>& factory)
      const;

  /// The journal header this configuration writes/expects (for tests and
  /// tooling that want to inspect a journal without a supervisor run).
  [[nodiscard]] std::string header() const;

 private:
  CampaignConfig campaign_;
  SupervisorConfig config_;
};

}  // namespace ii::core
