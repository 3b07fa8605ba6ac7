#include "core/supervisor.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "core/chaos.hpp"
#include "core/journal.hpp"

namespace ii::core {

namespace {

std::string cell_key(const std::string& use_case, hv::XenVersion version,
                     Mode mode) {
  return use_case + "|" + version.to_string() + "|" + to_string(mode);
}

/// Exponential backoff with deterministic jitter: base << (attempt-2),
/// capped, plus a jitter of up to half the delay drawn from a splitmix64
/// stream seeded by (cell key, attempt). A pure function of the cell and
/// attempt number — every run of the same campaign backs off identically,
/// and retries of different cells de-synchronize instead of stampeding.
std::uint64_t backoff_us(std::uint64_t base_us, const std::string& key,
                         unsigned attempt) {
  if (base_us == 0 || attempt < 2) return 0;
  const unsigned shift = std::min(attempt - 2, 10u);
  const std::uint64_t delay = base_us << shift;
  std::uint64_t stream = fnv1a64(key) ^ (0x9E3779B97F4A7C15ULL * attempt);
  const std::uint64_t jitter = splitmix64_next(stream) % (delay / 2 + 1);
  return delay + jitter;
}

/// worker.stall chaos: burn a bounded, deterministic amount of budget
/// (wall time only — no observable state changes) so watchdog and
/// heartbeat machinery sees a slow worker.
void chaos_stall() {
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 2'000'000; ++i) sink = sink + i;
}

}  // namespace

std::string CampaignSupervisor::header() const {
  return journal_header(campaign_, config_.max_attempts,
                        config_.quarantine_after);
}

std::vector<CellResult> CampaignSupervisor::run(
    const std::function<std::vector<std::unique_ptr<UseCase>>()>& factory)
    const {
  const Campaign campaign{campaign_};
  const std::string header_line = header();

  // Resume: restore journaled cells, keyed so file order is irrelevant.
  // Torn/corrupt lines are counted, not silently dropped — the count is
  // surfaced as supervisor.journal_skipped below, and the lost cells
  // simply re-run.
  std::map<std::string, CellResult> journaled;
  std::uint64_t journal_skipped = 0;
  if (config_.resume && !config_.journal_path.empty()) {
    JournalLoad load = load_journal(config_.journal_path, header_line);
    journal_skipped = load.skipped;
    for (CellResult& cell : load.cells) {
      const std::string key = cell_key(cell.use_case, cell.version, cell.mode);
      journaled.insert_or_assign(key, std::move(cell));
    }
  }

  // (Re)write the journal: header plus the restored cells. Rewriting on
  // resume drops any torn/corrupt lines a killed or faulty run left
  // behind, so appends always land on a well-formed file. A rewrite
  // append that fails (chaos or disk) only loses that cell's resume
  // entry — it re-runs on the next resume.
  JournalWriter journal;
  std::mutex journal_mu;
  if (!config_.journal_path.empty()) {
    journal.open(config_.journal_path, header_line);
    for (const auto& [key, cell] : journaled) (void)journal.append(cell);
  }

  // Use-case names define the matrix rows; probe one factory instance.
  std::vector<std::string> names;
  for (const auto& use_case : factory()) names.push_back(use_case->name());

  const std::size_t per_case =
      campaign_.versions.size() * campaign_.modes.size();
  std::vector<CellResult> results(names.size() * per_case);

  // Workers claim whole use cases (see file header for why that — and only
  // that — keeps retry/quarantine deterministic under parallelism). Claims
  // released by a crashed worker take priority over fresh ones so a
  // crashed claim can never be stranded behind the tail of the matrix.
  std::atomic<std::size_t> next_case{0};
  std::mutex released_mu;
  std::deque<std::size_t> released;
  std::atomic<std::uint64_t> worker_crashes{0};
  std::atomic<bool> killed{false};
  // A worker whose factory throws runs nothing; the first such error is
  // rethrown if a whole round of workers fails that way.
  std::mutex factory_error_mu;
  std::exception_ptr factory_error;
  std::atomic<unsigned> factory_failures{0};  // in the current round
  // Backstop against a crash-looping plan: once every use case could have
  // crashed a few times over, stop honoring the crash point so the
  // campaign always terminates.
  const std::uint64_t crash_cap = names.size() * 4 + 16;

  const auto claim = [&]() -> std::optional<std::size_t> {
    {
      const std::lock_guard<std::mutex> lock{released_mu};
      if (!released.empty()) {
        const std::size_t c = released.front();
        released.pop_front();
        return c;
      }
    }
    const std::size_t c = next_case.fetch_add(1);
    if (c < names.size()) return c;
    return std::nullopt;
  };
  const auto unfinished = [&] {
    const std::lock_guard<std::mutex> lock{released_mu};
    return !released.empty() || next_case.load() < names.size();
  };

  const unsigned n_workers = std::max(
      1u, std::min<unsigned>(config_.threads,
                             static_cast<unsigned>(names.size())));

  obs::StatusBoard* const status = campaign_.status;
  if (status != nullptr) status->campaign_begin(results.size(), n_workers);
  // Per-worker span lanes (profilers are single-writer), merged after the
  // join. Retry/quarantine decisions are per-use-case and workers claim
  // whole use cases, so the merged supervisor spans are deterministic at
  // any thread count — the same guarantee the result matrix itself has.
  // (Chaos spans are the exception and are recorded as Sched.) Respawned
  // workers reuse their predecessor's lane: rounds are sequential, so the
  // single-writer discipline holds.
  std::vector<std::unique_ptr<obs::SpanProfiler>> lanes;
  if (campaign_.profiler != nullptr) {
    lanes.reserve(n_workers);
    for (unsigned w = 0; w < n_workers; ++w) {
      lanes.push_back(
          std::make_unique<obs::SpanProfiler>(campaign_.profiler->epoch()));
      lanes.back()->set_tid(w);
      lanes.back()->set_record_events(campaign_.profiler->record_events());
    }
  }

  // Run one claimed use case to completion: the full (version, mode) row
  // in matrix order, with retry/quarantine decided by that ordered
  // history. Chaos worker faults propagate out as WorkerCrash.
  const auto run_use_case = [&](std::size_t c, unsigned w,
                                std::vector<std::unique_ptr<UseCase>>& cases,
                                PlatformPool& pool,
                                obs::SpanProfiler* lane) {
    unsigned failure_streak = 0;
    bool quarantined = false;
    std::size_t slot = c * per_case;
    for (const hv::XenVersion version : campaign_.versions) {
      for (const Mode mode : campaign_.modes) {
        if (killed.load()) return;
        const std::string key = cell_key(names[c], version, mode);
        CellResult cell;
        bool from_journal = false;

        if (const auto it = journaled.find(key); it != journaled.end()) {
          cell = it->second;
          from_journal = true;
        } else if (quarantined) {
          cell.use_case = names[c];
          cell.version = version;
          cell.mode = mode;
          cell.attempts = 0;
          cell.quarantined = true;
          cell.failure = "quarantined after " +
                         std::to_string(failure_streak) +
                         " consecutive cell failures";
          cell.outcome.completed = false;
          if (lane != nullptr) {
            lane->add({obs::kSpanSupervisor, obs::kSpanQuarantine}, 1, 1);
          }
        } else {
          // Chaos worker faults sit where a real scheduler fault would:
          // between cells, while the use case is claimed but the cell has
          // not started. A crash here leaves no half-run cell behind.
          if (chaos_fire("worker.stall")) {
            if (lane != nullptr) {
              lane->add({obs::kSpanSupervisor, obs::kSpanChaos}, 1, 1,
                        obs::SpanKind::Sched);
            }
            chaos_stall();
          }
          if (chaos_fire("worker.crash")) throw WorkerCrash{};

          unsigned attempt = 0;
          do {
            ++attempt;
            if (attempt > 1) {
              // Each re-run beyond the first attempt is one retry, with
              // exponential backoff + deterministic jitter between
              // attempts (escalation rung 1).
              if (lane != nullptr) {
                lane->add({obs::kSpanSupervisor, obs::kSpanRetry}, 1, 1);
              }
              if (status != nullptr) status->add_retry();
              if (const std::uint64_t us =
                      backoff_us(config_.retry_backoff_us, key, attempt);
                  us > 0) {
                std::this_thread::sleep_for(std::chrono::microseconds{us});
              }
            }
            cell = campaign.run_cell(*cases[c], version, mode, pool, lane);
          } while (cell.failed() && attempt < config_.max_attempts);
          cell.attempts = attempt;
        }

        // Streak/quarantine bookkeeping applies identically to fresh and
        // journaled cells: the journal holds the same results a live run
        // would produce, so the replayed decisions match the original's.
        if (!cell.quarantined) {
          if (cell.failed()) {
            ++failure_streak;
          } else {
            failure_streak = 0;
          }
          if (config_.quarantine_after != 0 &&
              failure_streak >= config_.quarantine_after) {
            quarantined = true;
            // Escalation rung 4: the repeated failures may have poisoned
            // this worker's warm platforms; drop them so later use cases
            // boot fresh.
            pool.clear();
          }
        }
        if (status != nullptr) {
          if (cell.quarantined) status->add_quarantine();
          if (cell.recovered) status->add_recovered();
        }

        // Surface the supervisor verdicts through the metrics snapshot so
        // merged campaign summaries report them alongside trace counters.
        cell.metrics.counters["supervisor.attempts"] = cell.attempts;
        cell.metrics.counters["supervisor.failed"] = cell.failed() ? 1 : 0;
        cell.metrics.counters["supervisor.recovered"] =
            cell.recovered ? 1 : 0;
        cell.metrics.counters["supervisor.quarantined"] =
            cell.quarantined ? 1 : 0;

        if (journal.is_open() && !from_journal) {
          obs::ScopedSpan journal_span{
              lane, {obs::kSpanSupervisor, obs::kSpanJournal}};
          journal_span.add_steps(1);
          const std::lock_guard<std::mutex> lock{journal_mu};
          (void)journal.append(cell);
          // The kill point rides on fresh appends only: "the process died
          // after journaling its Nth new cell" is the scenario resume
          // must survive.
          if (chaos_fire("supervisor.kill")) killed.store(true);
        }
        if (status != nullptr) status->cell_done(w, cell.failed());
        results[slot] = std::move(cell);
        ++slot;
      }
    }
  };

  auto worker_body = [&](unsigned w) {
    obs::SpanProfiler* const lane = lanes.empty() ? nullptr : lanes[w].get();
    // Nothing may escape a worker thread: an unhandled throw there is
    // std::terminate for the whole process. A worker that cannot build its
    // use cases exits, and its siblings drain the claims.
    std::vector<std::unique_ptr<UseCase>> cases;
    try {
      cases = factory();
    } catch (...) {
      const std::lock_guard<std::mutex> lock{factory_error_mu};
      if (!factory_error) factory_error = std::current_exception();
      factory_failures.fetch_add(1);
      return;
    }
    // Warm platforms are per-worker (not thread-safe); retries of a cell
    // lease the same platform again, rewound to its baseline in between.
    PlatformPool pool;
    while (!killed.load()) {
      const auto c = claim();
      if (!c) return;
      try {
        run_use_case(*c, w, cases, pool, lane);
      } catch (const WorkerCrash&) {
        // This worker is "dead": release the claim so a surviving (or
        // respawned) worker re-claims the use case and re-runs it from
        // its first cell — deterministic cells make the re-run land the
        // identical results in the same slots.
        {
          const std::lock_guard<std::mutex> lock{released_mu};
          released.push_back(*c);
        }
        if (worker_crashes.fetch_add(1) + 1 >= crash_cap) {
          if (ChaosEngine* const engine = ChaosEngine::instance()) {
            engine->disable("worker.crash");
          }
        }
        if (lane != nullptr) {
          lane->add({obs::kSpanSupervisor, obs::kSpanChaos}, 1, 1,
                    obs::SpanKind::Sched);
        }
        return;
      }
    }
  };

  // Returns false when every worker's factory threw: nothing was claimed,
  // and another round would fail the same way.
  const auto run_round = [&] {
    factory_failures.store(0);
    if (n_workers == 1) {
      worker_body(0);
    } else {
      std::vector<std::thread> workers;
      workers.reserve(n_workers);
      for (unsigned w = 0; w < n_workers; ++w) {
        workers.emplace_back(worker_body, w);
      }
      for (std::thread& worker : workers) worker.join();
    }
    return factory_failures.load() < n_workers;
  };

  // Round 1 plus respawn rounds: a round ends when every worker returned —
  // all claims done, or some workers crashed. Crashed claims sit in
  // `released`, so respawned workers drain them; the crash cap above
  // guarantees the loop terminates, and so does stopping after a round in
  // which no worker could build its use cases.
  bool workers_ran = run_round();
  while (workers_ran && !killed.load() && unfinished()) {
    workers_ran = run_round();
  }

  if (status != nullptr) status->campaign_end();
  for (const auto& lane : lanes) campaign_.profiler->merge(*lane);

  if (killed.load()) throw CampaignKilled{};
  // Returning the unrun cells would look like a matrix of results.
  if (!workers_ran) std::rethrow_exception(factory_error);

  // Robustness bookkeeping rides on the first cell's counters (cells are
  // merged in order, so the campaign aggregate sees it exactly once).
  if (!results.empty()) {
    auto& counters = results.front().metrics.counters;
    if (journal_skipped > 0) {
      counters["supervisor.journal_skipped"] += journal_skipped;
    }
    if (journal.errors() > 0) {
      counters["supervisor.journal_errors"] += journal.errors();
    }
    if (worker_crashes.load() > 0) {
      counters["supervisor.worker_crashes"] += worker_crashes.load();
    }
    if (ChaosEngine* const engine = ChaosEngine::instance()) {
      counters["chaos.fired"] += engine->total_fired();
    }
  }
  return results;
}

}  // namespace ii::core
