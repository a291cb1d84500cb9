#include "sim/campaign.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/table.h"
#include "sim/batch.h"

namespace fpva::sim {

long CampaignResult::total_trials() const {
  long total = 0;
  for (const CampaignRow& row : rows) total += row.trials;
  return total;
}

long CampaignResult::total_detected() const {
  long total = 0;
  for (const CampaignRow& row : rows) total += row.detected;
  return total;
}

std::uint64_t campaign_trial_seed(std::uint64_t seed, int fault_count,
                                  int trial) {
  return common::stream_seed(
      seed, (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                 fault_count))
             << 32) |
                static_cast<std::uint32_t>(trial));
}

std::vector<Fault> draw_fault_set(common::Rng& rng,
                                  const grid::ValveArray& array,
                                  int fault_count,
                                  std::span<const LeakPair> leak_pairs,
                                  double stuck_at_1_probability,
                                  double degraded_probability) {
  // Draw faults on distinct valves. A leak fault occupies both of its
  // valves so that combinations stay physically consistent.
  std::vector<Fault> faults;
  std::vector<char> used(static_cast<std::size_t>(array.valve_count()), 0);
  int guard = 0;
  while (static_cast<int>(faults.size()) < fault_count) {
    common::check(++guard < 10000,
                  "draw_fault_set: cannot place requested faults");
    const bool draw_leak = !leak_pairs.empty() && rng.next_bool(1.0 / 3.0);
    if (draw_leak) {
      const LeakPair& pair = leak_pairs[static_cast<std::size_t>(
          rng.next_below(leak_pairs.size()))];
      if (used[static_cast<std::size_t>(pair.first)] ||
          used[static_cast<std::size_t>(pair.second)]) {
        continue;
      }
      used[static_cast<std::size_t>(pair.first)] = 1;
      used[static_cast<std::size_t>(pair.second)] = 1;
      faults.push_back(control_leak(pair.first, pair.second));
    } else {
      const auto valve = static_cast<grid::ValveId>(rng.next_below(
          static_cast<std::uint64_t>(array.valve_count())));
      if (used[static_cast<std::size_t>(valve)]) continue;
      used[static_cast<std::size_t>(valve)] = 1;
      // The short-circuit matters: with degraded_probability == 0 no draw
      // is consumed, so default campaigns replay the historical streams.
      if (degraded_probability > 0 && rng.next_bool(degraded_probability)) {
        faults.push_back(degraded_flow(valve));
      } else {
        faults.push_back(rng.next_bool(stuck_at_1_probability)
                             ? stuck_at_1(valve)
                             : stuck_at_0(valve));
      }
    }
  }
  return faults;
}

namespace {

void validate_options(const grid::ValveArray& array,
                      const CampaignOptions& options) {
  common::check(
      options.min_faults >= 1 && options.min_faults <= options.max_faults,
      "run_campaign: bad fault-count range");
  common::check(array.valve_count() >= options.max_faults,
                "run_campaign: more faults requested than valves exist");
  common::check(options.degraded_probability >= 0.0 &&
                    options.degraded_probability <= 1.0,
                "run_campaign: degraded_probability outside [0, 1]");
}

std::vector<LeakPair> resolve_leak_pairs(const grid::ValveArray& array,
                                         const CampaignOptions& options) {
  if (!options.include_control_leaks) return {};
  return options.leak_pairs.empty() ? control_leak_pairs(array)
                                    : options.leak_pairs;
}

/// Trials per unit of parallel work. Fixed (never derived from the worker
/// count) so the shard decomposition -- and with it every undetected-sample
/// prefix -- is identical no matter how many workers run. A 50,000-trial
/// row is 13 shards, 65 jobs over fault counts 1-5: enough to balance the
/// workers of a few-core host.
constexpr int kShardTrials = 4096;

/// Outcome of one contiguous shard of trials at one fault count.
struct ShardOutcome {
  int detected = 0;
  /// The first max_undetected_kept trials no vector detected, in trial
  /// order; fold_shard never takes more than that from one shard.
  std::vector<FaultScenario> undetected;
  /// False when the shard was abandoned (stop token tripped mid-shard) or
  /// never ran; such outcomes are discarded, never folded.
  bool completed = false;
};

/// One worker's shard buffers, reused shard after shard. Every trial of a
/// shard has exactly k faults, so the drawn sets live in one flat pool:
/// trial t occupies pool[t * k, (t + 1) * k). The index lists are pool
/// trial indices in trial order.
struct ShardScratch {
  std::vector<Fault> pool;
  std::vector<int> alive;      // undetected trials
  std::vector<int> screened;   // alive trials worth flooding, per vector
  std::vector<int> survivors;  // screened trials still undetected afterward
  std::vector<int> merged;     // the next alive list
};

/// True when `faults` could possibly change the readings of `vector`:
/// an exact monotonicity screen, not a heuristic. Faults that only close
/// valves shrink the pressurized region, so they can only flip sinks whose
/// expected reading is 1; faults that only open valves can only flip
/// 0-expected sinks; a scenario changing no effective state at all reads
/// exactly `expected`. Everything the screen rejects is provably
/// undetected, so skipping its flood keeps results bit-identical.
bool possibly_detectable(const TestVector& vector, bool has_one_expected,
                         bool has_zero_expected,
                         std::span<const Fault> faults) {
  bool closes = false;
  bool opens = false;
  for (const Fault& fault : faults) {
    const auto valve = static_cast<std::size_t>(fault.valve);
    switch (fault.type) {
      case FaultType::kStuckAt0:
        closes = closes || vector.states[valve];
        break;
      case FaultType::kStuckAt1:
        opens = opens || !vector.states[valve];
        break;
      case FaultType::kControlLeak: {
        const auto partner = static_cast<std::size_t>(fault.partner);
        // The leak fires when either partner is actuated; it changes an
        // effective state only if the other partner was commanded open.
        if ((!vector.states[valve] || !vector.states[partner]) &&
            (vector.states[valve] || vector.states[partner])) {
          closes = true;
        }
        break;
      }
      case FaultType::kDegradedFlow:
        // Weakening flow through a commanded-open valve only shrinks the
        // meter-visible region (monotone decrease). On a commanded-closed
        // valve it matters only if a stuck-at-1 in the same scenario opens
        // the valve, and then the readings stay a superset of expected —
        // covered by that fault's own `opens` contribution.
        closes = closes || vector.states[valve];
        break;
    }
  }
  return (closes && has_one_expected) || (opens && has_zero_expected);
}

/// Evaluates trials [first_trial, first_trial + count) with fault dropping:
/// vectors are applied outermost, and after each vector the surviving
/// (still-undetected) trials are compacted into fresh full 64-lane words.
/// Early vectors detect the bulk of the trials, so later vectors flood only
/// a few words -- this is where the batched engine beats the scalar path's
/// per-trial early exit.
ShardOutcome evaluate_shard(const BatchSimulator& batch, ShardScratch& scratch,
                            std::span<const TestVector> vectors,
                            const CampaignOptions& options,
                            std::span<const LeakPair> leak_pairs,
                            int fault_count, int first_trial, int count) {
  ShardOutcome outcome;
  if (options.stop.stop_requested()) return outcome;
  std::vector<Fault>& pool = scratch.pool;
  pool.clear();
  for (int t = 0; t < count; ++t) {
    common::Rng rng(
        campaign_trial_seed(options.seed, fault_count, first_trial + t));
    const std::vector<Fault> faults = draw_fault_set(
        rng, batch.array(), fault_count, leak_pairs,
        options.stuck_at_1_probability, options.degraded_probability);
    pool.insert(pool.end(), faults.begin(), faults.end());
  }
  const auto trial_faults = [&](int index) {
    return std::span<const Fault>(pool).subspan(
        static_cast<std::size_t>(index) * fault_count,
        static_cast<std::size_t>(fault_count));
  };

  std::vector<int>& alive = scratch.alive;
  std::vector<int>& screened = scratch.screened;
  std::vector<int>& survivors = scratch.survivors;
  alive.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < alive.size(); ++i) {
    alive[i] = static_cast<int>(i);
  }
  for (const TestVector& vector : vectors) {
    if (alive.empty()) break;
    if (options.stop.stop_requested()) return outcome;  // abandon, don't fold
    bool has_one = false;
    bool has_zero = false;
    for (const bool expected : vector.expected) {
      (expected ? has_one : has_zero) = true;
    }
    screened.clear();
    for (const int index : alive) {
      if (possibly_detectable(vector, has_one, has_zero,
                              trial_faults(index))) {
        screened.push_back(index);
      }
    }
    if (screened.empty()) continue;
    survivors.clear();
    for (std::size_t chunk = 0; chunk < screened.size();
         chunk += BatchSimulator::kLanes) {
      const std::size_t lanes = std::min<std::size_t>(
          BatchSimulator::kLanes, screened.size() - chunk);
      const auto detected = batch.detect_lanes(
          vector, pool, fault_count,
          std::span<const int>(screened.data() + chunk, lanes));
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (!((detected >> lane) & 1)) {
          survivors.push_back(screened[chunk + lane]);
        }
      }
    }
    if (survivors.size() == screened.size()) continue;  // nothing dropped
    // alive := (alive \ screened) merged with survivors, preserving trial
    // order; both inputs are sorted.
    std::vector<int>& merged = scratch.merged;
    merged.clear();
    std::size_t s = 0;  // cursor into screened
    std::size_t u = 0;  // cursor into survivors
    for (const int index : alive) {
      if (s < screened.size() && screened[s] == index) {
        ++s;
        if (u < survivors.size() && survivors[u] == index) {
          ++u;
          merged.push_back(index);
        }
      } else {
        merged.push_back(index);
      }
    }
    alive.swap(merged);
  }

  outcome.detected = count - static_cast<int>(alive.size());
  const std::size_t kept =
      std::min(alive.size(), options.max_undetected_kept);
  outcome.undetected.reserve(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    const std::span<const Fault> faults = trial_faults(alive[i]);
    outcome.undetected.emplace_back(faults.begin(), faults.end());
  }
  outcome.completed = true;
  return outcome;
}

/// Accumulates a shard into its row; shards must arrive in trial order so
/// undetected_samples keeps the same prefix for every execution strategy.
void fold_shard(CampaignRow& row, ShardOutcome&& outcome,
                std::size_t max_undetected_kept) {
  row.detected += outcome.detected;
  for (FaultScenario& faults : outcome.undetected) {
    if (row.undetected_samples.size() >= max_undetected_kept) break;
    row.undetected_samples.push_back(std::move(faults));
  }
}

}  // namespace

CampaignResult run_campaign(const Simulator& simulator,
                            std::span<const TestVector> vectors,
                            const CampaignOptions& options) {
  const CatalogEntry entry{&simulator.array(), vectors, options};
  return std::move(run_campaign_catalog({&entry, 1}, 0).front());
}

CampaignResult run_campaign_scalar(const Simulator& simulator,
                                   std::span<const TestVector> vectors,
                                   const CampaignOptions& options) {
  const grid::ValveArray& array = simulator.array();
  validate_options(array, options);
  const std::vector<LeakPair> leak_pairs = resolve_leak_pairs(array, options);

  CampaignResult result;
  for (int k = options.min_faults; k <= options.max_faults; ++k) {
    CampaignRow row;
    row.fault_count = k;
    row.set_cardinality = k;
    for (int trial = 0;
         trial < options.trials_per_count && !result.interrupted; ++trial) {
      if (options.stop.stop_requested()) {
        result.interrupted = true;
        break;
      }
      common::Rng rng(campaign_trial_seed(options.seed, k, trial));
      std::vector<Fault> faults =
          draw_fault_set(rng, array, k, leak_pairs,
                         options.stuck_at_1_probability,
                         options.degraded_probability);
      ++row.trials;
      if (simulator.any_detects(vectors, faults)) {
        ++row.detected;
      } else if (row.undetected_samples.size() <
                 options.max_undetected_kept) {
        row.undetected_samples.push_back(std::move(faults));
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

std::vector<CampaignResult> run_campaign_catalog(
    std::span<const CatalogEntry> entries, int thread_count) {
  // Validate everything before any thread spawns so errors surface as
  // plain exceptions on the caller.
  std::vector<std::vector<LeakPair>> leak_pairs;
  leak_pairs.reserve(entries.size());
  for (const CatalogEntry& entry : entries) {
    common::check(entry.array != nullptr,
                  "run_campaign_catalog: entry without an array");
    validate_options(*entry.array, entry.options);
    leak_pairs.push_back(resolve_leak_pairs(*entry.array, entry.options));
  }

  // Flatten every entry's campaign into fixed-size shard jobs so threads
  // stay busy across fault counts and array boundaries; each job's result
  // lands in its own slot, making the merge (and therefore every
  // CampaignResult) independent of thread scheduling.
  struct Job {
    std::size_t entry;
    int fault_count;
    int first_trial;
    int count;
  };
  std::vector<Job> jobs;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const CampaignOptions& options = entries[e].options;
    for (int k = options.min_faults; k <= options.max_faults; ++k) {
      for (int first = 0; first < options.trials_per_count;
           first += kShardTrials) {
        jobs.push_back({e, k, first,
                        std::min(kShardTrials,
                                 options.trials_per_count - first)});
      }
    }
  }

  // Per-worker state is built and sized here on the calling thread, so
  // workers do not grow malloc arenas of their own that would stay resident
  // after they exit. Each worker keeps the BatchSimulator of the entry it
  // last touched; jobs are claimed in index order, so a worker streams
  // through one array's shards before crossing into the next, and only a
  // crossing builds a simulator on the worker.
  std::size_t most_trials = 0;
  std::size_t most_faults = 0;
  for (const Job& job : jobs) {
    most_trials = std::max(most_trials, static_cast<std::size_t>(job.count));
    most_faults = std::max(
        most_faults, static_cast<std::size_t>(job.count) *
                         static_cast<std::size_t>(job.fault_count));
  }
  struct Worker {
    std::size_t entry = 0;
    std::optional<BatchSimulator> batch;
    ShardScratch scratch;
  };
  std::vector<Worker> workers(static_cast<std::size_t>(
      common::plan_workers(thread_count, jobs.size())));
  for (Worker& worker : workers) {
    if (jobs.empty()) break;
    worker.entry = jobs.front().entry;
    worker.batch.emplace(*entries[worker.entry].array);
    worker.scratch.pool.reserve(most_faults);
    for (std::vector<int>* list :
         {&worker.scratch.alive, &worker.scratch.screened,
          &worker.scratch.survivors, &worker.scratch.merged}) {
      list->reserve(most_trials);
    }
  }
  std::vector<ShardOutcome> outcomes(jobs.size());
  common::run_jobs(
      thread_count, jobs.size(), [&](int w, std::size_t i) {
        const Job& job = jobs[i];
        // A tripped token skips the whole shard (its outcome stays
        // incomplete and is never folded); evaluate_shard also polls
        // between vectors to wind down mid-shard.
        if (entries[job.entry].options.stop.stop_requested()) return;
        Worker& worker = workers[static_cast<std::size_t>(w)];
        if (worker.entry != job.entry) {
          worker.batch.emplace(*entries[job.entry].array);
          worker.entry = job.entry;
        }
        outcomes[i] = evaluate_shard(
            *worker.batch, worker.scratch, entries[job.entry].vectors,
            entries[job.entry].options, leak_pairs[job.entry],
            job.fault_count, job.first_trial, job.count);
      });

  std::vector<CampaignResult> results(entries.size());
  std::size_t job_index = 0;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const CampaignOptions& options = entries[e].options;
    for (int k = options.min_faults; k <= options.max_faults; ++k) {
      CampaignRow row;
      row.fault_count = k;
      row.set_cardinality = k;
      for (int first = 0; first < options.trials_per_count;
           first += kShardTrials) {
        ShardOutcome& outcome = outcomes[job_index++];
        if (!outcome.completed) {
          results[e].interrupted = true;
          continue;
        }
        row.trials += std::min(kShardTrials,
                               options.trials_per_count - first);
        fold_shard(row, std::move(outcome), options.max_undetected_kept);
      }
      results[e].rows.push_back(std::move(row));
    }
  }
  return results;
}

std::string summarize(const CampaignResult& result) {
  common::Table table({"scenario", "trials", "detected", "rate"});
  std::string samples;
  for (const CampaignRow& row : result.rows) {
    const std::string label =
        row.set_cardinality == 1
            ? std::string("single fault")
            : common::cat(row.set_cardinality, "-fault set");
    table.add_row({label, common::cat(row.trials), common::cat(row.detected),
                   common::cat(common::to_fixed(100.0 * row.detection_rate(),
                                                2),
                               '%')});
    for (const auto& faults : row.undetected_samples) {
      samples += common::cat("undetected ", label, ": ", to_string(faults),
                             '\n');
    }
  }
  std::string text = table.to_string();
  if (!samples.empty()) text += samples;
  if (result.interrupted) text += "campaign interrupted before completion\n";
  return text;
}

}  // namespace fpva::sim
