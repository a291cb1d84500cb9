#include "sim/coverage.h"

#include <algorithm>
#include <functional>

#include "common/check.h"
#include "common/parallel.h"
#include "sim/batch.h"
#include "sim/control_topology.h"

namespace fpva::sim {

std::vector<Fault> single_stuck_fault_universe(
    const grid::ValveArray& array) {
  std::vector<Fault> universe;
  universe.reserve(static_cast<std::size_t>(array.valve_count()) * 2);
  for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
    universe.push_back(stuck_at_0(v));
    universe.push_back(stuck_at_1(v));
  }
  return universe;
}

std::vector<Fault> control_leak_universe(const grid::ValveArray& array) {
  std::vector<Fault> universe;
  for (const LeakPair& pair : control_leak_pairs(array)) {
    universe.push_back(control_leak(pair.first, pair.second));
  }
  return universe;
}

CoverageReport single_fault_coverage(const Simulator& simulator,
                                     std::span<const TestVector> vectors,
                                     std::span<const Fault> universe) {
  CoverageReport report;
  report.total_faults = static_cast<int>(universe.size());
  const BatchSimulator batch(simulator.array());
  std::vector<FaultScenario> scenarios;
  for (std::size_t base = 0; base < universe.size();
       base += BatchSimulator::kLanes) {
    const std::size_t count = std::min<std::size_t>(
        BatchSimulator::kLanes, universe.size() - base);
    scenarios.clear();
    for (std::size_t lane = 0; lane < count; ++lane) {
      scenarios.push_back({universe[base + lane]});
    }
    const auto detected = batch.any_detect_lanes(vectors, scenarios);
    for (std::size_t lane = 0; lane < count; ++lane) {
      if ((detected >> lane) & 1) {
        ++report.detected_faults;
      } else {
        report.undetected.push_back(universe[base + lane]);
      }
    }
  }
  return report;
}

PairCoverageReport two_fault_coverage(const Simulator& simulator,
                                      std::span<const TestVector> vectors,
                                      std::span<const Fault> universe,
                                      std::size_t max_undetected_kept) {
  using LaneMask = BatchSimulator::LaneMask;
  constexpr std::size_t kLanes = BatchSimulator::kLanes;

  // Shard the a < b pair triangle into runs of whole outer rows holding
  // roughly kShardPairs pairs each. Every job fills its own slot, and the
  // slots merge in job order, so totals and the undetected sample (first
  // max_undetected_kept pairs in (a, b) order) match a serial sweep for
  // any worker count.
  constexpr std::size_t kShardPairs = std::size_t{1} << 14;
  std::vector<std::size_t> row_begin;
  std::size_t row_pairs = kShardPairs;
  for (std::size_t a = 0; a < universe.size(); ++a) {
    if (row_pairs >= kShardPairs) {
      row_begin.push_back(a);
      row_pairs = 0;
    }
    row_pairs += universe.size() - 1 - a;
  }
  row_begin.push_back(universe.size());
  const std::size_t job_count = row_begin.size() - 1;

  // Vector sets are bitsets of row_words words, bit j = vectors[j];
  // all_vectors is the full set.
  const std::size_t row_words = (vectors.size() + kLanes - 1) / kLanes;
  std::vector<LaneMask> all_vectors(row_words);
  for (std::size_t x = 0; x < row_words; ++x) {
    all_vectors[x] = BatchSimulator::active_mask(
        std::min(kLanes, vectors.size() - x * kLanes));
  }

  // Per-worker state is built here on the calling thread, so workers do
  // not grow malloc arenas of their own. The 64 two-fault scenarios are
  // overwritten in place, lane by lane; `acts` holds each lane's vector
  // set and `pending` the union over still-undetected lanes.
  struct Worker {
    BatchSimulator batch;
    std::vector<FaultScenario> scenarios;
    std::vector<LaneMask> acts;
    std::vector<LaneMask> pending;
  };
  std::vector<Worker> workers;
  const int worker_count = common::plan_workers(0, job_count);
  workers.reserve(static_cast<std::size_t>(worker_count));
  for (int w = 0; w < worker_count; ++w) {
    workers.push_back({BatchSimulator(simulator.array()),
                       std::vector<FaultScenario>(kLanes, FaultScenario(2)),
                       std::vector<LaneMask>(kLanes * row_words),
                       std::vector<LaneMask>(row_words)});
  }

  // Per-fault rows over the vectors: rows[f] holds D (the vectors that
  // detect f alone) followed by I (the vectors under which f is inert: a
  // stuck value equal to the command). Only stuck-at faults get rows, one
  // 64-fault word per job; the rows are read-only once built.
  const auto is_stuck = [](const Fault& fault) {
    return fault.type == FaultType::kStuckAt0 ||
           fault.type == FaultType::kStuckAt1;
  };
  const std::size_t row_stride = 2 * row_words;
  std::vector<LaneMask> rows(universe.size() * row_stride, 0);
  std::vector<std::size_t> stuck;
  std::vector<FaultScenario> singles;
  for (std::size_t f = 0; f < universe.size(); ++f) {
    if (!is_stuck(universe[f])) continue;
    stuck.push_back(f);
    singles.push_back({universe[f]});
  }
  common::run_jobs(
      worker_count, (stuck.size() + kLanes - 1) / kLanes,
      [&](int w, std::size_t word) {
        const BatchSimulator& batch =
            workers[static_cast<std::size_t>(w)].batch;
        const std::size_t base = word * kLanes;
        const std::size_t count = std::min(kLanes, stuck.size() - base);
        const std::span<const FaultScenario> lanes(singles.data() + base,
                                                   count);
        for (std::size_t j = 0; j < vectors.size(); ++j) {
          const LaneMask bit = LaneMask{1} << (j % kLanes);
          const LaneMask detected = batch.detect_lanes(vectors[j], lanes);
          for (std::size_t lane = 0; lane < count; ++lane) {
            const Fault& fault = universe[stuck[base + lane]];
            LaneMask* row = rows.data() + stuck[base + lane] * row_stride;
            if ((detected >> lane) & 1) row[j / kLanes] |= bit;
            // detect_lanes has checked the arity and the valve ids.
            const bool open =
                vectors[j].states[static_cast<std::size_t>(fault.valve)];
            if (open == (fault.type == FaultType::kStuckAt1)) {
              row[row_words + j / kLanes] |= bit;
            }
          }
        }
      });

  std::vector<PairCoverageReport> slots(job_count);
  common::run_jobs(0, job_count, [&](int w, std::size_t job) {
    Worker& worker = workers[static_cast<std::size_t>(w)];
    PairCoverageReport& slot = slots[job];
    std::size_t lanes = 0;
    // Floods the word under the vectors some undetected lane acts under,
    // in vector order, refreshing that union as lanes are detected.
    const auto flush = [&] {
      const std::span<const FaultScenario> scenarios(worker.scenarios.data(),
                                                     lanes);
      LaneMask detected = 0;
      const auto refresh = [&] {
        std::fill(worker.pending.begin(), worker.pending.end(), 0);
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          if ((detected >> lane) & 1) continue;
          for (std::size_t x = 0; x < row_words; ++x) {
            worker.pending[x] |= worker.acts[lane * row_words + x];
          }
        }
      };
      refresh();
      for (std::size_t j = 0; j < vectors.size(); ++j) {
        if (((worker.pending[j / kLanes] >> (j % kLanes)) & 1) == 0) {
          continue;
        }
        const LaneMask hit =
            worker.batch.detect_lanes(vectors[j], scenarios) & ~detected;
        if (hit == 0) continue;
        detected |= hit;
        refresh();
      }
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        if ((detected >> lane) & 1) {
          ++slot.detected_pairs;
        } else if (slot.undetected.size() < max_undetected_kept) {
          slot.undetected.emplace_back(worker.scenarios[lane][0],
                                       worker.scenarios[lane][1]);
        }
      }
      lanes = 0;
    };
    for (std::size_t a = row_begin[job]; a < row_begin[job + 1]; ++a) {
      const LaneMask* row_a = rows.data() + a * row_stride;
      for (std::size_t b = a + 1; b < universe.size(); ++b) {
        // Two faults on the same valve are contradictory (a valve cannot
        // be both stuck open and stuck closed); skip same-valve pairs.
        if (universe[a].valve == universe[b].valve) continue;
        ++slot.total_pairs;
        LaneMask* acts = worker.acts.data() + lanes * row_words;
        if (is_stuck(universe[a]) && is_stuck(universe[b])) {
          // Under a vector where one fault is inert the pair reads as the
          // other fault alone, so the pair is detected iff D[a] & I[b] or
          // D[b] & I[a] is nonempty, or a vector where both act detects it.
          const LaneMask* row_b = rows.data() + b * row_stride;
          LaneMask screen = 0;
          LaneMask any_act = 0;
          for (std::size_t x = 0; x < row_words; ++x) {
            const LaneMask inert_a = row_a[row_words + x];
            const LaneMask inert_b = row_b[row_words + x];
            screen |= (row_a[x] & inert_b) | (row_b[x] & inert_a);
            acts[x] = ~inert_a & ~inert_b & all_vectors[x];
            any_act |= acts[x];
          }
          if (screen != 0) {
            ++slot.detected_pairs;
            ++slot.screened_pairs;
            continue;
          }
          if (any_act == 0) ++slot.screened_pairs;
        } else {
          std::copy(all_vectors.begin(), all_vectors.end(), acts);
        }
        worker.scenarios[lanes][0] = universe[a];
        worker.scenarios[lanes][1] = universe[b];
        if (++lanes == kLanes) flush();
      }
    }
    if (lanes > 0) flush();
  });

  PairCoverageReport report;
  for (PairCoverageReport& slot : slots) {
    report.total_pairs += slot.total_pairs;
    report.detected_pairs += slot.detected_pairs;
    report.screened_pairs += slot.screened_pairs;
    const std::size_t keep =
        std::min(slot.undetected.size(),
                 max_undetected_kept - report.undetected.size());
    report.undetected.insert(report.undetected.end(),
                             slot.undetected.begin(),
                             slot.undetected.begin() +
                                 static_cast<std::ptrdiff_t>(keep));
  }
  return report;
}

SetCoverageReport fault_set_coverage(const Simulator& simulator,
                                     std::span<const TestVector> vectors,
                                     std::span<const Fault> universe,
                                     int set_size,
                                     std::size_t max_undetected_kept) {
  common::check(set_size >= 1, "fault_set_coverage: set_size must be >= 1");
  SetCoverageReport report;
  report.set_size = set_size;
  const grid::ValveArray& array = simulator.array();
  const BatchSimulator batch(array);

  std::vector<FaultScenario> scenarios;
  const auto flush = [&] {
    if (scenarios.empty()) return;
    const auto detected = batch.any_detect_lanes(vectors, scenarios);
    for (std::size_t lane = 0; lane < scenarios.size(); ++lane) {
      if ((detected >> lane) & 1) {
        ++report.detected_sets;
      } else if (report.undetected.size() < max_undetected_kept) {
        report.undetected.push_back(scenarios[lane]);
      }
    }
    scenarios.clear();
  };

  // Depth-first subset enumeration in universe order; `used` rejects
  // subsets whose valve footprints overlap (the same physical-consistency
  // rule as draw_fault_set), so enumeration order — and with it every
  // undetected-sample prefix — is deterministic.
  std::vector<char> used(static_cast<std::size_t>(array.valve_count()), 0);
  FaultScenario current;
  current.reserve(static_cast<std::size_t>(set_size));
  const std::function<void(std::size_t, int)> extend =
      [&](std::size_t start, int remaining) {
        if (remaining == 0) {
          ++report.total_sets;
          scenarios.push_back(current);
          if (scenarios.size() == BatchSimulator::kLanes) flush();
          return;
        }
        for (std::size_t i = start;
             i + static_cast<std::size_t>(remaining) <= universe.size();
             ++i) {
          const Fault& fault = universe[i];
          const bool leak = fault.type == FaultType::kControlLeak;
          if (used[static_cast<std::size_t>(fault.valve)] ||
              (leak && used[static_cast<std::size_t>(fault.partner)])) {
            continue;
          }
          used[static_cast<std::size_t>(fault.valve)] = 1;
          if (leak) used[static_cast<std::size_t>(fault.partner)] = 1;
          current.push_back(fault);
          extend(i + 1, remaining - 1);
          current.pop_back();
          used[static_cast<std::size_t>(fault.valve)] = 0;
          if (leak) used[static_cast<std::size_t>(fault.partner)] = 0;
        }
      };
  extend(0, set_size);
  flush();
  return report;
}

}  // namespace fpva::sim
