// Fault-coverage analysis of a test set.
//
// The generator's repair loop and the property tests both need the same
// question answered: which faults from a given universe does a vector set
// detect? Detection is behavioral (simulated), not structural, so coverage
// here accounts for path interference, fluidic seas and masking exactly as
// a real chip would exhibit them.
#ifndef FPVA_SIM_COVERAGE_H
#define FPVA_SIM_COVERAGE_H

#include <span>
#include <vector>

#include "sim/simulator.h"

namespace fpva::sim {

/// All single stuck-at faults of the array (sa0 and sa1 per valve).
std::vector<Fault> single_stuck_fault_universe(const grid::ValveArray& array);

/// All control-leak faults under the nearest-neighbor routing model.
std::vector<Fault> control_leak_universe(const grid::ValveArray& array);

/// Result of a coverage run.
struct CoverageReport {
  int total_faults = 0;
  int detected_faults = 0;
  std::vector<Fault> undetected;  ///< faults no vector catches

  double coverage() const {
    return total_faults == 0
               ? 1.0
               : static_cast<double>(detected_faults) / total_faults;
  }
  bool complete() const { return detected_faults == total_faults; }
};

/// Single-fault coverage of `vectors` over `universe`.
CoverageReport single_fault_coverage(const Simulator& simulator,
                                     std::span<const TestVector> vectors,
                                     std::span<const Fault> universe);

/// Exhaustive two-fault coverage: every unordered pair of faults on
/// distinct valves from `universe` is injected together. Quadratic in
/// |universe|.
///
/// Pairs of stuck-at faults are first decided by an exact screen. A
/// stuck-at fault is inert under vector v when its stuck value equals v's
/// command (sa0 on a valve commanded closed, sa1 on one commanded open).
/// Per fault, D is the set of vectors that detect it alone (one flood per
/// vector per 64 faults) and I the set under which it is inert (read off
/// the commands). Under a v where b is inert, {a, b} reads exactly like a
/// alone, so the pair is detected when (D[a] & I[b]) | (D[b] & I[a]) is
/// nonempty. Otherwise only vectors in ~I[a] & ~I[b] can detect it: where
/// exactly one fault is inert the pair reads as the other fault alone,
/// which the screen found undetected, and where both are inert it reads
/// fault-free, which would have put v in D[a]. These residue pairs are
/// flooded 64 to a word, and each word only under the vectors some of its
/// still-undetected lanes act under. The screen is exact, not a heuristic:
/// the report is the one a flood of every pair under every vector gives.
///
/// Inertness is judged on commands, so it does not carry over to other
/// fault kinds (a control leak can close a valve an "inert" sa1 re-opens):
/// any pair that involves a non-stuck-at fault is flooded under every
/// vector.
///
/// The a < b triangle is sharded into runs of whole rows (~16k pairs
/// each) that run on every core through common::run_jobs. Per-job slots
/// merge in job order, so the report is identical for any worker count:
/// `undetected` holds the first `max_undetected_kept` escaping pairs in
/// (a, b) order.
struct PairCoverageReport {
  long total_pairs = 0;
  long detected_pairs = 0;
  /// Pairs decided without a flood: detected by the screen, or left with
  /// no vector under which both faults act (undetected).
  long screened_pairs = 0;
  std::vector<std::pair<Fault, Fault>> undetected;

  double coverage() const {
    return total_pairs == 0
               ? 1.0
               : static_cast<double>(detected_pairs) /
                     static_cast<double>(total_pairs);
  }
  bool complete() const { return detected_pairs == total_pairs; }
};

PairCoverageReport two_fault_coverage(const Simulator& simulator,
                                      std::span<const TestVector> vectors,
                                      std::span<const Fault> universe,
                                      std::size_t max_undetected_kept = 100);

/// Exhaustive fault-set coverage: every size-`set_size` subset of
/// `universe` whose faults occupy pairwise-disjoint valves (a control leak
/// occupies both of its partners) is injected as one scenario, batched 64
/// subsets per grid pass. This is the enumeration counterpart of the
/// randomized campaign draw and the brute-force oracle behind the masking
/// cross-check tests. Combinatorial in |universe| — intended for small
/// grids.
struct SetCoverageReport {
  int set_size = 0;
  long total_sets = 0;
  long detected_sets = 0;
  std::vector<std::vector<Fault>> undetected;

  double coverage() const {
    return total_sets == 0
               ? 1.0
               : static_cast<double>(detected_sets) /
                     static_cast<double>(total_sets);
  }
  bool complete() const { return detected_sets == total_sets; }
};

SetCoverageReport fault_set_coverage(const Simulator& simulator,
                                     std::span<const TestVector> vectors,
                                     std::span<const Fault> universe,
                                     int set_size,
                                     std::size_t max_undetected_kept = 100);

}  // namespace fpva::sim

#endif  // FPVA_SIM_COVERAGE_H
