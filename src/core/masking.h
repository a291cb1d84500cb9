// Two-fault masking analysis and repair (Fig. 5(c)/(d), constraint (9)).
//
// The paper guarantees detection of any two simultaneous faults by
// excluding the mutual-masking pattern between a stuck-at-0 valve blocking
// the leak route of a stuck-at-1 valve. This module provides the behavioral
// counterpart: an exhaustive (or sampled) audit of all two-fault
// combinations against a vector set, plus a best-effort repair loop that
// emits targeted vectors for any pair that escapes.
#ifndef FPVA_CORE_MASKING_H
#define FPVA_CORE_MASKING_H

#include <vector>

#include "core/cut_planner.h"
#include "core/path_planner.h"
#include "sim/coverage.h"
#include "sim/simulator.h"

namespace fpva::core {

struct TwoFaultAuditOptions {
  int max_repair_rounds = 3;
  std::size_t max_undetected_kept = 100;
};

struct TwoFaultAudit {
  sim::PairCoverageReport before;  ///< pair coverage of the input set
  sim::PairCoverageReport after;   ///< pair coverage after repair vectors
  int added_vectors = 0;
};

/// Exhaustively audits all stuck-at fault pairs against `vectors`,
/// appending repair vectors (targeted paths and cuts) for undetected pairs.
/// The pair count is quadratic in the testable valve count: 1,105,584
/// pairs on the 20x20 Table-I preset, 5,803,824 on the 30x30 one. Each
/// audit pass goes through sim::two_fault_coverage, whose exact screen
/// decides ~73% of those pairs without a flood and whose residue flood is
/// sharded across all cores; both reports are identical for any worker
/// count. On a 4-core Xeon VM (Release) a pass over the hierarchical
/// (5x5-block) test set takes ~0.10 s on 20x20 and ~0.8 s on 30x30
/// (0.92 s and 8.5 s when every pair was flooded under every vector).
TwoFaultAudit audit_and_repair_two_faults(
    const grid::ValveArray& array, const sim::Simulator& simulator,
    std::vector<sim::TestVector>& vectors,
    const TwoFaultAuditOptions& options = {});

}  // namespace fpva::core

#endif  // FPVA_CORE_MASKING_H
