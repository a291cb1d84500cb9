#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/generator.h"
#include "core/masking.h"
#include "grid/builder.h"
#include "grid/presets.h"
#include "sim/batch.h"
#include "sim/coverage.h"

namespace fpva::core {
namespace {

/// The audit's fault universe: both stuck faults per testable valve
/// (structurally bypassed valves excluded), exactly as
/// audit_and_repair_two_faults builds it.
std::vector<sim::Fault> audited_stuck_universe(const grid::ValveArray& array) {
  std::vector<bool> untestable(
      static_cast<std::size_t>(array.valve_count()), false);
  for (const grid::ValveId v : channel_bypassed_valves(array)) {
    untestable[static_cast<std::size_t>(v)] = true;
  }
  std::vector<sim::Fault> universe;
  for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
    if (untestable[static_cast<std::size_t>(v)]) continue;
    universe.push_back(sim::stuck_at_0(v));
    universe.push_back(sim::stuck_at_1(v));
  }
  return universe;
}

/// Oracle for sim::two_fault_coverage: a serial sweep in which one
/// BatchSimulator walks the whole a < b triangle in 64-pair batches that
/// straddle row boundaries, keeping the first `max_undetected_kept`
/// escaping pairs in (a, b) order.
sim::PairCoverageReport serial_pair_coverage(
    const sim::Simulator& simulator, std::span<const sim::TestVector> vectors,
    std::span<const sim::Fault> universe, std::size_t max_undetected_kept) {
  sim::PairCoverageReport report;
  const sim::BatchSimulator batch(simulator.array());
  std::vector<sim::FaultScenario> scenarios;
  const auto flush = [&] {
    if (scenarios.empty()) return;
    const auto detected = batch.any_detect_lanes(vectors, scenarios);
    for (std::size_t lane = 0; lane < scenarios.size(); ++lane) {
      if ((detected >> lane) & 1) {
        ++report.detected_pairs;
      } else if (report.undetected.size() < max_undetected_kept) {
        report.undetected.emplace_back(scenarios[lane][0],
                                       scenarios[lane][1]);
      }
    }
    scenarios.clear();
  };
  for (std::size_t a = 0; a < universe.size(); ++a) {
    for (std::size_t b = a + 1; b < universe.size(); ++b) {
      if (universe[a].valve == universe[b].valve) continue;
      ++report.total_pairs;
      scenarios.push_back({universe[a], universe[b]});
      if (scenarios.size() == sim::BatchSimulator::kLanes) flush();
    }
  }
  flush();
  return report;
}

/// Independent count of the pairs two_fault_coverage decides without a
/// flood, from scalar single-fault simulation: a fault is inert under a
/// vector when it leaves every effective valve state as commanded. A pair
/// of stuck-at faults is decided when one fault is detected alone under a
/// vector where the other is inert, or when no vector leaves both active.
long screened_pair_count(const sim::Simulator& simulator,
                         std::span<const sim::TestVector> vectors,
                         std::span<const sim::Fault> universe) {
  const auto stuck = [](const sim::Fault& fault) {
    return fault.type == sim::FaultType::kStuckAt0 ||
           fault.type == sim::FaultType::kStuckAt1;
  };
  std::vector<std::vector<bool>> detects(universe.size());
  std::vector<std::vector<bool>> inert(universe.size());
  for (std::size_t f = 0; f < universe.size(); ++f) {
    if (!stuck(universe[f])) continue;
    const sim::Fault single[] = {universe[f]};
    for (const sim::TestVector& vector : vectors) {
      detects[f].push_back(simulator.detects(vector, single));
      inert[f].push_back(simulator.effective_states(vector.states, single) ==
                         vector.states);
    }
  }
  long screened = 0;
  for (std::size_t a = 0; a < universe.size(); ++a) {
    for (std::size_t b = a + 1; b < universe.size(); ++b) {
      if (universe[a].valve == universe[b].valve) continue;
      if (!stuck(universe[a]) || !stuck(universe[b])) continue;
      bool decided = true;
      for (std::size_t v = 0; v < vectors.size(); ++v) {
        if ((detects[a][v] && inert[b][v]) ||
            (detects[b][v] && inert[a][v])) {
          decided = true;
          break;
        }
        if (!inert[a][v] && !inert[b][v]) decided = false;
      }
      if (decided) ++screened;
    }
  }
  return screened;
}

/// two_fault_coverage must equal the serial sweep at every undetected
/// sample cap, and screen exactly the pairs the rows decide.
void expect_matches_serial(const sim::Simulator& simulator,
                           std::span<const sim::TestVector> vectors,
                           std::span<const sim::Fault> universe,
                           const std::string& label) {
  EXPECT_EQ(sim::two_fault_coverage(simulator, vectors, universe)
                .screened_pairs,
            screened_pair_count(simulator, vectors, universe))
      << label;
  for (const std::size_t kept :
       {std::size_t{0}, std::size_t{1}, std::size_t{100},
        std::numeric_limits<std::size_t>::max()}) {
    const auto expected =
        serial_pair_coverage(simulator, vectors, universe, kept);
    const auto actual =
        sim::two_fault_coverage(simulator, vectors, universe, kept);
    EXPECT_EQ(actual.total_pairs, expected.total_pairs)
        << label << ", kept " << kept;
    EXPECT_EQ(actual.detected_pairs, expected.detected_pairs)
        << label << ", kept " << kept;
    EXPECT_EQ(actual.undetected.size(), expected.undetected.size())
        << label << ", kept " << kept;
    EXPECT_TRUE(actual.undetected == expected.undetected)
        << label << ", kept " << kept;
  }
}

std::string render(const std::vector<std::vector<sim::Fault>>& sets) {
  std::ostringstream out;
  for (const auto& faults : sets) out << sim::to_string(faults) << "\n";
  return out.str();
}

// The paper's guarantee: any two simultaneous faults are detected. We audit
// exhaustively on small arrays.
TEST(MaskingTest, TwoFaultGuaranteeOnFull5x5) {
  const auto array = grid::full_array(5, 5);
  const sim::Simulator simulator(array);
  auto set = generate_test_set(array);
  TwoFaultAuditOptions options;
  const auto audit =
      audit_and_repair_two_faults(array, simulator, set.vectors, options);
  EXPECT_TRUE(audit.after.complete())
      << audit.after.undetected.size() << " fault pairs escape";
  EXPECT_GT(audit.before.total_pairs, 0);
}

TEST(MaskingTest, TwoFaultGuaranteeOnTable1_5x5) {
  const auto array = grid::table1_array(5);
  const sim::Simulator simulator(array);
  auto set = generate_test_set(array);
  const auto audit =
      audit_and_repair_two_faults(array, simulator, set.vectors);
  EXPECT_TRUE(audit.after.complete());
}

TEST(MaskingTest, RepairAddsVectorsWhenSetIsWeak) {
  // Start from a deliberately weak set (paths only, no cuts): stuck-at-1
  // faults are invisible, so pairs escape and the auditor must add cut
  // vectors.
  const auto array = grid::full_array(4, 4);
  const sim::Simulator simulator(array);
  GeneratorOptions options;
  options.generate_cut_vectors = false;
  options.generate_leak_vectors = false;
  auto set = generate_test_set(array, options);
  const std::size_t before_count = set.vectors.size();
  const auto audit =
      audit_and_repair_two_faults(array, simulator, set.vectors);
  EXPECT_LT(audit.before.detected_pairs, audit.before.total_pairs);
  EXPECT_GT(audit.added_vectors, 0);
  EXPECT_GT(set.vectors.size(), before_count);
  EXPECT_GT(audit.after.detected_pairs, audit.before.detected_pairs);
}

TEST(MaskingTest, ObstaclePocketArrayStillAuditable) {
  // A constriction (obstacle wall with a single-valve gap) creates the
  // masking geometry of Fig. 5(c)/(d); the audit must converge anyway.
  const auto array = grid::LayoutBuilder(6, 6)
                         .obstacle_rect(grid::Cell{2, 0}, grid::Cell{2, 3})
                         .obstacle_rect(grid::Cell{2, 5}, grid::Cell{2, 5})
                         .default_ports()
                         .build();
  const sim::Simulator simulator(array);
  auto set = generate_test_set(array);
  EXPECT_TRUE(set.undetected.empty());
  const auto audit =
      audit_and_repair_two_faults(array, simulator, set.vectors);
  EXPECT_TRUE(audit.after.complete())
      << audit.after.undetected.size() << " pairs escape";
}

TEST(MaskingCrossCheckTest, AuditClaimsMatchBruteForceSetEnumeration) {
  // The audit's pair report and the independent fault-set enumerator must
  // agree exactly: same pair count, same detected count, and a complete()
  // claim must survive brute-force multi-fault simulation. Any divergence
  // fails with the escaping fault sets printed.
  const grid::ValveArray arrays[] = {
      grid::full_array(2, 2), grid::full_array(3, 3), grid::full_array(3, 4),
      grid::full_array(4, 4)};
  for (const grid::ValveArray& array : arrays) {
    const sim::Simulator simulator(array);
    auto set = generate_test_set(array);
    const auto audit =
        audit_and_repair_two_faults(array, simulator, set.vectors);
    const auto universe = audited_stuck_universe(array);
    const auto brute =
        sim::fault_set_coverage(simulator, set.vectors, universe, 2);
    EXPECT_EQ(brute.total_sets, audit.after.total_pairs)
        << array.valve_count() << " valves";
    EXPECT_EQ(brute.detected_sets, audit.after.detected_pairs)
        << array.valve_count() << " valves";
    EXPECT_EQ(brute.complete(), audit.after.complete())
        << array.valve_count() << " valves; escaping sets:\n"
        << render(brute.undetected);
  }
}

TEST(MaskingCrossCheckTest, SetEnumeratorMatchesScalarPairLoop) {
  // The batched enumerator itself cross-checked against the slowest
  // possible oracle: a scalar any_detects call per disjoint-valve pair.
  const grid::ValveArray arrays[] = {grid::full_array(2, 2),
                                     grid::full_array(3, 3)};
  for (const grid::ValveArray& array : arrays) {
    const sim::Simulator simulator(array);
    auto set = generate_test_set(array);
    const auto universe = audited_stuck_universe(array);
    const auto brute =
        sim::fault_set_coverage(simulator, set.vectors, universe, 2);
    long total = 0;
    long detected = 0;
    std::vector<std::vector<sim::Fault>> undetected;
    for (std::size_t a = 0; a < universe.size(); ++a) {
      for (std::size_t b = a + 1; b < universe.size(); ++b) {
        if (universe[a].valve == universe[b].valve) continue;
        ++total;
        const sim::Fault injected[] = {universe[a], universe[b]};
        if (simulator.any_detects(set.vectors, injected)) {
          ++detected;
        } else {
          undetected.push_back({universe[a], universe[b]});
        }
      }
    }
    EXPECT_EQ(brute.total_sets, total);
    EXPECT_EQ(brute.detected_sets, detected)
        << "scalar says undetected:\n"
        << render(undetected) << "enumerator says undetected:\n"
        << render(brute.undetected);
    EXPECT_EQ(brute.undetected, undetected);
  }
}

TEST(MaskingCrossCheckTest, ShardedPairAuditMatchesSerialSweep) {
  // The pair audit is sharded across workers; its report must equal the
  // serial sweep's at every undetected-sample cap. A paths-only vector set
  // lets many pairs escape, and both arrays span several shards, so shard
  // boundaries fall inside the undetected sample.
  const grid::ValveArray arrays[] = {grid::full_array(8, 8),
                                     grid::table1_array(10)};
  GeneratorOptions weak;
  weak.generate_cut_vectors = false;
  weak.generate_leak_vectors = false;
  for (const grid::ValveArray& array : arrays) {
    const sim::Simulator simulator(array);
    const auto set = generate_test_set(array, weak);
    const auto universe = audited_stuck_universe(array);
    const auto serial = serial_pair_coverage(simulator, set.vectors,
                                             universe, 0);
    EXPECT_GT(serial.total_pairs, 20000) << array.valve_count();
    EXPECT_LT(serial.detected_pairs, serial.total_pairs);
    expect_matches_serial(simulator, set.vectors, universe,
                          std::to_string(array.valve_count()) + " valves");
  }
}

TEST(MaskingCrossCheckTest, ScreenedPairAuditMatchesSerialSweep) {
  // Inputs the stuck-at screen could get wrong. (1) A universe mixing
  // control leaks into the stuck faults: a leak can close a valve that an
  // "inert" sa1 re-opens, so leak pairs must be flooded under every
  // vector. (2) A vector whose expected reading has a sink bit flipped, so
  // the fault-free reading itself mismatches. (3) A complete hierarchical
  // set, where the screen decides almost every pair.
  {
    const auto array = grid::full_array(6, 6);
    const sim::Simulator simulator(array);
    auto universe = audited_stuck_universe(array);
    const auto leaks = sim::control_leak_universe(array);
    universe.insert(universe.end(), leaks.begin(), leaks.end());
    GeneratorOptions weak;
    weak.generate_cut_vectors = false;
    weak.generate_leak_vectors = false;
    expect_matches_serial(simulator, generate_test_set(array).vectors,
                          universe, "mixed universe, complete set");
    expect_matches_serial(simulator, generate_test_set(array, weak).vectors,
                          universe, "mixed universe, paths only");
  }
  {
    const auto array = grid::full_array(6, 6);
    const sim::Simulator simulator(array);
    auto vectors = generate_test_set(array).vectors;
    ASSERT_FALSE(vectors.empty());
    vectors[vectors.size() / 2].expected[0] =
        !vectors[vectors.size() / 2].expected[0];
    expect_matches_serial(simulator, vectors, audited_stuck_universe(array),
                          "flipped expected bit");
  }
  {
    const auto array = grid::table1_array(10);
    const sim::Simulator simulator(array);
    GeneratorOptions options;
    options.hierarchical = true;
    const auto set = generate_test_set(array, options);
    const auto universe = audited_stuck_universe(array);
    const auto report =
        sim::two_fault_coverage(simulator, set.vectors, universe);
    EXPECT_TRUE(report.complete());
    EXPECT_GT(report.screened_pairs, report.total_pairs / 2);
    expect_matches_serial(simulator, set.vectors, universe,
                          "complete hierarchical set");
  }
}

TEST(MaskingCrossCheckTest, TripleSetsAreScalarConfirmed) {
  // Beyond the paper's pair guarantee: every triple the enumerator reports
  // as escaping really does escape under the scalar oracle (and detected
  // triples at least exist on a covered 3x3).
  const auto array = grid::full_array(3, 3);
  const sim::Simulator simulator(array);
  auto set = generate_test_set(array);
  const auto universe = audited_stuck_universe(array);
  const auto brute =
      sim::fault_set_coverage(simulator, set.vectors, universe, 3);
  EXPECT_GT(brute.total_sets, 0);
  EXPECT_GT(brute.detected_sets, 0);
  for (const auto& faults : brute.undetected) {
    EXPECT_FALSE(simulator.any_detects(set.vectors, faults))
        << sim::to_string(faults);
  }
}

}  // namespace
}  // namespace fpva::core
