// Cross-module property tests: invariants that must hold on randomized
// inputs, not just on hand-picked examples.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "core/cut_planner.h"
#include "core/generator.h"
#include "core/ilp_models.h"
#include "grid/builder.h"
#include "grid/presets.h"
#include "grid/serialize.h"
#include "sim/coverage.h"
#include "sim/simulator.h"

namespace fpva {
namespace {

using grid::Cell;
using grid::Site;

/// Random valve states with a given open probability.
sim::ValveStates random_states(const grid::ValveArray& array,
                               common::Rng& rng, double open_probability) {
  sim::ValveStates states(static_cast<std::size_t>(array.valve_count()));
  for (std::size_t v = 0; v < states.size(); ++v) {
    states[v] = rng.next_bool(open_probability);
  }
  return states;
}

class MonotonicityTest : public ::testing::TestWithParam<int> {};

// Opening one more valve can never turn a pressurized meter silent:
// pressure propagation is monotone in the open set.
TEST_P(MonotonicityTest, OpeningValvesIsMonotone) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const auto array = grid::table1_array(5);
  const sim::Simulator simulator(array);
  for (int trial = 0; trial < 50; ++trial) {
    sim::ValveStates states = random_states(array, rng, 0.4);
    const auto before = simulator.expected(states);
    // Open a random closed valve (if any).
    std::vector<std::size_t> closed;
    for (std::size_t v = 0; v < states.size(); ++v) {
      if (!states[v]) closed.push_back(v);
    }
    if (closed.empty()) continue;
    states[closed[static_cast<std::size_t>(
        rng.next_below(closed.size()))]] = true;
    const auto after = simulator.expected(states);
    for (std::size_t k = 0; k < before.size(); ++k) {
      EXPECT_LE(before[k], after[k]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityTest, ::testing::Range(0, 8));

// A stuck-at-1 fault can only add pressure; a stuck-at-0 only remove it.
TEST(FaultPolarityTest, StuckFaultsAreOneSided) {
  common::Rng rng(99);
  const auto array = grid::full_array(6, 6);
  const sim::Simulator simulator(array);
  for (int trial = 0; trial < 100; ++trial) {
    const sim::ValveStates states = random_states(array, rng, 0.5);
    const auto clean = simulator.expected(states);
    const auto valve = static_cast<grid::ValveId>(
        rng.next_below(static_cast<std::uint64_t>(array.valve_count())));
    const sim::Fault sa1[] = {sim::stuck_at_1(valve)};
    const auto leaky = simulator.readings(states, sa1);
    const sim::Fault sa0[] = {sim::stuck_at_0(valve)};
    const auto blocked = simulator.readings(states, sa0);
    for (std::size_t k = 0; k < clean.size(); ++k) {
      EXPECT_LE(clean[k], leaky[k]);    // sa1 never removes pressure
      EXPECT_GE(clean[k], blocked[k]);  // sa0 never adds pressure
    }
  }
}

class StaircaseSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

// The anti-diagonal staircase family partitions the valves of any full
// rectangular array: every valve in exactly one staircase.
TEST_P(StaircaseSweep, PartitionsRectangularArrays) {
  const auto [rows, cols] = GetParam();
  const auto array = grid::full_array(rows, cols);
  core::CutPlanner planner(array);
  std::vector<int> hit(static_cast<std::size_t>(array.valve_count()), 0);
  for (int d = 1; d <= rows + cols - 2; ++d) {
    const auto cut = planner.staircase(d);
    ASSERT_TRUE(cut.has_value()) << "d=" << d;
    EXPECT_EQ(validate_cut_set(array, *cut), std::nullopt);
    for (const grid::ValveId v : cut_valves(array, *cut)) {
      ++hit[static_cast<std::size_t>(v)];
    }
  }
  for (std::size_t v = 0; v < hit.size(); ++v) {
    EXPECT_EQ(hit[v], 1) << "valve " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StaircaseSweep,
    ::testing::Values(std::pair{2, 2}, std::pair{3, 5}, std::pair{5, 3},
                      std::pair{4, 9}, std::pair{7, 7}, std::pair{1, 6},
                      std::pair{6, 1}));

// Serialization round-trips for every preset and for randomized layouts.
TEST(SerializationProperty, RoundTripsRandomLayouts) {
  common::Rng rng(2017);
  for (int trial = 0; trial < 20; ++trial) {
    const int rows = 3 + static_cast<int>(rng.next_below(6));
    const int cols = 3 + static_cast<int>(rng.next_below(6));
    grid::LayoutBuilder builder(rows, cols);
    // A few random internal channels (re-picking on collisions).
    for (int k = 0; k < 3; ++k) {
      const int r = 1 + static_cast<int>(
                            rng.next_below(static_cast<std::uint64_t>(
                                2 * rows - 1)));
      const int c = 1 + static_cast<int>(
                            rng.next_below(static_cast<std::uint64_t>(
                                2 * cols - 1)));
      const Site site{r, c};
      if (!has_valve_parity(site)) continue;
      try {
        builder.channel(site);
      } catch (const common::Error&) {
        // already a channel or adjacent to an obstacle; fine
      }
    }
    builder.default_ports();
    const grid::ValveArray array = builder.build();
    const grid::ValveArray reparsed =
        grid::parse_ascii(grid::to_ascii(array));
    EXPECT_EQ(grid::to_ascii(reparsed), grid::to_ascii(array));
    EXPECT_EQ(reparsed.valve_count(), array.valve_count());
  }
}

// The generator's untestable classification is sound: a fault it labels
// untestable really is undetectable by any of up to 200 random vectors.
TEST(UntestableSoundness, RandomVectorsCannotDetect) {
  const auto array = grid::LayoutBuilder(3, 3)
                         .channel(Site{1, 2})
                         .channel(Site{2, 1})
                         .channel(Site{2, 3})
                         .default_ports()
                         .build();
  const auto set = core::generate_test_set(array);
  ASSERT_FALSE(set.untestable.empty());
  const sim::Simulator simulator(array);
  common::Rng rng(4242);
  for (const grid::ValveId valve : set.untestable) {
    for (int trial = 0; trial < 200; ++trial) {
      sim::TestVector vector;
      vector.states = random_states(array, rng, rng.next_double());
      vector.expected = simulator.expected(vector.states);
      const sim::Fault sa0[] = {sim::stuck_at_0(valve)};
      const sim::Fault sa1[] = {sim::stuck_at_1(valve)};
      EXPECT_FALSE(simulator.detects(vector, sa0));
      EXPECT_FALSE(simulator.detects(vector, sa1));
    }
  }
}

// Corner leak pairs flagged untestable cannot be caught by random vectors
// either (behavioral soundness of the classification).
TEST(UntestableSoundness, CornerLeakPairsEscapeRandomVectors) {
  const auto array = grid::full_array(4, 4);
  const auto set = core::generate_test_set(array);
  ASSERT_EQ(set.untestable_leaks.size(), 2u);
  const sim::Simulator simulator(array);
  common::Rng rng(777);
  for (const sim::Fault& fault : set.untestable_leaks) {
    const sim::Fault injected[] = {fault};
    for (int trial = 0; trial < 300; ++trial) {
      sim::TestVector vector;
      vector.states = random_states(array, rng, rng.next_double());
      vector.expected = simulator.expected(vector.states);
      EXPECT_FALSE(simulator.detects(vector, injected))
          << to_string(fault);
    }
  }
}

// Generated cut vectors expect silence at every meter; generated path
// vectors expect pressure at exactly the path's sink.
TEST(VectorShapeProperty, ExpectationsMatchKind) {
  for (const int n : {5, 10}) {
    const auto array = grid::table1_array(n);
    const auto set = core::generate_test_set(array);
    for (const sim::TestVector& vector : set.vectors) {
      if (vector.kind == sim::VectorKind::kCutSet) {
        int silent = 0;
        for (const bool reading : vector.expected) silent += !reading;
        EXPECT_GE(silent, 1) << vector.label;
      } else if (vector.kind == sim::VectorKind::kFlowPath ||
                 vector.kind == sim::VectorKind::kControlLeak) {
        int pressurized = 0;
        for (const bool reading : vector.expected) pressurized += reading;
        EXPECT_GE(pressurized, 1) << vector.label;
      }
    }
  }
}

// Every vector family stays within its structural size budget: a flow path
// opens at most (#cells + 1) valves; a cut closes at most all valves.
TEST(VectorShapeProperty, OpenAndClosedCounts) {
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const int cell_count = array.rows() * array.cols();
  for (const sim::TestVector& vector : set.vectors) {
    int open = 0;
    for (std::size_t v = 0; v < vector.states.size(); ++v) {
      open += vector.states[v];
    }
    if (vector.kind == sim::VectorKind::kFlowPath ||
        vector.kind == sim::VectorKind::kControlLeak) {
      EXPECT_LE(open, cell_count + 1) << vector.label;
    } else if (vector.kind == sim::VectorKind::kCutSet) {
      // Even a long, winding cut leaves most of the array open.
      EXPECT_GE(open, 1) << vector.label;
    }
  }
}

// ---------------------------------------------------------------------------
// Solver-option-set equivalence: the default ILP pipeline and one with
// every search-side mechanism switched off may produce different vector
// sets, but the behavioral fault coverage audited through sim/ must be
// identical.

/// The defaults with presolve, node propagation, conflict learning,
/// probing, clique cuts, orbit rows and budget floor rows all off: the
/// plain warm-LP branch-and-bound underneath every mechanism.
ilp::Options mechanisms_off_options() {
  ilp::Options options;
  options.presolve = false;
  options.node_propagation = false;
  options.conflict_learning = false;
  options.probing = false;
  options.clique_cuts = false;
  options.orbit_symmetry_rows = false;
  options.budget_floor_rows = false;
  return options;
}

/// Audited coverage signature of `vectors` over `universe`: the sorted
/// undetected-fault names (plus the detected count). Two vector sets with
/// equal signatures have identical behavioral fault coverage.
std::vector<std::string> coverage_signature(
    const grid::ValveArray& array, const std::vector<sim::TestVector>& vectors,
    const std::vector<sim::Fault>& universe) {
  const sim::Simulator simulator(array);
  const auto report = sim::single_fault_coverage(simulator, vectors, universe);
  std::vector<std::string> signature;
  for (const sim::Fault& fault : report.undetected) {
    signature.push_back(to_string(fault));
  }
  std::sort(signature.begin(), signature.end());
  signature.push_back("detected=" + std::to_string(report.detected_faults));
  return signature;
}

// Flow-path and cut-set ILP generators, defaults vs mechanisms off, on
// small full arrays and one irregular array: identical budgets and
// identical audited fault coverage.
TEST(SolverEquivalenceProperty, IlpGeneratorsCoverIdenticallyUnderBothPipelines) {
  std::vector<grid::ValveArray> arrays;
  arrays.push_back(grid::full_array(2, 2));
  arrays.push_back(grid::full_array(3, 3));
  // One irregular array: channels punch through the regular structure.
  arrays.push_back(grid::LayoutBuilder(3, 3)
                       .channel(Site{1, 2})
                       .channel(Site{3, 4})
                       .default_ports()
                       .build());
  for (const grid::ValveArray& array : arrays) {
    // Flow paths: the two pipelines may pick different (equally minimal)
    // covers whose behavioral detection differs, but the budget and the
    // structural cover — every valve crossed by some path — must agree.
    const auto accel_paths = core::find_minimum_flow_paths(array, 1, 6);
    const auto plain_paths =
        core::find_minimum_flow_paths(array, 1, 6, mechanisms_off_options());
    ASSERT_EQ(accel_paths.has_value(), plain_paths.has_value());
    if (accel_paths.has_value()) {
      EXPECT_EQ(accel_paths->path_budget, plain_paths->path_budget);
      EXPECT_TRUE(accel_paths->proven_minimal);
      const auto covered_valves = [&](const core::IlpPathResult& result) {
        std::vector<bool> mask(
            static_cast<std::size_t>(array.valve_count()), false);
        for (const core::FlowPath& path : result.paths) {
          for (const grid::ValveId v : path_valves(array, path)) {
            mask[static_cast<std::size_t>(v)] = true;
          }
        }
        return mask;
      };
      EXPECT_EQ(covered_valves(*accel_paths), covered_valves(*plain_paths));
    }

    // Cut sets (2x2-sized models only: without propagation and conflict
    // learning the cut-set refutations need minutes on anything larger).
    if (array.valve_count() <= 4) {
      const auto accel_cuts = core::find_minimum_cut_sets(array, 1, 4, true);
      const auto plain_cuts = core::find_minimum_cut_sets(
          array, 1, 4, true, mechanisms_off_options());
      ASSERT_EQ(accel_cuts.has_value(), plain_cuts.has_value());
      if (accel_cuts.has_value()) {
        EXPECT_EQ(accel_cuts->cut_budget, plain_cuts->cut_budget);
        const auto covered_valves = [&](const core::IlpCutResult& result) {
          std::vector<bool> mask(
              static_cast<std::size_t>(array.valve_count()), false);
          for (const core::CutSet& cut : result.cuts) {
            for (const grid::ValveId v : cut_valves(array, cut)) {
              mask[static_cast<std::size_t>(v)] = true;
            }
          }
          return mask;
        };
        EXPECT_EQ(covered_valves(*accel_cuts), covered_valves(*plain_cuts));
      }
    }
  }
}

// End-to-end generator on every Table-I preset: the default ILP pipeline
// and the mechanisms-off option set must audit to identical fault
// coverage. The 5x5 preset runs the ILP path engine under both option sets
// (39 valves fits the limit); the larger presets fall back to the
// constructive engine either way. The repair loop makes audited coverage
// invariant across covers, so the comparison stays meaningful.
TEST(SolverEquivalenceProperty, TableOnePresetsCoverIdenticallyUnderBothPipelines) {
  for (const int n : grid::table1_sizes()) {
#ifndef NDEBUG
    if (n > 15) continue;  // keep sanitizer/debug runs inside the budget
#endif
    const auto array = grid::table1_array(n);
    core::GeneratorOptions accelerated;
    accelerated.path_engine = core::GeneratorOptions::PathEngine::kIlp;
    core::GeneratorOptions plain = accelerated;
    plain.ilp_options = mechanisms_off_options();
    const auto accel_set = core::generate_test_set(array, accelerated);
    const auto plain_set = core::generate_test_set(array, plain);

    std::vector<sim::Fault> universe;
    for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
      universe.push_back(sim::stuck_at_0(v));
      universe.push_back(sim::stuck_at_1(v));
    }
    EXPECT_EQ(coverage_signature(array, accel_set.vectors, universe),
              coverage_signature(array, plain_set.vectors, universe))
        << "preset " << n << "x" << n;
    EXPECT_TRUE(accel_set.ilp_certified) << "preset " << n;
    EXPECT_TRUE(plain_set.ilp_certified) << "preset " << n;
  }
}

}  // namespace
}  // namespace fpva
