// Property tests for warm row addition (the cutting-loop half of the
// Forrest-Tomlin work): appending cut rows to a live factorized basis and
// dual-repairing must be indistinguishable — in reported optimum and in
// the validity of the final basis — from crashing the extended LP cold
// each round. The paper's Table-I / full-array presets must certify the
// same budgets with the node-LP basis stack on or off.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/ilp_models.h"
#include "grid/presets.h"
#include "ilp/branch_and_bound.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace fpva {
namespace {

/// Random packing-flavored LP: binaries-shaped boxes with knapsack rows,
/// the shape the root cutting loop actually sees.
lp::Model random_packing_lp(common::Rng& rng, int n) {
  lp::Model model;
  for (int j = 0; j < n; ++j) {
    model.add_variable(0.0, 1.0, -(1.0 + rng.next_double() * 4.0));
  }
  const int m = 2 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < m; ++i) {
    std::vector<lp::Term> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.next_bool(0.5)) {
        terms.push_back({j, 1.0 + rng.next_double() * 3.0});
      }
    }
    if (terms.size() < 2) terms = {{0, 1.0}, {n - 1, 1.0}};
    double total = 0.0;
    for (const lp::Term& term : terms) total += term.coefficient;
    model.add_constraint(std::move(terms), lp::Sense::kLessEqual,
                         total * (0.3 + rng.next_double() * 0.3));
  }
  return model;
}

// A synthetic cutting loop: each round appends a currently-binding row to
// the warm solver and to a pristine model copy. After every round the warm
// reoptimize must match a cold dual crash of the extended model, and the
// warm solver's final basis, restored into a fresh solver and
// refactorized, must reproduce the optimum without a single pivot — the
// basis itself is optimal, not just the reported number.
TEST(WarmRowAdditionTest, EveryCutRoundMatchesColdCrash) {
  for (int trial = 0; trial < 40; ++trial) {
    common::Rng rng(static_cast<std::uint64_t>(trial) * 6364136223846793005ULL +
                    1442695040888963407ULL);
    lp::Model model = random_packing_lp(rng, 6 + static_cast<int>(rng.next_below(8)));
    lp::RevisedSimplex warm(model);
    lp::Solution current = warm.solve_cold();
    ASSERT_EQ(current.status, lp::SolveStatus::kOptimal) << "trial " << trial;

    for (int round = 0; round < 4; ++round) {
      // Cut off the current optimum with a valid-looking <= row.
      std::vector<lp::Term> terms;
      double activity = 0.0;
      for (int j = 0; j < model.variable_count(); ++j) {
        const double v = current.values[static_cast<std::size_t>(j)];
        if (v > 0.01) {
          terms.push_back({j, 1.0});
          activity += v;
        }
      }
      if (terms.size() < 2) break;  // nothing left to cut
      const double rhs = activity - 0.5;
      warm.add_row(terms, lp::Sense::kLessEqual, rhs);
      model.add_constraint(terms, lp::Sense::kLessEqual, rhs);

      const lp::Solution warm_solution = warm.reoptimize();
      ASSERT_FALSE(warm.numerical_trouble())
          << "trial " << trial << " round " << round;

      // Cold oracle: dual crash over the extended model from scratch.
      lp::RevisedSimplex cold(model);
      const lp::Solution cold_solution = cold.solve_cold();
      ASSERT_EQ(warm_solution.status, cold_solution.status)
          << "trial " << trial << " round " << round;
      if (warm_solution.status != lp::SolveStatus::kOptimal) break;
      EXPECT_NEAR(warm_solution.objective, cold_solution.objective, 1e-7)
          << "trial " << trial << " round " << round;

      // Basis validity: the warm basis, refactorized from scratch in a
      // fresh solver, is already optimal — zero pivots, and (being the
      // same basis refactorized the same way twice) a bit-identical
      // objective on a second restore.
      lp::RevisedSimplex check(model);
      ASSERT_TRUE(check.restore_basis(warm.snapshot_basis()))
          << "trial " << trial << " round " << round;
      const lp::Solution restored = check.reoptimize();
      ASSERT_EQ(restored.status, lp::SolveStatus::kOptimal)
          << "trial " << trial << " round " << round;
      EXPECT_EQ(restored.iterations, 0)
          << "warm basis was not optimal (trial " << trial << " round "
          << round << ")";
      EXPECT_NEAR(restored.objective, warm_solution.objective, 1e-8)
          << "trial " << trial << " round " << round;

      lp::RevisedSimplex again(model);
      ASSERT_TRUE(again.restore_basis(warm.snapshot_basis()));
      const lp::Solution replay = again.reoptimize();
      // Same basis, same bounds, same code path: bit-identical.
      EXPECT_EQ(replay.objective, restored.objective)
          << "trial " << trial << " round " << round;

      current = warm_solution;
    }
  }
}

// Table-I / full-array presets through the real pipeline: the minimum
// budgets and their certificates must not depend on the basis stack.
TEST(WarmRowAdditionTest, PresetBudgetsIdenticalBasisStackOnAndOff) {
  ilp::Options stack_on;
  stack_on.objective_is_integral = true;
  ilp::Options stack_off = stack_on;
  stack_off.basis_stack_depth = 0;

  const grid::ValveArray table1 = grid::table1_array(5);
  const auto paths_on = core::find_minimum_flow_paths(table1, 1, 8, stack_on);
  const auto paths_off =
      core::find_minimum_flow_paths(table1, 1, 8, stack_off);
  ASSERT_TRUE(paths_on.has_value());
  ASSERT_TRUE(paths_off.has_value());
  EXPECT_EQ(paths_on->path_budget, paths_off->path_budget);
  EXPECT_EQ(paths_on->proven_minimal, paths_off->proven_minimal);

  for (const int n : {2, 3}) {
    const grid::ValveArray array = grid::full_array(n, n);
    const auto on = core::find_minimum_cut_sets(array, 1, 8, true, stack_on);
    const auto off = core::find_minimum_cut_sets(array, 1, 8, true, stack_off);
    ASSERT_TRUE(on.has_value()) << n;
    ASSERT_TRUE(off.has_value()) << n;
    EXPECT_EQ(on->cut_budget, off->cut_budget) << n;
    EXPECT_EQ(on->proven_minimal, off->proven_minimal) << n;
  }
}

}  // namespace
}  // namespace fpva
