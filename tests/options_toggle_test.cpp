// Every ilp::Options acceleration must be toggleable, and toggling must not
// change the optimum — only the route the search takes to it. fpva_lint's
// untested-option rule cross-references each Options field against the test
// tree; this file is where fields get their mandated exercise. Each test
// flips exactly one knob away from its default (or sweeps it) and asserts
// the optimum against the known answer from ilp_test.cpp's models.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/ilp_models.h"
#include "grid/presets.h"
#include "ilp/branch_and_bound.h"
#include "ilp/model.h"

namespace fpva::ilp {
namespace {

/// Classic 0/1 knapsack: values {10,13,7,11}, weights {5,6,4,5}, cap 10.
/// Optimum -21 (items 0 and 3). Minimizing negated values.
Model knapsack_model() {
  Model model;
  const double values[] = {10, 13, 7, 11};
  const double weights[] = {5, 6, 4, 5};
  std::vector<lp::Term> weight_terms;
  for (int i = 0; i < 4; ++i) {
    const int x = model.add_binary(-values[i]);
    weight_terms.push_back({x, weights[i]});
  }
  model.add_constraint(std::move(weight_terms), lp::Sense::kLessEqual, 10.0);
  return model;
}

/// Set cover over {0..4} with sets A={0,1}, B={1,2,3}, C={3,4}, D={0,4},
/// E={2}; optimum 2 (B + D).
Model set_cover_model() {
  Model model;
  const int a = model.add_binary(1.0);
  const int b = model.add_binary(1.0);
  const int c = model.add_binary(1.0);
  const int d = model.add_binary(1.0);
  const int e = model.add_binary(1.0);
  const auto cover = [&](std::vector<lp::Term> terms) {
    model.add_constraint(std::move(terms), lp::Sense::kGreaterEqual, 1.0);
  };
  cover({{a, 1.0}, {d, 1.0}});
  cover({{a, 1.0}, {b, 1.0}});
  cover({{b, 1.0}, {e, 1.0}});
  cover({{b, 1.0}, {c, 1.0}});
  cover({{c, 1.0}, {d, 1.0}});
  return model;
}

Options integral_options() {
  Options options;
  options.objective_is_integral = true;
  return options;
}

void expect_knapsack_optimum(const Options& options) {
  const Result result = solve(knapsack_model(), options);
  ASSERT_EQ(result.status, ResultStatus::kOptimal);
  EXPECT_NEAR(result.objective, -21.0, 1e-6);
}

void expect_set_cover_optimum(const Options& options) {
  const Result result = solve(set_cover_model(), options);
  ASSERT_EQ(result.status, ResultStatus::kOptimal);
  EXPECT_NEAR(result.objective, 2.0, 1e-9);
}

TEST(OptionsToggleTest, IntegralityToleranceSweep) {
  for (const double tolerance : {1e-9, 1e-6, 1e-4}) {
    Options options = integral_options();
    options.integrality_tolerance = tolerance;
    expect_knapsack_optimum(options);
    expect_set_cover_optimum(options);
  }
}

TEST(OptionsToggleTest, NodePropagationOff) {
  Options options = integral_options();
  options.node_propagation = false;
  // Conflict learning requires node propagation; the solver must cope with
  // the pair being switched off together.
  options.conflict_learning = false;
  expect_knapsack_optimum(options);
  expect_set_cover_optimum(options);
}

TEST(OptionsToggleTest, CutRoundLimits) {
  // No separation at all, then a starved one-cut-per-round loop.
  Options no_rounds = integral_options();
  no_rounds.max_cut_rounds = 0;
  expect_knapsack_optimum(no_rounds);
  expect_set_cover_optimum(no_rounds);

  Options starved = integral_options();
  starved.max_cuts_per_round = 1;
  expect_knapsack_optimum(starved);
  expect_set_cover_optimum(starved);
}

TEST(OptionsToggleTest, NogoodPoolCapOfOne) {
  // With max_nogoods = 1 the pool deletes on every second learn; the
  // search must stay correct with learning effectively memoryless.
  Options options = integral_options();
  options.max_nogoods = 1;
  expect_knapsack_optimum(options);
  expect_set_cover_optimum(options);
}

TEST(OptionsToggleTest, SeedLiteralsPinProvablyZeroItem) {
  // Knapsack with an item heavier than the capacity: x4 = 0 in every
  // feasible point, so the refutation "x4 >= 1 admits no feasible point"
  // is model-implied — exactly what a truncated solve of this model would
  // export via Result::unit_nogoods. Presolve stays off so the seed index
  // refers to the unreduced variable space and the tightening actually
  // applies (instead of presolve eliminating the variable first).
  Model model;
  const double values[] = {10, 13, 7, 11};
  const double weights[] = {5, 6, 4, 5};
  std::vector<lp::Term> weight_terms;
  for (int i = 0; i < 4; ++i) {
    const int x = model.add_binary(-values[i]);
    weight_terms.push_back({x, weights[i]});
  }
  const int oversized = model.add_binary(-100.0);  // tempting but infeasible
  weight_terms.push_back({oversized, 11.0});
  model.add_constraint(std::move(weight_terms), lp::Sense::kLessEqual, 10.0);

  Options options = integral_options();
  options.presolve = false;
  options.seed_literals = {{oversized, /*is_lower=*/true, 1.0}};
  const Result seeded = solve(model, options);
  ASSERT_EQ(seeded.status, ResultStatus::kOptimal);
  EXPECT_NEAR(seeded.objective, -21.0, 1e-6);
  EXPECT_NEAR(seeded.values[static_cast<std::size_t>(oversized)], 0.0, 1e-6);
}

TEST(OptionsToggleTest, LpConflictLearningOn) {
  // LP refutation learning: pruned-node Farkas/dual rays become nogoods.
  Options options = integral_options();
  options.lp_conflict_learning = true;
  expect_knapsack_optimum(options);
  expect_set_cover_optimum(options);
}

TEST(OptionsToggleTest, RestartScheduleSweep) {
  // restart_interval > 0 arms restarts; restart_luby picks between the
  // Luby sequence and a fixed conflict interval. An aggressive interval
  // of 2 restarts constantly — the search must still certify the optimum.
  for (const bool luby : {true, false}) {
    Options options = integral_options();
    options.lp_conflict_learning = true;
    options.restart_interval = 2;
    options.restart_luby = luby;
    expect_knapsack_optimum(options);
    expect_set_cover_optimum(options);
  }
}

TEST(OptionsToggleTest, ActivityBranching) {
  // Conflict-activity branching tier (pairs with restarts): falls back to
  // input order until activities accumulate.
  Options options = integral_options();
  options.branching = Branching::kActivity;
  options.lp_conflict_learning = true;
  expect_knapsack_optimum(options);
  expect_set_cover_optimum(options);
}

TEST(OptionsToggleTest, BudgetFloorRowsOff) {
  // budget_floor_rows is read by core/ilp_models during III-B-3 budget
  // escalation; both settings must certify the same cut-set minimum.
  const grid::ValveArray array = grid::full_array(2, 2);
  Options with_floor;
  Options without_floor;
  without_floor.budget_floor_rows = false;
  const auto a = core::find_minimum_cut_sets(array, 1, 4,
                                             /*masking_exclusion=*/false,
                                             with_floor);
  const auto b = core::find_minimum_cut_sets(array, 1, 4,
                                             /*masking_exclusion=*/false,
                                             without_floor);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->cut_budget, b->cut_budget);
  EXPECT_EQ(a->proven_minimal, b->proven_minimal);
}

}  // namespace
}  // namespace fpva::ilp
