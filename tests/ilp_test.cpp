#include <gtest/gtest.h>

#include <optional>

#include "common/rng.h"
#include "ilp/branch_and_bound.h"
#include "ilp/model.h"

namespace fpva::ilp {
namespace {

TEST(IlpModelTest, TracksIntegrality) {
  Model model;
  const int x = model.add_binary(1.0);
  const int y = model.add_continuous(0.0, 2.5, 1.0);
  const int z = model.add_integer(-3.0, 3.0, 0.0);
  EXPECT_TRUE(model.is_integer(x));
  EXPECT_FALSE(model.is_integer(y));
  EXPECT_TRUE(model.is_integer(z));
  EXPECT_FALSE(model.is_feasible({0.5, 1.0, 0.0}));
  EXPECT_TRUE(model.is_feasible({1.0, 1.0, -2.0}));
}

TEST(BranchAndBoundTest, PureLpPassesThrough) {
  Model model;
  const int x = model.add_continuous(0.0, 4.0, -1.0);
  model.add_constraint({{x, 2.0}}, lp::Sense::kLessEqual, 5.0);
  const Result result = solve(model);
  ASSERT_EQ(result.status, ResultStatus::kOptimal);
  EXPECT_NEAR(result.objective, -2.5, 1e-6);
}

TEST(BranchAndBoundTest, KnapsackOptimal) {
  // Classic 0/1 knapsack: values {10,13,7,11}, weights {5,6,4,5}, cap 10.
  // Optimal: items 1+3 (13+11=24, weight 11 > 10?) -> weights 6+5=11 no.
  // Feasible pairs: {0,2}=17 w9, {1,2}=20 w10, {0,3}=21 w10, {2,3}=18 w9.
  // Optimum = 21.
  Model model;
  const double values[] = {10, 13, 7, 11};
  const double weights[] = {5, 6, 4, 5};
  std::vector<lp::Term> weight_terms;
  for (int i = 0; i < 4; ++i) {
    const int x = model.add_binary(-values[i]);  // maximize value
    weight_terms.push_back({x, weights[i]});
  }
  model.add_constraint(std::move(weight_terms), lp::Sense::kLessEqual, 10.0);
  Options options;
  options.objective_is_integral = true;
  const Result result = solve(model, options);
  ASSERT_EQ(result.status, ResultStatus::kOptimal);
  EXPECT_NEAR(result.objective, -21.0, 1e-6);
  EXPECT_NEAR(result.values[0], 1.0, 1e-6);
  EXPECT_NEAR(result.values[3], 1.0, 1e-6);
}

TEST(BranchAndBoundTest, IntegralityChangesOptimum) {
  // LP relaxation reaches 2.5; integer optimum is 2.
  Model model;
  const int x = model.add_integer(0.0, 10.0, -1.0);
  model.add_constraint({{x, 2.0}}, lp::Sense::kLessEqual, 5.0);
  const Result result = solve(model);
  ASSERT_EQ(result.status, ResultStatus::kOptimal);
  EXPECT_NEAR(result.objective, -2.0, 1e-9);
  EXPECT_NEAR(result.values[0], 2.0, 1e-9);
}

TEST(BranchAndBoundTest, InfeasibleIntegerModel) {
  // 2 <= 3x <= 4 has no integer solution... encode: 3x >= 2, 3x <= 4? x=1
  // gives 3 in [2,4]; make it 3x >= 4, 3x <= 5: x must be in [4/3, 5/3].
  Model model;
  const int x = model.add_integer(0.0, 10.0, 1.0);
  model.add_constraint({{x, 3.0}}, lp::Sense::kGreaterEqual, 4.0);
  model.add_constraint({{x, 3.0}}, lp::Sense::kLessEqual, 5.0);
  EXPECT_EQ(solve(model).status, ResultStatus::kInfeasible);
}

TEST(BranchAndBoundTest, SetCover) {
  // Universe {0..4}; sets: A={0,1}, B={1,2,3}, C={3,4}, D={0,4}, E={2}.
  // Optimum is 2 (B + D).
  Model model;
  const int a = model.add_binary(1.0);
  const int b = model.add_binary(1.0);
  const int c = model.add_binary(1.0);
  const int d = model.add_binary(1.0);
  const int e = model.add_binary(1.0);
  const auto cover = [&](std::vector<lp::Term> terms) {
    model.add_constraint(std::move(terms), lp::Sense::kGreaterEqual, 1.0);
  };
  cover({{a, 1.0}, {d, 1.0}});            // element 0
  cover({{a, 1.0}, {b, 1.0}});            // element 1
  cover({{b, 1.0}, {e, 1.0}});            // element 2
  cover({{b, 1.0}, {c, 1.0}});            // element 3
  cover({{c, 1.0}, {d, 1.0}});            // element 4
  Options options;
  options.objective_is_integral = true;
  const Result result = solve(model, options);
  ASSERT_EQ(result.status, ResultStatus::kOptimal);
  EXPECT_NEAR(result.objective, 2.0, 1e-9);
}

TEST(BranchAndBoundTest, EqualityWithIntegersAndBigM) {
  // Mimics the flow-linking structure: f bounded by M*v, conservation.
  Model model;
  const int v = model.add_binary(1.0);
  const int f = model.add_integer(-10.0, 10.0, 0.0);
  model.add_constraint({{f, 1.0}, {v, -10.0}}, lp::Sense::kLessEqual, 0.0);
  model.add_constraint({{f, 1.0}, {v, 10.0}}, lp::Sense::kGreaterEqual, 0.0);
  model.add_constraint({{f, 1.0}}, lp::Sense::kEqual, 3.0);
  const Result result = solve(model);
  ASSERT_EQ(result.status, ResultStatus::kOptimal);
  EXPECT_NEAR(result.values[static_cast<std::size_t>(v)], 1.0, 1e-6);
  EXPECT_NEAR(result.values[static_cast<std::size_t>(f)], 3.0, 1e-6);
}

TEST(BranchAndBoundTest, RespectsNodeLimitGracefully) {
  Model model;
  // A small but branching-heavy assignment-style model.
  std::vector<int> xs;
  for (int i = 0; i < 12; ++i) xs.push_back(model.add_binary(-1.0));
  std::vector<lp::Term> sum;
  for (const int x : xs) sum.push_back({x, 1.0});
  model.add_constraint(sum, lp::Sense::kLessEqual, 6.5);
  Options options;
  options.max_nodes = 3;
  const Result result = solve(model, options);
  // With so few nodes we may or may not have an incumbent, but we must not
  // claim optimality incorrectly: bound reporting stays conservative.
  if (result.status == ResultStatus::kOptimal) {
    EXPECT_NEAR(result.objective, -6.0, 1e-9);
  } else {
    EXPECT_TRUE(result.status == ResultStatus::kFeasible ||
                result.status == ResultStatus::kUnknown);
  }
}

class IlpRandomKnapsackTest : public ::testing::TestWithParam<int> {};

// Property sweep: branch-and-bound must match brute force on random small
// knapsacks.
TEST_P(IlpRandomKnapsackTest, MatchesBruteForce) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  const int n = 8;
  std::vector<double> value(n), weight(n);
  for (int i = 0; i < n; ++i) {
    value[static_cast<std::size_t>(i)] =
        static_cast<double>(rng.next_in(1, 20));
    weight[static_cast<std::size_t>(i)] =
        static_cast<double>(rng.next_in(1, 10));
  }
  const double capacity = static_cast<double>(rng.next_in(10, 30));

  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double v = 0.0, w = 0.0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) {
        v += value[static_cast<std::size_t>(i)];
        w += weight[static_cast<std::size_t>(i)];
      }
    }
    if (w <= capacity) best = std::max(best, v);
  }

  Model model;
  std::vector<lp::Term> terms;
  for (int i = 0; i < n; ++i) {
    const int x = model.add_binary(-value[static_cast<std::size_t>(i)]);
    terms.push_back({x, weight[static_cast<std::size_t>(i)]});
  }
  model.add_constraint(std::move(terms), lp::Sense::kLessEqual, capacity);
  Options options;
  options.objective_is_integral = true;
  const Result result = solve(model, options);
  ASSERT_EQ(result.status, ResultStatus::kOptimal);
  EXPECT_NEAR(result.objective, -best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomKnapsacks, IlpRandomKnapsackTest,
                         ::testing::Range(0, 25));

Model random_mip(common::Rng& rng) {
  Model model;
  const int n = 6 + static_cast<int>(rng.next_below(5));
  std::vector<lp::Term> knap;
  for (int i = 0; i < n; ++i) {
    const int x = model.add_binary(-static_cast<double>(rng.next_in(1, 12)));
    knap.push_back({x, static_cast<double>(rng.next_in(1, 8))});
  }
  model.add_constraint(std::move(knap), lp::Sense::kLessEqual,
                       static_cast<double>(rng.next_in(6, 24)));
  // A couple of covering rows to exercise >= and propagation.
  for (int r = 0; r < 2; ++r) {
    std::vector<lp::Term> cover;
    for (int i = 0; i < n; ++i) {
      if (rng.next_bool(0.4)) cover.push_back({i, 1.0});
    }
    if (cover.size() < 2) cover = {{0, 1.0}, {n - 1, 1.0}};
    model.add_constraint(std::move(cover), lp::Sense::kGreaterEqual, 1.0);
  }
  return model;
}

/// Exhaustive oracle for all-binary models: enumerates every one of the
/// 2^n 0/1 points and returns the best objective among the feasible ones,
/// or nullopt when none is feasible. Shares no code with branch-and-bound
/// (only the model's own feasibility and objective evaluation).
std::optional<double> enumerate_optimum(const Model& model) {
  const int n = model.variable_count();
  std::optional<double> best;
  std::vector<double> point(static_cast<std::size_t>(n));
  for (long mask = 0; mask < (1L << n); ++mask) {
    for (int j = 0; j < n; ++j) {
      point[static_cast<std::size_t>(j)] = (mask >> j) & 1L ? 1.0 : 0.0;
    }
    if (!model.is_feasible(point)) continue;
    const double objective = model.lp().objective_value(point);
    if (!best.has_value() || objective < *best) best = objective;
  }
  return best;
}

/// Checks `result` against the exhaustive optimum of `model`: same
/// feasibility verdict, the same optimum (integral objectives, so exact),
/// and a feasible incumbent.
void expect_matches_enumeration(const Model& model, const Result& result,
                                const std::optional<double>& optimum) {
  if (!optimum.has_value()) {
    EXPECT_EQ(result.status, ResultStatus::kInfeasible);
    return;
  }
  ASSERT_EQ(result.status, ResultStatus::kOptimal);
  EXPECT_EQ(result.objective, *optimum);
  EXPECT_TRUE(model.is_feasible(result.values, 1e-6));
}

class IlpDifferentialTest : public ::testing::TestWithParam<int> {};

// The default pipeline (presolve + propagation + warm-started dual simplex
// + pseudocosts + conflict learning) must reproduce the exhaustive optimum
// exactly.
TEST_P(IlpDifferentialTest, DefaultsMatchExhaustiveOptimum) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  const Model model = random_mip(rng);
  Options options;
  options.objective_is_integral = true;
  expect_matches_enumeration(model, solve(model, options),
                             enumerate_optimum(model));
}

INSTANTIATE_TEST_SUITE_P(RandomMips, IlpDifferentialTest,
                         ::testing::Range(0, 30));

class IlpSwitchMatrixTest : public ::testing::TestWithParam<int> {};

// Every combination of the root mechanisms (probing, clique cuts) and the
// branching rule must reproduce the exhaustive optimum on random MIPs: the
// switches trade speed, never answers.
TEST_P(IlpSwitchMatrixTest, AllSwitchCombinationsMatchEnumeration) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 271828 + 17);
  const Model model = random_mip(rng);
  const std::optional<double> optimum = enumerate_optimum(model);
  for (int mask = 0; mask < 8; ++mask) {
    Options options;
    options.objective_is_integral = true;
    options.probing = (mask & 1) != 0;
    options.clique_cuts = (mask & 2) != 0;
    options.branching = (mask & 4) != 0 ? Branching::kInputOrder
                                        : Branching::kAuto;
    SCOPED_TRACE(::testing::Message() << "mask " << mask);
    expect_matches_enumeration(model, solve(model, options), optimum);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMips, IlpSwitchMatrixTest,
                         ::testing::Range(0, 8));

TEST(BranchAndBoundTest, FullyFixedModelSkipsNodeLoop) {
  // Presolve substitutes every variable away; the result must come back
  // optimal with the postsolved incumbent and zero nodes — the search must
  // not enter the node loop on an empty column set.
  Model model;
  const int a = model.add_binary(3.0);
  const int b = model.add_binary(-2.0);
  model.add_constraint({{a, 1.0}}, lp::Sense::kGreaterEqual, 1.0);
  model.add_constraint({{b, 1.0}}, lp::Sense::kLessEqual, 0.0);
  const Result result = solve(model);
  ASSERT_EQ(result.status, ResultStatus::kOptimal);
  EXPECT_EQ(result.nodes, 0);
  EXPECT_DOUBLE_EQ(result.objective, 3.0);
  ASSERT_EQ(result.values.size(), 2u);
  EXPECT_DOUBLE_EQ(result.values[static_cast<std::size_t>(a)], 1.0);
  EXPECT_DOUBLE_EQ(result.values[static_cast<std::size_t>(b)], 0.0);
}

TEST(BranchAndBoundTest, ZeroVariableModelWithInfeasibleConstantRow) {
  // An empty column set with a violated constant row must be proven
  // infeasible without entering the node loop — with and without presolve.
  Model model;
  model.add_constraint({}, lp::Sense::kGreaterEqual, 1.0);
  for (const bool use_presolve : {true, false}) {
    Options options;
    options.presolve = use_presolve;
    const Result result = solve(model, options);
    EXPECT_EQ(result.status, ResultStatus::kInfeasible)
        << "presolve=" << use_presolve;
    EXPECT_EQ(result.nodes, 0) << "presolve=" << use_presolve;
  }
}

TEST(BranchAndBoundTest, InfeasibleAfterPropagationReportsInfeasible) {
  // Propagation (not the LP) proves infeasibility: x + y >= 2 with both
  // capped at 0 after the singleton rows tighten.
  Model model;
  const int x = model.add_binary(1.0);
  const int y = model.add_binary(1.0);
  model.add_constraint({{x, 1.0}}, lp::Sense::kLessEqual, 0.0);
  model.add_constraint({{y, 1.0}}, lp::Sense::kLessEqual, 0.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::kGreaterEqual, 2.0);
  for (const bool use_presolve : {true, false}) {
    Options options;
    options.presolve = use_presolve;
    const Result result = solve(model, options);
    EXPECT_EQ(result.status, ResultStatus::kInfeasible)
        << "presolve=" << use_presolve;
  }
}

TEST(BranchAndBoundTest, DeterministicAcrossRuns) {
  // Both the learning-on (default) and learning-off configurations must be
  // bit-deterministic: node counts, pivots, conflict counters, values.
  common::Rng rng(20170327);
  const Model model = random_mip(rng);
  for (const bool learning : {true, false}) {
    Options options;
    options.objective_is_integral = true;
    options.conflict_learning = learning;
    const Result first = solve(model, options);
    const Result second = solve(model, options);
    ASSERT_EQ(first.status, second.status) << "learning=" << learning;
    EXPECT_EQ(first.nodes, second.nodes) << "learning=" << learning;
    EXPECT_EQ(first.lp_pivots, second.lp_pivots) << "learning=" << learning;
    EXPECT_EQ(first.objective, second.objective) << "learning=" << learning;
    EXPECT_EQ(first.conflicts, second.conflicts) << "learning=" << learning;
    EXPECT_EQ(first.nogoods_learned, second.nogoods_learned)
        << "learning=" << learning;
    EXPECT_EQ(first.backjumps, second.backjumps) << "learning=" << learning;
    if (!learning) {
      // The off configuration must not touch the learning machinery at
      // all (it restores the PR-4 search bit-exactly).
      EXPECT_EQ(first.conflicts, 0);
      EXPECT_EQ(first.nogoods_learned, 0);
      EXPECT_EQ(first.backjumps, 0);
    }
    ASSERT_EQ(first.values.size(), second.values.size());
    for (std::size_t i = 0; i < first.values.size(); ++i) {
      EXPECT_EQ(first.values[i], second.values[i])
          << "value " << i << " learning=" << learning;
    }
  }
}

TEST(BranchAndBoundTest, TinyPivotBudgetStillProvesOptimality) {
  // A node LP that exhausts its pivot budget must be re-queued with a
  // larger budget (not silently dropped), so the certificate survives.
  Model model;
  const double values[] = {10, 13, 7, 11, 9, 4};
  const double weights[] = {5, 6, 4, 5, 3, 2};
  std::vector<lp::Term> weight_terms;
  for (int i = 0; i < 6; ++i) {
    const int x = model.add_binary(-values[i]);
    weight_terms.push_back({x, weights[i]});
  }
  model.add_constraint(std::move(weight_terms), lp::Sense::kLessEqual, 12.0);
  Options options;
  options.objective_is_integral = true;
  options.lp_iteration_limit = 1;  // absurdly small: every node LP stalls
  options.max_lp_retries = 10;
  const Result result = solve(model, options);
  Options reference;
  reference.objective_is_integral = true;
  const Result expected = solve(model, reference);
  ASSERT_EQ(expected.status, ResultStatus::kOptimal);
  ASSERT_EQ(result.status, ResultStatus::kOptimal)
      << "iteration-limited node was dropped instead of re-queued";
  EXPECT_EQ(result.objective, expected.objective);
}

}  // namespace
}  // namespace fpva::ilp
