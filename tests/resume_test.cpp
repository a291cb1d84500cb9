// Resume-by-re-verification and crash/kill differential harness.
//
// The invariant under test: a certification campaign that is interrupted —
// killed between store operations, truncated by a deadline, or fed a
// corrupted store — and then resumed against the same store reaches the
// same certified result as an uninterrupted run, re-validating stored
// stages instead of re-solving them.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "core/cert_store.h"
#include "core/ilp_models.h"
#include "grid/presets.h"
#include "ilp/branch_and_bound.h"
#include "ilp/model.h"

namespace fpva::core {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      "resume_test_" + name + "_" + std::to_string(::getpid());
  const std::string command = "rm -rf " + dir;
  [[maybe_unused]] const int rc = std::system(command.c_str());
  return dir;
}

ilp::Options fast_options() {
  ilp::Options options;
  options.time_limit_seconds = 60.0;
  return options;
}

/// Stage-report equality, strict up to wall-clock: every deterministic
/// counter must match bit-for-bit; `seconds` is re-measured per run.
void expect_stages_equal(const std::vector<BudgetStage>& a,
                         const std::vector<BudgetStage>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].budget, b[i].budget) << "stage " << i;
    EXPECT_EQ(a[i].status, b[i].status) << "stage " << i;
    EXPECT_EQ(a[i].nodes, b[i].nodes) << "stage " << i;
    EXPECT_EQ(a[i].lp_pivots, b[i].lp_pivots) << "stage " << i;
    EXPECT_EQ(a[i].conflicts, b[i].conflicts) << "stage " << i;
    EXPECT_EQ(a[i].nogoods_learned, b[i].nogoods_learned) << "stage " << i;
    EXPECT_EQ(a[i].backjumps, b[i].backjumps) << "stage " << i;
    EXPECT_EQ(a[i].restarts, b[i].restarts) << "stage " << i;
    EXPECT_EQ(a[i].lp_nogoods, b[i].lp_nogoods) << "stage " << i;
  }
}

// Seed literals are the transferable half of an anytime certificate. They
// must act as root bound tightenings — not conflict-engine inventory — so
// a resume that runs with conflict learning disabled still prunes what the
// truncated attempt proved, and still re-exports the seeds for the attempt
// after it. (Routing seeds only through the engine silently dropped both.)
TEST(ResumeTest, SeedLiteralsApplyWithoutConflictLearning) {
  // min -2x - y with x + y <= 1 over binaries: the unseeded optimum takes
  // x. The seed asserts "x >= 1 admits no feasible point" (x <= 0), so a
  // seeded solve must settle for y regardless of the learning switch.
  ilp::Model model;
  const int x = model.add_binary(-2.0);
  const int y = model.add_binary(-1.0);
  model.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::kLessEqual, 1.0);

  ilp::Options base;
  base.presolve = false;  // keep seed indices in the original space
  base.probing = false;
  base.clique_cuts = false;
  base.objective_is_integral = true;
  const ilp::Result unseeded = ilp::solve(model, base);
  ASSERT_EQ(unseeded.status, ilp::ResultStatus::kOptimal);
  EXPECT_EQ(unseeded.objective, -2.0);

  const ilp::SeedLiteral seed{x, /*is_lower=*/true, 1.0};
  for (const bool learning : {true, false}) {
    ilp::Options seeded = base;
    seeded.conflict_learning = learning;
    seeded.seed_literals.push_back(seed);
    const ilp::Result r = ilp::solve(model, seeded);
    ASSERT_EQ(r.status, ilp::ResultStatus::kOptimal)
        << "learning=" << learning;
    // A dropped certificate would rediscover the unseeded -2.
    EXPECT_EQ(r.objective, -1.0) << "learning=" << learning;
    EXPECT_EQ(r.values[static_cast<std::size_t>(x)], 0.0)
        << "learning=" << learning;
    EXPECT_EQ(r.values[static_cast<std::size_t>(y)], 1.0)
        << "learning=" << learning;
    bool exported = false;
    for (const ilp::SeedLiteral& u : r.unit_nogoods) {
      exported = exported || (u.var == seed.var &&
                              u.is_lower == seed.is_lower &&
                              u.value == seed.value);
    }
    EXPECT_TRUE(exported) << "learning=" << learning;
  }
}

TEST(ResumeTest, SecondRunReVerifiesInsteadOfReSolving) {
  const auto array = grid::full_array(3, 3);
  const auto baseline =
      find_minimum_cut_sets(array, 1, 6, /*masking_exclusion=*/true,
                            fast_options());
  ASSERT_TRUE(baseline.has_value());

  const std::string dir = fresh_dir("reverify");
  CertStore store(dir);
  const auto first = find_minimum_cut_sets(array, 1, 6, true, fast_options(),
                                           &store);
  ASSERT_TRUE(first.has_value());
  // The store changes nothing about the campaign itself.
  expect_stages_equal(baseline->stages, first->stages);
  EXPECT_EQ(baseline->cut_budget, first->cut_budget);
  EXPECT_EQ(baseline->proven_minimal, first->proven_minimal);

  CertStore reopened(dir);
  const auto resumed = find_minimum_cut_sets(array, 1, 6, true,
                                             fast_options(), &reopened);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->cut_budget, first->cut_budget);
  EXPECT_EQ(resumed->proven_minimal, first->proven_minimal);
  ASSERT_EQ(resumed->stages.size(), first->stages.size());
  for (std::size_t i = 0; i < first->stages.size(); ++i) {
    // Replayed reports are the *stored* ones: bit-identical including the
    // recorded wall-clock of the original solve.
    EXPECT_EQ(resumed->stages[i].status, first->stages[i].status);
    EXPECT_EQ(resumed->stages[i].nodes, first->stages[i].nodes);
    EXPECT_EQ(resumed->stages[i].lp_pivots, first->stages[i].lp_pivots);
    EXPECT_EQ(resumed->stages[i].seconds, first->stages[i].seconds);
  }
  // The resumed run re-validated witnesses; it did not search.
  EXPECT_EQ(resumed->ilp.nodes, first->ilp.nodes);
  for (const CutSet& cut : resumed->cuts) {
    EXPECT_EQ(validate_cut_set(array, cut), std::nullopt);
  }
}

TEST(ResumeTest, FlowPathCampaignResumesToo) {
  const auto array = grid::full_array(2, 2);
  const std::string dir = fresh_dir("paths");
  CertStore store(dir);
  const auto first =
      find_minimum_flow_paths(array, 1, 4, fast_options(), &store);
  ASSERT_TRUE(first.has_value());
  CertStore reopened(dir);
  const auto resumed =
      find_minimum_flow_paths(array, 1, 4, fast_options(), &reopened);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->path_budget, first->path_budget);
  EXPECT_EQ(resumed->proven_minimal, first->proven_minimal);
  expect_stages_equal(first->stages, resumed->stages);
  for (const FlowPath& path : resumed->paths) {
    EXPECT_EQ(validate_flow_path(array, path), std::nullopt);
  }
}

TEST(ResumeTest, CorruptedEntryIsQuarantinedAndReSolved) {
  const auto array = grid::full_array(2, 2);
  const std::string dir = fresh_dir("corrupt");
  {
    CertStore store(dir);
    ASSERT_TRUE(find_minimum_cut_sets(array, 1, 4, true, fast_options(),
                                      &store)
                    .has_value());
  }
  // Flip a payload byte in every entry: checksums must catch all of them.
  const std::string key = CertStore::key_for(array, "cut+mask");
  int corrupted = 0;
  for (int budget = 1; budget <= 4; ++budget) {
    const std::string path =
        dir + "/" + key + "-b" + std::to_string(budget) + ".cert";
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    if (!file) continue;
    file.seekp(55);
    file.put('#');
    ++corrupted;
  }
  ASSERT_GT(corrupted, 0);
  CertStore store(dir);
  const auto resumed =
      find_minimum_cut_sets(array, 1, 4, true, fast_options(), &store);
  ASSERT_TRUE(resumed.has_value());  // degraded to live solves, no abort
  EXPECT_EQ(resumed->cut_budget, 2);
  EXPECT_TRUE(resumed->proven_minimal);
  EXPECT_EQ(store.quarantined(), corrupted);
  // The re-solve heals the store for the next run.
  CertStore healed(dir);
  EXPECT_TRUE(healed.load(key, 1).has_value());
}

TEST(ResumeTest, ConfigMismatchDegradesToLiveSolve) {
  const auto array = grid::full_array(2, 2);
  const std::string dir = fresh_dir("config");
  const std::string key = CertStore::key_for(array, "cut+mask");
  std::string original_fp;
  {
    CertStore store(dir);
    ASSERT_TRUE(find_minimum_cut_sets(array, 1, 4, true, fast_options(),
                                      &store)
                    .has_value());
    const auto record = store.load(key, 1);
    ASSERT_TRUE(record.has_value());
    original_fp = record->config_fp;
  }
  // A different search configuration must not trust the old refutations.
  ilp::Options changed = fast_options();
  changed.orbit_symmetry_rows = false;
  CertStore store(dir);
  const auto resumed =
      find_minimum_cut_sets(array, 1, 4, true, changed, &store);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->cut_budget, 2);
  EXPECT_TRUE(resumed->proven_minimal);
  // The refuted stage was re-solved and re-persisted under the new
  // configuration fingerprint — it was not replayed from the old record.
  const auto record = store.load(key, 1);
  ASSERT_TRUE(record.has_value());
  EXPECT_NE(record->config_fp, original_fp);
}

TEST(ResumeTest, DeadlineCheckpointsAndResumeMatchesBaseline) {
  const auto array = grid::full_array(3, 3);
  const auto baseline =
      find_minimum_cut_sets(array, 1, 6, true, fast_options());
  ASSERT_TRUE(baseline.has_value());

  const std::string dir = fresh_dir("deadline");
  // Walk the deadline up until the campaign survives it; every truncated
  // attempt must have checkpointed (complete stages and/or a partial
  // anytime certificate) so that later attempts start further along.
  std::optional<IlpCutResult> finished;
  for (double seconds : {0.02, 0.05, 0.1, 0.5, 2.0, 60.0}) {
    ilp::Options options = fast_options();
    options.stop =
        common::StopToken{}.with_deadline(common::Deadline::after(seconds));
    CertStore store(dir);
    finished = find_minimum_cut_sets(array, 1, 6, true, options, &store);
    if (finished.has_value()) break;
  }
  ASSERT_TRUE(finished.has_value());
  // Certified identically to the uninterrupted run: same minimum, same
  // proven flag, same per-stage statuses. (Counters of a stage resumed
  // from a partial checkpoint may legitimately differ: the seeded search
  // prunes what the truncated attempt already learned.)
  EXPECT_EQ(finished->cut_budget, baseline->cut_budget);
  EXPECT_EQ(finished->proven_minimal, baseline->proven_minimal);
  ASSERT_EQ(finished->stages.size(), baseline->stages.size());
  for (std::size_t i = 0; i < baseline->stages.size(); ++i) {
    EXPECT_EQ(finished->stages[i].budget, baseline->stages[i].budget);
    EXPECT_EQ(finished->stages[i].status, baseline->stages[i].status);
  }
  for (const CutSet& cut : finished->cuts) {
    EXPECT_EQ(validate_cut_set(array, cut), std::nullopt);
  }
}

TEST(ResumeTest, KillResumeDifferentialMatchesUninterruptedRun) {
  if (!common::failpoint::kFailpointsEnabled) {
    GTEST_SKIP() << "built without FPVA_FAILPOINTS";
  }
  const auto array = grid::full_array(3, 3);
  const auto baseline =
      find_minimum_cut_sets(array, 1, 6, true, fast_options());
  ASSERT_TRUE(baseline.has_value());

  // Kill the campaign at each store commit in turn (a crash *between*
  // store operations), then resume against the surviving store. However
  // far the killed run got, the resumed campaign must converge to the
  // baseline bit-for-bit (up to wall-clock).
  for (int kill_at : {0, 1, 2, 3}) {
    const std::string dir =
        fresh_dir("kill" + std::to_string(kill_at));
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      common::failpoint::arm("cert_store.committed",
                             common::failpoint::Action::kCrash,
                             /*skip_hits=*/kill_at);
      CertStore store(dir);
      find_minimum_cut_sets(array, 1, 6, true, fast_options(), &store);
      ::_exit(0);  // campaign finished before the armed commit
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    const bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
    const bool finished = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    ASSERT_TRUE(killed || finished) << "kill_at=" << kill_at;

    CertStore store(dir);
    const auto resumed =
        find_minimum_cut_sets(array, 1, 6, true, fast_options(), &store);
    ASSERT_TRUE(resumed.has_value()) << "kill_at=" << kill_at;
    EXPECT_EQ(resumed->cut_budget, baseline->cut_budget)
        << "kill_at=" << kill_at;
    EXPECT_EQ(resumed->proven_minimal, baseline->proven_minimal)
        << "kill_at=" << kill_at;
    expect_stages_equal(baseline->stages, resumed->stages);
    EXPECT_EQ(store.quarantined(), 0) << "kill_at=" << kill_at;
  }
}

TEST(ResumeTest, LuInstabilityClimbsTheRecoveryLadder) {
  if (!common::failpoint::kFailpointsEnabled) {
    GTEST_SKIP() << "built without FPVA_FAILPOINTS";
  }
  const auto array = grid::full_array(2, 2);
  const auto baseline =
      find_minimum_cut_sets(array, 1, 4, true, fast_options());
  ASSERT_TRUE(baseline.has_value());

  // Force *every* Forrest-Tomlin refactorization to report singular: the
  // warm solver's LU is unusable, so the ladder must escalate from the LU
  // to the dense tableau instead of aborting — and still certify the same
  // minimum.
  common::failpoint::arm("lp.lu_refactor", common::failpoint::Action::kError,
                         /*skip_hits=*/0, /*repeat=*/1'000'000);
  const auto hobbled = find_minimum_cut_sets(array, 1, 4, true, fast_options());
  common::failpoint::reset();
  ASSERT_TRUE(hobbled.has_value());
  EXPECT_EQ(hobbled->cut_budget, baseline->cut_budget);
  EXPECT_EQ(hobbled->proven_minimal, baseline->proven_minimal);
  // The dense rung actually fired and was surfaced as a counter; the
  // ladder has no other rung, so lp_eta_fallbacks stays 0.
  EXPECT_GT(hobbled->ilp.lp_dense_fallbacks, 0);
  EXPECT_EQ(hobbled->ilp.lp_eta_fallbacks, 0);
}

}  // namespace
}  // namespace fpva::core
