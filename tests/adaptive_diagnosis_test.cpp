// Tests for the adaptive (information-gain) diagnosis engine: equivalence
// of the static path with sim::diagnose(), determinism across thread
// counts and cache settings, exactness of the decision-diagram walk against
// the filter-and-score loop, the DecisionDiagramCache itself, and the
// actual adaptivity win (fewer tests to isolation than the static order).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/generator.h"
#include "grid/presets.h"
#include "sim/diagnosis.h"
#include "sim/diagnosis/adaptive.h"

namespace fpva::sim::diagnosis {
namespace {

/// Single-fault hypothesis universe as one-element fault sets.
std::vector<FaultScenario> single_fault_universe(
    const grid::ValveArray& array) {
  std::vector<FaultScenario> universe;
  for (const Fault& fault : single_stuck_fault_universe(array)) {
    universe.push_back({fault});
  }
  return universe;
}

/// Options reproducing sim::diagnose(): every vector in input order, no
/// early stop, no cache.
Options static_options() {
  Options options;
  options.policy = Policy::kStaticOrder;
  options.use_dd_cache = false;
  options.stop_when_isolated = false;
  return options;
}

Outcome pack(const std::vector<bool>& readings) {
  Outcome packed = 0;
  for (std::size_t s = 0; s < readings.size(); ++s) {
    if (readings[s]) packed |= Outcome{1} << s;
  }
  return packed;
}

/// Requires the walked session (DD cache on) to equal the filtered one
/// (cache off) in every field the cache does not count.
void expect_same_session(const SessionResult& walked,
                         const SessionResult& filtered,
                         const std::string& label) {
  ASSERT_EQ(walked.tests_applied(), filtered.tests_applied()) << label;
  for (int t = 0; t < walked.tests_applied(); ++t) {
    const auto& got = walked.applied[static_cast<std::size_t>(t)];
    const auto& want = filtered.applied[static_cast<std::size_t>(t)];
    EXPECT_EQ(got.vector_index, want.vector_index) << label << " test " << t;
    EXPECT_EQ(got.outcome, want.outcome) << label << " test " << t;
    EXPECT_EQ(got.surviving_before, want.surviving_before)
        << label << " test " << t;
    EXPECT_EQ(got.surviving_after, want.surviving_after)
        << label << " test " << t;
  }
  EXPECT_EQ(walked.eliminated, filtered.eliminated) << label;
  EXPECT_EQ(walked.surviving, filtered.surviving) << label;
  EXPECT_EQ(walked.fault_free_consistent, filtered.fault_free_consistent)
      << label;
  EXPECT_EQ(walked.interrupted, filtered.interrupted) << label;
}

/// One diagnoser that walks the decision diagram and one that filters and
/// scores every step, over the same inputs; every session runs on both.
class WalkedAndFiltered {
 public:
  WalkedAndFiltered(const grid::ValveArray& array,
                    const std::vector<TestVector>& vectors,
                    const std::vector<FaultScenario>& universe,
                    Options options)
      : walked_(array, vectors, universe, with_cache(options, true)),
        filtered_(array, vectors, universe, with_cache(options, false)) {}

  void run(const FaultScenario& truth) {
    expect_same_session(walked_.run(truth), filtered_.run(truth),
                        to_string(truth));
  }

  /// `respond` sees each vector with its call number within the session.
  void run(const std::function<Outcome(const TestVector&, int)>& respond,
           const std::string& label) {
    int calls = 0;
    const auto session = [&](const TestVector& vector) {
      return respond(vector, calls++);
    };
    const auto walked = walked_.run(session);
    calls = 0;
    expect_same_session(walked, filtered_.run(session), label);
  }

  const AdaptiveDiagnoser& walked() const { return walked_; }

 private:
  static Options with_cache(Options options, bool use_dd_cache) {
    options.use_dd_cache = use_dd_cache;
    return options;
  }

  AdaptiveDiagnoser walked_;
  AdaptiveDiagnoser filtered_;
};

/// Requires two sessions to be equal in every SessionResult field.
void expect_identical_session(const SessionResult& got,
                              const SessionResult& want,
                              const std::string& label) {
  ASSERT_EQ(got.tests_applied(), want.tests_applied()) << label;
  for (int t = 0; t < got.tests_applied(); ++t) {
    const auto& a = got.applied[static_cast<std::size_t>(t)];
    const auto& b = want.applied[static_cast<std::size_t>(t)];
    EXPECT_EQ(a.vector_index, b.vector_index) << label << " test " << t;
    EXPECT_EQ(a.outcome, b.outcome) << label << " test " << t;
    EXPECT_EQ(a.surviving_before, b.surviving_before)
        << label << " test " << t;
    EXPECT_EQ(a.surviving_after, b.surviving_after) << label << " test " << t;
    EXPECT_EQ(a.from_cache, b.from_cache) << label << " test " << t;
  }
  EXPECT_EQ(got.surviving, want.surviving) << label;
  EXPECT_EQ(got.fault_free_consistent, want.fault_free_consistent) << label;
  EXPECT_EQ(got.eliminated, want.eliminated) << label;
  EXPECT_EQ(got.cache_hits, want.cache_hits) << label;
  EXPECT_EQ(got.cache_misses, want.cache_misses) << label;
  EXPECT_EQ(got.interrupted, want.interrupted) << label;
}

/// Two diagnosers over the same inputs: one emulates the chip with
/// run(truth), the other answers every vector by flooding a separate
/// oracle Simulator. Every session runs on both and must match whole.
class ScreenedAndFlooded {
 public:
  ScreenedAndFlooded(const grid::ValveArray& array,
                     const std::vector<TestVector>& vectors,
                     const std::vector<FaultScenario>& universe)
      : oracle_(array),
        screened_(array, vectors, universe),
        flooded_(array, vectors, universe) {}

  void run(const FaultScenario& truth) {
    const SessionResult want = flooded_.run([&](const TestVector& vector) {
      return pack(oracle_.readings(vector.states, truth));
    });
    expect_identical_session(screened_.run(truth), want, to_string(truth));
  }

 private:
  Simulator oracle_;
  AdaptiveDiagnoser screened_;
  AdaptiveDiagnoser flooded_;
};

TEST(AdaptiveDiagnosisTest, StaticPathReproducesDiagnose) {
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const Simulator simulator(array);
  const auto fault_universe = single_stuck_fault_universe(array);
  AdaptiveDiagnoser diagnoser(array, set.vectors,
                              single_fault_universe(array),
                              static_options());
  for (const Fault& truth : fault_universe) {
    const auto observed =
        response_signature(simulator, set.vectors, truth);
    const auto expected =
        diagnose(simulator, set.vectors, observed, fault_universe);
    const auto session = diagnoser.run(FaultScenario{truth});
    EXPECT_EQ(session.tests_applied(),
              static_cast<int>(set.vectors.size()))
        << to_string(truth);
    EXPECT_EQ(session.fault_free_consistent,
              expected.consistent_with_fault_free)
        << to_string(truth);
    std::vector<Fault> survivors;
    for (const int h : session.surviving) {
      ASSERT_EQ(diagnoser.universe()[static_cast<std::size_t>(h)].size(),
                1u);
      survivors.push_back(
          diagnoser.universe()[static_cast<std::size_t>(h)][0]);
    }
    EXPECT_EQ(survivors, expected.candidates) << to_string(truth);
  }
}

TEST(AdaptiveDiagnosisTest, FaultFreeChipStaysConsistent) {
  const auto array = grid::full_array(4, 4);
  const auto set = core::generate_test_set(array);
  const Simulator simulator(array);
  AdaptiveDiagnoser diagnoser(array, set.vectors,
                              single_fault_universe(array), {});
  const auto session = diagnoser.run(FaultScenario{});
  EXPECT_TRUE(session.fault_free_consistent);
  // The generated set detects every stuck fault, so info-gain testing must
  // end with the healthy chip as the only live hypothesis.
  EXPECT_TRUE(session.surviving.empty());
  EXPECT_TRUE(session.isolated());
}

TEST(AdaptiveDiagnosisTest, TrueHypothesisAlwaysSurvives) {
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  AdaptiveDiagnoser diagnoser(array, set.vectors,
                              single_fault_universe(array), {});
  for (std::size_t h = 0; h < diagnoser.universe().size(); ++h) {
    const auto session = diagnoser.run(diagnoser.universe()[h]);
    EXPECT_NE(std::find(session.surviving.begin(), session.surviving.end(),
                        static_cast<int>(h)),
              session.surviving.end())
        << to_string(diagnoser.universe()[h]);
    EXPECT_FALSE(session.fault_free_consistent)
        << to_string(diagnoser.universe()[h]);
  }
}

TEST(AdaptiveDiagnosisTest, LocalizesMultiFaultScenarios) {
  // A two-fault universe the single-fault matcher cannot express: the true
  // pair must survive its own session.
  const auto array = grid::full_array(3, 3);
  const auto set = core::generate_test_set(array);
  const auto singles = single_stuck_fault_universe(array);
  std::vector<FaultScenario> universe;
  for (std::size_t i = 0; i < singles.size(); ++i) {
    for (std::size_t j = i + 1; j < singles.size(); ++j) {
      if (singles[i].valve == singles[j].valve) continue;
      universe.push_back({singles[i], singles[j]});
    }
  }
  AdaptiveDiagnoser diagnoser(array, set.vectors, universe, {});
  for (std::size_t h = 0; h < universe.size(); h += 17) {
    const auto session = diagnoser.run(universe[h]);
    EXPECT_NE(std::find(session.surviving.begin(), session.surviving.end(),
                        static_cast<int>(h)),
              session.surviving.end())
        << to_string(universe[h]);
  }
}

TEST(AdaptiveDiagnosisTest, InfoGainNeedsFewerTestsThanStaticOrder) {
  // The adaptivity win the bench gates: summed tests-to-isolate over every
  // single-fault truth must strictly drop versus applying the program in
  // input order with the same early stop.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  Options adaptive;
  Options fixed;
  fixed.policy = Policy::kStaticOrder;
  AdaptiveDiagnoser smart(array, set.vectors, single_fault_universe(array),
                          adaptive);
  AdaptiveDiagnoser dumb(array, set.vectors, single_fault_universe(array),
                         fixed);
  long smart_tests = 0;
  long dumb_tests = 0;
  for (const FaultScenario& truth : smart.universe()) {
    smart_tests += smart.run(truth).tests_applied();
    dumb_tests += dumb.run(truth).tests_applied();
  }
  EXPECT_LT(smart_tests, dumb_tests);
}

TEST(AdaptiveDiagnosisTest, BitIdenticalAcrossThreadCounts) {
  // Threads only parallelize the outcome-table precompute; sessions must
  // be bit-identical for any worker count.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = single_fault_universe(array);
  Options reference_options;
  reference_options.threads = 1;
  AdaptiveDiagnoser reference(array, set.vectors, universe,
                              reference_options);
  std::vector<SessionResult> expected;
  for (const FaultScenario& truth : universe) {
    expected.push_back(reference.run(truth));
  }
  for (const int threads : {2, 4, 8}) {
    Options options;
    options.threads = threads;
    AdaptiveDiagnoser diagnoser(array, set.vectors, universe, options);
    for (std::size_t h = 0; h < universe.size(); ++h) {
      const auto session = diagnoser.run(universe[h]);
      ASSERT_EQ(session.tests_applied(), expected[h].tests_applied())
          << threads << " threads, hypothesis " << h;
      for (int t = 0; t < session.tests_applied(); ++t) {
        const auto& got = session.applied[static_cast<std::size_t>(t)];
        const auto& want = expected[h].applied[static_cast<std::size_t>(t)];
        ASSERT_EQ(got.vector_index, want.vector_index)
            << threads << " threads, hypothesis " << h << ", test " << t;
        ASSERT_EQ(got.outcome, want.outcome)
            << threads << " threads, hypothesis " << h << ", test " << t;
      }
      ASSERT_EQ(session.surviving, expected[h].surviving)
          << threads << " threads, hypothesis " << h;
    }
  }
}

TEST(AdaptiveDiagnosisTest, CacheOnAndOffChooseIdenticalTests) {
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = single_fault_universe(array);
  Options with_cache;
  with_cache.use_dd_cache = true;
  Options without_cache;
  without_cache.use_dd_cache = false;
  AdaptiveDiagnoser cached(array, set.vectors, universe, with_cache);
  AdaptiveDiagnoser uncached(array, set.vectors, universe, without_cache);
  for (const FaultScenario& truth : universe) {
    const auto a = cached.run(truth);
    const auto b = uncached.run(truth);
    ASSERT_EQ(a.tests_applied(), b.tests_applied()) << to_string(truth);
    for (int t = 0; t < a.tests_applied(); ++t) {
      ASSERT_EQ(a.applied[static_cast<std::size_t>(t)].vector_index,
                b.applied[static_cast<std::size_t>(t)].vector_index)
          << to_string(truth) << " test " << t;
    }
    ASSERT_EQ(a.surviving, b.surviving) << to_string(truth);
    EXPECT_EQ(b.cache_hits, 0) << to_string(truth);
  }
  // Every session starts at the same root state, so the cache replays the
  // root decision for all sessions after the first.
  EXPECT_GT(cached.cache_nodes(), 0);
}

TEST(AdaptiveDiagnosisTest, WalkMatchesFilteringOverTwoSweeps) {
  const auto array = grid::table1_array(10);
  const auto set = core::generate_test_set(array);
  const auto universe = single_fault_universe(array);
  WalkedAndFiltered sessions(array, set.vectors, universe, {});
  for (const FaultScenario& truth : universe) sessions.run(truth);
  // The first sweep carved every path, so the second one walks each
  // session end to end on stored edges: no state is interned again.
  const int nodes = sessions.walked().cache_nodes();
  for (const FaultScenario& truth : universe) sessions.run(truth);
  EXPECT_EQ(sessions.walked().cache_nodes(), nodes);
}

TEST(AdaptiveDiagnosisTest, WalkMatchesFilteringOnMixedUniverse) {
  const auto array = grid::full_array(4, 4);
  const auto set = core::generate_test_set(array);
  std::vector<FaultScenario> universe;
  const int valves = array.valve_count();
  for (int v = 0; v < valves; ++v) {
    universe.push_back({stuck_at_0(v)});
    universe.push_back({stuck_at_1(v)});
    universe.push_back({degraded_flow(v)});
    if (v + 1 < valves) universe.push_back({control_leak(v, v + 1)});
    if (v + 3 < valves) {
      universe.push_back({stuck_at_1(v), stuck_at_0(v + 3)});
      universe.push_back({degraded_flow(v), degraded_flow(v + 3)});
      universe.push_back({control_leak(v, v + 3), stuck_at_1(v + 1)});
    }
  }
  WalkedAndFiltered sessions(array, set.vectors, universe, {});
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (const FaultScenario& truth : universe) sessions.run(truth);
  }
  sessions.run(FaultScenario{});
}

TEST(AdaptiveDiagnosisTest, WalkMatchesFilteringOffTheDiagram) {
  // The universe holds only the sa0 faults; sa1 and two-fault truths answer
  // outside it, and a chip that turns impossible after k tests gives an
  // outcome no hypothesis produces. Both drive the walk off stored edges.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const Simulator simulator(array);
  ASSERT_LT(simulator.sink_count(), 32);
  std::vector<FaultScenario> universe;
  std::vector<FaultScenario> outside;
  for (const Fault& fault : single_stuck_fault_universe(array)) {
    (fault.type == FaultType::kStuckAt0 ? universe : outside)
        .push_back({fault});
  }
  outside.push_back({stuck_at_0(0), stuck_at_1(array.valve_count() - 1)});
  WalkedAndFiltered sessions(array, set.vectors, universe, {});
  for (const FaultScenario& truth : universe) sessions.run(truth);
  for (const FaultScenario& truth : outside) sessions.run(truth);
  const Outcome impossible = Outcome{1} << simulator.sink_count();
  for (const int k : {0, 1, 2, 4}) {
    for (std::size_t h = 0; h < universe.size(); h += 7) {
      const FaultScenario& truth = universe[h];
      sessions.run(
          [&](const TestVector& vector, int call) {
            return call < k ? pack(simulator.readings(vector.states, truth))
                            : impossible;
          },
          "k=" + std::to_string(k) + " " + to_string(truth));
    }
  }
}

TEST(AdaptiveDiagnosisTest, WalkMatchesFilteringUnderEveryOption) {
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = single_fault_universe(array);
  std::vector<Options> variants;
  Options no_fault_free;
  no_fault_free.include_fault_free = false;
  variants.push_back(no_fault_free);
  Options exhaustive;
  exhaustive.stop_when_isolated = false;
  variants.push_back(exhaustive);
  for (const int cap : {1, 2, 3}) {
    Options capped;
    capped.max_tests = cap;
    variants.push_back(capped);
  }
  // Static order reaches nodes where nothing is left to apply; a session
  // that walks into one must rebuild its state before choosing. The cap is
  // one past the program, which only a session that re-applies a vector
  // can reach.
  for (const bool stop_when_isolated : {true, false}) {
    Options fixed;
    fixed.policy = Policy::kStaticOrder;
    fixed.stop_when_isolated = stop_when_isolated;
    fixed.max_tests = static_cast<int>(set.vectors.size()) + 1;
    variants.push_back(fixed);
  }
  for (const Options& options : variants) {
    WalkedAndFiltered sessions(array, set.vectors, universe, options);
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (const FaultScenario& truth : universe) sessions.run(truth);
    }
    sessions.run(FaultScenario{});
  }
}

TEST(AdaptiveDiagnosisTest, WalkMatchesFilteringWhenStoppedMidSession) {
  // The stop token trips from inside respond after k calls, on a diagram
  // the earlier sweep already carved, so the session ends mid-walk.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  const auto universe = single_fault_universe(array);
  const Simulator simulator(array);
  for (const int k : {1, 2, 3, 5}) {
    for (const std::size_t h : {std::size_t{0}, universe.size() / 2}) {
      std::vector<SessionResult> results;
      for (const bool use_dd_cache : {true, false}) {
        common::StopSource source;
        Options options;
        options.use_dd_cache = use_dd_cache;
        options.stop = source.token();
        AdaptiveDiagnoser diagnoser(array, set.vectors, universe, options);
        for (const FaultScenario& truth : universe) diagnoser.run(truth);
        int calls = 0;
        results.push_back(diagnoser.run([&](const TestVector& vector) {
          if (++calls == k) source.request_stop();
          return pack(simulator.readings(vector.states, universe[h]));
        }));
      }
      // The token is polled before each choice, so a session that got to
      // its k-th test stops right after it; a shorter one ends uncut.
      EXPECT_LE(results[0].tests_applied(), k);
      EXPECT_EQ(results[0].interrupted, results[0].tests_applied() == k);
      expect_same_session(results[0], results[1],
                          "k=" + std::to_string(k) + " " +
                              to_string(universe[h]));
    }
  }
}

TEST(AdaptiveDiagnosisTest, RunTruthMatchesOracleChipOnEveryStuckFault) {
  const auto array = grid::table1_array(10);
  const auto set = core::generate_test_set(array);
  const auto universe = single_fault_universe(array);
  ScreenedAndFlooded sessions(array, set.vectors, universe);
  for (const FaultScenario& truth : universe) sessions.run(truth);
  sessions.run(FaultScenario{});
}

TEST(AdaptiveDiagnosisTest, RunTruthMatchesOracleChipOnMixedUniverse) {
  const auto array = grid::full_array(4, 4);
  const auto set = core::generate_test_set(array);
  std::vector<FaultScenario> universe;
  const int valves = array.valve_count();
  for (int v = 0; v < valves; ++v) {
    universe.push_back({degraded_flow(v)});
    if (v + 1 < valves) {
      universe.push_back({control_leak(v, v + 1)});
      universe.push_back({control_leak(v + 1, v), stuck_at_1(v)});
      universe.push_back({stuck_at_1(v), stuck_at_0(v), degraded_flow(v)});
    }
    if (v + 3 < valves) {
      universe.push_back({stuck_at_1(v), stuck_at_0(v + 3)});
      universe.push_back({degraded_flow(v), degraded_flow(v + 3)});
      universe.push_back({control_leak(v, v + 3), stuck_at_1(v + 1),
                          degraded_flow(v + 3)});
    }
  }
  ScreenedAndFlooded sessions(array, set.vectors, universe);
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (const FaultScenario& truth : universe) sessions.run(truth);
  }
}

TEST(AdaptiveDiagnosisTest, RunTruthMatchesOracleChipOutsideTheUniverse) {
  // The universe holds only the sa0 faults; the truths are everything
  // else, including leaks, degraded valves and multi-fault sets.
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  std::vector<FaultScenario> universe;
  std::vector<FaultScenario> outside;
  for (const Fault& fault : single_stuck_fault_universe(array)) {
    (fault.type == FaultType::kStuckAt0 ? universe : outside)
        .push_back({fault});
  }
  for (const Fault& leak : control_leak_universe(array)) {
    outside.push_back({leak});
  }
  const int valves = array.valve_count();
  for (int v = 0; v + 2 < valves; v += 3) {
    outside.push_back({degraded_flow(v), degraded_flow(v + 2)});
    outside.push_back({stuck_at_0(v), stuck_at_1(v + 1)});
  }
  ScreenedAndFlooded sessions(array, set.vectors, universe);
  for (const FaultScenario& truth : outside) sessions.run(truth);
}

TEST(AdaptiveDiagnosisTest, RunTruthIgnoresAWrongExpectedReading) {
  // run(truth) emulates the chip from simulation: a vector whose stored
  // fault-free reading is wrong changes the hypotheses' bookkeeping, not
  // what the chip answers.
  const auto array = grid::table1_array(5);
  auto vectors = core::generate_test_set(array).vectors;
  ASSERT_FALSE(vectors.empty());
  for (const std::size_t v : {std::size_t{0}, vectors.size() / 2}) {
    vectors[v].expected[0] = !vectors[v].expected[0];
  }
  const auto universe = single_fault_universe(array);
  ScreenedAndFlooded sessions(array, vectors, universe);
  for (const FaultScenario& truth : universe) sessions.run(truth);
  sessions.run(FaultScenario{});
}

TEST(AdaptiveDiagnosisTest, RepeatSessionsHitTheCache) {
  const auto array = grid::full_array(4, 4);
  const auto set = core::generate_test_set(array);
  AdaptiveDiagnoser diagnoser(array, set.vectors,
                              single_fault_universe(array), {});
  const auto truth = diagnoser.universe()[3];
  const auto first = diagnoser.run(truth);
  const auto second = diagnoser.run(truth);
  // The replay walks exactly the path the first session carved: every
  // applied test comes back from the cache. (A terminal "nothing splits"
  // state stores no test, so at most one miss can remain.)
  EXPECT_EQ(second.cache_hits, second.tests_applied());
  EXPECT_LE(second.cache_misses, 1);
  ASSERT_EQ(second.tests_applied(), first.tests_applied());
  for (int t = 0; t < first.tests_applied(); ++t) {
    EXPECT_EQ(second.applied[static_cast<std::size_t>(t)].vector_index,
              first.applied[static_cast<std::size_t>(t)].vector_index);
    EXPECT_TRUE(second.applied[static_cast<std::size_t>(t)].from_cache);
  }
  EXPECT_EQ(second.surviving, first.surviving);
}

TEST(AdaptiveDiagnosisTest, MaxTestsCapsTheSession) {
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  Options options;
  options.max_tests = 2;
  options.stop_when_isolated = false;
  AdaptiveDiagnoser diagnoser(array, set.vectors,
                              single_fault_universe(array), options);
  const auto session = diagnoser.run(diagnoser.universe()[0]);
  EXPECT_EQ(session.tests_applied(), 2);
}

TEST(AdaptiveDiagnosisTest, StopTokenInterruptsSession) {
  const auto array = grid::table1_array(5);
  const auto set = core::generate_test_set(array);
  common::StopSource source;
  source.request_stop();
  Options options;
  options.stop = source.token();
  AdaptiveDiagnoser diagnoser(array, set.vectors,
                              single_fault_universe(array), options);
  const auto session = diagnoser.run(diagnoser.universe()[0]);
  EXPECT_TRUE(session.interrupted);
  EXPECT_EQ(session.tests_applied(), 0);
}

TEST(DecisionDiagramCacheTest, InternsEqualKeysOnce) {
  DecisionDiagramCache cache;
  const std::vector<std::uint64_t> words = {0b101, 0};
  const std::vector<int> survivors = {1, 4, 9};
  const int node = cache.intern(words, survivors);
  EXPECT_EQ(cache.intern(std::vector<std::uint64_t>(words),
                         std::vector<int>(survivors)),
            node);
  const int other_words = cache.intern(std::vector<std::uint64_t>{0b111, 0},
                                       survivors);
  const int other_survivors = cache.intern(words, std::vector<int>{1, 4});
  EXPECT_NE(other_words, node);
  EXPECT_NE(other_survivors, node);
  EXPECT_NE(other_words, other_survivors);
  EXPECT_EQ(cache.node_count(), 3);
  EXPECT_EQ(cache.chosen_test(node), DecisionDiagramCache::kNoTest);
  cache.set_chosen_test(node, 2);
  EXPECT_EQ(cache.chosen_test(node), 2);
}

TEST(DecisionDiagramCacheTest, AccessorsReturnTheStoredKey) {
  DecisionDiagramCache cache;
  const std::vector<std::uint64_t> words = {7, 1};
  const std::vector<int> survivors = {0, 3, 5, 6};
  const int node = cache.intern(words, survivors);
  cache.intern(std::vector<std::uint64_t>{}, std::vector<int>{});
  const auto stored_words = cache.applied_words(node);
  const auto stored_survivors = cache.surviving(node);
  EXPECT_EQ(std::vector<std::uint64_t>(stored_words.begin(),
                                       stored_words.end()),
            words);
  EXPECT_EQ(std::vector<int>(stored_survivors.begin(),
                             stored_survivors.end()),
            survivors);
  EXPECT_TRUE(cache.surviving(1).empty());
  EXPECT_TRUE(cache.applied_words(1).empty());
}

TEST(DecisionDiagramCacheTest, ChildEdgesByOutcome) {
  DecisionDiagramCache cache;
  const int root = cache.intern(std::vector<std::uint64_t>{0},
                                std::vector<int>{0, 1, 2});
  const int left = cache.intern(std::vector<std::uint64_t>{1},
                                std::vector<int>{0});
  const int right = cache.intern(std::vector<std::uint64_t>{1},
                                 std::vector<int>{1, 2});
  EXPECT_EQ(cache.child(root, 5), DecisionDiagramCache::kNoNode);
  cache.link_child(root, 5, right);
  cache.link_child(root, 2, left);
  EXPECT_EQ(cache.child(root, 2), left);
  EXPECT_EQ(cache.child(root, 5), right);
  EXPECT_EQ(cache.child(root, 3), DecisionDiagramCache::kNoNode);
  EXPECT_EQ(cache.child(left, 2), DecisionDiagramCache::kNoNode);
  // Re-linking the same edge is a no-op; a different child for a known
  // outcome is a broken diagram.
  cache.link_child(root, 5, right);
  EXPECT_EQ(cache.child(root, 5), right);
  EXPECT_THROW(cache.link_child(root, 5, left), std::exception);
  EXPECT_EQ(cache.child(root, 5), right);
}

}  // namespace
}  // namespace fpva::sim::diagnosis
