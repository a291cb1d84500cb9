#include "sim/diagnosis/adaptive.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace fpva::sim::diagnosis {

namespace {

bool is_applied(std::span<const std::uint64_t> applied_words,
                std::size_t v) {
  return (applied_words[v / 64] >> (v % 64)) & 1;
}

Outcome pack_readings(const std::vector<bool>& readings) {
  Outcome packed = 0;
  for (std::size_t s = 0; s < readings.size(); ++s) {
    if (readings[s]) packed |= Outcome{1} << s;
  }
  return packed;
}

}  // namespace

AdaptiveDiagnoser::AdaptiveDiagnoser(const grid::ValveArray& array,
                                     std::vector<TestVector> vectors,
                                     std::vector<FaultScenario> universe,
                                     const Options& options)
    : array_(&array),
      oracle_(array),
      vectors_(std::move(vectors)),
      universe_(std::move(universe)),
      options_(options) {
  const int sinks = oracle_.sink_count();
  common::check(sinks <= 32,
                "AdaptiveDiagnoser: >32 sinks cannot pack into an Outcome");
  expected_.resize(vectors_.size());
  fault_free_pressure_.resize(vectors_.size());
  fault_free_outcome_.resize(vectors_.size());
  for (std::size_t v = 0; v < vectors_.size(); ++v) {
    common::check(
        static_cast<int>(vectors_[v].expected.size()) == sinks,
        "AdaptiveDiagnoser: vector expected-arity != sink count");
    expected_[v] = pack_readings(vectors_[v].expected);
  }

  // Precompute every (vector, hypothesis) outcome bit-parallel. Jobs are
  // one vector each and write disjoint rows, so the table content — and
  // everything decided from it — is independent of the worker count.
  const std::size_t hypotheses = universe_.size();
  outcomes_.assign(vectors_.size() * hypotheses, 0);
  if (hypotheses == 0 || vectors_.empty()) return;
  std::vector<std::unique_ptr<BatchSimulator>> workers(
      static_cast<std::size_t>(
          common::plan_workers(options_.threads, vectors_.size())));
  common::run_jobs(
      options_.threads, vectors_.size(), [&](int worker, std::size_t v) {
        auto& batch = workers[static_cast<std::size_t>(worker)];
        if (!batch) batch = std::make_unique<BatchSimulator>(*array_);
        Outcome* row = outcomes_.data() + v * hypotheses;
        for (std::size_t base = 0; base < hypotheses;
             base += BatchSimulator::kLanes) {
          const std::size_t count = std::min<std::size_t>(
              BatchSimulator::kLanes, hypotheses - base);
          const auto readings = batch->readings(
              vectors_[v].states,
              std::span<const FaultScenario>(universe_.data() + base,
                                             count));
          for (std::size_t s = 0; s < readings.size(); ++s) {
            for (std::size_t lane = 0; lane < count; ++lane) {
              row[base + lane] |= static_cast<Outcome>(
                                      (readings[s] >> lane) & 1)
                                  << s;
            }
          }
        }
      });
}

int AdaptiveDiagnoser::pick_test(
    std::span<const std::uint64_t> applied_words,
    const std::vector<int>& surviving, bool fault_free_alive) const {
  if (options_.policy == Policy::kStaticOrder) {
    for (std::size_t v = 0; v < vectors_.size(); ++v) {
      if (!is_applied(applied_words, v)) return static_cast<int>(v);
    }
    return -1;
  }
  const std::size_t alive =
      surviving.size() + (fault_free_alive ? std::size_t{1} : 0);
  if (alive <= 1) return -1;
  const std::size_t hypotheses = universe_.size();
  int best = -1;
  double best_cost = 0.0;
  for (std::size_t v = 0; v < vectors_.size(); ++v) {
    if (is_applied(applied_words, v)) continue;
    // Outcome multiset of this vector over the alive hypotheses.
    scratch_outcomes_.clear();
    const Outcome* row = outcomes_.data() + v * hypotheses;
    for (const int h : surviving) {
      scratch_outcomes_.push_back(row[h]);
    }
    if (fault_free_alive) scratch_outcomes_.push_back(expected_[v]);
    std::sort(scratch_outcomes_.begin(), scratch_outcomes_.end());
    if (scratch_outcomes_.front() == scratch_outcomes_.back()) {
      continue;  // one outcome class: the vector cannot split anything
    }
    // sum_o n_o*log2(n_o), accumulated over sorted runs so the floating
    // sum has one deterministic evaluation order.
    double cost = 0.0;
    std::size_t run_start = 0;
    for (std::size_t i = 1; i <= scratch_outcomes_.size(); ++i) {
      if (i == scratch_outcomes_.size() ||
          scratch_outcomes_[i] != scratch_outcomes_[run_start]) {
        const auto n = static_cast<double>(i - run_start);
        cost += n * std::log2(n);
        run_start = i;
      }
    }
    // Strict < ties to the lowest vector index.
    if (best < 0 || cost < best_cost) {
      best = static_cast<int>(v);
      best_cost = cost;
    }
  }
  return best;
}

SessionResult AdaptiveDiagnoser::run(
    const std::function<Outcome(const TestVector&)>& respond) {
  SessionResult result;
  const int hypotheses = static_cast<int>(universe_.size());
  const bool walk = options_.use_dd_cache;
  // With the DD cache on, the session state is the key of `node`: the root
  // (interned once per diagnoser) and then the stored child of each
  // observed outcome. The local copies below are rebuilt from that key
  // (`loaded`) only where a step needs them: to pick a test, to leave the
  // diagram, and at the session end.
  int node = root_;
  std::vector<int> surviving;
  bool fault_free_alive = false;
  std::vector<std::uint64_t> applied_words((vectors_.size() + 63) / 64, 0);
  bool loaded = false;
  const auto load = [&] {
    if (node == DecisionDiagramCache::kNoNode) {
      surviving.resize(static_cast<std::size_t>(hypotheses));
      std::iota(surviving.begin(), surviving.end(), 0);
      fault_free_alive = options_.include_fault_free;
    } else {
      // The key's trailing sentinel |universe| marks the fault-free
      // hypothesis as alive.
      const std::span<const int> key = cache_.surviving(node);
      fault_free_alive = !key.empty() && key.back() == hypotheses;
      surviving.assign(key.begin(), key.end() - (fault_free_alive ? 1 : 0));
      const std::span<const std::uint64_t> words =
          cache_.applied_words(node);
      applied_words.assign(words.begin(), words.end());
    }
    loaded = true;
  };
  if (node == DecisionDiagramCache::kNoNode) load();

  // DD-cache key: surviving indices plus the sentinel |universe| while the
  // fault-free hypothesis is alive (the choice depends on it).
  std::vector<int> key;
  const auto intern_state = [&] {
    key = surviving;
    if (fault_free_alive) key.push_back(hypotheses);
    return cache_.intern(applied_words, key);
  };
  // Alive hypotheses at a node (fault-free included), and the fault-set
  // hypotheses alone.
  const auto key_size = [&](int id) {
    return static_cast<int>(cache_.surviving(id).size());
  };
  const auto fault_sets = [&](int id) {
    const std::span<const int> stored = cache_.surviving(id);
    return static_cast<int>(stored.size()) -
           (!stored.empty() && stored.back() == hypotheses ? 1 : 0);
  };

  while (true) {
    if (options_.stop.stop_requested()) {
      result.interrupted = true;
      break;
    }
    if (options_.max_tests > 0 &&
        result.tests_applied() >= options_.max_tests) {
      break;
    }
    const int alive = loaded ? static_cast<int>(surviving.size()) +
                                   (fault_free_alive ? 1 : 0)
                             : key_size(node);
    if (options_.stop_when_isolated && alive <= 1) break;

    int test = -1;
    bool from_cache = false;
    if (walk) {
      if (node == DecisionDiagramCache::kNoNode) {
        node = root_ = intern_state();
      }
      test = cache_.chosen_test(node);
      if (test != DecisionDiagramCache::kNoTest) {
        from_cache = true;
        ++result.cache_hits;
      } else {
        if (!loaded) load();
        test = pick_test(applied_words, surviving, fault_free_alive);
        ++result.cache_misses;
        if (test >= 0) cache_.set_chosen_test(node, test);
      }
    } else {
      test = pick_test(applied_words, surviving, fault_free_alive);
    }
    if (test < 0) break;  // nothing left that could split the hypotheses

    const Outcome outcome = respond(vectors_[static_cast<std::size_t>(test)]);
    AppliedTest applied;
    applied.vector_index = test;
    applied.outcome = outcome;
    applied.from_cache = from_cache;

    if (walk) {
      // On the diagram: the stored child is the state this outcome leads
      // to, so the step is counted off the two keys' sizes.
      const int next = cache_.child(node, outcome);
      if (next != DecisionDiagramCache::kNoNode) {
        applied.surviving_before = fault_sets(node);
        applied.surviving_after = fault_sets(next);
        result.eliminated += key_size(node) - key_size(next);
        result.applied.push_back(applied);
        node = next;
        loaded = false;
        continue;
      }
      if (!loaded) load();
    }

    applied_words[static_cast<std::size_t>(test) / 64] |=
        std::uint64_t{1} << (static_cast<std::size_t>(test) % 64);
    applied.surviving_before = static_cast<int>(surviving.size());
    const Outcome* row = outcomes_.data() +
                         static_cast<std::size_t>(test) *
                             static_cast<std::size_t>(hypotheses);
    std::vector<int> next;
    next.reserve(surviving.size());
    for (const int h : surviving) {
      if (row[h] == outcome) next.push_back(h);
    }
    result.eliminated +=
        static_cast<long>(surviving.size()) - static_cast<long>(next.size());
    surviving.swap(next);
    if (fault_free_alive &&
        expected_[static_cast<std::size_t>(test)] != outcome) {
      fault_free_alive = false;
      ++result.eliminated;
    }
    applied.surviving_after = static_cast<int>(surviving.size());
    result.applied.push_back(applied);

    if (walk) {
      const int child = intern_state();
      cache_.link_child(node, outcome, child);
      node = child;
    }
  }

  if (!loaded) load();
  result.surviving = std::move(surviving);
  result.fault_free_consistent = fault_free_alive;
  return result;
}

SessionResult AdaptiveDiagnoser::run(const FaultScenario& truth) {
  return run([&](const TestVector& vector) {
    // run(respond) hands over elements of vectors_.
    const auto v = static_cast<std::size_t>(&vector - vectors_.data());
    std::vector<bool>& pressure = fault_free_pressure_[v];
    if (pressure.empty()) {
      pressure = oracle_.fault_free_pressure(vector.states);
      fault_free_outcome_[v] = pack_readings(oracle_.expected(vector.states));
    }
    if (oracle_.flood_unchanged(vector.states, truth, pressure)) {
      return fault_free_outcome_[v];
    }
    return pack_readings(oracle_.readings(vector.states, truth));
  });
}

}  // namespace fpva::sim::diagnosis
