// Repo benchmark driver. One process runs one workload for a time budget
// and prints one JSON record as its last line; perfbench/run.py builds this
// binary, checks the record across runs and prints the benchmark result.
//
// Usage: fpva_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       --out-dir DIR
//
// Every workload is a closed loop: one caller, one thread, passes run back
// to back until the time budget is spent. A pass is one run a user waits
// on: proving a cut-set minimum, or one Table-I pipeline (generate ->
// coverage -> [pair audit] -> campaign -> diagnosis sessions). The library
// is driven only through its public entry points with default options (no
// ilp::Options switch is set), so the numbers measure the shipped
// configuration.
//
// --trace 0 times whole passes and stages (the end-to-end metrics).
// --trace 1 alternates untraced passes with traced ones; a traced pass
// records spans around the same calls from this file and derives the
// per-layer metrics from them (self time = span minus child spans).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cut_set.h"
#include "core/generator.h"
#include "core/ilp_models.h"
#include "core/masking.h"
#include "grid/presets.h"
#include "sim/campaign.h"
#include "sim/control_topology.h"
#include "sim/coverage.h"
#include "sim/diagnosis/adaptive.h"
#include "sim/simulator.h"

namespace {

using namespace fpva;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------- workloads

/// A certify workload proves the cut-set minimum of grid::full_array(n, n)
/// (III-B-3 escalation); a preset workload runs the Table-I pipeline on
/// grid::table1_array(n).
struct Workload {
  const char* name;
  int n;
  bool certify;
  bool pair_audit;  ///< exhaustive two-fault audit (quadratic in valves)
};

// The 30x30 pair audit (5.8M pairs, ~26 s) does not fit a pass.
constexpr Workload kWorkloads[] = {
    {"certify-5x5", 5, true, false},
    {"preset-20x20", 20, false, true},
    {"preset-30x30", 30, false, false},
};

constexpr int kCertifyFirstBudget = 1;
constexpr int kCertifyLastBudget = 10;
constexpr int kCertifyExpectedBudget = 4;
/// The paper repeats each fault count 10,000 times; at that size a
/// campaign lasts 43-124 ms, too short to time within a tenth.
constexpr int kCampaignTrialsPerCount = 50000;
constexpr double kDegradedProbability = 0.1;
/// An untraced pass repeats each set-up step (array + Simulator, then
/// AdaptiveDiagnoser) until its repetitions add up to this and takes their
/// mean, so set-up that takes microseconds is timed over a stretch long
/// enough to average the host's speed swings. The pass's wall_s counts
/// only the first repetition.
constexpr double kMinSetupSeconds = 0.2;

// ---------------------------------------------------------------- tracing

/// In-memory span recorder: name, start, end, parent (the innermost span
/// still open) and the counts read from the result the traced call
/// returned. Written out once at the end.
class Trace {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::vector<std::pair<const char*, double>> counts;
    double seconds() const {
      return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
  };

  Trace() : origin_(Clock::now()) {}

  int open(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, now_ns(), 0, parent, {}});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void close(int span) {
    spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
    open_.pop_back();
  }
  void count(int span, const char* key, double value) {
    spans_[static_cast<std::size_t>(span)].counts.emplace_back(key, value);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span called `name`.
  double total_seconds(const char* name) const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (std::strcmp(span.name, name) == 0) total += span.seconds();
    }
    return total;
  }
  /// Number of spans called `name`.
  long occurrences(const char* name) const {
    return std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) {
      return std::strcmp(s.name, name) == 0;
    });
  }
  /// Sum of count `key` over the spans called `name`.
  double count_sum(const char* name, const char* key) const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (std::strcmp(span.name, name) != 0) continue;
      for (const auto& [k, v] : span.counts) {
        if (std::strcmp(k, key) == 0) total += v;
      }
    }
    return total;
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    out.precision(17);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << span.name
          << "\",\"parent\":" << span.parent << ",\"start_ns\":"
          << span.start_ns << ",\"end_ns\":" << span.end_ns;
      for (const auto& [key, value] : span.counts) {
        out << ",\"" << key << "\":" << value;
      }
      out << "}\n";
    }
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< ids of the spans still open, innermost last
};

/// Opens a span on construction and closes it on destruction; a no-op
/// without a trace.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const char* name)
      : trace_(trace), id_(trace ? trace->open(name) : -1) {}
  ~ScopedSpan() {
    if (trace_) trace_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void count(const char* key, double value) {
    if (trace_) trace_->count(id_, key, value);
  }

 private:
  Trace* trace_;
  int id_;
};

// ------------------------------------------------------- checks and counts

/// Output checks, each counted against the operations attempted.
struct Checks {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

/// Exact, seed-determined counts of one pass. They must repeat across
/// passes and runs; `seed_free` ones must also match across seeds.
using Counts = std::map<std::string, long>;

struct PassResult {
  double duration_s = 0.0;  ///< the whole pass, set-up repetitions included
  double wall_s = 0.0;
  double setup_s = 0.0;  ///< array + Simulator (+ AdaptiveDiagnoser)
  double certify_s = 0.0;
  double generate_s = 0.0;
  double audit_s = 0.0;
  long audit_pairs = 0;
  double campaign_s = 0.0;
  long campaign_trials = 0;
  std::vector<double> session_ms;
  long tests = 0;
  int test_vectors = 0;  ///< certified cut budget, or the generated N
  Counts seed_free;
  Counts seeded;
};

std::vector<sim::LeakPair> testable_leak_pairs(
    const grid::ValveArray& array, const core::GeneratedTestSet& set) {
  std::vector<sim::LeakPair> pairs;
  for (const sim::LeakPair& pair : sim::control_leak_pairs(array)) {
    const bool untestable = std::any_of(
        set.untestable_leaks.begin(), set.untestable_leaks.end(),
        [&](const sim::Fault& leak) {
          return (leak.valve == pair.first && leak.partner == pair.second) ||
                 (leak.valve == pair.second && leak.partner == pair.first);
        });
    if (!untestable) pairs.push_back(pair);
  }
  return pairs;
}

sim::diagnosis::Outcome pack(const std::vector<bool>& readings) {
  sim::diagnosis::Outcome packed = 0;
  for (std::size_t s = 0; s < readings.size(); ++s) {
    if (readings[s]) packed |= sim::diagnosis::Outcome{1} << s;
  }
  return packed;
}

// --------------------------------------------------------------- certify

void record_stage(int budget, ilp::ResultStatus status, long nodes,
                  long pivots, PassResult& pass) {
  const std::string key = "certify.b" + std::to_string(budget);
  pass.seed_free[key + ".nodes"] = nodes;
  pass.seed_free[key + ".pivots"] = pivots;
  pass.seed_free[key + ".status"] = static_cast<long>(status);
}

/// Untraced: the library's serial escalation in one call.
void certify(const grid::ValveArray& array, PassResult& pass, Checks& checks) {
  const auto result = core::find_minimum_cut_sets(
      array, kCertifyFirstBudget, kCertifyLastBudget, true, ilp::Options{});
  checks.expect(result.has_value(), "certify: no cut cover");
  if (!result) return;
  checks.expect(result->cut_budget == kCertifyExpectedBudget &&
                    result->proven_minimal,
                "certify: budget " + std::to_string(result->cut_budget) +
                    (result->proven_minimal ? " proven" : " unproven"));
  for (const core::CutSet& cut : result->cuts) {
    checks.expect(!core::validate_cut_set(array, cut).has_value(),
                  "certify: invalid cut");
  }
  pass.test_vectors = result->cut_budget;
  pass.seed_free["certify.cut_budget"] = result->cut_budget;
  for (const core::BudgetStage& stage : result->stages) {
    record_stage(stage.budget, stage.status, stage.nodes, stage.lp_pivots,
                 pass);
  }
}

/// Traced: replays the serial escalation one budget at a time. Once the
/// budgets below b are proven infeasible, escalate_budgets solves exactly
/// solve_cut_set_model(array, b, true, {}, floor = b); budget 1 has floor
/// 0. Each stage span carries the full ilp::Result counters.
void certify_traced(const grid::ValveArray& array, Trace& trace,
                    PassResult& pass, Checks& checks) {
  for (int budget = kCertifyFirstBudget; budget <= kCertifyLastBudget;
       ++budget) {
    ScopedSpan span(&trace, "certify.stage");
    ilp::Result failure;
    const auto result = core::solve_cut_set_model(
        array, budget, true, ilp::Options{},
        budget == kCertifyFirstBudget ? 0 : budget, &failure);
    const ilp::Result& r = result ? result->ilp : failure;
    span.count("budget", budget);
    span.count("feasible", result ? 1 : 0);
    span.count("nodes", static_cast<double>(r.nodes));
    span.count("pivots", static_cast<double>(r.lp_pivots));
    span.count("refactorizations", static_cast<double>(r.lp_refactorizations));
    span.count("basis_updates", static_cast<double>(r.lp_basis_updates));
    span.count("fallbacks",
               static_cast<double>(r.lp_eta_fallbacks + r.lp_dense_fallbacks));
    span.count("pruned_by_propagation",
               static_cast<double>(r.nodes_pruned_by_propagation));
    span.count("conflicts", static_cast<double>(r.conflicts));
    span.count("cuts_added", r.cuts_added);
    record_stage(budget, r.status, r.nodes, r.lp_pivots, pass);
    if (result) {
      pass.test_vectors = result->cut_budget;
      pass.seed_free["certify.cut_budget"] = result->cut_budget;
      checks.expect(budget == kCertifyExpectedBudget,
                    "certify trace: feasible at budget " +
                        std::to_string(budget));
      break;
    }
    if (r.status != ilp::ResultStatus::kInfeasible) {
      checks.expect(false, "certify trace: budget " + std::to_string(budget) +
                               " not refuted");
      break;
    }
  }
}

// ------------------------------------------------------------------ pass

/// Times one set-up step: `build` once, or when `repeat` until the
/// repetitions add up to kMinSetupSeconds, with `teardown` of the previous
/// repetition's objects left out of the timing. Returns the mean time per
/// build and adds the time beyond the first repetition to `repeated_s`.
template <typename Teardown, typename Build>
double time_setup(bool repeat, double& repeated_s, Teardown&& teardown,
                  Build&& build) {
  const Clock::time_point start = Clock::now();
  double built_s = 0.0;
  double first_s = 0.0;
  int repetitions = 0;
  do {
    teardown();
    const Clock::time_point build_start = Clock::now();
    build();
    built_s += seconds_since(build_start);
    if (++repetitions == 1) first_s = seconds_since(start);
  } while (repeat && seconds_since(start) < kMinSetupSeconds);
  repeated_s += seconds_since(start) - first_s;
  return built_s / repetitions;
}

/// The Table-I pipeline: generate -> coverage -> [pair audit] -> campaign
/// -> one diagnosis session per single stuck fault.
void run_pipeline(const Workload& workload, std::uint64_t seed,
                  const grid::ValveArray& array,
                  const sim::Simulator& simulator, Trace* trace,
                  PassResult& pass, double& repeated_s, Checks& checks) {
  // Generation: Table I's hierarchical flow with 5x5 blocks.
  core::GeneratorOptions generator_options;
  generator_options.hierarchical = true;
  generator_options.block_size = 5;
  const Clock::time_point generate_start = Clock::now();
  core::GeneratedTestSet set;
  {
    ScopedSpan span(trace, "generate");
    set = core::generate_test_set(array, generator_options);
    span.count("path_s", set.path_stage.seconds);
    span.count("cut_s", set.cut_stage.seconds);
    span.count("leak_s", set.leak_stage.seconds);
    span.count("paths", set.path_stage.vectors);
    span.count("cuts", set.cut_stage.vectors);
    span.count("leaks", set.leak_stage.vectors);
  }
  pass.generate_s = seconds_since(generate_start);
  pass.test_vectors = set.total_vectors();
  checks.expect(set.undetected.empty(),
                std::to_string(set.undetected.size()) +
                    " undetected faults after generation");
  pass.seed_free["test_vectors"] = set.total_vectors();

  // Single-fault coverage over the testable universe.
  {
    ScopedSpan span(trace, "coverage");
    std::vector<sim::Fault> universe;
    for (const sim::Fault& fault : sim::single_stuck_fault_universe(array)) {
      if (std::find(set.untestable.begin(), set.untestable.end(),
                    fault.valve) == set.untestable.end()) {
        universe.push_back(fault);
      }
    }
    const sim::CoverageReport report =
        sim::single_fault_coverage(simulator, set.vectors, universe);
    checks.expect(report.complete() && report.total_faults > 0,
                  "single-fault coverage incomplete");
  }

  std::vector<sim::TestVector> vectors = set.vectors;
  if (workload.pair_audit) {
    ScopedSpan span(trace, "audit");
    const Clock::time_point audit_start = Clock::now();
    const core::TwoFaultAudit audit =
        core::audit_and_repair_two_faults(array, simulator, vectors);
    pass.audit_s = seconds_since(audit_start);
    pass.audit_pairs = audit.before.total_pairs;
    span.count("pairs", static_cast<double>(audit.before.total_pairs));
    span.count("added_vectors", audit.added_vectors);
    checks.expect(audit.after.complete(), "two-fault audit incomplete");
    pass.seed_free["audit.pairs"] = audit.before.total_pairs;
    pass.seed_free["audit.added_vectors"] = audit.added_vectors;
  }

  // Section IV campaign: 1-5 faults, leaks from the testable pairs,
  // degraded-flow faults.
  {
    sim::CampaignOptions options;
    options.trials_per_count = kCampaignTrialsPerCount;
    options.min_faults = 1;
    options.max_faults = 5;
    options.seed = seed;
    options.include_control_leaks = true;
    options.leak_pairs = testable_leak_pairs(array, set);
    options.degraded_probability = kDegradedProbability;
    ScopedSpan span(trace, "campaign");
    const Clock::time_point campaign_start = Clock::now();
    const sim::CampaignResult result =
        sim::run_campaign(simulator, vectors, options);
    pass.campaign_s = seconds_since(campaign_start);
    pass.campaign_trials = result.total_trials();
    span.count("detected", static_cast<double>(result.total_detected()));
    const long requested = static_cast<long>(kCampaignTrialsPerCount) *
                           (options.max_faults - options.min_faults + 1);
    checks.expect(!result.interrupted && result.total_trials() == requested,
                  "campaign ran " + std::to_string(result.total_trials()) +
                      " of " + std::to_string(requested) + " trials");
    pass.seeded["campaign.detected"] = result.total_detected();
  }

  // Adaptive diagnosis: one session per single stuck fault, truths in a
  // seed-shuffled order.
  std::vector<sim::FaultScenario> universe;
  for (const sim::Fault& fault : sim::single_stuck_fault_universe(array)) {
    universe.push_back({fault});
  }
  std::vector<int> order(universe.size());
  std::iota(order.begin(), order.end(), 0);
  common::Rng rng(seed);
  rng.shuffle(order);

  std::optional<sim::diagnosis::AdaptiveDiagnoser> diagnoser;
  pass.setup_s += time_setup(
      trace == nullptr, repeated_s, [&] { diagnoser.reset(); },
      [&] {
        ScopedSpan span(trace, "diagnosis.build");
        diagnoser.emplace(array, vectors, universe);
      });

  long isolated = 0;
  for (const int truth : order) {
    const sim::FaultScenario& scenario =
        universe[static_cast<std::size_t>(truth)];
    const Clock::time_point session_start = Clock::now();
    sim::diagnosis::SessionResult session;
    if (trace) {
      // What run(truth) does, with the emulated chip in a child span.
      ScopedSpan span(trace, "session");
      session = diagnoser->run([&](const sim::TestVector& vector) {
        ScopedSpan respond(trace, "respond");
        return pack(simulator.readings(vector.states, scenario));
      });
      span.count("hits", static_cast<double>(session.cache_hits));
      span.count("misses", static_cast<double>(session.cache_misses));
      span.count("isolated", session.isolated() ? 1 : 0);
    } else {
      session = diagnoser->run(scenario);
    }
    pass.session_ms.push_back(seconds_since(session_start) * 1e3);
    pass.tests += session.tests_applied();
    isolated += session.isolated() ? 1 : 0;
    const bool kept_truth =
        !session.interrupted &&
        std::binary_search(session.surviving.begin(), session.surviving.end(),
                           truth);
    checks.expect(kept_truth, kept_truth ? std::string()
                                         : "diagnosis lost its truth " +
                                               sim::to_string(scenario));
  }
  if (trace) {
    ScopedSpan span(trace, "diagnosis.cache");
    span.count("dd_nodes", diagnoser->cache_nodes());
  }
  pass.seed_free["diagnosis.tests"] = pass.tests;
  pass.seeded["diagnosis.isolated"] = isolated;
  pass.seeded["diagnosis.dd_nodes"] = diagnoser->cache_nodes();
}

PassResult run_pass(const Workload& workload, std::uint64_t seed,
                    Trace* trace, Checks& checks) {
  PassResult pass;
  double repeated_s = 0.0;
  const Clock::time_point pass_start = Clock::now();
  ScopedSpan pass_span(trace, "pass");

  std::optional<grid::ValveArray> array;
  std::optional<sim::Simulator> simulator;
  pass.setup_s += time_setup(
      trace == nullptr, repeated_s,
      [&] {
        simulator.reset();
        array.reset();
      },
      [&] {
        ScopedSpan span(trace, "setup");
        array.emplace(workload.certify
                          ? grid::full_array(workload.n, workload.n)
                          : grid::table1_array(workload.n));
        simulator.emplace(*array);
      });

  if (workload.certify) {
    const Clock::time_point certify_start = Clock::now();
    if (trace) {
      certify_traced(*array, *trace, pass, checks);
    } else {
      certify(*array, pass, checks);
    }
    pass.certify_s = seconds_since(certify_start);
  } else {
    run_pipeline(workload, seed, *array, *simulator, trace, pass, repeated_s,
                 checks);
  }
  pass.duration_s = seconds_since(pass_start);
  pass.wall_s = pass.duration_s - repeated_s;
  return pass;
}

// --------------------------------------------------------------- metrics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Peak resident set of this process image. VmHWM, unlike ru_maxrss,
/// restarts at exec, so the launching interpreter's footprint is excluded.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// End-to-end metrics of the untraced passes. setup_s, wall_s,
/// test_vectors and peak_rss_mb are never 0; a stage metric is 0 where the
/// workload does not run the stage.
std::vector<Metric> end_to_end_metrics(const Workload& workload,
                                       const std::vector<PassResult>& passes,
                                       double peak_rss) {
  std::vector<double> wall, setup, certify, generate, audit, trials_per_s,
      sessions;
  for (const PassResult& pass : passes) {
    wall.push_back(pass.wall_s);
    setup.push_back(pass.setup_s);
    certify.push_back(pass.certify_s);
    generate.push_back(pass.generate_s);
    if (workload.pair_audit) {
      audit.push_back(static_cast<double>(pass.audit_pairs) / pass.audit_s);
    }
    if (pass.campaign_s > 0.0) {
      trials_per_s.push_back(static_cast<double>(pass.campaign_trials) /
                             pass.campaign_s);
    }
    sessions.insert(sessions.end(), pass.session_ms.begin(),
                    pass.session_ms.end());
  }
  const PassResult& first = passes.front();
  const double sessions_per_pass =
      static_cast<double>(first.session_ms.size());
  return {
      {"setup_s", median(setup), "s"},
      {"wall_s", median(wall), "s"},
      {"test_vectors", static_cast<double>(first.test_vectors), "count"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"certify_s", median(certify), "s"},
      {"generate_s", median(generate), "s"},
      {"audit_pairs_per_s", median(audit), "pairs/s"},
      {"campaign_trials_per_s", median(trials_per_s), "trials/s"},
      {"session_ms_p50", percentile(sessions, 50.0), "ms"},
      {"session_ms_p99", percentile(sessions, 99.0), "ms"},
      {"tests_per_session",
       sessions_per_pass > 0 ? static_cast<double>(first.tests) /
                                   sessions_per_pass
                             : 0.0,
       "count"},
  };
}

/// Per-layer metrics of one traced pass.
std::vector<Metric> per_layer_metrics(const Trace& trace) {
  std::vector<Metric> out;
  // Certification stages: budgets below the last are refutations.
  struct Side {
    double seconds = 0, nodes = 0, pivots = 0, refactorizations = 0,
           updates = 0, pruned = 0, conflicts = 0, cuts = 0;
  } refute, final_stage;
  double fallbacks = 0;
  for (const Trace::Span& span : trace.spans()) {
    if (std::strcmp(span.name, "certify.stage") != 0) continue;
    std::map<std::string, double> c;
    for (const auto& [k, v] : span.counts) c[k] = v;
    Side& side = c["feasible"] > 0 ? final_stage : refute;
    side.seconds += span.seconds();
    side.nodes += c["nodes"];
    side.pivots += c["pivots"];
    side.refactorizations += c["refactorizations"];
    side.updates += c["basis_updates"];
    side.pruned += c["pruned_by_propagation"];
    side.conflicts += c["conflicts"];
    side.cuts += c["cuts_added"];
    fallbacks += c["fallbacks"];
  }
  const auto rate = [](double work, double seconds) {
    return seconds > 0 ? work / seconds : 0.0;
  };
  for (const auto& [label, side] :
       {std::pair<const char*, const Side&>{"refute", refute},
        std::pair<const char*, const Side&>{"final", final_stage}}) {
    const std::string lp = std::string("lp.") + label;
    const std::string ilp = std::string("ilp.") + label;
    out.push_back(
        {lp + ".pivots_per_s", rate(side.pivots, side.seconds), "1/s"});
    out.push_back({lp + ".refactorizations", side.refactorizations, "count"});
    out.push_back({lp + ".basis_updates", side.updates, "count"});
    out.push_back({ilp + ".nodes", side.nodes, "count"});
    out.push_back({ilp + ".pruned_by_propagation", side.pruned, "count"});
    out.push_back({ilp + ".conflicts", side.conflicts, "count"});
    out.push_back({ilp + ".cuts_added", side.cuts, "count"});
    out.push_back(
        {std::string("core.certify.") + label + "_s", side.seconds, "s"});
  }
  const double refactorizations =
      refute.refactorizations + final_stage.refactorizations;
  out.push_back({"lp.updates_per_refactor",
                 rate(refute.updates + final_stage.updates, refactorizations),
                 "ratio"});
  out.push_back({"lp.fallbacks", fallbacks, "count"});

  // Generation: StageStats per family; repair is the span minus them.
  double stages_s = 0.0;
  for (const char* family : {"path", "cut", "leak"}) {
    const std::string key = std::string(family) + "_s";
    const double seconds = trace.count_sum("generate", key.c_str());
    stages_s += seconds;
    out.push_back({"core.generate." + key, seconds, "s"});
  }
  out.push_back({"core.generate.repair_s",
                 trace.total_seconds("generate") - stages_s, "s"});
  for (const char* family : {"paths", "cuts", "leaks"}) {
    out.push_back({std::string("core.generate.") + family,
                   trace.count_sum("generate", family), "count"});
  }

  const double audit_s = trace.total_seconds("audit");
  const double pairs = trace.count_sum("audit", "pairs");
  out.push_back({"core.masking.audit_s", audit_s, "s"});
  out.push_back({"core.masking.pairs", pairs, "count"});
  out.push_back({"core.masking.pairs_per_s", rate(pairs, audit_s), "1/s"});
  out.push_back({"core.masking.added_vectors",
                 trace.count_sum("audit", "added_vectors"), "count"});
  out.push_back({"sim.coverage_s", trace.total_seconds("coverage"), "s"});
  out.push_back({"sim.campaign_s", trace.total_seconds("campaign"), "s"});
  out.push_back({"sim.campaign.detected",
                 trace.count_sum("campaign", "detected"), "count"});

  const double respond_s = trace.total_seconds("respond");
  const double responds = static_cast<double>(trace.occurrences("respond"));
  out.push_back({"sim.simulator.respond_s", respond_s, "s"});
  out.push_back(
      {"sim.simulator.respond_us", rate(respond_s, responds) * 1e6, "us"});
  const double hits = trace.count_sum("session", "hits");
  const double misses = trace.count_sum("session", "misses");
  out.push_back({"sim.diagnosis.build_s",
                 trace.total_seconds("diagnosis.build"), "s"});
  out.push_back({"sim.diagnosis.self_s",
                 trace.total_seconds("session") - respond_s, "s"});
  out.push_back(
      {"sim.diagnosis.dd_hit_ratio", rate(hits, hits + misses), "ratio"});
  out.push_back({"sim.diagnosis.dd_nodes",
                 trace.count_sum("diagnosis.cache", "dd_nodes"), "count"});
  out.push_back({"sim.diagnosis.isolated",
                 trace.count_sum("session", "isolated"), "count"});
  return out;
}

// ------------------------------------------------------------------ JSON

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

void append_counts(std::ostringstream& out, const Counts& counts) {
  out << "{";
  bool first = true;
  for (const auto& [key, value] : counts) {
    out << (first ? "" : ",") << json_string(key) << ":" << value;
    first = false;
  }
  out << "}";
}

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr,
               "fpva_perfbench: %s\nusage: fpva_perfbench --workload "
               "{certify-5x5|preset-20x20|preset-30x30} --seed N --seconds S "
               "--trace {0|1} --out-dir DIR\n",
               message);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Measure only the shipped configuration.
  bool release = std::strcmp(FPVA_PERFBENCH_BUILD_TYPE, "Release") == 0;
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  release = false;
#endif
  bool sanitized = FPVA_PERFBENCH_SANITIZED != 0;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  if (!release || sanitized) {
    std::fprintf(stderr,
                 "fpva_perfbench: refusing to measure a %s%s build; "
                 "configure with CMAKE_BUILD_TYPE=Release and no sanitizers\n",
                 FPVA_PERFBENCH_BUILD_TYPE, sanitized ? " sanitized" : "");
    return 2;
  }

  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double budget_s = -1.0;
  int trace_mode = -1;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
      if (!workload) usage_error("unknown workload");
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage_error("bad --seed");
    } else if (flag == "--seconds") {
      budget_s = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(budget_s > 0)) {
        usage_error("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") == 0) trace_mode = 0;
      else if (std::strcmp(value, "1") == 0) trace_mode = 1;
      else usage_error("bad --trace");
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      usage_error("unknown flag");
    }
  }
  if (!workload || budget_s < 0 || trace_mode < 0 || out_dir.empty()) {
    usage_error("missing flag");
  }

  // Passes run back to back while the next one (estimated by the last of
  // its kind) still fits the budget. The traced run alternates untraced
  // and traced passes so it also yields the tracing overhead and the
  // untraced counts its self-check compares against.
  Checks checks;
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::optional<Trace> last_trace;
  std::vector<std::vector<Metric>> layer_samples;
  double peak_rss = 0.0;
  const Clock::time_point run_start = Clock::now();
  for (;;) {
    const bool traced_pass =
        trace_mode == 1 && untraced.size() > traced.size();
    if (traced_pass) {
      Trace trace;
      traced.push_back(run_pass(*workload, seed, &trace, checks));
      layer_samples.push_back(per_layer_metrics(trace));
      last_trace = std::move(trace);
    } else {
      untraced.push_back(run_pass(*workload, seed, nullptr, checks));
      // One pass's footprint: later passes only add allocator reuse noise.
      if (untraced.size() == 1) peak_rss = peak_rss_mb();
    }
    const bool need_more = untraced.size() < 2 ||
                           (trace_mode == 1 && traced.empty());
    const bool next_traced =
        trace_mode == 1 && untraced.size() > traced.size();
    const double next_s =
        next_traced && !traced.empty() ? traced.back().duration_s
                                       : untraced.back().duration_s;
    if (!need_more && seconds_since(run_start) + next_s > budget_s) break;
  }

  // Determinism: every pass of the run reproduces the first exactly.
  // Trace self-check: so does every traced pass (the certify replay's
  // stage nodes, pivots and status, the sessions' summed tests), or the
  // trace measured a different program.
  const PassResult& reference = untraced.front();
  for (const PassResult& pass : untraced) {
    checks.expect(pass.seed_free == reference.seed_free &&
                      pass.seeded == reference.seeded,
                  "counts differ between untraced passes");
  }
  for (const PassResult& pass : traced) {
    checks.expect(pass.seed_free == reference.seed_free &&
                      pass.seeded == reference.seeded,
                  "traced pass counts differ from the untraced ones");
  }
  if (last_trace) {
    checks.expect(static_cast<long>(last_trace->occurrences("respond")) ==
                      traced.back().tests,
                  "traced respond calls != tests applied");
    last_trace->write_jsonl(out_dir + "/trace-" + workload->name + ".jsonl");
  }

  std::vector<Metric> metrics;
  if (trace_mode == 0) {
    metrics = end_to_end_metrics(*workload, untraced, peak_rss);
  } else {
    // Median of each per-layer metric over the traced passes.
    for (std::size_t m = 0; m < layer_samples.front().size(); ++m) {
      std::vector<double> values;
      for (const auto& sample : layer_samples) {
        values.push_back(sample[m].value);
      }
      metrics.push_back({layer_samples.front()[m].name, median(values),
                         layer_samples.front()[m].unit});
    }
    std::vector<double> traced_wall, untraced_wall;
    for (const PassResult& pass : traced) traced_wall.push_back(pass.wall_s);
    for (const PassResult& pass : untraced) {
      untraced_wall.push_back(pass.wall_s);
    }
    metrics.push_back({"trace.wall_s", median(traced_wall), "s"});
    metrics.push_back({"trace.overhead_s",
                       median(traced_wall) - median(untraced_wall), "s"});
    // The stage metrics of the untraced passes, so each traced record
    // also carries the workload-specific end-to-end numbers.
    for (const Metric& metric :
         end_to_end_metrics(*workload, untraced, peak_rss)) {
      metrics.push_back(metric);
    }
  }

  std::ostringstream out;
  out << "{\"workload\":" << json_string(workload->name) << ",\"seed\":" << seed
      << ",\"trace\":" << trace_mode << ",\"passes\":" << untraced.size()
      << ",\"traced_passes\":" << traced.size()
      << ",\"run_s\":" << json_number(seconds_since(run_start))
      << ",\"compiler\":" << json_string(__VERSION__)
      << ",\"build_type\":" << json_string(FPVA_PERFBENCH_BUILD_TYPE)
      << ",\"pass_wall_s\":[";
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    out << (i ? "," : "") << json_number(untraced[i].wall_s);
  }
  out << "],\"pass_setup_s\":[";
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    out << (i ? "," : "") << json_number(untraced[i].setup_s);
  }
  out << "],\"attempted\":" << checks.attempted
      << ",\"failed\":" << checks.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    out << (i ? "," : "") << json_string(checks.failures[i]);
  }
  out << "],\"seed_free\":";
  append_counts(out, reference.seed_free);
  out << ",\"seeded\":";
  append_counts(out, reference.seeded);
  out << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << json_string(metrics[i].name) << ":{\"value\":"
        << json_number(metrics[i].value) << ",\"unit\":"
        << json_string(metrics[i].unit) << "}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return checks.failed == 0 ? 0 : 1;
}
