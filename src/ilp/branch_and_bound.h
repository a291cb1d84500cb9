// Branch-and-bound MILP solver over the lp:: simplex relaxation.
//
// The search pipeline is: root presolve (presolve.h) -> per-node bound
// propagation (explained, with conflict-driven nogood learning and
// backjumping — conflict.h) -> warm-started dual-simplex LP
// (lp::RevisedSimplex, one factorized basis shared by the whole tree) ->
// pseudocost branching.
// Nodes carry sparse bound deltas against the root instead of full bound
// vectors, and a node LP that exhausts its pivot budget is re-queued with a
// larger budget instead of silently giving up the optimality certificate.
//
// Depth-first diving with LP-bound pruning and a nearest-integer rounding
// heuristic for early incumbents. Designed for the subblock-sized path/cut
// models of the hierarchical FPVA test generator (hundreds of variables);
// it is a faithful stand-in for the commercial ILP solver the paper used,
// not a general-purpose MIP engine. The LP side has one path — the warm
// revised simplex, with the dense tableau as its numerical fallback — and
// the search-side mechanisms (presolve, propagation, probing, cuts,
// conflict learning) switch off individually through Options.
#ifndef FPVA_ILP_BRANCH_AND_BOUND_H
#define FPVA_ILP_BRANCH_AND_BOUND_H

#include <vector>

#include "common/stop.h"
#include "ilp/model.h"
#include "ilp/presolve.h"

namespace fpva::ilp {

class ConflictObserver;  // conflict.h; Options only carries a pointer

enum class ResultStatus {
  kOptimal,     ///< proven optimal incumbent
  kFeasible,    ///< limits hit with an incumbent in hand
  kInfeasible,  ///< proven: no integer-feasible point exists
  kUnknown,     ///< limits hit before any incumbent was found
};

/// A single-literal bound assertion with a globally valid refutation:
/// "var on the is_lower side of value admits no feasible point". Mirrors
/// conflict.h's BoundLit without pulling the conflict engine into this
/// header. Exported from a truncated solve (Result::unit_nogoods) and fed
/// back through Options::seed_literals, this is the transferable part of
/// an anytime certificate — sound for the same model unconditionally
/// because only model-implied (non-cutoff-based) units are exported.
struct SeedLiteral {
  int var = 0;
  bool is_lower = false;
  double value = 0.0;
};

/// Branch-variable selection rule.
enum class Branching {
  /// Defer to the model emitter: core/ilp_models picks kInputOrder for the
  /// chain models (whose chain-major variable layout turns the DFS dive
  /// into sequential chain construction that propagation prunes CP-style);
  /// plain ilp::solve callers resolve to kPseudocost.
  kAuto,
  kPseudocost,  ///< product rule over pseudocost estimates
  kInputOrder,  ///< first fractional variable in index order
  /// Fractional variable with the highest conflict activity (bumped for
  /// every variable of every learned clause, decayed per conflict), ties
  /// to the lowest index. Pairs with restarts: after a restart the
  /// activity profile redirects the fresh dive at the variables the
  /// refutations implicated. Requires conflict_learning; falls back to
  /// kInputOrder semantics while no activity has accumulated.
  kActivity,
};

struct Options {
  double time_limit_seconds = 120.0;
  long max_nodes = 2'000'000;
  long lp_iteration_limit = 200000;   ///< pivot budget per node LP
  double integrality_tolerance = 1e-6;
  /// When true, all objective coefficients are integral on integer-feasible
  /// points, so a node with bound > incumbent - 1 can be pruned. All of the
  /// paper's models (minimize the number of used paths) qualify.
  bool objective_is_integral = false;

  /// Root presolve: bound tightening, implied fixings, row removal.
  bool presolve = true;
  /// Single-constraint bound propagation at every node (prunes without LP).
  bool node_propagation = true;
  Branching branching = Branching::kAuto;
  /// Re-queue a node whose LP hit the pivot budget this many times with a
  /// 4x larger budget before declaring the dual bound lost.
  int max_lp_retries = 3;
  /// Keep basis checkpoints for nodes at depth <= this and restore the
  /// nearest ancestor checkpoint after a backtrack jump, instead of dual-
  /// repairing the warm basis across two unrelated subtrees. 0 disables.
  int basis_stack_depth = 12;

  /// Root probing: branch every binary both ways through the propagator,
  /// keep union bounds/fixings and the discovered conflict edges.
  bool probing = true;
  /// Root cutting loop separating violated clique cuts (from the conflict
  /// graph) and lifted cover cuts (from knapsack-shaped rows). Each kept
  /// cut is appended to the live factorized basis and the next round
  /// reoptimizes with a few dual pivots instead of re-crashing the LP.
  bool clique_cuts = true;
  /// Separation rounds at the root. Warm row addition made extra rounds
  /// nearly free (the loop stops early once separation dries up), so the
  /// cap is generous.
  int max_cut_rounds = 16;
  int max_cuts_per_round = 200; ///< most-violated cuts kept per round
  /// Full orbit-based lexicographic ordering rows instead of the single
  /// p-ordering row. Read by core/ilp_models when it builds the cut-set
  /// model (a model-construction switch, not a solver switch); carried here
  /// so every mechanism of the accelerated pipeline A/Bs through one
  /// options struct.
  bool orbit_symmetry_rows = true;
  /// During III-B-3 budget escalation, pin the chain models' use
  /// indicators once every smaller budget is proven infeasible (the
  /// optimum is then exactly the budget), turning the final solve into a
  /// pure feasibility dive. Read by core/ilp_models' find_minimum_*.
  bool budget_floor_rows = true;

  /// Conflict-driven nogood learning (conflict.h): node propagation runs
  /// with explanations, refuted nodes are analyzed to a 1-UIP nogood, the
  /// learned pool propagates at every later node, and the search backjumps
  /// to the nogood's assertion level (discarding the pending siblings its
  /// region covers). Requires node_propagation; off restores the PR-4
  /// search bit-exactly (node counts and all).
  bool conflict_learning = true;
  /// Backjump to the assertion level after a conflict (discarding pending
  /// siblings and re-entering the prefix node, where the fresh nogood
  /// propagates the flipped bound). Without it conflicts still learn and
  /// the pool still prunes, but the search backtracks plain-DFS. Off by
  /// default: a backjump abandons the completed-subtree bookkeeping of the
  /// DFS stack and re-explores finished regions, which derails the
  /// input-order dives on structured feasibility instances (measured: 5x5 cut-set certification 5.7 s ->
  /// 63 s-and-uncertified). On refutation-heavy / stalled searches it is
  /// the decisive lever — with it, bench_certify proves the 6x6 cut-set
  /// minimum (= 4) in ~64 s where the PR-4 search exceeded 500 s without
  /// an answer; the slow-certify CI job switches it on.
  bool conflict_backjumping = false;
  /// Learned-pool cap: past it, the least active half (LBD tiebreak) is
  /// deleted.
  int max_nogoods = 4000;
  /// Learn from LP refutations too: an infeasible node LP's Farkas ray —
  /// or, for a bound-pruned node, the exact duals plus the cutoff row —
  /// is aggregated into one valid bound clause over the node's local
  /// bounds, verified numerically, and run through the same 1-UIP
  /// analysis as a propagation conflict. Requires conflict_learning (and
  /// the serial/worker conflict path); off keeps the PR-8 search
  /// bit-exactly, because duals are then never even computed.
  bool lp_conflict_learning = false;
  /// Luby-scheduled restarts: after restart_interval * Luby(k) conflicts
  /// (propagation + LP) since the last restart, the serial search drops
  /// its DFS stack and re-dives from the root, keeping the nogood pool,
  /// activities, pseudocosts and incumbent. 0 disables (the default —
  /// restarts change the tree shape and are opted into by the
  /// refutation-heavy certify runs). Requires conflict_learning; ignored
  /// by the multi-threaded tree search.
  int restart_interval = 0;
  /// Scale restart_interval by the Luby sequence (1,1,2,1,1,2,4,...);
  /// false = fixed-interval restarts every restart_interval conflicts.
  bool restart_luby = true;
  /// Test/diagnostic hook: sees every learned nogood at learning time
  /// (before any pool deletion). Not owned; may be null. With threads > 1
  /// the workers share the hook and calls are serialized by a mutex.
  ConflictObserver* conflict_observer = nullptr;

  /// Worker threads for the tree search (subtree parallelism with a
  /// shared incumbent and cross-worker nogood exchange). 1 keeps the
  /// serial search — bit-identical counters to the single-threaded
  /// solver; <= 0 means std::thread::hardware_concurrency(). Multi-
  /// threaded runs reach the same optimum/status but their counters and
  /// incumbent tie-breaks depend on scheduling.
  int threads = 1;
  /// Worker threads for the III-B-3 budget-escalation loop in
  /// core/ilp_models' find_minimum_*: stages (budgets) run concurrently
  /// and the first feasible budget cancels every larger stage. Same
  /// convention as `threads`; the two compose (stages x subtrees).
  int escalation_threads = 1;
  /// Cooperative cancellation: the search winds down (reporting
  /// kFeasible/kUnknown, like a time limit) soon after the token trips.
  /// Default-constructed tokens never trip and cost nothing to poll.
  common::StopToken stop;
  /// Resume hints: unit nogoods exported by an earlier truncated solve of
  /// the same model (Result::unit_nogoods). Indices live in this model's
  /// variable space. Integer seeds are applied as root bound tightenings
  /// before the search starts — independent of conflict_learning, so a
  /// resume with learning off cannot silently drop an anytime certificate
  /// — and additionally imported into the conflict engine when learning
  /// is on. A truncated run re-exports them through Result::unit_nogoods.
  std::vector<SeedLiteral> seed_literals;
};

struct Result {
  ResultStatus status = ResultStatus::kUnknown;
  double objective = 0.0;            ///< incumbent objective (if any)
  std::vector<double> values;        ///< incumbent point (if any)
  double best_bound = 0.0;           ///< global dual bound at termination
  long nodes = 0;                    ///< branch-and-bound nodes processed
  double seconds = 0.0;              ///< wall-clock spent
  long lp_pivots = 0;                ///< simplex pivots summed over all nodes
  long nodes_pruned_by_propagation = 0;  ///< pruned before any LP was solved
  PresolveStats presolve_stats;      ///< root reduction summary
  ProbeStats probe_stats;            ///< root probing summary
  int cliques = 0;                   ///< conflict-graph cliques tabled
  int cuts_added = 0;                ///< clique + cover cuts kept at the root
  int cut_rounds = 0;                ///< separation rounds that added cuts
  long lp_refactorizations = 0;      ///< basis factorizations built
  long lp_basis_updates = 0;         ///< Forrest-Tomlin column updates
  long warm_cut_rows = 0;            ///< cut rows appended to a live basis
  long basis_restores = 0;           ///< basis-stack checkpoint restores
  long conflicts = 0;                ///< nodes refuted by explained propagation
  long lp_conflicts = 0;             ///< LP refutations analyzed into clauses
  long lp_nogoods_learned = 0;       ///< learned clauses carrying an LP ray
  long restarts = 0;                 ///< Luby restarts taken
  long lp_deadline_abandons = 0;     ///< budget-truncated node LPs abandoned
                                     ///< (not retried) because the stop/
                                     ///< deadline token had already tripped
  long nogoods_learned = 0;          ///< 1-UIP nogoods added to the pool
  long nogoods_deleted = 0;          ///< nogoods evicted by pool reduction
  long backjumps = 0;                ///< assertion-level jumps taken
  long backjump_nodes_skipped = 0;   ///< pending siblings a backjump discarded
  int threads_used = 1;              ///< tree-search workers actually used
  long nogoods_imported = 0;         ///< nogoods adopted from other workers
  long subtrees_donated = 0;         ///< nodes handed to the shared queue
  /// Always 0: the eta-file recovery rung is gone (the ladder is LU ->
  /// dense). Kept only because perfbench/perfbench.cpp reads it; delete it
  /// together with that read in the next benchmark change.
  long lp_eta_fallbacks = 0;
  long lp_dense_fallbacks = 0;       ///< warm nodes re-solved densely after
                                     ///< numerical trouble (the last rung)
  /// Globally valid single-literal nogoods learned by a serial solve —
  /// the transferable part of an anytime certificate. Feed back through
  /// Options::seed_literals to extend a truncated solve. Empty for
  /// multi-threaded tree searches (worker pools are not merged).
  std::vector<SeedLiteral> unit_nogoods;
};

/// Minimizes `model`. The model is copied internally; bounds are tightened
/// per node on the copy.
Result solve(const Model& model, const Options& options = {});

}  // namespace fpva::ilp

#endif  // FPVA_ILP_BRANCH_AND_BOUND_H
