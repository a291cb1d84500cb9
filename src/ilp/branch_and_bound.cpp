#include "ilp/branch_and_bound.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "ilp/conflict.h"
#include "ilp/cut_separator.h"
#include "ilp/presolve.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"

namespace fpva::ilp {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// One bound change relative to the parent node.
struct BoundDelta {
  int var = 0;
  double lower = 0.0;
  double upper = 0.0;
};

struct Node {
  /// Bound deltas accumulated along the root->node path, in order. This is
  /// the node's entire bound state: O(depth) instead of two full vectors.
  std::vector<BoundDelta> path;
  double parent_bound = -kInfinity;  ///< raw LP bound inherited from parent
  int depth = 0;
  int retries = 0;        ///< LP pivot-budget enlargements so far
  long lp_budget = 0;     ///< pivot budget for this node's LP
  int branch_var = -1;    ///< variable branched to create this node
  double branch_frac = 0.0;  ///< fractional distance closed by the branch
  bool branch_up = false;    ///< branched toward ceil (vs floor)
};

// Cut separation (CutSeparator, clique + lifted-cover) lives in
// ilp/cut_separator.{h,cpp} so it can be unit-tested directly.

/// Per-worker conflict observer of the parallel search: buffers every
/// locally learned nogood for publication to the other workers, and
/// forwards to the user's observer (serialized — workers learn
/// concurrently but the hook contract stays single-threaded).
class PublishingObserver : public ConflictObserver {
 public:
  PublishingObserver(ConflictObserver* user, std::mutex* user_mutex)
      : user_(user), user_mutex_(user_mutex) {}

  void on_learned(const Model& model, const Nogood& nogood) override {
    if (user_ != nullptr) {
      const std::lock_guard<std::mutex> lock(*user_mutex_);
      user_->on_learned(model, nogood);
    }
    fresh.push_back(nogood);
  }

  std::vector<Nogood> fresh;  ///< learned since the last flush

 private:
  ConflictObserver* user_ = nullptr;
  std::mutex* user_mutex_ = nullptr;
};

/// State shared by the workers of one parallel tree search: the subtree
/// job queue (donation-based work stealing), the incumbent, the
/// published-nogood exchange, and the global limit/halt flags. The
/// coordinator seeds the queue with the root node and merges the final
/// result after the workers join.
///
/// Soundness of the shared pieces: the incumbent objective only ever
/// decreases, so a worker pruning against a stale (larger) value prunes
/// a subset of what it could, and a bound-based nogood recorded under a
/// learner's cutoff stays valid for every importer (whose cutoff is at
/// most the learner's by monotonicity). exhausted_bound min-folds the
/// dual bounds of pruned regions across workers, exactly like the
/// serial search's single fold.
struct SharedSearch {
  common::Timer timer;  ///< one clock for the whole search

  // Subtree job queue. `active` counts workers inside a subtree; the
  // search is done when the queue is empty and nobody is active.
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<Node> queue;
  std::atomic<std::size_t> queue_size{0};  ///< starvation hint, lock-free
  int active = 0;
  bool done = false;

  // Shared incumbent. The atomic mirrors the mutex-guarded canonical
  // value so workers can refresh their pruning threshold without a lock.
  std::mutex incumbent_mutex;
  std::atomic<double> incumbent_objective{kInfinity};
  std::vector<double> incumbent_values;
  bool have_incumbent = false;

  // Cross-worker nogood exchange: appended under publish_mutex, read by
  // importers from their own cursor. The atomic count lets workers skip
  // the lock when nothing new was published.
  std::mutex publish_mutex;
  std::vector<std::pair<int, Nogood>> published;  ///< (origin worker, clause)
  std::atomic<std::size_t> published_count{0};
  std::mutex observer_mutex;  ///< serializes the user's ConflictObserver

  // Global accounting.
  std::atomic<long> nodes_total{0};
  std::atomic<bool> limits{false};      ///< time/node limit or stop token
  std::atomic<bool> bound_lost{false};  ///< a subtree lost its dual bound
  std::atomic<bool> halt{false};        ///< workers must wind down
  std::mutex exhausted_mutex;
  double exhausted_bound = kInfinity;

  /// Blocks until a job, global completion, or a halt. Returns nullopt
  /// when the search is over (empty queue and no active worker).
  std::optional<Node> next_job() {
    std::unique_lock<std::mutex> lock(queue_mutex);
    for (;;) {
      if (done) return std::nullopt;
      if (!queue.empty()) {
        Node job = std::move(queue.front());
        queue.pop_front();
        queue_size.store(queue.size(), std::memory_order_relaxed);
        ++active;
        return job;
      }
      if (active == 0) {
        done = true;
        queue_cv.notify_all();
        return std::nullopt;
      }
      queue_cv.wait(lock);
    }
  }

  void finish_job() {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    --active;
    if (active == 0 && queue.empty()) {
      done = true;
      queue_cv.notify_all();
    }
  }

  void donate(Node node) {
    {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      queue.push_back(std::move(node));
      queue_size.store(queue.size(), std::memory_order_relaxed);
    }
    queue_cv.notify_one();
  }

  bool queue_starving() const {
    return queue_size.load(std::memory_order_relaxed) == 0;
  }

  bool halted() const { return halt.load(std::memory_order_relaxed); }

  void request_halt() {
    halt.store(true, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(queue_mutex);
      done = true;
    }
    queue_cv.notify_all();
  }

  void hit_limits() {
    limits.store(true, std::memory_order_relaxed);
    request_halt();
  }

  /// Adopts a strictly better incumbent; false when a concurrent worker
  /// already holds one at least as good.
  bool offer_incumbent(double objective, const std::vector<double>& values) {
    const std::lock_guard<std::mutex> lock(incumbent_mutex);
    if (have_incumbent &&
        objective >=
            incumbent_objective.load(std::memory_order_relaxed) - 1e-12) {
      return false;
    }
    incumbent_values = values;
    have_incumbent = true;
    incumbent_objective.store(objective, std::memory_order_relaxed);
    return true;
  }

  void fold_exhausted(double bound) {
    const std::lock_guard<std::mutex> lock(exhausted_mutex);
    exhausted_bound = std::min(exhausted_bound, bound);
  }

  void publish(int worker, std::vector<Nogood>* fresh) {
    const std::lock_guard<std::mutex> lock(publish_mutex);
    for (Nogood& nogood : *fresh) {
      published.emplace_back(worker, std::move(nogood));
    }
    fresh->clear();
    published_count.store(published.size(), std::memory_order_release);
  }
};

/// Options of the warm node-LP engine shared by the whole tree.
lp::SolveOptions node_lp_options(const Options& options) {
  lp::SolveOptions lp_options;
  lp_options.max_iterations = options.lp_iteration_limit;
  // Exact duals cost an extra BTRAN + pricing pass per optimal solve; only
  // bound-based LP learning consumes them.
  lp_options.want_duals = options.lp_conflict_learning &&
                          options.conflict_learning &&
                          options.node_propagation;
  return lp_options;
}

class Searcher {
 public:
  /// `shared_propagator` (optional) reuses a Propagator already built over
  /// this exact model, e.g. by the root presolve.
  Searcher(const Model& model, const Options& options,
           const Propagator* shared_propagator, bool root_propagated)
      : model_(model),
        options_(options),
        solver_(model.lp(), node_lp_options(options)) {
    root_propagated_ = root_propagated;
    if (shared_propagator != nullptr) {
      propagator_ = shared_propagator;
    } else if (options_.node_propagation) {
      own_propagator_.emplace(model);
      propagator_ = &*own_propagator_;
    }
    const int n = model_.variable_count();
    root_lower_.resize(static_cast<std::size_t>(n));
    root_upper_.resize(static_cast<std::size_t>(n));
    integer_.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      root_lower_[static_cast<std::size_t>(j)] = model_.lp().variable(j).lower;
      root_upper_[static_cast<std::size_t>(j)] = model_.lp().variable(j).upper;
      integer_[static_cast<std::size_t>(j)] = model_.is_integer(j) ? 1 : 0;
    }
    // Anytime-certificate resume, part 1: an integer seed literal is a
    // globally valid refutation ("var on the is_lower side of value admits
    // no feasible point"), so it tightens the root bounds directly —
    // independent of conflict_learning. Routing seeds only through the
    // conflict engine would silently drop the certificate on a resume
    // with learning disabled.
    for (const SeedLiteral& seed : options_.seed_literals) {
      if (seed.var < 0 || seed.var >= n) continue;
      const auto v = static_cast<std::size_t>(seed.var);
      if (!integer_[v]) continue;
      const double rounded = std::round(seed.value);
      if (std::abs(seed.value - rounded) > 1e-6) continue;
      if (seed.is_lower) {
        root_upper_[v] = std::min(root_upper_[v], rounded - 1.0);
      } else {
        root_lower_[v] = std::max(root_lower_[v], rounded + 1.0);
      }
    }
    cur_lower_ = root_lower_;
    cur_upper_ = root_upper_;
    // Conflict-driven learning rides on the propagation machinery: the
    // engine replays the propagator's rows with explanations and consults
    // the learned pool at every node.
    if (options_.conflict_learning && options_.node_propagation &&
        propagator_ != nullptr) {
      conflict_.emplace(model_, *propagator_, options_.max_nogoods,
                        options_.conflict_observer);
      conflict_->set_root_bounds(root_lower_, root_upper_);
      // Anytime-certificate resume: re-import the globally valid unit
      // nogoods a truncated solve of this same model exported. Each
      // becomes a root-level bound tightening before the search starts.
      for (const SeedLiteral& seed : options_.seed_literals) {
        if (seed.var < 0 || seed.var >= n) continue;
        Nogood unit;
        unit.lits.push_back(BoundLit{seed.var, seed.is_lower, seed.value});
        conflict_->import_nogood(unit);
      }
      if (options_.restart_interval > 0) {
        restart_threshold_ = restart_conflict_budget(1);
      }
    }
  }

  Result run() { return run_impl(nullptr, 0, nullptr); }

  /// One worker of a parallel tree search: pulls subtree jobs off
  /// `shared`, processes each through the same node loop as the serial
  /// search, and communicates via the shared incumbent, nogood exchange
  /// and job queue. The returned Result carries this worker's share of
  /// the counters only; the coordinator merges incumbent/status/bounds
  /// from `shared`.
  Result run_worker(SharedSearch& shared, int worker_id,
                    PublishingObserver* publish) {
    return run_impl(&shared, worker_id, publish);
  }

 private:
  /// The node loop. `shared == nullptr` is the serial search — that path
  /// is kept bit-identical to the single-threaded solver (every parallel
  /// hook is behind a null check), which the 1-thread determinism CI
  /// gate relies on.
  Result run_impl(SharedSearch* shared, int worker_id,
                  PublishingObserver* publish) {
    worker_id_ = worker_id;
    common::Timer timer;
    Result result;
    const int n = model_.variable_count();

    if (n == 0) {
      // A model fully fixed upstream (empty column set after substitution)
      // never enters the node loop: the empty point is the incumbent iff
      // the constant rows hold, otherwise the model is proven infeasible.
      if (model_.is_feasible({}, options_.integrality_tolerance)) {
        result.status = ResultStatus::kOptimal;
        result.objective = 0.0;
        result.best_bound = 0.0;
      } else {
        result.status = ResultStatus::kInfeasible;
        result.best_bound = kInfinity;
      }
      result.seconds = timer.seconds();
      return result;
    }

    std::vector<Node> stack;
    if (shared == nullptr) {
      Node root;
      root.lp_budget = options_.lp_iteration_limit;
      stack.push_back(std::move(root));
    }

    double incumbent_objective = kInfinity;
    std::vector<double> incumbent;
    bool have_incumbent = false;  // incumbent may be the empty vector when
                                  // presolve fixed every variable
    double exhausted_bound = kInfinity;  // min bound over pruned frontier
    bool limits_hit = false;
    bool bound_lost = false;  // a subtree was dropped without a dual bound
    std::vector<int> seeds;
    int job_depth = 0;  // depth of the current subtree job's root

    for (;;) {
    if (shared != nullptr) {
      std::optional<Node> job = shared->next_job();
      if (!job.has_value()) break;
      job_depth = static_cast<int>(job->path.size());
      stack.push_back(std::move(*job));
    }
    while (!stack.empty()) {
      if (shared == nullptr) {
        if (timer.seconds() > options_.time_limit_seconds ||
            result.nodes >= options_.max_nodes ||
            options_.stop.stop_requested()) {
          limits_hit = true;
          break;
        }
      } else {
        if (shared->timer.seconds() > options_.time_limit_seconds ||
            shared->nodes_total.load(std::memory_order_relaxed) >=
                options_.max_nodes ||
            options_.stop.stop_requested()) {
          shared->hit_limits();
        }
        if (shared->halted()) {
          limits_hit = true;
          break;
        }
        // Adopt everything the other workers found since the last node:
        // their published nogoods and any better incumbent.
        import_published(*shared);
        const double global_incumbent =
            shared->incumbent_objective.load(std::memory_order_relaxed);
        if (global_incumbent < incumbent_objective) {
          incumbent_objective = global_incumbent;
          have_incumbent = true;
        }
      }
      // Luby restarts (serial only): past the conflict budget of the
      // current interval, drop the DFS stack and re-dive from the root.
      // The nogood pool, activities, pseudocosts and incumbent survive,
      // so the fresh dive is steered by everything the refutations
      // taught. Sound for the dual bound: the re-pushed root re-covers
      // every discarded pending region (a backjump to level 0).
      if (shared == nullptr && restart_threshold_ > 0 &&
          conflict_.has_value() &&
          conflict_->stats().conflicts + conflict_->stats().lp_conflicts -
                  restart_baseline_ >=
              restart_threshold_) {
        stack.clear();
        basis_stack_.clear();
        Node fresh;
        fresh.lp_budget = options_.lp_iteration_limit;
        stack.push_back(std::move(fresh));
        ++result.restarts;
        ++restart_count_;
        restart_baseline_ =
            conflict_->stats().conflicts + conflict_->stats().lp_conflicts;
        restart_threshold_ = restart_conflict_budget(restart_count_ + 1);
      }
      Node node = std::move(stack.back());
      stack.pop_back();
      ++result.nodes;
      if (shared != nullptr) {
        shared->nodes_total.fetch_add(1, std::memory_order_relaxed);
      }

      // Bound-based pruning using the parent's LP bound before paying for
      // this node's bounds setup and LP.
      const double parent_bound = strengthen(node.parent_bound);
      if (parent_bound >= prune_threshold(incumbent_objective)) {
        exhausted_bound = std::min(exhausted_bound, parent_bound);
        continue;
      }

      // Materialize the node's bounds and propagate: tighten integer
      // bounds, or prune the whole subtree without touching the LP.
      // (The root is skipped when presolve already propagated this model
      // to a fixpoint and found nothing.)
      const bool propagate_here = options_.node_propagation &&
                                  propagator_ != nullptr &&
                                  !(node.path.empty() && root_propagated_);
      // LP-refutation learning needs the conflict trail this node's
      // explained propagation left behind (analyze_lp_refutation resolves
      // over it), so it is armed only when that propagation actually ran.
      const bool lp_learn = options_.lp_conflict_learning &&
                            conflict_.has_value() && propagate_here;
      if (conflict_.has_value() && propagate_here) {
        // Explained propagation (conflict.h): decisions are re-applied on
        // the engine's trail, then rows, the objective-cutoff row and the
        // learned-nogood pool propagate to a fixpoint. A refuted node is
        // analyzed to a 1-UIP nogood whose assertion level the search
        // backjumps to.
        std::copy(root_lower_.begin(), root_lower_.end(), cur_lower_.begin());
        std::copy(root_upper_.begin(), root_upper_.end(), cur_upper_.begin());
        decisions_.clear();
        for (const BoundDelta& delta : node.path) {
          decisions_.push_back({delta.var, delta.lower, delta.upper});
        }
        conflict_->set_cutoff(have_incumbent
                                  ? prune_threshold(incumbent_objective)
                                  : kInfinity);
        const ConflictEngine::NodeOutcome outcome =
            conflict_->propagate_node(decisions_, cur_lower_, cur_upper_);
        if (shared != nullptr && publish != nullptr &&
            !publish->fresh.empty()) {
          shared->publish(worker_id, &publish->fresh);
        }
        // A worker never backjumps above its subtree job's root: the
        // region up there may be owned by other workers, and re-covering
        // it would duplicate their search. The learned nogood is unit at
        // the clamped level too (more bounds are fixed there), so the
        // asserted bound still propagates and progress is preserved.
        const int jump_level =
            shared == nullptr ? outcome.assertion_level
                              : std::max(outcome.assertion_level, job_depth);
        if (!outcome.feasible) {
          ++result.nodes_pruned_by_propagation;
          if (outcome.has_assertion &&
              backjump_to(jump_level, node, &stack, &result)) {
            // Backjump: re-enter the search at the assertion level. The
            // re-pushed prefix node's region is a superset of the current
            // leaf and of every pending sibling deeper than the assertion
            // level, so those can all be discarded; the freshly learned
            // nogood is unit there, and the pool propagates the asserted
            // bound with an *expandable* reason (pushing it as a decision
            // instead would block later resolutions through it and lets
            // the search ping-pong between the two phases of the UIP).
          } else if (outcome.bound_based) {
            // The refuted region may still hold optimal-equal points: its
            // dual bound is the incumbent, not +infinity. (A backjump
            // needs no accounting — the re-pushed node re-covers the
            // region entirely.)
            exhausted_bound = std::min(exhausted_bound, incumbent_objective);
          }
          continue;
        }
      } else if (propagate_here) {
        apply_path(node);
        seeds.clear();
        for (const BoundDelta& delta : node.path) seeds.push_back(delta.var);
        if (!propagator_->propagate(cur_lower_, cur_upper_, seeds)) {
          ++result.nodes_pruned_by_propagation;
          continue;
        }
      } else {
        apply_path(node);
      }

      if (use_basis_stack()) prepare_basis(node);
      lp::Solution relaxation = solve_node_lp(node.lp_budget);
      result.lp_pivots += relaxation.iterations;
      if (use_basis_stack()) last_solved_path_ = node.path;
      if (relaxation.status == lp::SolveStatus::kIterationLimit) {
        if (options_.stop.stop_requested()) {
          // The pivot budget was cut short by the deadline itself, not by
          // a hard instance: re-queueing with a 4x budget would re-enter
          // the same node against the same expired deadline, burning the
          // checkpoint window on zero progress. Abandon the node instead
          // — the limits flag already forfeits the certificate, exactly
          // like any other truncation — and count it distinctly so resume
          // diagnostics can tell a deadline abandonment from a genuinely
          // pivot-starved subtree.
          ++result.lp_deadline_abandons;
          limits_hit = true;
          if (shared != nullptr) shared->hit_limits();
          break;
        }
        if (node.retries < options_.max_lp_retries) {
          // Re-queue with a larger pivot budget; the subtree — and with it
          // the optimality certificate — survives a transient limit.
          ++node.retries;
          node.lp_budget = node.lp_budget > 0 ? node.lp_budget * 4
                                              : options_.lp_iteration_limit;
          stack.push_back(std::move(node));
          continue;
        }
        common::log_warning(
            "branch-and-bound: node LP kept hitting the pivot limit after "
            "retries; treating subtree bound as unknown");
        exhausted_bound = -kInfinity;  // cannot certify optimality any more
        bound_lost = true;
        continue;
      }
      if (relaxation.status == lp::SolveStatus::kInfeasible) {
        // An infeasible node LP used to prune silently; with LP learning
        // on, its Farkas ray is aggregated into a bound clause over the
        // node's local bounds, verified numerically, and analyzed through
        // the same 1-UIP machinery as a propagation conflict.
        if (lp_learn && !relaxation.farkas_ray.empty()) {
          ConflictEngine::NodeOutcome lp_outcome;
          if (try_learn_lp_conflict(relaxation.farkas_ray, false, 0.0,
                                    result, &lp_outcome)) {
            if (shared != nullptr && publish != nullptr &&
                !publish->fresh.empty()) {
              shared->publish(worker_id, &publish->fresh);
            }
            const int lp_jump =
                shared == nullptr
                    ? lp_outcome.assertion_level
                    : std::max(lp_outcome.assertion_level, job_depth);
            if (lp_outcome.has_assertion) {
              backjump_to(lp_jump, node, &stack, &result);
            }
            // No exhausted-bound fold: the LP proved the region holds no
            // real point at all, so its dual bound is +infinity whether
            // or not the learned clause ended up cutoff-dependent.
          }
        }
        continue;
      }
      const double raw_bound = relaxation.objective;
      update_pseudocost(node, raw_bound);
      const double bound = strengthen(raw_bound);
      if (bound >= prune_threshold(incumbent_objective)) {
        exhausted_bound = std::min(exhausted_bound, bound);
        // Bound-based pruning learns too: the exact duals plus the
        // objective-cutoff row (weight 1) aggregate to a clause excluding
        // every improving point of the region. Requires the raw LP bound
        // itself to clear the cutoff — integral-objective strengthening
        // may prune nodes whose raw bound does not, and those carry no
        // dual certificate of the pruning.
        if (lp_learn && relaxation.status == lp::SolveStatus::kOptimal &&
            !relaxation.row_duals.empty() && have_incumbent) {
          const double cutoff = prune_threshold(incumbent_objective);
          if (raw_bound > cutoff + 1e-6) {
            lp_ray_scratch_.resize(relaxation.row_duals.size());
            for (std::size_t i = 0; i < relaxation.row_duals.size(); ++i) {
              lp_ray_scratch_[i] = -relaxation.row_duals[i];
            }
            ConflictEngine::NodeOutcome lp_outcome;
            if (try_learn_lp_conflict(lp_ray_scratch_, true, cutoff, result,
                                      &lp_outcome)) {
              if (shared != nullptr && publish != nullptr &&
                  !publish->fresh.empty()) {
                shared->publish(worker_id, &publish->fresh);
              }
              const int lp_jump =
                  shared == nullptr
                      ? lp_outcome.assertion_level
                      : std::max(lp_outcome.assertion_level, job_depth);
              if (lp_outcome.has_assertion) {
                backjump_to(lp_jump, node, &stack, &result);
              }
            }
          }
        }
        continue;
      }
      if (use_basis_stack() && relaxation.status == lp::SolveStatus::kOptimal) {
        maybe_push_snapshot(node);
      }

      // Rounding heuristic: snap integers to nearest and test feasibility.
      rounded_.assign(relaxation.values.begin(), relaxation.values.end());
      for (int j = 0; j < n; ++j) {
        if (integer_[static_cast<std::size_t>(j)]) {
          rounded_[static_cast<std::size_t>(j)] =
              std::round(rounded_[static_cast<std::size_t>(j)]);
        }
      }
      if (model_.is_feasible(rounded_, options_.integrality_tolerance * 10)) {
        const double rounded_objective = model_.lp().objective_value(rounded_);
        if (rounded_objective < incumbent_objective - 1e-12) {
          if (shared != nullptr) {
            if (shared->offer_incumbent(rounded_objective, rounded_)) {
              incumbent_objective = rounded_objective;
              have_incumbent = true;
            }
          } else {
            incumbent_objective = rounded_objective;
            incumbent = rounded_;
            have_incumbent = true;
          }
        }
      }

      const int branch_var = select_branch_variable(relaxation.values);
      if (branch_var < 0) {
        // Integer feasible (possibly after snapping within tolerance).
        // rounded_ already holds exactly this snapped point.
        if (model_.is_feasible(rounded_,
                               options_.integrality_tolerance * 100) &&
            model_.lp().objective_value(rounded_) <
                incumbent_objective - 1e-12) {
          const double leaf_objective = model_.lp().objective_value(rounded_);
          if (shared != nullptr) {
            if (shared->offer_incumbent(leaf_objective, rounded_)) {
              incumbent_objective = leaf_objective;
              have_incumbent = true;
            }
          } else {
            incumbent_objective = leaf_objective;
            incumbent = rounded_;
            have_incumbent = true;
          }
        }
        continue;
      }

      // Two children; dive first into the side nearest the LP value.
      const double branch_value =
          relaxation.values[static_cast<std::size_t>(branch_var)];
      const double floor_value = std::floor(branch_value);
      const double frac = branch_value - floor_value;
      const auto bv = static_cast<std::size_t>(branch_var);

      Node down;
      down.path.reserve(node.path.size() + 1);
      down.path = node.path;
      down.path.push_back({branch_var, cur_lower_[bv], floor_value});
      down.parent_bound = raw_bound;
      down.depth = node.depth + 1;
      down.lp_budget = options_.lp_iteration_limit;
      down.branch_var = branch_var;
      down.branch_frac = std::max(frac, options_.integrality_tolerance);
      down.branch_up = false;

      Node up;
      up.path = std::move(node.path);
      up.path.push_back({branch_var, floor_value + 1.0, cur_upper_[bv]});
      up.parent_bound = raw_bound;
      up.depth = node.depth + 1;
      up.lp_budget = options_.lp_iteration_limit;
      up.branch_var = branch_var;
      up.branch_frac = std::max(1.0 - frac, options_.integrality_tolerance);
      up.branch_up = true;

      const bool prefer_down = frac < 0.5;
      // Depth-first: the preferred child goes on top of the stack.
      if (prefer_down) {
        stack.push_back(std::move(up));
        stack.push_back(std::move(down));
      } else {
        stack.push_back(std::move(down));
        stack.push_back(std::move(up));
      }

      // Work stealing by donation: when the shared queue runs dry, hand
      // over this worker's shallowest pending node (the biggest chunk of
      // its remaining work) instead of letting siblings idle.
      if (shared != nullptr && stack.size() >= 2 &&
          shared->queue_starving()) {
        shared->donate(std::move(stack.front()));
        stack.erase(stack.begin());
        ++result.subtrees_donated;
      }
    }
    if (shared == nullptr) break;
    stack.clear();  // non-empty only after a halt; those bounds are covered
                    // by the limits flag the halt was raised with
    shared->finish_job();
    }

    if (shared != nullptr) {
      shared->fold_exhausted(exhausted_bound);
      if (bound_lost) {
        shared->bound_lost.store(true, std::memory_order_relaxed);
      }
    }

    result.seconds = timer.seconds();
    result.lp_refactorizations = solver_.refactorizations();
    result.lp_basis_updates = solver_.basis_updates();
    result.lp_dense_fallbacks = dense_fallbacks_;
    result.basis_restores = basis_restores_;
    if (conflict_.has_value()) {
      result.conflicts = conflict_->stats().conflicts;
      result.lp_conflicts = conflict_->stats().lp_conflicts;
      result.nogoods_learned = conflict_->stats().nogoods_learned;
      result.nogoods_deleted = conflict_->stats().nogoods_deleted;
      result.nogoods_imported = conflict_->stats().nogoods_imported;
    }
    if (shared == nullptr) {
      // Export the transferable part of an anytime certificate. The seeds
      // the caller supplied come first: they stay globally valid whatever
      // this run did, and must survive even a resume that ran with
      // conflict learning off (they were applied as root tightenings, not
      // pool entries). Then the unit nogoods whose derivation never
      // touched the objective cutoff — valid for this model
      // unconditionally, so a resumed solve may import them as root
      // bound tightenings.
      auto export_unit = [&result](const SeedLiteral& seed) {
        for (const SeedLiteral& have : result.unit_nogoods) {
          if (have.var == seed.var && have.is_lower == seed.is_lower &&
              have.value == seed.value) {
            return;
          }
        }
        result.unit_nogoods.push_back(seed);
      };
      for (const SeedLiteral& seed : options_.seed_literals) {
        export_unit(seed);
      }
      if (conflict_.has_value()) {
        for (const Nogood& nogood : conflict_->pool()) {
          if (nogood.lits.size() != 1 || nogood.bound_based) continue;
          const BoundLit& lit = nogood.lits.front();
          export_unit(SeedLiteral{lit.var, lit.is_lower, lit.value});
        }
      }
    }
    if (have_incumbent) {
      result.objective = incumbent_objective;
      result.values = std::move(incumbent);
      result.best_bound =
          limits_hit ? -kInfinity
                     : std::min(exhausted_bound, incumbent_objective);
      // A dropped subtree without a dual bound forfeits the optimality
      // certificate even when no explicit limit fired.
      result.status = limits_hit || bound_lost ? ResultStatus::kFeasible
                                               : ResultStatus::kOptimal;
    } else if (!limits_hit && !bound_lost) {
      result.status = ResultStatus::kInfeasible;
      result.best_bound = kInfinity;
    } else {
      result.status = ResultStatus::kUnknown;
      result.best_bound = -kInfinity;
    }
    return result;
  }

 private:
  /// Adopts the nogoods other workers published since this worker's last
  /// look. The lock is skipped entirely (one relaxed load) when nothing
  /// new arrived; worker_id_ filters out this worker's own clauses.
  void import_published(SharedSearch& shared) {
    if (!conflict_.has_value()) return;
    if (shared.published_count.load(std::memory_order_acquire) ==
        publish_cursor_) {
      return;
    }
    const std::lock_guard<std::mutex> lock(shared.publish_mutex);
    for (; publish_cursor_ < shared.published.size(); ++publish_cursor_) {
      const auto& entry = shared.published[publish_cursor_];
      if (entry.first == worker_id_) continue;
      conflict_->import_nogood(entry.second);
    }
  }

  /// Discards every pending node deeper than `jump_level` and re-enters
  /// the search at the first `jump_level` decisions of `node` (where the
  /// freshly learned nogood is unit). Returns false — leaving the stack
  /// untouched — when backjumping is disabled or the jump would not rise
  /// above the current node.
  bool backjump_to(int jump_level, const Node& node, std::vector<Node>* stack,
                   Result* result) {
    if (!options_.conflict_backjumping || jump_level >= node.depth) {
      return false;
    }
    while (!stack->empty() &&
           static_cast<int>(stack->back().path.size()) > jump_level) {
      stack->pop_back();
      ++result->backjump_nodes_skipped;
    }
    ++result->backjumps;
    Node jump;
    jump.path.assign(node.path.begin(), node.path.begin() + jump_level);
    jump.depth = jump_level;
    jump.lp_budget = options_.lp_iteration_limit;
    stack->push_back(std::move(jump));
    return true;
  }

  /// The i-th term of the Luby sequence (1,1,2,1,1,2,4,...), 1-indexed.
  static long luby(long i) {
    long k = 1;
    while ((1L << k) - 1 < i) ++k;
    while ((1L << k) - 1 != i) {
      i -= (1L << (k - 1)) - 1;
      k = 1;
      while ((1L << k) - 1 < i) ++k;
    }
    return 1L << (k - 1);
  }

  /// Conflict budget of the k-th restart interval.
  long restart_conflict_budget(long k) const {
    const long unit = static_cast<long>(options_.restart_interval);
    return options_.restart_luby ? unit * luby(k) : unit;
  }

  /// Builds, verifies and analyzes the bound clause an LP refutation
  /// certifies. `solver_ray` carries weights over the rows of the LP the
  /// node solved (lp::Solution::farkas_ray sign convention). With
  /// `with_objective`, the aggregation additionally includes the virtual
  /// objective row `c.x <= objective_cutoff` with weight 1 (bound-based
  /// pruning from the exact duals). The clause is handed to the conflict
  /// engine only when the certificate verifies numerically against the
  /// node bounds; returns whether analysis ran (`*outcome` filled).
  bool try_learn_lp_conflict(const std::vector<double>& solver_ray,
                             bool with_objective, double objective_cutoff,
                             Result& result,
                             ConflictEngine::NodeOutcome* outcome) {
    constexpr double kSignSlack = 1e-7;  // wrong-signed weights clipped to 0
    constexpr double kCoefEps = 1e-11;   // aggregated coefficient ~ zero
    constexpr double kMargin = 1e-6;     // required certificate violation
    const lp::Model& lpm = model_.lp();
    const int mc = lpm.constraint_count();
    if (static_cast<int>(solver_ray.size()) != mc) return false;
    double scale = 0.0;
    for (const double w : solver_ray) {
      if (!std::isfinite(w)) return false;
      scale = std::max(scale, std::abs(w));
    }
    if (with_objective) scale = std::max(scale, 1.0);
    if (scale <= 0.0) return false;
    // A Farkas ray is scale-free, so it is normalized to max weight 1; a
    // dual certificate is pinned by the objective row's weight of 1.
    const double norm = with_objective ? 1.0 : scale;
    const double slack = kSignSlack * (scale / norm);
    std::vector<double> weights(static_cast<std::size_t>(mc), 0.0);
    for (int i = 0; i < mc; ++i) {
      double w = solver_ray[static_cast<std::size_t>(i)] / norm;
      const lp::Sense sense = lpm.constraint(i).sense;
      if (sense == lp::Sense::kLessEqual && w < 0.0) {
        if (w < -slack) return false;
        w = 0.0;
      } else if (sense == lp::Sense::kGreaterEqual && w > 0.0) {
        if (w > slack) return false;
        w = 0.0;
      }
      weights[static_cast<std::size_t>(i)] = w;
    }
    // Aggregate the certificate into one valid inequality g.x <= g0.
    const int n = model_.variable_count();
    agg_.assign(static_cast<std::size_t>(n), 0.0);
    double g0 = 0.0;
    for (int i = 0; i < mc; ++i) {
      const double w = weights[static_cast<std::size_t>(i)];
      if (w == 0.0) continue;
      const lp::Constraint& row = lpm.constraint(i);
      for (const lp::Term& term : row.terms) {
        agg_[static_cast<std::size_t>(term.variable)] += w * term.coefficient;
      }
      g0 += w * row.rhs;
    }
    if (with_objective) {
      for (int j = 0; j < n; ++j) {
        agg_[static_cast<std::size_t>(j)] += lpm.variable(j).objective;
      }
      g0 += objective_cutoff;
    }
    // The clause literals are the node bounds the min-activity of g
    // stands on; the certificate holds only when that activity beats g0.
    double activity = 0.0;
    std::vector<BoundLit> lits;
    for (int j = 0; j < n; ++j) {
      const auto js = static_cast<std::size_t>(j);
      const double gj = agg_[js];
      if (gj == 0.0) continue;
      if (std::abs(gj) <= kCoefEps * (scale / norm)) {
        // Too small to carry a literal; its worst-case contribution over
        // the *root* box (all a checker without this node's bounds can
        // assume) still counts against the violation margin below.
        activity += gj * (gj > 0.0 ? root_lower_[js] : root_upper_[js]);
        continue;
      }
      const double at_bound = gj > 0.0 ? cur_lower_[js] : cur_upper_[js];
      if (!std::isfinite(at_bound)) return false;
      activity += gj * at_bound;
      lits.push_back(BoundLit{j, gj > 0.0, at_bound});
    }
    if (lits.empty()) return false;
    if (!(activity > g0 + kMargin * std::max(1.0, std::abs(g0)))) {
      return false;
    }
    const long learned_before = conflict_->stats().nogoods_learned;
    *outcome = conflict_->analyze_lp_refutation(
        std::move(lits), with_objective, std::move(weights), with_objective,
        cur_lower_, cur_upper_);
    result.lp_nogoods_learned +=
        conflict_->stats().nogoods_learned - learned_before;
    return true;
  }

  /// One basis-stack checkpoint: the basis left behind by an ancestor
  /// node, keyed by that ancestor's bound-delta path.
  struct SavedBasis {
    std::vector<BoundDelta> path;
    lp::BasisSnapshot snapshot;
  };

  static bool delta_equal(const BoundDelta& a, const BoundDelta& b) {
    return a.var == b.var && a.lower == b.lower && a.upper == b.upper;
  }

  static std::size_t shared_prefix(const std::vector<BoundDelta>& a,
                                   const std::vector<BoundDelta>& b) {
    std::size_t k = 0;
    while (k < a.size() && k < b.size() && delta_equal(a[k], b[k])) ++k;
    return k;
  }

  bool use_basis_stack() const { return options_.basis_stack_depth > 0; }

  /// Prunes checkpoints that are not ancestors of `node`, then decides
  /// whether continuing from the live basis or restoring the deepest
  /// ancestor checkpoint promises the shorter dual repair.
  void prepare_basis(const Node& node) {
    while (!basis_stack_.empty()) {
      const SavedBasis& top = basis_stack_.back();
      if (top.path.size() <= node.path.size() &&
          shared_prefix(top.path, node.path) == top.path.size()) {
        break;
      }
      basis_stack_.pop_back();
    }
    if (basis_stack_.empty()) return;
    const SavedBasis& top = basis_stack_.back();
    const std::size_t shared = shared_prefix(last_solved_path_, node.path);
    const std::size_t jump = last_solved_path_.size() - shared;
    // A restore costs one refactorization; it pays off only after a real
    // backtrack jump, and only when the checkpoint sits at least as deep
    // as the divergence point (otherwise the live basis is closer).
    constexpr std::size_t kRestoreJump = 4;
    if (solver_.has_basis() &&
        (jump < kRestoreJump || top.path.size() < shared)) {
      return;
    }
    if (solver_.restore_basis(top.snapshot)) ++basis_restores_;
  }

  /// Saves the current (optimal) basis as a checkpoint for `node` when it
  /// is shallow enough. prepare_basis() guarantees every stacked entry is
  /// an ancestor of the node being processed, so pushing keeps nesting.
  void maybe_push_snapshot(const Node& node) {
    if (node.depth > options_.basis_stack_depth) return;
    if (!solver_.has_basis()) return;
    if (!basis_stack_.empty() &&
        basis_stack_.back().path.size() >= node.path.size()) {
      return;  // budget retry of the same node: checkpoint already taken
    }
    basis_stack_.push_back({node.path, solver_.snapshot_basis()});
  }

  /// Rebuilds cur_lower_/cur_upper_ for `node`: root bounds with the node's
  /// delta chain applied (later deltas win, matching the dive order).
  void apply_path(const Node& node) {
    std::copy(root_lower_.begin(), root_lower_.end(), cur_lower_.begin());
    std::copy(root_upper_.begin(), root_upper_.end(), cur_upper_.begin());
    for (const BoundDelta& delta : node.path) {
      const auto v = static_cast<std::size_t>(delta.var);
      cur_lower_[v] = std::max(cur_lower_[v], delta.lower);
      cur_upper_[v] = std::min(cur_upper_[v], delta.upper);
    }
  }

  /// Solves the node LP over cur_lower_/cur_upper_: pushes only the
  /// changed bounds into the shared warm solver and dual-simplex
  /// reoptimizes. On numerical trouble the node is re-solved through the
  /// dense tableau, the last rung of the recovery ladder.
  lp::Solution solve_node_lp(long budget) {
    const int n = model_.variable_count();
    for (int j = 0; j < n; ++j) {
      const auto js = static_cast<std::size_t>(j);
      if (solver_.lower_bound(j) != cur_lower_[js] ||
          solver_.upper_bound(j) != cur_upper_[js]) {
        solver_.set_bounds(j, cur_lower_[js], cur_upper_[js]);
      }
    }
    solver_.set_iteration_limit(budget);
    lp::Solution solution = solver_.reoptimize();
    if (!solver_.numerical_trouble()) return solution;
    ++dense_fallbacks_;
    common::log_warning(
        "branch-and-bound: warm solver hit numerical trouble; node "
        "re-solved through the dense oracle");
    if (!lp_copy_.has_value()) lp_copy_.emplace(model_.lp());
    for (int j = 0; j < n; ++j) {
      lp_copy_->set_bounds(j, cur_lower_[static_cast<std::size_t>(j)],
                           cur_upper_[static_cast<std::size_t>(j)]);
    }
    lp::SolveOptions lp_options;
    lp_options.max_iterations = budget;
    lp_options.algorithm = lp::Algorithm::kDenseTableau;
    return lp::solve(*lp_copy_, lp_options);
  }

  /// With an integral objective the LP bound rounds up to the next integer.
  double strengthen(double bound) const {
    if (!options_.objective_is_integral || !std::isfinite(bound)) {
      return bound;
    }
    return std::ceil(bound - 1e-6);
  }

  double prune_threshold(double incumbent_objective) const {
    if (incumbent_objective == kInfinity) {
      return kInfinity;
    }
    if (options_.objective_is_integral) {
      // Any strictly better integer point improves by at least 1.
      return incumbent_objective - 1.0 + 1e-6;
    }
    return incumbent_objective - 1e-9;
  }

  void ensure_pseudocost_storage() {
    if (!pc_up_sum_.empty()) return;
    const auto n = static_cast<std::size_t>(model_.variable_count());
    pc_up_sum_.assign(n, 0.0);
    pc_up_count_.assign(n, 0.0);
    pc_down_sum_.assign(n, 0.0);
    pc_down_count_.assign(n, 0.0);
  }

  /// Records the dual-bound degradation of the branch that created `node`.
  void update_pseudocost(const Node& node, double bound) {
    if (node.branch_var < 0) return;
    ensure_pseudocost_storage();
    if (!std::isfinite(node.parent_bound) || !std::isfinite(bound)) return;
    const double gain = std::max(bound - node.parent_bound, 0.0);
    const double per_unit = gain / node.branch_frac;
    const auto v = static_cast<std::size_t>(node.branch_var);
    if (node.branch_up) {
      pc_up_sum_[v] += per_unit;
      pc_up_count_[v] += 1.0;
    } else {
      pc_down_sum_[v] += per_unit;
      pc_down_count_[v] += 1.0;
    }
  }

  /// Pseudocost of branching `var` in one direction; initialized from the
  /// objective coefficient until real observations arrive.
  double pseudocost(int var, bool up) const {
    const auto v = static_cast<std::size_t>(var);
    if (!pc_up_sum_.empty()) {
      const double count = up ? pc_up_count_[v] : pc_down_count_[v];
      if (count > 0.0) {
        return (up ? pc_up_sum_[v] : pc_down_sum_[v]) / count;
      }
    }
    return std::abs(model_.lp().variable(var).objective) + 1.0;
  }

  /// The active branching rule (kAuto resolves to kPseudocost).
  Branching branching() const {
    if (options_.branching != Branching::kAuto) return options_.branching;
    return Branching::kPseudocost;
  }

  /// Most promising fractional integer variable, or -1 when none is
  /// fractional beyond tolerance. Under pseudocost branching, variables
  /// that carry objective weight form a strictly preferred tier: deciding
  /// them first turns budget/indicator subtrees into pure feasibility
  /// problems that propagation can refute without enumerating the rest.
  /// Under input-order branching the lowest fractional index wins
  /// unconditionally (CP-style structured dives).
  int select_branch_variable(const std::vector<double>& values) const {
    const int n = model_.variable_count();
    const Branching rule = branching();
    int best = -1;
    double best_score = 0.0;
    bool best_weighted = false;
    for (int j = 0; j < n; ++j) {
      if (!integer_[static_cast<std::size_t>(j)]) continue;
      const double v = values[static_cast<std::size_t>(j)];
      const double frac = v - std::floor(v);
      const double distance = std::min(frac, 1.0 - frac);
      if (distance <= options_.integrality_tolerance) continue;
      if (rule == Branching::kInputOrder) return j;
      bool weighted = false;
      double score;
      if (rule == Branching::kPseudocost) {
        // Product rule over the two estimated child degradations.
        const double down_gain = pseudocost(j, false) * frac;
        const double up_gain = pseudocost(j, true) * (1.0 - frac);
        score = std::max(down_gain, 1e-6) * std::max(up_gain, 1e-6);
        weighted = model_.lp().variable(j).objective != 0.0;
      } else {
        // kActivity: highest conflict activity; the strict comparison
        // below keeps the lowest index on ties, so an all-zero activity
        // profile (no conflict yet, or learning off) degrades to input
        // order.
        score = conflict_.has_value() ? conflict_->variable_activity(j) : 0.0;
      }
      if (best < 0 || (weighted && !best_weighted) ||
          (weighted == best_weighted && score > best_score)) {
        best_score = score;
        best = j;
        best_weighted = weighted;
      }
    }
    return best;
  }

  const Model& model_;
  const Options& options_;
  /// Shared warm-start engine for every node LP of this search.
  lp::RevisedSimplex solver_;
  /// Bounds scratch for dense-oracle re-solves; built on first use so the
  /// warm path never pays for the model copy.
  std::optional<lp::Model> lp_copy_;
  std::optional<Propagator> own_propagator_;
  const Propagator* propagator_ = nullptr;
  std::vector<double> rounded_;  ///< rounding-heuristic scratch

  bool root_propagated_ = false;  ///< presolve already swept the root
  int worker_id_ = 0;             ///< parallel worker id (0 when serial)
  std::size_t publish_cursor_ = 0;  ///< exchange entries already imported
  /// Conflict-driven learning engine; engaged when conflict_learning and
  /// node_propagation are both on.
  std::optional<ConflictEngine> conflict_;
  std::vector<ConflictEngine::Decision> decisions_;  ///< per-node scratch
  long restart_threshold_ = 0;  ///< conflict budget of the open interval;
                                ///< 0 = restarts off
  long restart_baseline_ = 0;   ///< conflict count at the last restart
  long restart_count_ = 0;      ///< restarts taken (Luby index)
  std::vector<double> lp_ray_scratch_;  ///< negated duals, bound-based learning
  std::vector<double> agg_;             ///< aggregated-certificate scratch
  std::vector<SavedBasis> basis_stack_;
  std::vector<BoundDelta> last_solved_path_;
  long basis_restores_ = 0;
  long dense_fallbacks_ = 0;  ///< warm nodes re-solved via the dense oracle
  std::vector<char> integer_;  ///< cached integrality mask
  std::vector<double> root_lower_, root_upper_;
  std::vector<double> cur_lower_, cur_upper_;  ///< this node's bounds
  std::vector<double> pc_up_sum_, pc_up_count_;
  std::vector<double> pc_down_sum_, pc_down_count_;
};

/// Coordinator of the parallel tree search: seeds the shared queue with
/// the root node, runs `workers` Searcher instances (each with its own
/// simplex engine, propagator and conflict engine — their scratch state
/// is not concurrently usable), and merges the per-worker counters with
/// the shared incumbent/bound state using exactly the serial search's
/// status rules.
Result solve_parallel_tree(const Model& model, const Options& options,
                           int workers, bool root_propagated) {
  SharedSearch shared;
  Node root;
  root.lp_budget = options.lp_iteration_limit;
  shared.queue.push_back(std::move(root));
  shared.queue_size.store(1, std::memory_order_relaxed);

  std::vector<Result> partials(static_cast<std::size_t>(workers));
  common::run_jobs(
      workers, static_cast<std::size_t>(workers),
      [&](int, std::size_t job) {
        // The job index (not the pool's worker id) names the searcher: a
        // pool thread that finds the search already over picks up the
        // next job and must not overwrite an earlier searcher's share.
        PublishingObserver publish(options.conflict_observer,
                                   &shared.observer_mutex);
        Options worker_options = options;
        worker_options.conflict_observer = &publish;
        try {
          Searcher searcher(model, worker_options, nullptr, root_propagated);
          partials[job] =
              searcher.run_worker(shared, static_cast<int>(job), &publish);
        } catch (...) {
          shared.request_halt();
          throw;
        }
      });

  Result result;
  result.threads_used = workers;
  // Post-search aggregation over the per-worker partial results (one entry
  // per worker, all already terminated). fpva-lint: allow(missing-stop-poll)
  for (const Result& partial : partials) {
    result.nodes += partial.nodes;
    result.lp_pivots += partial.lp_pivots;
    result.nodes_pruned_by_propagation += partial.nodes_pruned_by_propagation;
    result.lp_refactorizations += partial.lp_refactorizations;
    result.lp_basis_updates += partial.lp_basis_updates;
    result.basis_restores += partial.basis_restores;
    result.conflicts += partial.conflicts;
    result.lp_conflicts += partial.lp_conflicts;
    result.lp_nogoods_learned += partial.lp_nogoods_learned;
    result.restarts += partial.restarts;
    result.lp_deadline_abandons += partial.lp_deadline_abandons;
    result.nogoods_learned += partial.nogoods_learned;
    result.nogoods_deleted += partial.nogoods_deleted;
    result.nogoods_imported += partial.nogoods_imported;
    result.backjumps += partial.backjumps;
    result.backjump_nodes_skipped += partial.backjump_nodes_skipped;
    result.subtrees_donated += partial.subtrees_donated;
    result.lp_dense_fallbacks += partial.lp_dense_fallbacks;
  }

  const bool limits_hit = shared.limits.load(std::memory_order_relaxed);
  const bool bound_lost = shared.bound_lost.load(std::memory_order_relaxed);
  if (shared.have_incumbent) {
    result.objective =
        shared.incumbent_objective.load(std::memory_order_relaxed);
    result.values = std::move(shared.incumbent_values);
    result.best_bound =
        limits_hit ? -kInfinity
                   : std::min(shared.exhausted_bound, result.objective);
    result.status = limits_hit || bound_lost ? ResultStatus::kFeasible
                                             : ResultStatus::kOptimal;
  } else if (!limits_hit && !bound_lost) {
    result.status = ResultStatus::kInfeasible;
    result.best_bound = kInfinity;
  } else {
    result.status = ResultStatus::kUnknown;
    result.best_bound = -kInfinity;
  }
  result.seconds = shared.timer.seconds();
  return result;
}

Result solve_without_presolve(const Model& model, const Options& options,
                              const Propagator* shared_propagator,
                              bool root_propagated) {
  const int workers = common::resolve_thread_count(options.threads);
  if (workers > 1 && model.variable_count() > 0) {
    // The parallel search builds per-worker propagators.
    return solve_parallel_tree(model, options, workers, root_propagated);
  }
  Searcher searcher(model, options, shared_propagator, root_propagated);
  return searcher.run();
}

// ------------------------------------------------------------ root cut stage

/// Result of the root strengthening stage.
struct RootStage {
  Model model;  ///< strengthened copy; meaningful only when `changed`
  bool infeasible = false;
  bool changed = false;  ///< bounds tightened or cut rows appended
  ProbeStats probe_stats;
  int cliques = 0;
  int cuts_added = 0;
  int cut_rounds = 0;
  long lp_refactorizations = 0;
  long lp_basis_updates = 0;
  long warm_cut_rows = 0;
};

/// Probing, clique-table construction, and the root cutting loop over
/// `base`. The cut LP keeps one factorized basis across rounds: each kept
/// cut is appended to the live basis — its slack enters the basis — and
/// the next round's reoptimize() repairs primal feasibility with a few
/// dual pivots instead of re-crashing from scratch. After numerical
/// trouble the remaining rounds cold-solve through lp::solve.
RootStage run_root_stage(const Model& base, const Options& options,
                         const common::Timer& timer) {
  RootStage stage;
  stage.model = base;
  const int n = base.variable_count();
  std::vector<double> lower(static_cast<std::size_t>(n));
  std::vector<double> upper(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    lower[static_cast<std::size_t>(j)] = base.lp().variable(j).lower;
    upper[static_cast<std::size_t>(j)] = base.lp().variable(j).upper;
  }

  Propagator propagator(base);
  std::vector<std::pair<int, int>> implications;
  if (options.probing) {
    if (!probe_binaries(base, propagator, lower, upper,
                        options.clique_cuts ? &implications : nullptr,
                        &stage.probe_stats)) {
      stage.infeasible = true;
      return stage;
    }
    for (int j = 0; j < n; ++j) {
      const auto js = static_cast<std::size_t>(j);
      const lp::Variable& var = base.lp().variable(j);
      if (lower[js] > var.lower || upper[js] < var.upper) {
        stage.model.mutable_lp().set_bounds(j, lower[js], upper[js]);
        stage.changed = true;
      }
    }
  }
  if (!options.clique_cuts) return stage;

  CutSeparator separator(stage.model, lower, upper, implications);
  stage.cliques = separator.clique_count();
  if (separator.empty()) return stage;

  lp::SolveOptions lp_options;
  lp_options.max_iterations = options.lp_iteration_limit;
  std::optional<lp::RevisedSimplex> warm_solver(std::in_place,
                                                stage.model.lp(), lp_options);

  std::vector<CandidateCut> cuts;
  std::vector<lp::Term> terms;
  for (int round = 0; round < options.max_cut_rounds; ++round) {
    if (timer.seconds() > options.time_limit_seconds * 0.5) break;
    if (options.stop.stop_requested()) break;
    lp::Solution relaxation;
    if (warm_solver.has_value()) {
      relaxation = round == 0 ? warm_solver->solve_cold()
                              : warm_solver->reoptimize();
      if (warm_solver->numerical_trouble()) {
        // Fall back to the cold path for the rest of the loop.
        stage.lp_refactorizations += warm_solver->refactorizations();
        stage.lp_basis_updates += warm_solver->basis_updates();
        stage.warm_cut_rows += warm_solver->warm_rows_added();
        warm_solver.reset();
        relaxation = lp::solve(stage.model.lp(), lp_options);
      }
    } else {
      relaxation = lp::solve(stage.model.lp(), lp_options);
    }
    if (relaxation.status != lp::SolveStatus::kOptimal) break;

    separator.separate(relaxation.values, options.max_cuts_per_round, &cuts);
    if (cuts.empty()) break;
    for (const CandidateCut& cut : cuts) {
      const double rhs = literal_row(cut.literals, cut.rhs_literals, &terms);
      if (warm_solver.has_value()) {
        warm_solver->add_row(terms, lp::Sense::kLessEqual, rhs);
      }
      stage.model.add_constraint(std::move(terms), lp::Sense::kLessEqual,
                                 rhs);
      terms.clear();
    }
    stage.cuts_added += static_cast<int>(cuts.size());
    ++stage.cut_rounds;
    stage.changed = true;
  }
  if (warm_solver.has_value()) {
    stage.lp_refactorizations += warm_solver->refactorizations();
    stage.lp_basis_updates += warm_solver->basis_updates();
    stage.warm_cut_rows += warm_solver->warm_rows_added();
  }
  return stage;
}

}  // namespace

Result solve(const Model& model, const Options& options) {
  common::Timer timer;

  // Stage 1: classic root presolve — bound tightening, implied fixings,
  // row removal, substitution of fixed variables.
  std::optional<Propagator> root_propagator;
  std::optional<Presolved> pres;
  const Model* working = &model;
  bool identity = true;  // working model shares the original variable space
  if (options.presolve) {
    root_propagator.emplace(model);
    pres = presolve(model, *root_propagator);
    if (pres->infeasible) {
      Result result;
      result.presolve_stats = pres->stats;
      result.status = ResultStatus::kInfeasible;
      result.best_bound = kInfinity;
      result.seconds = timer.seconds();
      return result;
    }
    if (!pres->is_identity) {
      identity = false;
      working = &pres->reduced;
    }
  }

  // Stage 2: root strengthening — probing over the binaries, clique table,
  // and the clique/cover cutting loop. Runs in the working variable space,
  // so the stage-3 search and the stage-1 postsolve are oblivious to it.
  std::optional<RootStage> stage;
  bool root_propagated = options.presolve;  // stage 1 reached the fixpoint
  if ((options.probing || options.clique_cuts) &&
      working->variable_count() > 0) {
    stage.emplace(run_root_stage(*working, options, timer));
    if (stage->infeasible) {
      Result result;
      if (pres.has_value()) result.presolve_stats = pres->stats;
      result.probe_stats = stage->probe_stats;
      result.status = ResultStatus::kInfeasible;
      result.best_bound = kInfinity;
      result.seconds = timer.seconds();
      return result;
    }
    if (stage->changed) {
      working = &stage->model;
      root_propagated = false;  // cut rows have not been swept yet
    }
  }

  // Stage 3: branch-and-bound on the working model.
  Options inner = options;
  inner.presolve = false;
  // The search budget is whatever the root stages left of the time limit;
  // the searcher restarts its own timer, so deduct the elapsed time here.
  inner.time_limit_seconds =
      std::max(0.0, options.time_limit_seconds - timer.seconds());
  if (inner.objective_is_integral && pres.has_value()) {
    // The reduced objective is shifted by the fixed contribution; the
    // integral-spacing argument only survives an integral shift.
    const double offset = pres->objective_offset;
    if (std::abs(offset - std::round(offset)) > 1e-9) {
      inner.objective_is_integral = false;
    }
  }
  const Propagator* shared =
      root_propagated && working == &model ? &*root_propagator : nullptr;
  Result searched =
      solve_without_presolve(*working, inner, shared, root_propagated);

  Result result;
  result.status = searched.status;
  result.nodes = searched.nodes;
  result.lp_pivots = searched.lp_pivots;
  result.nodes_pruned_by_propagation = searched.nodes_pruned_by_propagation;
  result.lp_refactorizations = searched.lp_refactorizations;
  result.lp_basis_updates = searched.lp_basis_updates;
  result.basis_restores = searched.basis_restores;
  result.conflicts = searched.conflicts;
  result.lp_conflicts = searched.lp_conflicts;
  result.lp_nogoods_learned = searched.lp_nogoods_learned;
  result.restarts = searched.restarts;
  result.lp_deadline_abandons = searched.lp_deadline_abandons;
  result.nogoods_learned = searched.nogoods_learned;
  result.nogoods_deleted = searched.nogoods_deleted;
  result.backjumps = searched.backjumps;
  result.backjump_nodes_skipped = searched.backjump_nodes_skipped;
  result.threads_used = searched.threads_used;
  result.nogoods_imported = searched.nogoods_imported;
  result.subtrees_donated = searched.subtrees_donated;
  result.lp_dense_fallbacks = searched.lp_dense_fallbacks;
  // Unit nogoods live in the presolved variable space on purpose: a
  // resumed solve of the same model presolves identically, so the indices
  // line up when fed back through Options::seed_literals.
  result.unit_nogoods = std::move(searched.unit_nogoods);
  if (pres.has_value()) result.presolve_stats = pres->stats;
  if (stage.has_value()) {
    result.probe_stats = stage->probe_stats;
    result.cliques = stage->cliques;
    result.cuts_added = stage->cuts_added;
    result.cut_rounds = stage->cut_rounds;
    result.lp_refactorizations += stage->lp_refactorizations;
    result.lp_basis_updates += stage->lp_basis_updates;
    result.warm_cut_rows = stage->warm_cut_rows;
  }
  if (identity) {
    result.objective = searched.objective;
    result.values = std::move(searched.values);
    result.best_bound = searched.best_bound;
  } else {
    // Gate the postsolve on status, not on the values being non-empty: a
    // fully-fixed model legitimately returns the empty incumbent, and
    // restore() reconstructs the point from the fixed values.
    if (searched.status == ResultStatus::kOptimal ||
        searched.status == ResultStatus::kFeasible) {
      result.values = pres->restore(searched.values);
      result.objective = model.lp().objective_value(result.values);
    }
    if (std::isfinite(searched.best_bound)) {
      result.best_bound = searched.best_bound + pres->objective_offset;
    } else {
      result.best_bound = searched.best_bound;
    }
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace fpva::ilp
