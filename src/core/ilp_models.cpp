#include "core/ilp_models.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/stop.h"
#include "common/strings.h"
#include "core/cert_store.h"
#include "core/cut_planner.h"
#include "ilp/presolve.h"
#include "lp/model.h"
#include "sim/simulator.h"

namespace fpva::core {

using common::check;
using grid::Site;

namespace {

/// Which external hookup a site provides to a chain endpoint.
enum class PortSide : std::uint8_t { kNone, kSource, kSink };

/// One crossable site of the abstract chain model. Both the primal model
/// (cells/valves) and the dual model (posts/crossings) reduce to this.
struct SiteSpec {
  int node_a = -1;  ///< incident node, -1 = exterior
  int node_b = -1;
  bool needs_cover = false;  ///< participates in constraint (2)
  PortSide port = PortSide::kNone;
};

struct ChainSpec {
  int node_count = 0;
  std::vector<SiteSpec> sites;
  bool masking_exclusion = false;  ///< add constraint (9)
  /// Replace the single p-ordering symmetry row with full orbit-based
  /// lexicographic ordering: all chains form one orbit of the symmetric
  /// group on chain indices, so every solution can be renumbered with
  /// used chains first, sorted by their lowest crossed site. The rows
  ///   v[m][s] <= sum_{t <= s} v[m-1][t]
  /// admit exactly those representatives (chain m may cross site s only if
  /// chain m-1 crosses some site no later than s) and cut the m! copies of
  /// every cover out of the search tree.
  bool orbit_symmetry = false;
  /// Proven lower bound on the number of used chains (III-B-3 budget
  /// escalation: when every budget below b is proven infeasible, the
  /// budget-b model satisfies sum p >= b). Emitted as a row so the search
  /// degenerates into pure feasibility instead of re-deriving the bound at
  /// every node. 0 = no row.
  int objective_floor = 0;
};

/// One extracted chain: ordered site indices and interior node sequence.
struct Chain {
  std::vector<int> sites;
  std::vector<int> nodes;
};

/// Builds the budgeted model, solves it, and walks the solution into
/// chains. Returns nullopt when infeasible or the solver gave up.
std::optional<std::vector<Chain>> solve_chain_model(
    const ChainSpec& spec, int budget, const ilp::Options& ilp_options,
    ilp::Result* diagnostics) {
  check(budget >= 1, "solve_chain_model: budget must be positive");
  const int site_count = static_cast<int>(spec.sites.size());
  const double flow_cap = spec.node_count + 1;
  const double indicator_cap = site_count + 1;

  ilp::Model model;
  // Variable layout per chain m: c (nodes), v (sites), f (sites); then p.
  const auto c_var = [&](int m, int node) {
    return m * (spec.node_count + 2 * site_count) + node;
  };
  const auto v_var = [&](int m, int site) {
    return m * (spec.node_count + 2 * site_count) + spec.node_count + site;
  };
  const auto f_var = [&](int m, int site) {
    return m * (spec.node_count + 2 * site_count) + spec.node_count +
           site_count + site;
  };
  const int p_base = budget * (spec.node_count + 2 * site_count);

  for (int m = 0; m < budget; ++m) {
    for (int node = 0; node < spec.node_count; ++node) {
      model.add_binary(0.0, common::cat("c", m, "_", node));
    }
    for (int s = 0; s < site_count; ++s) {
      model.add_binary(0.0, common::cat("v", m, "_", s));
    }
    for (int s = 0; s < site_count; ++s) {
      const SiteSpec& site = spec.sites[static_cast<std::size_t>(s)];
      double lo = -flow_cap;
      double hi = flow_cap;
      // Pressure can only enter through sources and leave through sinks
      // (orientation: exterior -> node is positive).
      if (site.port == PortSide::kSource) lo = 0.0;
      if (site.port == PortSide::kSink) hi = 0.0;
      model.add_integer(lo, hi, 0.0, common::cat("f", m, "_", s));
    }
  }
  for (int m = 0; m < budget; ++m) {
    model.add_binary(1.0, common::cat("p", m));  // objective (7)
  }

  // Incidence, with orientation sign for constraint (4): for interior
  // sites flow into node_b counts positive; for port sites the positive
  // direction is always exterior -> interior, so the source bounds [0, M]
  // mean "inject only" and the sink bounds [-M, 0] mean "withdraw only"
  // regardless of which slot holds the interior node.
  std::vector<std::vector<std::pair<int, double>>> incident(
      static_cast<std::size_t>(spec.node_count));
  for (int s = 0; s < site_count; ++s) {
    const SiteSpec& site = spec.sites[static_cast<std::size_t>(s)];
    if (site.node_a >= 0 && site.node_b >= 0) {
      incident[static_cast<std::size_t>(site.node_a)].push_back({s, -1.0});
      incident[static_cast<std::size_t>(site.node_b)].push_back({s, +1.0});
    } else if (site.node_a >= 0) {
      incident[static_cast<std::size_t>(site.node_a)].push_back({s, +1.0});
    } else if (site.node_b >= 0) {
      incident[static_cast<std::size_t>(site.node_b)].push_back({s, +1.0});
    }
  }

  for (int m = 0; m < budget; ++m) {
    for (int node = 0; node < spec.node_count; ++node) {
      std::vector<lp::Term> chain_terms;   // constraint (1)
      std::vector<lp::Term> flow_terms;    // constraint (4)
      for (const auto& [s, sign] : incident[static_cast<std::size_t>(node)]) {
        chain_terms.push_back({v_var(m, s), 1.0});
        flow_terms.push_back({f_var(m, s), sign});
      }
      chain_terms.push_back({c_var(m, node), -2.0});
      model.add_constraint(std::move(chain_terms), lp::Sense::kEqual, 0.0);
      flow_terms.push_back({c_var(m, node), -1.0});
      model.add_constraint(std::move(flow_terms), lp::Sense::kEqual, 0.0);
    }
    std::vector<lp::Term> used_terms;      // constraint (6)
    std::vector<lp::Term> source_terms;    // single-chain hygiene
    std::vector<lp::Term> sink_terms;
    for (int s = 0; s < site_count; ++s) {
      const SiteSpec& site = spec.sites[static_cast<std::size_t>(s)];
      // Constraint (3): |f| <= M * v.
      model.add_constraint(
          {{f_var(m, s), 1.0}, {v_var(m, s), -flow_cap}},
          lp::Sense::kLessEqual, 0.0);
      model.add_constraint(
          {{f_var(m, s), 1.0}, {v_var(m, s), flow_cap}},
          lp::Sense::kGreaterEqual, 0.0);
      used_terms.push_back({v_var(m, s), 1.0});
      if (site.port == PortSide::kSource) {
        source_terms.push_back({v_var(m, s), 1.0});
      } else if (site.port == PortSide::kSink) {
        sink_terms.push_back({v_var(m, s), 1.0});
      }
      if (spec.masking_exclusion && site.needs_cover && site.node_a >= 0 &&
          site.node_b >= 0) {
        // Constraint (9): c_a + c_b - 1 <= v.
        model.add_constraint({{c_var(m, site.node_a), 1.0},
                              {c_var(m, site.node_b), 1.0},
                              {v_var(m, s), -1.0}},
                             lp::Sense::kLessEqual, 1.0);
      }
    }
    used_terms.push_back({p_base + m, -indicator_cap});
    model.add_constraint(std::move(used_terms), lp::Sense::kLessEqual, 0.0);
    model.add_constraint(std::move(source_terms), lp::Sense::kLessEqual,
                         1.0);
    sink_terms.push_back({p_base + m, -1.0});
    model.add_constraint(std::move(sink_terms), lp::Sense::kGreaterEqual,
                         0.0);
    if (m > 0) {
      // Symmetry breaking: used chains take the lowest indices.
      model.add_constraint({{p_base + m, 1.0}, {p_base + m - 1, -1.0}},
                           lp::Sense::kLessEqual, 0.0);
      if (spec.orbit_symmetry) {
        // Orbit-based lexicographic ordering rows (see ChainSpec), emitted
        // over the cover (valve) sites only: chains are ordered by their
        // lowest crossed cover site, and chains that cross none sort last
        // with every row trivially satisfied. Restricting the prefix to
        // cover sites keeps the rows ~4x sparser with the same orbit
        // representatives.
        std::vector<lp::Term> prefix;
        for (int s = 0; s < site_count; ++s) {
          if (!spec.sites[static_cast<std::size_t>(s)].needs_cover) continue;
          prefix.push_back({v_var(m - 1, s), -1.0});
          std::vector<lp::Term> ordering(prefix);
          ordering.push_back({v_var(m, s), 1.0});
          model.add_constraint(std::move(ordering), lp::Sense::kLessEqual,
                               0.0);
        }
      }
    }
  }
  if (spec.objective_floor > 0) {
    std::vector<lp::Term> floor_terms;
    for (int m = 0; m < budget; ++m) {
      floor_terms.push_back({p_base + m, 1.0});
    }
    model.add_constraint(std::move(floor_terms), lp::Sense::kGreaterEqual,
                         static_cast<double>(
                             std::min(spec.objective_floor, budget)));
  }
  // Constraint (2): every cover site is crossed by some chain.
  for (int s = 0; s < site_count; ++s) {
    if (!spec.sites[static_cast<std::size_t>(s)].needs_cover) continue;
    std::vector<lp::Term> cover_terms;
    for (int m = 0; m < budget; ++m) {
      cover_terms.push_back({v_var(m, s), 1.0});
    }
    model.add_constraint(std::move(cover_terms), lp::Sense::kGreaterEqual,
                         1.0);
  }

  // Emit the model through the presolver: root reductions (bound
  // tightening, implied fixings, row removal) happen once here, the search
  // runs on the reduced model, and the incumbent is mapped back to the
  // original variable space for chain extraction.
  ilp::Options options = ilp_options;
  options.objective_is_integral = true;
  if (options.branching == ilp::Branching::kAuto) {
    // The chain-major variable layout makes input-order dives construct
    // one chain at a time; propagation then refutes dead prefixes without
    // LP help. Callers can still force any rule explicitly.
    options.branching = ilp::Branching::kInputOrder;
  }
  const ilp::Presolved pres = ilp::presolve(model);
  ilp::Result result;
  if (pres.infeasible) {
    result.status = ilp::ResultStatus::kInfeasible;
    result.best_bound = std::numeric_limits<double>::infinity();
    if (diagnostics != nullptr) *diagnostics = result;
    return std::nullopt;
  }
  if (pres.is_identity) {
    options.presolve = false;  // nothing to reduce; skip the second pass
    result = ilp::solve(model, options);
  } else {
    common::log_debug(common::cat(
        "chain ILP presolve: ", pres.stats.variables_fixed, " of ",
        pres.original_variables, " variables fixed, ", pres.stats.rows_removed,
        " rows dropped, ", pres.stats.bounds_tightened, " bounds tightened"));
    options.presolve = false;  // already reduced
    // The integral-spacing prune is only valid on the reduced objective
    // when the fixed contribution is itself integral (it always is for the
    // paper's models, where only the p indicators carry cost).
    if (std::abs(pres.objective_offset - std::round(pres.objective_offset)) >
        1e-9) {
      options.objective_is_integral = false;
    }
    result = ilp::solve(pres.reduced, options);
    // Gate on status, not on values being non-empty: when presolve fixed
    // every variable the optimal reduced solution IS the empty vector and
    // restore() reconstructs the full point from the fixed values.
    if (result.status == ilp::ResultStatus::kOptimal ||
        result.status == ilp::ResultStatus::kFeasible) {
      result.values = pres.restore(result.values);
      result.objective = model.lp().objective_value(result.values);
    }
    if (std::isfinite(result.best_bound)) {
      result.best_bound += pres.objective_offset;
    }
  }
  if (diagnostics != nullptr) *diagnostics = result;
  if (result.status != ilp::ResultStatus::kOptimal &&
      result.status != ilp::ResultStatus::kFeasible) {
    return std::nullopt;
  }

  // Walk each used chain from its source port site.
  std::vector<Chain> chains;
  for (int m = 0; m < budget; ++m) {
    std::vector<char> used(static_cast<std::size_t>(site_count), 0);
    int start_site = -1;
    int open_count = 0;
    for (int s = 0; s < site_count; ++s) {
      if (result.values[static_cast<std::size_t>(v_var(m, s))] > 0.5) {
        used[static_cast<std::size_t>(s)] = 1;
        ++open_count;
        if (spec.sites[static_cast<std::size_t>(s)].port ==
            PortSide::kSource) {
          check(start_site < 0,
                "solve_chain_model: chain uses two sources");
          start_site = s;
        }
      }
    }
    if (open_count == 0) continue;
    check(start_site >= 0, "solve_chain_model: used chain has no source");

    Chain chain;
    chain.sites.push_back(start_site);
    used[static_cast<std::size_t>(start_site)] = 0;
    int node = spec.sites[static_cast<std::size_t>(start_site)].node_a >= 0
                   ? spec.sites[static_cast<std::size_t>(start_site)].node_a
                   : spec.sites[static_cast<std::size_t>(start_site)].node_b;
    for (;;) {
      chain.nodes.push_back(node);
      int next_site = -1;
      for (const auto& [s, sign] : incident[static_cast<std::size_t>(node)]) {
        if (used[static_cast<std::size_t>(s)]) {
          next_site = s;
          break;
        }
      }
      check(next_site >= 0, "solve_chain_model: chain walk dead-ends");
      used[static_cast<std::size_t>(next_site)] = 0;
      chain.sites.push_back(next_site);
      const SiteSpec& site = spec.sites[static_cast<std::size_t>(next_site)];
      if (site.node_a < 0 || site.node_b < 0) {
        break;  // reached the exterior again: chain complete
      }
      node = site.node_a == node ? site.node_b : site.node_a;
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

}  // namespace

std::optional<IlpPathResult> solve_flow_path_model(
    const grid::ValveArray& array, int max_paths, const ilp::Options& options,
    int proven_budget_floor, ilp::Result* failure_diagnostics) {
  // Nodes = fluid cells; sites = internal non-wall sites + port sites.
  ChainSpec spec;
  spec.objective_floor = proven_budget_floor;
  spec.node_count = array.rows() * array.cols();

  std::vector<Site> site_of;  // model site index -> grid site
  const auto add_site = [&](Site site, bool cover, PortSide port) {
    const auto [a, b] = array.sides(site);
    SiteSpec entry;
    entry.node_a = a && array.is_fluid(*a) ? array.cell_index(*a) : -1;
    entry.node_b = b && array.is_fluid(*b) ? array.cell_index(*b) : -1;
    entry.needs_cover = cover;
    entry.port = port;
    spec.sites.push_back(entry);
    site_of.push_back(site);
  };
  for (int r = 0; r < array.site_rows(); ++r) {
    for (int c = 0; c < array.site_cols(); ++c) {
      const Site site{r, c};
      if (!has_valve_parity(site) || array.is_boundary_site(site)) continue;
      const grid::SiteKind kind = array.site_kind(site);
      if (kind == grid::SiteKind::kWall) continue;
      const auto [a, b] = array.sides(site);
      if (!a || !b || !array.is_fluid(*a) || !array.is_fluid(*b)) continue;
      add_site(site, kind == grid::SiteKind::kValve, PortSide::kNone);
    }
  }
  std::map<Site, int> port_site_index;
  for (const grid::Port& port : array.ports()) {
    port_site_index[port.site] = static_cast<int>(spec.sites.size());
    add_site(port.site, false,
             port.kind == grid::PortKind::kSource ? PortSide::kSource
                                                  : PortSide::kSink);
  }

  IlpPathResult result;
  auto chains = solve_chain_model(spec, max_paths, options, &result.ilp);
  if (!chains.has_value()) {
    if (failure_diagnostics != nullptr) *failure_diagnostics = result.ilp;
    return std::nullopt;
  }

  for (const Chain& chain : *chains) {
    FlowPath path;
    const Site source_site = site_of[static_cast<std::size_t>(
        chain.sites.front())];
    const Site sink_site =
        site_of[static_cast<std::size_t>(chain.sites.back())];
    for (std::size_t p = 0; p < array.ports().size(); ++p) {
      if (array.ports()[p].site == source_site) {
        path.source_port = static_cast<int>(p);
      }
      if (array.ports()[p].site == sink_site) {
        path.sink_port = static_cast<int>(p);
      }
    }
    for (const int node : chain.nodes) {
      path.cells.push_back(array.cell_at_index(node));
    }
    const auto problem = validate_flow_path(array, path);
    if (problem.has_value()) {
      common::fail(common::cat(
          "ILP path extraction produced an invalid path: ", *problem));
    }
    result.paths.push_back(std::move(path));
  }
  // The unpinned objective minimizes used chains, so the solve may use
  // fewer than the budget allows (e.g. when a smaller budget's refutation
  // was abandoned on limits); report the count actually used.
  result.path_budget = static_cast<int>(result.paths.size());
  return result;
}

namespace {

/// One pre-solved escalation stage (parallel path). `usable` means the
/// solve ran to completion with no cancellation — its outcome is exactly
/// what a from-scratch solve of the same (budget, floor) model would
/// produce, so the serial replay loop may consume it in place of a live
/// solve.
template <typename ResultT>
struct StageCache {
  std::optional<ResultT> result;
  ilp::Result failure;
  int floor = 0;
  bool usable = false;
};

/// Everything escalate_budgets needs to persist/resume stages through a
/// CertStore. Default-constructed (null store) hooks are inert and keep
/// the loop byte-for-byte on its historical path.
template <typename ResultT>
struct StoreHooks {
  CertStore* store = nullptr;
  std::string key;
  std::string config_fp;
  std::string limits_fp;
  /// Feasible-stage witness codec: serialize the cover to opaque lines,
  /// and rebuild + re-validate it (simulator replay, coverage, budget).
  /// verify returning nullopt degrades that stage to a live re-solve.
  std::function<std::vector<std::string>(const ResultT&)> serialize;
  std::function<std::optional<ResultT>(int, const std::vector<std::string>&)>
      verify;
};

/// The solver configuration a certificate depends on. Two runs with equal
/// config fingerprints walk identical search trees (at 1 thread), so a
/// recorded refutation from one is a refutation for the other. Limits
/// (time, nodes) are fingerprinted separately: a *proven* stage outcome
/// survives a limit change, a limit-abandoned one does not.
std::string fingerprint_config(const ilp::Options& options) {
  return common::cat(
      "v2 tol=", options.integrality_tolerance,
      " int=", options.objective_is_integral, " pre=", options.presolve,
      " prop=", options.node_propagation,
      " branch=", static_cast<int>(options.branching),
      " retries=", options.max_lp_retries,
      " stack=", options.basis_stack_depth, " probe=", options.probing,
      " clique=", options.clique_cuts, " cutrounds=", options.max_cut_rounds,
      " cutsper=", options.max_cuts_per_round,
      " orbit=", options.orbit_symmetry_rows,
      " floorrows=", options.budget_floor_rows,
      " learn=", options.conflict_learning,
      " jump=", options.conflict_backjumping,
      " nogoods=", options.max_nogoods, " threads=", options.threads,
      " lpiter=", options.lp_iteration_limit,
      " lplearn=", options.lp_conflict_learning,
      " restart=", options.restart_interval,
      " luby=", options.restart_luby);
}

std::string fingerprint_limits(const ilp::Options& options) {
  return common::cat("nodes=", options.max_nodes,
                     " seconds=", options.time_limit_seconds);
}

/// Whether a finished stage record may substitute for a live solve under
/// the current configuration. Proven outcomes (infeasible refutations and
/// proven-optimal covers) only need the search config to match; outcomes
/// shaped by limits (abandoned stages, unproven covers) also need the
/// limits to match, or the replay would diverge from a fresh run.
template <typename ResultT>
bool record_trusted(const StageRecord& record, const StoreHooks<ResultT>& hooks,
                    int floor) {
  if (record.partial || record.config_fp != hooks.config_fp ||
      record.floor != floor) {
    return false;
  }
  const bool proven = record.stage.status == ilp::ResultStatus::kInfeasible ||
                      record.stage.status == ilp::ResultStatus::kOptimal;
  return proven || record.limits_fp == hooks.limits_fp;
}

/// Parallel III-B-3 stage pre-solve: runs the escalation stages
/// concurrently — the refutations of budgets 1..b-1 overlap the budget-b
/// feasibility dive — with speculative floor pinning (stage b > first runs
/// the pinned model the serial loop would run once every smaller budget is
/// refuted). The first feasible budget cancels every larger stage through
/// per-stage stop tokens (all children of `options.stop`); jobs are
/// claimed in predicted-cost order (cheap first, from any preloaded stage
/// records; ties and unknowns keep ascending budget order, which without
/// a store reproduces the historical schedule exactly) so a
/// floor-divergence live re-solve discards the least work. Budgets whose
/// stored record will be replayed anyway are skipped outright. Stages
/// whose token tripped mid-solve are marked unusable and simply re-solved
/// by the replay loop in the rare case it reaches them.
template <typename ResultT, typename SolveBudget>
std::vector<StageCache<ResultT>> precompute_stages(
    int first_budget, int last_budget, const ilp::Options& options,
    int threads, SolveBudget& solve_budget, const std::vector<char>& skip,
    const std::vector<double>& predicted_seconds) {
  const int count = last_budget - first_budget + 1;
  std::vector<StageCache<ResultT>> cache(static_cast<std::size_t>(count));
  std::vector<common::StopSource> stops;
  stops.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) stops.emplace_back(options.stop);

  // Cheap-first schedule over the stage indices: stable sort on predicted
  // seconds, so all-unknown costs (+inf, the storeless case) leave the
  // identity permutation in place.
  std::vector<int> order(static_cast<std::size_t>(count));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return predicted_seconds[static_cast<std::size_t>(a)] <
           predicted_seconds[static_cast<std::size_t>(b)];
  });

  std::mutex mutex;
  int winner = last_budget + 1;  // smallest feasible budget seen so far
  common::run_jobs(
      threads, static_cast<std::size_t>(count),
      [&](int /*worker*/, std::size_t job) {
        const std::size_t index =
            static_cast<std::size_t>(order[static_cast<std::size_t>(job)]);
        if (skip[index]) return;  // the replay loop will reuse the record
        const int budget = first_budget + static_cast<int>(index);
        common::StopSource& stop = stops[index];
        {
          const std::lock_guard<std::mutex> lock(mutex);
          if (budget > winner || stop.stop_requested()) return;
        }
        ilp::Options stage_options = options;
        stage_options.escalation_threads = 1;  // no recursive stage fan-out
        stage_options.stop = stop.token();
        StageCache<ResultT>& slot = cache[index];
        // Speculative pinning: the serial loop pins stage b's floor at b
        // once budgets first..b-1 are all refuted; run that model
        // optimistically. (A pinned feasible point is feasible unpinned
        // too, so even invalidated speculation never misleads the replay —
        // it just re-solves live.)
        slot.floor =
            options.budget_floor_rows && budget > first_budget ? budget : 0;
        slot.result =
            solve_budget(budget, slot.floor, stage_options, &slot.failure);
        const std::lock_guard<std::mutex> lock(mutex);
        // A token that tripped during the solve truncated it; whatever it
        // returned does not represent the full stage.
        slot.usable = !stop.stop_requested();
        if (slot.usable && slot.result.has_value() && budget < winner) {
          winner = budget;
          for (int j = 0; j < count; ++j) {
            if (first_budget + j > winner) stops[static_cast<std::size_t>(j)]
                .request_stop();
          }
        }
      });
  return cache;
}

/// Shared III-B-3 budget-escalation loop with optimality-certificate
/// tracking. A budget-k model admits every cover of at most k chains
/// (unused chains stay empty), so one proven-infeasible budget certifies
/// that no smaller cover exists and the next model can pin its use
/// indicators (objective floor). `solve_budget(budget, floor, opts,
/// &failure)` returns the engine result or nullopt with the failure
/// diagnostics.
///
/// With options.escalation_threads > 1 the stages are pre-solved
/// concurrently (precompute_stages above) and the loop below consumes a
/// cached stage whenever its floor matches the one the serial rules
/// compute — so the stage sequence, certificates, and (with
/// options.threads == 1 and no limits hit) per-stage counters are
/// identical to the single-threaded escalation.
template <typename ResultT, typename SolveBudget>
std::optional<ResultT> escalate_budgets(int first_budget, int last_budget,
                                        const ilp::Options& options,
                                        const char* kind,
                                        SolveBudget&& solve_budget,
                                        const StoreHooks<ResultT>& hooks = {}) {
  const bool budget_floor_rows = options.budget_floor_rows;
  const std::size_t stage_count =
      static_cast<std::size_t>(last_budget - first_budget + 1);

  // Preload the stage records once: the replay loop below consults them
  // in budget order, and the parallel pre-solve uses them as a cost model
  // (cheap-first scheduling) and a skip list.
  std::vector<std::optional<StageRecord>> records(stage_count);
  if (hooks.store != nullptr) {
    for (std::size_t i = 0; i < stage_count; ++i) {
      records[i] = hooks.store->load(hooks.key, first_budget +
                                                    static_cast<int>(i));
    }
  }

  std::vector<StageCache<ResultT>> cache;
  const int escalation_threads =
      common::resolve_thread_count(options.escalation_threads);
  if (escalation_threads > 1 && last_budget > first_budget) {
    std::vector<char> skip(stage_count, 0);
    std::vector<double> predicted(stage_count,
                                  std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < stage_count; ++i) {
      if (!records[i].has_value()) continue;
      predicted[i] = records[i]->stage.seconds;
      // A record the replay loop will trust (floor agreement is checked
      // there; its own recorded floor passes trivially here) needs no
      // speculative pre-solve — don't burn a core on it.
      if (record_trusted(*records[i], hooks, records[i]->floor)) skip[i] = 1;
    }
    cache = precompute_stages<ResultT>(first_budget, last_budget, options,
                                       escalation_threads, solve_budget,
                                       skip, predicted);
  }
  int proven_floor = 0;
  // Factorization and conflict work done by the abandoned/infeasible
  // budget stages. The headline counters (nodes, pivots) keep their
  // historical final-stage-only meaning — they gate CI against committed
  // baselines — but the basis and learning diagnostics are only useful as
  // totals over the whole escalation, so they accumulate here and fold
  // into the final result; the per-stage breakdown lands in `stages`.
  long stage_refactorizations = 0;
  long stage_basis_updates = 0;
  long stage_warm_cut_rows = 0;
  long stage_basis_restores = 0;
  long stage_conflicts = 0;
  long stage_nogoods_learned = 0;
  long stage_nogoods_deleted = 0;
  long stage_backjumps = 0;
  long stage_backjump_nodes_skipped = 0;
  long stage_restarts = 0;
  long stage_lp_nogoods = 0;
  std::vector<BudgetStage> stages;
  const auto record_stage = [&stages](int budget, const ilp::Result& r) {
    BudgetStage stage;
    stage.budget = budget;
    stage.status = r.status;
    stage.nodes = r.nodes;
    stage.lp_pivots = r.lp_pivots;
    stage.seconds = r.seconds;
    stage.conflicts = r.conflicts;
    stage.nogoods_learned = r.nogoods_learned;
    stage.backjumps = r.backjumps;
    stage.restarts = r.restarts;
    stage.lp_nogoods = r.lp_nogoods_learned;
    stages.push_back(stage);
  };
  const auto persist = [&hooks](int budget, int floor,
                                const BudgetStage& stage, bool partial,
                                const ilp::Result* diagnostics,
                                std::vector<std::string> witness) {
    if (hooks.store == nullptr) return;
    StageRecord out;
    out.config_fp = hooks.config_fp;
    out.limits_fp = hooks.limits_fp;
    out.floor = floor;
    out.stage = stage;
    out.partial = partial;
    if (partial && diagnostics != nullptr) {
      out.stage.status = ilp::ResultStatus::kUnknown;
      out.best_bound = diagnostics->best_bound;
      out.seeds = diagnostics->unit_nogoods;
    }
    out.witness = std::move(witness);
    hooks.store->save(hooks.key, budget, out);
  };
  for (int budget = first_budget; budget <= last_budget; ++budget) {
    if (options.stop.stop_requested()) return std::nullopt;
    ilp::Result failure;
    const int floor =
        budget_floor_rows && proven_floor == budget ? proven_floor : 0;
    std::optional<ResultT> result;
    const std::size_t slot_index =
        static_cast<std::size_t>(budget - first_budget);
    const StageRecord* record = slot_index < records.size() &&
                                        records[slot_index].has_value()
                                    ? &*records[slot_index]
                                    : nullptr;
    // Resume path: a stored record that matches this iteration's exact
    // model substitutes for the solve. Refutations and abandonments are
    // replayed as recorded; a feasible final stage is never trusted
    // blindly — its witness is re-validated below, and any failure there
    // falls through to a live re-solve.
    if (record != nullptr && record_trusted(*record, hooks, floor)) {
      if (record->stage.status == ilp::ResultStatus::kInfeasible) {
        stages.push_back(record->stage);
        proven_floor = budget + 1;
        common::log_debug(common::cat(kind, " ILP budget ", budget,
                                      ": resumed stored refutation"));
        continue;
      }
      if (record->stage.status == ilp::ResultStatus::kUnknown) {
        stages.push_back(record->stage);
        common::log_debug(common::cat(kind, " ILP budget ", budget,
                                      ": resumed stored abandonment (no "
                                      "certificate); enlarging"));
        continue;
      }
      if (hooks.verify) {
        if (auto verified = hooks.verify(budget, record->witness)) {
          verified->proven_minimal =
              record->stage.status == ilp::ResultStatus::kOptimal;
          stages.push_back(record->stage);
          verified->stages = std::move(stages);
          // Reproduce the recorded final-stage report; the re-verification
          // itself costs no nodes or pivots. Basis/learning totals of the
          // resumed run cover only its live-solved stages.
          verified->ilp.status = record->stage.status;
          verified->ilp.nodes = record->stage.nodes;
          verified->ilp.lp_pivots = record->stage.lp_pivots;
          verified->ilp.seconds = record->stage.seconds;
          verified->ilp.conflicts = record->stage.conflicts;
          verified->ilp.nogoods_learned = record->stage.nogoods_learned;
          verified->ilp.backjumps = record->stage.backjumps;
          verified->ilp.restarts = record->stage.restarts;
          verified->ilp.lp_nogoods_learned = record->stage.lp_nogoods;
          verified->ilp.lp_refactorizations += stage_refactorizations;
          verified->ilp.lp_basis_updates += stage_basis_updates;
          verified->ilp.warm_cut_rows += stage_warm_cut_rows;
          verified->ilp.basis_restores += stage_basis_restores;
          verified->ilp.conflicts += stage_conflicts;
          verified->ilp.nogoods_learned += stage_nogoods_learned;
          verified->ilp.nogoods_deleted += stage_nogoods_deleted;
          verified->ilp.backjumps += stage_backjumps;
          verified->ilp.backjump_nodes_skipped += stage_backjump_nodes_skipped;
          verified->ilp.restarts += stage_restarts;
          verified->ilp.lp_nogoods_learned += stage_lp_nogoods;
          common::log_debug(common::cat(kind, " ILP budget ", budget,
                                        ": stored witness re-validated"));
          return verified;
        }
        common::log_warning(common::cat(
            kind, " ILP budget ", budget,
            ": stored witness failed re-validation; re-solving live"));
      }
    }
    StageCache<ResultT>* slot =
        slot_index < cache.size() ? &cache[slot_index] : nullptr;
    if (slot != nullptr && slot->usable && slot->floor == floor) {
      // The pre-solved stage ran exactly the model this iteration wants.
      result = std::move(slot->result);
      failure = slot->failure;
    } else if (record != nullptr && record->partial &&
               record->config_fp == hooks.config_fp &&
               record->floor == floor && !record->seeds.empty()) {
      // Deadline checkpoint from an earlier attempt: extend it. The seeds
      // are globally valid unit nogoods, so the stage restarts with that
      // part of the search already pruned (counters will differ from an
      // unseeded solve; status/budget/certificates cannot).
      ilp::Options seeded = options;
      seeded.seed_literals = record->seeds;
      common::log_debug(common::cat(kind, " ILP budget ", budget,
                                    ": resuming from checkpoint with ",
                                    record->seeds.size(), " seed nogoods"));
      result = solve_budget(budget, floor, seeded, &failure);
    } else {
      result = solve_budget(budget, floor, options, &failure);
    }
    if (result.has_value()) {
      // A proven-optimal final solve is a minimality certificate on
      // either path, so earlier stages abandoned on limits cannot poison
      // it (previously they did, unconditionally):
      //  - floor == 0 (unpinned): a budget-b model admits every cover of
      //    at most b chains (unused chains stay empty), so its proven
      //    optimum is the global minimum outright;
      //  - floor == b (pinned): pinning required budget b-1 proven
      //    infeasible, and budget-(b-1) infeasibility certifies that no
      //    cover of at most b-1 chains exists — subsuming every earlier
      //    stage, abandoned or not.
      result->proven_minimal =
          result->ilp.status == ilp::ResultStatus::kOptimal;
      record_stage(budget, result->ilp);
      persist(budget, floor, stages.back(), /*partial=*/false, nullptr,
              hooks.serialize ? hooks.serialize(*result)
                              : std::vector<std::string>{});
      result->stages = std::move(stages);
      result->ilp.lp_refactorizations += stage_refactorizations;
      result->ilp.lp_basis_updates += stage_basis_updates;
      result->ilp.warm_cut_rows += stage_warm_cut_rows;
      result->ilp.basis_restores += stage_basis_restores;
      result->ilp.conflicts += stage_conflicts;
      result->ilp.nogoods_learned += stage_nogoods_learned;
      result->ilp.nogoods_deleted += stage_nogoods_deleted;
      result->ilp.backjumps += stage_backjumps;
      result->ilp.backjump_nodes_skipped += stage_backjump_nodes_skipped;
      result->ilp.restarts += stage_restarts;
      result->ilp.lp_nogoods_learned += stage_lp_nogoods;
      return result;
    }
    record_stage(budget, failure);
    if (options.stop.stop_requested() &&
        failure.status != ilp::ResultStatus::kInfeasible) {
      // The caller's stop (deadline or cancel) truncated this stage, so
      // what we measured is not a stage outcome. Checkpoint the anytime
      // certificate — dual bound plus the globally valid unit nogoods the
      // truncated search learned — for a future resume, and wind down.
      persist(budget, floor, stages.back(), /*partial=*/true, &failure, {});
      return std::nullopt;
    }
    persist(budget, floor, stages.back(), /*partial=*/false, nullptr, {});
    stage_refactorizations += failure.lp_refactorizations;
    stage_basis_updates += failure.lp_basis_updates;
    stage_warm_cut_rows += failure.warm_cut_rows;
    stage_basis_restores += failure.basis_restores;
    stage_conflicts += failure.conflicts;
    stage_nogoods_learned += failure.nogoods_learned;
    stage_nogoods_deleted += failure.nogoods_deleted;
    stage_backjumps += failure.backjumps;
    stage_backjump_nodes_skipped += failure.backjump_nodes_skipped;
    stage_restarts += failure.restarts;
    stage_lp_nogoods += failure.lp_nogoods_learned;
    if (failure.status == ilp::ResultStatus::kInfeasible) {
      proven_floor = budget + 1;
      common::log_debug(common::cat(kind, " ILP proven infeasible with "
                                          "budget ",
                                    budget, "; enlarging"));
    } else {
      // Abandoned on node/time limits: this budget carries no refutation,
      // so the floor stops advancing; a later stage can still certify
      // minimality on its own (see the certificate comment above).
      common::log_debug(common::cat(kind, " ILP abandoned on limits with "
                                          "budget ",
                                    budget, " (no certificate); enlarging"));
    }
  }
  return std::nullopt;
}

// ---- Witness codecs -------------------------------------------------------
//
// A stored feasible stage carries its cover as opaque lines; re-validation
// rebuilds the cover and replays it through the structural validators and
// the fault-free simulator (to_test_vector), then re-checks coverage and
// budget. Milliseconds against the minutes a re-solve would cost, and any
// defect — tampered file, stale format, wrong array — degrades to that
// re-solve.

std::vector<std::string> serialize_path_witness(const IlpPathResult& result) {
  std::vector<std::string> lines;
  for (const FlowPath& path : result.paths) {
    std::ostringstream out;
    out << "path " << path.source_port << ' ' << path.sink_port;
    for (const grid::Cell& cell : path.cells) {
      out << ' ' << cell.row << ' ' << cell.col;
    }
    lines.push_back(out.str());
  }
  return lines;
}

std::optional<IlpPathResult> verify_path_witness(
    const grid::ValveArray& array, int budget,
    const std::vector<std::string>& witness) {
  if (witness.empty() || static_cast<int>(witness.size()) > budget) {
    return std::nullopt;
  }
  IlpPathResult result;
  const sim::Simulator simulator(array);
  std::vector<char> covered(static_cast<std::size_t>(array.valve_count()), 0);
  for (const std::string& line : witness) {
    std::istringstream in(line);
    std::string tag;
    FlowPath path;
    if (!(in >> tag >> path.source_port >> path.sink_port) || tag != "path") {
      return std::nullopt;
    }
    int row = 0;
    int col = 0;
    while (in >> row >> col) path.cells.push_back(grid::Cell{row, col});
    if (validate_flow_path(array, path).has_value()) return std::nullopt;
    for (const grid::ValveId v : path_valves(array, path)) {
      covered[static_cast<std::size_t>(v)] = 1;
    }
    to_test_vector(array, simulator, path, "resume-verify");  // sim replay
    result.paths.push_back(std::move(path));
  }
  for (const char c : covered) {
    if (c == 0) return std::nullopt;  // witness is not a cover
  }
  result.path_budget = static_cast<int>(result.paths.size());
  return result;
}

std::vector<std::string> serialize_cut_witness(const IlpCutResult& result) {
  std::vector<std::string> lines;
  for (const CutSet& cut : result.cuts) {
    std::ostringstream out;
    out << "cut";
    for (const Site& site : cut.sites) {
      out << ' ' << site.row << ' ' << site.col;
    }
    lines.push_back(out.str());
  }
  return lines;
}

std::optional<IlpCutResult> verify_cut_witness(
    const grid::ValveArray& array, int budget,
    const std::vector<std::string>& witness) {
  if (witness.empty() || static_cast<int>(witness.size()) > budget) {
    return std::nullopt;
  }
  IlpCutResult result;
  const sim::Simulator simulator(array);
  std::vector<char> covered(static_cast<std::size_t>(array.valve_count()), 0);
  for (const std::string& line : witness) {
    std::istringstream in(line);
    std::string tag;
    if (!(in >> tag) || tag != "cut") return std::nullopt;
    CutSet cut;
    int row = 0;
    int col = 0;
    while (in >> row >> col) cut.sites.push_back(Site{row, col});
    if (cut.sites.empty()) return std::nullopt;
    // validate_cut_set simulates the closed-cut chip and requires a
    // separated sink — the certificate's observability condition.
    if (validate_cut_set(array, cut).has_value()) return std::nullopt;
    for (const grid::ValveId v : cut_valves(array, cut)) {
      covered[static_cast<std::size_t>(v)] = 1;
    }
    to_test_vector(array, simulator, cut, "resume-verify");  // sim replay
    result.cuts.push_back(std::move(cut));
  }
  for (const char c : covered) {
    if (c == 0) return std::nullopt;
  }
  result.cut_budget = static_cast<int>(result.cuts.size());
  return result;
}

}  // namespace

std::optional<IlpPathResult> find_minimum_flow_paths(
    const grid::ValveArray& array, int first_budget, int last_budget,
    const ilp::Options& options, CertStore* store) {
  StoreHooks<IlpPathResult> hooks;
  if (store != nullptr && store->enabled()) {
    hooks.store = store;
    hooks.key = CertStore::key_for(array, "path");
    hooks.config_fp = fingerprint_config(options);
    hooks.limits_fp = fingerprint_limits(options);
    hooks.serialize = serialize_path_witness;
    hooks.verify = [&array](int budget,
                            const std::vector<std::string>& witness) {
      return verify_path_witness(array, budget, witness);
    };
  }
  return escalate_budgets<IlpPathResult>(
      first_budget, last_budget, options, "flow-path",
      [&](int budget, int floor, const ilp::Options& stage_options,
          ilp::Result* failure) {
        return solve_flow_path_model(array, budget, stage_options, floor,
                                     failure);
      },
      hooks);
}

std::optional<IlpCutResult> solve_cut_set_model(
    const grid::ValveArray& array, int max_cuts, bool masking_exclusion,
    const ilp::Options& options, int proven_budget_floor,
    ilp::Result* failure_diagnostics) {
  // Nodes = junction posts; sites = crossable sites (valves cover, walls
  // free); terminals = boundary posts of the two arcs.
  int arc_count = 0;
  const std::vector<int> arcs = dual_boundary_arcs(array, &arc_count);
  if (arc_count != 2) {
    common::log_warning(
        "cut-set ILP supports exactly two boundary arcs (one source group, "
        "one sink group)");
    return std::nullopt;
  }

  ChainSpec spec;
  spec.masking_exclusion = masking_exclusion;
  spec.orbit_symmetry = options.orbit_symmetry_rows;
  spec.objective_floor = proven_budget_floor;
  spec.node_count = (array.rows() + 1) * (array.cols() + 1);

  std::vector<Site> site_of;
  std::vector<Site> port_sites;
  for (const grid::Port& port : array.ports()) {
    port_sites.push_back(port.site);
  }
  for (int r = 0; r < array.site_rows(); ++r) {
    for (int c = 0; c < array.site_cols(); ++c) {
      const Site site{r, c};
      if (!has_valve_parity(site)) continue;
      const grid::SiteKind kind = array.site_kind(site);
      if (kind == grid::SiteKind::kChannel) continue;  // uncuttable
      if (std::find(port_sites.begin(), port_sites.end(), site) !=
          port_sites.end()) {
        continue;  // a port gateway cannot be closed
      }
      SiteSpec entry;
      // End posts of the crossing.
      Site post_a, post_b;
      if (site.row % 2 != 0) {
        post_a = Site{site.row - 1, site.col};
        post_b = Site{site.row + 1, site.col};
      } else {
        post_a = Site{site.row, site.col - 1};
        post_b = Site{site.row, site.col + 1};
      }
      entry.node_a = dual_post_id(array, post_a);
      entry.node_b = dual_post_id(array, post_b);
      entry.needs_cover = kind == grid::SiteKind::kValve;
      spec.sites.push_back(entry);
      site_of.push_back(site);
    }
  }
  // Terminal attachments: arc 0 injects, every other arc absorbs.
  const int post_count = spec.node_count;
  for (int post = 0; post < post_count; ++post) {
    const int arc = arcs[static_cast<std::size_t>(post)];
    if (arc < 0) continue;
    SiteSpec entry;
    entry.node_a = post;
    entry.node_b = -1;
    entry.port = arc == 0 ? PortSide::kSource : PortSide::kSink;
    spec.sites.push_back(entry);
    site_of.push_back(Site{-1, -1});  // virtual
  }

  IlpCutResult result;
  auto chains = solve_chain_model(spec, max_cuts, options, &result.ilp);
  if (!chains.has_value()) {
    if (failure_diagnostics != nullptr) *failure_diagnostics = result.ilp;
    return std::nullopt;
  }

  for (const Chain& chain : *chains) {
    CutSet cut;
    for (const int s : chain.sites) {
      const Site site = site_of[static_cast<std::size_t>(s)];
      if (site.row >= 0) cut.sites.push_back(site);
    }
    const auto problem = validate_cut_set(array, cut);
    if (problem.has_value()) {
      common::fail(common::cat(
          "ILP cut extraction produced an invalid cut: ", *problem));
    }
    result.cuts.push_back(std::move(cut));
  }
  // See path_budget: report the number of cuts actually used.
  result.cut_budget = static_cast<int>(result.cuts.size());
  return result;
}

std::optional<IlpCutResult> find_minimum_cut_sets(
    const grid::ValveArray& array, int first_budget, int last_budget,
    bool masking_exclusion, const ilp::Options& options, CertStore* store) {
  StoreHooks<IlpCutResult> hooks;
  if (store != nullptr && store->enabled()) {
    hooks.store = store;
    // The masking-exclusion rows change the model, so certificates from
    // the two variants must never cross: separate content keys.
    hooks.key =
        CertStore::key_for(array, masking_exclusion ? "cut+mask" : "cut");
    hooks.config_fp = fingerprint_config(options);
    hooks.limits_fp = fingerprint_limits(options);
    hooks.serialize = serialize_cut_witness;
    hooks.verify = [&array](int budget,
                            const std::vector<std::string>& witness) {
      return verify_cut_witness(array, budget, witness);
    };
  }
  return escalate_budgets<IlpCutResult>(
      first_budget, last_budget, options, "cut-set",
      [&](int budget, int floor, const ilp::Options& stage_options,
          ilp::Result* failure) {
        return solve_cut_set_model(array, budget, masking_exclusion,
                                   stage_options, floor, failure);
      },
      hooks);
}

}  // namespace fpva::core
