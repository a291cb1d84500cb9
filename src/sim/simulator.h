// Behavioral pressure simulator for FPVAs.
//
// Pressure propagation in the flow layer is reachability: a fluid cell is
// pressurized exactly when it is connected to a source port through open
// sites. This reproduces the observation model of the paper (and of Hu et
// al., TCAD'14, its fault-model source): pressure meters at sink ports read
// a binary pressure/no-pressure value.
//
// Degraded-flow faults refine reachability into two pressure levels. Every
// open degraded valve on a path drops the level once (full -> weak ->
// nothing); a meter reads pressurized when some path delivers full or weak
// pressure, i.e. crosses at most one open degraded valve. With no degraded
// fault in the scenario this collapses to plain reachability.
#ifndef FPVA_SIM_SIMULATOR_H
#define FPVA_SIM_SIMULATOR_H

#include <span>
#include <utility>
#include <vector>

#include "grid/array.h"
#include "sim/fault.h"
#include "sim/flow_topology.h"
#include "sim/test_vector.h"

namespace fpva::sim {

/// Simulates one ValveArray. Construction precomputes the cell adjacency;
/// readings() then runs an allocation-free BFS per call.
///
/// Most faults cannot change what a given vector floods, and
/// flood_unchanged() proves that without flooding. It resolves only the
/// valves the faults name, with the rules and order of effective_states().
/// A named valve changes nothing when its effective state equals its
/// command, when it gates no flow link, when it is opened (commanded
/// closed, effectively open) between two cells of equal fault-free
/// pressure, or when it is closed (commanded open, effectively closed)
/// between dry cells. A degraded fault changes nothing when its valve is
/// effectively closed or its cells are dry. Proof sketch: let F be the
/// fault-free flood. Under those conditions no newly open link touches F
/// unless both its cells are in F, no closed link lies inside F, and every
/// degraded crossing lies outside F. So F is still reached at full
/// pressure and nothing beyond it is: the readings are exactly the
/// fault-free readings. When any named valve fails its condition the
/// screen answers "may change", and the caller floods with readings(),
/// which stays the only flood routine and the oracle.
///
/// Not thread-safe: scratch buffers are reused across calls. Create one
/// Simulator per thread.
class Simulator {
 public:
  explicit Simulator(const grid::ValveArray& array);

  const grid::ValveArray& array() const { return *array_; }

  /// Effective open/closed state of every valve under `faults`, starting
  /// from commanded `states`. Resolution order: control leaks first (either
  /// partner commanded closed closes both), then stuck-at-0 forces closed,
  /// then stuck-at-1 forces open (a flow-layer leak defeats any control
  /// pressure). Degraded-flow faults never change the open/closed state;
  /// they weaken flow through the (effectively open) valve and are applied
  /// by readings().
  ValveStates effective_states(const ValveStates& states,
                               std::span<const Fault> faults) const;

  /// Pressure reading at each sink port (order of ports_of_kind(kSink)).
  std::vector<bool> readings(const ValveStates& states,
                             std::span<const Fault> faults = {}) const;

  /// Fault-free readings, i.e. the expected response of a good chip.
  std::vector<bool> expected(const ValveStates& states) const {
    return readings(states, {});
  }

  /// Fault-free pressure of every cell under `states` (true = wet, indexed
  /// like topology() cells): the reference flood_unchanged() reads.
  std::vector<bool> fault_free_pressure(const ValveStates& states) const;

  /// Exact screen: true when `faults` provably leave the fault-free flood of
  /// `states` unchanged (rule in the class comment), so readings(states,
  /// faults) equals expected(states) without a flood. False means "may
  /// change", not "changes". `fault_free` must be fault_free_pressure(states).
  /// Resolves only the named valves, in O(faults); invalid valve ids throw
  /// the same errors readings() throws.
  bool flood_unchanged(const ValveStates& states,
                       std::span<const Fault> faults,
                       const std::vector<bool>& fault_free) const;

  /// True when the faulty readings differ from `vector.expected`.
  bool detects(const TestVector& vector, std::span<const Fault> faults) const;

  /// True when at least one vector in `vectors` detects `faults`.
  bool any_detects(std::span<const TestVector> vectors,
                   std::span<const Fault> faults) const;

  /// Number of sink ports (arity of readings()).
  int sink_count() const {
    return static_cast<int>(topology_.sink_cells().size());
  }

  /// The packed flow-layer adjacency (shared with BatchSimulator).
  const FlowTopology& topology() const { return topology_; }

 private:
  /// Writes the effective openness of every valve (the resolution rules
  /// of effective_states()) into open_scratch_.
  void resolve_open(const ValveStates& states,
                    std::span<const Fault> faults) const;

  /// The resolution rules proper: applies leaks, then sa0, then sa1 to the
  /// open_scratch_ entries of the valves `faults` name, which must already
  /// hold their commanded state. Throws on invalid valve ids.
  void apply_faults(const ValveStates& states,
                    std::span<const Fault> faults) const;

  const grid::ValveArray* array_;
  FlowTopology topology_;
  /// The two cells each valve gates, or {-1, -1} when it gates no link.
  std::vector<std::pair<int, int>> valve_cells_;
  mutable std::vector<char> pressurized_;      // scratch
  mutable std::vector<int> frontier_;          // scratch
  mutable std::vector<char> open_scratch_;     // scratch
  mutable std::vector<char> degraded_scratch_; // scratch (per valve)
};

}  // namespace fpva::sim

#endif  // FPVA_SIM_SIMULATOR_H
