#include "sim/simulator.h"

#include <algorithm>

#include "common/check.h"
#include "common/strings.h"

namespace fpva::sim {

using grid::Cell;
using grid::Direction;
using grid::Site;
using grid::SiteKind;

const char* to_cstring(VectorKind kind) {
  switch (kind) {
    case VectorKind::kFlowPath: return "path";
    case VectorKind::kCutSet: return "cut";
    case VectorKind::kControlLeak: return "leak";
    case VectorKind::kOther: return "other";
  }
  return "?";
}

Simulator::Simulator(const grid::ValveArray& array)
    : array_(&array), topology_(array) {
  pressurized_.assign(static_cast<std::size_t>(topology_.cell_count()), 0);
  frontier_.reserve(static_cast<std::size_t>(topology_.cell_count()));
  open_scratch_.assign(static_cast<std::size_t>(array.valve_count()), 0);
  degraded_scratch_.assign(static_cast<std::size_t>(array.valve_count()), 0);
  valve_cells_.assign(static_cast<std::size_t>(array.valve_count()),
                      {-1, -1});
  for (int cell = 0; cell < topology_.cell_count(); ++cell) {
    for (const FlowLink& link : topology_.links_of(cell)) {
      if (link.valve != grid::kInvalidValve) {
        valve_cells_[static_cast<std::size_t>(link.valve)] = {cell, link.to};
      }
    }
  }
}

void Simulator::resolve_open(const ValveStates& states,
                             std::span<const Fault> faults) const {
  common::check(static_cast<int>(states.size()) == array_->valve_count(),
                "Simulator: vector arity != valve count");
  for (int v = 0; v < array_->valve_count(); ++v) {
    open_scratch_[static_cast<std::size_t>(v)] =
        states[static_cast<std::size_t>(v)] ? 1 : 0;
  }
  apply_faults(states, faults);
}

void Simulator::apply_faults(const ValveStates& states,
                             std::span<const Fault> faults) const {
  const auto valid = [&](grid::ValveId id) {
    return id >= 0 && id < array_->valve_count();
  };
  // Control leaks: shared control pressure closes both partners whenever
  // either is actuated (commanded closed).
  for (const Fault& fault : faults) {
    if (fault.type != FaultType::kControlLeak) continue;
    common::check(valid(fault.valve) && valid(fault.partner),
                  "Simulator: control-leak fault on invalid valves");
    const bool either_actuated =
        !states[static_cast<std::size_t>(fault.valve)] ||
        !states[static_cast<std::size_t>(fault.partner)];
    if (either_actuated) {
      open_scratch_[static_cast<std::size_t>(fault.valve)] = 0;
      open_scratch_[static_cast<std::size_t>(fault.partner)] = 0;
    }
  }
  // Stuck-at-0 (cannot open) overrides commands and leaks.
  for (const Fault& fault : faults) {
    if (fault.type != FaultType::kStuckAt0) continue;
    common::check(valid(fault.valve), "Simulator: sa0 on invalid valve");
    open_scratch_[static_cast<std::size_t>(fault.valve)] = 0;
  }
  // Stuck-at-1 (cannot close): a flow-layer defect keeps the channel open
  // regardless of control pressure, so it wins last.
  for (const Fault& fault : faults) {
    if (fault.type != FaultType::kStuckAt1) continue;
    common::check(valid(fault.valve), "Simulator: sa1 on invalid valve");
    open_scratch_[static_cast<std::size_t>(fault.valve)] = 1;
  }
}

ValveStates Simulator::effective_states(const ValveStates& states,
                                        std::span<const Fault> faults) const {
  resolve_open(states, faults);
  ValveStates effective(open_scratch_.size());
  for (std::size_t v = 0; v < open_scratch_.size(); ++v) {
    effective[v] = open_scratch_[v] != 0;
  }
  return effective;
}

std::vector<bool> Simulator::readings(const ValveStates& states,
                                      std::span<const Fault> faults) const {
  // Resolve effective openness into the flat scratch buffer, and gather the
  // degraded valves that can actually weaken anything (effectively open).
  resolve_open(states, faults);
  bool any_degraded = false;
  for (const Fault& fault : faults) {
    if (fault.type != FaultType::kDegradedFlow) continue;
    common::check(fault.valve >= 0 && fault.valve < array_->valve_count(),
                  "Simulator: degraded-flow fault on invalid valve");
    if (!open_scratch_[static_cast<std::size_t>(fault.valve)]) continue;
    if (!any_degraded) {
      std::fill(degraded_scratch_.begin(), degraded_scratch_.end(), 0);
      any_degraded = true;
    }
    degraded_scratch_[static_cast<std::size_t>(fault.valve)] = 1;
  }

  // BFS flood from all source cells. pressurized_ holds the pressure level:
  // 0 dry, kWeak crossed one open degraded valve, kFull crossed none.
  constexpr char kWeak = 1;
  constexpr char kFull = 2;
  std::fill(pressurized_.begin(), pressurized_.end(), 0);
  frontier_.clear();
  for (const int cell : topology_.source_cells()) {
    if (!pressurized_[static_cast<std::size_t>(cell)]) {
      pressurized_[static_cast<std::size_t>(cell)] = kFull;
      frontier_.push_back(cell);
    }
  }
  // Phase 1: full pressure through open, non-degraded sites.
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const int cell = frontier_[head];
    for (const FlowLink& link : topology_.links_of(cell)) {
      if (link.valve != grid::kInvalidValve) {
        if (!open_scratch_[static_cast<std::size_t>(link.valve)]) continue;
        if (any_degraded &&
            degraded_scratch_[static_cast<std::size_t>(link.valve)]) {
          continue;
        }
      }
      if (!pressurized_[static_cast<std::size_t>(link.to)]) {
        pressurized_[static_cast<std::size_t>(link.to)] = kFull;
        frontier_.push_back(link.to);
      }
    }
  }
  if (any_degraded) {
    // Phase 2a: one degraded crossing demotes full to weak. The frontier
    // currently holds exactly the full cells; weak seeds append after them.
    const std::size_t full_cells = frontier_.size();
    for (std::size_t head = 0; head < full_cells; ++head) {
      const int cell = frontier_[head];
      for (const FlowLink& link : topology_.links_of(cell)) {
        if (link.valve == grid::kInvalidValve ||
            !open_scratch_[static_cast<std::size_t>(link.valve)] ||
            !degraded_scratch_[static_cast<std::size_t>(link.valve)]) {
          continue;
        }
        if (!pressurized_[static_cast<std::size_t>(link.to)]) {
          pressurized_[static_cast<std::size_t>(link.to)] = kWeak;
          frontier_.push_back(link.to);
        }
      }
    }
    // Phase 2b: weak pressure spreads through clean open sites only; a
    // second degraded crossing would drop it below the meter threshold.
    for (std::size_t head = full_cells; head < frontier_.size(); ++head) {
      const int cell = frontier_[head];
      for (const FlowLink& link : topology_.links_of(cell)) {
        if (link.valve != grid::kInvalidValve &&
            (!open_scratch_[static_cast<std::size_t>(link.valve)] ||
             degraded_scratch_[static_cast<std::size_t>(link.valve)])) {
          continue;
        }
        if (!pressurized_[static_cast<std::size_t>(link.to)]) {
          pressurized_[static_cast<std::size_t>(link.to)] = kWeak;
          frontier_.push_back(link.to);
        }
      }
    }
  }

  const std::vector<int>& sink_cells = topology_.sink_cells();
  std::vector<bool> result(sink_cells.size());
  for (std::size_t s = 0; s < sink_cells.size(); ++s) {
    result[s] = pressurized_[static_cast<std::size_t>(sink_cells[s])] != 0;
  }
  return result;
}

std::vector<bool> Simulator::fault_free_pressure(
    const ValveStates& states) const {
  (void)readings(states, {});  // floods into pressurized_
  std::vector<bool> pressure(pressurized_.size());
  for (std::size_t cell = 0; cell < pressure.size(); ++cell) {
    pressure[cell] = pressurized_[cell] != 0;
  }
  return pressure;
}

bool Simulator::flood_unchanged(const ValveStates& states,
                                std::span<const Fault> faults,
                                const std::vector<bool>& fault_free) const {
  common::check(static_cast<int>(states.size()) == array_->valve_count(),
                "Simulator: vector arity != valve count");
  common::check(static_cast<int>(fault_free.size()) == topology_.cell_count(),
                "Simulator: fault-free pressure arity != cell count");
  // Resolve only the named valves: seed each with its command, then apply
  // the shared rules (which also validate the ids, in readings()' order).
  const auto seed = [&](grid::ValveId v) {
    if (v >= 0 && v < array_->valve_count()) {
      open_scratch_[static_cast<std::size_t>(v)] =
          states[static_cast<std::size_t>(v)] ? 1 : 0;
    }
  };
  for (const Fault& fault : faults) {
    seed(fault.valve);
    if (fault.type == FaultType::kControlLeak) seed(fault.partner);
  }
  apply_faults(states, faults);

  const auto wet = [&](int cell) {
    return fault_free[static_cast<std::size_t>(cell)];
  };
  // A named valve changes the flood when it is opened between cells of
  // different fault-free pressure or closed between wet cells.
  const auto changes = [&](grid::ValveId v) {
    const bool open = open_scratch_[static_cast<std::size_t>(v)] != 0;
    const auto [a, b] = valve_cells_[static_cast<std::size_t>(v)];
    if (open == states[static_cast<std::size_t>(v)] || a < 0) return false;
    return open ? wet(a) != wet(b) : wet(a) || wet(b);
  };
  // Every fault is visited before the verdict, so an invalid degraded id
  // throws even when an earlier fault already decided it.
  bool unchanged = true;
  for (const Fault& fault : faults) {
    if (fault.type == FaultType::kDegradedFlow) {
      common::check(fault.valve >= 0 && fault.valve < array_->valve_count(),
                    "Simulator: degraded-flow fault on invalid valve");
      // A degraded valve weakens only flow it carries: it must be
      // effectively open between wet cells.
      const auto [a, b] = valve_cells_[static_cast<std::size_t>(fault.valve)];
      if (open_scratch_[static_cast<std::size_t>(fault.valve)] && a >= 0 &&
          (wet(a) || wet(b))) {
        unchanged = false;
      }
    }
    if (changes(fault.valve) ||
        (fault.type == FaultType::kControlLeak && changes(fault.partner))) {
      unchanged = false;
    }
  }
  return unchanged;
}

bool Simulator::detects(const TestVector& vector,
                        std::span<const Fault> faults) const {
  common::check(static_cast<int>(vector.expected.size()) == sink_count(),
                "Simulator: vector expected-arity != sink count");
  return readings(vector.states, faults) != vector.expected;
}

bool Simulator::any_detects(std::span<const TestVector> vectors,
                            std::span<const Fault> faults) const {
  for (const TestVector& vector : vectors) {
    if (detects(vector, faults)) {
      return true;
    }
  }
  return false;
}

}  // namespace fpva::sim
