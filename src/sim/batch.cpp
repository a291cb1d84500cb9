#include "sim/batch.h"

#include <algorithm>
#include <array>

#include "common/check.h"

namespace fpva::sim {

namespace {

constexpr BatchSimulator::LaneMask kAllLanes = ~0ULL;

/// Per-lane fault lists of one pass, filled front to back.
using LaneArray = std::array<std::span<const Fault>, BatchSimulator::kLanes>;

LaneArray lanes_of(std::span<const FaultScenario> scenarios) {
  common::check(scenarios.size() <= BatchSimulator::kLanes,
                "BatchSimulator: too many scenarios");
  LaneArray lanes;
  for (std::size_t lane = 0; lane < scenarios.size(); ++lane) {
    lanes[lane] = scenarios[lane];
  }
  return lanes;
}

}  // namespace

BatchSimulator::BatchSimulator(const grid::ValveArray& array)
    : array_(&array), topology_(array) {
  open_lanes_.assign(static_cast<std::size_t>(array.valve_count()), 0);
  degraded_lanes_.assign(static_cast<std::size_t>(array.valve_count()), 0);
  pressurized_.assign(static_cast<std::size_t>(topology_.cell_count()), 0);
  full_flow_.assign(static_cast<std::size_t>(topology_.cell_count()), 0);
  frontier_.reserve(static_cast<std::size_t>(topology_.cell_count()));
  queued_.assign(static_cast<std::size_t>(topology_.cell_count()), 0);
}

BatchSimulator::LaneMask BatchSimulator::active_mask(std::size_t count) {
  common::check(count <= kLanes, "BatchSimulator: too many scenarios");
  return count == kLanes ? kAllLanes : (LaneMask{1} << count) - 1;
}

void BatchSimulator::resolve_open_lanes(const ValveStates& states,
                                        LaneFaults lanes) const {
  common::check(static_cast<int>(states.size()) == array_->valve_count(),
                "BatchSimulator: vector arity != valve count");
  // Broadcast the commanded state into every lane. degraded_lanes_ is
  // cleared lazily so scenarios without degraded faults (the common case)
  // never touch it.
  if (degraded_dirty_) {
    std::fill(degraded_lanes_.begin(), degraded_lanes_.end(), 0);
    degraded_dirty_ = false;
  }
  for (int v = 0; v < array_->valve_count(); ++v) {
    open_lanes_[static_cast<std::size_t>(v)] =
        states[static_cast<std::size_t>(v)] ? kAllLanes : 0;
  }
  const auto valid = [&](grid::ValveId id) {
    return id >= 0 && id < array_->valve_count();
  };
  // Per-lane fault resolution in the scalar Simulator's order: control
  // leaks, then stuck-at-0 forces closed, then stuck-at-1 forces open.
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const LaneMask bit = LaneMask{1} << lane;
    const std::span<const Fault> scenario = lanes[lane];
    for (const Fault& fault : scenario) {
      if (fault.type != FaultType::kControlLeak) continue;
      common::check(valid(fault.valve) && valid(fault.partner),
                    "BatchSimulator: control-leak fault on invalid valves");
      const bool either_actuated =
          !states[static_cast<std::size_t>(fault.valve)] ||
          !states[static_cast<std::size_t>(fault.partner)];
      if (either_actuated) {
        open_lanes_[static_cast<std::size_t>(fault.valve)] &= ~bit;
        open_lanes_[static_cast<std::size_t>(fault.partner)] &= ~bit;
      }
    }
    for (const Fault& fault : scenario) {
      if (fault.type != FaultType::kStuckAt0) continue;
      common::check(valid(fault.valve), "BatchSimulator: sa0 on invalid valve");
      open_lanes_[static_cast<std::size_t>(fault.valve)] &= ~bit;
    }
    for (const Fault& fault : scenario) {
      if (fault.type != FaultType::kStuckAt1) continue;
      common::check(valid(fault.valve), "BatchSimulator: sa1 on invalid valve");
      open_lanes_[static_cast<std::size_t>(fault.valve)] |= bit;
    }
    for (const Fault& fault : scenario) {
      if (fault.type != FaultType::kDegradedFlow) continue;
      common::check(valid(fault.valve),
                    "BatchSimulator: degraded-flow fault on invalid valve");
      degraded_lanes_[static_cast<std::size_t>(fault.valve)] |= bit;
      degraded_dirty_ = true;
    }
  }
  // A degraded valve weakens flow only where it is effectively open; if no
  // lane has one, flood() takes the original single-word path.
  any_degraded_ = false;
  if (degraded_dirty_) {
    for (int v = 0; v < array_->valve_count(); ++v) {
      if (degraded_lanes_[static_cast<std::size_t>(v)] &
          open_lanes_[static_cast<std::size_t>(v)]) {
        any_degraded_ = true;
        break;
      }
    }
  }
}

void BatchSimulator::flood() const {
  if (any_degraded_) {
    flood_degraded();
    return;
  }
  std::fill(pressurized_.begin(), pressurized_.end(), 0);
  frontier_.clear();
  for (const int cell : topology_.source_cells()) {
    if (!queued_[static_cast<std::size_t>(cell)]) {
      queued_[static_cast<std::size_t>(cell)] = 1;
      frontier_.push_back(cell);
    }
    pressurized_[static_cast<std::size_t>(cell)] = kAllLanes;
  }
  // Fixed-point worklist: unlike the scalar BFS a cell can gain lanes after
  // it was first expanded, so popped cells may be re-queued; each pass
  // widens pressurized_ monotonically, hence termination.
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const int cell = frontier_[head];
    queued_[static_cast<std::size_t>(cell)] = 0;
    const LaneMask word = pressurized_[static_cast<std::size_t>(cell)];
    for (const FlowLink& link : topology_.links_of(cell)) {
      const LaneMask gate = link.valve == grid::kInvalidValve
                                ? kAllLanes
                                : open_lanes_[static_cast<std::size_t>(
                                      link.valve)];
      const LaneMask delta =
          word & gate & ~pressurized_[static_cast<std::size_t>(link.to)];
      if (delta) {
        pressurized_[static_cast<std::size_t>(link.to)] |= delta;
        if (!queued_[static_cast<std::size_t>(link.to)]) {
          queued_[static_cast<std::size_t>(link.to)] = 1;
          frontier_.push_back(link.to);
        }
      }
    }
  }
}

void BatchSimulator::flood_degraded() const {
  std::fill(pressurized_.begin(), pressurized_.end(), 0);
  std::fill(full_flow_.begin(), full_flow_.end(), 0);
  frontier_.clear();
  for (const int cell : topology_.source_cells()) {
    if (!queued_[static_cast<std::size_t>(cell)]) {
      queued_[static_cast<std::size_t>(cell)] = 1;
      frontier_.push_back(cell);
    }
    pressurized_[static_cast<std::size_t>(cell)] = kAllLanes;
    full_flow_[static_cast<std::size_t>(cell)] = kAllLanes;
  }
  // Same fixed-point worklist as flood(), over two monotone words per cell.
  // Invariant: pressurized_ (meter-visible, at most one degraded crossing)
  // is a superset of full_flow_ (no crossing) in every lane.
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const int cell = frontier_[head];
    queued_[static_cast<std::size_t>(cell)] = 0;
    const LaneMask visible = pressurized_[static_cast<std::size_t>(cell)];
    const LaneMask full = full_flow_[static_cast<std::size_t>(cell)];
    for (const FlowLink& link : topology_.links_of(cell)) {
      LaneMask clean = kAllLanes;  // open and undegraded: level preserved
      LaneMask demote = 0;         // open but degraded: full -> weak only
      if (link.valve != grid::kInvalidValve) {
        const LaneMask open =
            open_lanes_[static_cast<std::size_t>(link.valve)];
        const LaneMask degraded =
            degraded_lanes_[static_cast<std::size_t>(link.valve)];
        clean = open & ~degraded;
        demote = open & degraded;
      }
      const LaneMask full_delta =
          (full & clean) & ~full_flow_[static_cast<std::size_t>(link.to)];
      const LaneMask visible_delta =
          ((visible & clean) | (full & demote)) &
          ~pressurized_[static_cast<std::size_t>(link.to)];
      if (full_delta | visible_delta) {
        full_flow_[static_cast<std::size_t>(link.to)] |= full_delta;
        pressurized_[static_cast<std::size_t>(link.to)] |= visible_delta;
        if (!queued_[static_cast<std::size_t>(link.to)]) {
          queued_[static_cast<std::size_t>(link.to)] = 1;
          frontier_.push_back(link.to);
        }
      }
    }
  }
}

std::vector<BatchSimulator::LaneMask> BatchSimulator::readings(
    const ValveStates& states,
    std::span<const FaultScenario> scenarios) const {
  const LaneArray lanes = lanes_of(scenarios);
  resolve_open_lanes(states, LaneFaults(lanes.data(), scenarios.size()));
  flood();
  const std::vector<int>& sink_cells = topology_.sink_cells();
  std::vector<LaneMask> result(sink_cells.size());
  for (std::size_t s = 0; s < sink_cells.size(); ++s) {
    result[s] = pressurized_[static_cast<std::size_t>(sink_cells[s])];
  }
  return result;
}

BatchSimulator::LaneMask BatchSimulator::detect_lanes(
    const TestVector& vector,
    std::span<const FaultScenario> scenarios) const {
  const LaneArray lanes = lanes_of(scenarios);
  return detect(vector, LaneFaults(lanes.data(), scenarios.size()));
}

BatchSimulator::LaneMask BatchSimulator::detect_lanes(
    const TestVector& vector, std::span<const Fault> pool, int per_scenario,
    std::span<const int> lanes) const {
  common::check(lanes.size() <= kLanes, "BatchSimulator: too many scenarios");
  common::check(per_scenario >= 0, "BatchSimulator: negative scenario size");
  const auto width = static_cast<std::size_t>(per_scenario);
  LaneArray faults;
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const auto first = static_cast<std::size_t>(lanes[lane]) * width;
    common::check(lanes[lane] >= 0 && first + width <= pool.size(),
                  "BatchSimulator: lane index outside the scenario pool");
    faults[lane] = pool.subspan(first, width);
  }
  return detect(vector, LaneFaults(faults.data(), lanes.size()));
}

BatchSimulator::LaneMask BatchSimulator::detect(const TestVector& vector,
                                                LaneFaults lanes) const {
  common::check(static_cast<int>(vector.expected.size()) == sink_count(),
                "BatchSimulator: vector expected-arity != sink count");
  resolve_open_lanes(vector.states, lanes);
  flood();
  const std::vector<int>& sink_cells = topology_.sink_cells();
  LaneMask mismatch = 0;
  for (std::size_t s = 0; s < sink_cells.size(); ++s) {
    const LaneMask expected = vector.expected[s] ? kAllLanes : 0;
    mismatch |= pressurized_[static_cast<std::size_t>(sink_cells[s])] ^
                expected;
  }
  return mismatch & active_mask(lanes.size());
}

BatchSimulator::LaneMask BatchSimulator::any_detect_lanes(
    std::span<const TestVector> vectors,
    std::span<const FaultScenario> scenarios) const {
  const LaneMask active = active_mask(scenarios.size());
  LaneMask detected = 0;
  for (const TestVector& vector : vectors) {
    detected |= detect_lanes(vector, scenarios);
    if (detected == active) break;
  }
  return detected;
}

}  // namespace fpva::sim
