#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/check.h"
#include "grid/builder.h"
#include "grid/presets.h"
#include "sim/campaign.h"
#include "sim/control_topology.h"
#include "sim/coverage.h"
#include "sim/simulator.h"

namespace fpva::sim {
namespace {

using grid::Cell;
using grid::Site;

ValveStates all_open(const grid::ValveArray& array) {
  return ValveStates(static_cast<std::size_t>(array.valve_count()), true);
}

ValveStates all_closed(const grid::ValveArray& array) {
  return ValveStates(static_cast<std::size_t>(array.valve_count()), false);
}

TEST(SimulatorTest, AllOpenPressurizesSink) {
  const auto array = grid::full_array(4, 4);
  const Simulator simulator(array);
  const auto readings = simulator.expected(all_open(array));
  ASSERT_EQ(readings.size(), 1u);
  EXPECT_TRUE(readings[0]);
}

TEST(SimulatorTest, AllClosedSilencesSink) {
  const auto array = grid::full_array(4, 4);
  const Simulator simulator(array);
  const auto readings = simulator.expected(all_closed(array));
  EXPECT_FALSE(readings[0]);
}

TEST(SimulatorTest, SingleRowPathConducts) {
  // 1x3 array: source - c0 - v - c1 - v - c2 - sink; opening both valves
  // conducts, opening one does not.
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  ASSERT_EQ(array.valve_count(), 2);
  EXPECT_TRUE(simulator.expected({true, true})[0]);
  EXPECT_FALSE(simulator.expected({true, false})[0]);
  EXPECT_FALSE(simulator.expected({false, true})[0]);
}

TEST(SimulatorTest, StuckAt0BlocksPath) {
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  const Fault fault[] = {stuck_at_0(1)};
  EXPECT_FALSE(simulator.readings(all_open(array), fault)[0]);
}

TEST(SimulatorTest, StuckAt1LeaksThroughClosedVector) {
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  const Fault both[] = {stuck_at_1(0), stuck_at_1(1)};
  EXPECT_TRUE(simulator.readings(all_closed(array), both)[0]);
  const Fault one[] = {stuck_at_1(0)};
  EXPECT_FALSE(simulator.readings(all_closed(array), one)[0]);
}

TEST(SimulatorTest, ControlLeakClosesPartner) {
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  // Command: valve0 closed, valve1 open. Leak couples them -> valve1 also
  // closes. Without the leak the sink is silent anyway, so drive valve0
  // open too and couple to a third... use states {closed, open}: effective
  // under leak(0,1): both closed.
  const Fault leak[] = {control_leak(0, 1)};
  const ValveStates states{false, true};
  const auto effective = simulator.effective_states(states, leak);
  EXPECT_FALSE(effective[0]);
  EXPECT_FALSE(effective[1]);
  // With both commanded open the leak never fires.
  const auto idle = simulator.effective_states({true, true}, leak);
  EXPECT_TRUE(idle[0]);
  EXPECT_TRUE(idle[1]);
}

TEST(SimulatorTest, FaultResolutionOrder) {
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  // sa1 wins over a control leak that tries to close the same valve.
  const Fault faults[] = {control_leak(0, 1), stuck_at_1(1)};
  const auto effective = simulator.effective_states({false, true}, faults);
  EXPECT_FALSE(effective[0]);
  EXPECT_TRUE(effective[1]);
  // sa1 also wins over sa0 on the same valve.
  const Fault stuck_both[] = {stuck_at_1(0), stuck_at_0(0)};
  EXPECT_TRUE(simulator.effective_states({false, false}, stuck_both)[0]);
  // Leaks read the commanded states, not each other's closures: leak(0,1)
  // closes valve 1, but leak(1,2) sees valve 1 commanded open and idles.
  const auto chain = grid::full_array(1, 4);
  ASSERT_EQ(chain.valve_count(), 3);
  const Simulator chained(chain);
  const Fault leaks[] = {control_leak(0, 1), control_leak(1, 2)};
  EXPECT_EQ(chained.effective_states({false, true, true}, leaks),
            (ValveStates{false, false, true}));
}

TEST(SimulatorTest, SingleDegradedValveStaysMeterVisible) {
  // One degraded crossing delivers weak pressure, which the binary meter
  // still reads as pressurized — a lone degraded fault is undetectable.
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  const Fault one[] = {degraded_flow(1)};
  EXPECT_TRUE(simulator.readings(all_open(array), one)[0]);
  EXPECT_EQ(simulator.readings(all_open(array), one),
            simulator.expected(all_open(array)));
}

TEST(SimulatorTest, TwoDegradedValvesInSeriesReadDry) {
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  const Fault both[] = {degraded_flow(0), degraded_flow(1)};
  EXPECT_FALSE(simulator.readings(all_open(array), both)[0]);
}

TEST(SimulatorTest, DegradedOnClosedValveIsInert) {
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  // The valve never opens, so the constriction is unobservable — and it
  // must not change the effective open/closed resolution either.
  const Fault deg[] = {degraded_flow(0)};
  const ValveStates states{false, true};
  EXPECT_EQ(simulator.readings(states, deg), simulator.expected(states));
  EXPECT_EQ(simulator.effective_states(states, deg), states);
}

TEST(SimulatorTest, DegradedCombinesWithStuckAt1) {
  // A stuck-open valve that is also constricted leaks only weak pressure:
  // one degraded crossing stays visible, a second kills the flow.
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  const Fault weak_leak[] = {stuck_at_1(0), stuck_at_1(1), degraded_flow(1)};
  EXPECT_TRUE(simulator.readings(all_closed(array), weak_leak)[0]);
  const Fault dead_leak[] = {stuck_at_1(0), degraded_flow(0), stuck_at_1(1),
                             degraded_flow(1)};
  EXPECT_FALSE(simulator.readings(all_closed(array), dead_leak)[0]);
}

TEST(SimulatorTest, ChannelsAlwaysConduct) {
  // 1x3 with the middle-left valve replaced by a channel.
  const auto array = grid::LayoutBuilder(1, 3)
                         .channel(Site{1, 2})
                         .default_ports()
                         .build();
  const Simulator simulator(array);
  ASSERT_EQ(array.valve_count(), 1);
  EXPECT_TRUE(simulator.expected({true})[0]);
  EXPECT_FALSE(simulator.expected({false})[0]);
}

TEST(SimulatorTest, ObstacleBlocksFlow) {
  // 3x3 with center obstacle: flow must go around; closing the full middle
  // ring around the border path blocks it.
  const auto array = grid::LayoutBuilder(3, 3)
                         .obstacle_rect(Cell{1, 1}, Cell{1, 1})
                         .default_ports()
                         .build();
  const Simulator simulator(array);
  EXPECT_TRUE(simulator.expected(all_open(array))[0]);
  EXPECT_FALSE(simulator.expected(all_closed(array))[0]);
}

TEST(SimulatorTest, DetectsComparesAgainstExpected) {
  const auto array = grid::full_array(2, 2);
  const Simulator simulator(array);
  TestVector vector;
  vector.states = all_open(array);
  vector.expected = simulator.expected(vector.states);
  const Fault fault[] = {stuck_at_0(0)};
  // Valve 0 is (1,2), between the two top cells; flow can reroute through
  // the bottom row, so this single sa0 is NOT detected by the all-open
  // vector.
  EXPECT_FALSE(simulator.detects(vector, fault));
  // But closing the left vertical valve forces the flow through valve 0.
  TestVector narrow;
  narrow.states = all_open(array);
  narrow.states[static_cast<std::size_t>(array.valve_id(Site{2, 1}))] = false;
  narrow.expected = simulator.expected(narrow.states);
  EXPECT_TRUE(narrow.expected[0]);
  EXPECT_TRUE(simulator.detects(narrow, fault));
}

/// flood_unchanged() against the fault-free flood of `states`; whenever it
/// clears a fault set, the flooded readings must equal the fault-free ones.
bool screened(const Simulator& simulator, const ValveStates& states,
              std::span<const Fault> faults) {
  const bool unchanged = simulator.flood_unchanged(
      states, faults, simulator.fault_free_pressure(states));
  if (unchanged) {
    EXPECT_EQ(simulator.readings(states, faults), simulator.expected(states))
        << to_string(std::vector<Fault>(faults.begin(), faults.end()));
  }
  return unchanged;
}

TEST(FloodScreenTest, FaultFreePressureMarksWetCells) {
  // 1x3 with only valve 0 open: cells 0 and 1 are wet, cell 2 is dry.
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  EXPECT_EQ(simulator.fault_free_pressure({true, false}),
            (std::vector<bool>{true, true, false}));
  EXPECT_EQ(simulator.fault_free_pressure({true, true}),
            (std::vector<bool>{true, true, true}));
}

TEST(FloodScreenTest, InertStuckFaultsChangeNothing) {
  // The stuck value equals the command.
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  const Fault sa0[] = {stuck_at_0(0)};
  EXPECT_TRUE(screened(simulator, {false, true}, sa0));
  const Fault sa1[] = {stuck_at_1(0)};
  EXPECT_TRUE(screened(simulator, {true, false}, sa1));
  EXPECT_TRUE(screened(simulator, {true, false}, {}));
}

TEST(FloodScreenTest, StuckAt1OpenedBetweenEqualPressuresChangesNothing) {
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  // Both valves closed: valve 1 joins two dry cells.
  const Fault dry[] = {stuck_at_1(1)};
  EXPECT_TRUE(screened(simulator, {false, false}, dry));
  // 2x2 flooded around the closed top valve: it joins two wet cells.
  const auto square = grid::full_array(2, 2);
  const Simulator looped(square);
  ValveStates states = all_open(square);
  const grid::ValveId top = square.valve_id(Site{1, 2});
  states[static_cast<std::size_t>(top)] = false;
  const Fault wet[] = {stuck_at_1(top)};
  EXPECT_TRUE(screened(looped, states, wet));
}

TEST(FloodScreenTest, StuckAt1OpenedBetweenWetAndDryFloods) {
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  const ValveStates states{true, false};
  const Fault sa1[] = {stuck_at_1(1)};
  EXPECT_FALSE(screened(simulator, states, sa1));
  EXPECT_NE(simulator.readings(states, sa1), simulator.expected(states));
}

TEST(FloodScreenTest, StuckAt0ClosingDryValveChangesNothing) {
  // Valve 0 closed: valve 1 is open between two dry cells.
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  const Fault sa0[] = {stuck_at_0(1)};
  EXPECT_TRUE(screened(simulator, {false, true}, sa0));
}

TEST(FloodScreenTest, StuckAt0ClosingWetValveFloods) {
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  const ValveStates states = all_open(array);
  const Fault sa0[] = {stuck_at_0(0)};
  EXPECT_FALSE(screened(simulator, states, sa0));
  EXPECT_NE(simulator.readings(states, sa0), simulator.expected(states));
}

TEST(FloodScreenTest, LeakPartnerClosingWetValveFloods) {
  // 2x2 routed along the top row and down the right column; the closed
  // left valve leaks into its open, wet partner on the route.
  const auto array = grid::full_array(2, 2);
  const Simulator simulator(array);
  ValveStates states = all_closed(array);
  const grid::ValveId top = array.valve_id(Site{1, 2});
  const grid::ValveId right = array.valve_id(Site{2, 3});
  const grid::ValveId left = array.valve_id(Site{2, 1});
  states[static_cast<std::size_t>(top)] = true;
  states[static_cast<std::size_t>(right)] = true;
  ASSERT_TRUE(simulator.expected(states)[0]);
  const Fault leak[] = {control_leak(left, top)};
  EXPECT_FALSE(screened(simulator, states, leak));
  EXPECT_NE(simulator.readings(states, leak), simulator.expected(states));
  // With both partners commanded open the leak idles.
  ValveStates idle = states;
  idle[static_cast<std::size_t>(left)] = true;
  EXPECT_TRUE(screened(simulator, idle, leak));
}

TEST(FloodScreenTest, DegradedMattersOnlyOnWetOpenValves) {
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  // Two degraded crossings in series on the wet route read dry.
  const ValveStates open = all_open(array);
  const Fault both[] = {degraded_flow(0), degraded_flow(1)};
  EXPECT_FALSE(screened(simulator, open, both));
  EXPECT_NE(simulator.readings(open, both), simulator.expected(open));
  // One wet degraded valve is meter-invisible but still not cleared: the
  // screen reasons about the flood, not the meters.
  const Fault one[] = {degraded_flow(1)};
  EXPECT_FALSE(screened(simulator, open, one));
  // Open between dry cells, or closed: nothing to weaken.
  EXPECT_TRUE(screened(simulator, {false, true}, one));
  const Fault closed[] = {degraded_flow(0)};
  EXPECT_TRUE(screened(simulator, {false, true}, closed));
}

TEST(FloodScreenTest, StuckAt1WinsOverStuckAt0OnOneValve) {
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  // Both on an open wet valve: it stays open, as commanded.
  const Fault inert[] = {stuck_at_1(0), stuck_at_0(0)};
  EXPECT_TRUE(screened(simulator, all_open(array), inert));
  // Both on a closed valve between wet and dry cells: it opens.
  const ValveStates states{true, false};
  const Fault opened[] = {stuck_at_1(1), stuck_at_0(1)};
  EXPECT_FALSE(screened(simulator, states, opened));
  EXPECT_NE(simulator.readings(states, opened), simulator.expected(states));
}

TEST(FloodScreenTest, InvalidValveIdsThrowLikeReadings) {
  const auto array = grid::full_array(1, 3);
  const Simulator simulator(array);
  const ValveStates states = all_open(array);
  const std::vector<bool> fault_free = simulator.fault_free_pressure(states);
  const std::vector<std::vector<Fault>> invalid = {
      {stuck_at_0(2)},
      {stuck_at_1(-1)},
      {control_leak(0, 7)},
      // The first fault alone already needs a flood; the second must
      // still be validated.
      {stuck_at_0(0), degraded_flow(5)},
      // Inert on its own, so a screen that skipped validation would
      // answer "unchanged".
      {stuck_at_1(0), stuck_at_0(9)},
  };
  for (const auto& faults : invalid) {
    EXPECT_THROW((void)simulator.readings(states, faults), common::Error)
        << to_string(faults);
    EXPECT_THROW(
        (void)simulator.flood_unchanged(states, faults, fault_free),
        common::Error)
        << to_string(faults);
  }
  EXPECT_THROW((void)simulator.flood_unchanged({true}, {}, fault_free),
               common::Error);
}

TEST(FloodScreenTest, ExhaustiveOnSmallArray) {
  // Every commanded state of a 2x2 array under every single fault and
  // every pair of them: a cleared set must read the fault-free readings
  // (checked inside screened()), and the screen must clear something.
  const auto array = grid::full_array(2, 2);
  const Simulator simulator(array);
  std::vector<Fault> faults = single_stuck_fault_universe(array);
  for (grid::ValveId v = 0; v < array.valve_count(); ++v) {
    faults.push_back(degraded_flow(v));
  }
  for (const Fault& leak : control_leak_universe(array)) {
    faults.push_back(leak);
  }
  const int valves = array.valve_count();
  int cleared = 0;
  int total = 0;
  for (unsigned mask = 0; mask < (1u << valves); ++mask) {
    ValveStates states(static_cast<std::size_t>(valves));
    for (int v = 0; v < valves; ++v) {
      states[static_cast<std::size_t>(v)] = ((mask >> v) & 1) != 0;
    }
    for (std::size_t i = 0; i < faults.size(); ++i) {
      for (std::size_t j = i; j < faults.size(); ++j) {
        const std::vector<Fault> set =
            i == j ? std::vector<Fault>{faults[i]}
                   : std::vector<Fault>{faults[i], faults[j]};
        cleared += screened(simulator, states, set) ? 1 : 0;
        ++total;
      }
    }
  }
  EXPECT_GT(cleared, total / 4);
}

TEST(ControlTopologyTest, PairsAreNearestNeighbors) {
  const auto array = grid::full_array(3, 3);
  const auto pairs = control_leak_pairs(array);
  EXPECT_FALSE(pairs.empty());
  for (const auto& [a, b] : pairs) {
    ASSERT_LT(a, b);
    const Site sa = array.valves()[static_cast<std::size_t>(a)];
    const Site sb = array.valves()[static_cast<std::size_t>(b)];
    EXPECT_EQ(std::abs(sa.row - sb.row) + std::abs(sa.col - sb.col), 2);
  }
  // No duplicates.
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_LT(pairs[i - 1], pairs[i]);
  }
}

TEST(CoverageTest, UniverseSizes) {
  const auto array = grid::full_array(3, 3);
  EXPECT_EQ(single_stuck_fault_universe(array).size(),
            static_cast<std::size_t>(2 * array.valve_count()));
  EXPECT_EQ(control_leak_universe(array).size(),
            control_leak_pairs(array).size());
}

TEST(CoverageTest, EmptyVectorSetDetectsNothing) {
  const auto array = grid::full_array(3, 3);
  const Simulator simulator(array);
  const auto universe = single_stuck_fault_universe(array);
  const auto report = single_fault_coverage(simulator, {}, universe);
  EXPECT_EQ(report.detected_faults, 0);
  EXPECT_EQ(report.total_faults, static_cast<int>(universe.size()));
  EXPECT_DOUBLE_EQ(report.coverage(), 0.0);
}

TEST(CampaignTest, UndetectableWithoutVectors) {
  const auto array = grid::full_array(3, 3);
  const Simulator simulator(array);
  CampaignOptions options;
  options.trials_per_count = 50;
  options.min_faults = 1;
  options.max_faults = 2;
  const auto result = run_campaign(simulator, {}, options);
  EXPECT_EQ(result.total_trials(), 100);
  EXPECT_EQ(result.total_detected(), 0);
  EXPECT_FALSE(result.all_detected());
}

TEST(CampaignTest, DeterministicForFixedSeed) {
  const auto array = grid::full_array(3, 3);
  const Simulator simulator(array);
  TestVector vector;
  vector.states = all_open(array);
  vector.expected = simulator.expected(vector.states);
  const TestVector vectors[] = {vector};
  CampaignOptions options;
  options.trials_per_count = 200;
  options.max_faults = 3;
  const auto a = run_campaign(simulator, vectors, options);
  const auto b = run_campaign(simulator, vectors, options);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].detected, b.rows[i].detected);
  }
}

}  // namespace
}  // namespace fpva::sim
