#include <gtest/gtest.h>

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
