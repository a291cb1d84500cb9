// E7b -- Google-Benchmark view of the campaign engines.
//
// bench_batch_sim remains the acceptance harness (bit-identical results +
// 10x floor, table output); this binary registers the same campaign kernels
// with Google Benchmark so bench/run_benchmarks.sh can record the perf
// trajectory as BENCH_batch_sim.json alongside BENCH_ilp.json. Trials are
// kept small: the point is a comparable time series, not a full study.
// BM_TwoFaultCoverage times the screened, sharded exhaustive stuck-pair
// audit over the same vector sets.
#include <benchmark/benchmark.h>

#include "core/generator.h"
#include "grid/presets.h"
#include "sim/campaign.h"
#include "sim/coverage.h"

namespace {

using namespace fpva;

sim::CampaignOptions micro_campaign() {
  sim::CampaignOptions campaign;
  campaign.trials_per_count = 200;
  campaign.min_faults = 1;
  campaign.max_faults = 5;
  return campaign;
}

void BM_CampaignScalar(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const grid::ValveArray array = grid::full_array(n, n);
  core::GeneratorOptions generator_options;
  generator_options.hierarchical = true;
  const auto set = core::generate_test_set(array, generator_options);
  const sim::Simulator simulator(array);
  const sim::CampaignOptions campaign = micro_campaign();
  long detected = 0;
  for (auto _ : state) {
    const auto result =
        sim::run_campaign_scalar(simulator, set.vectors, campaign);
    detected = result.total_detected();
    benchmark::DoNotOptimize(detected);
  }
  state.counters["detected"] = static_cast<double>(detected);
}
BENCHMARK(BM_CampaignScalar)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_CampaignBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const grid::ValveArray array = grid::full_array(n, n);
  core::GeneratorOptions generator_options;
  generator_options.hierarchical = true;
  const auto set = core::generate_test_set(array, generator_options);
  // One worker: the bit-parallel engine alone, without threads.
  const sim::CatalogEntry entries[] = {{&array, set.vectors,
                                         micro_campaign()}};
  long detected = 0;
  for (auto _ : state) {
    const auto results = sim::run_campaign_catalog(entries, 1);
    detected = results.front().total_detected();
    benchmark::DoNotOptimize(detected);
  }
  state.counters["detected"] = static_cast<double>(detected);
}
BENCHMARK(BM_CampaignBatch)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_CampaignParallel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const grid::ValveArray array = grid::full_array(n, n);
  core::GeneratorOptions generator_options;
  generator_options.hierarchical = true;
  const auto set = core::generate_test_set(array, generator_options);
  const sim::Simulator simulator(array);
  const sim::CampaignOptions campaign = micro_campaign();
  long detected = 0;
  for (auto _ : state) {
    const auto result = sim::run_campaign(simulator, set.vectors, campaign);
    detected = result.total_detected();
    benchmark::DoNotOptimize(detected);
  }
  state.counters["detected"] = static_cast<double>(detected);
}
BENCHMARK(BM_CampaignParallel)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_TwoFaultCoverage(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const grid::ValveArray array = grid::full_array(n, n);
  core::GeneratorOptions generator_options;
  generator_options.hierarchical = true;
  const auto set = core::generate_test_set(array, generator_options);
  const sim::Simulator simulator(array);
  const auto universe = sim::single_stuck_fault_universe(array);
  long pairs = 0;
  long detected = 0;
  long screened = 0;
  for (auto _ : state) {
    const auto report =
        sim::two_fault_coverage(simulator, set.vectors, universe);
    pairs = report.total_pairs;
    detected = report.detected_pairs;
    screened = report.screened_pairs;
    benchmark::DoNotOptimize(detected);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["detected"] = static_cast<double>(detected);
  // Pairs decided by the per-fault rows without a flood: deterministic, so
  // a weaker (still exact) screen shows up as a counter change.
  state.counters["screened"] = static_cast<double>(screened);
}
BENCHMARK(BM_TwoFaultCoverage)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace
