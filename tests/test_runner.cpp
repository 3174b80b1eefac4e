#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dsslice/sweep/checkpoint.hpp"
#include "dsslice/sweep/sweep_engine.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

ExperimentConfig small_config(std::uint64_t seed, std::size_t graphs = 32) {
  ExperimentConfig c;
  c.generator = testing::small_generator(seed);
  c.generator.graph_count = graphs;
  c.technique = DistributionTechnique::kSlicingAdaptL;
  return c;
}

/// Every aggregate field of `actual` — counts, Welford state and the laxity
/// histogram — equals `expected` to the last bit: the checkpoint text form
/// stores doubles as raw bit patterns.
void expect_same_bits(const SweepAggregate& actual,
                      const SweepAggregate& expected,
                      const std::string& what) {
  EXPECT_EQ(serialize_sweep_aggregate(actual),
            serialize_sweep_aggregate(expected))
      << what;
}

/// The scalar reference: evaluate_scenario on every derived seed, folded in
/// index order.
SweepAggregate scalar_fold(const ExperimentConfig& config) {
  SweepAggregate result;
  for (std::size_t k = 0; k < config.generator.graph_count; ++k) {
    result.add(evaluate_scenario(
        config, derive_seed(config.generator.base_seed, k)));
  }
  return result;
}

TEST(Runner, ParallelMatchesSerialExactly) {
  const ExperimentConfig c = small_config(42);
  ThreadPool pool(4);
  expect_same_bits(run_experiment(c, pool), run_experiment_serial(c),
                   "4 workers");
}

TEST(Runner, TrialCountMatchesGraphCount) {
  const ExperimentConfig c = small_config(1, 17);
  const SweepAggregate r = run_experiment(c);
  EXPECT_EQ(r.success.trials(), 17u);
  EXPECT_EQ(r.task_count.count(), 17u);
  EXPECT_EQ(r.laxity.count(), 17u);
}

TEST(Runner, RepeatedRunsAreIdentical) {
  const ExperimentConfig c = small_config(9, 24);
  ThreadPool pool(8);
  expect_same_bits(run_experiment(c, pool), run_experiment(c, pool),
                   "second run");
}

TEST(Runner, DeterministicAcrossThreadCountsAndGrain) {
  // Graph k's outcome depends only on derive_seed(base_seed, k) — never on
  // which worker or chunk evaluated it. Pool sizes 1, 3 and 7 over 48 and 77
  // graphs drive the automatic grain through 6, 2, 1 and 9, 3, 1 (the
  // uneven splits included); every run must equal the serial path bit for
  // bit.
  for (const std::size_t graphs : {std::size_t{48}, std::size_t{77}}) {
    const ExperimentConfig c = small_config(77, graphs);
    const SweepAggregate serial = run_experiment_serial(c);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
      ThreadPool pool(threads);
      expect_same_bits(run_experiment(c, pool), serial,
                       std::to_string(graphs) + " graphs, " +
                           std::to_string(threads) + " workers");
    }
  }
}

// run_experiment evaluates through the sweep engine's batch pipeline
// (ScenarioBatch generation, the SoA slicing kernel); the aggregates must
// equal the scalar evaluate_scenario fold bit for bit for every slicing
// metric and WCET strategy, every scheduler, a non-slicing technique, an
// imprecise workload, and a graph count that is not a multiple of the 64-
// scenario generator chunk.
TEST(Runner, MatchesScalarEvaluateScenarioBitForBit) {
  std::vector<std::pair<std::string, ExperimentConfig>> cases;
  const auto base = [](DistributionTechnique technique) {
    ExperimentConfig c = small_config(0xB17, 77);
    c.technique = technique;
    return c;
  };
  for (const DistributionTechnique technique :
       {DistributionTechnique::kSlicingPure,
        DistributionTechnique::kSlicingNorm,
        DistributionTechnique::kSlicingAdaptG,
        DistributionTechnique::kSlicingAdaptL}) {
    for (const WcetEstimation strategy :
         {WcetEstimation::kAverage, WcetEstimation::kMax,
          WcetEstimation::kMin}) {
      ExperimentConfig c = base(technique);
      c.wcet_strategy = strategy;
      cases.emplace_back(to_string(technique) + "/" + to_string(strategy), c);
    }
  }
  for (const SchedulerAlgorithm algorithm :
       {SchedulerAlgorithm::kDispatchEdf, SchedulerAlgorithm::kPreemptiveEdf}) {
    ExperimentConfig c = base(DistributionTechnique::kSlicingAdaptL);
    c.algorithm = algorithm;
    cases.emplace_back(to_string(algorithm), c);
  }
  cases.emplace_back("KaoED", base(DistributionTechnique::kKaoED));
  ExperimentConfig imprecise = base(DistributionTechnique::kSlicingAdaptL);
  imprecise.generator.workload.max_optional_fraction = 0.4;
  cases.emplace_back("imprecise", imprecise);

  ThreadPool pool(3);
  for (const auto& [name, config] : cases) {
    const SweepAggregate reference = scalar_fold(config);
    ASSERT_EQ(reference.success.trials(), 77u);
    expect_same_bits(run_experiment(config, pool), reference, name);
    expect_same_bits(run_experiment_serial(config), reference,
                     name + " serial");
  }
}

// The two batch drivers agree: run_experiment's index-order fold equals a
// one-shard run_sweep over the same scenarios, laxity histogram included.
TEST(Runner, MatchesOneShardSweep) {
  ThreadPool pool(3);
  for (const DistributionTechnique technique :
       {DistributionTechnique::kSlicingAdaptL,
        DistributionTechnique::kSlicingPure, DistributionTechnique::kKaoED}) {
    ExperimentConfig config = small_config(0x5A3E, 100);
    config.technique = technique;
    SweepOptions options;
    options.scenario_count = config.generator.graph_count;
    options.shard_size = config.generator.graph_count;
    expect_same_bits(run_experiment(config, pool),
                     run_sweep(config, options, pool).aggregate,
                     to_string(technique));
  }
}

// run_experiment shares the sweep engine's per-thread arenas, so the
// zero-warm-growth contract covers it too: once a 1-thread pool's arena has
// seen the batch, an identical batch must not grow any arena buffer.
TEST(Runner, WarmRunAllocatesNothing) {
  const ExperimentConfig c = small_config(21, 64);
  ThreadPool pool(1);
  // The arena's batch storage rotates against scenario shapes between runs
  // (see the ScenarioBatch steady-state test), so settle until a full
  // rotation cycle of runs stays flat before asserting.
  constexpr int kRotationCycle = 10;
  int flat = 0;
  for (int pass = 0; pass < 100 && flat < kRotationCycle; ++pass) {
    const std::uint64_t before = sweep_arena_grow_events();
    run_experiment(c, pool);
    flat = sweep_arena_grow_events() == before ? flat + 1 : 0;
  }
  ASSERT_EQ(flat, kRotationCycle) << "arena never reached steady state";
  const std::uint64_t warm = sweep_arena_grow_events();
  run_experiment(c, pool);
  EXPECT_EQ(sweep_arena_grow_events(), warm);
}

TEST(Runner, InvalidConfigThrows) {
  ExperimentConfig c = small_config(1);
  c.generator.workload.olr = -1.0;
  EXPECT_THROW(run_experiment(c), ConfigError);
}

}  // namespace
}  // namespace dsslice
