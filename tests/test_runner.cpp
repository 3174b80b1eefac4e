#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dsslice/sim/runner.hpp"
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

void expect_same_bits(const RunningStats& actual, const RunningStats& expected,
                      const std::string& what) {
  const RunningStatsState a = actual.state();
  const RunningStatsState e = expected.state();
  EXPECT_EQ(a.n, e.n) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean),
            std::bit_cast<std::uint64_t>(e.mean))
      << what << " mean";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.m2),
            std::bit_cast<std::uint64_t>(e.m2))
      << what << " m2";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sum),
            std::bit_cast<std::uint64_t>(e.sum))
      << what << " sum";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.min),
            std::bit_cast<std::uint64_t>(e.min))
      << what << " min";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.max),
            std::bit_cast<std::uint64_t>(e.max))
      << what << " max";
}

/// Every aggregate field of `actual` equals `expected` to the last bit.
void expect_same_bits(const ExperimentResult& actual,
                      const ExperimentResult& expected,
                      const std::string& what) {
  EXPECT_EQ(actual.success.successes(), expected.success.successes()) << what;
  EXPECT_EQ(actual.success.trials(), expected.success.trials()) << what;
  expect_same_bits(actual.min_laxity, expected.min_laxity,
                   what + " min_laxity");
  expect_same_bits(actual.max_lateness, expected.max_lateness,
                   what + " max_lateness");
  expect_same_bits(actual.makespan, expected.makespan, what + " makespan");
  expect_same_bits(actual.slicing_passes, expected.slicing_passes,
                   what + " slicing_passes");
  expect_same_bits(actual.task_count, expected.task_count,
                   what + " task_count");
}

/// The scalar reference: evaluate_scenario on every derived seed, folded in
/// index order.
ExperimentResult scalar_fold(const ExperimentConfig& config) {
  ExperimentResult result;
  for (std::size_t k = 0; k < config.generator.graph_count; ++k) {
    result.add(evaluate_scenario(
        config, derive_seed(config.generator.base_seed, k)));
  }
  return result;
}

/// Sets the process-wide experiment grain for one scope.
class GrainOverride {
 public:
  explicit GrainOverride(std::size_t grain) { set_experiment_grain(grain); }
  ~GrainOverride() { set_experiment_grain(0); }
  GrainOverride(const GrainOverride&) = delete;
  GrainOverride& operator=(const GrainOverride&) = delete;
};

TEST(Runner, ParallelMatchesSerialExactly) {
  const ExperimentConfig c = small_config(42);
  ThreadPool pool(4);
  const ExperimentResult parallel = run_experiment(c, pool);
  const ExperimentResult serial = run_experiment_serial(c);
  EXPECT_EQ(parallel.success.successes(), serial.success.successes());
  EXPECT_EQ(parallel.success.trials(), serial.success.trials());
  EXPECT_DOUBLE_EQ(parallel.min_laxity.mean(), serial.min_laxity.mean());
  EXPECT_DOUBLE_EQ(parallel.min_laxity.variance(),
                   serial.min_laxity.variance());
  EXPECT_DOUBLE_EQ(parallel.makespan.sum(), serial.makespan.sum());
}

TEST(Runner, TrialCountMatchesGraphCount) {
  const ExperimentConfig c = small_config(1, 17);
  const ExperimentResult r = run_experiment(c);
  EXPECT_EQ(r.success.trials(), 17u);
  EXPECT_EQ(r.task_count.count(), 17u);
  EXPECT_GE(r.wall_seconds, 0.0);
}

TEST(Runner, OutcomeSinkSeesEveryIndexInOrder) {
  const ExperimentConfig c = small_config(3, 16);
  ThreadPool pool(4);
  std::vector<std::size_t> indices;
  const ExperimentResult r = run_experiment_with_outcomes(
      c, pool, [&indices](std::size_t k, const GraphOutcome& o) {
        indices.push_back(k);
        EXPECT_GT(o.task_count, 0u);
      });
  ASSERT_EQ(indices.size(), 16u);
  for (std::size_t k = 0; k < indices.size(); ++k) {
    EXPECT_EQ(indices[k], k);  // deterministic, in index order
  }
  EXPECT_EQ(r.success.trials(), 16u);
}

TEST(Runner, RepeatedRunsAreIdentical) {
  const ExperimentConfig c = small_config(9, 24);
  ThreadPool pool(8);
  const ExperimentResult r1 = run_experiment(c, pool);
  const ExperimentResult r2 = run_experiment(c, pool);
  EXPECT_EQ(r1.success.successes(), r2.success.successes());
  EXPECT_DOUBLE_EQ(r1.min_laxity.mean(), r2.min_laxity.mean());
}

TEST(Runner, DeterministicAcrossThreadCountsAndGrain) {
  // Graph k's outcome depends only on derive_seed(base_seed, k) — never on
  // which worker or chunk evaluated it. One worker, many workers, the serial
  // path, and a forced chunk size must all produce bit-identical statistics.
  const ExperimentConfig c = small_config(77, 48);
  const ExperimentResult serial = run_experiment_serial(c);

  ThreadPool one(1);
  ThreadPool many(7);
  const ExperimentResult single = run_experiment(c, one);
  const ExperimentResult parallel = run_experiment(c, many);

  ExperimentResult chunked;
  {
    const GrainOverride override(5);  // uneven chunking of the 48 graphs
    chunked = run_experiment(c, many);
  }

  expect_same_bits(single, serial, "1 worker");
  expect_same_bits(parallel, serial, "7 workers");
  expect_same_bits(chunked, serial, "7 workers, grain 5");
}

// run_experiment evaluates through the sweep engine's batch pipeline
// (ScenarioBatch generation, the SoA slicing kernel); the aggregates must
// equal the scalar evaluate_scenario fold bit for bit for every slicing
// metric and WCET strategy, every scheduler, a non-slicing technique, an
// imprecise workload, a graph count that is not a multiple of the 64-
// scenario generator chunk, and forced grains below and above it.
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
    const ExperimentResult reference = scalar_fold(config);
    ASSERT_EQ(reference.success.trials(), 77u);
    expect_same_bits(run_experiment(config, pool), reference, name);
    expect_same_bits(run_experiment_serial(config), reference,
                     name + " serial");
    for (const std::size_t grain : {std::size_t{5}, std::size_t{1000}}) {
      const GrainOverride override(grain);
      expect_same_bits(run_experiment(config, pool), reference,
                       name + " grain " + std::to_string(grain));
    }
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
