// Golden-equivalence suite for the shared graph-analysis cache.
//
// The cached hot path (Application::analysis + DeadlineMetric::weights_into +
// the workspace-backed slicing loop) must be *bit-identical* to the original
// per-call implementation: same weights, same critical paths, same windows.
// The reference side is the pre-cache code in reference/slicing.hpp, which
// re-derives everything from scratch per call (fresh closure, topological
// order, materialized parallel sets, per-pass allocations) and is built in
// the same tree with the same flags.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/core/metrics.hpp"
#include "dsslice/core/slicing.hpp"
#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/model/resources.hpp"
#include "reference/slicing.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

std::vector<std::uint64_t> kSeeds() { return {11, 22, 33, 44, 55}; }

TEST(SlicingEquivalence, WeightsBitIdenticalForAllMetrics) {
  for (const std::uint64_t seed : kSeeds()) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const Application& app = sc.application;
    const auto est = estimate_wcets(app, WcetEstimation::kAverage);
    const std::size_t m = sc.platform.processor_count();
    for (const MetricKind kind : all_metric_kinds()) {
      const DeadlineMetric metric(kind);
      const std::vector<double> expected =
          reference::weights(metric, app, est, m, nullptr);
      const std::vector<double> actual = metric.weights(app, est, m);
      ASSERT_EQ(actual.size(), expected.size());
      for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i])
            << to_string(kind) << " seed " << seed << " task " << i;
      }
    }
  }
}

TEST(SlicingEquivalence, TemporalParallelSetsBitIdentical) {
  MetricParams params;
  params.temporal_parallel_sets = true;
  const DeadlineMetric metric(MetricKind::kAdaptL, params);
  for (const std::uint64_t seed : kSeeds()) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const auto est = estimate_wcets(sc.application, WcetEstimation::kAverage);
    const std::size_t m = sc.platform.processor_count();
    const std::vector<double> expected =
        reference::weights(metric, sc.application, est, m, nullptr);
    const std::vector<double> actual = metric.weights(sc.application, est, m);
    EXPECT_EQ(actual, expected) << "seed " << seed;
  }
}

TEST(SlicingEquivalence, ResourceAwareAdaptLBitIdentical) {
  const DeadlineMetric metric(MetricKind::kAdaptL);
  for (const std::uint64_t seed : kSeeds()) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const Application& app = sc.application;
    const auto est = estimate_wcets(app, WcetEstimation::kAverage);
    const std::size_t m = sc.platform.processor_count();
    // A deterministic resource pattern: every third task shares r0, every
    // fifth shares r1 — enough overlap to exercise the conflict counting.
    ResourceModel resources(app.task_count(), 2);
    for (NodeId v = 0; v < app.task_count(); ++v) {
      if (v % 3 == 0) {
        resources.require(v, 0);
      }
      if (v % 5 == 0) {
        resources.require(v, 1);
      }
    }
    const std::vector<double> expected =
        reference::weights(metric, app, est, m, &resources);
    const std::vector<double> actual =
        metric.weights(app, est, m, &resources);
    EXPECT_EQ(actual, expected) << "seed " << seed;
  }
}

TEST(SlicingEquivalence, WindowsBitIdenticalToReferenceSlicer) {
  // The library SLICING loop (memoized analysis, CriticalPathSearch,
  // workspace-backed passes) against the pre-cache reference loop: same
  // windows and pass indices for every metric and WCET strategy, over
  // seeds and graph sizes (multi-word closure rows included).
  struct Shape {
    std::size_t tasks;
    std::size_t depth;
  };
  constexpr Shape kShapes[] = {{8, 3}, {40, 6}, {130, 11}};
  constexpr WcetEstimation kStrategies[] = {
      WcetEstimation::kAverage, WcetEstimation::kMax, WcetEstimation::kMin};
  for (const Shape shape : kShapes) {
    for (const std::uint64_t seed : kSeeds()) {
      GeneratorConfig cfg = testing::small_generator(seed);
      cfg.workload.min_tasks = shape.tasks;
      cfg.workload.max_tasks = shape.tasks;
      cfg.workload.min_depth = shape.depth;
      cfg.workload.max_depth = shape.depth;
      const Scenario sc = generate_scenario_at(cfg, 0);
      const Application& app = sc.application;
      const std::size_t m = sc.platform.processor_count();
      for (const WcetEstimation strategy : kStrategies) {
        const auto est = estimate_wcets(app, strategy);
        for (const MetricKind kind : all_metric_kinds()) {
          const DeadlineMetric metric(kind);
          const DeadlineAssignment want =
              reference::run_slicing(app, est, metric, m);
          const DeadlineAssignment got = run_slicing(app, est, metric, m);
          SCOPED_TRACE(to_string(kind) + " " + to_string(strategy) +
                       " n=" + std::to_string(shape.tasks) +
                       " seed=" + std::to_string(seed));
          ASSERT_EQ(got.windows.size(), want.windows.size());
          for (NodeId v = 0; v < want.windows.size(); ++v) {
            EXPECT_EQ(got.windows[v].arrival, want.windows[v].arrival)
                << "task " << v;
            EXPECT_EQ(got.windows[v].deadline, want.windows[v].deadline)
                << "task " << v;
          }
          EXPECT_EQ(got.pass_of, want.pass_of);
        }
      }
    }
  }
}

TEST(SlicingEquivalence, WorkspaceSlicingBitIdenticalToFreshSlicing) {
  SlicingWorkspace workspace;
  for (const std::uint64_t seed : kSeeds()) {
    const Scenario sc =
        generate_scenario_at(testing::small_generator(seed), 0);
    const Application& app = sc.application;
    const auto est = estimate_wcets(app, WcetEstimation::kAverage);
    const std::size_t m = sc.platform.processor_count();
    for (const MetricKind kind : all_metric_kinds()) {
      const DeadlineMetric metric(kind);
      SlicingStats fresh_stats;
      const DeadlineAssignment fresh =
          run_slicing(app, est, metric, m, &fresh_stats);

      SlicingOptions options;
      options.workspace = &workspace;  // reused across seeds AND metrics
      SlicingStats reused_stats;
      const DeadlineAssignment reused =
          run_slicing(app, est, metric, m, &reused_stats, options);

      ASSERT_EQ(reused.windows.size(), fresh.windows.size());
      for (NodeId v = 0; v < app.task_count(); ++v) {
        EXPECT_EQ(reused.windows[v].arrival, fresh.windows[v].arrival)
            << to_string(kind) << " seed " << seed << " task " << v;
        EXPECT_EQ(reused.windows[v].deadline, fresh.windows[v].deadline)
            << to_string(kind) << " seed " << seed << " task " << v;
      }
      EXPECT_EQ(reused.pass_of, fresh.pass_of);
      EXPECT_EQ(reused_stats.passes, fresh_stats.passes);
      EXPECT_EQ(reused_stats.min_laxity, fresh_stats.min_laxity);
    }
  }
}

TEST(SlicingEquivalence, CachedPathBuildsNoAnalysisAfterWarmup) {
  const Scenario sc = generate_scenario_at(testing::small_generator(77), 0);
  const Application& app = sc.application;
  const auto est = estimate_wcets(app, WcetEstimation::kAverage);
  const std::size_t m = sc.platform.processor_count();
  app.analysis();  // warm the cache

  const std::uint64_t before = GraphAnalysis::construction_count();
  for (const MetricKind kind : all_metric_kinds()) {
    const DeadlineMetric metric(kind);
    (void)metric.weights(app, est, m);
    (void)run_slicing(app, est, metric, m);
  }
  EXPECT_EQ(GraphAnalysis::construction_count(), before)
      << "hot path rebuilt the analysis";
}

}  // namespace
}  // namespace dsslice
