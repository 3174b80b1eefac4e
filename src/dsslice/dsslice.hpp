// dsslice — adaptive deadline slicing for heterogeneous distributed
// real-time systems.
//
// Umbrella header: pulls in the full public API. Reproduction of
// J. Jonsson, "A Robust Adaptive Metric for Deadline Assignment in
// Heterogeneous Distributed Real-Time Systems", IPPS 1999.
//
// Typical pipeline:
//   Application app = ...;                       // model/application.hpp
//   Platform platform = Platform::identical(3);  // model/platform.hpp
//   auto est = estimate_wcets(app, WcetEstimation::kAverage);
//   DeadlineMetric metric(MetricKind::kAdaptL);
//   auto windows = run_slicing(app, est, metric, platform.processor_count());
//   auto result  = EdfListScheduler().run(app, windows, platform);
#pragma once

#include "dsslice/analysis/graph_analysis.hpp"
#include "dsslice/baselines/bettati_liu.hpp"
#include "dsslice/baselines/distribution_registry.hpp"
#include "dsslice/baselines/iterative_refinement.hpp"
#include "dsslice/baselines/kao_garcia_molina.hpp"
#include "dsslice/batch/slice_kernel.hpp"
#include "dsslice/core/anchors.hpp"
#include "dsslice/core/critical_path.hpp"
#include "dsslice/core/metrics.hpp"
#include "dsslice/core/diagnosis.hpp"
#include "dsslice/core/feasibility.hpp"
#include "dsslice/core/jitter.hpp"
#include "dsslice/core/quality.hpp"
#include "dsslice/core/slicing.hpp"
#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/gen/generator_config.hpp"
#include "dsslice/gen/platform_generator.hpp"
#include "dsslice/gen/rng.hpp"
#include "dsslice/gen/scenario_batch.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/graph/algorithms.hpp"
#include "dsslice/graph/dot.hpp"
#include "dsslice/graph/task_graph.hpp"
#include "dsslice/model/application.hpp"
#include "dsslice/model/interconnect.hpp"
#include "dsslice/model/platform.hpp"
#include "dsslice/model/processor.hpp"
#include "dsslice/model/resources.hpp"
#include "dsslice/model/task.hpp"
#include "dsslice/model/time.hpp"
#include "dsslice/obs/export.hpp"
#include "dsslice/obs/json_lint.hpp"
#include "dsslice/obs/registry.hpp"
#include "dsslice/obs/session.hpp"
#include "dsslice/obs/trace.hpp"
#include "dsslice/report/csv.hpp"
#include "dsslice/report/schedule_export.hpp"
#include "dsslice/report/series.hpp"
#include "dsslice/report/table.hpp"
#include "dsslice/robust/fault_model.hpp"
#include "dsslice/robust/recovery.hpp"
#include "dsslice/robust/robustness_harness.hpp"
#include "dsslice/sched/annealing_scheduler.hpp"
#include "dsslice/sched/branch_and_bound.hpp"
#include "dsslice/sched/clustering.hpp"
#include "dsslice/sched/dispatch_scheduler.hpp"
#include "dsslice/sched/edf_list_scheduler.hpp"
#include "dsslice/sched/insertion_scheduler.hpp"
#include "dsslice/sched/planning_cycle.hpp"
#include "dsslice/sched/preemptive_scheduler.hpp"
#include "dsslice/sched/schedule.hpp"
#include "dsslice/sched/validation.hpp"
#include "dsslice/sim/experiment.hpp"
#include "dsslice/sim/runner.hpp"
#include "dsslice/sim/serialization.hpp"
#include "dsslice/sim/sweeps.hpp"
#include "dsslice/sweep/aggregate.hpp"
#include "dsslice/sweep/checkpoint.hpp"
#include "dsslice/sweep/sweep_engine.hpp"
#include "dsslice/util/check.hpp"
#include "dsslice/util/cli.hpp"
#include "dsslice/util/stats.hpp"
#include "dsslice/util/string_util.hpp"
#include "dsslice/util/thread_pool.hpp"
