// Pre-engine EDF list scheduler and time-marching dispatcher, verbatim:
// linear ready-list scans, per-candidate allocations, a virtual comm_delay
// per predecessor and unordered_map arc factors, with the dispatcher's
// degraded-mode shed channel. The one behavioural reference the engine in
// sched/ is pinned against (tests/test_scheduler_equivalence.cpp) and timed
// against (bench/perf_scheduling). Built in the same tree with the same
// flags as libdsslice, so a divergence is the engine's, not build skew.
#pragma once

#include "dsslice/model/application.hpp"
#include "dsslice/model/platform.hpp"
#include "dsslice/model/resources.hpp"
#include "dsslice/model/task.hpp"
#include "dsslice/sched/dispatch_scheduler.hpp"
#include "dsslice/sched/edf_list_scheduler.hpp"

namespace dsslice::reference {

/// EDF list scheduling (append or insertion placement, optional shared-bus
/// contention and resource constraints); same contract as
/// EdfListScheduler::run.
SchedulerResult list_run(const Application& app,
                         const DeadlineAssignment& assignment,
                         const Platform& platform,
                         const SchedulerOptions& options,
                         const ResourceModel* resources = nullptr);

/// Time-marching EDF dispatch under optional injected conditions and a
/// recovery control; same contract as EdfDispatchScheduler::run.
SchedulerResult dispatch_run(const Application& app,
                             const DeadlineAssignment& assignment,
                             const Platform& platform,
                             const DispatchOptions& options,
                             const DispatchConditions* conditions = nullptr,
                             DispatchControl* control = nullptr,
                             DispatchTelemetry* telemetry = nullptr);

}  // namespace dsslice::reference
