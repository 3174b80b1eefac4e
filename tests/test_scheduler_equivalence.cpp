// Equivalence suite for the allocation-free scheduler engine.
//
// The engine rewrites in sched/ (binary ready heap, cached CSR adjacency,
// devirtualized shared-bus delays, SchedulerWorkspace buffers) claim
// *bit-identical* schedules, not approximately-equal ones. This file pins
// that claim against the pre-engine implementations in reference/:
// every placement, start/finish instant, bus reservation, outcome flag, and
// dispatch telemetry entry must match exactly — across all four deadline
// metrics, generated seeds, append/insertion/bus-contention placement, and
// dispatch with and without injected faults. A final test asserts the warm
// engine path performs zero scheduler-state allocations
// (SchedulerWorkspace::grow_events stays put on a repeated batch).
//
// The reference schedulers (reference/scheduling.hpp) are kept verbatim and
// built in the same tree with the same flags, so a divergence is
// attributable to the engine, not to compiler or build skew.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

#include "dsslice/dsslice.hpp"
#include "reference/scheduling.hpp"
#include "test_util.hpp"

namespace dsslice {
namespace {

// ---------------------------------------------------------------------------
// Comparison helpers — all comparisons are exact (==), never epsilon-based.
// ---------------------------------------------------------------------------

void expect_same_result(const SchedulerResult& want, const SchedulerResult& got,
                        const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(want.success, got.success);
  EXPECT_EQ(want.failed_task, got.failed_task);
  ASSERT_EQ(want.schedule.task_count(), got.schedule.task_count());
  EXPECT_EQ(want.schedule.placed_count(), got.schedule.placed_count());
  for (NodeId v = 0; v < want.schedule.task_count(); ++v) {
    ASSERT_EQ(want.schedule.placed(v), got.schedule.placed(v)) << "task " << v;
    if (!want.schedule.placed(v)) {
      continue;
    }
    const ScheduledTask& a = want.schedule.entry(v);
    const ScheduledTask& b = got.schedule.entry(v);
    EXPECT_EQ(a.processor, b.processor) << "task " << v;
    EXPECT_EQ(a.start, b.start) << "task " << v;      // bitwise, no epsilon
    EXPECT_EQ(a.finish, b.finish) << "task " << v;
  }
  ASSERT_EQ(want.bus_transfers.size(), got.bus_transfers.size());
  for (std::size_t k = 0; k < want.bus_transfers.size(); ++k) {
    const BusTransfer& a = want.bus_transfers[k];
    const BusTransfer& b = got.bus_transfers[k];
    EXPECT_EQ(a.from, b.from) << "transfer " << k;
    EXPECT_EQ(a.to, b.to) << "transfer " << k;
    EXPECT_EQ(a.start, b.start) << "transfer " << k;
    EXPECT_EQ(a.finish, b.finish) << "transfer " << k;
  }
}

void expect_same_telemetry(const DispatchTelemetry& want,
                           const DispatchTelemetry& got,
                           const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(want.completion.size(), got.completion.size());
  for (std::size_t v = 0; v < want.completion.size(); ++v) {
    EXPECT_EQ(want.completion[v], got.completion[v]) << "task " << v;
  }
  ASSERT_EQ(want.misses.size(), got.misses.size());
  for (std::size_t k = 0; k < want.misses.size(); ++k) {
    EXPECT_EQ(want.misses[k].task, got.misses[k].task);
    EXPECT_EQ(want.misses[k].finish, got.misses[k].finish);
    EXPECT_EQ(want.misses[k].deadline, got.misses[k].deadline);
  }
  EXPECT_EQ(want.killed, got.killed);
  EXPECT_EQ(want.unfinished, got.unfinished);
  EXPECT_EQ(want.restarts, got.restarts);
  EXPECT_EQ(want.degraded, got.degraded);
}

constexpr MetricKind kAllMetrics[] = {MetricKind::kPure, MetricKind::kNorm,
                                      MetricKind::kAdaptG, MetricKind::kAdaptL};
constexpr std::uint64_t kSeeds[] = {11, 22, 33};

GeneratorConfig equivalence_generator(std::uint64_t seed) {
  GeneratorConfig cfg = testing::small_generator(seed);
  cfg.workload.min_tasks = 40;
  cfg.workload.max_tasks = 60;
  cfg.workload.min_depth = 6;
  cfg.workload.max_depth = 10;
  return cfg;
}

struct Prepared {
  Scenario scenario;
  DeadlineAssignment assignment;
};

Prepared prepare(MetricKind kind, std::uint64_t seed,
                 const GeneratorConfig& cfg) {
  Prepared p{generate_scenario(cfg, seed), {}};
  const auto est = estimate_wcets(p.scenario.application,
                                  WcetEstimation::kAverage);
  p.assignment =
      run_slicing(p.scenario.application, est, DeadlineMetric(kind),
                  p.scenario.platform.processor_count());
  return p;
}

Prepared prepare(MetricKind kind, std::uint64_t seed) {
  return prepare(kind, seed, equivalence_generator(seed));
}

std::string context_of(MetricKind kind, std::uint64_t seed) {
  return to_string(kind) + " seed=" + std::to_string(seed);
}

/// Runs the engine and the reference list scheduler with `options` over
/// every metric × seed and expects identical results.
void expect_list_matches_reference(const SchedulerOptions& options,
                                   const std::string& label) {
  SchedulerWorkspace ws;
  SchedulerResult engine;
  const EdfListScheduler scheduler(options);
  for (const MetricKind kind : kAllMetrics) {
    for (const std::uint64_t seed : kSeeds) {
      const Prepared p = prepare(kind, seed);
      scheduler.run_into(engine, ws, p.scenario.application, p.assignment,
                         p.scenario.platform);
      expect_same_result(
          reference::list_run(p.scenario.application, p.assignment,
                              p.scenario.platform, options),
          engine, label + " " + context_of(kind, seed));
    }
  }
}

/// Runs the engine (with `engine_control`) and then the reference
/// dispatcher (with `reference_control`) on one prepared scenario, without
/// aborting on misses, and expects identical results and telemetry.
void expect_dispatch_matches_reference(SchedulerWorkspace& ws,
                                       SchedulerResult& engine,
                                       const Prepared& p,
                                       const DispatchConditions* conditions,
                                       DispatchControl* engine_control,
                                       DispatchControl* reference_control,
                                       const std::string& context) {
  DispatchOptions options;
  options.abort_on_miss = false;
  DispatchTelemetry engine_tel, legacy_tel;
  EdfDispatchScheduler(options).run_into(
      engine, ws, p.scenario.application, p.assignment, p.scenario.platform,
      conditions, engine_control, &engine_tel);
  const SchedulerResult want = reference::dispatch_run(
      p.scenario.application, p.assignment, p.scenario.platform, options,
      conditions, reference_control, &legacy_tel);
  expect_same_result(want, engine, context);
  expect_same_telemetry(legacy_tel, engine_tel, context);
}

// ---------------------------------------------------------------------------
// EDF list scheduler: append, insertion, and bus-contention placement.
// ---------------------------------------------------------------------------

TEST(SchedulerEquivalence, ListAppendMatchesLegacyBitwise) {
  expect_list_matches_reference(SchedulerOptions{}, "append");
}

TEST(SchedulerEquivalence, ListAppendLatenessModeMatchesLegacyBitwise) {
  SchedulerOptions options;
  options.abort_on_miss = false;  // run to completion, report lateness
  expect_list_matches_reference(options, "lateness");
}

TEST(SchedulerEquivalence, ListInsertionMatchesLegacyBitwise) {
  SchedulerOptions options;
  options.placement = PlacementPolicy::kInsertion;
  options.abort_on_miss = false;
  expect_list_matches_reference(options, "insertion");
}

TEST(SchedulerEquivalence, ListBusContentionMatchesLegacyBitwise) {
  SchedulerOptions options;
  options.simulate_bus_contention = true;
  options.abort_on_miss = false;
  expect_list_matches_reference(options, "bus");
}

// ---------------------------------------------------------------------------
// Time-marching dispatcher: nominal and under injected faults.
// ---------------------------------------------------------------------------

TEST(SchedulerEquivalence, DispatchNominalMatchesLegacyBitwise) {
  SchedulerWorkspace ws;
  SchedulerResult engine;
  for (const MetricKind kind : kAllMetrics) {
    for (const std::uint64_t seed : kSeeds) {
      expect_dispatch_matches_reference(ws, engine, prepare(kind, seed),
                                        nullptr, nullptr, nullptr,
                                        "dispatch " + context_of(kind, seed));
    }
  }
}

TEST(SchedulerEquivalence, DispatchUnderFaultsMatchesLegacyBitwise) {
  // Overruns, delay spikes, and random processor failures all active: the
  // conditions exercise the wcet adjustment, the flattened arc factors, and
  // the failure/kill path of the engine.
  FaultSpec spec;
  spec.overrun_factor = 1.7;
  spec.overrun_probability = 0.5;
  spec.spike_probability = 0.3;
  spec.spike_factor = 4.0;
  spec.random_failure_probability = 0.4;
  spec.random_failure_window = Window{0.0, 40.0};

  SchedulerWorkspace ws;
  SchedulerResult engine;
  for (const MetricKind kind : kAllMetrics) {
    for (const std::uint64_t seed : kSeeds) {
      const Prepared p = prepare(kind, seed);
      spec.seed = seed * 977 + 13;
      const FaultTrace trace =
          FaultModel(spec).instantiate(p.scenario.application,
                                       p.scenario.platform);
      expect_dispatch_matches_reference(ws, engine, p, &trace.conditions,
                                        nullptr, nullptr,
                                        "faults " + context_of(kind, seed));
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized fault-trace fuzzing: the event-queue dispatcher must track the
// legacy rescan loop bit-for-bit through arbitrary interleavings of WCET
// overruns (including early completions), delay spikes, surprise processor
// halts, and — with a recovery control attached — window rewrites,
// migrations, shed optionals, and victim revivals.
// ---------------------------------------------------------------------------

FaultSpec fuzz_spec(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  FaultSpec spec;
  spec.seed = rng();
  spec.scope =
      unit(rng) < 0.5 ? OverrunScope::kUniform : OverrunScope::kHotSpot;
  spec.overrun_probability = unit(rng);
  spec.overrun_factor = 0.5 + 2.5 * unit(rng);  // <1 = early completions
  if (unit(rng) < 0.4) {
    spec.overrun_addend = 3.0 * unit(rng);
  }
  spec.hotspot_fraction = 0.1 + 0.8 * unit(rng);
  spec.spike_probability = 0.7 * unit(rng);
  spec.spike_factor = 1.0 + 6.0 * unit(rng);
  spec.random_failure_probability = 0.8 * unit(rng);
  spec.random_failure_window =
      Window{5.0 * unit(rng), 20.0 + 80.0 * unit(rng)};
  if (unit(rng) < 0.3) {
    // A deterministic early halt on processor 0 on top of the random ones:
    // multi-failure runs exercise repeated kill/strand paths.
    spec.failures.push_back(ProcessorFailure{0, 5.0 + 40.0 * unit(rng)});
  }
  return spec;
}

TEST(SchedulerEquivalence, DispatchFaultTraceFuzzMatchesLegacyBitwise) {
  std::mt19937_64 rng(0xD15F0A57u);
  SchedulerWorkspace ws;
  SchedulerResult engine;
  for (int it = 0; it < 24; ++it) {
    const MetricKind kind = kAllMetrics[it % 4];
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(it);
    const Prepared p = prepare(kind, seed);
    const FaultTrace trace = FaultModel(fuzz_spec(rng))
                                 .instantiate(p.scenario.application,
                                              p.scenario.platform);
    expect_dispatch_matches_reference(
        ws, engine, p, &trace.conditions, nullptr, nullptr,
        "fuzz it=" + std::to_string(it) + " " + context_of(kind, seed) +
            " [" + trace.summary() + "]");
  }
}

/// Like prepare(), but the workload carries optional parts so shed-capable
/// recovery policies have something to drop.
Prepared prepare_imprecise(MetricKind kind, std::uint64_t seed) {
  GeneratorConfig cfg = equivalence_generator(seed);
  cfg.workload.min_optional_fraction = 0.2;
  cfg.workload.max_optional_fraction = 0.6;
  return prepare(kind, seed, cfg);
}

TEST(SchedulerEquivalence, DispatchRecoveryFuzzMatchesLegacyBitwise) {
  // Every recovery policy over randomized fault traces on imprecise
  // workloads: on_completion re-slices rewrite windows mid-run,
  // on_processor_failure revives victims onto re-pinned processors, and the
  // shed policies flip degraded-mode flags — each must surface through the
  // event queue exactly as it did through the legacy rescans. The controls
  // are stateful, so each side runs its own instance; identical inputs make
  // their decision streams identical as long as the dispatch states agree.
  constexpr RecoveryPolicy kPolicies[] = {
      RecoveryPolicy::kRedistributeSlack, RecoveryPolicy::kMigrate,
      RecoveryPolicy::kShedOptional, RecoveryPolicy::kDegradeThenMigrate};
  std::mt19937_64 rng(0xFA57BEEFu);
  SchedulerWorkspace ws;
  SchedulerResult engine;
  int it = 0;
  for (const RecoveryPolicy policy : kPolicies) {
    for (int r = 0; r < 5; ++r, ++it) {
      const MetricKind kind = kAllMetrics[it % 4];
      const std::uint64_t seed = 2000 + static_cast<std::uint64_t>(it);
      const Prepared p = prepare_imprecise(kind, seed);
      const FaultTrace trace = FaultModel(fuzz_spec(rng))
                                   .instantiate(p.scenario.application,
                                                p.scenario.platform);
      const auto est = estimate_wcets(p.scenario.application,
                                      WcetEstimation::kAverage);
      RecoveryEngine engine_control(policy, p.scenario.application, est);
      RecoveryEngine legacy_control(policy, p.scenario.application, est);
      const std::string context =
          "recovery fuzz policy=" + std::string(to_string(policy)) +
          " it=" + std::to_string(it) + " " + context_of(kind, seed) + " [" +
          trace.summary() + "]";
      expect_dispatch_matches_reference(ws, engine, p, &trace.conditions,
                                        &engine_control, &legacy_control,
                                        context);
      SCOPED_TRACE(context);
      EXPECT_EQ(legacy_control.stats().reslices,
                engine_control.stats().reslices);
      EXPECT_EQ(legacy_control.stats().migrations,
                engine_control.stats().migrations);
      EXPECT_EQ(legacy_control.stats().revived,
                engine_control.stats().revived);
      EXPECT_EQ(legacy_control.stats().abandoned,
                engine_control.stats().abandoned);
      EXPECT_EQ(legacy_control.stats().shed, engine_control.stats().shed);
      EXPECT_EQ(legacy_control.stats().optional_dropped,
                engine_control.stats().optional_dropped);
    }
  }
}

// ---------------------------------------------------------------------------
// Allocation behaviour: the warm path must not grow a single buffer.
// ---------------------------------------------------------------------------

TEST(SchedulerEquivalence, WarmPathGrowsZeroBuffers) {
  SchedulerWorkspace ws;
  SchedulerResult result;

  const auto run_batch = [&] {
    for (const std::uint64_t seed : kSeeds) {
      const Prepared p = prepare(MetricKind::kAdaptL, seed);
      {
        SchedulerOptions options;
        EdfListScheduler(options).run_into(result, ws, p.scenario.application,
                                           p.assignment, p.scenario.platform);
      }
      {
        SchedulerOptions options;
        options.placement = PlacementPolicy::kInsertion;
        EdfListScheduler(options).run_into(result, ws, p.scenario.application,
                                           p.assignment, p.scenario.platform);
      }
      {
        SchedulerOptions options;
        options.simulate_bus_contention = true;
        options.abort_on_miss = false;
        EdfListScheduler(options).run_into(result, ws, p.scenario.application,
                                           p.assignment, p.scenario.platform);
      }
      {
        DispatchOptions options;
        options.abort_on_miss = false;
        EdfDispatchScheduler(options).run_into(result, ws,
                                               p.scenario.application,
                                               p.assignment,
                                               p.scenario.platform);
      }
    }
  };

  run_batch();  // cold: sizes every buffer for the batch's largest scenario
  run_batch();  // settle: result shells and timelines reach steady state
  const std::uint64_t warm = ws.grow_events();
  run_batch();
  run_batch();
  EXPECT_EQ(ws.grow_events(), warm)
      << "warm scheduler runs must not grow workspace buffers";
}

}  // namespace
}  // namespace dsslice
