// P4: before/after performance harness for the allocation-free scheduler
// engine.
//
// Measures, per graph size, the per-scenario throughput of:
//  * the EDF list scheduler (append and insertion placement): the legacy
//    per-run implementation (linear ready-list scans, per-candidate
//    allocations, virtual comm_delay per predecessor) vs the engine's
//    run_into path (binary ready heap, cached CSR adjacency, reusable
//    SchedulerWorkspace buffers);
//  * the time-marching EDF dispatcher: the legacy implementation (per-run
//    state vectors, unordered_map arc factors, virtual network delays) vs
//    the engine path (flat arc factors, devirtualized shared-bus delay,
//    workspace-backed state);
// plus an end-to-end comparison: evaluate_scenario-style loops (generate +
// slice + schedule) with the legacy schedulers vs the engine.
//
// The "legacy" side is the pre-engine implementation, reference::list_run
// and reference::dispatch_run (reference/scheduling.hpp), built in the same
// tree under identical flags. The equivalence suite
// (tests/test_scheduler_equivalence.cpp) pins the two to bit-identical
// schedules; this harness re-asserts identity on its own scenarios, asserts
// the warm engine loops perform zero scheduler-state allocations
// (SchedulerWorkspace::grow_events), then reports speedups and writes
// BENCH_scheduling.json.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dsslice/dsslice.hpp"
#include "reference/scheduling.hpp"

#include "bench_common.hpp"

namespace {

using namespace dsslice;
using bench::json_number;

// ---------------------------------------------------------------------------
// Measurement scaffolding.
// ---------------------------------------------------------------------------

/// Scenarios per size row. Each row times all of them back to back and
/// reports scenarios/sec, so the number is a multi-seed average rather than
/// the throughput of one fixed-seed graph — single seeds over- or
/// under-state a row by >2x depending on how the generated DAG happens to
/// shape the ready sets (the PR 4 bench residual).
constexpr std::size_t kRowSeeds = 5;

/// Bitwise schedule equality: exact placements, start/finish instants, bus
/// reservations, and outcome flags (no epsilon — the engine must match the
/// legacy scheduler to the last bit).
bool same_result(const SchedulerResult& a, const SchedulerResult& b) {
  if (a.success != b.success || a.failed_task != b.failed_task) {
    return false;
  }
  if (a.schedule.task_count() != b.schedule.task_count() ||
      a.schedule.placed_count() != b.schedule.placed_count()) {
    return false;
  }
  for (NodeId v = 0; v < a.schedule.task_count(); ++v) {
    if (a.schedule.placed(v) != b.schedule.placed(v)) {
      return false;
    }
    if (!a.schedule.placed(v)) {
      continue;
    }
    const ScheduledTask& ea = a.schedule.entry(v);
    const ScheduledTask& eb = b.schedule.entry(v);
    if (ea.processor != eb.processor || ea.start != eb.start ||
        ea.finish != eb.finish) {
      return false;
    }
  }
  if (a.bus_transfers.size() != b.bus_transfers.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.bus_transfers.size(); ++k) {
    const BusTransfer& ta = a.bus_transfers[k];
    const BusTransfer& tb = b.bus_transfers[k];
    if (ta.from != tb.from || ta.to != tb.to || ta.start != tb.start ||
        ta.finish != tb.finish) {
      return false;
    }
  }
  return true;
}

struct EngineRow {
  std::string name;
  double legacy_per_sec = 0.0;
  double engine_per_sec = 0.0;
  std::uint64_t warm_grow_events = 0;  // must be 0
  bool identical = false;
  double speedup() const {
    return legacy_per_sec > 0.0 ? engine_per_sec / legacy_per_sec : 0.0;
  }
};

struct SizeReport {
  std::size_t tasks = 0;
  std::vector<EngineRow> engines;
};

struct EndToEndRow {
  std::string algorithm;
  std::size_t tasks = 0;
  double legacy_per_sec = 0.0;
  double engine_per_sec = 0.0;
  double speedup() const {
    return legacy_per_sec > 0.0 ? engine_per_sec / legacy_per_sec : 0.0;
  }
};

std::string to_json(const std::vector<SizeReport>& reports,
                    const std::vector<EndToEndRow>& e2e,
                    std::size_t processors) {
  std::string out = "{\n";
  out += "  \"benchmark\": \"scheduler-engine\",\n";
  out += "  \"processors\": " + std::to_string(processors) + ",\n";
  out += "  \"seeds_per_row\": " + std::to_string(kRowSeeds) + ",\n";
  out += "  \"machine\": " + bench::machine_json(1) + ",\n";
  out += "  \"metric_unit\": {\"scheduler\": \"scenarios/sec\", "
         "\"end_to_end\": \"scenarios/sec\"},\n";
  out += "  \"sizes\": [\n";
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const SizeReport& s = reports[r];
    out += "    {\n";
    out += "      \"tasks\": " + std::to_string(s.tasks) + ",\n";
    out += "      \"engines\": [\n";
    for (std::size_t k = 0; k < s.engines.size(); ++k) {
      const EngineRow& e = s.engines[k];
      out += "        {\"engine\": \"" + e.name + "\", \"legacy_per_sec\": " +
             json_number(e.legacy_per_sec) + ", \"engine_per_sec\": " +
             json_number(e.engine_per_sec) + ", \"speedup\": " +
             json_number(e.speedup()) + ", \"warm_grow_events\": " +
             std::to_string(e.warm_grow_events) + ", \"identical\": " +
             (e.identical ? "true" : "false") + "}";
      out += (k + 1 < s.engines.size()) ? ",\n" : "\n";
    }
    out += "      ]\n";
    out += "    }";
    out += (r + 1 < reports.size()) ? ",\n" : "\n";
  }
  out += "  ],\n";
  out += "  \"end_to_end\": [\n";
  for (std::size_t k = 0; k < e2e.size(); ++k) {
    const EndToEndRow& e = e2e[k];
    out += "    {\"algorithm\": \"" + e.algorithm + "\", \"tasks\": " +
           std::to_string(e.tasks) + ", \"legacy_per_sec\": " +
           json_number(e.legacy_per_sec) + ", \"engine_per_sec\": " +
           json_number(e.engine_per_sec) + ", \"speedup\": " +
           json_number(e.speedup()) + "}";
    out += (k + 1 < e2e.size()) ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

SizeReport measure_size(std::size_t tasks, std::size_t processors,
                        double min_seconds) {
  SizeReport report;
  report.tasks = tasks;

  const GeneratorConfig cfg = bench::sized_config(tasks, processors);
  std::vector<Scenario> scenarios;
  std::vector<DeadlineAssignment> assignments;
  scenarios.reserve(kRowSeeds);
  assignments.reserve(kRowSeeds);
  const DeadlineMetric adapt_l(MetricKind::kAdaptL);
  for (std::size_t k = 0; k < kRowSeeds; ++k) {
    scenarios.push_back(generate_scenario_at(cfg, k));
    const Application& app = scenarios.back().application;
    const auto est = estimate_wcets(app, WcetEstimation::kAverage);
    assignments.push_back(run_slicing(app, est, adapt_l, processors));
  }

  SchedulerWorkspace ws;
  SchedulerResult engine_result;

  // One row per engine: time the legacy run, time the engine's run_into
  // (after one warm-up pass over every seed so buffer growth is off the
  // timed path), assert the results stay bit-identical on every seed and
  // the warm loop never grows a buffer. Each timed call covers all
  // kRowSeeds scenarios, so per-sec rates divide by the seed count.
  const auto measure =
      [&](const std::string& name, const auto& run_legacy,
          const auto& run_engine) {
        EngineRow row;
        row.name = name;
        row.identical = true;
        for (std::size_t k = 0; k < kRowSeeds; ++k) {
          const SchedulerResult before = run_legacy(k);
          run_engine(k);                  // warm-up: sizes every buffer
          run_engine(k);                  // settle (result-shell reuse)
          row.identical = row.identical && same_result(before, engine_result);
        }
        const std::uint64_t grow_before = ws.grow_events();
        const auto [legacy_s, engine_s] = bench::time_per_call_pair(
            min_seconds, 3,
            [&] {
              for (std::size_t k = 0; k < kRowSeeds; ++k) {
                volatile bool sink = run_legacy(k).success;
                (void)sink;
              }
            },
            [&] {
              for (std::size_t k = 0; k < kRowSeeds; ++k) {
                run_engine(k);
                volatile bool sink = engine_result.success;
                (void)sink;
              }
            });
        row.legacy_per_sec = kRowSeeds / legacy_s;
        row.engine_per_sec = kRowSeeds / engine_s;
        row.warm_grow_events = ws.grow_events() - grow_before;
        report.engines.push_back(row);
      };

  for (const PlacementPolicy placement :
       {PlacementPolicy::kAppend, PlacementPolicy::kInsertion}) {
    SchedulerOptions options;
    options.placement = placement;
    const EdfListScheduler scheduler(options);
    measure(
        placement == PlacementPolicy::kAppend ? "list-append"
                                              : "list-insertion",
        [&](std::size_t k) {
          return reference::list_run(scenarios[k].application,
                                     assignments[k], scenarios[k].platform,
                                     options);
        },
        [&](std::size_t k) {
          scheduler.run_into(engine_result, ws, scenarios[k].application,
                             assignments[k], scenarios[k].platform);
        });
  }
  {
    DispatchOptions options;
    options.abort_on_miss = false;
    const EdfDispatchScheduler scheduler(options);
    measure(
        "dispatch",
        [&](std::size_t k) {
          return reference::dispatch_run(scenarios[k].application,
                                         assignments[k], scenarios[k].platform,
                                         options);
        },
        [&](std::size_t k) {
          scheduler.run_into(engine_result, ws, scenarios[k].application,
                             assignments[k], scenarios[k].platform);
        });
  }
  return report;
}

/// End-to-end scenario evaluation (generate + estimate + slice + schedule)
/// with the legacy scheduler in the loop — the pre-engine shape of
/// evaluate_scenario, sharing the slicing workspace so the delta isolates
/// the scheduling side.
bool legacy_evaluate(const ExperimentConfig& config, std::uint64_t seed,
                     ScenarioScratch& scratch) {
  const Scenario scenario = generate_scenario(config.generator, seed);
  const std::vector<double> est =
      estimate_wcets(scenario.application, config.wcet_strategy);
  const DeadlineAssignment assignment =
      distribute_for_config(config, scenario.application, scenario.platform,
                            est, nullptr, &scratch);
  if (config.algorithm == SchedulerAlgorithm::kDispatchEdf) {
    DispatchOptions options;
    options.abort_on_miss = config.scheduler.abort_on_miss;
    return reference::dispatch_run(scenario.application, assignment,
                                   scenario.platform, options)
        .success;
  }
  return reference::list_run(scenario.application, assignment,
                             scenario.platform, config.scheduler)
      .success;
}

EndToEndRow measure_end_to_end(SchedulerAlgorithm algorithm,
                               std::size_t tasks, std::size_t processors,
                               double min_seconds) {
  EndToEndRow row;
  row.algorithm = to_string(algorithm);
  row.tasks = tasks;

  ExperimentConfig config;
  config.generator = bench::sized_config(tasks, processors);
  config.algorithm = algorithm;
  config.scheduler.abort_on_miss = false;

  constexpr std::size_t kSeeds = 4;
  ScenarioScratch scratch;
  const auto [legacy_s, engine_s] = bench::time_per_call_pair(
      min_seconds, 3,
      [&] {
        for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
          volatile bool sink = legacy_evaluate(config, seed, scratch);
          (void)sink;
        }
      },
      [&] {
        for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
          volatile bool sink =
              evaluate_scenario(config, seed, &scratch).scheduled;
          (void)sink;
        }
      });
  row.legacy_per_sec = kSeeds / legacy_s;
  row.engine_per_sec = kSeeds / engine_s;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("perf_scheduling",
                "Before/after benchmark of the allocation-free scheduler "
                "engine (list, insertion, dispatch).");
  cli.add_flag("json", "", "write results as JSON to this path");
  cli.add_flag("processors", "3", "processor count m");
  cli.add_flag("min-ms", "100", "minimum wall time per measurement (ms)");
  cli.add_bool_flag("smoke", "tiny sizes / short timings (CI sanity run)");
  dsslice::obs::ObsCli::register_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  dsslice::obs::ObsCli obs_session(cli);
  const auto processors = cli.get_count("processors");
  const bool smoke = cli.get_bool("smoke");
  const double min_seconds =
      (smoke ? 5.0 : static_cast<double>(cli.get_int("min-ms"))) / 1000.0;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{64, 256}
            : std::vector<std::size_t>{64, 128, 256, 512, 1024};

  std::printf("perf_scheduling: m=%zu, sizes:", processors);
  for (const std::size_t n : sizes) {
    std::printf(" %zu", n);
  }
  std::printf("%s\n\n", smoke ? " (smoke)" : "");

  std::vector<SizeReport> reports;
  bool clean = true;
  for (const std::size_t n : sizes) {
    SizeReport r = measure_size(n, processors, min_seconds);
    std::printf("n=%4zu ", r.tasks);
    for (const EngineRow& e : r.engines) {
      std::printf(" %s %.0f -> %.0f /s (%.1fx)%s", e.name.c_str(),
                  e.legacy_per_sec, e.engine_per_sec, e.speedup(),
                  e.identical ? "" : " MISMATCH");
      if (!e.identical || e.warm_grow_events != 0) {
        clean = false;
      }
      if (e.warm_grow_events != 0) {
        std::printf(" grows=%llu",
                    static_cast<unsigned long long>(e.warm_grow_events));
      }
    }
    std::printf("\n");
    reports.push_back(std::move(r));
  }

  std::vector<EndToEndRow> e2e;
  const std::size_t e2e_tasks = smoke ? 64 : 256;
  for (const SchedulerAlgorithm algorithm :
       {SchedulerAlgorithm::kListEdf, SchedulerAlgorithm::kDispatchEdf}) {
    EndToEndRow row =
        measure_end_to_end(algorithm, e2e_tasks, processors, min_seconds);
    std::printf("e2e %s n=%zu  %.0f -> %.0f scenarios/sec (%.2fx)\n",
                row.algorithm.c_str(), row.tasks, row.legacy_per_sec,
                row.engine_per_sec, row.speedup());
    e2e.push_back(std::move(row));
  }

  if (!clean) {
    std::fprintf(stderr,
                 "FAIL: engine diverged from the legacy scheduler or grew "
                 "buffers on the warm path\n");
    return 1;
  }
  std::printf("\nengine bit-identical to legacy, warm loops grew zero "
              "buffers: OK\n");

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    if (write_text_file(json_path, to_json(reports, e2e, processors))) {
      std::printf("JSON written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
      return 1;
    }
  }
  obs_session.finish();
  return 0;
}
