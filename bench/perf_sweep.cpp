// P8: before/after harness for the million-scenario sweep engine.
//
// Measures the two layers the sweep engine changed:
//  * scenario generation: the legacy per-scenario path (fresh vectors, a
//    structure graph rebuilt into a second message-annotated graph) vs the
//    ScenarioBatch path (recycled graph/task storage, single graph build);
//  * end to end: legacy generation + one-scenario-at-a-time evaluation vs
//    run_sweep's sharded, arena-backed streaming aggregation.
//
// The "legacy" side is the pre-batching generator,
// reference::generate_scenario (reference/generation.hpp), built in the same
// tree under identical flags. The harness asserts the batched path
// reproduces the legacy scenarios bit-for-bit, that resume-after-interrupt
// and thread count leave the streamed aggregate bit-identical, and that the
// warm sweep path performs zero scratch-buffer growths; it then reports
// speedups, runs the large streaming sweep, and writes BENCH_sweep.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dsslice/dsslice.hpp"
#include "reference/generation.hpp"

#include "bench_common.hpp"

namespace {

using namespace dsslice;
using bench::json_number;

// ---------------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

constexpr std::size_t kGenChunk = 64;

struct Report {
  bool generation_identical = true;
  bool resume_identical = false;
  bool thread_identical = false;
  bool batch_identical = false;
  std::uint64_t steady_grow_events = ~std::uint64_t{0};
  std::size_t timing_scenarios = 0;
  double gen_legacy_us = 0.0;
  double gen_batched_us = 0.0;
  double e2e_legacy_us = 0.0;
  double e2e_sweep_us = 0.0;
  double scalar_sweep_us = 0.0;  // sweep with the batch kernel disabled
  // The large streaming run.
  std::size_t sweep_scenarios = 0;
  std::size_t sweep_shards = 0;
  std::size_t checkpoints_written = 0;
  double sweep_wall_seconds = 0.0;
  bool sweep_complete = false;

  double gen_speedup() const {
    return gen_batched_us > 0.0 ? gen_legacy_us / gen_batched_us : 0.0;
  }
  double e2e_speedup() const {
    return e2e_sweep_us > 0.0 ? e2e_legacy_us / e2e_sweep_us : 0.0;
  }
  double batch_kernel_speedup() const {
    return e2e_sweep_us > 0.0 ? scalar_sweep_us / e2e_sweep_us : 0.0;
  }
  double sweep_per_sec() const {
    return sweep_wall_seconds > 0.0
               ? static_cast<double>(sweep_scenarios) / sweep_wall_seconds
               : 0.0;
  }
};

std::string to_json(const Report& r) {
  std::string out = "{\n";
  out += "  \"benchmark\": \"sweep-engine\",\n";
  out += "  \"machine\": " + bench::machine_json(1) + ",\n";
  out += "  \"baseline\": \"pre-batching generation + one-scenario-at-a-time "
         "evaluation, single thread\",\n";
  out += "  \"timing_scenarios\": " + std::to_string(r.timing_scenarios) +
         ",\n";
  out += "  \"generation\": {\"legacy_us\": " + json_number(r.gen_legacy_us) +
         ", \"batched_us\": " + json_number(r.gen_batched_us) +
         ", \"speedup\": " + json_number(r.gen_speedup()) + "},\n";
  out += "  \"end_to_end\": {\"legacy_us\": " + json_number(r.e2e_legacy_us) +
         ", \"sweep_us\": " + json_number(r.e2e_sweep_us) +
         ", \"speedup\": " + json_number(r.e2e_speedup()) + "},\n";
  out += "  \"batch_kernel\": {\"scalar_us\": " +
         json_number(r.scalar_sweep_us) +
         ", \"kernel_us\": " + json_number(r.e2e_sweep_us) +
         ", \"speedup\": " + json_number(r.batch_kernel_speedup()) + "},\n";
  out += std::string("  \"gates\": {\"generation_identical\": ") +
         (r.generation_identical ? "true" : "false") +
         ", \"resume_identical\": " + (r.resume_identical ? "true" : "false") +
         ", \"thread_identical\": " + (r.thread_identical ? "true" : "false") +
         ", \"batch_identical\": " + (r.batch_identical ? "true" : "false") +
         ", \"steady_grow_events\": " +
         std::to_string(r.steady_grow_events) +
         ", \"generation_speedup_floor\": 2.0},\n";
  out += "  \"sweep_run\": {\"scenarios\": " +
         std::to_string(r.sweep_scenarios) +
         ", \"shards\": " + std::to_string(r.sweep_shards) +
         ", \"checkpoints_written\": " +
         std::to_string(r.checkpoints_written) +
         ", \"wall_seconds\": " + json_number(r.sweep_wall_seconds) +
         ", \"scenarios_per_sec\": " + json_number(r.sweep_per_sec()) +
         std::string(", \"complete\": ") +
         (r.sweep_complete ? "true" : "false") + "}\n";
  out += "}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("perf_sweep",
                "Before/after benchmark of the batched sweep engine: legacy "
                "per-scenario generation vs ScenarioBatch, one-at-a-time "
                "evaluation vs sharded streaming aggregation.");
  cli.add_flag("json", "", "write results as JSON to this path");
  cli.add_flag("scenarios", "1000000", "scenario count of the streaming run");
  cli.add_flag("timing-scenarios", "20000",
               "scenario count of each timed comparison pass");
  cli.add_flag("checkpoint", "", "checkpoint path of the streaming run "
               "(default: <json>.ckpt or a temp file)");
  cli.add_bool_flag("smoke", "tiny counts (CI sanity run)");
  dsslice::obs::ObsCli::register_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  dsslice::obs::ObsCli obs_session(cli);
  const bool smoke = cli.get_bool("smoke");
  Report report;
  report.timing_scenarios = smoke
      ? 2000
      : static_cast<std::size_t>(cli.get_int("timing-scenarios"));
  const auto sweep_scenarios = smoke
      ? std::size_t{4096}
      : static_cast<std::size_t>(cli.get_int("scenarios"));

  ExperimentConfig config;  // paper defaults: 40-60 tasks, m=3, ADAPT-L
  const GeneratorConfig& gen = config.generator;
  std::printf("perf_sweep: timing over %zu scenarios, streaming run %zu%s\n\n",
              report.timing_scenarios, sweep_scenarios, smoke ? " (smoke)" : "");

  // Gate 1: the batched path must reproduce the legacy scenarios bit for bit.
  {
    ScenarioBatch batch;
    batch.generate(gen, 0, 32);
    for (std::size_t k = 0; k < 32; ++k) {
      const Scenario single =
          reference::generate_scenario(gen, derive_seed(gen.base_seed, k));
      if (serialize_scenario(single) != serialize_scenario(batch[k])) {
        report.generation_identical = false;
      }
    }
  }
  std::printf("batched generation bit-identical to legacy: %s\n",
              report.generation_identical ? "OK" : "FAIL");

  // Generation: legacy one-at-a-time vs batched, amortized per scenario.
  {
    const std::size_t n = report.timing_scenarios;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      volatile std::size_t sink =
          reference::generate_scenario(gen, derive_seed(gen.base_seed, i))
              .application.task_count();
      (void)sink;
    }
    const auto t1 = Clock::now();
    ScenarioBatch batch;
    for (std::size_t i = 0; i < n; i += kGenChunk) {
      batch.generate(gen, i, std::min(kGenChunk, n - i));
    }
    const auto t2 = Clock::now();
    report.gen_legacy_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() /
        static_cast<double>(n);
    report.gen_batched_us =
        std::chrono::duration<double, std::micro>(t2 - t1).count() /
        static_cast<double>(n);
  }
  std::printf("generation  %7.1f us -> %7.1f us per scenario (%.2fx)\n",
              report.gen_legacy_us, report.gen_batched_us,
              report.gen_speedup());

  // End to end: legacy generation + one-scenario-at-a-time evaluation vs the
  // sweep engine on a single-thread pool (same parallelism on both sides).
  {
    const std::size_t n = report.timing_scenarios;
    ThreadPool pool(1);
    {  // warm the engine's arena so both sides time steady-state work
      SweepOptions warm;
      warm.scenario_count = std::min<std::size_t>(n, 512);
      (void)run_sweep(config, warm, pool);
    }
    ScenarioScratch scratch;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const Scenario sc =
          reference::generate_scenario(gen, derive_seed(gen.base_seed, i));
      volatile bool sink = evaluate_generated(config, sc, &scratch).scheduled;
      (void)sink;
    }
    const auto t1 = Clock::now();
    SweepOptions opt;
    opt.scenario_count = n;
    opt.shard_size = 512;
    const SweepReport kernel_run = run_sweep(config, opt, pool);
    const auto t2 = Clock::now();
    // The same sweep with the batch kernel switched off: the on/off pair
    // must fold to bit-identical aggregates, and the timing difference is
    // the kernel's contribution to end-to-end throughput.
    SweepOptions scalar_opt = opt;
    scalar_opt.use_batch_kernel = false;
    const SweepReport scalar_run = run_sweep(config, scalar_opt, pool);
    const auto t3 = Clock::now();
    report.batch_identical =
        serialize_sweep_aggregate(kernel_run.aggregate) ==
        serialize_sweep_aggregate(scalar_run.aggregate);
    report.e2e_legacy_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() /
        static_cast<double>(n);
    report.e2e_sweep_us =
        std::chrono::duration<double, std::micro>(t2 - t1).count() /
        static_cast<double>(n);
    report.scalar_sweep_us =
        std::chrono::duration<double, std::micro>(t3 - t2).count() /
        static_cast<double>(n);

    // Gate 2: zero warm-path scratch growth once the arena has settled.
    // rebuild_swap rotates batch storage against scenario shapes between
    // runs, so settle until a full run stays flat (bounded attempts)
    // before the measured run — growth is monotone, so a flat run at this
    // scenario count means the rotation has reached its high water.
    std::uint64_t before = sweep_arena_grow_events();
    for (int pass = 0; pass < 16; ++pass) {
      (void)run_sweep(config, opt, pool);
      const std::uint64_t now = sweep_arena_grow_events();
      if (now == before) {
        break;
      }
      before = now;
    }
    (void)run_sweep(config, opt, pool);
    report.steady_grow_events = sweep_arena_grow_events() - before;
  }
  std::printf("end to end  %7.1f us -> %7.1f us per scenario (%.2fx)\n",
              report.e2e_legacy_us, report.e2e_sweep_us, report.e2e_speedup());
  std::printf("batch kernel off -> on  %7.1f us -> %7.1f us (%.2fx), "
              "aggregates %s\n",
              report.scalar_sweep_us, report.e2e_sweep_us,
              report.batch_kernel_speedup(),
              report.batch_identical ? "identical" : "DIVERGED");
  std::printf("steady-state scratch growths: %llu\n",
              static_cast<unsigned long long>(report.steady_grow_events));

  // Gate 3: interrupt + resume and thread count leave the aggregate
  // bit-identical to an uninterrupted single-thread run.
  {
    const std::string ckpt =
        bench::temp_path("perf_sweep_resume.ckpt");
    std::remove(ckpt.c_str());
    SweepOptions opt;
    opt.scenario_count = smoke ? 2048 : 8192;
    opt.shard_size = 256;
    ThreadPool pool1(1);
    const SweepReport uninterrupted = run_sweep(config, opt, pool1);

    SweepOptions partial = opt;
    partial.checkpoint_path = ckpt;
    partial.checkpoint_every = 2;
    partial.max_shards = 3;
    (void)run_sweep(config, partial, pool1);  // interrupted after 3 shards
    SweepOptions rest = opt;
    rest.checkpoint_path = ckpt;
    rest.checkpoint_every = 2;
    rest.resume = true;
    const SweepReport resumed = run_sweep(config, rest, pool1);
    report.resume_identical =
        resumed.complete &&
        serialize_sweep_aggregate(resumed.aggregate) ==
            serialize_sweep_aggregate(uninterrupted.aggregate);

    ThreadPool pool4(4);
    const SweepReport threaded = run_sweep(config, opt, pool4);
    report.thread_identical =
        serialize_sweep_aggregate(threaded.aggregate) ==
        serialize_sweep_aggregate(uninterrupted.aggregate);
    std::remove(ckpt.c_str());
  }
  std::printf("resume-after-interrupt bit-identical: %s\n",
              report.resume_identical ? "OK" : "FAIL");
  std::printf("1-thread vs 4-thread bit-identical:   %s\n",
              report.thread_identical ? "OK" : "FAIL");

  // The large streaming run (the committed BENCH_sweep.json row).
  {
    std::string ckpt = cli.get_string("checkpoint");
    if (ckpt.empty()) {
      ckpt = bench::temp_path("perf_sweep_run.ckpt");
    }
    std::remove(ckpt.c_str());
    SweepOptions opt;
    opt.scenario_count = sweep_scenarios;
    opt.shard_size = 1024;
    opt.checkpoint_path = ckpt;
    opt.checkpoint_every = 64;
    const SweepReport run = run_sweep(config, opt);
    report.sweep_scenarios = run.scenarios();
    report.sweep_shards = run.shard_count;
    report.checkpoints_written = run.checkpoints_written;
    report.sweep_wall_seconds = run.wall_seconds;
    report.sweep_complete = run.complete;
    std::printf("\nstreaming run: %zu scenarios in %zu shards, %.1f s "
                "(%.0f scenarios/sec), %zu checkpoints, success %.4f\n",
                report.sweep_scenarios, report.sweep_shards,
                report.sweep_wall_seconds, report.sweep_per_sec(),
                report.checkpoints_written, run.aggregate.success_ratio());
    std::remove(ckpt.c_str());
  }

  bool ok = report.generation_identical && report.resume_identical &&
            report.thread_identical && report.batch_identical &&
            report.steady_grow_events == 0 && report.sweep_complete;
  if (report.gen_speedup() < 2.0) {
    std::fprintf(stderr,
                 "FAIL: batched generation %.2fx below the 2x floor\n",
                 report.gen_speedup());
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr, "FAIL: sweep gates violated\n");
  }

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    if (write_text_file(json_path, to_json(report))) {
      std::printf("JSON written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
      return 1;
    }
  }
  obs_session.finish();
  return ok ? 0 : 1;
}
