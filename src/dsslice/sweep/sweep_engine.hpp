// Batch evaluation: the sharded, resumable sweep engine and the per-cell
// experiment driver, both on one evaluation loop (evaluate_range).
//
// run_experiment evaluates one figure cell — config.generator.graph_count
// task sets — in parallel chunks and folds the outcomes in index order.
// run_sweep is the throughput path for the roadmap's 10⁶–10⁷-scenario
// evaluation runs. Its layout: `scenario_count` scenarios are split into
// shards of `shard_size` consecutive scenario indices. A shard is the unit
// of scheduling, aggregation and checkpointing:
//
//   - min(pool size, pending shards) lanes on the thread pool claim shards
//     from one atomic cursor — no barrier between shards; within a shard,
//     evaluate_range generates scenarios in ScenarioBatch chunks
//     (amortizing generator scratch), slices each chunk in one
//     BatchSliceKernel pass and schedules every scenario with a per-thread
//     ScenarioScratch — after warm-up the whole path is allocation-free
//     (sweep_arena_grow_events() is the counter the benches gate on);
//   - each shard folds its outcomes into its own SweepAggregate; the final
//     result folds per-shard aggregates in shard-index order, so thread
//     count and completion order cannot perturb a single bit;
//   - the calling thread is the checkpoint writer: after every
//     `checkpoint_every` newly completed shards it takes the completed set
//     under the stream's lock, then persists the completed-shard bitmap
//     plus per-shard aggregates (sweep/checkpoint.hpp) outside it while the
//     lanes keep running; intervals that complete during a save fold into
//     the next one. With a 1-worker pool shards and saves run inline on the
//     caller. On return the file holds exactly the resumed shards plus this
//     call's. An interrupted sweep resumed from its checkpoint reproduces
//     the uninterrupted aggregates bit-exactly.
//
// Either driver's outcome for scenario k depends only on its derived seed,
// so parallel and serial runs produce bit-identical aggregates.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "dsslice/sim/experiment.hpp"
#include "dsslice/sweep/aggregate.hpp"
#include "dsslice/util/thread_pool.hpp"

namespace dsslice {

struct SweepOptions {
  /// Total number of scenarios (indices [0, scenario_count) under the
  /// config's base seed). Must be positive.
  std::size_t scenario_count = 0;
  /// Scenarios per shard. The shard is the checkpoint/aggregation grain:
  /// smaller shards checkpoint finer but fold more aggregates.
  std::size_t shard_size = 1024;
  /// Scenarios generated per ScenarioBatch chunk within a shard.
  std::size_t gen_chunk = 64;
  /// Save after every N newly completed shards (and once more at the end
  /// unless the last save already holds every shard); 0 = save only at the
  /// end. Only when checkpoint_path is set. Also the interval of the
  /// sweep.progress.* gauges.
  std::size_t checkpoint_every = 0;
  /// Checkpoint file path; empty disables checkpointing entirely.
  std::string checkpoint_path;
  /// When true and checkpoint_path exists, restore completed shards from it
  /// (rejecting fingerprint/layout mismatches) and compute only the rest.
  bool resume = false;
  /// Stop after running this many *new* shards (0 = no limit). This is the
  /// interruption hook: tests and benches use it to abandon a sweep at a
  /// checkpoint boundary and resume it later.
  std::size_t max_shards = 0;
};

struct SweepReport {
  SweepAggregate aggregate;  ///< fold of completed shards in index order
  std::size_t shard_count = 0;
  std::size_t shards_run = 0;      ///< shards computed by this call
  std::size_t shards_resumed = 0;  ///< shards restored from the checkpoint
  std::size_t checkpoints_written = 0;
  bool complete = false;  ///< every shard completed (run or resumed)
  double wall_seconds = 0.0;

  std::uint64_t scenarios() const { return aggregate.scenarios(); }
};

/// Runs (or resumes) a sweep on the given pool. Throws ConfigError for
/// invalid options or a checkpoint that does not match the configuration.
/// A shard or save error stops the lanes from claiming more shards and is
/// rethrown once every lane has returned.
SweepReport run_sweep(const ExperimentConfig& config,
                      const SweepOptions& options, ThreadPool& pool);

/// Convenience overload using the process-wide pool.
SweepReport run_sweep(const ExperimentConfig& config,
                      const SweepOptions& options);

/// Runs config.generator.graph_count task sets on the given pool and
/// aggregates their outcomes in index order (deterministic reduction).
/// Throws ConfigError for an invalid generator configuration.
SweepAggregate run_experiment(const ExperimentConfig& config,
                              ThreadPool& pool);

/// Convenience overload using the process-wide pool.
SweepAggregate run_experiment(const ExperimentConfig& config);

/// Strictly serial run (reference implementation for determinism tests).
SweepAggregate run_experiment_serial(const ExperimentConfig& config);

/// Receives the outcome of scenario `index` (absolute, under the config's
/// base seed).
using OutcomeSink = std::function<void(std::size_t index, const GraphOutcome&)>;

/// The evaluation loop shared by run_sweep and run_experiment: evaluates
/// scenarios [first, first + count) on the calling thread's arena and calls
/// `sink` once per index, in index order. Scenarios are generated in
/// ScenarioBatch chunks of up to `gen_chunk`; for slicing techniques each
/// chunk is sliced in one BatchSliceKernel pass and joined back into
/// evaluate_scheduled, otherwise every scenario goes through
/// evaluate_generated. Either way scenario k's outcome is bit-identical to
/// evaluate_scenario(config, derive_seed(base_seed, k)).
void evaluate_range(const ExperimentConfig& config, std::size_t first,
                    std::size_t count, const OutcomeSink& sink,
                    std::size_t gen_chunk = 64);

/// Capacity growths observed inside the sweep's per-thread arenas
/// (generator batch storage + scratch, scheduler workspaces, estimate
/// buffers) since process start, including arenas of exited threads. Warm
/// sweeps (and warm run_experiment batches, which share the arenas) must not
/// move this counter — the zero-allocation gate enforced by bench/perf_sweep
/// and the sweep and runner tests.
std::uint64_t sweep_arena_grow_events();

}  // namespace dsslice
