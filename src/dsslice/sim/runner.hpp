// Batch experiment execution, parallelized across task sets.
//
// Each of the batch's graphs carries its own derived seed, so the outcome
// of graph k is independent of execution order: parallel and serial runs
// produce bit-identical statistics (asserted by the property tests).
// Evaluation goes through the sweep engine's evaluate_range
// (sweep/sweep_engine.hpp): ScenarioBatch generation and, for slicing
// techniques, the SoA batch slicing kernel — bit-identical to folding
// evaluate_scenario over the indices.
#pragma once

#include <functional>

#include "dsslice/sim/experiment.hpp"
#include "dsslice/util/thread_pool.hpp"

namespace dsslice {

/// Overrides the parallel chunk size used by run_experiment's worker loop.
/// 0 (the default) restores the automatic heuristic
/// (count / (8 × threads), clamped to [1, 64]). The override is process-wide
/// and is intended for grain-sensitivity benchmarking (`--grain` in the
/// bench binaries); results are unaffected — graph k's outcome depends only
/// on its derived seed, never on which worker or chunk evaluated it.
void set_experiment_grain(std::size_t grain);

/// Current process-wide grain override (0 = automatic).
std::size_t experiment_grain();

/// Runs config.generator.graph_count task sets on the given pool and
/// aggregates their outcomes in index order (deterministic reduction).
ExperimentResult run_experiment(const ExperimentConfig& config,
                                ThreadPool& pool);

/// Convenience overload using the process-wide pool.
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Strictly serial run (reference implementation for determinism tests).
ExperimentResult run_experiment_serial(const ExperimentConfig& config);

/// Streams every per-graph outcome (index order) to `sink` after the batch
/// completes — used by benches that need distributions, not just means.
ExperimentResult run_experiment_with_outcomes(
    const ExperimentConfig& config, ThreadPool& pool,
    const std::function<void(std::size_t, const GraphOutcome&)>& sink);

}  // namespace dsslice
