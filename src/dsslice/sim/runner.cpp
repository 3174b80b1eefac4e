#include "dsslice/sim/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <vector>

#include "dsslice/obs/trace.hpp"
#include "dsslice/sweep/sweep_engine.hpp"

namespace dsslice {

namespace {

std::atomic<std::size_t> g_grain_override{0};

ExperimentResult run_batch(
    const ExperimentConfig& config, ThreadPool* pool,
    const std::function<void(std::size_t, const GraphOutcome&)>* sink) {
  DSSLICE_SPAN("sim.batch");
  config.generator.validate();
  const std::size_t count = config.generator.graph_count;
  DSSLICE_GAUGE("sim.batch.graphs", count);
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<GraphOutcome> outcomes(count);
  // Each chunk runs through the sweep engine's evaluation loop on the
  // worker's arena (ScenarioBatch generation, the batch slicing kernel,
  // recycled scheduler scratch); chunking amortizes the dispatch overhead
  // while still load-balancing uneven graph costs.
  const OutcomeSink store = [&outcomes](std::size_t k,
                                        const GraphOutcome& outcome) {
    outcomes[k] = outcome;
  };
  const auto run_range = [&](std::size_t begin, std::size_t end) {
    evaluate_range(config, begin, end - begin, store);
  };
  if (pool != nullptr) {
    const std::size_t override = experiment_grain();
    const std::size_t grain =
        override != 0 ? override
                      : std::clamp<std::size_t>(
                            count / (8 * std::max<std::size_t>(1, pool->size())),
                            1, 64);
    parallel_for(*pool, count, grain, run_range);
  } else {
    run_range(0, count);
  }

  ExperimentResult result;
  for (std::size_t k = 0; k < count; ++k) {
    result.add(outcomes[k]);
    if (sink != nullptr) {
      (*sink)(k, outcomes[k]);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  DSSLICE_COUNT("sim.batches", 1);
  DSSLICE_COUNT("sim.scenarios", count);
  return result;
}

}  // namespace

void set_experiment_grain(std::size_t grain) {
  g_grain_override.store(grain, std::memory_order_relaxed);
}

std::size_t experiment_grain() {
  return g_grain_override.load(std::memory_order_relaxed);
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                ThreadPool& pool) {
  return run_batch(config, &pool, nullptr);
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  return run_experiment(config, global_pool());
}

ExperimentResult run_experiment_serial(const ExperimentConfig& config) {
  return run_batch(config, nullptr, nullptr);
}

ExperimentResult run_experiment_with_outcomes(
    const ExperimentConfig& config, ThreadPool& pool,
    const std::function<void(std::size_t, const GraphOutcome&)>& sink) {
  return run_batch(config, &pool, &sink);
}

}  // namespace dsslice
