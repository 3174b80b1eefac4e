#include "dsslice/sweep/sweep_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <mutex>
#include <vector>

#include "dsslice/batch/slice_kernel.hpp"
#include "dsslice/gen/scenario_batch.hpp"
#include "dsslice/obs/trace.hpp"
#include "dsslice/sweep/checkpoint.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

/// Per-thread arena: one scenario batch (generator storage + scratch), one
/// batch slicing kernel and one evaluation scratch, reused across every
/// evaluate_range call the thread makes (sweep shards and run_experiment
/// chunks alike).
/// Arenas self-register so sweep_arena_grow_events() can see the growth
/// counters of live threads; a dying thread flushes its count into the
/// retired tally (the obs registry's live+retired idiom).
class SweepArena {
 public:
  SweepArena();
  ~SweepArena();

  SweepArena(const SweepArena&) = delete;
  SweepArena& operator=(const SweepArena&) = delete;

  ScenarioBatch batch;
  ScenarioScratch scratch;
  BatchSliceKernel kernel;

  /// Counts capacity growths of the scratch buffers that no workspace
  /// accounts for itself (the estimate vectors). Called after each
  /// evaluate_range — once warm these capacities are stable.
  void note_extra_capacity() {
    extra_grow_ += scratch.est.capacity() > est_cap_ ? 1 : 0;
    est_cap_ = std::max(est_cap_, scratch.est.capacity());
    extra_grow_ += scratch.mandatory_est.capacity() > mand_cap_ ? 1 : 0;
    mand_cap_ = std::max(mand_cap_, scratch.mandatory_est.capacity());
  }

  std::uint64_t grow_events() const {
    return batch.grow_events() + scratch.sched.grow_events() +
           kernel.grow_events() + extra_grow_;
  }

 private:
  std::uint64_t extra_grow_ = 0;
  std::size_t est_cap_ = 0;
  std::size_t mand_cap_ = 0;
};

struct ArenaRegistry {
  std::mutex mutex;
  std::vector<const SweepArena*> live;
  std::uint64_t retired = 0;
};

ArenaRegistry& arena_registry() {
  // Leaked on purpose: worker thread_locals may outlive any static with a
  // destructor, and a reachable singleton is not a leak to LSan.
  static ArenaRegistry* registry = new ArenaRegistry;
  return *registry;
}

SweepArena::SweepArena() {
  ArenaRegistry& reg = arena_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.live.push_back(this);
}

SweepArena::~SweepArena() {
  ArenaRegistry& reg = arena_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::erase(reg.live, this);
  reg.retired += grow_events();
}

SweepArena& local_arena() {
  thread_local SweepArena arena;
  return arena;
}

void validate_options(const SweepOptions& options) {
  if (options.scenario_count == 0) {
    throw ConfigError("sweep scenario_count must be positive");
  }
  if (options.shard_size == 0) {
    throw ConfigError("sweep shard_size must be positive");
  }
  if (options.gen_chunk == 0) {
    throw ConfigError("sweep gen_chunk must be positive");
  }
  if (options.resume && options.checkpoint_path.empty()) {
    throw ConfigError("sweep resume requires a checkpoint path");
  }
}

/// One run_sweep call's shard stream. `min(pool.size(), pending)` lanes
/// claim pending shards from an atomic cursor, compute each into its own
/// slot of state.shards and publish the completion under `mutex_`; the
/// calling thread is the checkpoint writer. After every `width` newly
/// completed shards it takes the freshly published shard list under the
/// lock, then updates the progress gauges and saves the checkpoint outside
/// it while the lanes keep running. Intervals that complete during one save
/// fold into the next. A slot is written by exactly one lane and read (by
/// saves and the final fold) only after its completion was published under
/// the mutex, so lanes and writer never share memory unsynchronised.
/// With a single lane every shard runs inline on the caller and saves run
/// inline at the same interval boundaries.
class ShardStream {
 public:
  ShardStream(const ExperimentConfig& config, const SweepOptions& options,
              const std::vector<std::size_t>& pending, SweepCheckpoint& state,
              SweepReport& report, std::size_t width)
      : config_(config),
        options_(options),
        pending_(pending),
        state_(state),
        report_(report),
        width_(width),
        waves_total_((pending.size() + width - 1) / width),
        mark_(width) {
    published_.reserve(pending.size());
  }

  // Lanes hold `this`.
  ShardStream(const ShardStream&) = delete;
  ShardStream& operator=(const ShardStream&) = delete;

  /// Runs every pending shard on `pool`; returns the scenarios computed.
  /// Rethrows the first shard or save error once every lane has returned.
  std::uint64_t run(ThreadPool& pool) {
    last_wake_ = std::chrono::steady_clock::now();
    std::vector<std::size_t> fresh;
    fresh.reserve(pending_.size());
    const std::size_t lanes = std::min(pool.size(), pending_.size());
    if (lanes <= 1) {
      std::size_t k = 0;
      while (claim(k)) {
        compute(pending_[k]);
        if (publish(pending_[k]) || done_ == pending_.size()) {
          take(fresh);
          on_interval(fresh, done_);
        }
      }
      return scenarios_run_;
    }

    running_ = lanes;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      try {
        pool.submit([this] { run_lane(); });
      } catch (...) {
        fail(std::current_exception());
        const std::lock_guard lock(mutex_);
        running_ -= lanes - lane;
        break;
      }
    }
    std::unique_lock lock(mutex_);
    for (;;) {
      // The predicate turns false again after every wake (take() moves the
      // mark past done_), so the lock is always released while waiting.
      cv_.wait(lock, [this] { return running_ == 0 || done_ >= mark_; });
      const bool last = running_ == 0;
      take(fresh);
      const std::size_t done = done_;
      const bool failed = error_ != nullptr;
      lock.unlock();
      if (!failed) {
        try {
          on_interval(fresh, done);
        } catch (...) {
          fail(std::current_exception());
        }
      }
      lock.lock();
      if (last) {
        break;
      }
    }
    if (error_) {
      std::rethrow_exception(error_);
    }
    return scenarios_run_;
  }

 private:
  bool claim(std::size_t& k) {
    if (stop_.load()) {
      return false;
    }
    k = next_.fetch_add(1);
    return k < pending_.size();
  }

  void run_lane() {
    std::size_t k = 0;
    while (claim(k)) {
      try {
        compute(pending_[k]);
        if (publish(pending_[k])) {
          cv_.notify_one();
        }
      } catch (...) {
        fail(std::current_exception());
      }
    }
    // Notify under the lock: the caller may return (destroying this
    // stream) as soon as it can take the mutex and sees running_ == 0.
    const std::lock_guard lock(mutex_);
    --running_;
    cv_.notify_one();
  }

  void compute(std::size_t shard) {
    DSSLICE_SPAN("sweep.shard");
    SweepAggregate aggregate;
    const std::size_t first = shard * options_.shard_size;
    const std::size_t last =
        std::min(first + options_.shard_size, options_.scenario_count);
    evaluate_range(
        config_, first, last - first,
        [&aggregate](std::size_t, const GraphOutcome& outcome) {
          aggregate.add(outcome);
        },
        options_.gen_chunk);
    DSSLICE_COUNT("sweep.shards_completed", 1);
    DSSLICE_COUNT("sweep.progress.scenarios_done",
                  static_cast<std::int64_t>(aggregate.scenarios()));
    DSSLICE_COUNT("sweep.progress.successes",
                  static_cast<std::int64_t>(aggregate.success.successes()));
    state_.shards[shard] = aggregate;
  }

  /// Publishes a computed shard; true when the writer's next mark is
  /// reached.
  bool publish(std::size_t shard) {
    const std::lock_guard lock(mutex_);
    published_.push_back(shard);
    ++done_;
    return done_ >= mark_;
  }

  void fail(std::exception_ptr error) {
    const std::lock_guard lock(mutex_);
    if (!error_) {
      error_ = std::move(error);
    }
    stop_.store(true);
  }

  /// Under the lock (or inline): moves the published shards into `fresh`
  /// and the mark past done_.
  void take(std::vector<std::size_t>& fresh) {
    fresh.clear();
    fresh.swap(published_);
    mark_ = (done_ / width_ + 1) * width_;
  }

  /// Writer side of one wake: marks the fresh shards completed, updates the
  /// progress gauges and saves when the file lags the completed set.
  void on_interval(const std::vector<std::size_t>& fresh, std::size_t done) {
    if (fresh.empty()) {
      return;
    }
    std::uint64_t fresh_scenarios = 0;
    for (const std::size_t shard : fresh) {
      state_.completed[shard] = 1;
      fresh_scenarios += state_.shards[shard].scenarios();
    }
    scenarios_run_ += fresh_scenarios;
    report_.shards_run = done;

    const auto now = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(now - last_wake_).count();
    last_wake_ = now;
    const double rate =
        seconds > 0.0 ? static_cast<double>(fresh_scenarios) / seconds : 0.0;
    rate_ewma_ = rate_ewma_ == 0.0 ? rate : 0.25 * rate + 0.75 * rate_ewma_;
    const std::size_t wave =
        done == pending_.size() ? waves_total_ : done / width_;
    DSSLICE_GAUGE("sweep.progress.wave", static_cast<std::int64_t>(wave));
    DSSLICE_GAUGE("sweep.progress.shards_done",
                  static_cast<std::int64_t>(done + report_.shards_resumed));
    DSSLICE_GAUGE("sweep.progress.scenarios_per_sec_ewma", rate_ewma_);

    if (!options_.checkpoint_path.empty()) {
      DSSLICE_SPAN("sweep.checkpoint");
      const auto save_t0 = std::chrono::steady_clock::now();
      const std::size_t bytes =
          save_sweep_checkpoint(state_, options_.checkpoint_path);
      const double save_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - save_t0)
              .count();
      ++report_.checkpoints_written;
      DSSLICE_COUNT("sweep.checkpoints_written", 1);
      DSSLICE_GAUGE("sweep.checkpoint.save_ms", save_ms);
      DSSLICE_COUNT("sweep.checkpoint.bytes",
                    static_cast<std::int64_t>(bytes));
    }
  }

  const ExperimentConfig& config_;
  const SweepOptions& options_;
  const std::vector<std::size_t>& pending_;
  SweepCheckpoint& state_;
  SweepReport& report_;
  const std::size_t width_;
  const std::size_t waves_total_;

  std::atomic<std::size_t> next_{0};
  std::atomic<bool> stop_{false};

  // Guarded by mutex_ (or owned by the caller when running inline).
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::size_t> published_;
  std::size_t done_ = 0;
  std::size_t mark_;
  std::size_t running_ = 0;
  std::exception_ptr error_;

  // Writer-only state.
  std::uint64_t scenarios_run_ = 0;
  double rate_ewma_ = 0.0;
  std::chrono::steady_clock::time_point last_wake_;
};

/// run_experiment's body; a null pool runs every chunk on the calling
/// thread.
SweepAggregate run_experiment_batch(const ExperimentConfig& config,
                                    ThreadPool* pool) {
  DSSLICE_SPAN("sim.batch");
  config.generator.validate();
  const std::size_t count = config.generator.graph_count;
  DSSLICE_GAUGE("sim.batch.graphs", count);

  // Outcomes are stored per index and folded afterwards in index order, so
  // the aggregate is independent of chunking and worker assignment; the
  // chunks amortize dispatch while still load-balancing uneven graph costs.
  std::vector<GraphOutcome> outcomes(count);
  const OutcomeSink store = [&outcomes](std::size_t k,
                                        const GraphOutcome& outcome) {
    outcomes[k] = outcome;
  };
  const auto run_range = [&](std::size_t begin, std::size_t end) {
    evaluate_range(config, begin, end - begin, store);
  };
  if (pool != nullptr) {
    parallel_for(*pool, count, default_grain(count, pool->size()), run_range);
  } else {
    run_range(0, count);
  }

  SweepAggregate result;
  for (const GraphOutcome& outcome : outcomes) {
    result.add(outcome);
  }
  DSSLICE_COUNT("sim.batches", 1);
  DSSLICE_COUNT("sim.scenarios", count);
  return result;
}

}  // namespace

void evaluate_range(const ExperimentConfig& config, std::size_t first,
                    std::size_t count, const OutcomeSink& sink,
                    std::size_t gen_chunk) {
  DSSLICE_REQUIRE(gen_chunk > 0, "gen_chunk must be positive");
  SweepArena& arena = local_arena();
  // Slicing techniques route each generator chunk through the SoA batch
  // kernel: one kernel pass distributes the whole chunk, then every scenario
  // joins back into the scheduler half. The kernel's bit-identity contract
  // makes the outcomes indistinguishable from the scalar path.
  const bool kernel_path = is_slicing(config.technique);
  BatchSliceConfig kernel_config;
  if (kernel_path) {
    kernel_config.metric = metric_of(config.technique);
    kernel_config.params = config.metric_params;
    kernel_config.wcet_strategy = config.wcet_strategy;
  }
  const std::size_t last = first + count;
  for (std::size_t chunk = first; chunk < last; chunk += gen_chunk) {
    const std::size_t n = std::min(gen_chunk, last - chunk);
    arena.batch.generate(config.generator, chunk, n);
    if (kernel_path) {
      arena.kernel.run(arena.batch.scenarios(), kernel_config);
      for (std::size_t i = 0; i < n; ++i) {
        sink(chunk + i,
             evaluate_scheduled(config, arena.batch[i],
                                arena.kernel.assignment(i),
                                arena.kernel.outcome_min_laxity(i),
                                arena.kernel.stats(i).passes, &arena.scratch));
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        sink(chunk + i,
             evaluate_generated(config, arena.batch[i], &arena.scratch));
      }
    }
  }
  arena.note_extra_capacity();
}

std::uint64_t sweep_arena_grow_events() {
  ArenaRegistry& reg = arena_registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t total = reg.retired;
  for (const SweepArena* arena : reg.live) {
    total += arena->grow_events();
  }
  return total;
}

SweepReport run_sweep(const ExperimentConfig& config,
                      const SweepOptions& options, ThreadPool& pool) {
  DSSLICE_SPAN("sweep.run");
  validate_options(options);
  config.generator.validate();

  const std::size_t shard_count =
      (options.scenario_count + options.shard_size - 1) / options.shard_size;
  const std::uint64_t fingerprint = sweep_config_fingerprint(config);

  SweepCheckpoint state;
  state.fingerprint = fingerprint;
  state.scenario_count = options.scenario_count;
  state.shard_size = options.shard_size;
  state.completed.assign(shard_count, 0);
  state.shards.assign(shard_count, SweepAggregate{});

  SweepReport report;
  report.shard_count = shard_count;

  if (options.resume &&
      std::filesystem::exists(options.checkpoint_path)) {
    SweepCheckpoint loaded = load_sweep_checkpoint(options.checkpoint_path);
    if (loaded.fingerprint != fingerprint) {
      throw ConfigError(
          "sweep checkpoint " + options.checkpoint_path +
          " was written under a different experiment configuration "
          "(fingerprint mismatch) — refusing to mix aggregates");
    }
    if (loaded.scenario_count != options.scenario_count ||
        loaded.shard_size != options.shard_size) {
      throw ConfigError(
          "sweep checkpoint " + options.checkpoint_path +
          " has a different layout (" +
          std::to_string(loaded.scenario_count) + " scenarios in shards of " +
          std::to_string(loaded.shard_size) + ") than this sweep");
    }
    state = std::move(loaded);
    report.shards_resumed = state.completed_count();
    DSSLICE_COUNT("sweep.shards_resumed",
                  static_cast<std::int64_t>(report.shards_resumed));
  }

  std::vector<std::size_t> pending;
  pending.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (state.completed[s] == 0) {
      pending.push_back(s);
    }
  }
  if (options.max_shards != 0 && pending.size() > options.max_shards) {
    pending.resize(options.max_shards);
  }

  const std::size_t width =
      options.checkpoint_every == 0 ? std::max<std::size_t>(1, pending.size())
                                    : options.checkpoint_every;

  // Progress feed for the streaming sink's heartbeat (obs/stream.cpp):
  // cumulative sweep.progress.* counters plus per-interval gauges.
  // Recording them is independent of whether a sink is attached, so a
  // streaming run and a plain run execute identical instruction streams
  // through the sweep itself — the aggregates stay bit-identical either way.
  const std::size_t waves_total = (pending.size() + width - 1) / width;
  DSSLICE_GAUGE("sweep.progress.scenarios_total",
                static_cast<std::int64_t>(options.scenario_count));
  DSSLICE_GAUGE("sweep.progress.waves_total",
                static_cast<std::int64_t>(waves_total));
  DSSLICE_GAUGE("sweep.progress.shards_resumed",
                static_cast<std::int64_t>(report.shards_resumed));
  if (report.shards_resumed > 0) {
    std::uint64_t resumed_scenarios = 0;
    std::uint64_t resumed_successes = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      if (state.completed[s] != 0) {
        resumed_scenarios += state.shards[s].scenarios();
        resumed_successes += state.shards[s].success.successes();
      }
    }
    DSSLICE_COUNT("sweep.progress.scenarios_done",
                  static_cast<std::int64_t>(resumed_scenarios));
    DSSLICE_COUNT("sweep.progress.successes",
                  static_cast<std::int64_t>(resumed_successes));
  }

  const auto t0 = std::chrono::steady_clock::now();
  ShardStream stream(config, options, pending, state, report, width);
  const std::uint64_t scenarios_run = stream.run(pool);
  const auto t1 = std::chrono::steady_clock::now();
  report.wall_seconds = std::chrono::duration<double>(t1 - t0).count();

  // Fold in shard-index order — the only order that makes thread count,
  // completion order and resume boundaries invisible in the result.
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (state.completed[s] != 0) {
      report.aggregate.merge(state.shards[s]);
    }
  }
  report.complete = state.completed_count() == shard_count;

  DSSLICE_COUNT("sweep.scenarios", static_cast<std::int64_t>(scenarios_run));
  if (report.wall_seconds > 0.0 && scenarios_run > 0) {
    DSSLICE_GAUGE("sweep.scenarios_per_sec",
                  static_cast<std::int64_t>(
                      static_cast<double>(scenarios_run) /
                      report.wall_seconds));
  }
  return report;
}

SweepReport run_sweep(const ExperimentConfig& config,
                      const SweepOptions& options) {
  return run_sweep(config, options, global_pool());
}

SweepAggregate run_experiment(const ExperimentConfig& config,
                              ThreadPool& pool) {
  return run_experiment_batch(config, &pool);
}

SweepAggregate run_experiment(const ExperimentConfig& config) {
  return run_experiment(config, global_pool());
}

SweepAggregate run_experiment_serial(const ExperimentConfig& config) {
  return run_experiment_batch(config, nullptr);
}

}  // namespace dsslice
