// The three benchmark workloads and the aggregate digests they are checked
// with. Each workload runs its stream through the public API (run_sweep,
// run_experiment) for the timed runs, and reproduces the same stream
// layer by layer for the traced run — which must land on the bit-identical
// aggregate.
#include <bit>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <unistd.h>

#include "perfbench.hpp"

namespace perfbench {

using namespace dsslice;

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void Digest::add(std::uint64_t part, std::uint64_t part_scenarios) {
  parts.push_back(part);
  scenarios.push_back(part_scenarios);
}

std::uint64_t Digest::total_scenarios() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : scenarios) {
    total += n;
  }
  return total;
}

std::string Digest::hex() const {
  std::string out;
  char buf[20];
  for (const std::uint64_t part : parts) {
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(part));
    if (!out.empty()) {
      out += ' ';
    }
    out += buf;
  }
  return out;
}

Digest sweep_digest(const SweepAggregate& aggregate) {
  Digest d;
  d.add(fnv1a(serialize_sweep_aggregate(aggregate)), aggregate.scenarios());
  return d;
}

std::uint64_t cell_digest(const ExperimentResult& result) {
  std::string text = std::to_string(result.success.successes()) + "/" +
                     std::to_string(result.success.trials());
  char buf[24];
  for (const RunningStats* stats :
       {&result.min_laxity, &result.max_lateness, &result.makespan,
        &result.slicing_passes, &result.task_count}) {
    const RunningStatsState s = stats->state();
    text += ' ' + std::to_string(s.n);
    for (const double v : {s.mean, s.m2, s.sum, s.min, s.max}) {
      std::snprintf(buf, sizeof buf, ":%016llx",
                    static_cast<unsigned long long>(
                        std::bit_cast<std::uint64_t>(v)));
      text += buf;
    }
  }
  return fnv1a(text);
}

std::uint64_t mismatched_scenarios(const Digest& got, const Digest& want) {
  if (got.parts.size() != want.parts.size()) {
    return got.total_scenarios();
  }
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < got.parts.size(); ++i) {
    if (got.parts[i] != want.parts[i]) {
      bad += got.scenarios[i];
    }
  }
  return bad;
}

namespace {

/// Scenarios per ScenarioBatch chunk — SweepOptions' default gen_chunk.
constexpr std::size_t kGenChunk = 64;
/// Checkpoint wave width of ckpt_resume, in shards: nproc of the 4-core
/// reference machine, fixed so the stream is the same on every machine.
constexpr std::size_t kWaveShards = 4;

ExperimentConfig paper_defaults(std::uint64_t seed) {
  // Paper §5 defaults: ADAPT-L, EDF list scheduling, WCET-AVG, n 40–60,
  // depth 8–12, m = 3, OLR 0.8, ETD 0.25, CCR 0.1 — the library defaults.
  ExperimentConfig config;
  config.generator.base_seed = seed;
  return config;
}

std::string work_file(const std::string& dir, const std::string& stem) {
  return (std::filesystem::path(dir) /
          (stem + "-" + std::to_string(::getpid()) + ".ckpt"))
      .string();
}

/// Span id of a chunk, shard, wave or cell number.
std::int64_t id(std::size_t number) {
  return static_cast<std::int64_t>(number);
}

void remove_quietly(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
}

/// A sweep workload: the streaming engine on the ADAPT-L paper defaults,
/// plus the traced reproduction of one shard sequence.
class SweepWorkload : public Workload {
 protected:
  SweepWorkload(std::uint64_t seed, std::size_t scenarios,
                std::size_t shard_size)
      : config_(paper_defaults(seed)),
        scenarios_(scenarios),
        shard_size_(shard_size) {
    kernel_config_.metric = metric_of(config_.technique);
    kernel_config_.params = config_.metric_params;
    kernel_config_.wcet_strategy = config_.wcet_strategy;
  }

  SweepOptions options() const {
    SweepOptions o;
    o.scenario_count = scenarios_;
    o.shard_size = shard_size_;
    o.gen_chunk = kGenChunk;
    return o;
  }
  std::size_t shard_count() const {
    return (scenarios_ + shard_size_ - 1) / shard_size_;
  }

  std::uint64_t alternate_scenarios() const override {
    return prefix_scenarios();
  }

  double cold_chunk_setup(std::size_t threads) const {
    // Each fresh worker runs one chunk on a cold thread-local arena.
    SweepOptions o;
    o.scenario_count = threads * kGenChunk;
    o.shard_size = kGenChunk;
    o.gen_chunk = kGenChunk;
    const std::uint64_t t0 = now_ns();
    ThreadPool pool(threads);
    (void)run_sweep(config_, o, pool);
    return seconds_since(t0);
  }

  /// One shard exactly as the engine's run_one_shard computes it, with a
  /// span around each layer call of every chunk.
  SweepAggregate traced_shard(Ledger& ledger, std::size_t shard) {
    SweepAggregate aggregate;
    const std::size_t first = shard * shard_size_;
    const std::size_t last = std::min(first + shard_size_, scenarios_);
    for (std::size_t chunk = first; chunk < last; chunk += kGenChunk) {
      const std::size_t n = std::min(kGenChunk, last - chunk);
      const Ledger::Scope chunk_span(ledger, "chunk", id(chunk / kGenChunk),
                                     n);
      {
        const Ledger::Scope s(ledger, layer::kGen);
        arena_.batch.generate(config_.generator, chunk, n);
      }
      {
        // Build the memoized analysis here so batch/sched see cache hits.
        const Ledger::Scope s(ledger, layer::kAnalysis);
        for (std::size_t i = 0; i < n; ++i) {
          (void)arena_.batch[i].application.analysis();
        }
      }
      {
        const Ledger::Scope s(ledger, layer::kBatch);
        arena_.kernel.run(arena_.batch.scenarios(), kernel_config_);
      }
      arena_.outcomes.resize(n);
      {
        const Ledger::Scope s(ledger, layer::kSched);
        for (std::size_t i = 0; i < n; ++i) {
          arena_.outcomes[i] = evaluate_scheduled(
              config_, arena_.batch[i], arena_.kernel.assignment(i),
              arena_.kernel.outcome_min_laxity(i),
              arena_.kernel.stats(i).passes, &arena_.scratch);
        }
      }
      {
        const Ledger::Scope s(ledger, layer::kAggregate);
        for (std::size_t i = 0; i < n; ++i) {
          aggregate.add(arena_.outcomes[i]);
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        counts_.batch_passes += arena_.kernel.stats(i).passes;
      }
    }
    return aggregate;
  }

  void finish_counts(const SweepAggregate& total) {
    counts_.gen_grow_events = arena_.batch.grow_events();
    counts_.batch_grow_events = arena_.kernel.grow_events();
    counts_.successes = total.success.successes();
    counts_.scenarios = total.scenarios();
  }

  ExperimentConfig config_;
  BatchSliceConfig kernel_config_;
  std::size_t scenarios_;
  std::size_t shard_size_;

  /// State of the traced run — the engine's per-thread SweepArena. It
  /// lives as long as the workload, so a traced run after the counting
  /// pass is as warm as the engine's own arenas.
  struct Arena {
    ScenarioBatch batch;
    BatchSliceKernel kernel;
    ScenarioScratch scratch;
    std::vector<GraphOutcome> outcomes;
  };
  Arena arena_;
};

// paper_stream: one long run_sweep with the default shard layout.
class PaperStream final : public SweepWorkload {
 public:
  PaperStream(std::uint64_t seed, bool smoke, const std::string& work_dir)
      : SweepWorkload(seed, smoke ? 4096 : 65536, 1024),
        prefix_shards_(smoke ? 2 : 16),
        resume_path_(work_file(work_dir, "paper_stream-resume")) {}
  ~PaperStream() override { remove_quietly(resume_path_); }

  Digest run_full(ThreadPool& pool) override {
    const SweepReport r = run_sweep(config_, options(), pool);
    if (!r.complete) {
      throw std::runtime_error("paper_stream sweep did not complete");
    }
    return sweep_digest(r.aggregate);
  }

  Digest run_prefix(ThreadPool& pool) override {
    SweepOptions o = options();
    o.max_shards = prefix_shards_;
    return sweep_digest(run_sweep(config_, o, pool).aggregate);
  }

  double setup_sample(std::size_t threads) override {
    return cold_chunk_setup(threads);
  }

  AltRun run_alternate(ThreadPool& pool) override {
    // The prefix, interrupted at half and resumed from its checkpoint.
    std::filesystem::remove(resume_path_);
    SweepOptions o = options();
    o.checkpoint_path = resume_path_;
    o.max_shards = prefix_shards_ / 2;
    (void)run_sweep(config_, o, pool);
    o.resume = true;
    o.max_shards = prefix_shards_ - prefix_shards_ / 2;
    AltRun alt;
    alt.label = "interrupted-then-resumed prefix";
    alt.digest = sweep_digest(run_sweep(config_, o, pool).aggregate);
    std::filesystem::remove(resume_path_);
    return alt;
  }

  Digest traced(Ledger& ledger) override {
    counts_ = {};
    std::vector<SweepAggregate> shards(prefix_shards_);
    SweepAggregate total;
    {
      const Ledger::Scope run(ledger, "run", -1, prefix_scenarios());
      for (std::size_t s = 0; s < prefix_shards_; ++s) {
        const Ledger::Scope shard(ledger, "shard", id(s));
        shards[s] = traced_shard(ledger, s);
      }
      const Ledger::Scope fold(ledger, layer::kAggregate);
      for (const SweepAggregate& shard : shards) {
        total.merge(shard);
      }
    }
    finish_counts(total);
    return sweep_digest(total);
  }

  std::uint64_t full_scenarios() const override { return scenarios_; }
  std::uint64_t prefix_scenarios() const override {
    return prefix_shards_ * shard_size_;
  }

 private:
  std::size_t prefix_shards_;
  std::string resume_path_;
};

// ckpt_resume: the paper_stream config in 64-scenario shards, checkpointed
// every kWaveShards shards, stopped at half and resumed from the file.
class CheckpointResume final : public SweepWorkload {
 public:
  CheckpointResume(std::uint64_t seed, bool smoke, const std::string& work_dir)
      : SweepWorkload(seed, smoke ? 1024 : 16384, kGenChunk),
        path_(work_file(work_dir, "ckpt_resume")),
        half_path_(work_file(work_dir, "ckpt_resume-half")),
        traced_path_(work_file(work_dir, "ckpt_resume-traced")) {}
  ~CheckpointResume() override {
    for (const std::string* p : {&path_, &half_path_, &traced_path_}) {
      remove_quietly(*p);
    }
  }

  Digest run_full(ThreadPool& pool) override {
    std::filesystem::remove(path_);
    (void)run_sweep(config_, first_half(path_), pool);
    SweepOptions o = checkpointed(path_);
    o.resume = true;
    const SweepReport r = run_sweep(config_, o, pool);
    if (!r.complete || r.shards_resumed != shard_count() / 2) {
      throw std::runtime_error("ckpt_resume did not resume at half");
    }
    return sweep_digest(r.aggregate);
  }

  Digest run_prefix(ThreadPool& pool) override { return run_full(pool); }
  bool prefix_is_full() const override { return true; }

  double setup_sample(std::size_t threads) override {
    if (!half_ready_) {
      // The half-way checkpoint every set-up sample loads (made untimed).
      ThreadPool pool(threads);
      (void)run_sweep(config_, first_half(half_path_), pool);
      half_ready_ = true;
    }
    const double cold = cold_chunk_setup(threads);
    const std::uint64_t t0 = now_ns();
    (void)load_sweep_checkpoint(half_path_);
    return cold + seconds_since(t0);
  }

  AltRun run_alternate(ThreadPool& pool) override {
    AltRun alt;
    alt.against_full = true;
    alt.label = "uninterrupted run";
    alt.digest = sweep_digest(run_sweep(config_, options(), pool).aggregate);
    return alt;
  }

  Digest traced(Ledger& ledger) override {
    counts_ = {};
    std::filesystem::remove(traced_path_);
    SweepCheckpoint state;
    state.fingerprint = sweep_config_fingerprint(config_);
    state.scenario_count = scenarios_;
    state.shard_size = shard_size_;
    state.completed.assign(shard_count(), 0);
    state.shards.assign(shard_count(), SweepAggregate{});
    const std::size_t half = shard_count() / 2;
    SweepAggregate total;
    {
      const Ledger::Scope run(ledger, "run");
      {
        // First call: shards [0, half) in waves, then the engine's fold.
        const Ledger::Scope call(ledger, "call", 0, half * shard_size_);
        run_waves(ledger, state, 0, half);
        const Ledger::Scope fold(ledger, layer::kAggregate);
        SweepAggregate partial;
        for (std::size_t s = 0; s < shard_count(); ++s) {
          if (state.completed[s] != 0) {
            partial.merge(state.shards[s]);
          }
        }
      }
      {
        // Resumed call: load, compute the rest, fold everything.
        const Ledger::Scope call(ledger, "call", 1, scenarios_);
        {
          const Ledger::Scope load(ledger, layer::kCheckpointLoad);
          state = load_sweep_checkpoint(traced_path_);
        }
        if (state.fingerprint != sweep_config_fingerprint(config_) ||
            state.completed_count() != half) {
          throw std::runtime_error("traced checkpoint did not round-trip");
        }
        run_waves(ledger, state, half, shard_count());
        const Ledger::Scope fold(ledger, layer::kAggregate);
        for (std::size_t s = 0; s < shard_count(); ++s) {
          total.merge(state.shards[s]);
        }
      }
    }
    std::filesystem::remove(traced_path_);
    finish_counts(total);
    return sweep_digest(total);
  }

  std::uint64_t full_scenarios() const override { return scenarios_; }
  std::uint64_t prefix_scenarios() const override { return scenarios_; }

 private:
  SweepOptions checkpointed(const std::string& path) const {
    SweepOptions o = options();
    o.checkpoint_path = path;
    o.checkpoint_every = kWaveShards;
    return o;
  }
  SweepOptions first_half(const std::string& path) const {
    SweepOptions o = checkpointed(path);
    o.max_shards = shard_count() / 2;
    return o;
  }

  /// Shards [begin, end) in waves of kWaveShards, saving after each wave.
  void run_waves(Ledger& ledger, SweepCheckpoint& state,
                 std::size_t begin, std::size_t end) {
    for (std::size_t wave = begin; wave < end; wave += kWaveShards) {
      const Ledger::Scope wave_span(ledger, "wave", id(wave / kWaveShards));
      for (std::size_t s = wave; s < std::min(wave + kWaveShards, end); ++s) {
        const Ledger::Scope shard(ledger, "shard", id(s));
        state.shards[s] = traced_shard(ledger, s);
        state.completed[s] = 1;
      }
      std::size_t bytes = 0;
      {
        const Ledger::Scope save(ledger, layer::kCheckpointSave);
        bytes = save_sweep_checkpoint(state, traced_path_);
      }
      ++counts_.checkpoint_saves;
      counts_.checkpoint_bytes += bytes;
    }
  }

  std::string path_;
  std::string half_path_;
  std::string traced_path_;
  bool half_ready_ = false;
};

// fig_grid: every cell of Figs. 2–6 through sim/runner's run_experiment.
class FigureGrid final : public Workload {
 public:
  FigureGrid(std::uint64_t seed, bool smoke)
      : graphs_(smoke ? 16 : 1024), prefix_graphs_(smoke ? 8 : 128) {
    base_ = paper_defaults(seed);
    base_.generator.graph_count = graphs_;
    // Cells in sim/sweeps order: per figure, series outer, x inner, each
    // config = series factory then the figure's x mutation.
    const auto add = [&](const std::vector<SeriesSpec>& specs,
                         const std::vector<double>& xs, auto mutate) {
      for (const SeriesSpec& spec : specs) {
        for (const double x : xs) {
          ExperimentConfig c = spec.factory(x);
          mutate(c, x);
          cells_.push_back(std::move(c));
        }
      }
    };
    add(metric_series(base_), kSizes, [](ExperimentConfig& c, double x) {
      c.generator.platform.processor_count = static_cast<std::size_t>(x);
    });
    const auto set_olr = [](ExperimentConfig& c, double x) {
      c.generator.workload.olr = x;
    };
    const auto set_etd = [](ExperimentConfig& c, double x) {
      c.generator.workload.etd = x;
    };
    add(metric_series(base_), kOlrs, set_olr);
    add(metric_series(base_), kEtds, set_etd);
    add(wcet_series(base_), kWcetOlrs, set_olr);
    add(wcet_series(base_), kEtds, set_etd);
  }

  Digest run_full(ThreadPool& pool) override {
    return run_cells(pool, graphs_);
  }
  Digest run_prefix(ThreadPool& pool) override {
    return run_cells(pool, prefix_graphs_);
  }

  double setup_sample(std::size_t threads) override {
    // run_experiment's automatic grain at 1024 graphs is 1024 / (8 ×
    // threads); one such chunk per fresh worker.
    ExperimentConfig c = cells_.front();
    c.generator.graph_count =
        threads * std::max<std::size_t>(1, graphs_ / (8 * threads));
    const std::uint64_t t0 = now_ns();
    ThreadPool pool(threads);
    (void)run_experiment(c, pool);
    return seconds_since(t0);
  }

  AltRun run_alternate(ThreadPool& pool) override {
    // The figure runner's own entry points on the prefix graphs must give
    // every cell the success ratio, CI and mean min-laxity run_experiment
    // gives it — which pins the cell list to bench/fig2 … fig6.
    ExperimentConfig base = base_;
    base.generator.graph_count = prefix_graphs_;
    std::vector<std::size_t> sizes;
    for (const double m : kSizes) {
      sizes.push_back(static_cast<std::size_t>(m));
    }
    const SweepResult figures[] = {
        sweep_system_size(base, sizes, pool), sweep_olr(base, kOlrs, pool),
        sweep_etd(base, kEtds, pool), sweep_wcet_olr(base, kWcetOlrs, pool),
        sweep_wcet_etd(base, kEtds, pool)};
    AltRun alt;
    alt.label = "figure sweeps vs run_experiment per cell (prefix)";
    for (const SweepResult& figure : figures) {
      for (const Series& series : figure.series) {
        for (std::size_t i = 0; i < series.success_ratio.size(); ++i) {
          alt.digest.add(point_digest(series.success_ratio[i], series.ci95[i],
                                      series.mean_min_laxity[i]),
                         prefix_graphs_);
        }
      }
    }
    for (ExperimentConfig c : cells_) {
      c.generator.graph_count = prefix_graphs_;
      const ExperimentResult r = run_experiment(c, pool);
      alt.expected.add(point_digest(r.success_ratio(),
                                    r.success.ci95_halfwidth(),
                                    r.min_laxity.mean()),
                       prefix_graphs_);
    }
    return alt;
  }
  std::uint64_t alternate_scenarios() const override {
    return 2 * prefix_scenarios();
  }

  Digest traced(Ledger& ledger) override {
    counts_ = {};
    Digest digest;
    std::vector<GraphOutcome> outcomes(prefix_graphs_);
    const Ledger::Scope run(ledger, "run");
    for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
      const ExperimentConfig& config = cells_[cell];
      const Ledger::Scope cell_span(ledger, "cell", id(cell), prefix_graphs_);
      // run_batch: evaluate every graph, then fold in index order.
      for (std::size_t chunk = 0; chunk < prefix_graphs_; chunk += kGenChunk) {
        const std::size_t end = std::min(chunk + kGenChunk, prefix_graphs_);
        const Ledger::Scope chunk_span(ledger, "chunk", id(chunk / kGenChunk),
                                       end - chunk);
        for (std::size_t k = chunk; k < end; ++k) {
          outcomes[k] = traced_graph(ledger, config, k);
        }
      }
      ExperimentResult result;
      {
        const Ledger::Scope fold(ledger, layer::kAggregate);
        for (const GraphOutcome& outcome : outcomes) {
          result.add(outcome);
        }
      }
      digest.add(cell_digest(result), prefix_graphs_);
      counts_.successes += result.success.successes();
      counts_.scenarios += result.success.trials();
    }
    return digest;
  }

  std::uint64_t full_scenarios() const override {
    return cells_.size() * graphs_;
  }
  std::uint64_t prefix_scenarios() const override {
    return cells_.size() * prefix_graphs_;
  }

 private:
  Digest run_cells(ThreadPool& pool, std::size_t graphs) const {
    Digest digest;
    for (ExperimentConfig c : cells_) {
      c.generator.graph_count = graphs;
      digest.add(cell_digest(run_experiment(c, pool)), graphs);
    }
    return digest;
  }

  /// evaluate_scenario for graph k of a cell, split at the layer calls.
  GraphOutcome traced_graph(Ledger& ledger, const ExperimentConfig& config,
                            std::size_t k) {
    ScenarioScratch& scratch = scratch_;
    std::optional<Scenario> scenario;
    {
      const Ledger::Scope s(ledger, layer::kGen);
      scenario.emplace(generate_scenario(
          config.generator, derive_seed(config.generator.base_seed, k)));
    }
    const Application& app = scenario->application;
    {
      const Ledger::Scope s(ledger, layer::kAnalysis);
      (void)app.analysis();
    }
    DeadlineAssignment assignment;
    std::size_t passes = 0;
    double pre_min_laxity = 0.0;
    {
      const Ledger::Scope s(ledger, layer::kCoreSlice);
      estimate_wcets_into(app, config.wcet_strategy, scratch.est);
      assignment = distribute_for_config(config, app, scenario->platform,
                                         scratch.est, &passes, &scratch);
      pre_min_laxity = min_laxity(assignment, scratch.est);
    }
    counts_.core_passes += passes;
    const Ledger::Scope s(ledger, layer::kSched);
    return evaluate_scheduled(config, *scenario, assignment, pre_min_laxity,
                              passes, &scratch);
  }

  /// The x axes of bench/fig2 … fig6.
  static inline const std::vector<double> kSizes = {2, 3, 4, 5, 6, 7, 8};
  static inline const std::vector<double> kOlrs = {
      0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5};
  static inline const std::vector<double> kEtds = {0.0, 0.25, 0.5, 0.75,
                                                   1.0};
  static inline const std::vector<double> kWcetOlrs = {0.5, 0.6, 0.7, 0.8,
                                                       0.9, 1.0, 1.1, 1.2};

  /// Digest of one figure point as a SweepResult reports it.
  static std::uint64_t point_digest(double ratio, double ci95,
                                    double mean_min_laxity) {
    std::string text;
    char buf[20];
    for (const double v : {ratio, ci95, mean_min_laxity}) {
      std::snprintf(buf, sizeof buf, "%016llx:",
                    static_cast<unsigned long long>(
                        std::bit_cast<std::uint64_t>(v)));
      text += buf;
    }
    return fnv1a(text);
  }

  std::size_t graphs_;
  std::size_t prefix_graphs_;
  ExperimentConfig base_;
  std::vector<ExperimentConfig> cells_;
  ScenarioScratch scratch_;  ///< the runner's per-thread scratch
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_stream", "fig_grid",
                                                 "ckpt_resume"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke,
                                        const std::string& work_dir) {
  if (name == "paper_stream") {
    return std::make_unique<PaperStream>(seed, smoke, work_dir);
  }
  if (name == "fig_grid") {
    return std::make_unique<FigureGrid>(seed, smoke);
  }
  if (name == "ckpt_resume") {
    return std::make_unique<CheckpointResume>(seed, smoke, work_dir);
  }
  return nullptr;
}

}  // namespace perfbench
