// Sweep engine contracts: checkpoint round-trips are bit-exact and the
// encoder's bytes are pinned, interrupted sweeps resume bit-identically,
// the checkpoint on return holds exactly the completed shards, thread count
// never perturbs aggregates, a failed save leaves the pool usable, a warm
// sweep allocates nothing, and malformed or mismatched checkpoints are
// rejected instead of silently mixing aggregates.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "dsslice/gen/rng.hpp"
#include "dsslice/sim/experiment.hpp"
#include "dsslice/sweep/aggregate.hpp"
#include "dsslice/sweep/checkpoint.hpp"
#include "dsslice/sweep/sweep_engine.hpp"
#include "dsslice/util/check.hpp"
#include "dsslice/util/stats.hpp"
#include "dsslice/util/thread_pool.hpp"

namespace dsslice {
namespace {

ExperimentConfig sweep_config(std::uint64_t seed = 0x5EED) {
  ExperimentConfig config;
  config.generator.base_seed = seed;
  return config;
}

SweepOptions small_options() {
  SweepOptions options;
  options.scenario_count = 96;
  options.shard_size = 16;
  options.gen_chunk = 8;
  return options;
}

/// Unique checkpoint path under the system temp dir, removed on scope exit.
class TempCheckpoint {
 public:
  explicit TempCheckpoint(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("dsslice_test_" + name + ".ckpt"))
                  .string()) {
    std::filesystem::remove(path_);
  }
  ~TempCheckpoint() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A checkpoint with non-trivial Welford state in its shard aggregates.
SweepCheckpoint sample_checkpoint() {
  SweepCheckpoint ckpt;
  ckpt.fingerprint = 0xF00DF00DF00DF00Dull;
  ckpt.scenario_count = 32;
  ckpt.shard_size = 16;
  ckpt.completed = {1, 0};
  ckpt.shards.resize(2);
  for (int i = 0; i < 16; ++i) {
    GraphOutcome outcome;
    outcome.scheduled = (i % 3 != 0);
    outcome.min_laxity = 0.37 * static_cast<double>(i) - 1.25;
    outcome.lateness_valid = outcome.scheduled;
    outcome.max_lateness = outcome.scheduled ? -outcome.min_laxity : 0.0;
    outcome.makespan = 100.0 + static_cast<double>(i * i);
    outcome.slicing_passes = static_cast<std::size_t>(i % 4);
    outcome.task_count = 40u + static_cast<std::size_t>(i);
    ckpt.shards[0].add(outcome);
  }
  return ckpt;
}

TEST(SweepCheckpoint, SerializationRoundTripsBitExactly) {
  const SweepCheckpoint original = sample_checkpoint();
  const std::string text = serialize_sweep_checkpoint(original);
  const SweepCheckpoint restored = parse_sweep_checkpoint(text);
  EXPECT_EQ(restored.fingerprint, original.fingerprint);
  EXPECT_EQ(restored.scenario_count, original.scenario_count);
  EXPECT_EQ(restored.shard_size, original.shard_size);
  EXPECT_EQ(restored.completed, original.completed);
  ASSERT_EQ(restored.shards.size(), original.shards.size());
  // Text → struct → text must be the identity: doubles are stored as raw
  // bit patterns, so even the last Welford bit survives.
  EXPECT_EQ(serialize_sweep_checkpoint(restored), text);
  EXPECT_EQ(serialize_sweep_aggregate(restored.shards[0]),
            serialize_sweep_aggregate(original.shards[0]));
  EXPECT_EQ(restored.completed_count(), 1u);
}

/// A shard aggregate whose stat fields hold every special double the
/// encoder must carry bit for bit (-0.0, +-inf, NaN, a tiny m2 with a
/// leading-zero hex pattern), with non-zero underflow, overflow and
/// histogram bins.
SweepCheckpoint special_values_checkpoint() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SweepAggregate a;
  a.success.add_many(7, 10);
  a.min_laxity = RunningStats::from_state({10, -0.0, inf, -inf, nan, 12.5});
  a.max_lateness =
      RunningStats::from_state({3, 0.1, 1e-300, -2.75, -inf, inf});
  a.makespan =
      RunningStats::from_state({7, 123.456, 0.0, 864.192, 100.0, 150.0});
  a.slicing_passes =
      RunningStats::from_state({10, 1.5, 2.25, 15.0, 0.0, 3.0});
  a.task_count =
      RunningStats::from_state({10, 47.0, 5e10, 470.0, 40.0, 59.0});
  std::array<std::uint64_t, LinearHistogram::kBinCount> bins{};
  bins[0] = 1;
  bins[17] = 2;
  bins[63] = 3;
  a.laxity = LinearHistogram(-200.0, 440.0);
  LinearHistogramAccess::restore(a.laxity, 1, 3, bins);
  SweepCheckpoint cp;
  cp.fingerprint = 0xFEDCBA9876543210ull;
  cp.scenario_count = 25;
  cp.shard_size = 10;
  cp.completed = {0, 1, 0};
  cp.shards.resize(3);
  cp.shards[1] = a;
  return cp;
}

// The checkpoint text is a file format: resumes read files written by
// earlier builds, so the encoder must reproduce this text byte for byte.
// The golden was captured from the ostringstream/snprintf encoder.
TEST(SweepCheckpoint, EncoderMatchesGoldenTextByteForByte) {
  const std::string aggregate_text =
      "success 7 10\n"
      "stat min_laxity 10 8000000000000000 7ff0000000000000 "
      "fff0000000000000 7ff8000000000000 4029000000000000\n"
      "stat max_lateness 3 3fb999999999999a 01a56e1fc2f8f359 "
      "c006000000000000 fff0000000000000 7ff0000000000000\n"
      "stat makespan 7 405edd2f1a9fbe77 0000000000000000 "
      "408b0189374bc6a8 4059000000000000 4062c00000000000\n"
      "stat slicing_passes 10 3ff8000000000000 4002000000000000 "
      "402e000000000000 0000000000000000 4008000000000000\n"
      "stat task_count 10 4047800000000000 42274876e8000000 "
      "407d600000000000 4044000000000000 404d800000000000\n"
      "hist c069000000000000 407b800000000000 1 3 1 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 3\n";
  const std::string checkpoint_text =
      "dsslice-sweep-checkpoint 1\n"
      "fingerprint 18364758544493064720\n"
      "scenarios 25\n"
      "shard-size 10\n"
      "shard-count 3\n"
      "completed 1\n"
      "shard 1\n" +
      aggregate_text + "end\n";
  const SweepCheckpoint cp = special_values_checkpoint();
  EXPECT_EQ(serialize_sweep_aggregate(cp.shards[1]), aggregate_text);
  EXPECT_EQ(serialize_sweep_checkpoint(cp), checkpoint_text);
  // And the special values survive a parse: text -> struct -> text.
  EXPECT_EQ(serialize_sweep_checkpoint(parse_sweep_checkpoint(checkpoint_text)),
            checkpoint_text);
}

TEST(SweepCheckpoint, SaveLoadRoundTrip) {
  TempCheckpoint tmp("save_load");
  const SweepCheckpoint original = sample_checkpoint();
  save_sweep_checkpoint(original, tmp.path());
  const SweepCheckpoint loaded = load_sweep_checkpoint(tmp.path());
  EXPECT_EQ(serialize_sweep_checkpoint(loaded),
            serialize_sweep_checkpoint(original));
}

TEST(SweepCheckpoint, LoadRejectsMissingFile) {
  EXPECT_THROW(load_sweep_checkpoint("/nonexistent/dir/sweep.ckpt"),
               ConfigError);
}

TEST(SweepCheckpoint, ParseRejectsVersionMismatch) {
  std::string text = serialize_sweep_checkpoint(sample_checkpoint());
  const std::string header = "dsslice-sweep-checkpoint 1";
  ASSERT_EQ(text.compare(0, header.size(), header), 0);
  text.replace(0, header.size(), "dsslice-sweep-checkpoint 2");
  EXPECT_THROW(parse_sweep_checkpoint(text), ConfigError);
}

TEST(SweepCheckpoint, ParseRejectsTruncation) {
  const std::string text = serialize_sweep_checkpoint(sample_checkpoint());
  EXPECT_THROW(parse_sweep_checkpoint(text.substr(0, text.size() / 2)),
               ConfigError);
  EXPECT_THROW(parse_sweep_checkpoint(""), ConfigError);
}

TEST(SweepCheckpoint, ParseRejectsCorruptedValues) {
  const std::string text = serialize_sweep_checkpoint(sample_checkpoint());
  // Corrupt a hex-encoded double on the min_laxity stat line: 'z' is not a
  // hex digit, so the bit-pattern decode must reject the file.
  const std::size_t line = text.find("stat min_laxity ");
  ASSERT_NE(line, std::string::npos);
  const std::size_t eol = text.find('\n', line);
  ASSERT_NE(eol, std::string::npos);
  std::string corrupted = text;
  corrupted[eol - 1] = 'z';
  EXPECT_THROW(parse_sweep_checkpoint(corrupted), ConfigError);

  // Counts that contradict the layout: shard 0 holds 16 scenarios, 10 of
  // them scheduled. Each edit stays well-formed, so only the layout checks
  // can reject it — with the offending line's number.
  const auto with_token = [&text](const std::string& prefix,
                                  std::size_t index,
                                  const std::string& value) {
    const std::size_t begin = text.find(prefix);
    EXPECT_NE(begin, std::string::npos) << prefix;
    std::size_t start = begin;
    for (std::size_t t = 0; t < index; ++t) {
      start = text.find(' ', start) + 1;
    }
    const std::size_t end = text.find_first_of(" \n", start);
    std::string edited = text;
    edited.replace(start, end - start, value);
    return edited;
  };
  const struct {
    const char* prefix;
    std::size_t token;
    const char* value;
  } cases[] = {
      {"success ", 2, "999999"},          // trials != shard scenarios
      {"success ", 2, "15"},
      {"stat min_laxity ", 2, "15"},      // n != trials
      {"stat slicing_passes ", 2, "17"},
      {"stat task_count ", 2, "0"},
      {"hist ", 5, "1000"},               // histogram total != trials
      {"stat makespan ", 2, "9"},         // n != successes
      {"stat max_lateness ", 2, "17"},    // n > trials
  };
  for (const auto& c : cases) {
    const std::string edited = with_token(c.prefix, c.token, c.value);
    ASSERT_NE(edited, text) << c.prefix << c.value;
    try {
      parse_sweep_checkpoint(edited);
      ADD_FAILURE() << "accepted " << c.prefix << c.value;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("at line "), std::string::npos)
          << e.what();
    }
  }
}

TEST(SweepEngine, ValidatesOptions) {
  const ExperimentConfig config = sweep_config();
  SweepOptions options = small_options();
  options.scenario_count = 0;
  EXPECT_THROW(run_sweep(config, options), ConfigError);
  options = small_options();
  options.shard_size = 0;
  EXPECT_THROW(run_sweep(config, options), ConfigError);
  options = small_options();
  options.gen_chunk = 0;
  EXPECT_THROW(run_sweep(config, options), ConfigError);
  options = small_options();
  options.resume = true;  // resume without a checkpoint path
  EXPECT_THROW(run_sweep(config, options), ConfigError);
}

TEST(SweepEngine, ResumeMatchesUninterruptedRunBitForBit) {
  const ExperimentConfig config = sweep_config();
  ThreadPool pool(2);

  const SweepReport whole = run_sweep(config, small_options(), pool);
  ASSERT_TRUE(whole.complete);
  EXPECT_EQ(whole.shard_count, 6u);
  EXPECT_EQ(whole.shards_run, 6u);
  EXPECT_EQ(whole.scenarios(), 96u);

  TempCheckpoint tmp("resume");
  SweepOptions interrupted = small_options();
  interrupted.checkpoint_path = tmp.path();
  interrupted.checkpoint_every = 2;
  interrupted.max_shards = 3;  // abandon the sweep mid-way
  const SweepReport partial = run_sweep(config, interrupted, pool);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.shards_run, 3u);
  EXPECT_GE(partial.checkpoints_written, 1u);

  SweepOptions resumed_options = small_options();
  resumed_options.checkpoint_path = tmp.path();
  resumed_options.checkpoint_every = 2;
  resumed_options.resume = true;
  const SweepReport resumed = run_sweep(config, resumed_options, pool);
  EXPECT_TRUE(resumed.complete);
  EXPECT_GE(resumed.shards_resumed, 3u);
  EXPECT_EQ(resumed.shards_run + resumed.shards_resumed, 6u);
  EXPECT_EQ(serialize_sweep_aggregate(resumed.aggregate),
            serialize_sweep_aggregate(whole.aggregate));
}

TEST(SweepEngine, ResumeOfCompleteSweepRunsNothing) {
  const ExperimentConfig config = sweep_config();
  ThreadPool pool(1);
  TempCheckpoint tmp("complete");
  SweepOptions options = small_options();
  options.checkpoint_path = tmp.path();
  const SweepReport first = run_sweep(config, options, pool);
  ASSERT_TRUE(first.complete);

  options.resume = true;
  const SweepReport again = run_sweep(config, options, pool);
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.shards_run, 0u);
  EXPECT_EQ(again.shards_resumed, 6u);
  EXPECT_EQ(serialize_sweep_aggregate(again.aggregate),
            serialize_sweep_aggregate(first.aggregate));
}

TEST(SweepEngine, ThreadCountDoesNotChangeAggregateBits) {
  const ExperimentConfig config = sweep_config();
  ThreadPool single(1);
  ThreadPool quad(4);
  const SweepReport serial = run_sweep(config, small_options(), single);
  const SweepReport parallel = run_sweep(config, small_options(), quad);
  EXPECT_EQ(serialize_sweep_aggregate(parallel.aggregate),
            serialize_sweep_aggregate(serial.aggregate));
}

/// The scalar reference of a sweep: evaluate_scenario on every derived
/// seed, folded per shard, the shards merged in index order.
SweepAggregate scalar_sweep_fold(const ExperimentConfig& config,
                                 const SweepOptions& options) {
  SweepAggregate total;
  for (std::size_t first = 0; first < options.scenario_count;
       first += options.shard_size) {
    const std::size_t last =
        std::min(first + options.shard_size, options.scenario_count);
    SweepAggregate shard;
    for (std::size_t k = first; k < last; ++k) {
      shard.add(evaluate_scenario(
          config, derive_seed(config.generator.base_seed, k)));
    }
    total.merge(shard);
  }
  return total;
}

// The batch slicing kernel is an execution strategy, not a semantic change:
// the sweep must reproduce the scalar evaluate_scenario fold to the last
// aggregate bit, for every slicing metric. (Non-slicing techniques bypass
// the kernel; one spot check.)
TEST(SweepEngine, BatchKernelDoesNotChangeAggregateBits) {
  ThreadPool pool(2);
  const DistributionTechnique techniques[] = {
      DistributionTechnique::kSlicingPure, DistributionTechnique::kSlicingNorm,
      DistributionTechnique::kSlicingAdaptG,
      DistributionTechnique::kSlicingAdaptL, DistributionTechnique::kKaoED};
  for (const DistributionTechnique technique : techniques) {
    ExperimentConfig config = sweep_config();
    config.technique = technique;
    const SweepReport report = run_sweep(config, small_options(), pool);
    EXPECT_EQ(serialize_sweep_aggregate(report.aggregate),
              serialize_sweep_aggregate(
                  scalar_sweep_fold(config, small_options())))
        << "technique " << to_string(technique);
  }
}

/// 20 shards of 4 scenarios: enough shards for every interval width below
/// to leave a partial last interval.
SweepOptions stream_options() {
  SweepOptions options;
  options.scenario_count = 80;
  options.shard_size = 4;
  options.gen_chunk = 4;
  return options;
}

// Shards stream through the pool's lanes while the calling thread saves at
// interval boundaries. Whatever the lane count, interval width and
// interruption point, the file on return holds exactly the shards this
// call completed (each bit-identical to its reference aggregate), and
// resuming from it reproduces the uninterrupted sweep to the last bit.
TEST(SweepEngine, CheckpointHoldsExactlyTheCompletedShards) {
  const ExperimentConfig config = sweep_config();
  const SweepOptions base = stream_options();
  const std::size_t shard_count = 20;
  std::vector<std::string> reference(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    SweepAggregate shard;
    for (std::size_t k = s * base.shard_size; k < (s + 1) * base.shard_size;
         ++k) {
      shard.add(evaluate_scenario(
          config, derive_seed(config.generator.base_seed, k)));
    }
    reference[s] = serialize_sweep_aggregate(shard);
  }
  ThreadPool serial(1);
  const std::string whole =
      serialize_sweep_aggregate(run_sweep(config, base, serial).aggregate);

  for (const std::size_t threads : {1u, 3u, 4u}) {
    ThreadPool pool(threads);
    for (const std::size_t every : {1u, 2u, 5u}) {
      for (const std::size_t max_shards : {0u, 7u}) {
        SCOPED_TRACE("threads " + std::to_string(threads) + " every " +
                     std::to_string(every) + " max_shards " +
                     std::to_string(max_shards));
        TempCheckpoint tmp("stream");
        SweepOptions options = base;
        options.checkpoint_path = tmp.path();
        options.checkpoint_every = every;
        options.max_shards = max_shards;
        const SweepReport first = run_sweep(config, options, pool);
        const std::size_t ran = max_shards == 0 ? shard_count : max_shards;
        EXPECT_EQ(first.shards_run, ran);
        EXPECT_EQ(first.complete, ran == shard_count);
        const std::size_t intervals = (ran + every - 1) / every;
        if (threads == 1) {
          // Inline saves land on every interval boundary.
          EXPECT_EQ(first.checkpoints_written, intervals);
        } else {
          // Intervals that complete during a save fold into the next one.
          EXPECT_GE(first.checkpoints_written, 1u);
          EXPECT_LE(first.checkpoints_written, intervals);
        }

        const SweepCheckpoint saved = load_sweep_checkpoint(tmp.path());
        ASSERT_EQ(saved.shard_count(), shard_count);
        EXPECT_EQ(saved.completed_count(), ran);
        for (std::size_t s = 0; s < shard_count; ++s) {
          EXPECT_EQ(saved.completed[s] != 0, s < ran) << "shard " << s;
          if (saved.completed[s] != 0) {
            EXPECT_EQ(serialize_sweep_aggregate(saved.shards[s]),
                      reference[s])
                << "shard " << s;
          }
        }

        SweepOptions resume = options;
        resume.max_shards = 0;
        resume.resume = true;
        const SweepReport rest = run_sweep(config, resume, pool);
        EXPECT_TRUE(rest.complete);
        EXPECT_EQ(rest.shards_resumed, ran);
        EXPECT_EQ(rest.shards_run, shard_count - ran);
        EXPECT_EQ(serialize_sweep_aggregate(rest.aggregate), whole);
        EXPECT_EQ(load_sweep_checkpoint(tmp.path()).completed_count(),
                  shard_count);
      }
    }
  }
}

// A save that fails (its directory does not exist) stops the lanes and
// surfaces as ConfigError only after every lane has returned: the same
// pool then runs a clean sweep bit-identical to a 1-thread run, so no lane
// leaked, wedged or kept a claim on the pool.
TEST(SweepEngine, SaveFailureStopsTheStreamAndLeavesThePoolUsable) {
  const ExperimentConfig config = sweep_config();
  ThreadPool pool(4);
  const std::string missing =
      (std::filesystem::temp_directory_path() / "dsslice_no_such_dir" /
       "sweep.ckpt")
          .string();
  ASSERT_FALSE(std::filesystem::exists(
      std::filesystem::path(missing).parent_path()));
  for (const std::size_t every : {0u, 1u, 3u}) {
    SweepOptions options = stream_options();
    options.checkpoint_path = missing;
    options.checkpoint_every = every;
    EXPECT_THROW(run_sweep(config, options, pool), ConfigError)
        << "every " << every;
  }
  ThreadPool serial(1);
  EXPECT_EQ(
      serialize_sweep_aggregate(
          run_sweep(config, stream_options(), pool).aggregate),
      serialize_sweep_aggregate(
          run_sweep(config, stream_options(), serial).aggregate));
}

TEST(SweepEngine, RejectsFingerprintMismatchOnResume) {
  ThreadPool pool(1);
  TempCheckpoint tmp("fingerprint");
  SweepOptions options = small_options();
  options.checkpoint_path = tmp.path();
  options.max_shards = 2;
  options.checkpoint_every = 1;
  run_sweep(sweep_config(0x5EED), options, pool);

  options.resume = true;
  // Same layout, different scenario distribution: mixing would be silent
  // data corruption, so the engine must refuse.
  EXPECT_THROW(run_sweep(sweep_config(0xD1FF), options, pool), ConfigError);
}

TEST(SweepEngine, RejectsLayoutMismatchOnResume) {
  const ExperimentConfig config = sweep_config();
  ThreadPool pool(1);
  TempCheckpoint tmp("layout");
  SweepOptions options = small_options();
  options.checkpoint_path = tmp.path();
  options.max_shards = 2;
  options.checkpoint_every = 1;
  run_sweep(config, options, pool);

  options.resume = true;
  options.shard_size = 32;  // different shard layout than the checkpoint
  EXPECT_THROW(run_sweep(config, options, pool), ConfigError);
}

TEST(SweepEngine, WarmSweepAllocatesNothing) {
  const ExperimentConfig config = sweep_config();
  // One single-threaded pool for all runs: every fresh pool brings fresh
  // thread-local arenas (the gate is about *steady state*, not first
  // touch), and with N workers the racy shard->thread assignment could
  // hand a thread a scenario shape it never warmed on.
  ThreadPool pool(1);
  // The arena's batch storage rotates against scenario shapes between
  // runs (see the ScenarioBatch steady-state test), so settle until a
  // full rotation cycle of runs stays flat before asserting.
  constexpr int kRotationCycle = 10;  // gen_chunk=8 slots + scratch, margin
  int flat = 0;
  for (int pass = 0; pass < 100 && flat < kRotationCycle; ++pass) {
    const std::uint64_t before = sweep_arena_grow_events();
    run_sweep(config, small_options(), pool);
    flat = sweep_arena_grow_events() == before ? flat + 1 : 0;
  }
  ASSERT_EQ(flat, kRotationCycle) << "sweep arena never reached steady state";
  const std::uint64_t warm = sweep_arena_grow_events();
  run_sweep(config, small_options(), pool);
  EXPECT_EQ(sweep_arena_grow_events(), warm);
}

}  // namespace
}  // namespace dsslice
