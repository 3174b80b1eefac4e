// Repository benchmark: shared declarations of the driver (main.cpp), the
// outside-in span ledger (ledger.cpp) and the three workloads
// (workloads.cpp). Everything here calls the dsslice library through its
// public headers only; the layer timings come from spans recorded around
// the library calls, never from tracing inside the library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dsslice/dsslice.hpp"

namespace perfbench {

using dsslice::ThreadPool;

std::uint64_t now_ns();
double seconds_since(std::uint64_t start_ns);

// ---------------------------------------------------------------------------
// Aggregate digests: one 64-bit FNV-1a hash per part — a whole sweep, or
// one figure cell — over the bit-exact text of its aggregate.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::string_view text);

struct Digest {
  std::vector<std::uint64_t> parts;
  std::vector<std::uint64_t> scenarios;  ///< scenarios per part

  void add(std::uint64_t part, std::uint64_t part_scenarios);
  std::uint64_t total_scenarios() const;
  std::string hex() const;  ///< space-separated part digests
};

Digest sweep_digest(const dsslice::SweepAggregate& aggregate);
std::uint64_t cell_digest(const dsslice::ExperimentResult& result);

/// Scenarios of `got` in parts whose digest disagrees with `want` (all of
/// them when the part layouts differ) — the unit failures are counted in.
std::uint64_t mismatched_scenarios(const Digest& got, const Digest& want);

// ---------------------------------------------------------------------------
// Ledger: spans recorded from outside around each layer entry point.
// ---------------------------------------------------------------------------

/// Layer span names (the ledger rows). Structural spans (run, call, wave,
/// shard, cell, chunk) group them; chunk spans — and cell spans for per-cell
/// work — are the sampling units the per-scenario medians are taken over.
namespace layer {
inline constexpr const char* kGen = "gen";
inline constexpr const char* kAnalysis = "analysis";
inline constexpr const char* kBatch = "batch";
inline constexpr const char* kCoreSlice = "core.slice";
inline constexpr const char* kSched = "sched";
inline constexpr const char* kAggregate = "sweep.aggregate";
inline constexpr const char* kCheckpointSave = "checkpoint.save";
inline constexpr const char* kCheckpointLoad = "checkpoint.load";
}  // namespace layer

struct Span {
  const char* name = nullptr;  ///< static storage
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;    ///< index of the enclosing span, -1 for a root
  std::int64_t id = -1;        ///< chunk / shard / cell / wave number
  std::uint64_t scenarios = 0; ///< > 0 marks a sampling unit
};

class Ledger {
 public:
  /// RAII span around one call (or one loop of calls) into a layer.
  class Scope {
   public:
    Scope(Ledger& ledger, const char* name, std::int64_t id = -1,
          std::uint64_t scenarios = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger& ledger_;
    std::size_t index_;
    double builds_before_ = 0.0;
  };

  /// Counting mode (untimed pass with the library's obs counters on):
  /// attributes every analysis build to the ledger row it happened in.
  void enable_build_probe() { probe_builds_ = true; }
  double builds_in(const char* layer_name) const;
  double builds_total() const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  bool probe_builds_ = false;
  std::map<std::string, double> builds_;  ///< analysis builds per layer
};

/// Per-name totals and self time (span minus the spans nested in it).
struct NameTotals {
  std::string name;
  std::uint64_t count = 0;  ///< over all runs
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Median and tail of one layer's per-scenario time over sampling units;
/// total_s is the layer's time per run.
struct LayerSamples {
  std::size_t samples = 0;
  double median_us = 0.0;
  double tail_us = 0.0;
  double tail_percentile = 0.0;  ///< highest with ≥10 samples beyond it
  double total_s = 0.0;
};

/// Summary of one or more traced runs of the same stream: walls, totals and
/// self times are means per run; unit samples and span durations pool.
struct LedgerSummary {
  std::size_t runs = 0;
  double traced_wall_s = 0.0;  ///< root spans, per run
  std::vector<NameTotals> names;  ///< every span name, first-seen order
  std::map<std::string, LayerSamples> layers;  ///< layer rows only
  /// Individual span durations in ms, per layer (checkpoint percentiles).
  std::map<std::string, std::vector<double>> durations_ms;

  /// The layer's row; all-zero when the workload never enters the layer.
  LayerSamples layer(const char* name) const;
  /// Sum of the layer rows' totals — the attributed part of the wall.
  double layers_total_s() const;
};

LedgerSummary summarize(const std::vector<Ledger>& runs);

/// Highest percentile of `values` with at least ten samples beyond it (the
/// maximum when there are fewer than eleven); `percentile` receives its rank.
double tail_of(std::vector<double> values, double* percentile);
double median_of(std::vector<double> values);

/// Writes the spans as Chrome-trace JSON (loads in Perfetto / about:tracing).
/// Returns false when the file cannot be written.
bool write_chrome_trace(const Ledger& ledger, const std::string& path,
                        const std::string& workload,
                        const std::string& machine_json);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;

  /// The full workload through the public API on `pool` (nproc threads).
  virtual Digest run_full(ThreadPool& pool) = 0;
  /// The single-thread stream: a fixed prefix of the full stream.
  virtual Digest run_prefix(ThreadPool& pool) = 0;
  /// True when the prefix is the whole stream (the 4-thread digest then
  /// cross-checks the 1-thread one directly).
  virtual bool prefix_is_full() const { return false; }
  /// One set-up sample in seconds: pool construction plus the first cold
  /// chunk on it (plus the checkpoint load where the workload resumes).
  virtual double setup_sample(std::size_t threads) = 0;

  /// Digest of the workload's second public path — interrupted-then-
  /// resumed, uninterrupted, or the figure sweeps — and what it must match:
  /// the full or prefix stream's pin, or `expected` when that is non-empty.
  struct AltRun {
    std::string label;
    Digest digest;
    bool against_full = false;
    Digest expected;
  };
  virtual AltRun run_alternate(ThreadPool& pool) = 0;
  virtual std::uint64_t alternate_scenarios() const = 0;

  /// Single-thread reproduction of the prefix stream, calling the layer
  /// entry points in the engine's order with a span around each.
  virtual Digest traced(Ledger& ledger) = 0;

  /// Exact-repeat counts of the last traced() call. The traced run's arena
  /// lives as long as the workload, so the grow events are cumulative: read
  /// after the first call they are the cold-arena growth.
  struct Counts {
    std::uint64_t gen_grow_events = 0;
    std::uint64_t batch_grow_events = 0;
    std::uint64_t batch_passes = 0;
    std::uint64_t core_passes = 0;
    std::uint64_t successes = 0;
    std::uint64_t scenarios = 0;
    std::uint64_t checkpoint_saves = 0;
    std::uint64_t checkpoint_bytes = 0;
  };
  const Counts& counts() const { return counts_; }

  virtual std::uint64_t full_scenarios() const = 0;
  virtual std::uint64_t prefix_scenarios() const = 0;

 protected:
  Counts counts_;
};

/// Workload names in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// `smoke` shrinks every stream to a few thousand scenarios (self-tests).
/// `work_dir` receives checkpoint files. Returns nullptr for unknown names.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke,
                                        const std::string& work_dir);

}  // namespace perfbench
