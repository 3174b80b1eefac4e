// perfbench — the repository benchmark driver.
//
//   perfbench --workload <paper_stream|fig_grid|ckpt_resume> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//             [--reference <file>] [--perturb-reference]
//
// One run: closed-loop rounds for --seconds (each round = set-up samples,
// the full workload on nproc threads, and its 1-thread prefix stream), then
// the digest cross-checks. With --trace 1 the rounds get half the time, and
// an untimed counting pass plus single-thread traced runs alternating with
// untraced ones (the per-layer ledger, Chrome trace) get the rest. The last
// stdout line is the JSON result: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1. README.md has the metric table.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <thread>

#include "dsslice/obs/registry.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 20250707;
constexpr std::size_t kSetupPerRound = 8;
constexpr std::size_t kMinTracedRuns = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string out_dir = ".perfbench_out";
  std::string reference;
  bool perturb_reference = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>] "
               "[--reference <file>] [--perturb-reference]\n",
               error.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage("missing value for " + arg);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = std::stoi(value());
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else if (arg == "--out-dir") {
        o.out_dir = value();
      } else if (arg == "--reference") {
        o.reference = value();
      } else if (arg == "--perturb-reference") {
        o.perturb_reference = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0) || (o.trace != 0 && o.trace != 1)) {
    usage("--seconds must be positive and --trace 0 or 1");
  }
  return o;
}

std::size_t nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Same fields as bench/bench_common.hpp's machine_json, plus nproc and the
// CMake build type, so rows never mix with other machines' numbers.
std::string machine_json(std::size_t threads) {
  std::string isa_compiled = "generic";
#if defined(__AVX512F__)
  isa_compiled = "avx512f";
#elif defined(__AVX2__)
  isa_compiled = "avx2";
#elif defined(__AVX__)
  isa_compiled = "avx";
#elif defined(__SSE2__) || defined(__x86_64__)
  isa_compiled = "sse2";
#elif defined(__ARM_NEON)
  isa_compiled = "neon";
#endif
  std::string isa_runtime = "generic";
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f") != 0) {
    isa_runtime = "avx512f";
  } else if (__builtin_cpu_supports("avx2") != 0) {
    isa_runtime = "avx2";
  } else if (__builtin_cpu_supports("avx") != 0) {
    isa_runtime = "avx";
  } else if (__builtin_cpu_supports("sse2") != 0) {
    isa_runtime = "sse2";
  }
#elif defined(__ARM_NEON)
  isa_runtime = "neon";
#endif
  std::string out = "{\"nproc\": " + std::to_string(nproc());
  out += ", \"threads\": " + std::to_string(threads);
  out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"compiler\": \"" + std::string(__VERSION__) + "\"";
  out += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
#if defined(NDEBUG)
  out += ", \"build\": \"release\"";
#else
  out += ", \"build\": \"debug\"";
#endif
#if defined(__x86_64__)
  out += ", \"arch\": \"x86_64\"";
#elif defined(__aarch64__)
  out += ", \"arch\": \"aarch64\"";
#else
  out += ", \"arch\": \"other\"";
#endif
  out += ", \"isa_compiled\": \"" + isa_compiled + "\"";
  out += ", \"isa_runtime\": \"" + isa_runtime + "\"}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Reference digests recorded for fixed seeds. Line format:
///   <workload>[@smoke] <full|prefix> <seed> <part digest>...
using References = std::map<std::string, Digest>;

std::string reference_key(const std::string& workload, bool smoke,
                          const std::string& stream, std::uint64_t seed) {
  return workload + (smoke ? "@smoke" : "") + " " + stream + " " +
         std::to_string(seed);
}

References load_references(const std::string& path) {
  References refs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string workload;
    std::string stream;
    std::string seed;
    fields >> workload >> stream >> seed;
    Digest d;
    std::string part;
    while (fields >> part) {
      d.add(std::stoull(part, nullptr, 16), 0);
    }
    refs[workload + " " + stream + " " + seed] = d;
  }
  return refs;
}

/// Correctness gate: every digest of a stream is compared with the stream's
/// pin — the recorded reference for this seed when there is one, otherwise
/// the first digest the run produced. Mismatching or throwing runs count
/// their scenarios as failed; nothing aborts the run.
class Gate {
 public:
  void pin(const std::string& stream, const Digest& reference) {
    pins_[stream] = reference;
    has_reference_[stream] = true;
  }

  void check(const std::string& stream, const std::string& what,
             const Digest& got) {
    auto it = pins_.find(stream);
    if (it == pins_.end()) {
      pins_[stream] = got;
      return;
    }
    compare(what, got, it->second,
            has_reference_[stream] ? "recorded reference" : "first run");
  }

  void compare(const std::string& what, const Digest& got, const Digest& want,
               const std::string& source = "other path") {
    ++checks_;
    const std::uint64_t bad = mismatched_scenarios(got, want);
    if (bad > 0) {
      failed_ += bad;
      notes_.push_back(what + ": " + std::to_string(bad) +
                       " scenarios in parts whose digest differs from the " +
                       source);
    }
  }

  /// Runs `body` (which covers `scenarios` scenarios), catching throws.
  std::optional<Digest> run(const std::string& what, std::uint64_t scenarios,
                            const std::function<Digest()>& body) {
    attempted_ += scenarios;
    try {
      return body();
    } catch (const std::exception& e) {
      failed_ += scenarios;
      notes_.push_back(what + " threw: " + e.what());
      return std::nullopt;
    }
  }

  void note(const std::string& text) { notes_.push_back(text); }
  /// A check that should have run and could not: the run is not correct.
  void fail_unchecked(const std::string& text) {
    unchecked_ = true;
    notes_.push_back(text);
  }
  bool correct() const { return failed_ == 0 && checks_ > 0 && !unchecked_; }
  const Digest* pinned(const std::string& stream) const {
    const auto it = pins_.find(stream);
    return it == pins_.end() ? nullptr : &it->second;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::size_t checks() const { return checks_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, Digest> pins_;
  std::map<std::string, bool> has_reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t checks_ = 0;
  bool unchecked_ = false;
  std::vector<std::string> notes_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + fmt(values[i]);
  }
  return out;
}

/// The two streams digests are pinned per: the full workload and the
/// 1-thread prefix (one and the same when the prefix is the whole stream).
struct Streams {
  std::string full = "full";
  std::string prefix;
};

void pin_references(Gate& gate, const Options& opt, const Streams& streams) {
  const References refs = load_references(opt.reference);
  for (const std::string& stream : {streams.full, streams.prefix}) {
    const auto it =
        refs.find(reference_key(opt.workload, opt.smoke, stream, opt.seed));
    if (gate.pinned(stream) != nullptr || it == refs.end()) {
      continue;
    }
    Digest ref = it->second;
    if (opt.perturb_reference) {
      for (std::uint64_t& part : ref.parts) {
        part ^= 1;
      }
    }
    gate.pin(stream, ref);
    std::printf("reference digest pinned for the %s stream\n", stream.c_str());
  }
  if (opt.seed == kDefaultSeed && gate.pinned(streams.full) == nullptr) {
    gate.fail_unchecked("no recorded reference digest for the default seed");
  }
}

struct Rounds {
  std::vector<double> setup_s;
  std::vector<double> rate_n;  ///< scenarios/s on nproc threads
  std::vector<double> rate_1;  ///< scenarios/s on 1 thread
};

/// Closed-loop rounds for `budget` seconds: a round starts only if it fits
/// by the mean round time so far (the first round always runs).
Rounds run_rounds(Workload& workload, Gate& gate, const Streams& streams,
                  ThreadPool& pool, ThreadPool& pool_1t, double budget) {
  Rounds r;
  const std::uint64_t t_start = now_ns();
  while (r.rate_n.empty() ||
         seconds_since(t_start) *
                 (1.0 + 1.0 / static_cast<double>(r.rate_n.size())) <=
             budget) {
    const std::string round = std::to_string(r.rate_n.size());
    // Set-up samples are spread over the rounds, so their median sees the
    // same machine states the throughput rounds do.
    for (std::size_t i = 0; i < kSetupPerRound; ++i) {
      r.setup_s.push_back(workload.setup_sample(pool.size()));
    }
    const std::uint64_t full_n = workload.full_scenarios();
    std::uint64_t t0 = now_ns();
    const auto full = gate.run("full round " + round, full_n,
                               [&] { return workload.run_full(pool); });
    const double full_wall = seconds_since(t0);
    const std::uint64_t prefix_n = workload.prefix_scenarios();
    t0 = now_ns();
    const auto prefix = gate.run("1-thread round " + round, prefix_n,
                                 [&] { return workload.run_prefix(pool_1t); });
    const double prefix_wall = seconds_since(t0);
    if (full) {
      gate.check(streams.full, "full round " + round, *full);
    }
    if (prefix) {
      gate.check(streams.prefix, "1-thread round " + round, *prefix);
    }
    r.rate_n.push_back(static_cast<double>(full_n) / full_wall);
    r.rate_1.push_back(static_cast<double>(prefix_n) / prefix_wall);
    std::printf("round %s: %.1f scenarios/s on %zu threads, %.1f on 1\n",
                round.c_str(), r.rate_n.back(), pool.size(), r.rate_1.back());
  }
  return r;
}

/// The prefix on nproc threads, and the workload's second public path.
void cross_check(Workload& workload, Gate& gate, const Streams& streams,
                 ThreadPool& pool) {
  if (!workload.prefix_is_full()) {
    if (const auto d = gate.run("prefix on nproc threads",
                                workload.prefix_scenarios(),
                                [&] { return workload.run_prefix(pool); })) {
      gate.check(streams.prefix, "prefix on nproc threads", *d);
    }
  }
  Workload::AltRun alt;
  if (gate.run("alternate path", workload.alternate_scenarios(), [&] {
        alt = workload.run_alternate(pool);
        return alt.digest;
      })) {
    if (alt.expected.parts.empty()) {
      gate.check(alt.against_full ? streams.full : streams.prefix, alt.label,
                 alt.digest);
    } else {
      gate.compare(alt.label, alt.digest, alt.expected);
    }
    std::printf("checked %s\n", alt.label.c_str());
  }
}

struct LedgerReport {
  std::vector<Metric> metrics;
  std::string text;           ///< ledger and self-time tables
  std::string selftime_json;  ///< per span name: spans, total, self, share
};

/// Counting pass, then traced runs alternating with untraced 1-thread runs
/// of the prefix stream until `deadline_s` (measured from `t_start`).
LedgerReport run_ledger(Workload& workload, Gate& gate, const Streams& streams,
                        ThreadPool& pool_1t, double parallel_eff,
                        std::uint64_t t_start, double deadline_s,
                        const std::string& trace_path,
                        const std::string& workload_name,
                        const std::string& machine) {
  // Counting pass: the traced loop once on cold arenas with the library's
  // obs counters on, nothing timed. It yields the exact-repeat counts
  // (analysis builds per ledger row, grow events, passes) and warms the
  // arenas for the timed traced runs.
  dsslice::obs::reset();
  dsslice::obs::set_enabled(true);
  Ledger probe;
  probe.enable_build_probe();
  if (const auto d = gate.run("counting pass", workload.prefix_scenarios(),
                              [&] { return workload.traced(probe); })) {
    gate.check(streams.prefix, "counting pass", *d);
  }
  dsslice::obs::set_enabled(false);
  dsslice::obs::reset();
  const Workload::Counts counts = workload.counts();
  const double builds = probe.builds_in(layer::kAnalysis);
  if (probe.builds_total() != builds ||
      builds != static_cast<double>(counts.scenarios)) {
    gate.note("analysis builds: " + fmt(builds) + " in the analysis row, " +
              fmt(probe.builds_total()) + " in all rows, for " +
              std::to_string(counts.scenarios) + " scenarios");
  }

  // Traced runs alternate with untraced runs (U T U … T U): the machine's
  // speed drifts over seconds, so each traced run is compared with its
  // neighbours. The layers plus the unattributed residual add up to the
  // mean untraced wall.
  const auto untraced_wall = [&](const std::string& what) {
    const std::uint64_t t0 = now_ns();
    if (const auto d = gate.run(what, workload.prefix_scenarios(),
                                [&] { return workload.run_prefix(pool_1t); })) {
      gate.check(streams.prefix, what, *d);
    }
    return seconds_since(t0);
  };
  std::vector<double> untraced = {untraced_wall("untraced 1-thread run 0")};
  std::vector<Ledger> ledgers;
  const std::uint64_t ledger_t0 = now_ns();
  do {
    const std::string k = std::to_string(ledgers.size());
    ledgers.emplace_back();
    if (const auto d =
            gate.run("traced run " + k, workload.prefix_scenarios(),
                     [&] { return workload.traced(ledgers.back()); })) {
      gate.check(streams.prefix, "traced run " + k, *d);
    }
    untraced.push_back(untraced_wall("untraced 1-thread run " +
                                     std::to_string(ledgers.size())));
  } while (ledgers.size() < kMinTracedRuns ||
           seconds_since(t_start) +
                   seconds_since(ledger_t0) /
                       static_cast<double>(ledgers.size()) <=
               deadline_s);
  double wall_1t = 0.0;
  for (const double w : untraced) {
    wall_1t += w / static_cast<double>(untraced.size());
  }
  const LedgerSummary sum = summarize(ledgers);
  const double unattributed_s = wall_1t - sum.layers_total_s();

  LedgerReport out;
  const double n = static_cast<double>(counts.scenarios);
  const auto per_scenario = [&](double count) {
    return n > 0 ? count / n : 0.0;
  };
  const auto add = [&](const std::string& name, double value,
                       const char* unit) {
    out.metrics.push_back({name, value, unit});
  };
  const auto add_layer = [&](const std::string& name, const char* row) {
    const LayerSamples s = sum.layer(row);
    add(name + ".us_per_scenario", s.median_us, "us");
    add(name + ".us_per_scenario_tail", s.tail_us, "us");
  };
  add_layer("gen", layer::kGen);
  add("gen.grow_events", static_cast<double>(counts.gen_grow_events), "count");
  add_layer("analysis", layer::kAnalysis);
  add("analysis.builds", builds, "count");
  add_layer("batch", layer::kBatch);
  add("batch.passes_per_scenario",
      per_scenario(static_cast<double>(counts.batch_passes)), "passes");
  add("batch.grow_events", static_cast<double>(counts.batch_grow_events),
      "count");
  add_layer("core.slice", layer::kCoreSlice);
  add("core.passes_per_scenario",
      per_scenario(static_cast<double>(counts.core_passes)), "passes");
  add_layer("sched", layer::kSched);
  add("sched.success_ratio",
      per_scenario(static_cast<double>(counts.successes)), "ratio");
  add_layer("sweep.aggregate", layer::kAggregate);
  add("sweep.parallel_eff", parallel_eff, "ratio");
  const auto saves = sum.durations_ms.find(layer::kCheckpointSave);
  const std::vector<double> saves_ms =
      saves == sum.durations_ms.end() ? std::vector<double>{} : saves->second;
  double save_tail_pct = 0.0;
  const double save_tail = tail_of(saves_ms, &save_tail_pct);
  add("checkpoint.saves", static_cast<double>(counts.checkpoint_saves),
      "count");
  add("checkpoint.bytes_per_save",
      counts.checkpoint_saves > 0
          ? static_cast<double>(counts.checkpoint_bytes) /
                static_cast<double>(counts.checkpoint_saves)
          : 0.0,
      "bytes");
  add("checkpoint.save_ms_p50", median_of(saves_ms), "ms");
  add("checkpoint.save_ms_tail", save_tail, "ms");
  add("checkpoint.load_ms", sum.layer(layer::kCheckpointLoad).total_s * 1e3,
      "ms");
  add("checkpoint.share",
      (sum.layer(layer::kCheckpointSave).total_s +
       sum.layer(layer::kCheckpointLoad).total_s) /
          sum.traced_wall_s,
      "ratio");
  add("unattributed.us_per_scenario", per_scenario(unattributed_s * 1e6), "us");
  add("trace.overhead", sum.traced_wall_s / wall_1t - 1.0, "ratio");

  // ---- ledger and self-time tables -----------------------------------
  std::ostringstream text;
  char line[200];
  text << "\nper-layer ledger: " << ledgers.size()
       << " traced 1-thread runs of " << counts.scenarios
       << " scenarios alternating with " << untraced.size()
       << " untraced ones. total and share are per run; median and tail "
          "pool the sampling units of all runs (tail = highest percentile "
          "with >=10 units beyond it)\n";
  std::snprintf(line, sizeof line, "  %-16s %8s %10s %10s %8s %10s %8s\n",
                "layer", "units", "median_us", "tail_us", "tail_pct",
                "total_ms", "share");
  text << line;
  for (const auto& [name, row] : sum.layers) {
    std::snprintf(line, sizeof line,
                  "  %-16s %8zu %10.3f %10.3f %8.2f %10.2f %7.2f%%\n",
                  name.c_str(), row.samples, row.median_us, row.tail_us,
                  row.tail_percentile, row.total_s * 1e3,
                  100.0 * row.total_s / wall_1t);
    text << line;
  }
  std::snprintf(line, sizeof line, "  %-16s %8s %10s %10s %8s %10.2f %7.2f%%\n",
                "unattributed", "", "", "", "", unattributed_s * 1e3,
                100.0 * unattributed_s / wall_1t);
  text << line;
  std::snprintf(line, sizeof line,
                "  layers + unattributed = %.2f ms = mean untraced 1-thread "
                "wall; mean traced wall %.2f ms (overhead %+.2f%%)\n",
                (sum.layers_total_s() + unattributed_s) * 1e3,
                sum.traced_wall_s * 1e3,
                100.0 * (sum.traced_wall_s / wall_1t - 1.0));
  text << line << "self time by span (span minus nested spans), per run:\n";
  out.selftime_json = "[";
  for (std::size_t i = 0; i < sum.names.size(); ++i) {
    const NameTotals& t = sum.names[i];
    const double share = t.self_s / sum.traced_wall_s;
    std::snprintf(line, sizeof line,
                  "  %-16s %8llu spans %10.2f ms total %10.2f ms self "
                  "%7.2f%%\n",
                  t.name.c_str(),
                  static_cast<unsigned long long>(t.count / sum.runs),
                  t.total_s * 1e3, t.self_s * 1e3, 100.0 * share);
    text << line;
    out.selftime_json += std::string(i == 0 ? "" : ", ") + "{\"name\": \"" +
                         t.name + "\", \"spans\": " +
                         std::to_string(t.count / sum.runs) +
                         ", \"total_s\": " + fmt(t.total_s) +
                         ", \"self_s\": " + fmt(t.self_s) +
                         ", \"self_share\": " + fmt(share) + "}";
  }
  out.selftime_json += "]";
  // The last traced run's spans (every run has the same shape).
  if (write_chrome_trace(ledgers.back(), trace_path, workload_name, machine)) {
    text << "chrome trace: " << trace_path << "\n";
  } else {
    gate.note("could not write " + trace_path);
  }
  out.text = text.str();
  return out;
}

int run(const Options& opt) {
  const std::size_t threads = nproc();
  const std::string machine = machine_json(threads);
  const std::filesystem::path out_dir = opt.out_dir;
  std::filesystem::create_directories(out_dir / "work");
  const std::unique_ptr<Workload> workload = make_workload(
      opt.workload, opt.seed, opt.smoke, (out_dir / "work").string());
  const std::string stem = opt.workload + (opt.smoke ? "-smoke" : "") +
                           "-seed" + std::to_string(opt.seed);

  std::printf("perfbench %s%s seed=%llu seconds=%g trace=%d\nmachine %s\n",
              opt.workload.c_str(), opt.smoke ? " (smoke)" : "",
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace, machine.c_str());
  std::printf("stream: full %llu scenarios on %zu threads, prefix %llu on 1 "
              "thread\n",
              static_cast<unsigned long long>(workload->full_scenarios()),
              threads,
              static_cast<unsigned long long>(workload->prefix_scenarios()));

  Gate gate;
  Streams streams;
  streams.prefix = workload->prefix_is_full() ? streams.full : "prefix";
  if (!opt.reference.empty()) {
    pin_references(gate, opt, streams);
  }

  ThreadPool pool(threads);
  ThreadPool pool_1t(1);
  const std::uint64_t t_start = now_ns();
  // With --trace 1 the rounds get half the time and the ledger the rest.
  const Rounds rounds =
      run_rounds(*workload, gate, streams, pool, pool_1t,
                 opt.trace == 1 ? 0.5 * opt.seconds : opt.seconds);
  const double sps = median_of(rounds.rate_n);
  const double sps_1t = median_of(rounds.rate_1);
  const double rss_mb = peak_rss_mb();
  cross_check(*workload, gate, streams, pool);

  LedgerReport ledger;
  if (opt.trace == 1) {
    ledger = run_ledger(*workload, gate, streams, pool_1t,
                        sps / (static_cast<double>(threads) * sps_1t), t_start,
                        opt.seconds,
                        (out_dir / (stem + ".trace.json")).string(),
                        opt.workload, machine);
  } else {
    ledger.metrics = {{"scenarios_per_s", sps, "1/s"},
                      {"scenarios_per_s_1t", sps_1t, "1/s"},
                      {"setup_s", median_of(rounds.setup_s), "s"},
                      {"peak_rss_mb", rss_mb, "MB"}};
  }

  std::fputs(ledger.text.c_str(), stdout);
  // In reference_digests.txt's line format.
  for (const std::string& stream : {streams.full, std::string("prefix")}) {
    if (const Digest* d = gate.pinned(stream)) {
      std::printf("digest %s %s %llu %s\n",
                  (opt.workload + (opt.smoke ? "@smoke" : "")).c_str(),
                  stream.c_str(), static_cast<unsigned long long>(opt.seed),
                  d->hex().c_str());
    }
  }
  for (const std::string& note : gate.notes()) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf("checks %zu, attempted %llu, failed %llu\n", gate.checks(),
              static_cast<unsigned long long>(gate.attempted()),
              static_cast<unsigned long long>(gate.failed()));
  const std::string result =
      std::string("{\"correct\": ") + (gate.correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(gate.attempted()) +
      ", \"failed\": " + std::to_string(gate.failed()) +
      ", \"metrics\": " + metrics_json(ledger.metrics) + "}";

  // Full record: the result plus machine, raw rounds and self times.
  std::ofstream(out_dir /
                (stem + "-trace" + std::to_string(opt.trace) + ".result.json"))
      << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"smoke\": " << (opt.smoke ? "true" : "false")
      << ", \"trace\": " << opt.trace << ", \"machine\": " << machine
      << ",\n \"rounds_scenarios_per_s\": [" << join(rounds.rate_n)
      << "],\n \"rounds_scenarios_per_s_1t\": [" << join(rounds.rate_1)
      << "],\n \"setup_samples_s\": [" << join(rounds.setup_s)
      << "],\n \"self_time\": "
      << (ledger.selftime_json.empty() ? "[]" : ledger.selftime_json)
      << ",\n \"result\": " << result << "}\n";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
