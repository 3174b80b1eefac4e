#include "dsslice/sweep/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>

#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

constexpr std::uint64_t kFormatVersion = 1;

/// Sanity bound on shard counts. A count beyond this is a corrupted file,
/// not a real sweep; rejecting it up front avoids huge allocations.
constexpr std::uint64_t kMaxShardCount = 1'000'000;

/// "00".."ff": the two hex digits of every byte value, so a 64-bit pattern
/// encodes in eight table lookups.
constexpr std::array<char, 512> kHexPairs = [] {
  constexpr char kDigits[] = "0123456789abcdef";
  std::array<char, 512> table{};
  for (std::size_t b = 0; b < 256; ++b) {
    table[2 * b] = kDigits[b >> 4];
    table[2 * b + 1] = kDigits[b & 0xF];
  }
  return table;
}();

/// Appends the raw IEEE-754 bit pattern of `x` as 16 lower-case hex digits
/// — exact round-trip by construction (decimal formatting is not trusted
/// for Welford state).
void append_hex64(std::string& out, double x) {
  std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  char buf[16];
  for (int byte = 7; byte >= 0; --byte) {
    const std::size_t pair = 2 * static_cast<std::size_t>(bits & 0xFF);
    buf[2 * byte] = kHexPairs[pair];
    buf[2 * byte + 1] = kHexPairs[pair + 1];
    bits >>= 8;
  }
  out.append(buf, sizeof buf);
}

std::string hex64(double x) {
  std::string out;
  append_hex64(out, x);
  return out;
}

/// Appends `v` in decimal.
void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

/// Tokenized line reader with position tracking for error messages
/// (mirrors sim/serialization.cpp).
class LineReader {
 public:
  explicit LineReader(const std::string& text) : in_(text) {}

  std::vector<std::string> next() {
    std::string line;
    while (std::getline(in_, line)) {
      ++line_no_;
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) {
        line = line.substr(0, hash);
      }
      std::istringstream ls(line);
      std::vector<std::string> tokens;
      std::string tok;
      while (ls >> tok) {
        tokens.push_back(tok);
      }
      if (!tokens.empty()) {
        return tokens;
      }
    }
    fail("unexpected end of input");
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw ConfigError("sweep checkpoint parse error at line " +
                      std::to_string(line_no_) + ": " + why);
  }

  void expect(const std::vector<std::string>& tokens,
              const std::string& keyword, std::size_t arity) const {
    if (tokens.empty() || tokens[0] != keyword ||
        tokens.size() != arity + 1) {
      fail("expected '" + keyword + "' with " + std::to_string(arity) +
           " argument(s)");
    }
  }

  std::uint64_t to_u64(const std::string& tok) const {
    if (tok.empty() || tok[0] == '-') {
      fail("not an unsigned integer: " + tok);
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE) {
      fail("not an unsigned integer: " + tok);
    }
    return static_cast<std::uint64_t>(v);
  }

  double to_hex_double(const std::string& tok) const {
    if (tok.size() != 16) {
      fail("not a 16-hex-digit bit pattern: " + tok);
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 16);
    if (end == nullptr || *end != '\0' || errno == ERANGE) {
      fail("not a 16-hex-digit bit pattern: " + tok);
    }
    return std::bit_cast<double>(static_cast<std::uint64_t>(v));
  }

 private:
  std::istringstream in_;
  int line_no_ = 0;
};

void write_stat(std::string& out, std::string_view name,
                const RunningStats& stats) {
  const RunningStatsState s = stats.state();
  out += "stat ";
  out += name;
  out += ' ';
  append_u64(out, s.n);
  for (const double x : {s.mean, s.m2, s.sum, s.min, s.max}) {
    out += ' ';
    append_hex64(out, x);
  }
  out += '\n';
}

/// Reads one stat line, rejecting a sample count outside [min_n, max_n]:
/// each measure of a shard counts a fixed subset of its scenarios.
RunningStats read_stat(LineReader& reader, const std::string& name,
                       std::uint64_t min_n, std::uint64_t max_n) {
  const std::vector<std::string> tokens = reader.next();
  if (tokens.size() != 8 || tokens[0] != "stat" || tokens[1] != name) {
    reader.fail("expected 'stat " + name + "' with 6 argument(s)");
  }
  RunningStatsState s;
  s.n = static_cast<std::size_t>(reader.to_u64(tokens[2]));
  s.mean = reader.to_hex_double(tokens[3]);
  s.m2 = reader.to_hex_double(tokens[4]);
  s.sum = reader.to_hex_double(tokens[5]);
  s.min = reader.to_hex_double(tokens[6]);
  s.max = reader.to_hex_double(tokens[7]);
  if (s.n < min_n || s.n > max_n) {
    reader.fail("stat " + name + " counts " + tokens[2] +
                " samples, expected " +
                (min_n == max_n ? "" : "at most ") + std::to_string(max_n));
  }
  return RunningStats::from_state(s);
}

void write_aggregate(std::string& out, const SweepAggregate& a) {
  out += "success ";
  append_u64(out, a.success.successes());
  out += ' ';
  append_u64(out, a.success.trials());
  out += '\n';
  write_stat(out, "min_laxity", a.min_laxity);
  write_stat(out, "max_lateness", a.max_lateness);
  write_stat(out, "makespan", a.makespan);
  write_stat(out, "slicing_passes", a.slicing_passes);
  write_stat(out, "task_count", a.task_count);
  out += "hist ";
  append_hex64(out, a.laxity.lo());
  out += ' ';
  append_hex64(out, a.laxity.hi());
  out += ' ';
  append_u64(out, a.laxity.underflow());
  out += ' ';
  append_u64(out, a.laxity.overflow());
  for (std::size_t b = 0; b < LinearHistogram::kBinCount; ++b) {
    out += ' ';
    append_u64(out, a.laxity.bin(b));
  }
  out += '\n';
}

/// Reads the aggregate of a shard holding `scenarios` scenarios, rejecting
/// counts that contradict it: a resume would otherwise fold them into the
/// sweep as real trials.
SweepAggregate read_aggregate(LineReader& reader, std::uint64_t scenarios) {
  SweepAggregate a;
  std::vector<std::string> tokens = reader.next();
  reader.expect(tokens, "success", 2);
  const std::uint64_t successes = reader.to_u64(tokens[1]);
  const std::uint64_t trials = reader.to_u64(tokens[2]);
  if (successes > trials) {
    reader.fail("success count exceeds trial count");
  }
  if (trials != scenarios) {
    reader.fail("shard records " + tokens[2] + " trials but holds " +
                std::to_string(scenarios) + " scenarios");
  }
  a.success.add_many(successes, trials);
  a.min_laxity = read_stat(reader, "min_laxity", trials, trials);
  a.max_lateness = read_stat(reader, "max_lateness", 0, trials);
  a.makespan = read_stat(reader, "makespan", successes, successes);
  a.slicing_passes = read_stat(reader, "slicing_passes", trials, trials);
  a.task_count = read_stat(reader, "task_count", trials, trials);
  tokens = reader.next();
  reader.expect(tokens, "hist", 4 + LinearHistogram::kBinCount);
  const double lo = reader.to_hex_double(tokens[1]);
  const double hi = reader.to_hex_double(tokens[2]);
  if (!(lo < hi)) {
    reader.fail("histogram range is empty");
  }
  a.laxity = LinearHistogram(lo, hi);
  // Underflow, overflow and the bins must partition the trials; summing
  // against the remaining budget keeps a corrupted count from wrapping.
  std::uint64_t remaining = trials;
  const auto take = [&](const std::string& tok) {
    const std::uint64_t v = reader.to_u64(tok);
    if (v > remaining) {
      reader.fail("histogram counts exceed the " + std::to_string(trials) +
                  " trials");
    }
    remaining -= v;
    return v;
  };
  const std::uint64_t underflow = take(tokens[3]);
  const std::uint64_t overflow = take(tokens[4]);
  std::array<std::uint64_t, LinearHistogram::kBinCount> bins{};
  for (std::size_t b = 0; b < LinearHistogram::kBinCount; ++b) {
    bins[b] = take(tokens[5 + b]);
  }
  if (remaining != 0) {
    reader.fail("histogram counts " + std::to_string(trials - remaining) +
                " samples, expected " + std::to_string(trials));
  }
  LinearHistogramAccess::restore(a.laxity, underflow, overflow, bins);
  return a;
}

/// FNV-1a 64-bit over a byte string.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::size_t SweepCheckpoint::completed_count() const {
  std::size_t n = 0;
  for (const std::uint8_t flag : completed) {
    n += flag != 0 ? 1 : 0;
  }
  return n;
}

std::uint64_t sweep_config_fingerprint(const ExperimentConfig& config) {
  const PlatformConfig& p = config.generator.platform;
  const WorkloadConfig& w = config.generator.workload;
  const MetricParams& mp = config.metric_params;
  std::ostringstream os;
  os << "dsslice-sweep-config-v1"
     << " m=" << p.processor_count << " classes=" << p.min_class_count << ','
     << p.max_class_count << " bus=" << hex64(p.bus_delay_per_item)
     << " dev=" << hex64(p.class_deviation)
     << " cmodel=" << static_cast<int>(p.class_model)
     << " tasks=" << w.min_tasks << ',' << w.max_tasks << " depth="
     << w.min_depth << ',' << w.max_depth << " degree=" << w.min_degree << ','
     << w.max_degree << " locality=" << static_cast<int>(w.edge_locality)
     << " cmean=" << hex64(w.mean_execution_time) << " etd=" << hex64(w.etd)
     << " inel=" << hex64(w.ineligible_probability)
     << " olr=" << hex64(w.olr) << " spread=" << hex64(w.olr_spread)
     << " ccr=" << hex64(w.ccr) << " opt=" << hex64(w.min_optional_fraction)
     << ',' << hex64(w.max_optional_fraction)
     << " intmsg=" << (w.integral_messages ? 1 : 0)
     << " seed=" << config.generator.base_seed
     << " technique=" << static_cast<int>(config.technique)
     << " kg=" << hex64(mp.k_global) << " kl=" << hex64(mp.k_local)
     << " tf=" << hex64(mp.threshold_factor) << " to="
     << (mp.threshold_override.has_value() ? hex64(*mp.threshold_override)
                                           : std::string("none"))
     << " kr=" << hex64(mp.k_resource)
     << " tps=" << (mp.temporal_parallel_sets ? 1 : 0)
     << " wcet=" << static_cast<int>(config.wcet_strategy)
     << " placement=" << static_cast<int>(config.scheduler.placement)
     << " abort=" << (config.scheduler.abort_on_miss ? 1 : 0)
     << " bus_contention="
     << (config.scheduler.simulate_bus_contention ? 1 : 0)
     << " algorithm=" << static_cast<int>(config.algorithm);
  return fnv1a(os.str());
}

std::string serialize_sweep_aggregate(const SweepAggregate& aggregate) {
  std::string out;
  write_aggregate(out, aggregate);
  return out;
}

std::string serialize_sweep_checkpoint(const SweepCheckpoint& checkpoint) {
  // Not reserved up front: a worst-case bound (20-digit counts) is about
  // three times the real text, and that slack showed up in peak RSS;
  // geometric growth costs no measurable serialize time.
  std::string out;
  out += "dsslice-sweep-checkpoint ";
  append_u64(out, kFormatVersion);
  out += "\nfingerprint ";
  append_u64(out, checkpoint.fingerprint);
  out += "\nscenarios ";
  append_u64(out, checkpoint.scenario_count);
  out += "\nshard-size ";
  append_u64(out, checkpoint.shard_size);
  out += "\nshard-count ";
  append_u64(out, checkpoint.shard_count());
  out += "\ncompleted ";
  append_u64(out, checkpoint.completed_count());
  out += '\n';
  for (std::size_t s = 0; s < checkpoint.shard_count(); ++s) {
    if (checkpoint.completed[s] == 0) {
      continue;
    }
    out += "shard ";
    append_u64(out, s);
    out += '\n';
    write_aggregate(out, checkpoint.shards[s]);
  }
  out += "end\n";
  return out;
}

SweepCheckpoint parse_sweep_checkpoint(const std::string& text) {
  LineReader reader(text);
  std::vector<std::string> tokens = reader.next();
  reader.expect(tokens, "dsslice-sweep-checkpoint", 1);
  if (reader.to_u64(tokens[1]) != kFormatVersion) {
    reader.fail("unsupported checkpoint format version " + tokens[1] +
                " (this build reads version " +
                std::to_string(kFormatVersion) + ")");
  }
  SweepCheckpoint cp;
  tokens = reader.next();
  reader.expect(tokens, "fingerprint", 1);
  cp.fingerprint = reader.to_u64(tokens[1]);
  tokens = reader.next();
  reader.expect(tokens, "scenarios", 1);
  cp.scenario_count = reader.to_u64(tokens[1]);
  tokens = reader.next();
  reader.expect(tokens, "shard-size", 1);
  cp.shard_size = reader.to_u64(tokens[1]);
  if (cp.shard_size == 0) {
    reader.fail("shard size must be positive");
  }
  tokens = reader.next();
  reader.expect(tokens, "shard-count", 1);
  const std::uint64_t shard_count = reader.to_u64(tokens[1]);
  if (shard_count > kMaxShardCount) {
    reader.fail("shard count " + tokens[1] +
                " exceeds the sanity bound of " +
                std::to_string(kMaxShardCount));
  }
  const std::uint64_t expected_shards =
      (cp.scenario_count + cp.shard_size - 1) / cp.shard_size;
  if (shard_count != expected_shards) {
    reader.fail("shard count " + tokens[1] + " does not match " +
                std::to_string(cp.scenario_count) + " scenarios in shards of " +
                std::to_string(cp.shard_size));
  }
  tokens = reader.next();
  reader.expect(tokens, "completed", 1);
  const std::uint64_t completed_count = reader.to_u64(tokens[1]);
  if (completed_count > shard_count) {
    reader.fail("completed count exceeds shard count");
  }
  cp.completed.assign(static_cast<std::size_t>(shard_count), 0);
  cp.shards.assign(static_cast<std::size_t>(shard_count), SweepAggregate{});
  for (std::uint64_t k = 0; k < completed_count; ++k) {
    tokens = reader.next();
    reader.expect(tokens, "shard", 1);
    const std::uint64_t index = reader.to_u64(tokens[1]);
    if (index >= shard_count) {
      reader.fail("shard index " + tokens[1] + " out of range");
    }
    if (cp.completed[static_cast<std::size_t>(index)] != 0) {
      reader.fail("duplicate shard " + tokens[1]);
    }
    cp.completed[static_cast<std::size_t>(index)] = 1;
    const std::uint64_t first = index * cp.shard_size;
    cp.shards[static_cast<std::size_t>(index)] = read_aggregate(
        reader, std::min(cp.shard_size, cp.scenario_count - first));
  }
  tokens = reader.next();
  reader.expect(tokens, "end", 0);
  return cp;
}

std::size_t save_sweep_checkpoint(const SweepCheckpoint& checkpoint,
                                  const std::string& path) {
  const std::string tmp = path + ".tmp";
  const std::string text = serialize_sweep_checkpoint(checkpoint);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw ConfigError("cannot write sweep checkpoint: " + tmp);
    }
    out << text;
    out.flush();
    if (!out) {
      throw ConfigError("write failed for sweep checkpoint: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw ConfigError("cannot move sweep checkpoint into place: " + path);
  }
  return text.size();
}

SweepCheckpoint load_sweep_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw ConfigError("cannot read sweep checkpoint: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_sweep_checkpoint(buffer.str());
}

}  // namespace dsslice
