// Outside-in span ledger: spans recorded by the benchmark around each call
// into a library layer, their self-time summary, per-scenario medians over
// sampling units, and the Chrome-trace export.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "dsslice/obs/registry.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

constexpr const char* kLayers[] = {
    layer::kGen,       layer::kAnalysis,       layer::kBatch,
    layer::kCoreSlice, layer::kSched,          layer::kAggregate,
    layer::kCheckpointSave, layer::kCheckpointLoad,
};

double analysis_builds_counter() {
  const auto snapshot = dsslice::obs::metrics_snapshot();
  const auto it = snapshot.counters.find("analysis.builds");
  return it == snapshot.counters.end() ? 0.0 : it->second.total;
}

bool is_layer(const char* name) {
  return std::any_of(std::begin(kLayers), std::end(kLayers),
                     [&](const char* l) {
                       return std::string_view(l) == name;
                     });
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

Ledger::Scope::Scope(Ledger& ledger, const char* name, std::int64_t id,
                     std::uint64_t scenarios)
    : ledger_(ledger), index_(ledger.spans_.size()) {
  Span span;
  span.name = name;
  span.id = id;
  span.scenarios = scenarios;
  span.parent = ledger_.open_.empty()
                    ? -1
                    : static_cast<std::int64_t>(ledger_.open_.back());
  ledger_.open_.push_back(index_);
  ledger_.spans_.push_back(span);
  if (ledger_.probe_builds_ && is_layer(name)) {
    builds_before_ = analysis_builds_counter();
  }
  ledger_.spans_[index_].start_ns = now_ns();
}

Ledger::Scope::~Scope() {
  ledger_.spans_[index_].end_ns = now_ns();
  ledger_.open_.pop_back();
  const char* name = ledger_.spans_[index_].name;
  if (ledger_.probe_builds_ && is_layer(name)) {
    // Layer spans never nest, so each build lands in exactly one row.
    ledger_.builds_[name] += analysis_builds_counter() - builds_before_;
  }
}

double Ledger::builds_in(const char* layer_name) const {
  const auto it = builds_.find(layer_name);
  return it == builds_.end() ? 0.0 : it->second;
}

double Ledger::builds_total() const {
  double total = 0.0;
  for (const auto& [name, builds] : builds_) {
    total += builds;
  }
  return total;
}

double median_of(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail_of(std::vector<double> values, double* percentile) {
  if (values.empty()) {
    *percentile = 0.0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n < 11) {
    *percentile = 100.0;
    return values.back();
  }
  // values[n - 11] has exactly ten samples above it.
  *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return values[n - 11];
}

LayerSamples LedgerSummary::layer(const char* name) const {
  const auto it = layers.find(name);
  return it == layers.end() ? LayerSamples{} : it->second;
}

double LedgerSummary::layers_total_s() const {
  double total = 0.0;
  for (const auto& [name, row] : layers) {
    total += row.total_s;
  }
  return total;
}

LedgerSummary summarize(const std::vector<Ledger>& runs) {
  LedgerSummary out;
  out.runs = runs.size();
  if (runs.empty()) {
    return out;
  }
  const double per_run = 1.0 / static_cast<double>(runs.size());
  std::map<std::string, std::size_t> name_row;
  // Per layer: the per-scenario seconds of every sampling unit of every run.
  std::map<std::string, std::vector<double>> unit_samples;

  for (const Ledger& ledger : runs) {
    const std::vector<Span>& spans = ledger.spans();
    // Self time: each span's duration minus its direct children's.
    std::vector<double> child_s(spans.size(), 0.0);
    // Nearest enclosing sampling unit (a span with scenarios > 0).
    std::vector<std::int64_t> unit(spans.size(), -1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] += dur;
        unit[i] = unit[static_cast<std::size_t>(s.parent)];
      } else {
        out.traced_wall_s += dur * per_run;
      }
      if (s.scenarios > 0) {
        unit[i] = static_cast<std::int64_t>(i);
      }
    }

    // Per layer: unit index → seconds inside that unit, this run.
    std::map<std::string, std::map<std::int64_t, double>> per_unit;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      auto [it, fresh] = name_row.try_emplace(s.name, out.names.size());
      if (fresh) {
        out.names.push_back(NameTotals{s.name, 0, 0.0, 0.0});
      }
      NameTotals& row = out.names[it->second];
      ++row.count;
      row.total_s += dur * per_run;
      row.self_s += (dur - child_s[i]) * per_run;

      if (!is_layer(s.name)) {
        continue;
      }
      out.layers[s.name].total_s += dur * per_run;
      out.durations_ms[s.name].push_back(dur * 1e3);
      if (unit[i] >= 0) {
        per_unit[s.name][unit[i]] += dur;
      }
    }
    for (const auto& [name, units] : per_unit) {
      for (const auto& [u, seconds] : units) {
        const double n =
            static_cast<double>(spans[static_cast<std::size_t>(u)].scenarios);
        unit_samples[name].push_back(seconds * 1e6 / n);
      }
    }
  }

  for (const auto& [name, samples] : unit_samples) {
    LayerSamples& row = out.layers[name];
    row.samples = samples.size();
    row.median_us = median_of(samples);
    row.tail_us = tail_of(samples, &row.tail_percentile);
  }
  return out;
}

bool write_chrome_trace(const Ledger& ledger, const std::string& path,
                        const std::string& workload,
                        const std::string& machine_json) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::vector<Span>& spans = ledger.spans();
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"workload\": \""
      << workload << "\", \"machine\": " << machine_json
      << "},\n\"traceEvents\": [\n"
      << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
         "\"args\": {\"name\": \"perfbench "
      << workload << " (traced, 1 thread)\"}}";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ts = static_cast<double>(s.start_ns - t0) * 1e-3;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"%s\", \"cat\": \"perfbench\", "
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, "
                  "\"args\": {\"span\": %zu, \"parent\": %lld, \"id\": %lld, "
                  "\"scenarios\": %llu}}",
                  s.name, ts, dur, i, static_cast<long long>(s.parent),
                  static_cast<long long>(s.id),
                  static_cast<unsigned long long>(s.scenarios));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
