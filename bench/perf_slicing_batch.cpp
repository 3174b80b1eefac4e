// Dedicated harness for the SoA batch slicing kernel (batch/slice_kernel.hpp).
//
// Both engines run through the same BatchSliceKernel entry point, so the A/B
// is exactly the engine swap the sweep integration performs at runtime:
//  * reference: the scalar run_slicing pipeline per scenario (shared
//    workspace, warm graph-analysis cache — the pre-kernel hot path);
//  * lanes64: the SoA peel engine with incremental dirty-driven DP over
//    uint64 bitset work lists.
//
// Per size and per metric the harness asserts the two engines produce
// bit-identical windows, pass indices, stats and min-laxities (the kernel's
// core contract), asserts warm re-runs grow zero buffers, then times both
// and writes BENCH_slicing_batch.json. The ADAPT-L rows at n >= 128 must
// clear an absolute speedup floor (gates.lanes_speedup_floor) — a
// regression canary for the lane engine; it is deliberately below the
// headline 3x target, which is measured against the *cached scalar path*
// (a slower baseline than the reference engine here, which already enjoys
// batch staging) by perf_slicing's batch row and gated there by
// scripts/bench_compare.py. The canary floor is enforced here on
// uninstrumented builds and by bench_compare.py on fresh release runs.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dsslice/batch/slice_kernel.hpp"
#include "dsslice/dsslice.hpp"

#include "bench_common.hpp"

namespace {

using namespace dsslice;
using bench::json_number;
using bench::time_per_call;

// Sanitizer instrumentation inflates the two engines by different factors
// (the lanes engine's bitset walks shadow-check every word), so the absolute
// speedup floor is only meaningful on uninstrumented builds.
#if defined(__SANITIZE_ADDRESS__)
constexpr bool kInstrumented = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kInstrumented = true;
#else
constexpr bool kInstrumented = false;
#endif
#else
constexpr bool kInstrumented = false;
#endif

constexpr std::size_t kBatch = 32;          // scenarios per kernel pass
constexpr double kSpeedupFloor = 2.2;       // ADAPT-L lanes-vs-reference
constexpr std::size_t kFloorTasks = 128;    // floor applies at n >= this

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Bitwise comparison of every result surface of two kernels over one batch.
bool kernels_identical(const BatchSliceKernel& a, const BatchSliceKernel& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.size(); ++k) {
    const DeadlineAssignment& wa = a.assignment(k);
    const DeadlineAssignment& wb = b.assignment(k);
    if (wa.windows.size() != wb.windows.size()) {
      return false;
    }
    for (std::size_t v = 0; v < wa.windows.size(); ++v) {
      if (bits(wa.windows[v].arrival) != bits(wb.windows[v].arrival) ||
          bits(wa.windows[v].deadline) != bits(wb.windows[v].deadline) ||
          wa.pass_of[v] != wb.pass_of[v]) {
        return false;
      }
    }
    const SlicingStats& sa = a.stats(k);
    const SlicingStats& sb = b.stats(k);
    if (sa.passes != sb.passes ||
        bits(sa.first_path_metric) != bits(sb.first_path_metric) ||
        sa.first_path_length != sb.first_path_length ||
        bits(sa.min_laxity) != bits(sb.min_laxity) ||
        sa.windows_feasible != sb.windows_feasible ||
        bits(a.outcome_min_laxity(k)) != bits(b.outcome_min_laxity(k))) {
      return false;
    }
  }
  return true;
}

struct MetricRow {
  std::string name;
  double reference_per_sec = 0.0;
  double lanes_per_sec = 0.0;
  bool identical = false;
  double speedup() const {
    return reference_per_sec > 0.0 ? lanes_per_sec / reference_per_sec : 0.0;
  }
};

struct SizeReport {
  std::size_t tasks = 0;
  std::vector<MetricRow> metrics;
  std::uint64_t steady_grow_events = ~std::uint64_t{0};
};

std::string to_json(const std::vector<SizeReport>& reports,
                    std::size_t processors, bool all_identical) {
  std::string out = "{\n";
  out += "  \"benchmark\": \"slicing-batch\",\n";
  out += "  \"processors\": " + std::to_string(processors) + ",\n";
  out += "  \"batch\": " + std::to_string(kBatch) + ",\n";
  out += "  \"machine\": " + bench::machine_json(1) + ",\n";
  out += std::string("  \"gates\": {\"identical\": ") +
         (all_identical ? "true" : "false") +
         ", \"lanes_speedup_floor\": " + json_number(kSpeedupFloor) +
         ", \"floor_tasks\": " + std::to_string(kFloorTasks) + "},\n";
  out += "  \"sizes\": [\n";
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const SizeReport& s = reports[r];
    out += "    {\n";
    out += "      \"tasks\": " + std::to_string(s.tasks) + ",\n";
    out += "      \"steady_grow_events\": " +
           std::to_string(s.steady_grow_events) + ",\n";
    out += "      \"metrics\": [\n";
    for (std::size_t k = 0; k < s.metrics.size(); ++k) {
      const MetricRow& m = s.metrics[k];
      out += "        {\"metric\": \"" + m.name + "\", \"reference_per_sec\": " +
             json_number(m.reference_per_sec) + ", \"lanes_per_sec\": " +
             json_number(m.lanes_per_sec) + ", \"speedup\": " +
             json_number(m.speedup()) + std::string(", \"identical\": ") +
             (m.identical ? "true" : "false") + "}";
      out += (k + 1 < s.metrics.size()) ? ",\n" : "\n";
    }
    out += "      ]\n";
    out += "    }";
    out += (r + 1 < reports.size()) ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

SizeReport measure_size(std::size_t tasks, std::size_t processors,
                        double min_seconds) {
  SizeReport report;
  report.tasks = tasks;

  const GeneratorConfig cfg = bench::sized_config(tasks, processors);
  std::vector<Scenario> scenarios;
  scenarios.reserve(kBatch);
  for (std::size_t s = 0; s < kBatch; ++s) {
    scenarios.push_back(generate_scenario_at(cfg, s));
    scenarios.back().application.analysis();  // warm the memoized cache
  }

  BatchSliceKernel reference;
  BatchSliceKernel lanes;
  for (const MetricKind kind : all_metric_kinds()) {
    MetricRow row;
    row.name = to_string(kind);

    BatchSliceConfig ref_cfg;
    ref_cfg.metric = kind;
    ref_cfg.lane_mode = BatchLaneMode::kReference;
    BatchSliceConfig lanes_cfg = ref_cfg;
    lanes_cfg.lane_mode = BatchLaneMode::kLanes64;

    // Equivalence gate first (also warms both kernels for the timed loops).
    reference.run(scenarios, ref_cfg);
    lanes.run(scenarios, lanes_cfg);
    row.identical = kernels_identical(reference, lanes);

    const double inv = 1.0 / static_cast<double>(kBatch);
    const double ref_s = inv * time_per_call(min_seconds, 3, [&] {
      reference.run(scenarios, ref_cfg);
      volatile double sink = reference.assignment(0).windows[0].deadline;
      (void)sink;
    });
    const double lanes_s = inv * time_per_call(min_seconds, 3, [&] {
      lanes.run(scenarios, lanes_cfg);
      volatile double sink = lanes.assignment(0).windows[0].deadline;
      (void)sink;
    });
    row.reference_per_sec = 1.0 / ref_s;
    row.lanes_per_sec = 1.0 / lanes_s;
    report.metrics.push_back(std::move(row));
  }

  // Zero-warm-allocation gate: after the timed loops every shape has been
  // seen, so one more run of each engine/metric must not grow anything.
  const std::uint64_t warm = lanes.grow_events() + reference.grow_events();
  for (const MetricKind kind : all_metric_kinds()) {
    BatchSliceConfig cfg_run;
    cfg_run.metric = kind;
    cfg_run.lane_mode = BatchLaneMode::kLanes64;
    lanes.run(scenarios, cfg_run);
    cfg_run.lane_mode = BatchLaneMode::kReference;
    reference.run(scenarios, cfg_run);
  }
  report.steady_grow_events =
      lanes.grow_events() + reference.grow_events() - warm;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("perf_slicing_batch",
                "A/B benchmark of the SoA batch slicing kernel: scalar "
                "reference engine vs the lanes64 peel engine, with "
                "bit-identity and zero-allocation gates.");
  cli.add_flag("json", "", "write results as JSON to this path");
  cli.add_flag("processors", "3", "processor count m");
  cli.add_flag("min-ms", "150", "minimum wall time per measurement (ms)");
  cli.add_bool_flag("smoke", "tiny sizes / short timings (CI sanity run)");
  dsslice::obs::ObsCli::register_flags(cli);
  if (!cli.parse(argc, argv)) {
    return 1;
  }
  dsslice::obs::ObsCli obs_session(cli);
  const auto processors = static_cast<std::size_t>(cli.get_int("processors"));
  const bool smoke = cli.get_bool("smoke");
  const double min_seconds =
      (smoke ? 60.0 : static_cast<double>(cli.get_int("min-ms"))) / 1000.0;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{64, 256}
            : std::vector<std::size_t>{64, 128, 256, 512};

  std::printf("perf_slicing_batch: m=%zu, batch=%zu, sizes:", processors,
              kBatch);
  for (const std::size_t n : sizes) {
    std::printf(" %zu", n);
  }
  std::printf("%s\n\n", smoke ? " (smoke)" : "");

  std::vector<SizeReport> reports;
  bool all_identical = true;
  bool gates_ok = true;
  for (const std::size_t n : sizes) {
    SizeReport r = measure_size(n, processors, min_seconds);
    std::printf("n=%4zu ", r.tasks);
    for (const MetricRow& m : r.metrics) {
      std::printf(" %s %.0f->%.0f/s (%.2fx%s)", m.name.c_str(),
                  m.reference_per_sec, m.lanes_per_sec, m.speedup(),
                  m.identical ? "" : " DIVERGED");
      all_identical = all_identical && m.identical;
      if (!kInstrumented && m.name == "ADAPT-L" && n >= kFloorTasks &&
          m.speedup() < kSpeedupFloor) {
        std::fprintf(stderr,
                     "FAIL: n=%zu ADAPT-L lanes speedup %.2fx below the "
                     "%.1fx floor\n",
                     n, m.speedup(), kSpeedupFloor);
        gates_ok = false;
      }
    }
    std::printf("  grow=%llu\n",
                static_cast<unsigned long long>(r.steady_grow_events));
    if (r.steady_grow_events != 0) {
      gates_ok = false;
    }
    reports.push_back(std::move(r));
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: lanes engine diverged from the reference engine\n");
  } else {
    std::printf("\nlanes64 bit-identical to reference on every row: OK\n");
  }
  gates_ok = gates_ok && all_identical;
  if (!gates_ok) {
    std::fprintf(stderr, "FAIL: batch kernel gates violated\n");
  }

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    if (write_text_file(json_path,
                        to_json(reports, processors, all_identical))) {
      std::printf("JSON written to %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
      return 1;
    }
  }
  obs_session.finish();
  return gates_ok ? 0 : 1;
}
