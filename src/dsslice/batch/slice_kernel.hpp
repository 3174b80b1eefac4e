// SoA batch slicing kernel — the sweep engine's slicing hot path.
//
// The million-scenario sweep (sweep/sweep_engine.hpp) spends most of its
// time inside run_slicing: per scenario it estimates WCETs, computes metric
// weights, and peels critical paths off the task graph until every task owns
// a window. The scalar pipeline does this one scenario at a time through
// AoS state (vector<PathCandidate> DP entries, vector<bool> assigned flags,
// per-pass O(n) buffer clears). BatchSliceKernel restructures the same
// computation around a batch:
//
//  * Structure-of-arrays staging. Estimated WCETs, mandatory demands and
//    metric weights for all B scenarios live in flat per-field arrays
//    addressed through one B+1 offsets table (core/wcet_estimate.hpp and
//    core/metrics.hpp grew *_batch_into variants for exactly this layout).
//    The stage loops are contiguous strides the compiler auto-vectorizes.
//  * A 64-bit-lane peel engine. The per-scenario critical-path DP keeps its
//    state in parallel scalar arrays (latest finish, DP start/weight/count/
//    prev/score) instead of an array of structs, and replaces the scalar
//    path's vector<bool> assigned flags and per-node adjacency rescans with
//    explicit uint64 bitsets: an unassigned set indexed by node id (O(1)
//    membership tests in the adjacency scans), per-direction *dirty* work
//    lists indexed by topological position (walked word by word via
//    countr_zero / countl_zero), and a Π-sink set fed by unassigned-degree
//    counters. Each peel pass recomputes only the nodes whose DP inputs
//    actually changed — an anchor tightened, a neighbour assigned, a
//    successor's latest-finish or a predecessor's (start, Σw, count) tuple
//    changed bitwise — instead of rescanning every remaining task. A node
//    whose recomputed value is bitwise unchanged stops the propagation, so
//    the incremental walk reads exactly the values a full recompute would
//    produce: the speedup is structural, never approximate.
//  * The metric's path_value() is inlined through a MetricKind template so
//    the DP inner loop pays no cross-TU call per candidate.
//
// Scenarios in a batch do NOT share graph structure (each has its own DAG),
// so the peel engine is sequential per scenario; the batching wins come from
// the staged SoA passes, the lane-walked decay of the unassigned set, and
// the removed per-pass overheads.
//
// Bit-identity contract: for every scenario, every metric and any batch
// size, the kernel's windows, pass indices, slicing stats and min-laxities
// are bit-identical to the scalar pipeline (estimate_wcets_into →
// mandatory_estimates_into → run_slicing with default options). Candidate
// ranking is literally shared code (core/critical_path.hpp's
// PathCandidate / path_candidate_better); every floating-point fold keeps
// the scalar evaluation order. Enforced by tests/test_batch_kernel.cpp.
//
// Zero-warm-allocation: all storage is capacity-tracked; a warm kernel
// re-run over a batch whose shapes were seen before performs no heap
// allocation (grow_events() stays flat — the same PR 3 contract as
// ScenarioBatch and SweepArena).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dsslice/core/metrics.hpp"
#include "dsslice/core/slicing.hpp"
#include "dsslice/core/wcet_estimate.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"
#include "dsslice/model/task.hpp"

namespace dsslice {

/// Which peel engine the kernel runs. The reference engine is the scalar
/// run_slicing pipeline behind the batch interface — kept selectable at
/// runtime so equivalence tests and A/B benchmarks exercise both through
/// one entry point.
enum class BatchLaneMode {
  kReference,  ///< scalar run_slicing per scenario (validation baseline)
  kLanes64,    ///< SoA peel engine with 64-bit-lane bitset iteration
               ///< (portable uint64 code, no ISA-specific intrinsics)
};

std::string to_string(BatchLaneMode mode);

/// One slicing configuration applied to every scenario of a batch (the
/// sweep evaluates one technique per run, so this is not per-scenario).
struct BatchSliceConfig {
  MetricKind metric = MetricKind::kAdaptL;
  MetricParams params;
  WcetEstimation wcet_strategy = WcetEstimation::kAverage;
  BatchLaneMode lane_mode = BatchLaneMode::kLanes64;
};

/// Reusable batch slicing kernel. One instance per worker thread; run()
/// overwrites all per-batch state. Results stay valid until the next run().
class BatchSliceKernel {
 public:
  /// Slices every scenario of the batch: per scenario k the deadline
  /// assignment, slicing stats and outcome min-laxity are available through
  /// the accessors afterwards. Scenarios must satisfy run_slicing's
  /// preconditions (acyclic graph, an E-T-E deadline on every output task,
  /// ≥1 processor).
  void run(std::span<const Scenario> scenarios, const BatchSliceConfig& config);

  std::size_t size() const { return batch_size_; }

  /// Execution windows of scenario k (bit-identical to run_slicing).
  const DeadlineAssignment& assignment(std::size_t k) const {
    return assignments_[k];
  }
  /// Slicing diagnostics of scenario k; stats(k).min_laxity is over the
  /// *slicing* estimates (mandatory demand for imprecise workloads).
  const SlicingStats& stats(std::size_t k) const { return stats_[k]; }
  /// min_i (d_i − c̄_i) over the ORIGINAL estimates — the quantity
  /// evaluate_generated reports as GraphOutcome::min_laxity.
  double outcome_min_laxity(std::size_t k) const {
    return outcome_min_laxity_[k];
  }
  /// Estimated WCETs c̄ of scenario k (its slot of the flat SoA array).
  std::span<const double> estimates(std::size_t k) const {
    return {est_.data() + offsets_[k], offsets_[k + 1] - offsets_[k]};
  }

  /// Capacity growths of any kernel-owned buffer since construction. Warm
  /// re-runs at previously-seen shapes must not move this counter.
  std::uint64_t grow_events() const { return grow_events_; }

 private:
  /// Capacity-growth accounting with an over-reservation hint: when a buffer
  /// must grow it is reserved to the larger of the requested count and
  /// `hint`, so buffers sized by *this* batch's shapes (chunk totals, slot
  /// task counts) jump straight to the worst shape seen so far instead of
  /// creeping upward one chunk at a time. Without the hint a late sweep
  /// chunk whose total task count happens to exceed every earlier chunk's
  /// would re-allocate mid-steady-state and trip the zero-warm-growth gate.
  template <typename T>
  void reserve_grow(std::vector<T>& v, std::size_t count, std::size_t hint) {
    if (v.capacity() < count) {
      ++grow_events_;
      v.reserve(std::max(count, hint));
    }
  }
  /// Hint for per-node buffers: the largest task count ever seen.
  std::size_t node_hint() const { return max_tasks_seen_; }
  /// Hint for flat SoA buffers: worst batch size × worst task count (+1
  /// covers the B+1 offsets table).
  std::size_t flat_hint() const {
    return max_batch_seen_ * max_tasks_seen_ + 1;
  }

  void run_reference(const DeadlineMetric& metric);
  template <MetricKind Kind>
  void run_lanes(const DeadlineMetric& metric);
  template <MetricKind Kind>
  void peel_scenario(std::size_t k, const DeadlineMetric& metric);
  void finish_scenario(std::size_t k);

  // ---- batch staging (SoA) ----
  std::size_t batch_size_ = 0;
  std::size_t max_batch_seen_ = 0;   // running max of run() batch sizes
  std::size_t max_tasks_seen_ = 0;   // running max task count per scenario
  std::vector<const Application*> apps_;
  std::vector<std::size_t> proc_counts_;
  std::vector<std::size_t> offsets_;    // B+1 prefix sums of task counts
  std::vector<double> est_;             // c̄, flat
  std::vector<double> slice_est_;       // mandatory-scaled c̄, flat
  std::vector<double> weights_;         // metric weights ĉ / c̄, flat
  MetricWorkspace metric_ws_;

  // ---- per-batch results ----
  std::vector<DeadlineAssignment> assignments_;
  std::vector<SlicingStats> stats_;
  std::vector<double> outcome_min_laxity_;

  // One node's forward-DP record, packed so a candidate evaluation touches
  // a single cache line instead of five parallel arrays (exactly 32 bytes,
  // alignas keeps every record inside one line). The per-scenario DP state
  // is the one deliberately AoS corner of the kernel: the forward fold reads
  // all fields of a predecessor together, so splitting them only multiplies
  // cache traffic.
  struct alignas(32) NodeDp {
    Time start;
    double sum;
    double score;
    std::uint32_t count;
    NodeId prev;
  };
  static_assert(sizeof(NodeDp) == 32);
  /// Backward-pass record: L(v) plus the (immutable) metric weight, packed
  /// because the backward fold reads both per unassigned successor.
  struct LatestWeight {
    Time latest;
    double weight;
  };

  // ---- lane-engine scratch (sized per scenario) ----
  std::vector<Time> arrival_;             // anchor arrivals (−inf = unset)
  std::vector<Time> deadline_;            // anchor deadlines (+inf = unset)
  std::vector<LatestWeight> lw_;          // backward-pass L(v) + weight
  std::vector<NodeDp> dp_;                // forward-DP records
  std::vector<std::uint32_t> pos_of_;     // node id → topological position
  std::vector<std::uint32_t> up_count_;   // unassigned predecessors per node
  std::vector<std::uint32_t> us_count_;   // unassigned successors per node
  std::vector<std::uint64_t> unassigned_pos_;   // bitset over topo positions
  std::vector<std::uint64_t> unassigned_node_;  // bitset over node ids
  std::vector<std::uint64_t> sink_bits_;        // current Π-sinks (node ids)
  std::vector<std::uint64_t> dirty_back_;       // backward-pass work list
  std::vector<std::uint64_t> dirty_fwd_;        // forward-pass work list
  std::vector<NodeId> path_nodes_;        // current spine
  std::vector<double> path_weights_;
  std::vector<double> path_est_;
  std::vector<double> slices_;

  // ---- reference-engine scratch ----
  SlicingWorkspace ref_ws_;

  std::uint64_t grow_events_ = 0;
};

}  // namespace dsslice
