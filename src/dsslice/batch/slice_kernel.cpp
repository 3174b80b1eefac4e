#include "dsslice/batch/slice_kernel.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "dsslice/obs/trace.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

/// DeadlineMetric::path_value with the metric kind resolved at compile time,
/// so the DP inner loop inlines the score instead of paying a cross-TU call
/// per candidate. Expression-for-expression identical to path_value —
/// bit-identity depends on it.
template <MetricKind Kind>
double batch_path_value(Time window, double sum_weight, std::uint32_t count) {
  if (count == 0) {
    return std::numeric_limits<double>::infinity();
  }
  const double laxity = window - sum_weight;
  if constexpr (Kind == MetricKind::kNorm) {
    if (sum_weight <= 0.0) {
      return laxity < 0.0 ? -std::numeric_limits<double>::infinity()
                          : std::numeric_limits<double>::infinity();
    }
    return laxity / sum_weight;  // Eq. 2
  } else {
    return laxity / static_cast<double>(count);  // Eqs. 4 and ADAPT form
  }
}

inline bool bit_test(const std::vector<std::uint64_t>& bits, NodeId v) {
  return ((bits[v >> 6] >> (v & 63)) & 1u) != 0;
}

inline void bit_clear(std::vector<std::uint64_t>& bits, std::uint32_t v) {
  bits[v >> 6] &= ~(std::uint64_t{1} << (v & 63));
}

inline void bit_set(std::vector<std::uint64_t>& bits, std::uint32_t v) {
  bits[v >> 6] |= std::uint64_t{1} << (v & 63);
}

/// Bitwise double compare: the change test that gates incremental dirty
/// propagation. Bitwise (not ==) so that a value replaced by a different
/// representation of the same number (−0.0 vs 0.0) still counts as changed —
/// conservative re-dirtying keeps the stale-value invariant airtight.
inline bool bits_differ(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b);
}

}  // namespace

std::string to_string(BatchLaneMode mode) {
  switch (mode) {
    case BatchLaneMode::kReference:
      return "reference";
    case BatchLaneMode::kLanes64:
      return "lanes64";
  }
  return "?";
}

void BatchSliceKernel::run(std::span<const Scenario> scenarios,
                           const BatchSliceConfig& config) {
  DSSLICE_SPAN("batch.slice.run");
  const std::size_t b = scenarios.size();
  batch_size_ = b;
  if (b == 0) {
    return;
  }

  max_batch_seen_ = std::max(max_batch_seen_, b);
  reserve_grow(apps_, b, max_batch_seen_);
  apps_.resize(b);
  reserve_grow(proc_counts_, b, max_batch_seen_);
  proc_counts_.resize(b);
  std::size_t total_tasks = 0;
  for (std::size_t k = 0; k < b; ++k) {
    apps_[k] = &scenarios[k].application;
    proc_counts_[k] = scenarios[k].platform.processor_count();
    DSSLICE_REQUIRE(proc_counts_[k] > 0, "need at least one processor");
    const std::size_t nk = apps_[k]->task_count();
    total_tasks += nk;
    max_tasks_seen_ = std::max(max_tasks_seen_, nk);
  }

  // Stages 1–2: flat estimates and mandatory demands for the whole batch.
  // The batch helpers size their outputs themselves; pre-reserving here
  // keeps the growth accounting (and the over-reservation policy) in one
  // place — the helpers then never re-allocate.
  reserve_grow(offsets_, b + 1, flat_hint());
  reserve_grow(est_, total_tasks, flat_hint());
  estimate_wcets_batch_into(apps_, config.wcet_strategy, offsets_, est_);
  reserve_grow(slice_est_, total_tasks, flat_hint());
  mandatory_estimates_batch_into(apps_, offsets_, est_, slice_est_);

  // Result slots are grow-only: shrinking the outer vectors would destroy
  // the per-slot window capacity a smaller batch had already paid for.
  if (assignments_.size() < b) {
    reserve_grow(assignments_, b, max_batch_seen_);
    assignments_.resize(b);
  }
  if (stats_.size() < b) {
    reserve_grow(stats_, b, max_batch_seen_);
    stats_.resize(b);
  }
  if (outcome_min_laxity_.size() < b) {
    reserve_grow(outcome_min_laxity_, b, max_batch_seen_);
    outcome_min_laxity_.resize(b);
  }

  const DeadlineMetric metric(config.metric, config.params);
  if (config.lane_mode == BatchLaneMode::kReference) {
    run_reference(metric);
  } else {
    // Stage 3: metric weights for the whole batch in one SoA pass.
    reserve_grow(weights_, total_tasks, flat_hint());
    weights_.resize(total_tasks);
    metric.weights_batch_into(apps_, offsets_, slice_est_, proc_counts_,
                              weights_, &metric_ws_);
    switch (metric.kind()) {
      case MetricKind::kPure:
        run_lanes<MetricKind::kPure>(metric);
        break;
      case MetricKind::kNorm:
        run_lanes<MetricKind::kNorm>(metric);
        break;
      case MetricKind::kAdaptG:
        run_lanes<MetricKind::kAdaptG>(metric);
        break;
      case MetricKind::kAdaptL:
        run_lanes<MetricKind::kAdaptL>(metric);
        break;
    }
  }

  std::size_t total_passes = 0;
  for (std::size_t k = 0; k < b; ++k) {
    finish_scenario(k);
    total_passes += stats_[k].passes;
  }
  DSSLICE_COUNT("batch.scenarios", b);
  DSSLICE_COUNT("batch.passes", total_passes);
  DSSLICE_COUNT("batch.tasks", offsets_[b]);
}

void BatchSliceKernel::run_reference(const DeadlineMetric& metric) {
  for (std::size_t k = 0; k < batch_size_; ++k) {
    const std::size_t nk = offsets_[k + 1] - offsets_[k];
    reserve_grow(assignments_[k].windows, nk, node_hint());
    reserve_grow(assignments_[k].pass_of, nk, node_hint());
    SlicingOptions options;
    options.workspace = &ref_ws_;
    run_slicing_into(assignments_[k], *apps_[k],
                     {slice_est_.data() + offsets_[k], nk}, metric,
                     proc_counts_[k], &stats_[k], options);
  }
}

template <MetricKind Kind>
void BatchSliceKernel::run_lanes(const DeadlineMetric& metric) {
  for (std::size_t k = 0; k < batch_size_; ++k) {
    peel_scenario<Kind>(k, metric);
  }
}

template <MetricKind Kind>
void BatchSliceKernel::peel_scenario(std::size_t k,
                                     const DeadlineMetric& metric) {
  const Application& app = *apps_[k];
  const GraphAnalysis& analysis = app.analysis();
  const std::size_t n = app.task_count();
  const std::span<const NodeId> topo = analysis.topological_order();
  const std::span<const double> weights{weights_.data() + offsets_[k],
                                        offsets_[k + 1] - offsets_[k]};
  const std::span<const double> est{slice_est_.data() + offsets_[k],
                                    offsets_[k + 1] - offsets_[k]};
  DSSLICE_REQUIRE(est.size() == n, "estimate vector size mismatch");

  DeadlineAssignment& assignment = assignments_[k];
  reserve_grow(assignment.windows, n, node_hint());
  assignment.windows.resize(n);
  reserve_grow(assignment.pass_of, n, node_hint());
  assignment.pass_of.assign(n, -1);

  const std::size_t words = (n + 63) / 64;
  const std::size_t word_hint = (node_hint() + 63) / 64;

  // Anchor state: raw arrays mirroring AnchorState's constructor (−inf /
  // +inf sentinels double as the has-anchor tests). Unassigned-degree
  // counters make the Π-source / Π-sink tests O(1), and sink_bits_ tracks
  // the current Π-sinks so sink selection is a word walk instead of a
  // successor scan per remaining node.
  reserve_grow(arrival_, n, node_hint());
  arrival_.resize(n);
  reserve_grow(deadline_, n, node_hint());
  deadline_.resize(n);
  reserve_grow(pos_of_, n, node_hint());
  pos_of_.resize(n);
  reserve_grow(up_count_, n, node_hint());
  up_count_.resize(n);
  reserve_grow(us_count_, n, node_hint());
  us_count_.resize(n);
  reserve_grow(sink_bits_, words, word_hint);
  sink_bits_.assign(words, 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t in_deg = analysis.predecessors(v).size();
    const std::size_t out_deg = analysis.successors(v).size();
    up_count_[v] = static_cast<std::uint32_t>(in_deg);
    us_count_[v] = static_cast<std::uint32_t>(out_deg);
    arrival_[v] = in_deg == 0 ? app.input_arrival(v) : -kTimeInfinity;
    if (out_deg == 0) {
      DSSLICE_REQUIRE(app.has_ete_deadline(v),
                      "output task without an E-T-E deadline");
      deadline_[v] = app.ete_deadline(v);
      bit_set(sink_bits_, v);
    } else {
      deadline_[v] = kTimeInfinity;
    }
  }
  for (std::size_t p = 0; p < n; ++p) {
    pos_of_[topo[p]] = static_cast<std::uint32_t>(p);
  }

  // DP scratch. No per-pass clears: (reverse-)topological processing order
  // guarantees each unassigned node's entry is written before any read in
  // the same pass, and assigned nodes are never read.
  reserve_grow(lw_, n, node_hint());
  lw_.resize(n);
  reserve_grow(dp_, n, node_hint());
  dp_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    lw_[v].weight = weights[v];
  }
  reserve_grow(path_nodes_, n, node_hint());
  reserve_grow(path_weights_, n, node_hint());
  reserve_grow(path_est_, n, node_hint());
  reserve_grow(slices_, n, node_hint());

  reserve_grow(unassigned_pos_, words, word_hint);
  unassigned_pos_.assign(words, ~std::uint64_t{0});
  reserve_grow(unassigned_node_, words, word_hint);
  unassigned_node_.assign(words, ~std::uint64_t{0});
  const std::uint64_t tail = (n % 64 == 0)
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << (n % 64)) - 1;
  unassigned_pos_[words - 1] = tail;
  unassigned_node_[words - 1] = tail;

  // Dirty sets (topological-position indexed): which nodes each peel pass
  // must recompute. They start empty — the dense pass-0 DP below computes
  // every node — and later passes reprocess only nodes whose inputs changed:
  // an anchor tightened, a neighbour assigned, an unassigned successor's
  // latest-finish changed (backward), or an unassigned predecessor's
  // (start, Σw, count) changed (forward). A node whose recomputed value is
  // bitwise unchanged stops the propagation, so every value a pass *reads*
  // is bitwise what a full recompute would have produced — the incremental
  // walk is exact, not approximate.
  reserve_grow(dirty_back_, words, word_hint);
  dirty_back_.assign(words, 0);
  reserve_grow(dirty_fwd_, words, word_hint);
  dirty_fwd_.assign(words, 0);

  SlicingStats stats;
  std::size_t remaining = n;

  // Dense pass-0 DP: with every node unassigned, the membership tests would
  // all hit and the dirty machinery would enqueue everything, so both
  // directions run as straight loops over the topological order. The folds
  // are expression-for-expression the incremental walks below.
  for (std::size_t pos = n; pos-- > 0;) {
    const NodeId v = topo[pos];
    Time l = deadline_[v];
    for (const NodeId w : analysis.successors(v)) {
      l = std::min(l, lw_[w].latest - lw_[w].weight);
    }
    lw_[v].latest = l;
  }
  for (std::size_t pos = 0; pos < n; ++pos) {
    const NodeId v = topo[pos];
    const Time latest_v = lw_[v].latest;
    const double weight_v = lw_[v].weight;
    Time best_start = kTimeZero;
    double best_sum = 0.0;
    std::uint32_t best_count = 0;
    NodeId best_prev = kNoPathPrev;
    double best_score = 0.0;
    bool valid = false;
    if (up_count_[v] == 0) {
      DSSLICE_CHECK(arrival_[v] > -kTimeInfinity,
                    "Π-source without an arrival anchor");
      best_start = arrival_[v];
      best_sum = weight_v;
      best_count = 1;
      best_score =
          batch_path_value<Kind>(latest_v - best_start, best_sum, best_count);
      valid = true;
    }
    for (const NodeId u : analysis.predecessors(v)) {
      const NodeDp& du = dp_[u];
      const Time cand_start = du.start;
      const double cand_sum = du.sum + weight_v;
      const std::uint32_t cand_count = du.count + 1;
      const double cand_score =
          batch_path_value<Kind>(latest_v - cand_start, cand_sum, cand_count);
      if (!valid || cand_score < best_score ||
          (cand_score == best_score &&
           (cand_sum > best_sum || (cand_sum == best_sum && u < best_prev)))) {
        best_start = cand_start;
        best_sum = cand_sum;
        best_count = cand_count;
        best_prev = u;
        best_score = cand_score;
        valid = true;
      }
    }
    DSSLICE_CHECK(valid, "unassigned node produced no path candidate");
    dp_[v] = NodeDp{best_start, best_sum, best_score, best_count, best_prev};
  }

  while (remaining > 0) {
    // Backward pass over the dirty nodes in reverse topological order
    // (descending word walk, highest set lane first). Each word is snapshot
    // into a register and zeroed once, so draining it costs no per-node
    // store/reload; dirty bits added while processing — a changed
    // latest-finish re-dirties the node's unassigned predecessors — land at
    // strictly lower positions and are picked up by the outer re-read. A
    // same-word mark below an already-drained snapshot bit may process a
    // node before one of its dirty successors, but the successor's change
    // then re-marks it: the walk settles on the unique fixpoint of the
    // acyclic backward equations, bitwise the values a strictly-ordered
    // walk produces.
    for (std::size_t wi = words; wi-- > 0;) {
      while (std::uint64_t snap = dirty_back_[wi]) {
        dirty_back_[wi] = 0;
        do {
        const int bit = 63 - std::countl_zero(snap);
        snap &= ~(std::uint64_t{1} << bit);
        const std::size_t pos = wi * 64 + static_cast<std::size_t>(bit);
        const NodeId v = topo[pos];
        Time l = deadline_[v];
        for (const NodeId w : analysis.successors(v)) {
          if (bit_test(unassigned_node_, w)) {
            l = std::min(l, lw_[w].latest - lw_[w].weight);
          }
        }
        if (bits_differ(l, lw_[v].latest)) {
          lw_[v].latest = l;
          // The projected score at v reads L(v); the latest-finish of every
          // unassigned predecessor reads it too.
          bit_set(dirty_fwd_, static_cast<std::uint32_t>(pos));
          for (const NodeId u : analysis.predecessors(v)) {
            if (bit_test(unassigned_node_, u)) {
              const std::uint32_t p = pos_of_[u];
              // Same-word marks go straight into the live snapshot (the
              // array bit would double-process via the outer re-read).
              if ((p >> 6) == wi) {
                snap |= std::uint64_t{1} << (p & 63);
              } else {
                bit_set(dirty_back_, p);
              }
            }
          }
        }
        } while (snap);
      }
    }

    // Forward pass: recompute the best partial path of each dirty node in
    // ascending topological order, with the same snapshot word drain as the
    // backward pass (marks from a changed (start, Σw, count) tuple target
    // the node's unassigned successors — strictly higher positions).
    for (std::size_t wi = 0; wi < words; ++wi) {
      while (std::uint64_t snap = dirty_fwd_[wi]) {
        dirty_fwd_[wi] = 0;
        do {
        const int bit = std::countr_zero(snap);
        snap &= snap - 1;
        const std::size_t pos = wi * 64 + static_cast<std::size_t>(bit);
        const NodeId v = topo[pos];
        const Time latest_v = lw_[v].latest;
        const double weight_v = lw_[v].weight;

        // Candidate fold in scalar locals; ranking is expression-for-
        // expression path_candidate_better (score asc, Σw desc, prev asc —
        // a total order, so the fold is order-independent).
        Time best_start = kTimeZero;
        double best_sum = 0.0;
        std::uint32_t best_count = 0;
        NodeId best_prev = kNoPathPrev;
        double best_score = 0.0;
        bool valid = false;
        if (up_count_[v] == 0) {
          DSSLICE_CHECK(arrival_[v] > -kTimeInfinity,
                        "Π-source without an arrival anchor");
          best_start = arrival_[v];
          best_sum = weight_v;
          best_count = 1;
          best_score = batch_path_value<Kind>(latest_v - best_start, best_sum,
                                              best_count);
          valid = true;
        }
        for (const NodeId u : analysis.predecessors(v)) {
          if (!bit_test(unassigned_node_, u)) {
            continue;
          }
          const NodeDp& du = dp_[u];
          const Time cand_start = du.start;
          const double cand_sum = du.sum + weight_v;
          const std::uint32_t cand_count = du.count + 1;
          const double cand_score =
              batch_path_value<Kind>(latest_v - cand_start, cand_sum,
                                     cand_count);
          if (!valid || cand_score < best_score ||
              (cand_score == best_score &&
               (cand_sum > best_sum ||
                (cand_sum == best_sum && u < best_prev)))) {
            best_start = cand_start;
            best_sum = cand_sum;
            best_count = cand_count;
            best_prev = u;
            best_score = cand_score;
            valid = true;
          }
        }
        DSSLICE_CHECK(valid, "unassigned node produced no path candidate");
        // Successors read only (start, Σw, count) — prev and score are
        // consumed at v itself, so changes to them alone propagate nowhere.
        NodeDp& dv = dp_[v];
        const bool inputs_changed = bits_differ(best_start, dv.start) ||
                                    bits_differ(best_sum, dv.sum) ||
                                    best_count != dv.count;
        dv = NodeDp{best_start, best_sum, best_score, best_count, best_prev};
        if (inputs_changed) {
          for (const NodeId s : analysis.successors(v)) {
            if (bit_test(unassigned_node_, s)) {
              const std::uint32_t p = pos_of_[s];
              if ((p >> 6) == wi) {
                snap |= std::uint64_t{1} << (p & 63);
              } else {
                bit_set(dirty_fwd_, p);
              }
            }
          }
        }
        } while (snap);
      }
    }

    // Sink selection: lexicographic min of (score, node id) over the current
    // Π-sinks — order-independent, and every sink's DP entry is current by
    // the dirty-walk invariant.
    NodeId best_sink = kNoPathPrev;
    double best_sink_score = 0.0;
    for (std::size_t wi = 0; wi < words; ++wi) {
      std::uint64_t lanes = sink_bits_[wi];
      while (lanes != 0) {
        const NodeId v = static_cast<NodeId>(
            wi * 64 + static_cast<std::size_t>(std::countr_zero(lanes)));
        lanes &= lanes - 1;
        DSSLICE_CHECK(deadline_[v] < kTimeInfinity,
                      "Π-sink without a deadline anchor");
        const double score = dp_[v].score;
        if (best_sink == kNoPathPrev || score < best_sink_score ||
            (score == best_sink_score && v < best_sink)) {
          best_sink = v;
          best_sink_score = score;
        }
      }
    }
    DSSLICE_CHECK(best_sink != kNoPathPrev,
                  "remaining tasks exist but no Π-sink was found");

    // Reconstruct the spine backwards through the DP links.
    path_nodes_.clear();
    for (NodeId v = best_sink; v != kNoPathPrev; v = dp_[v].prev) {
      path_nodes_.push_back(v);
    }
    std::reverse(path_nodes_.begin(), path_nodes_.end());
    DSSLICE_CHECK(path_nodes_.size() == dp_[best_sink].count,
                  "path reconstruction length mismatch");

    const Time window_start = dp_[best_sink].start;
    const Time window_end = deadline_[best_sink];
    if (stats.passes == 0) {
      stats.first_path_metric = best_sink_score;
      stats.first_path_length = path_nodes_.size();
    }

    // Slice the window over the spine (same adaptive_slices_into call as the
    // scalar loop — once per pass, not hot enough to replicate).
    path_weights_.clear();
    path_est_.clear();
    for (const NodeId v : path_nodes_) {
      path_weights_.push_back(weights[v]);
      path_est_.push_back(est[v]);
    }
    metric.adaptive_slices_into(window_end - window_start, path_weights_,
                                path_est_, slices_);
    const std::vector<double>& d = slices_;

    Time boundary = window_start;
    for (std::size_t i = 0; i < path_nodes_.size(); ++i) {
      const NodeId v = path_nodes_[i];
      const Time lo = boundary;
      boundary += d[i];
      const Time hi = (i + 1 == path_nodes_.size()) ? window_end : boundary;

      Window w{lo, hi};
      if (arrival_[v] > -kTimeInfinity) {
        w.arrival = std::max(w.arrival, arrival_[v]);
      }
      if (deadline_[v] < kTimeInfinity) {
        w.deadline = std::min(w.deadline, deadline_[v]);
      }
      bit_clear(unassigned_pos_, pos_of_[v]);
      bit_clear(unassigned_node_, v);
      bit_clear(sink_bits_, v);
      --remaining;
      assignment.windows[v] = w;
      assignment.pass_of[v] = static_cast<int>(stats.passes);
    }

    // Propagate anchors to the unassigned neighbours of the spine, keep the
    // unassigned-degree counters current, and seed the next pass's dirty
    // sets: a predecessor's latest-finish inputs changed (successor gone,
    // deadline maybe tightened), a successor's candidate set changed
    // (predecessor gone, arrival maybe tightened, Π-source status maybe
    // flipped). A predecessor whose last unassigned successor was just
    // assigned becomes a Π-sink.
    for (const NodeId v : path_nodes_) {
      const Window& w = assignment.windows[v];
      for (const NodeId u : analysis.predecessors(v)) {
        --us_count_[u];
        if (bit_test(unassigned_node_, u)) {
          deadline_[u] = std::min(deadline_[u], w.arrival);
          bit_set(dirty_back_, pos_of_[u]);
          if (us_count_[u] == 0) {
            bit_set(sink_bits_, u);
          }
        }
      }
      for (const NodeId s : analysis.successors(v)) {
        --up_count_[s];
        if (bit_test(unassigned_node_, s)) {
          arrival_[s] = std::max(arrival_[s], w.deadline);
          bit_set(dirty_fwd_, pos_of_[s]);
        }
      }
    }

    ++stats.passes;
    DSSLICE_CHECK(stats.passes <= n, "slicing failed to converge");
  }

  stats.min_laxity = std::numeric_limits<double>::infinity();
  stats.windows_feasible = true;
  for (NodeId v = 0; v < n; ++v) {
    const double laxity = assignment.windows[v].length() - est[v];
    stats.min_laxity = std::min(stats.min_laxity, laxity);
    if (laxity < 0.0) {
      stats.windows_feasible = false;
    }
  }
  stats_[k] = stats;
}

void BatchSliceKernel::finish_scenario(std::size_t k) {
  const std::size_t nk = offsets_[k + 1] - offsets_[k];
  DSSLICE_REQUIRE(nk > 0, "cannot evaluate an empty application");
  const double* est = est_.data() + offsets_[k];
  const std::vector<Window>& windows = assignments_[k].windows;
  // First-smallest scan — the exact semantics of quality.cpp's min_element
  // over the laxity vector, without materializing it.
  double best = windows[0].length() - est[0];
  for (std::size_t i = 1; i < nk; ++i) {
    const double laxity = windows[i].length() - est[i];
    if (laxity < best) {
      best = laxity;
    }
  }
  outcome_min_laxity_[k] = best;
}

}  // namespace dsslice
