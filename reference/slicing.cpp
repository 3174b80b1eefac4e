// Pre-cache slicing pipeline, verbatim. See slicing.hpp for why it is kept.
#include "reference/slicing.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "dsslice/dsslice.hpp"

namespace dsslice::reference {
namespace {

constexpr NodeId kNoPrev = std::numeric_limits<NodeId>::max();

struct Entry {
  Time start = kTimeZero;
  double sum_weight = 0.0;
  std::uint32_t count = 0;
  NodeId prev = kNoPrev;
  double score = std::numeric_limits<double>::infinity();
  bool valid = false;
};

bool better(const Entry& a, const Entry& b) {
  if (!b.valid) {
    return a.valid;
  }
  if (!a.valid) {
    return false;
  }
  if (a.score != b.score) {
    return a.score < b.score;
  }
  if (a.sum_weight != b.sum_weight) {
    return a.sum_weight > b.sum_weight;
  }
  return a.prev < b.prev;
}

}  // namespace

Closure::Closure(const TaskGraph& g)
    : n_(g.node_count()),
      reach_(n_ * ((n_ + 63) / 64), 0),
      descendants_(n_, 0),
      ancestors_(n_, 0) {
  const auto order = topological_order(g);
  DSSLICE_REQUIRE(order.has_value(),
                  "transitive closure requires an acyclic graph");
  const std::size_t w = words();
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const NodeId u = *it;
    std::uint64_t* ru = row(u);
    for (const NodeId s : g.successors(u)) {
      const std::uint64_t* rs = row(s);
      for (std::size_t k = 0; k < w; ++k) {
        ru[k] |= rs[k];
      }
      ru[s / 64] |= (std::uint64_t{1} << (s % 64));
    }
  }
  for (NodeId u = 0; u < n_; ++u) {
    const std::uint64_t* ru = row(u);
    std::size_t count = 0;
    for (std::size_t k = 0; k < w; ++k) {
      count += static_cast<std::size_t>(std::popcount(ru[k]));
    }
    descendants_[u] = count;
  }
  // The quadratic ancestor-count loop GraphAnalysis replaced with co-reach
  // popcounts.
  for (NodeId u = 0; u < n_; ++u) {
    for (NodeId v = 0; v < n_; ++v) {
      if (reaches(u, v)) {
        ++ancestors_[v];
      }
    }
  }
}

std::vector<double> weights(const DeadlineMetric& metric,
                            const Application& app,
                            std::span<const double> est_wcet,
                            std::size_t processor_count,
                            const ResourceModel* resources) {
  const MetricParams& params = metric.params();
  std::vector<double> w(est_wcet.begin(), est_wcet.end());
  if (!metric.is_adaptive()) {
    return w;
  }
  const double threshold = metric.effective_threshold(est_wcet);
  const double m = static_cast<double>(processor_count);
  const TaskGraph& g = app.graph();

  if (metric.kind() == MetricKind::kAdaptG) {
    const double xi = average_parallelism(g, est_wcet);
    const double surplus = 1.0 + params.k_global * xi / m;
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (est_wcet[i] >= threshold) {
        w[i] = est_wcet[i] * surplus;
      }
    }
    return w;
  }

  const Closure closure(g);
  if (resources != nullptr) {
    for (NodeId i = 0; i < w.size(); ++i) {
      if (est_wcet[i] < threshold) {
        continue;
      }
      const std::vector<NodeId> parallel = closure.parallel_set(i);
      std::size_t resource_rivals = 0;
      for (const NodeId j : parallel) {
        if (resources->conflicts(i, j)) {
          ++resource_rivals;
        }
      }
      w[i] = est_wcet[i] *
             (1.0 + params.k_local * static_cast<double>(parallel.size()) / m +
              params.k_resource * static_cast<double>(resource_rivals));
    }
    return w;
  }

  std::vector<Time> est_start;
  std::vector<Time> lft_finish;
  if (params.temporal_parallel_sets) {
    const auto topo = topological_order(g);
    est_start.assign(w.size(), kTimeZero);
    lft_finish.assign(w.size(), kTimeInfinity);
    for (const NodeId v : *topo) {
      Time start = g.is_input(v) ? app.input_arrival(v) : kTimeZero;
      for (const NodeId u : g.predecessors(v)) {
        start = std::max(start, est_start[u] + est_wcet[u]);
      }
      est_start[v] = start;
    }
    for (auto it = topo->rbegin(); it != topo->rend(); ++it) {
      const NodeId v = *it;
      Time finish = g.is_output(v) && app.has_ete_deadline(v)
                        ? app.ete_deadline(v)
                        : kTimeInfinity;
      for (const NodeId s : g.successors(v)) {
        finish = std::min(finish, lft_finish[s] - est_wcet[s]);
      }
      lft_finish[v] = finish;
    }
  }

  for (NodeId i = 0; i < w.size(); ++i) {
    if (est_wcet[i] < threshold) {
      continue;
    }
    double psi;
    if (params.temporal_parallel_sets) {
      std::size_t count = 0;
      for (const NodeId j : closure.parallel_set(i)) {
        if (est_start[j] < lft_finish[i] && est_start[i] < lft_finish[j]) {
          ++count;
        }
      }
      psi = static_cast<double>(count);
    } else {
      psi = static_cast<double>(closure.parallel_set_size(i));
    }
    w[i] = est_wcet[i] * (1.0 + params.k_local * psi / m);
  }
  return w;
}

std::optional<CriticalPath> find_path(const TaskGraph& g,
                                      std::span<const NodeId> topo_order,
                                      const AnchorState& anchors,
                                      std::span<const double> weights,
                                      const DeadlineMetric& metric) {
  const std::size_t n = g.node_count();
  if (anchors.all_assigned()) {
    return std::nullopt;
  }
  std::vector<Time> latest(n, kTimeInfinity);
  for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
    const NodeId v = *it;
    if (anchors.assigned(v)) {
      continue;
    }
    Time l = anchors.deadline_anchor(v);
    for (const NodeId w : g.successors(v)) {
      if (!anchors.assigned(w)) {
        l = std::min(l, latest[w] - weights[w]);
      }
    }
    latest[v] = l;
  }
  std::vector<Entry> dp(n);
  NodeId best_sink = kNoPrev;
  Entry best_sink_entry;
  for (const NodeId v : topo_order) {
    if (anchors.assigned(v)) {
      continue;
    }
    Entry best;
    const auto consider = [&](Time start, double sum_weight,
                              std::uint32_t count, NodeId prev) {
      Entry cand;
      cand.start = start;
      cand.sum_weight = sum_weight;
      cand.count = count;
      cand.prev = prev;
      cand.score = metric.path_value(latest[v] - start, sum_weight, count);
      cand.valid = true;
      if (better(cand, best)) {
        best = cand;
      }
    };
    if (anchors.is_pi_source(g, v)) {
      consider(anchors.arrival_anchor(v), weights[v], 1, kNoPrev);
    }
    for (const NodeId u : g.predecessors(v)) {
      if (!anchors.assigned(u)) {
        consider(dp[u].start, dp[u].sum_weight + weights[v], dp[u].count + 1,
                 u);
      }
    }
    dp[v] = best;
    if (anchors.is_pi_sink(g, v)) {
      if (best_sink == kNoPrev || dp[v].score < best_sink_entry.score ||
          (dp[v].score == best_sink_entry.score && v < best_sink)) {
        best_sink = v;
        best_sink_entry = dp[v];
      }
    }
  }
  CriticalPath path;
  path.window_start = best_sink_entry.start;
  path.window_end = anchors.deadline_anchor(best_sink);
  path.metric_value = best_sink_entry.score;
  for (NodeId v = best_sink; v != kNoPrev; v = dp[v].prev) {
    path.nodes.push_back(v);
  }
  std::reverse(path.nodes.begin(), path.nodes.end());
  return path;
}

DeadlineAssignment run_slicing(const Application& app,
                               std::span<const double> est_wcet,
                               const DeadlineMetric& metric,
                               std::size_t processor_count) {
  const TaskGraph& g = app.graph();
  const std::size_t n = g.node_count();
  const auto topo = topological_order(g);
  DSSLICE_REQUIRE(topo.has_value(), "slicing requires an acyclic task graph");

  const std::vector<double> w = weights(metric, app, est_wcet,
                                        processor_count);
  AnchorState anchors(app);
  DeadlineAssignment assignment;
  assignment.windows.resize(n);
  assignment.pass_of.assign(n, -1);
  int pass = 0;
  while (!anchors.all_assigned()) {
    const auto path = find_path(g, *topo, anchors, w, metric);
    DSSLICE_CHECK(path.has_value(), "no critical path found");
    std::vector<double> path_weights;
    std::vector<double> path_est;
    path_weights.reserve(path->nodes.size());
    path_est.reserve(path->nodes.size());
    for (const NodeId v : path->nodes) {
      path_weights.push_back(w[v]);
      path_est.push_back(est_wcet[v]);
    }
    const std::vector<double> d = metric.adaptive_slices(
        path->window_length(), path_weights, path_est);
    Time boundary = path->window_start;
    for (std::size_t k = 0; k < path->nodes.size(); ++k) {
      const NodeId v = path->nodes[k];
      const Time lo = boundary;
      boundary += d[k];
      const Time hi =
          (k + 1 == path->nodes.size()) ? path->window_end : boundary;
      Window win{lo, hi};
      if (anchors.has_arrival_anchor(v)) {
        win.arrival = std::max(win.arrival, anchors.arrival_anchor(v));
      }
      if (anchors.has_deadline_anchor(v)) {
        win.deadline = std::min(win.deadline, anchors.deadline_anchor(v));
      }
      anchors.mark_assigned(v, win);
      assignment.windows[v] = win;
      assignment.pass_of[v] = pass;
    }
    for (const NodeId v : path->nodes) {
      const Window& win = anchors.window(v);
      for (const NodeId u : g.predecessors(v)) {
        if (!anchors.assigned(u)) {
          anchors.tighten_deadline(u, win.arrival);
        }
      }
      for (const NodeId s : g.successors(v)) {
        if (!anchors.assigned(s)) {
          anchors.tighten_arrival(s, win.deadline);
        }
      }
    }
    ++pass;
  }
  return assignment;
}

}  // namespace dsslice::reference
