// Pre-cache deadline slicing (§4.4–4.5), verbatim: every call builds a
// fresh closure (with the O(n²) pairwise ancestor count) and topological
// order, materializes parallel sets and allocates per pass. The one
// behavioural reference the library slicer is pinned against
// (tests/test_slicing_equivalence.cpp) and timed against
// (bench/perf_slicing). Built in the same tree with the same flags as
// libdsslice, so a divergence is the library's, not build skew.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsslice/core/anchors.hpp"
#include "dsslice/core/critical_path.hpp"
#include "dsslice/core/metrics.hpp"
#include "dsslice/graph/task_graph.hpp"
#include "dsslice/model/application.hpp"
#include "dsslice/model/resources.hpp"
#include "dsslice/model/task.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice::reference {

/// Bitset transitive closure G*, built per call from a topological order.
class Closure {
 public:
  explicit Closure(const TaskGraph& g);

  bool reaches(NodeId u, NodeId v) const {
    DSSLICE_REQUIRE(u < n_ && v < n_, "node id out of range");
    return (row(u)[v / 64] >> (v % 64)) & 1;
  }
  bool ordered(NodeId u, NodeId v) const {
    return reaches(u, v) || reaches(v, u);
  }
  std::size_t parallel_set_size(NodeId i) const {
    return n_ - 1 - descendants_[i] - ancestors_[i];
  }
  std::vector<NodeId> parallel_set(NodeId i) const {
    std::vector<NodeId> out;
    out.reserve(parallel_set_size(i));
    for (NodeId v = 0; v < n_; ++v) {
      if (v != i && !ordered(i, v)) {
        out.push_back(v);
      }
    }
    return out;
  }

 private:
  std::size_t words() const { return (n_ + 63) / 64; }
  const std::uint64_t* row(NodeId u) const { return &reach_[u * words()]; }
  std::uint64_t* row(NodeId u) { return &reach_[u * words()]; }

  std::size_t n_;
  std::vector<std::uint64_t> reach_;
  std::vector<std::size_t> descendants_;
  std::vector<std::size_t> ancestors_;
};

/// Per-task slicing weights for any metric, including the resource-aware
/// (`resources` non-null) and temporal-parallel-set ADAPT-L variants; same
/// contract as DeadlineMetric::weights.
std::vector<double> weights(const DeadlineMetric& metric,
                            const Application& app,
                            std::span<const double> est_wcet,
                            std::size_t processor_count,
                            const ResourceModel* resources = nullptr);

/// The most critical path among the unassigned tasks (nullopt once every
/// task is assigned); same total order as CriticalPathSearch::find.
std::optional<CriticalPath> find_path(const TaskGraph& g,
                                      std::span<const NodeId> topo_order,
                                      const AnchorState& anchors,
                                      std::span<const double> weights,
                                      const DeadlineMetric& metric);

/// The SLICING loop: windows and pass indices; same contract as
/// dsslice::run_slicing.
DeadlineAssignment run_slicing(const Application& app,
                               std::span<const double> est_wcet,
                               const DeadlineMetric& metric,
                               std::size_t processor_count);

}  // namespace dsslice::reference
