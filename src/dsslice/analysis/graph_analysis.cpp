#include "dsslice/analysis/graph_analysis.hpp"

#include <atomic>

#include "dsslice/obs/trace.hpp"
#include "dsslice/util/check.hpp"

namespace dsslice {

namespace {

std::atomic<std::uint64_t> g_construction_count{0};

}  // namespace

GraphAnalysis::GraphAnalysis(const TaskGraph& g)
    : n_(g.node_count()),
      words_((n_ + 63) / 64),
      tail_mask_(n_ % 64 == 0 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (n_ % 64)) - 1),
      succ_off_(n_ + 1, 0),
      pred_off_(n_ + 1, 0),
      reach_(n_ * words_, 0),
      coreach_(n_ * words_, 0),
      descendants_(n_, 0),
      ancestors_(n_, 0),
      parallel_size_(n_, 0) {
  DSSLICE_SPAN("analysis.build");
  g_construction_count.fetch_add(1, std::memory_order_relaxed);
  DSSLICE_COUNT("analysis.builds", 1);

  // CSR adjacency in both directions, preserving TaskGraph's per-node order,
  // with the arc payloads (message sizes) and arc indices flattened
  // alongside so hot paths never fall back to per-arc linear searches.
  const auto& arcs = g.arcs();
  const std::size_t m = arcs.size();
  succ_data_.reserve(m);
  pred_data_.reserve(m);
  succ_items_.reserve(m);
  for (NodeId v = 0; v < n_; ++v) {
    succ_off_[v] = succ_data_.size();
    const auto succ = g.successors(v);
    const auto items = g.successor_items(v);
    succ_data_.insert(succ_data_.end(), succ.begin(), succ.end());
    succ_items_.insert(succ_items_.end(), items.begin(), items.end());
    pred_off_[v] = pred_data_.size();
    const auto pred = g.predecessors(v);
    pred_data_.insert(pred_data_.end(), pred.begin(), pred.end());
  }
  succ_off_[n_] = succ_data_.size();
  pred_off_[n_] = pred_data_.size();

  // TaskGraph::add_arc appends `from` to predecessors(to) in arc-insertion
  // order, so one pass over arcs() fills v's predecessor slots in order:
  // the arc landing in a slot must name that slot's predecessor. After the
  // pass, filled[v] is v's in-degree, which seeds Kahn's algorithm below.
  std::vector<std::size_t> filled(n_, 0);
  pred_arc_.resize(m);
  pred_items_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const Arc& arc = arcs[k];
    const std::size_t slot = pred_off_[arc.to] + filled[arc.to]++;
    DSSLICE_CHECK(slot < pred_off_[arc.to + 1] && pred_data_[slot] == arc.from,
                  "predecessor without an arc");
    pred_arc_[slot] = static_cast<std::uint32_t>(k);
    pred_items_[slot] = arc.message_items;
  }

  // Kahn topological order — same FIFO discipline (ascending seed scan,
  // first-in first-out) as algorithms::topological_order, so the orders are
  // identical. topo_ is its own queue: entries before `head` are done.
  {
    std::vector<std::size_t>& in_deg = filled;
    topo_.reserve(n_);
    for (NodeId v = 0; v < n_; ++v) {
      if (in_deg[v] == 0) {
        topo_.push_back(v);
      }
    }
    for (std::size_t head = 0; head < topo_.size(); ++head) {
      for (const NodeId w : successors(topo_[head])) {
        if (--in_deg[w] == 0) {
          topo_.push_back(w);
        }
      }
    }
    DSSLICE_REQUIRE(topo_.size() == n_,
                    "graph analysis requires an acyclic graph");
  }

  // Reverse sweep: reach_row(u) = ∪ over successors s of (reach_row(s) ∪ {s}).
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const NodeId u = *it;
    std::uint64_t* ru = reach_.data() + u * words_;
    for (const NodeId s : successors(u)) {
      const std::uint64_t* rs = reach_.data() + s * words_;
      for (std::size_t k = 0; k < words_; ++k) {
        ru[k] |= rs[k];
      }
      ru[s / 64] |= std::uint64_t{1} << (s % 64);
    }
  }
  // Forward sweep: coreach_row(v) = ∪ over predecessors u of
  // (coreach_row(u) ∪ {u}).
  for (const NodeId v : topo_) {
    std::uint64_t* cv = coreach_.data() + v * words_;
    for (const NodeId u : predecessors(v)) {
      const std::uint64_t* cu = coreach_.data() + u * words_;
      for (std::size_t k = 0; k < words_; ++k) {
        cv[k] |= cu[k];
      }
      cv[u / 64] |= std::uint64_t{1} << (u % 64);
    }
  }

  for (NodeId v = 0; v < n_; ++v) {
    std::size_t desc = 0;
    std::size_t anc = 0;
    const std::uint64_t* rv = reach_.data() + v * words_;
    const std::uint64_t* cv = coreach_.data() + v * words_;
    for (std::size_t k = 0; k < words_; ++k) {
      desc += static_cast<std::size_t>(std::popcount(rv[k]));
      anc += static_cast<std::size_t>(std::popcount(cv[k]));
    }
    descendants_[v] = desc;
    ancestors_[v] = anc;
    parallel_size_[v] = n_ - 1 - desc - anc;
  }
}

std::vector<NodeId> GraphAnalysis::parallel_set(NodeId i) const {
  DSSLICE_REQUIRE(i < n_, "node id out of range");
  std::vector<NodeId> out;
  out.reserve(parallel_size_[i]);
  for_each_parallel(i, [&](NodeId j) { out.push_back(j); });
  return out;
}

std::uint64_t GraphAnalysis::construction_count() {
  return g_construction_count.load(std::memory_order_relaxed);
}

}  // namespace dsslice
