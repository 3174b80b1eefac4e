// Pre-batching scenario generator, verbatim. See generation.hpp for why it
// is kept.
#include "reference/generation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "dsslice/dsslice.hpp"

namespace dsslice::reference {
namespace {


/// Distributes `n` tasks over `depth` levels, at least one per level; the
/// surplus is spread uniformly at random. Returns per-level task counts.
std::vector<std::size_t> draw_level_sizes(std::size_t n, std::size_t depth,
                                          Xoshiro256& rng) {
  std::vector<std::size_t> sizes(depth, 1);
  for (std::size_t extra = 0; extra < n - depth; ++extra) {
    const auto level = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(depth) - 1));
    ++sizes[level];
  }
  return sizes;
}

/// Draws the layered precedence structure: each task beyond level 0 picks
/// 1–3 predecessors from the previous level (preferring predecessors that
/// still have spare out-degree); level-ℓ tasks without successors are then
/// wired forward so only the last level contains output tasks.
TaskGraph draw_structure(const WorkloadConfig& cfg, std::size_t n,
                         std::size_t depth, Xoshiro256& rng) {
  const auto sizes = draw_level_sizes(n, depth, rng);
  std::vector<std::vector<NodeId>> levels(depth);
  TaskGraph g(n);
  {
    NodeId next = 0;
    for (std::size_t l = 0; l < depth; ++l) {
      for (std::size_t k = 0; k < sizes[l]; ++k) {
        levels[l].push_back(next++);
      }
    }
  }

  // Tasks at earlier levels than l, for the any-earlier edge mode.
  std::vector<NodeId> earlier;
  for (std::size_t l = 1; l < depth; ++l) {
    const auto& prev = levels[l - 1];
    earlier.insert(earlier.end(), prev.begin(), prev.end());
    for (const NodeId v : levels[l]) {
      const auto want = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(cfg.min_degree),
          static_cast<std::int64_t>(cfg.max_degree)));

      std::vector<NodeId> with_capacity;
      for (const NodeId u : prev) {
        if (g.out_degree(u) < cfg.max_degree) {
          with_capacity.push_back(u);
        }
      }
      const std::vector<NodeId>& anchor_pool =
          with_capacity.empty() ? prev : with_capacity;
      const auto a = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(anchor_pool.size()) - 1));
      g.add_arc(anchor_pool[a], v);

      const std::vector<NodeId>& extra_pool =
          cfg.edge_locality == EdgeLocality::kAnyEarlierLevel ? earlier : prev;
      std::size_t extra = std::min(want, extra_pool.size()) - 1;
      for (std::size_t k = 0; k < extra; ++k) {
        const auto j = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(extra_pool.size()) - 1));
        const NodeId u = extra_pool[j];
        if (!g.has_arc(u, v)) {
          g.add_arc(u, v);
        }
      }
    }
    for (const NodeId u : prev) {
      if (g.out_degree(u) != 0) {
        continue;
      }
      std::vector<NodeId> candidates;
      for (const NodeId v : levels[l]) {
        if (g.in_degree(v) < cfg.max_degree && !g.has_arc(u, v)) {
          candidates.push_back(v);
        }
      }
      if (candidates.empty()) {
        for (const NodeId v : levels[l]) {
          if (!g.has_arc(u, v)) {
            candidates.push_back(v);
          }
        }
      }
      DSSLICE_CHECK(!candidates.empty(), "level with no attachable successor");
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(candidates.size()) - 1));
      g.add_arc(u, candidates[j]);
    }
  }
  return g;
}

/// Draws a message size whose expectation matches the configured CCR.
double draw_message_items(const WorkloadConfig& cfg, Xoshiro256& rng) {
  const double mean_items = cfg.ccr * cfg.mean_execution_time;
  if (mean_items <= 0.0) {
    return 0.0;
  }
  if (cfg.integral_messages) {
    const auto mean = static_cast<std::int64_t>(std::llround(mean_items));
    if (mean <= 1) {
      return 1.0;
    }
    return static_cast<double>(rng.uniform_int(1, 2 * mean - 1));
  }
  return rng.uniform(0.0, 2.0 * mean_items);
}

Application generate_application(const WorkloadConfig& config,
                                 const Platform& platform, Xoshiro256& rng,
                                 ClassModel class_model,
                                 double class_deviation) {
  const auto n = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(config.min_tasks),
                      static_cast<std::int64_t>(config.max_tasks)));
  const auto depth = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(config.min_depth),
                      static_cast<std::int64_t>(config.max_depth)));
  DSSLICE_REQUIRE(depth <= n, "graph depth exceeds task count");

  TaskGraph structure = draw_structure(config, n, depth, rng);
  // Arc message sizes per CCR.
  TaskGraph g(n);
  for (const Arc& a : structure.arcs()) {
    g.add_arc(a.from, a.to, draw_message_items(config, rng));
  }

  const std::size_t class_count = platform.class_count();
  std::vector<ProcessorClassId> populated;
  for (ProcessorClassId e = 0; e < class_count; ++e) {
    if (platform.processors_in_class(e) > 0) {
      populated.push_back(e);
    }
  }
  DSSLICE_CHECK(!populated.empty(), "platform without populated classes");

  const double c_mean = config.mean_execution_time;
  std::vector<Task> tasks(n);
  for (NodeId i = 0; i < n; ++i) {
    Task& t = tasks[i];
    t.name = "t" + std::to_string(i);
    const double base =
        config.etd == 0.0
            ? c_mean
            : rng.uniform(c_mean * (1.0 - config.etd),
                          c_mean * (1.0 + config.etd));
    t.wcet_by_class.resize(class_count);
    for (ProcessorClassId e = 0; e < class_count; ++e) {
      const double scale =
          class_model == ClassModel::kUniformFactors
              ? platform.processor_class(e).speed_factor
              : rng.uniform(1.0 - class_deviation, 1.0 + class_deviation);
      t.wcet_by_class[e] = std::max(1.0, std::round(base * scale));
    }
    const std::vector<double> drawn = t.wcet_by_class;
    for (ProcessorClassId e = 0; e < class_count; ++e) {
      if (rng.bernoulli(config.ineligible_probability)) {
        t.wcet_by_class[e] = kIneligibleWcet;
      }
    }
    const bool any_populated_eligible = std::any_of(
        populated.begin(), populated.end(),
        [&](ProcessorClassId e) { return t.eligible(e); });
    if (!any_populated_eligible) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(populated.size()) - 1));
      const ProcessorClassId e = populated[j];
      t.wcet_by_class[e] = drawn[e];
    }
  }

  Application app(std::move(g), std::move(tasks));

  double avg_workload = 0.0;
  for (NodeId i = 0; i < n; ++i) {
    const Task& t = app.task(i);
    double sum = 0.0;
    std::size_t k = 0;
    for (ProcessorClassId e = 0; e < class_count; ++e) {
      if (t.eligible(e)) {
        sum += t.wcet(e);
        ++k;
      }
    }
    avg_workload += sum / static_cast<double>(k);
  }
  for (const NodeId out : app.graph().output_nodes()) {
    const double spread =
        config.olr_spread == 0.0
            ? 1.0
            : rng.uniform(1.0 - config.olr_spread, 1.0 + config.olr_spread);
    app.set_ete_deadline(out,
                         std::round(config.olr * avg_workload * spread));
  }
  for (const NodeId in : app.graph().input_nodes()) {
    app.set_input_arrival(in, kTimeZero);
  }

  if (config.max_optional_fraction > 0.0) {
    for (NodeId i = 0; i < n; ++i) {
      app.mutable_task(i).optional_fraction = rng.uniform(
          config.min_optional_fraction, config.max_optional_fraction);
    }
  }
  return app;
}

}  // namespace

Scenario generate_scenario(const GeneratorConfig& config, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Platform platform = generate_platform(config.platform, rng);
  Application app =
      reference::generate_application(config.workload, platform, rng,
                                      config.platform.class_model,
                                      config.platform.class_deviation);
  return Scenario{std::move(platform), std::move(app)};
}

}  // namespace dsslice::reference
