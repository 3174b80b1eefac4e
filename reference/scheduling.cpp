// Pre-engine EDF list scheduler and time-marching dispatcher, verbatim.
// See scheduling.hpp for why they are kept.
#include "reference/scheduling.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dsslice/dsslice.hpp"

namespace dsslice::reference {
namespace {

constexpr double kEps = 1e-9;

std::uint64_t arc_key(NodeId u, NodeId v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

}  // namespace

SchedulerResult list_run(const Application& app,
                         const DeadlineAssignment& assignment,
                         const Platform& platform,
                         const SchedulerOptions& options_,
                         const ResourceModel* resources) {
  DSSLICE_REQUIRE(resources == nullptr ||
                      options_.placement == PlacementPolicy::kAppend,
                  "resource constraints require append placement");
  DSSLICE_REQUIRE(resources == nullptr ||
                      resources->task_count() == app.task_count(),
                  "resource model size mismatch");
  const TaskGraph& g = app.graph();
  const std::size_t n = g.node_count();
  const std::size_t m = platform.processor_count();
  DSSLICE_REQUIRE(assignment.windows.size() == n,
                  "assignment size mismatch");

  SchedulerResult result{Schedule(n, m), false, std::nullopt, "", {}};
  Schedule& schedule = result.schedule;

  std::vector<ProcessorTimeline> timelines(
      options_.placement == PlacementPolicy::kInsertion ? m : 0);

  std::vector<Time> resource_available(
      resources != nullptr ? resources->resource_count() : 0, kTimeZero);

  const SharedBus* bus_model = nullptr;
  ProcessorTimeline bus;
  if (options_.simulate_bus_contention) {
    bus_model = dynamic_cast<const SharedBus*>(&platform.network());
    DSSLICE_REQUIRE(bus_model != nullptr,
                    "bus-contention simulation requires a SharedBus network");
  }

  std::vector<std::size_t> unscheduled_preds(n);
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    unscheduled_preds[v] = g.in_degree(v);
    if (unscheduled_preds[v] == 0) {
      ready.push_back(v);
    }
  }

  const auto fail = [&](NodeId v, std::string reason) {
    result.success = false;
    result.failed_task = v;
    result.failure_reason = std::move(reason);
    return result;
  };

  bool missed = false;
  while (!ready.empty()) {
    std::size_t pick = 0;
    for (std::size_t k = 1; k < ready.size(); ++k) {
      const Window& a = assignment.windows[ready[k]];
      const Window& b = assignment.windows[ready[pick]];
      if (a.deadline < b.deadline ||
          (a.deadline == b.deadline &&
           (a.arrival < b.arrival ||
            (a.arrival == b.arrival && ready[k] < ready[pick])))) {
        pick = k;
      }
    }
    const NodeId v = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();

    const Task& task = app.task(v);
    const Window& window = assignment.windows[v];

    ProcessorId best_proc = 0;
    Time best_start = kTimeInfinity;
    Time best_finish = kTimeInfinity;
    std::vector<BusTransfer> best_transfers;
    bool found = false;
    for (ProcessorId p = 0; p < m; ++p) {
      const ProcessorClassId e = platform.class_of(p);
      if (!task.eligible(e)) {
        continue;
      }
      const double c = task.wcet(e);
      Time bound = window.arrival;
      if (resources != nullptr) {
        for (const ResourceId r : resources->resources_of(v)) {
          bound = std::max(bound, resource_available[r]);
        }
      }
      std::vector<BusTransfer> transfers;
      if (bus_model != nullptr) {
        ProcessorTimeline trial = bus;
        for (const NodeId u : g.predecessors(v)) {
          const ScheduledTask& pe = schedule.entry(u);
          const double items = g.message_items(u, v).value_or(0.0);
          if (pe.processor == p || items <= 0.0) {
            bound = std::max(bound, pe.finish);
            continue;
          }
          const Time duration = items * bus_model->per_item_delay();
          const Time slot = trial.earliest_fit(pe.finish, duration);
          trial.occupy(slot, duration);
          transfers.push_back(BusTransfer{u, v, slot, slot + duration});
          bound = std::max(bound, slot + duration);
        }
      } else {
        for (const NodeId u : g.predecessors(v)) {
          const ScheduledTask& pe = schedule.entry(u);
          const double items = g.message_items(u, v).value_or(0.0);
          bound = std::max(bound,
                           pe.finish + platform.comm_delay(pe.processor, p,
                                                           items));
        }
      }
      Time start;
      if (options_.placement == PlacementPolicy::kInsertion) {
        start = timelines[p].earliest_fit(bound, c);
      } else {
        start = std::max(bound, schedule.processor_available(p));
      }
      const Time finish = start + c;
      if (!found || start < best_start ||
          (start == best_start &&
           (finish < best_finish ||
            (finish == best_finish && p < best_proc)))) {
        found = true;
        best_proc = p;
        best_start = start;
        best_finish = finish;
        best_transfers = std::move(transfers);
      }
    }

    if (!found) {
      return fail(v, "task " + task.name +
                         " has no eligible processor on this platform");
    }

    if (best_finish > window.deadline) {
      missed = true;
      if (options_.abort_on_miss) {
        return fail(v, "task " + task.name + " misses its deadline (finish " +
                           std::to_string(best_finish) + " > D " +
                           std::to_string(window.deadline) + ")");
      }
      if (!result.failed_task.has_value()) {
        result.failed_task = v;
        result.failure_reason = "task " + task.name + " missed its deadline";
      }
    }

    schedule.place(v, best_proc, best_start, best_finish);
    if (resources != nullptr) {
      for (const ResourceId r : resources->resources_of(v)) {
        resource_available[r] = best_finish;
      }
    }
    if (options_.placement == PlacementPolicy::kInsertion) {
      timelines[best_proc].occupy(best_start, best_finish - best_start);
    }
    for (const BusTransfer& t : best_transfers) {
      bus.occupy(t.start, t.finish - t.start);
      result.bus_transfers.push_back(t);
    }
    for (const NodeId s : g.successors(v)) {
      if (--unscheduled_preds[s] == 0) {
        ready.push_back(s);
      }
    }
  }

  if (!schedule.complete()) {
    return fail(0, "schedule incomplete: task graph has a cycle");
  }
  result.success = !missed;
  return result;
}

SchedulerResult dispatch_run(const Application& app,
                             const DeadlineAssignment& assignment,
                             const Platform& platform,
                             const DispatchOptions& options_,
                             const DispatchConditions* conditions,
                             DispatchControl* control,
                             DispatchTelemetry* telemetry) {
  const TaskGraph& g = app.graph();
  const std::size_t n = g.node_count();
  const std::size_t m = platform.processor_count();
  DSSLICE_REQUIRE(assignment.windows.size() == n, "assignment size mismatch");
  if (conditions != nullptr) {
    DSSLICE_REQUIRE(conditions->wcet_factor.empty() ||
                        conditions->wcet_factor.size() == n,
                    "wcet_factor size mismatch");
    DSSLICE_REQUIRE(conditions->wcet_addend.empty() ||
                        conditions->wcet_addend.size() == n,
                    "wcet_addend size mismatch");
    DSSLICE_REQUIRE(conditions->arc_delay_factor.empty() ||
                        conditions->arc_delay_factor.size() == g.arc_count(),
                    "arc_delay_factor size mismatch");
    DSSLICE_REQUIRE(conditions->processor_down_at.empty() ||
                        conditions->processor_down_at.size() == m,
                    "processor_down_at size mismatch");
  }

  SchedulerResult result{Schedule(n, m), false, std::nullopt, "", {}};

  std::vector<Window> windows = assignment.windows;
  std::vector<std::size_t> preds_left(n, 0);
  std::vector<char> started(n, 0), done(n, 0), lost(n, 0);
  std::vector<char> shed(n, 0);  // degraded-mode channel (writable View span)
  std::vector<Time> start_time(n, kTimeZero);
  std::vector<Time> finish(n, kTimeInfinity);
  std::vector<ProcessorId> proc_of(n, 0);
  std::vector<ProcessorId> pinned(n, kUnpinnedProcessor);
  std::vector<Time> busy_until(m, kTimeZero);
  std::size_t remaining = n;
  for (NodeId v = 0; v < n; ++v) {
    preds_left[v] = g.in_degree(v);
  }

  std::vector<Time> known_from(m, kTimeZero), known_until(m, kTimeInfinity);
  std::vector<Time> surprise_down(m, kTimeInfinity);
  std::vector<char> failure_handled(m, 0);
  for (ProcessorId p = 0; p < m; ++p) {
    known_from[p] = platform.processor(p).available_from;
    known_until[p] = platform.processor(p).available_until;
    if (conditions != nullptr && !conditions->processor_down_at.empty()) {
      surprise_down[p] = conditions->processor_down_at[p];
    }
  }
  std::vector<Time> down_at(m, kTimeInfinity);
  for (ProcessorId p = 0; p < m; ++p) {
    down_at[p] = std::min(known_until[p], surprise_down[p]);
  }
  bool any_failure = false;

  const auto actual_wcet = [&](NodeId v, ProcessorClassId e) {
    double c = app.task(v).wcet(e);
    if (shed[v]) {
      const double f = app.task(v).optional_fraction;
      if (f > 0.0) {
        c *= 1.0 - f;  // degraded mode: only the mandatory part executes
      }
    }
    if (conditions != nullptr) {
      if (!conditions->wcet_factor.empty()) {
        c *= conditions->wcet_factor[v];
      }
      if (!conditions->wcet_addend.empty()) {
        c += conditions->wcet_addend[v];
      }
      c = std::max(0.0, c);
    }
    return c;
  };

  std::unordered_map<std::uint64_t, double> arc_factor;
  if (conditions != nullptr && !conditions->arc_delay_factor.empty()) {
    const auto& arcs = g.arcs();
    arc_factor.reserve(arcs.size());
    for (std::size_t k = 0; k < arcs.size(); ++k) {
      arc_factor.emplace(arc_key(arcs[k].from, arcs[k].to),
                         conditions->arc_delay_factor[k]);
    }
  }
  const auto comm_delay = [&](NodeId u, NodeId v, ProcessorId src,
                              ProcessorId dst, double items) {
    Time d = platform.comm_delay(src, dst, items);
    if (!arc_factor.empty()) {
      const auto it = arc_factor.find(arc_key(u, v));
      if (it != arc_factor.end()) {
        d *= it->second;
      }
    }
    return d;
  };

  if (telemetry != nullptr) {
    *telemetry = DispatchTelemetry{};
    telemetry->completion.assign(n, kTimeInfinity);
  }

  const auto fail = [&](NodeId v, std::string reason) {
    result.success = false;
    result.failed_task = v;
    result.failure_reason = std::move(reason);
    return result;
  };

  const auto make_view = [&](Time now) {
    return DispatchControl::View{app,  platform, now,        started,
                                 done, finish,   busy_until, down_at,
                                 std::span<char>(shed)};
  };

  const auto data_ready = [&](NodeId v, ProcessorId p) {
    Time ready = kTimeZero;
    for (const NodeId u : g.predecessors(v)) {
      const double items = g.message_items(u, v).value_or(0.0);
      ready = std::max(ready,
                       finish[u] + comm_delay(u, v, proc_of[u], p, items));
    }
    return ready;
  };

  bool missed = false;
  Time now = kTimeZero;
  std::size_t guard = 0;
  const std::size_t guard_limit = (n + 3 * m + 4) * (n * (m + 1) + m + 4) + 64;
  while (remaining > 0) {
    DSSLICE_CHECK(++guard <= guard_limit, "dispatch failed to converge");

    for (ProcessorId p = 0; p < m; ++p) {
      if (failure_handled[p] || surprise_down[p] > now + kEps) {
        continue;
      }
      failure_handled[p] = 1;
      any_failure = true;
      std::vector<NodeId> victims;
      for (NodeId v = 0; v < n; ++v) {
        if (started[v] && !done[v] && proc_of[v] == p &&
            finish[v] > surprise_down[p] + kEps) {
          victims.push_back(v);
          started[v] = 0;
          finish[v] = kTimeInfinity;
          lost[v] = 1;
          if (telemetry != nullptr) {
            telemetry->killed.push_back(v);
          }
        }
      }
      busy_until[p] = std::min(busy_until[p], surprise_down[p]);
      std::vector<NodeId> revived;
      if (control != nullptr) {
        const auto view = make_view(now);
        revived = control->on_processor_failure(view, p, victims, windows,
                                                pinned);
      }
      for (const NodeId r : revived) {
        DSSLICE_CHECK(std::find(victims.begin(), victims.end(), r) !=
                          victims.end(),
                      "control revived a task that was not a victim");
        lost[r] = 0;
        if (telemetry != nullptr) {
          ++telemetry->restarts;
        }
      }
    }

    for (NodeId v = 0; v < n; ++v) {
      if (started[v] && !done[v] && finish[v] <= now + kEps) {
        done[v] = 1;
        --remaining;
        result.schedule.place(v, proc_of[v], start_time[v], finish[v]);
        if (telemetry != nullptr) {
          telemetry->completion[v] = finish[v];
          if (shed[v]) {
            telemetry->degraded.push_back(v);
          }
        }
        const bool late = finish[v] > windows[v].deadline + kEps;
        if (late) {
          missed = true;
          if (telemetry != nullptr) {
            telemetry->misses.push_back(
                TaskMissEvent{v, finish[v], windows[v].deadline});
          }
          if (options_.abort_on_miss) {
            return fail(v, "task " + app.task(v).name +
                               " misses its deadline at dispatch time");
          }
          if (!result.failed_task.has_value()) {
            result.failed_task = v;
            result.failure_reason =
                "task " + app.task(v).name + " missed its deadline";
          }
        }
        for (const NodeId s : g.successors(v)) {
          --preds_left[s];
        }
        if (control != nullptr) {
          const auto view = make_view(now);
          control->on_completion(view, v, late, windows);
        }
      }
    }
    if (remaining == 0) {
      break;
    }

    for (;;) {
      NodeId best = static_cast<NodeId>(n);
      ProcessorId best_proc = 0;
      double best_wcet = 0.0;
      Time best_deadline = kTimeInfinity;
      for (NodeId v = 0; v < n; ++v) {
        if (started[v] || done[v] || lost[v] || preds_left[v] != 0 ||
            windows[v].arrival > now + kEps) {
          continue;
        }
        const Time deadline = windows[v].deadline;
        if (best < n && deadline > best_deadline + kEps) {
          continue;
        }
        ProcessorId chosen = 0;
        double chosen_wcet = 0.0;
        bool found = false;
        for (ProcessorId p = 0; p < m; ++p) {
          if (busy_until[p] > now + kEps) {
            continue;
          }
          if (pinned[v] != kUnpinnedProcessor && pinned[v] != p) {
            continue;
          }
          if (now + kEps < known_from[p] || now + kEps >= surprise_down[p]) {
            continue;
          }
          const Task& task = app.task(v);
          if (!task.eligible(platform.class_of(p))) {
            continue;
          }
          const double c = actual_wcet(v, platform.class_of(p));
          if (now + c > known_until[p] + kEps) {
            continue;
          }
          if (data_ready(v, p) > now + kEps) {
            continue;
          }
          if (!found || c < chosen_wcet) {
            found = true;
            chosen = p;
            chosen_wcet = c;
          }
        }
        if (!found) {
          continue;
        }
        const bool wins =
            best == n || deadline < best_deadline - kEps ||
            (std::abs(deadline - best_deadline) <= kEps && v < best);
        if (wins) {
          best = v;
          best_proc = chosen;
          best_wcet = chosen_wcet;
          best_deadline = deadline;
        }
      }
      if (best >= n) {
        break;
      }
      started[best] = 1;
      proc_of[best] = best_proc;
      start_time[best] = now;
      finish[best] = now + best_wcet;
      busy_until[best_proc] = finish[best];
    }

    Time next = kTimeInfinity;
    for (ProcessorId p = 0; p < m; ++p) {
      if (busy_until[p] > now + kEps) {
        next = std::min(next, busy_until[p]);
      }
      if (!failure_handled[p] && surprise_down[p] < kTimeInfinity &&
          surprise_down[p] > now + kEps) {
        next = std::min(next, surprise_down[p]);
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (started[v] || done[v] || lost[v] || preds_left[v] != 0) {
        continue;
      }
      const Time arrival = windows[v].arrival;
      if (arrival > now + kEps) {
        next = std::min(next, arrival);
        continue;
      }
      const Task& task = app.task(v);
      bool any_eligible = false;
      for (ProcessorId p = 0; p < m; ++p) {
        if (!task.eligible(platform.class_of(p))) {
          continue;
        }
        any_eligible = true;
        if (now + kEps >= surprise_down[p]) {
          continue;
        }
        if (pinned[v] != kUnpinnedProcessor && pinned[v] != p) {
          continue;
        }
        if (now + kEps < known_from[p]) {
          next = std::min(next, known_from[p]);
          continue;
        }
        const Time ready = data_ready(v, p);
        if (ready > now + kEps) {
          next = std::min(next, ready);
        }
      }
      if (!any_eligible) {
        return fail(v, "task " + task.name +
                           " has no eligible processor on this platform");
      }
    }
    if (next >= kTimeInfinity) {
      if (any_failure) {
        break;
      }
      return fail(0, "dispatch deadlocked: task graph has a cycle");
    }
    now = next;
  }

  if (remaining > 0) {
    std::size_t stranded = 0;
    NodeId first = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (!done[v]) {
        if (stranded++ == 0) {
          first = v;
        }
        if (telemetry != nullptr) {
          telemetry->unfinished.push_back(v);
        }
      }
    }
    return fail(first, "processor failure left " + std::to_string(stranded) +
                           " task(s) unfinished (first: " +
                           app.task(first).name + ")");
  }

  result.success = !missed && result.schedule.complete();
  return result;
}

}  // namespace dsslice::reference
