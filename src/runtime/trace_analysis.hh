// Analysis and replay of recorded task traces.
//
// The engine's trace (task name, flops, duration, dependency edges) is a
// faithful record of the algorithm's dataflow DAG. This module computes the
// schedule-independent quantities the paper's task-based argument rests on —
// total work, critical path, average parallelism — and provides a
// list-scheduling replay that executes the recorded DAG on a modeled number
// of workers (with an optional per-task time model), so the available
// lookahead parallelism of the real QDWH DAG can be quantified without the
// hardware the paper used.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/error.hh"
#include "runtime/engine.hh"

namespace tbp::rt {

/// Schedule-independent DAG statistics.
struct DagStats {
    std::uint64_t tasks = 0;
    double total_work = 0;       ///< sum of task durations (seconds)
    double total_flops = 0;
    double critical_path = 0;    ///< longest dependency chain (seconds)
    double avg_parallelism = 0;  ///< total_work / critical_path
    double measured_makespan = 0;  ///< wall span of the actual execution
};

/// Compute DAG statistics from a trace. Task ids are assigned in submission
/// order, so ascending id is a topological order.
inline DagStats analyze(std::vector<TaskRecord> const& trace) {
    DagStats s;
    s.tasks = trace.size();
    if (trace.empty())
        return s;

    std::vector<TaskRecord const*> by_id(trace.size());
    std::unordered_map<std::uint64_t, size_t> index;
    index.reserve(trace.size());
    {
        // Trace is completion-ordered; re-sort by id for topological order.
        std::vector<TaskRecord const*> sorted;
        sorted.reserve(trace.size());
        for (auto const& r : trace)
            sorted.push_back(&r);
        std::sort(sorted.begin(), sorted.end(),
                  [](auto* a, auto* b) { return a->id < b->id; });
        by_id = std::move(sorted);
        for (size_t i = 0; i < by_id.size(); ++i)
            index[by_id[i]->id] = i;
    }

    std::vector<double> finish(by_id.size(), 0);
    double t_min = by_id[0]->t_start, t_max = 0;
    for (size_t i = 0; i < by_id.size(); ++i) {
        auto const& r = *by_id[i];
        double const dur = r.t_end - r.t_start;
        s.total_work += dur;
        s.total_flops += r.flops;
        t_min = std::min(t_min, r.t_start);
        t_max = std::max(t_max, r.t_end);
        double ready = 0;
        for (auto dep : r.deps) {
            auto it = index.find(dep);
            if (it != index.end())
                ready = std::max(ready, finish[it->second]);
        }
        finish[i] = ready + dur;
        s.critical_path = std::max(s.critical_path, finish[i]);
    }
    s.measured_makespan = t_max - t_min;
    s.avg_parallelism =
        s.critical_path > 0 ? s.total_work / s.critical_path : 0;
    return s;
}

/// Per-worker utilization of the actual execution.
struct WorkerUtilization {
    std::vector<double> busy;  ///< per worker
    double makespan = 0;
    double utilization = 0;  ///< mean busy / makespan
};

inline WorkerUtilization worker_utilization(std::vector<TaskRecord> const& trace) {
    WorkerUtilization u;
    if (trace.empty())
        return u;
    double t_min = trace.front().t_start, t_max = 0;
    int max_worker = 0;
    for (auto const& r : trace) {
        max_worker = std::max(max_worker, r.worker);
        t_min = std::min(t_min, r.t_start);
        t_max = std::max(t_max, r.t_end);
    }
    u.busy.assign(static_cast<size_t>(max_worker) + 1, 0.0);
    for (auto const& r : trace)
        u.busy[static_cast<size_t>(std::max(r.worker, 0))] += r.t_end - r.t_start;
    u.makespan = t_max - t_min;
    if (u.makespan > 0) {
        double sum = 0;
        for (double b : u.busy)
            sum += b;
        u.utilization = sum / (u.makespan * static_cast<double>(u.busy.size()));
    }
    return u;
}

/// Scheduler-efficiency view of an executed trace: how the work-stealing
/// runtime behaved, reported alongside the schedule-independent DagStats.
/// `stolen_tasks` counts tasks run by a worker that took them from another
/// worker's deque; `idle` is the worker-seconds the pool spent not running
/// task bodies (scheduling overhead + genuine dependency stalls).
struct SchedulerEfficiency {
    std::uint64_t tasks = 0;
    std::uint64_t stolen_tasks = 0;
    std::uint64_t priority_tasks = 0;  ///< tasks submitted with priority > 0
    double steal_fraction = 0;         ///< stolen_tasks / tasks
    double makespan = 0;               ///< wall span of the execution
    double busy = 0;                   ///< sum of task durations
    double idle = 0;                   ///< workers * makespan - busy
    double utilization = 0;            ///< busy / (workers * makespan)
};

inline SchedulerEfficiency scheduler_efficiency(
    std::vector<TaskRecord> const& trace) {
    SchedulerEfficiency e;
    e.tasks = trace.size();
    if (trace.empty())
        return e;
    for (auto const& r : trace) {
        if (r.stolen)
            ++e.stolen_tasks;
        if (r.priority > 0)
            ++e.priority_tasks;
    }
    e.steal_fraction =
        static_cast<double>(e.stolen_tasks) / static_cast<double>(e.tasks);
    auto const u = worker_utilization(trace);
    e.makespan = u.makespan;
    for (double b : u.busy)
        e.busy += b;
    double const capacity = u.makespan * static_cast<double>(u.busy.size());
    e.idle = std::max(0.0, capacity - e.busy);
    e.utilization = u.utilization;
    return e;
}

/// Replay the recorded DAG with list scheduling on `workers` workers.
/// `time_of` maps a task record to its modeled duration; defaults to the
/// measured duration. Returns the modeled makespan.
inline double replay(std::vector<TaskRecord> const& trace, int workers,
                     std::function<double(TaskRecord const&)> const& time_of
                     = {}) {
    tbp_require(workers >= 1);
    if (trace.empty())
        return 0;

    std::vector<TaskRecord const*> by_id;
    by_id.reserve(trace.size());
    for (auto const& r : trace)
        by_id.push_back(&r);
    std::sort(by_id.begin(), by_id.end(),
              [](auto* a, auto* b) { return a->id < b->id; });
    std::unordered_map<std::uint64_t, size_t> index;
    for (size_t i = 0; i < by_id.size(); ++i)
        index[by_id[i]->id] = i;

    auto dur = [&](TaskRecord const& r) {
        return time_of ? time_of(r) : (r.t_end - r.t_start);
    };

    // Dependency counting.
    std::vector<int> unresolved(by_id.size(), 0);
    std::vector<std::vector<size_t>> succ(by_id.size());
    for (size_t i = 0; i < by_id.size(); ++i) {
        for (auto dep : by_id[i]->deps) {
            auto it = index.find(dep);
            if (it != index.end()) {
                succ[it->second].push_back(i);
                ++unresolved[i];
            }
        }
    }

    // Event-driven list scheduling: a min-heap of (finish_time, task),
    // `workers` slots.
    std::vector<double> ready_time(by_id.size(), 0);
    using Ev = std::pair<double, size_t>;
    std::priority_queue<Ev, std::vector<Ev>, std::greater<>> running;
    std::priority_queue<Ev, std::vector<Ev>, std::greater<>> ready;  // (ready_time, id)
    for (size_t i = 0; i < by_id.size(); ++i)
        if (unresolved[i] == 0)
            ready.push({0.0, i});

    double now = 0, makespan = 0;
    int busy = 0;
    while (!ready.empty() || !running.empty()) {
        // Start as many ready tasks (whose ready_time <= now) as fit.
        while (busy < workers && !ready.empty()
               && ready.top().first <= now + 1e-18) {
            auto [rt_, i] = ready.top();
            ready.pop();
            double const f = now + dur(*by_id[i]);
            running.push({f, i});
            ++busy;
        }
        if (running.empty()) {
            // Idle until the next task becomes ready.
            tbp_require(!ready.empty());
            now = ready.top().first;
            continue;
        }
        // Advance to the next completion.
        auto [f, i] = running.top();
        running.pop();
        --busy;
        now = std::max(now, f);
        makespan = std::max(makespan, f);
        for (size_t sidx : succ[i]) {
            if (--unresolved[sidx] == 0) {
                ready_time[sidx] = f;
                ready.push({f, sidx});
            }
        }
    }
    return makespan;
}

}  // namespace tbp::rt
