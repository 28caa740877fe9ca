// Measured scheduler-efficiency report for the task runtime.
//
// The modeled figures (cost_model.hh, qdwh_model.hh) charge the fork-join
// schedule its barrier/idle penalty analytically; this module is the
// measured counterpart on the host: it combines the recorded DAG statistics
// (total work, critical path, average parallelism) with the scheduler's own
// event counters (local pops, steals, cv sleeps) and the per-worker
// idle/busy split of the actual execution, so benches and the driver can
// print how close the runtime came to the DAG's available parallelism.

#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "comm/communicator.hh"
#include "runtime/engine.hh"
#include "runtime/trace_analysis.hh"

namespace tbp::perf {

/// Measured communication-engine counters of one World::run, the comm
/// counterpart of SchedReport: per-rank and aggregate message/byte/wait
/// figures that benches and the driver print next to the cost model's
/// collective_volume predictions.
struct CommReport {
    std::vector<comm::CommStats> per_rank;
    comm::CommStats total;
    std::uint64_t leaked = 0;  ///< unmatched messages (0 for a correct run)

    /// Largest per-rank send count — the measured bottleneck metric that
    /// collective_volume's max_rank_sends predicts.
    std::uint64_t max_rank_sends() const {
        std::uint64_t m = 0;
        for (auto const& s : per_rank)
            m = std::max(m, s.sends);
        return m;
    }

    /// Largest per-rank outgoing byte count (collective_volume's
    /// max_rank_bytes — the bandwidth bottleneck).
    std::uint64_t max_rank_bytes() const {
        std::uint64_t m = 0;
        for (auto const& s : per_rank)
            m = std::max(m, s.bytes_sent);
        return m;
    }

    std::string format() const {
        std::ostringstream os;
        os << "comm report: " << per_rank.size() << " ranks\n"
           << "  messages " << total.sends << " (max/rank "
           << max_rank_sends() << "), bytes " << total.bytes_sent
           << ", collectives " << total.collectives << "\n"
           << "  wait " << total.wait_seconds << " rank-seconds";
        if (leaked)
            os << ", LEAKED " << leaked << " messages";
        os << "\n";
        return os.str();
    }
};

/// Snapshot the traffic counters of the last World::run.
inline CommReport comm_report(comm::World const& world) {
    CommReport r;
    for (int rank = 0; rank < world.size(); ++rank)
        r.per_rank.push_back(world.stats(rank));
    r.total = world.total_stats();
    r.leaked = world.leaked_messages();
    return r;
}

struct SchedReport {
    rt::DagStats dag;                  ///< schedule-independent DAG stats
    rt::SchedulerEfficiency sched;     ///< measured steal/idle behaviour
    rt::Engine::SchedStats counters;   ///< engine event counters
    int workers = 0;
    double measured_flops = 0;         ///< tile-kernel flops (kernel/stats.hh)

    /// Executed tasks per second of wall time (scheduler throughput).
    double tasks_per_sec() const {
        return sched.makespan > 0
                   ? static_cast<double>(dag.tasks) / sched.makespan
                   : 0.0;
    }

    /// Achieved compute rate over the makespan: the measured counterpart of
    /// the machine model's assumed GFLOP/s (cost_model's cpu_core_gflops).
    double achieved_gflops() const {
        return sched.makespan > 0 ? measured_flops / sched.makespan / 1e9
                                  : 0.0;
    }

    std::string format() const {
        std::ostringstream os;
        os << "scheduler report: " << dag.tasks << " tasks on " << workers
           << " workers\n"
           << "  makespan " << sched.makespan << " s, " << tasks_per_sec()
           << " tasks/s, utilization " << sched.utilization << "\n"
           << "  DAG: work " << dag.total_work << " s, critical path "
           << dag.critical_path << " s, avg parallelism "
           << dag.avg_parallelism << "\n"
           << "  steals " << counters.steals << " (fraction "
           << sched.steal_fraction << "), local pops " << counters.local_pops
           << ", sleeps " << counters.sleeps << "\n"
           << "  idle " << sched.idle << " worker-seconds, priority tasks "
           << sched.priority_tasks << "\n";
        if (measured_flops > 0) {
            os << "  kernel flops " << measured_flops << ", achieved "
               << achieved_gflops() << " GFLOP/s\n";
        }
        return os.str();
    }
};

/// Snapshot a report from an engine whose trace covers the run of interest.
/// Call after Engine::wait(). Pass the tile-kernel flop delta for the region
/// (blas::kernel::flops_performed() before/after) to get achieved GFLOP/s in
/// the report; the no-argument form leaves that line out.
inline SchedReport sched_report(rt::Engine const& eng,
                                double measured_flops = 0) {
    SchedReport r;
    r.dag = rt::analyze(eng.trace());
    r.sched = rt::scheduler_efficiency(eng.trace());
    r.counters = eng.sched_stats();
    r.workers = eng.num_threads();
    r.measured_flops = measured_flops;
    return r;
}

}  // namespace tbp::perf
