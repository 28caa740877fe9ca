// Per-operation cost model for 2D block-cyclic tiled algorithms.
//
// Each high-level operation (geqrf, ungqr, gemm, herk, potrf, trsm) is
// charged:
//   compute   - update flops at the kernel-class rate of the device, plus a
//               panel chain whose throughput is panel-efficiency bound (the
//               lookahead-vs-fork-join distinction lives here);
//   network   - 2D-distribution communication volume c_w * n^2 / sqrt(P)
//               words per process plus per-panel message latency, routed
//               over NVLink/Infinity-Fabric intra-node and the NIC
//               inter-node, with a host staging penalty when MPI is not
//               GPU-aware (paper Section 7.2's Summit/Frontier contrast);
//   schedule  - TaskDataflow overlaps panel/update/comm (max composition,
//               damped by task_overlap); ForkJoin adds them, loses
//               forkjoin_idle_frac to idle cores, and pays a barrier per
//               panel step (the ScaLAPACK bulk-synchronous penalty of
//               Section 3).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/comm_stats.hh"
#include "comm/grid3d.hh"
#include "perf/machine.hh"

namespace tbp::perf {

/// Collective operation shapes whose communication volume the model
/// predicts (mirroring the algorithms in comm/collectives.hh exactly).
enum class CollKind { Bcast, Reduce, Allreduce, Allgather };

/// Predicted aggregate traffic of one collective across all ranks.
struct CollVolume {
    std::uint64_t messages = 0;  ///< point-to-point messages, all ranks
    std::uint64_t bytes = 0;     ///< payload bytes, all ranks

    /// Largest per-rank send count — the root/ring bottleneck the
    /// algorithmic collectives exist to remove (linear bcast: P-1 at the
    /// root; tree: ceil(log2 P)).
    std::uint64_t max_rank_sends = 0;

    /// Largest per-rank outgoing byte count — the bandwidth bottleneck;
    /// ring's chunking wins here (~2n/P per rank vs the linear root's
    /// (P-1) n) even though its message count is higher.
    std::uint64_t max_rank_bytes = 0;

    /// Per-role byte attribution: for collective_volume the field matching
    /// `kind` equals `bytes` and the rest are zero (an allreduce's internal
    /// reduce+bcast legs are charged to allreduce_bytes — the caller asked
    /// for an allreduce); summa_volume splits one gemm's traffic into
    /// within-layer staging (p2p), fiber replication (the bcast role of the
    /// third grid dimension) and C reduction. Note the maxes above are
    /// maxes of per-rank sums, so per-role CollVolumes cannot simply be
    /// added — attribution lives alongside one simulated whole.
    std::uint64_t bcast_bytes = 0;
    std::uint64_t reduce_bytes = 0;
    std::uint64_t allreduce_bytes = 0;
    std::uint64_t allgather_bytes = 0;
    std::uint64_t p2p_bytes = 0;
};

/// Exact communication volume of a collective as implemented in
/// comm/collectives.hh: the predictors replay the algorithm loop structure,
/// so measured CommStats totals from a single collective must match them
/// exactly (tested). `algo` must be concrete (resolve Auto via
/// comm::coll::resolve_* first); `count` is elements per rank and
/// `elem_bytes` the scalar size.
CollVolume collective_volume(CollKind kind, comm::coll::Algo algo, int nranks,
                             std::size_t count, std::size_t elem_bytes);

/// Exact traffic of one distributed SUMMA gemm (m x k times k x n, tile
/// size nb) as implemented in comm::summa_25d: c == 1 is the plain 2D
/// per-step panel staging; c > 1 adds fiber replication, within-layer
/// staging, and C reduction in the mode the deterministic flag selects
/// (ExactOrder ships a product tile per remote step; PartialSum one partial
/// per C tile per layer). Measured per-rank CommStats from a lone gemm in a
/// p*q*c world match these numbers exactly (tested and smoke-benched).
struct SummaVolume {
    CollVolume total;  ///< totals + per-rank bottleneck maxes + attribution
    std::uint64_t stage_bytes = 0;   ///< within-layer operand staging (p2p)
    std::uint64_t fiber_bytes = 0;   ///< replication along the c fibers
    std::uint64_t reduce_bytes = 0;  ///< C contributions back to layer 0
};

SummaVolume summa_volume(std::int64_t m, std::int64_t n, std::int64_t k,
                         int nb, std::size_t elem_bytes, int p, int q, int c,
                         bool deterministic);

/// Grid shape choose_summa_plan settled on, with the modeled traffic of the
/// pick and of the 2D reference at the same total rank count.
struct SummaPlan {
    int p = 1, q = 1, c = 1;
    SummaVolume vol;    ///< the chosen (p, q, c)
    SummaVolume vol2d;  ///< the c == 1 near-square candidate at the same P
};

/// Bottleneck-driven 2D-vs-2.5D selection: enumerate every replication
/// depth c dividing P with a near-square p x q layer grid (p*q*c == P) and
/// return the candidate minimizing total.max_rank_bytes for the reduction
/// mode that will actually run (ties prefer smaller c — the shallower grid
/// costs less workspace). `forced` restricts the candidate set: Grid2d to
/// c == 1, Grid25d to c > 1 (for prime P that leaves only the degenerate
/// c == P single-rank-per-layer shape, still a valid grid).
SummaPlan choose_summa_plan(int P, std::int64_t m, std::int64_t n,
                            std::int64_t k, int nb, std::size_t elem_bytes,
                            bool deterministic, comm::CommPlan forced);

enum class Schedule { TaskDataflow, ForkJoin };

/// Kernel class determines the efficiency curve applied to a device.
enum class KernelClass { Gemm, Panel, Trsm, Memcpy };

/// One high-level operation in an algorithm's op stream.
struct OpSpec {
    std::string name;
    double update_flops = 0;  ///< trailing-matrix (compute-bound) flops
    double panel_flops = 0;   ///< panel-chain (latency-bound) flops
    double comm_factor = 0;   ///< c_w in words = c_w * n^2 / sqrt(P) per proc
    double panel_steps = 0;   ///< # of panel steps (messages, barriers)
    std::int64_t n = 0;       ///< problem dimension driving comm volume
};

/// Time breakdown for one operation or a whole algorithm (seconds).
struct TimeBreakdown {
    double update = 0;
    double panel = 0;
    double network = 0;
    double latency = 0;
    double barrier = 0;
    double total = 0;

    TimeBreakdown& operator+=(TimeBreakdown const& o) {
        update += o.update;
        panel += o.panel;
        network += o.network;
        latency += o.latency;
        barrier += o.barrier;
        total += o.total;
        return *this;
    }
};

class CostModel {
public:
    CostModel(MachineModel machine, Device device, Schedule schedule, int nb)
        : m_(std::move(machine)), dev_(device), sched_(schedule), nb_(nb) {}

    MachineModel const& machine() const { return m_; }
    Device device() const { return dev_; }
    Schedule schedule() const { return sched_; }
    int nb() const { return nb_; }

    /// Devices participating (GPUs or a per-core view collapsed to nodes).
    int total_devices() const;

    /// Effective rate (Gflop/s) of one device for a kernel class, given the
    /// per-device local dimension (efficiency ramp).
    double device_rate(KernelClass cls, double n_local) const;

    /// Model the execution time of one operation.
    TimeBreakdown op_time(OpSpec const& op) const;

    /// Sum a stream of operations (adds per-iteration sync latency).
    TimeBreakdown total_time(std::vector<OpSpec> const& ops,
                             int sync_points = 0) const;

private:
    MachineModel m_;
    Device dev_;
    Schedule sched_;
    int nb_;
};

}  // namespace tbp::perf
