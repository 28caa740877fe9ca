// Per-communicator traffic counters and collective-algorithm selection.
//
// Kept free of transport details so the perf layer (cost_model's
// communication-volume predictors) and the tools can share the enums
// without pulling in the mailbox machinery.

#pragma once

#include <cstddef>
#include <cstdint>

#include "fault/fault_stats.hh"

namespace tbp::comm {

/// Message/byte/wait counters accumulated by one rank's Communicator.
/// World aggregates them across ranks after run().
///
/// Invariant kept in fault mode: sends/recvs/bytes count *logical* payload
/// traffic only — never wire envelopes, injected duplicates, or re-driven
/// copies — so perf::collective_volume stays model-exact whether or not a
/// fault plan is installed. The fault field records everything the
/// injector/recovery machinery did on top.
struct CommStats {
    std::uint64_t sends = 0;       ///< point-to-point messages pushed
    std::uint64_t recvs = 0;       ///< point-to-point messages popped
    std::uint64_t bytes_sent = 0;  ///< payload bytes pushed
    std::uint64_t bytes_recv = 0;  ///< payload bytes popped
    std::uint64_t collectives = 0; ///< collective operations entered
    double wait_seconds = 0;       ///< time blocked in recv/wait/barrier
    fault::FaultStats fault;       ///< injection/recovery counters

    CommStats& operator+=(CommStats const& o) {
        sends += o.sends;
        recvs += o.recvs;
        bytes_sent += o.bytes_sent;
        bytes_recv += o.bytes_recv;
        collectives += o.collectives;
        wait_seconds += o.wait_seconds;
        fault += o.fault;
        return *this;
    }
};

namespace coll {

/// Collective algorithm. Linear is the reference oracle (root gathers/sends
/// one message per rank); the others are the engine's algorithmic variants.
enum class Algo {
    Auto,       ///< size/deterministic-based selection (see resolve_*)
    Linear,     ///< O(P)-at-root paths, kept as the oracle
    Tree,       ///< binomial tree (bcast; gather+rank-ordered fold reduce)
    RecDouble,  ///< recursive doubling (distance-doubling block exchange)
    Ring,       ///< chunk-pipelined ring (reduce-scatter + allgather)
};

inline char const* algo_name(Algo a) {
    switch (a) {
        case Algo::Auto: return "auto";
        case Algo::Linear: return "linear";
        case Algo::Tree: return "tree";
        case Algo::RecDouble: return "recdouble";
        case Algo::Ring: return "ring";
    }
    return "?";
}

/// Per-communicator collective configuration. Every rank must use the same
/// Config (selection depends only on Config, P, and message size, so a
/// uniformly configured World always agrees on the algorithm). Setting all
/// four algorithms to Linear gives the reference oracle the engine is
/// validated against bit for bit.
struct Config {
    Algo bcast = Algo::Auto;
    Algo reduce = Algo::Auto;
    Algo allreduce = Algo::Auto;
    Algo allgather = Algo::Auto;

    /// When true (default), Auto only picks reduction algorithms that
    /// combine contributions in ascending-rank order (Linear, Tree,
    /// RecDouble), so results are bitwise identical across algorithm
    /// choices. Ring re-associates per chunk: reproducible run-to-run at
    /// fixed P, but not bit-identical to the rank-ordered fold; Auto uses
    /// it for large messages only when deterministic is off.
    bool deterministic = true;

    /// Auto switches allreduce to Ring at/above this payload size
    /// (deterministic == false only).
    std::size_t ring_threshold_bytes = 64 * 1024;

    /// Auto switches Tree -> RecDouble below this payload size (fewer
    /// latency-bound rounds; above it the tree's lower wire volume wins).
    std::size_t small_threshold_bytes = 8 * 1024;
};

inline Algo resolve_bcast(Config const& c, std::size_t) {
    return c.bcast == Algo::Auto ? Algo::Tree : c.bcast;
}

inline Algo resolve_reduce(Config const& c, std::size_t) {
    return c.reduce == Algo::Auto ? Algo::Tree : c.reduce;
}

inline Algo resolve_allreduce(Config const& c, std::size_t bytes) {
    if (c.allreduce != Algo::Auto)
        return c.allreduce;
    if (!c.deterministic && bytes >= c.ring_threshold_bytes)
        return Algo::Ring;
    return bytes < c.small_threshold_bytes ? Algo::RecDouble : Algo::Tree;
}

inline Algo resolve_allgather(Config const& c, std::size_t bytes) {
    if (c.allgather != Algo::Auto)
        return c.allgather;
    return bytes >= c.ring_threshold_bytes ? Algo::Ring : Algo::Tree;
}

}  // namespace coll

}  // namespace tbp::comm
