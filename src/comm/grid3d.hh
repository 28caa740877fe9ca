// 3D (p x q x c) process grid for communication-avoiding 2.5D SUMMA.
//
// The c "replication layers" each hold a p x q 2D grid; ranks are mapped
// layer-major, so global rank r lives on layer r / (p*q) at layer rank
// r % (p*q). Layer 0 owns every tile of the rank-local matrices (they are
// built on the p x q layer grid, which is allowed to be smaller than the
// communicator); layers 1..c-1 hold transient operand replicas and compute
// a 1/c share of the SUMMA interior steps, shipping their C contributions
// back down the "fiber" — the set of ranks {l*p*q + x : l < c} that share
// one layer rank x.
//
// Kept free of transport details so the perf layer (cost_model's
// summa_volume / choose_summa_plan) can share the types without pulling in
// the mailbox machinery.

#pragma once

#include "common/error.hh"
#include "matrix/tiled_matrix.hh"

namespace tbp::comm {

/// Distributed-gemm dispatch plan: the plain 2D SUMMA (c == 1), the
/// replicated-layer 2.5D variant, or model-driven selection between them
/// (perf::choose_summa_plan minimizes the max_rank_bytes bottleneck).
enum class CommPlan { Auto, Grid2d, Grid25d };

inline char const* comm_plan_name(CommPlan p) {
    switch (p) {
        case CommPlan::Auto: return "auto";
        case CommPlan::Grid2d: return "2d";
        case CommPlan::Grid25d: return "2.5d";
    }
    return "?";
}

/// Near-square p x q grid of P ranks: p is the largest divisor of P not
/// above sqrt(P) (4 -> 2x2, 8 -> 2x4, 7 -> 1x7).
inline Grid near_square_grid(int P) {
    tbp_require(P >= 1);
    int p = 1;
    for (int d = 1; d * d <= P; ++d)
        if (P % d == 0)
            p = d;
    return Grid{p, P / p};
}

/// p x q x c processor grid. c == 1 degenerates to the plain 2D grid.
struct ProcGrid3d {
    int p = 1;  ///< layer-grid rows
    int q = 1;  ///< layer-grid columns
    int c = 1;  ///< replication depth (number of layers)

    int layer_size() const { return p * q; }
    int size() const { return p * q * c; }
    Grid layer() const { return Grid{p, q}; }

    int layer_of(int rank) const { return rank / layer_size(); }
    int layer_rank(int rank) const { return rank % layer_size(); }
    int global(int layer, int lrank) const {
        return layer * layer_size() + lrank;
    }

    /// Contiguous balanced block assignment of the kt SUMMA interior steps
    /// to layers: layer lay computes steps [step_lo, step_hi). Blocks (not
    /// round-robin) matter for the bottleneck: a cyclic l % c map correlates
    /// the step's operand-owner column (l % q) with its layer whenever
    /// gcd(q, c) > 1, concentrating the staging sends on a few ranks and
    /// erasing the 2.5D win. The partition is identical in the
    /// implementation and the traffic model (perf::summa_volume replays it).
    int step_lo(int lay, int kt) const {
        return static_cast<int>(static_cast<long long>(lay) * kt / c);
    }
    int step_hi(int lay, int kt) const { return step_lo(lay + 1, kt); }
    int layer_of_step(int l, int kt) const {
        // Inverse of step_lo: the unique lay with step_lo <= l < step_hi.
        return static_cast<int>((static_cast<long long>(c) * (l + 1) - 1)
                                / kt);
    }

    /// Number of layers whose step block is non-empty (block sizes differ by
    /// at most one, so min(c, kt) blocks hold steps; when kt < c the
    /// populated layers need not be a prefix — test step_lo/step_hi).
    int active_layers(int kt) const { return c < kt ? c : kt; }
};

}  // namespace tbp::comm
