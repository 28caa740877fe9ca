// SUMMA over a p x q x c process grid: the one SPMD distributed gemm. The
// classic 2D SUMMA is its c = 1 case (ProcGrid3d{p, q, 1}); c > 1 is the
// communication-avoiding 2.5D variant.
//
// The matrices live block-cyclically on the p x q layer-0 grid (the
// ProcGrid3d layer grid); layers 1..c-1 hold transient replicas. The kt
// interior steps of the SUMMA k-loop are assigned to layers in contiguous
// balanced blocks (ProcGrid3d::step_lo/step_hi — a cyclic map would
// correlate step-owner columns with layers and concentrate the staging
// bottleneck). Layer 0 runs its own block [0, step_hi(0, kt)) — every step
// when c == 1 — as the double-buffered 2D loop: each step broadcasts the A
// column panel along process rows and the op(B) panel along process columns,
// and step l+1's panels are posted while step l computes
// (detail::pipelined_steps). For a remote step, the layer-0 owner of each
// operand tile first ships it up the replication fiber to its layer mate
// (one hop), and that mate then stages it across its own layer's row/column
// group the same way — so the per-rank staging volume drops by ~c while the
// fiber adds only one copy of each operand panel, the classic ~sqrt(c)
// per-rank traffic reduction once C contributions are reduced as per-layer
// partial sums.
//
// Two reduction modes, switched on coll::Config::deterministic (mirroring
// the Ring-allreduce precedent: the deterministic default never trades
// reproducibility for traffic):
//
//   ExactOrder (deterministic): remote layers ship each step's product
//     tile z_l = alpha op(A_il) op(B_lj) and the layer-0 owner folds all
//     steps in globally ascending l order. Because every distributed SUMMA
//     path accumulates through la::summa_step_accumulate (product into a
//     zeroed tile, then one elementwise add), the result is bit-identical
//     to the c = 1 run on the same layer grid — at the cost of shipping
//     one z tile per remote step, so this mode proves correctness rather
//     than saving traffic.
//
//   PartialSum (deterministic = false): each remote layer folds its own
//     steps (ascending l) into one partial tile per owned C tile and ships
//     that single tile; layer 0 folds its own steps, then the partials in
//     ascending layer order. Reproducible at a fixed grid shape, and the
//     mode that realizes the ~sqrt(c) max_rank_bytes win the auto-selector
//     (perf::choose_summa_plan) costs.
//
// Deadlock discipline: all sends are buffered; layer-0 fiber sends for
// every remote step are issued before any rank blocks in a receive, so
// remote layers progress independently of layer 0's step loop, and the
// within-layer staging follows the owner-sends-first pattern.
// perf::summa_volume replays these loops exactly (model == measured).

#pragma once

#include <map>
#include <utility>
#include <vector>

#include "comm/dist_algs.hh"
#include "comm/grid3d.hh"
#include "linalg/summa_step.hh"

namespace tbp::comm {

/// Tags consumed by one summa_25d call starting at tag_base: a stage and a
/// fiber tag per (step, operand tile) plus a reduce tag per (step, C tile).
inline int summa25_tag_span(int mt, int nt, int kt) {
    return kt * (2 * (mt + nt) + mt * nt);
}

/// SUMMA: C := alpha MA op(MB) + beta C on the g3 layer grid, with op(MB)
/// tiles taken as MB(l, j) (NoTrans) or MB(j, l)^H (ConjTrans — the dqdwh
/// trailing update Q1 Q2^H, where MA and MB are sub-views of one Q and keep
/// its ownership). Collective over all g3.size() ranks; matrices are
/// distributed on g3.layer() so only layer-0 ranks own tiles.
template <typename T>
void summa_25d(Communicator& c, ProcGrid3d g3, Op opB, T alpha,
               TiledMatrix<T> MA, TiledMatrix<T> MB, T beta, TiledMatrix<T> C,
               int tag_base = 1 << 24) {
    Grid const g = g3.layer();
    int const mt = C.mt(), nt = C.nt(), kt = MA.nt();
    tbp_require(c.size() == g3.size());
    tbp_require(MA.mt() == mt);
    if (opB == Op::NoTrans)
        tbp_require(MB.mt() == kt && MB.nt() == nt);
    else
        tbp_require(MB.nt() == kt && MB.mt() == nt);

    bool const exact = c.coll_config().deterministic;
    int const my = c.rank();
    int const my_layer = g3.layer_of(my);
    int const my_lr = g3.layer_rank(my);

    auto a_coord = [&](int i, int l) { return std::pair<int, int>(i, l); };
    auto b_coord = [&](int l, int j) {
        return opB == Op::NoTrans ? std::pair<int, int>(l, j)
                                  : std::pair<int, int>(j, l);
    };

    // Stage tags first, so at c == 1 the tag stream is the plain 2D SUMMA's
    // (tag_base + l * (mt + nt) + tile); fiber tags follow.
    int const span = mt + nt;
    auto stage_a_tag = [&](int l, int i) { return tag_base + l * span + i; };
    auto stage_b_tag = [&](int l, int j) {
        return tag_base + l * span + mt + j;
    };
    int const fiber0 = tag_base + kt * span;
    auto fiber_a_tag = [&](int l, int i) { return fiber0 + l * span + i; };
    auto fiber_b_tag = [&](int l, int j) { return fiber0 + l * span + mt + j; };
    int const red0 = tag_base + 2 * kt * span;
    // s is the step (ExactOrder) or the sending layer's block-start step
    // (PartialSum) — block starts are distinct per populated layer and
    // always < kt, so both fit the kt * mt * nt reduce span.
    auto reduce_tag = [&](int s, int i, int j) {
        return red0 + s * (mt * nt) + i + j * mt;
    };

    for (int j = 0; j < nt; ++j)
        for (int i = 0; i < mt; ++i)
            if (C.is_local(i, j))
                blas::scale(beta, C.tile(i, j));
    if (kt == 0)
        return;

    int const my_lo = g3.step_lo(my_layer, kt);
    int const my_hi = g3.step_hi(my_layer, kt);

    // Operand tile rc of M up the replication fiber, from its layer-0 owner
    // to that owner's mate on layer `lay`.
    auto fiber = [&](TiledMatrix<T> const& M, std::pair<int, int> rc, int lay,
                     int tag) {
        int const hold = M.owner_rank(rc.first, rc.second);
        return stage(c, M, rc.first, rc.second, {g3.global(lay, hold)}, tag);
    };

    // Fiber replication: layer-0 owners push every remote step's operand
    // tiles to their layer mates up front (buffered sends), so the remote
    // layers' step loops never wait on layer 0's step progress.
    if (my_layer == 0) {
        for (int l = 0; l < kt; ++l) {
            int const lay = g3.layer_of_step(l, kt);
            if (lay == 0)
                continue;
            for (int i = 0; i < mt; ++i)
                fiber(MA, a_coord(i, l), lay, fiber_a_tag(l, i));
            for (int j = 0; j < nt; ++j)
                fiber(MB, b_coord(l, j), lay, fiber_b_tag(l, j));
        }
    }

    // Step l's panels: the A column panel along process rows and the op(B)
    // panel along process columns of this rank's layer. The holder of an
    // operand tile is its layer-0 owner or, on a remote layer, that owner's
    // fiber mate with the replica.
    using Panel = std::vector<detail::PendingStage<T>>;
    struct Step {
        Panel arep, brep;  // fiber replicas (remote layers)
        Panel a, b;
    };
    auto layer_stage = [&](TiledMatrix<T> const& M, std::pair<int, int> rc,
                           detail::PendingStage<T>& rep,
                           std::vector<int> grp, int tag) {
        for (int& r : grp)
            r = g3.global(my_layer, r);
        Tile<T> const src = rep.view.data()
                                ? rep.ready()
                                : detail::tile_or_shape(M, rc.first, rc.second);
        int const hold = M.owner_rank(rc.first, rc.second);
        return stage(c, src, g3.global(my_layer, hold), grp, tag);
    };
    auto stage_step = [&](int l) {
        Step st{Panel(mt), Panel(nt), Panel(mt), Panel(nt)};
        if (my_layer > 0) {
            for (int i = 0; i < mt; ++i)
                st.arep[i] =
                    fiber(MA, a_coord(i, l), my_layer, fiber_a_tag(l, i));
            for (int j = 0; j < nt; ++j)
                st.brep[j] =
                    fiber(MB, b_coord(l, j), my_layer, fiber_b_tag(l, j));
        }
        for (int i = 0; i < mt; ++i)
            st.a[i] = layer_stage(MA, a_coord(i, l), st.arep[i],
                                  row_group(g, i), stage_a_tag(l, i));
        for (int j = 0; j < nt; ++j)
            st.b[j] = layer_stage(MB, b_coord(l, j), st.brep[j],
                                  col_group(g, j), stage_b_tag(l, j));
        return st;
    };

    if (my_layer > 0 && my_lo < my_hi) {
        // Remote layer: compute this layer's block of the steps and ship the
        // C contributions down the fiber.
        std::map<std::pair<int, int>, detail::Staged<T>> part;
        for (int l = my_lo; l < my_hi; ++l) {
            Step st = stage_step(l);
            for (int j = 0; j < nt; ++j)
                for (int i = 0; i < mt; ++i) {
                    if (C.owner_rank(i, j) != my_lr)
                        continue;
                    if (exact) {
                        std::vector<T> zb(static_cast<size_t>(C.tile_mb(i))
                                          * C.tile_nb(j));
                        Tile<T> z(zb.data(), C.tile_mb(i), C.tile_nb(j),
                                  C.tile_mb(i));
                        la::summa_step_product(Op::NoTrans, opB, alpha,
                                               st.a[i].ready(), st.b[j].ready(),
                                               z);
                        c.send(zb, my_lr, reduce_tag(l, i, j));
                    } else {
                        auto& pt = part[{i, j}];
                        if (pt.buf.empty()) {
                            pt.mb = C.tile_mb(i);
                            pt.nb = C.tile_nb(j);
                            pt.buf.assign(
                                static_cast<size_t>(pt.mb) * pt.nb, T(0));
                        }
                        la::summa_step_accumulate(Op::NoTrans, opB, alpha,
                                                  st.a[i].ready(),
                                                  st.b[j].ready(), pt.tile());
                    }
                }
        }
        if (!exact)
            for (auto& kv : part)
                c.send(kv.second.buf, my_lr,
                       reduce_tag(my_lo, kv.first.first, kv.first.second));
    }

    if (my_layer == 0) {
        // Own steps, folded locally. MA and MB are read-only here, so the
        // pipeline may run a step ahead.
        detail::pipelined_steps(my_hi, stage_step, [&](int, Step& st) {
            for (int j = 0; j < nt; ++j)
                for (int i = 0; i < mt; ++i)
                    if (C.is_local(i, j))
                        la::summa_step_accumulate(
                            Op::NoTrans, opB, alpha, st.a[i].ready(),
                            st.b[j].ready(), C.tile(i, j));
        });
        if (exact) {
            // Remote steps follow layer 0's block: fold the shipped product
            // tiles in step order.
            for (int l = my_hi; l < kt; ++l) {
                int const lay = g3.layer_of_step(l, kt);
                for (int j = 0; j < nt; ++j)
                    for (int i = 0; i < mt; ++i)
                        if (C.is_local(i, j)) {
                            auto z = detail::recv_tile<T>(
                                c, C.tile_mb(i), C.tile_nb(j),
                                g3.global(lay, my), reduce_tag(l, i, j));
                            blas::add(T(1), z.tile(), T(1), C.tile(i, j));
                        }
            }
        } else {
            // Fold each populated remote layer's single partial per owned C
            // tile, ascending layer order (reproducible at a fixed grid).
            for (int lay = 1; lay < g3.c; ++lay) {
                int const lo = g3.step_lo(lay, kt);
                if (lo >= g3.step_hi(lay, kt))
                    continue;
                for (int j = 0; j < nt; ++j)
                    for (int i = 0; i < mt; ++i)
                        if (C.is_local(i, j)) {
                            auto z = detail::recv_tile<T>(
                                c, C.tile_mb(i), C.tile_nb(j),
                                g3.global(lay, my), reduce_tag(lo, i, j));
                            blas::add(T(1), z.tile(), T(1), C.tile(i, j));
                        }
            }
        }
    }
}

}  // namespace tbp::comm
