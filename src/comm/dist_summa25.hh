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

/// SUMMA: C := alpha MA(:,0:kt) op(B) + beta C on the g3 layer grid,
/// with op(B) tiles taken as MB(l, j) (NoTrans) or MB(b_row_off + j, l)^H
/// (ConjTrans — the dqdwh trailing-update shape, where MA == MB == Q).
/// Collective over all g3.size() ranks; matrices are distributed on
/// g3.layer() so only layer-0 ranks own tiles.
template <typename T>
void summa_25d(Communicator& c, ProcGrid3d g3, Op opB, T alpha,
               DistMatrix<T>& MA, DistMatrix<T>& MB, int b_row_off, T beta,
               DistMatrix<T>& C, int tag_base = 1 << 24) {
    Grid const g = g3.layer();
    int const mt = C.mt(), nt = C.nt(), kt = MA.nt();
    tbp_require(c.size() == g3.size());
    tbp_require(MA.mt() >= mt);
    if (opB == Op::NoTrans)
        tbp_require(b_row_off == 0 && MB.mt() == kt && MB.nt() == nt);
    else
        tbp_require(MB.nt() == kt && b_row_off + nt <= MB.mt());

    bool const exact = c.coll_config().deterministic;
    int const my = c.rank();
    int const my_layer = g3.layer_of(my);
    int const my_lr = g3.layer_rank(my);

    auto a_coord = [&](int i, int l) { return std::pair<int, int>(i, l); };
    auto b_coord = [&](int l, int j) {
        return opB == Op::NoTrans ? std::pair<int, int>(l, j)
                                  : std::pair<int, int>(b_row_off + j, l);
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

    // Fiber replication: layer-0 owners push every remote step's operand
    // tiles to their layer mates up front (buffered sends), so the remote
    // layers' step loops never wait on layer 0's step progress.
    if (my_layer == 0) {
        for (int l = 0; l < kt; ++l) {
            int const lay = g3.layer_of_step(l, kt);
            if (lay == 0)
                continue;
            for (int i = 0; i < mt; ++i) {
                auto ac = a_coord(i, l);
                if (MA.owner(ac.first, ac.second) == my)
                    detail::send_tile(c, MA.tile(ac.first, ac.second),
                                      g3.global(lay, my_lr), fiber_a_tag(l, i));
            }
            for (int j = 0; j < nt; ++j) {
                auto bc = b_coord(l, j);
                if (MB.owner(bc.first, bc.second) == my)
                    detail::send_tile(c, MB.tile(bc.first, bc.second),
                                      g3.global(lay, my_lr), fiber_b_tag(l, j));
            }
        }
    }

    if (my_layer > 0 && my_lo < my_hi) {
        // Remote layer: receive fiber replicas, re-stage them across this
        // layer, compute this layer's block of the steps.
        std::map<std::pair<int, int>, detail::Staged<T>> part;
        for (int l = my_lo; l < my_hi; ++l) {
            std::map<int, detail::Staged<T>> arep, brep;
            for (int i = 0; i < mt; ++i) {
                auto ac = a_coord(i, l);
                if (MA.owner(ac.first, ac.second) == my_lr)
                    arep[i] = detail::recv_tile<T>(
                        c, MA.tile_mb(ac.first), MA.tile_nb(ac.second), my_lr,
                        fiber_a_tag(l, i));
            }
            for (int j = 0; j < nt; ++j) {
                auto bc = b_coord(l, j);
                if (MB.owner(bc.first, bc.second) == my_lr)
                    brep[j] = detail::recv_tile<T>(
                        c, MB.tile_mb(bc.first), MB.tile_nb(bc.second), my_lr,
                        fiber_b_tag(l, j));
            }

            // Within-layer staging, owner's fiber mate acting as the owner.
            std::map<int, detail::Staged<T>> a_st, b_st;
            for (int i = 0; i < mt; ++i) {
                auto ac = a_coord(i, l);
                int const hold = MA.owner(ac.first, ac.second);
                auto grp = row_group(g, i);
                bool const need = in_group(grp, my_lr);
                if (my_lr == hold) {
                    auto t = arep[i].tile();
                    for (int r : grp)
                        if (r != hold)
                            detail::send_tile(c, t, g3.global(my_layer, r),
                                              stage_a_tag(l, i));
                    if (need)
                        a_st[i] = std::move(arep[i]);
                } else if (need) {
                    a_st[i] = detail::recv_tile<T>(
                        c, MA.tile_mb(ac.first), MA.tile_nb(ac.second),
                        g3.global(my_layer, hold), stage_a_tag(l, i));
                }
            }
            for (int j = 0; j < nt; ++j) {
                auto bc = b_coord(l, j);
                int const hold = MB.owner(bc.first, bc.second);
                auto grp = col_group(g, j);
                bool const need = in_group(grp, my_lr);
                if (my_lr == hold) {
                    auto t = brep[j].tile();
                    for (int r : grp)
                        if (r != hold)
                            detail::send_tile(c, t, g3.global(my_layer, r),
                                              stage_b_tag(l, j));
                    if (need)
                        b_st[j] = std::move(brep[j]);
                } else if (need) {
                    b_st[j] = detail::recv_tile<T>(
                        c, MB.tile_mb(bc.first), MB.tile_nb(bc.second),
                        g3.global(my_layer, hold), stage_b_tag(l, j));
                }
            }

            for (int j = 0; j < nt; ++j)
                for (int i = 0; i < mt; ++i) {
                    if (C.owner(i, j) != my_lr)
                        continue;
                    if (exact) {
                        std::vector<T> zb(static_cast<size_t>(C.tile_mb(i))
                                          * C.tile_nb(j));
                        Tile<T> z(zb.data(), C.tile_mb(i), C.tile_nb(j),
                                  C.tile_mb(i));
                        la::summa_step_product(Op::NoTrans, opB, alpha,
                                               a_st[i].tile(), b_st[j].tile(),
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
                                                  a_st[i].tile(),
                                                  b_st[j].tile(), pt.tile());
                    }
                }
        }
        if (!exact)
            for (auto& kv : part)
                c.send(kv.second.buf, my_lr,
                       reduce_tag(my_lo, kv.first.first, kv.first.second));
    }

    if (my_layer == 0) {
        // Own steps: stage the A column panel along process rows and the
        // op(B) panel along process columns, fold locally. MA and MB are
        // read-only here, so the pipeline may run a step ahead.
        struct Step {
            std::map<int, detail::PendingStage<T>> a, b;
        };
        auto stage_step = [&](int l) {
            Step st;
            for (int i = 0; i < mt; ++i) {
                auto ac = a_coord(i, l);
                auto grp = row_group(g, i);
                bool const need = in_group(grp, my);
                if (need || MA.owner(ac.first, ac.second) == my) {
                    auto p = stage_tile_begin(c, MA, ac.first, ac.second, grp,
                                              stage_a_tag(l, i));
                    if (need)
                        st.a[i] = std::move(p);
                }
            }
            for (int j = 0; j < nt; ++j) {
                auto bc = b_coord(l, j);
                auto grp = col_group(g, j);
                bool const need = in_group(grp, my);
                if (need || MB.owner(bc.first, bc.second) == my) {
                    auto p = stage_tile_begin(c, MB, bc.first, bc.second, grp,
                                              stage_b_tag(l, j));
                    if (need)
                        st.b[j] = std::move(p);
                }
            }
            return st;
        };
        detail::pipelined_steps(my_hi, stage_step, [&](int, Step& st) {
            for (int j = 0; j < nt; ++j)
                for (int i = 0; i < mt; ++i)
                    if (C.is_local(i, j))
                        la::summa_step_accumulate(
                            Op::NoTrans, opB, alpha, st.a[i].ready().tile(),
                            st.b[j].ready().tile(), C.tile(i, j));
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

/// SUMMA gemm: C := alpha A B + beta C (all NoTrans, conforming
/// block-cyclic distributions on g3's layer grid), the shape
/// perf::summa_volume models and perf::choose_summa_plan costs. The plain
/// 2D SUMMA is g3 = ProcGrid3d{p, q, 1}.
template <typename T>
void dist_gemm(Communicator& c, ProcGrid3d g3, T alpha, DistMatrix<T>& A,
               DistMatrix<T>& B, T beta, DistMatrix<T>& C,
               int tag_base = 1 << 24) {
    tbp_require(A.mt() == C.mt());
    summa_25d(c, g3, Op::NoTrans, alpha, A, B, 0, beta, C, tag_base);
}

}  // namespace tbp::comm
