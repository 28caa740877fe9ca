// Task-parallel flat-tree tile QR (PLASMA/SLATE style) and explicit Q
// generation — the communication-avoiding factorization behind QDWH's
// QR-based iteration (paper Eq. (1)) and condition estimate.
//
//   geqrf: A = Q R. Panel k: geqrt on the diagonal tile, then tsqrt folds
//          each tile below into the panel R; trailing tiles get the matching
//          unmqr/tsmqr updates. The reflector data stays in A's lower part
//          and per-tile T factors.
//   ungqr: forms Q (m-by-n, n = A.n) explicitly by applying the reflector
//          sequence in reverse order to [I; 0] — QDWH Algorithm 1 line 32.

#pragma once

#include <algorithm>

#include "blas/householder.hh"
#include "common/flops.hh"
#include "common/types.hh"
#include "linalg/util.hh"
#include "matrix/tiled_matrix.hh"
#include "runtime/engine.hh"

namespace tbp::la {

/// Workspace of T factors for geqrf/ungqr: tile (i, k) holds the compact WY
/// factor for the reflector that panel k generated in block row i.
template <typename T>
TiledMatrix<T> alloc_qr_t(TiledMatrix<T> const& A) {
    // Row i only ever stores the geqrt factor at (i, i) — min(mb_i, nb_i)
    // rows — and tsqrt/ttqrt factors at (i, k) for panels k < i, each
    // needing nb_k rows (a short folded tile still produces a full
    // panel-width T: every panel column gets a reflector). Size each row
    // by its widest consumer instead of the global max panel width, so
    // short diagonal rows of rectangular matrices don't over-allocate.
    int const kt = std::min(A.mt(), A.nt());
    std::vector<int> rb(static_cast<size_t>(A.mt()), 1);
    for (int i = 0; i < A.mt(); ++i) {
        int need = 1;
        if (i < kt)
            need = std::max(need, std::min(A.tile_mb(i), A.tile_nb(i)));
        for (int k = 0; k < std::min(i, kt); ++k)
            need = std::max(need, A.tile_nb(k));
        rb[static_cast<size_t>(i)] = need;
    }
    return TiledMatrix<T>(rb, A.col_tile_sizes(), A.grid());
}

/// QR factorization, flat reduction tree. On return: R in the upper
/// triangle of A, reflectors in A's lower part + Tmat (from alloc_qr_t).
/// `lookahead` promotes trailing updates into the next `lookahead` panel
/// columns onto the priority lane (SLATE's lookahead depth): panels
/// k+1..k+lookahead unblock before the bulk of the trailing matrix is
/// touched. 0 (the default) keeps the plain dataflow schedule; the
/// numerical result is identical for every depth.
template <typename T>
void geqrf(rt::Engine& eng, TiledMatrix<T> A, TiledMatrix<T> Tmat,
           int lookahead = 0) {
    int const mt = A.mt();
    int const nt = A.nt();
    int const kt = std::min(mt, nt);
    tbp_require(Tmat.mt() == mt && Tmat.nt() == nt);
    auto upd_pr = [lookahead](int k, int j) {
        return (lookahead > 0 && j - k <= lookahead) ? 1 : 0;
    };

    for (int k = 0; k < kt; ++k) {
        int const nbk = A.tile_nb(k);
        double const fl_ge = flops::geqrf(A.tile_mb(k), nbk) * (fma_flops<T>() / 2.0);
        // The geqrt/tsqrt panel chain is the factorization's critical path;
        // priority 1 keeps it ahead of the unmqr/tsmqr trailing updates
        // (SLATE's `omp priority` hint on panel tasks).
        eng.submit("geqrt", fl_ge,
                   {rt::readwrite(A.tile_key(k, k)), rt::write(Tmat.tile_key(k, k))},
                   [A, Tmat, k, nbk] {
                       // geqrt produces min(mb, nb) reflectors, and that is
                       // all alloc_qr_t guarantees for a short diagonal row.
                       int const kk = std::min(A.tile_mb(k), nbk);
                       auto tt = Tmat.tile(k, k).sub(0, 0, kk, kk);
                       blas::geqrt(A.tile(k, k), tt);
                   },
                   /*priority=*/1);

        for (int j = k + 1; j < nt; ++j) {
            double const fl = 4.0 * A.tile_mb(k) * nbk * A.tile_nb(j)
                              * (fma_flops<T>() / 2.0);
            eng.submit("unmqr", fl,
                       {rt::read(A.tile_key(k, k)), rt::read(Tmat.tile_key(k, k)),
                        rt::readwrite(A.tile_key(k, j))},
                       [A, Tmat, k, j, nbk] {
                           int const kk = std::min(A.tile_mb(k), nbk);
                           auto tt = Tmat.tile(k, k).sub(0, 0, kk, kk);
                           blas::unmqr(Op::ConjTrans, A.tile(k, k), tt, A.tile(k, j));
                       },
                       upd_pr(k, j));
        }

        for (int i = k + 1; i < mt; ++i) {
            double const fl_ts = 2.0 * A.tile_mb(i) * nbk * nbk
                                 * (fma_flops<T>() / 2.0);
            eng.submit("tsqrt", fl_ts,
                       {rt::readwrite(A.tile_key(k, k)), rt::readwrite(A.tile_key(i, k)),
                        rt::write(Tmat.tile_key(i, k))},
                       [A, Tmat, i, k, nbk] {
                           auto tt = Tmat.tile(i, k).sub(0, 0, nbk, nbk);
                           blas::tsqrt(A.tile(k, k), A.tile(i, k), tt);
                       },
                       /*priority=*/1);

            for (int j = k + 1; j < nt; ++j) {
                double const fl = 4.0 * A.tile_mb(i) * nbk * A.tile_nb(j)
                                  * (fma_flops<T>() / 2.0);
                eng.submit("tsmqr", fl,
                           {rt::read(A.tile_key(i, k)), rt::read(Tmat.tile_key(i, k)),
                            rt::readwrite(A.tile_key(k, j)),
                            rt::readwrite(A.tile_key(i, j))},
                           [A, Tmat, i, j, k, nbk] {
                               auto tt = Tmat.tile(i, k).sub(0, 0, nbk, nbk);
                               blas::tsmqr(Op::ConjTrans, A.tile(i, k), tt,
                                           A.tile(k, j), A.tile(i, j));
                           },
                           upd_pr(k, j));
            }
        }
    }
    eng.op_fence();
}

/// QR of the QDWH stacked iterate W = [W1; w2_diag I] (Algorithm 1 line
/// 31) exploiting the identity block's structure. W1 is the dense top mt1
/// block rows of W; the caller must NOT initialize the bottom nt block
/// rows (W2): panel k's init task writes W2's diagonal tile w2_diag I
/// right before folding it, and every other W2 tile is either trailing
/// fill (first created by ttmqr's overwriting c2_zero path, then updated
/// by tsmqr) or structurally zero and never touched:
///
///   W2 tile (i, k) at panel k:    i > k   still zero     (no tasks)
///                                 i == k  w2_diag I      (init + ttqrt)
///                                 i < k   dense fill     (tsqrt/tsmqr)
///
/// Compared to dense geqrf on W this skips the set_identity sweep, every
/// tsqrt below W2's diagonal, and every trailing update into a still-zero
/// tile — halving the identity block's fold cost (per-iteration QR flops
/// drop from 10/3 n^3 to 7/3 n^3 at m = n). Requires m >= n stacking
/// (mt1 >= nt) and square W2 diagonal tiles
/// (W.tile_mb(mt1 + i) == W.tile_nb(i)), which [A; I] guarantees.
template <typename T>
void geqrf_stacked_tri(rt::Engine& eng, TiledMatrix<T> W, int mt1, T w2_diag,
                       TiledMatrix<T> Tmat, int lookahead = 0) {
    int const mt = W.mt();
    int const nt = W.nt();
    tbp_require(mt == mt1 + nt && mt1 >= nt);
    tbp_require(Tmat.mt() == mt && Tmat.nt() == nt);
    for (int i = 0; i < nt; ++i)
        tbp_require(W.tile_mb(mt1 + i) == W.tile_nb(i));
    // Same lookahead contract as geqrf: promote updates into the next
    // `lookahead` panel columns so their folds start early.
    auto upd_pr = [lookahead](int k, int j) {
        return (lookahead > 0 && j - k <= lookahead) ? 1 : 0;
    };

    for (int k = 0; k < nt; ++k) {
        int const nbk = W.tile_nb(k);

        // --- dense W1 part of the panel: identical to geqrf ---------------
        double const fl_ge = flops::geqrf(W.tile_mb(k), nbk) * (fma_flops<T>() / 2.0);
        eng.submit("geqrt", fl_ge,
                   {rt::readwrite(W.tile_key(k, k)), rt::write(Tmat.tile_key(k, k))},
                   [W, Tmat, k, nbk] {
                       int const kk = std::min(W.tile_mb(k), nbk);
                       auto tt = Tmat.tile(k, k).sub(0, 0, kk, kk);
                       blas::geqrt(W.tile(k, k), tt);
                   },
                   /*priority=*/1);
        for (int j = k + 1; j < nt; ++j) {
            double const fl = 4.0 * W.tile_mb(k) * nbk * W.tile_nb(j)
                              * (fma_flops<T>() / 2.0);
            eng.submit("unmqr", fl,
                       {rt::read(W.tile_key(k, k)), rt::read(Tmat.tile_key(k, k)),
                        rt::readwrite(W.tile_key(k, j))},
                       [W, Tmat, k, j, nbk] {
                           int const kk = std::min(W.tile_mb(k), nbk);
                           auto tt = Tmat.tile(k, k).sub(0, 0, kk, kk);
                           blas::unmqr(Op::ConjTrans, W.tile(k, k), tt, W.tile(k, j));
                       },
                       upd_pr(k, j));
        }
        for (int i = k + 1; i < mt1; ++i) {
            double const fl_ts = 2.0 * W.tile_mb(i) * nbk * nbk
                                 * (fma_flops<T>() / 2.0);
            eng.submit("tsqrt", fl_ts,
                       {rt::readwrite(W.tile_key(k, k)), rt::readwrite(W.tile_key(i, k)),
                        rt::write(Tmat.tile_key(i, k))},
                       [W, Tmat, i, k, nbk] {
                           auto tt = Tmat.tile(i, k).sub(0, 0, nbk, nbk);
                           blas::tsqrt(W.tile(k, k), W.tile(i, k), tt);
                       },
                       /*priority=*/1);
            for (int j = k + 1; j < nt; ++j) {
                double const fl = 4.0 * W.tile_mb(i) * nbk * W.tile_nb(j)
                                  * (fma_flops<T>() / 2.0);
                eng.submit("tsmqr", fl,
                           {rt::read(W.tile_key(i, k)), rt::read(Tmat.tile_key(i, k)),
                            rt::readwrite(W.tile_key(k, j)),
                            rt::readwrite(W.tile_key(i, j))},
                           [W, Tmat, i, j, k, nbk] {
                               auto tt = Tmat.tile(i, k).sub(0, 0, nbk, nbk);
                               blas::tsmqr(Op::ConjTrans, W.tile(i, k), tt,
                                           W.tile(k, j), W.tile(i, j));
                           },
                           upd_pr(k, j));
            }
        }

        // --- triangle-on-triangle fold of W2's diagonal tile --------------
        int const ik = mt1 + k;
        eng.submit("w2_init", {rt::write(W.tile_key(ik, k))},
                   [W, ik, k, w2_diag] { blas::set(T(0), w2_diag, W.tile(ik, k)); },
                   /*priority=*/1);
        double const fl_tt = flops::ttqrt(nbk, nbk) * (fma_flops<T>() / 2.0);
        eng.submit("ttqrt", fl_tt,
                   {rt::readwrite(W.tile_key(k, k)), rt::readwrite(W.tile_key(ik, k)),
                    rt::write(Tmat.tile_key(ik, k))},
                   [W, Tmat, ik, k, nbk] {
                       auto tt = Tmat.tile(ik, k).sub(0, 0, nbk, nbk);
                       blas::ttqrt(W.tile(k, k), W.tile(ik, k), tt);
                   },
                   /*priority=*/1);
        for (int j = k + 1; j < nt; ++j) {
            // First fill of W2(k, j): structurally zero (and stale in a
            // reused workspace), so ttmqr's c2_zero path overwrites it.
            double const fl = flops::ttmqr(nbk, nbk, W.tile_nb(j), true)
                              * (fma_flops<T>() / 2.0);
            eng.submit("ttmqr", fl,
                       {rt::read(W.tile_key(ik, k)), rt::read(Tmat.tile_key(ik, k)),
                        rt::readwrite(W.tile_key(k, j)), rt::write(W.tile_key(ik, j))},
                       [W, Tmat, ik, j, k, nbk] {
                           auto tt = Tmat.tile(ik, k).sub(0, 0, nbk, nbk);
                           blas::ttmqr(Op::ConjTrans, W.tile(ik, k), tt,
                                       W.tile(k, j), W.tile(ik, j),
                                       /*c2_zero=*/true);
                       },
                       upd_pr(k, j));
        }

        // --- dense fill rows of W2 above its diagonal ---------------------
        for (int i2 = 0; i2 < k; ++i2) {
            int const i = mt1 + i2;
            double const fl_ts = 2.0 * W.tile_mb(i) * nbk * nbk
                                 * (fma_flops<T>() / 2.0);
            eng.submit("tsqrt", fl_ts,
                       {rt::readwrite(W.tile_key(k, k)), rt::readwrite(W.tile_key(i, k)),
                        rt::write(Tmat.tile_key(i, k))},
                       [W, Tmat, i, k, nbk] {
                           auto tt = Tmat.tile(i, k).sub(0, 0, nbk, nbk);
                           blas::tsqrt(W.tile(k, k), W.tile(i, k), tt);
                       },
                       /*priority=*/1);
            for (int j = k + 1; j < nt; ++j) {
                double const fl = 4.0 * W.tile_mb(i) * nbk * W.tile_nb(j)
                                  * (fma_flops<T>() / 2.0);
                eng.submit("tsmqr", fl,
                           {rt::read(W.tile_key(i, k)), rt::read(Tmat.tile_key(i, k)),
                            rt::readwrite(W.tile_key(k, j)),
                            rt::readwrite(W.tile_key(i, j))},
                           [W, Tmat, i, j, k, nbk] {
                               auto tt = Tmat.tile(i, k).sub(0, 0, nbk, nbk);
                               blas::tsmqr(Op::ConjTrans, W.tile(i, k), tt,
                                           W.tile(k, j), W.tile(i, j));
                           },
                           upd_pr(k, j));
            }
        }
    }
    eng.op_fence();
}

/// Form Q (A.m-by-A.n) explicitly from a geqrf-factored A: Q := Q_factored
/// applied to [I; 0]. Q must share A's row tiling; its column tiling must
/// match A's first nt block columns.
template <typename T>
void ungqr(rt::Engine& eng, TiledMatrix<T> A, TiledMatrix<T> Tmat,
           TiledMatrix<T> Q) {
    int const mt = A.mt();
    int const nt = std::min(A.mt(), A.nt());
    tbp_require(Q.mt() == mt && Q.nt() == A.nt());

    set_identity(eng, Q);

    for (int k = nt - 1; k >= 0; --k) {
        int const nbk = A.tile_nb(k);
        // Panel k's product is geqrt_k * ts_{k+1} * ... * ts_{mt-1};
        // applying it means innermost (largest i) first.
        for (int i = mt - 1; i > k; --i) {
            for (int j = k; j < Q.nt(); ++j) {
                double const fl = 4.0 * A.tile_mb(i) * nbk * Q.tile_nb(j)
                                  * (fma_flops<T>() / 2.0);
                eng.submit("tsmqr", fl,
                           {rt::read(A.tile_key(i, k)), rt::read(Tmat.tile_key(i, k)),
                            rt::readwrite(Q.tile_key(k, j)),
                            rt::readwrite(Q.tile_key(i, j))},
                           [A, Tmat, Q, i, j, k, nbk] {
                               auto tt = Tmat.tile(i, k).sub(0, 0, nbk, nbk);
                               blas::tsmqr(Op::NoTrans, A.tile(i, k), tt,
                                           Q.tile(k, j), Q.tile(i, j));
                           });
            }
        }
        for (int j = k; j < Q.nt(); ++j) {
            double const fl = 4.0 * A.tile_mb(k) * nbk * Q.tile_nb(j)
                              * (fma_flops<T>() / 2.0);
            eng.submit("unmqr", fl,
                       {rt::read(A.tile_key(k, k)), rt::read(Tmat.tile_key(k, k)),
                        rt::readwrite(Q.tile_key(k, j))},
                       [A, Tmat, Q, k, j, nbk] {
                           int const kk = std::min(A.tile_mb(k), nbk);
                           auto tt = Tmat.tile(k, k).sub(0, 0, kk, kk);
                           blas::unmqr(Op::NoTrans, A.tile(k, k), tt, Q.tile(k, j));
                       });
        }
    }
    eng.op_fence();
}

/// Form the stacked Q = [Q1; Q2] explicitly from a geqrf_stacked_tri
/// factorization. Q2 (the bottom nt block rows) is block upper triangular
/// — it equals w2_diag R^{-1} — so its strict-lower tiles are only
/// zero-filled, never computed, and each panel touches only the Q2 rows
/// its reflectors can reach. The apply order is the exact reverse of
/// geqrf_stacked_tri's fold order, and the first touch of each upper Q2
/// diagonal tile goes through ttmqr's overwriting c2_zero path.
template <typename T>
void ungqr_stacked_tri(rt::Engine& eng, TiledMatrix<T> W, int mt1,
                       TiledMatrix<T> Tmat, TiledMatrix<T> Q) {
    int const mt = W.mt();
    int const nt = W.nt();
    tbp_require(mt == mt1 + nt && mt1 >= nt);
    tbp_require(Q.mt() == mt && Q.nt() == nt);

    // Q1 := [I; 0]. Off-diagonal Q2 tiles are zeroed explicitly (the
    // storage may be a reused workspace): strict-lower ones stay zero in
    // the final Q, strict-upper ones are read by the fill appliers of
    // panel j before anything writes them. Q2's diagonal tiles are the
    // only ones skipped — ttmqr overwrites them at first touch.
    set_identity(eng, Q.sub(0, 0, mt1, nt));
    for (int j = 0; j < nt; ++j)
        for (int i2 = 0; i2 < nt; ++i2)
            if (i2 != j)
                eng.submit("q2_init", {rt::write(Q.tile_key(mt1 + i2, j))},
                           [Q, mt1, i2, j] {
                               blas::set(T(0), T(0), Q.tile(mt1 + i2, j));
                           });

    for (int k = nt - 1; k >= 0; --k) {
        int const nbk = W.tile_nb(k);

        // Dense W2 fill rows were folded last, so they apply first
        // (newest fold outermost), in reverse row order.
        for (int i2 = k - 1; i2 >= 0; --i2) {
            int const i = mt1 + i2;
            for (int j = k; j < Q.nt(); ++j) {
                double const fl = 4.0 * W.tile_mb(i) * nbk * Q.tile_nb(j)
                                  * (fma_flops<T>() / 2.0);
                eng.submit("tsmqr", fl,
                           {rt::read(W.tile_key(i, k)), rt::read(Tmat.tile_key(i, k)),
                            rt::readwrite(Q.tile_key(k, j)),
                            rt::readwrite(Q.tile_key(i, j))},
                           [W, Tmat, Q, i, j, k, nbk] {
                               auto tt = Tmat.tile(i, k).sub(0, 0, nbk, nbk);
                               blas::tsmqr(Op::NoTrans, W.tile(i, k), tt,
                                           Q.tile(k, j), Q.tile(i, j));
                           });
            }
        }

        // Triangle-on-triangle row: panel k's fold of W2(k, k). Column k is
        // the first touch of Q2(k, k) (structurally zero), later columns
        // update fill created by the panels already applied.
        int const ik = mt1 + k;
        for (int j = k; j < Q.nt(); ++j) {
            bool const first = (j == k);
            double const fl = flops::ttmqr(nbk, nbk, Q.tile_nb(j), first)
                              * (fma_flops<T>() / 2.0);
            std::vector<rt::Access> acc = {
                rt::read(W.tile_key(ik, k)), rt::read(Tmat.tile_key(ik, k)),
                rt::readwrite(Q.tile_key(k, j)),
                first ? rt::write(Q.tile_key(ik, j))
                      : rt::readwrite(Q.tile_key(ik, j))};
            eng.submit("ttmqr", fl, std::move(acc),
                       [W, Tmat, Q, ik, j, k, nbk, first] {
                           auto tt = Tmat.tile(ik, k).sub(0, 0, nbk, nbk);
                           blas::ttmqr(Op::NoTrans, W.tile(ik, k), tt,
                                       Q.tile(k, j), Q.tile(ik, j),
                                       /*c2_zero=*/first);
                       });
        }

        // Dense W1 rows, then the geqrt row — exactly as in ungqr.
        for (int i = mt1 - 1; i > k; --i) {
            for (int j = k; j < Q.nt(); ++j) {
                double const fl = 4.0 * W.tile_mb(i) * nbk * Q.tile_nb(j)
                                  * (fma_flops<T>() / 2.0);
                eng.submit("tsmqr", fl,
                           {rt::read(W.tile_key(i, k)), rt::read(Tmat.tile_key(i, k)),
                            rt::readwrite(Q.tile_key(k, j)),
                            rt::readwrite(Q.tile_key(i, j))},
                           [W, Tmat, Q, i, j, k, nbk] {
                               auto tt = Tmat.tile(i, k).sub(0, 0, nbk, nbk);
                               blas::tsmqr(Op::NoTrans, W.tile(i, k), tt,
                                           Q.tile(k, j), Q.tile(i, j));
                           });
            }
        }
        for (int j = k; j < Q.nt(); ++j) {
            double const fl = 4.0 * W.tile_mb(k) * nbk * Q.tile_nb(j)
                              * (fma_flops<T>() / 2.0);
            eng.submit("unmqr", fl,
                       {rt::read(W.tile_key(k, k)), rt::read(Tmat.tile_key(k, k)),
                        rt::readwrite(Q.tile_key(k, j))},
                       [W, Tmat, Q, k, j, nbk] {
                           int const kk = std::min(W.tile_mb(k), nbk);
                           auto tt = Tmat.tile(k, k).sub(0, 0, kk, kk);
                           blas::unmqr(Op::NoTrans, W.tile(k, k), tt, Q.tile(k, j));
                       });
        }
    }
    eng.op_fence();
}

/// Apply Q (or Q^H) from a geqrf-factored A to a conforming matrix C from
/// the left: C := op(Q) C. Used by the unmqr-based SVD/EVD extensions.
template <typename T>
void unmqr(rt::Engine& eng, Op op, TiledMatrix<T> A, TiledMatrix<T> Tmat,
           TiledMatrix<T> C) {
    int const mt = A.mt();
    int const nt = std::min(A.mt(), A.nt());
    tbp_require(C.mt() == mt);
    tbp_require(op == Op::NoTrans || op == Op::ConjTrans);

    auto apply_panel = [&](int k) {
        int const nbk = A.tile_nb(k);
        auto ts = [&](int i) {
            for (int j = 0; j < C.nt(); ++j) {
                eng.submit("tsmqr",
                           4.0 * A.tile_mb(i) * nbk * C.tile_nb(j)
                               * (fma_flops<T>() / 2.0),
                           {rt::read(A.tile_key(i, k)), rt::read(Tmat.tile_key(i, k)),
                            rt::readwrite(C.tile_key(k, j)),
                            rt::readwrite(C.tile_key(i, j))},
                           [A, Tmat, C, i, j, k, nbk, op] {
                               auto tt = Tmat.tile(i, k).sub(0, 0, nbk, nbk);
                               blas::tsmqr(op, A.tile(i, k), tt, C.tile(k, j),
                                           C.tile(i, j));
                           });
            }
        };
        auto ge = [&] {
            for (int j = 0; j < C.nt(); ++j) {
                eng.submit("unmqr",
                           4.0 * A.tile_mb(k) * nbk * C.tile_nb(j)
                               * (fma_flops<T>() / 2.0),
                           {rt::read(A.tile_key(k, k)), rt::read(Tmat.tile_key(k, k)),
                            rt::readwrite(C.tile_key(k, j))},
                           [A, Tmat, C, k, j, nbk, op] {
                               int const kk = std::min(A.tile_mb(k), nbk);
                               auto tt = Tmat.tile(k, k).sub(0, 0, kk, kk);
                               blas::unmqr(op, A.tile(k, k), tt, C.tile(k, j));
                           });
            }
        };
        if (op == Op::ConjTrans) {
            // Q^H = ts_{mt-1}^H ... ts_{k+1}^H geqrt_k^H: geqrt first.
            ge();
            for (int i = k + 1; i < mt; ++i)
                ts(i);
        } else {
            for (int i = mt - 1; i > k; --i)
                ts(i);
            ge();
        }
    };

    if (op == Op::ConjTrans) {
        for (int k = 0; k < nt; ++k)
            apply_panel(k);
    } else {
        for (int k = nt - 1; k >= 0; --k)
            apply_panel(k);
    }
    eng.op_fence();
}

}  // namespace tbp::la
