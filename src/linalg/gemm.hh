// Task-parallel tiled matrix-matrix multiply, plus the gemmA variant of
// Section 6.2 (tall A times skinny B with a reduction into the small C).

#pragma once

#include <memory>
#include <vector>

#include "blas/gemm.hh"
#include "blas/level3.hh"
#include "blas/util.hh"
#include "common/flops.hh"
#include "common/types.hh"
#include "matrix/tiled_matrix.hh"
#include "runtime/engine.hh"

namespace tbp::la {

/// C := alpha * op(A) * op(B) + beta * C.
///
/// One task per C tile performs its full k-accumulation; parallelism comes
/// from the mt x nt independent C tiles, matching SLATE's gemm structure.
/// Tile boundaries of op(A), op(B) and C must conform.
template <typename T>
void gemm(rt::Engine& eng, Op opA, Op opB, T alpha, TiledMatrix<T> A,
          TiledMatrix<T> B, T beta, TiledMatrix<T> C) {
    int const mt = C.mt();
    int const nt = C.nt();
    int const kt = (opA == Op::NoTrans) ? A.nt() : A.mt();
    tbp_require(((opA == Op::NoTrans) ? A.mt() : A.nt()) == mt);
    tbp_require(((opB == Op::NoTrans) ? B.mt() : B.nt()) == kt);
    tbp_require(((opB == Op::NoTrans) ? B.nt() : B.mt()) == nt);

    for (int j = 0; j < nt; ++j) {
        for (int i = 0; i < mt; ++i) {
            std::vector<rt::Access> acc;
            acc.reserve(static_cast<size_t>(2 * kt) + 1);
            double fl = 0;
            for (int l = 0; l < kt; ++l) {
                acc.push_back(rt::read(
                    opA == Op::NoTrans ? A.tile_key(i, l) : A.tile_key(l, i)));
                acc.push_back(rt::read(
                    opB == Op::NoTrans ? B.tile_key(l, j) : B.tile_key(j, l)));
                int const kk = (opA == Op::NoTrans) ? A.tile_nb(l) : A.tile_mb(l);
                fl += flops::gemm(C.tile_mb(i), C.tile_nb(j), kk)
                      * (fma_flops<T>() / 2.0);
            }
            acc.push_back(beta == T(0) ? rt::write(C.tile_key(i, j))
                                       : rt::readwrite(C.tile_key(i, j)));
            eng.submit("gemm", fl, std::move(acc),
                       [=] {
                           T b = beta;
                           for (int l = 0; l < kt; ++l) {
                               auto at = (opA == Op::NoTrans) ? A.tile(i, l)
                                                              : A.tile(l, i);
                               auto bt = (opB == Op::NoTrans) ? B.tile(l, j)
                                                              : B.tile(j, l);
                               blas::gemm(opA, opB, alpha, at, bt, b, C.tile(i, j));
                               b = T(1);
                           }
                       });
        }
    }
    eng.op_fence();
}

/// C := alpha * A * B^H + beta * C where B is block UPPER triangular:
/// tiles (j, l) with l < j are structurally zero and never read. This is
/// the Q1 Q2^H update of the structured QDWH iterate — Q2 = R^{-1} is
/// upper triangular, so block column j of C only sums over l >= j, halving
/// the gemm flops (2n^3 -> n^3) relative to the dense product.
template <typename T>
void gemm_rt_upper(rt::Engine& eng, T alpha, TiledMatrix<T> A,
                   TiledMatrix<T> B, T beta, TiledMatrix<T> C) {
    int const mt = C.mt();
    int const nt = C.nt();
    int const kt = A.nt();
    tbp_require(A.mt() == mt && B.mt() == nt && B.nt() == kt);

    for (int j = 0; j < nt; ++j) {
        for (int i = 0; i < mt; ++i) {
            std::vector<rt::Access> acc;
            acc.reserve(static_cast<size_t>(2 * (kt - j)) + 1);
            double fl = 0;
            for (int l = j; l < kt; ++l) {
                acc.push_back(rt::read(A.tile_key(i, l)));
                acc.push_back(rt::read(B.tile_key(j, l)));
                fl += flops::gemm(C.tile_mb(i), C.tile_nb(j), A.tile_nb(l))
                      * (fma_flops<T>() / 2.0);
            }
            acc.push_back(beta == T(0) ? rt::write(C.tile_key(i, j))
                                       : rt::readwrite(C.tile_key(i, j)));
            eng.submit("gemm", fl, std::move(acc),
                       [=] {
                           T b = beta;
                           for (int l = j; l < kt; ++l) {
                               blas::gemm(Op::NoTrans, Op::ConjTrans, alpha,
                                          A.tile(i, l), B.tile(j, l), b,
                                          C.tile(i, j));
                               b = T(1);
                           }
                       });
        }
    }
    eng.op_fence();
}

/// Out-of-place variant: C := alpha * A * B^H + beta * D with the same
/// block-upper-triangular B, D and C conforming and distinct. QDWH's QR
/// update uses this to write A_k into the spare rotation buffer while
/// A_{k-1} (= D) survives untouched for the convergence check — no
/// per-iteration copy sweep.
template <typename T>
void gemm_rt_upper(rt::Engine& eng, T alpha, TiledMatrix<T> A,
                   TiledMatrix<T> B, T beta, TiledMatrix<T> D,
                   TiledMatrix<T> C) {
    int const mt = C.mt();
    int const nt = C.nt();
    int const kt = A.nt();
    tbp_require(A.mt() == mt && B.mt() == nt && B.nt() == kt);
    tbp_require(D.mt() == mt && D.nt() == nt);

    for (int j = 0; j < nt; ++j) {
        for (int i = 0; i < mt; ++i) {
            std::vector<rt::Access> acc;
            acc.reserve(static_cast<size_t>(2 * (kt - j)) + 2);
            double fl = 0;
            for (int l = j; l < kt; ++l) {
                acc.push_back(rt::read(A.tile_key(i, l)));
                acc.push_back(rt::read(B.tile_key(j, l)));
                fl += flops::gemm(C.tile_mb(i), C.tile_nb(j), A.tile_nb(l))
                      * (fma_flops<T>() / 2.0);
            }
            acc.push_back(rt::read(D.tile_key(i, j)));
            acc.push_back(rt::write(C.tile_key(i, j)));
            eng.submit("gemm", fl, std::move(acc),
                       [=] {
                           blas::copy(D.tile(i, j), C.tile(i, j));
                           blas::scale(beta, C.tile(i, j));
                           for (int l = j; l < kt; ++l)
                               blas::gemm(Op::NoTrans, Op::ConjTrans, alpha,
                                          A.tile(i, l), B.tile(j, l), T(1),
                                          C.tile(i, j));
                       });
        }
    }
    eng.op_fence();
}

/// gemmA (paper Section 6.2): C := alpha * op(A) * B + beta * C where C is
/// small relative to A (in QDWH's norm2est, B and C are single-column
/// vectors). A plain tiled gemm would expose only C.mt x C.nt = O(mt) tasks
/// with long serial k-chains; gemmA instead computes per-(i, l) partial
/// products into a private workspace ("tiles of B are sent to where the
/// tiles of A reside") and then reduces the partials into each C tile
/// ("parallel reduction to where the output C tiles reside").
template <typename T>
void gemmA(rt::Engine& eng, Op opA, T alpha, TiledMatrix<T> A,
           TiledMatrix<T> B, T beta, TiledMatrix<T> C) {
    int const mt = C.mt();
    int const nt = C.nt();
    int const kt = (opA == Op::NoTrans) ? A.nt() : A.mt();
    tbp_require(((opA == Op::NoTrans) ? A.mt() : A.nt()) == mt);
    tbp_require(B.mt() == kt && B.nt() == nt);

    for (int j = 0; j < nt; ++j) {
        for (int i = 0; i < mt; ++i) {
            int const mb = C.tile_mb(i);
            int const nb = C.tile_nb(j);

            // Workspace of kt partial tiles; shared_ptr keeps it alive
            // across the partial tasks and the reduction task.
            auto work = std::make_shared<std::vector<T>>(
                static_cast<size_t>(kt) * mb * nb);

            for (int l = 0; l < kt; ++l) {
                auto a_key = (opA == Op::NoTrans) ? A.tile_key(i, l)
                                                  : A.tile_key(l, i);
                int const kk = (opA == Op::NoTrans) ? A.tile_nb(l) : A.tile_mb(l);
                double const fl =
                    flops::gemm(mb, nb, kk) * (fma_flops<T>() / 2.0);
                eng.submit(
                    "gemmA_part", fl,
                    {rt::read(a_key), rt::read(B.tile_key(l, j)),
                     rt::write(work->data() + static_cast<size_t>(l) * mb * nb)},
                    [=] {
                        Tile<T> wt(work->data() + static_cast<size_t>(l) * mb * nb,
                                   mb, nb, mb);
                        auto at = (opA == Op::NoTrans) ? A.tile(i, l) : A.tile(l, i);
                        blas::gemm(opA, Op::NoTrans, alpha, at, B.tile(l, j),
                                   T(0), wt);
                    });
            }

            // Reduction into the C tile.
            std::vector<rt::Access> acc;
            for (int l = 0; l < kt; ++l)
                acc.push_back(rt::read(work->data() + static_cast<size_t>(l) * mb * nb));
            acc.push_back(beta == T(0) ? rt::write(C.tile_key(i, j))
                                       : rt::readwrite(C.tile_key(i, j)));
            // The reduction gates everything downstream of C (norm2est's
            // power-iteration chain); run it ahead of unrelated updates.
            eng.submit("gemmA_reduce", 0.0, std::move(acc), [=] {
                auto ct = C.tile(i, j);
                for (int c = 0; c < nb; ++c)
                    for (int r = 0; r < mb; ++r)
                        ct(r, c) = (beta == T(0)) ? T(0) : beta * ct(r, c);
                for (int l = 0; l < kt; ++l) {
                    Tile<T> wt(work->data() + static_cast<size_t>(l) * mb * nb,
                               mb, nb, mb);
                    for (int c = 0; c < nb; ++c)
                        for (int r = 0; r < mb; ++r)
                            ct(r, c) += wt(r, c);
                }
            },
            /*priority=*/1);
        }
    }
    eng.op_fence();
}

/// Hermitian rank-k update on the tiled level:
///   op == NoTrans:   C := alpha A A^H + beta C   (A is C.mt x kt)
///   op == ConjTrans: C := alpha A^H A + beta C   (A is kt x C.mt)
/// Only the `uplo` triangle of C is updated. alpha, beta real (herk).
template <typename T>
void herk(rt::Engine& eng, Uplo uplo, Op op, real_t<T> alpha, TiledMatrix<T> A,
          real_t<T> beta, TiledMatrix<T> C) {
    int const nt = C.nt();
    tbp_require(C.mt() == nt);
    int const kt = (op == Op::NoTrans) ? A.nt() : A.mt();
    tbp_require(((op == Op::NoTrans) ? A.mt() : A.nt()) == nt);

    for (int j = 0; j < nt; ++j) {
        int const ilo = (uplo == Uplo::Lower) ? j : 0;
        int const ihi = (uplo == Uplo::Lower) ? nt : j + 1;
        for (int i = ilo; i < ihi; ++i) {
            std::vector<rt::Access> acc;
            double fl = 0;
            for (int l = 0; l < kt; ++l) {
                acc.push_back(rt::read(
                    op == Op::NoTrans ? A.tile_key(i, l) : A.tile_key(l, i)));
                if (i != j)
                    acc.push_back(rt::read(
                        op == Op::NoTrans ? A.tile_key(j, l) : A.tile_key(l, j)));
                int const kk = (op == Op::NoTrans) ? A.tile_nb(l) : A.tile_mb(l);
                fl += (i == j ? flops::syrk(C.tile_mb(i), kk)
                              : flops::gemm(C.tile_mb(i), C.tile_nb(j), kk))
                      * (fma_flops<T>() / 2.0);
            }
            acc.push_back(rt::readwrite(C.tile_key(i, j)));
            eng.submit("herk", fl, std::move(acc), [=] {
                real_t<T> b = beta;
                for (int l = 0; l < kt; ++l) {
                    if (i == j) {
                        auto at = (op == Op::NoTrans) ? A.tile(i, l) : A.tile(l, i);
                        blas::herk(uplo, op, alpha, at, b, C.tile(i, j));
                    } else {
                        // Off-diagonal tile: general product of the two
                        // distinct block rows (or columns) of A.
                        if (op == Op::NoTrans) {
                            blas::gemm(Op::NoTrans, Op::ConjTrans,
                                       from_real<T>(alpha), A.tile(i, l),
                                       A.tile(j, l), from_real<T>(b),
                                       C.tile(i, j));
                        } else {
                            blas::gemm(Op::ConjTrans, Op::NoTrans,
                                       from_real<T>(alpha), A.tile(l, i),
                                       A.tile(l, j), from_real<T>(b),
                                       C.tile(i, j));
                        }
                    }
                    b = real_t<T>(1);
                }
            });
        }
    }
    eng.op_fence();
}

}  // namespace tbp::la
