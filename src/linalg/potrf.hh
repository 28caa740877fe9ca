// Task-parallel tiled Cholesky factorization and positive-definite solve.
//
// Right-looking tile Cholesky: once a panel's trsm tiles are done, the
// trailing update tiles run concurrently with the next panel's potrf —
// SLATE's lookahead, obtained for free from the dataflow dependencies.

#pragma once

#include "blas/factor.hh"
#include "blas/gemm.hh"
#include "blas/level3.hh"
#include "common/flops.hh"
#include "common/types.hh"
#include "linalg/trsm.hh"
#include "matrix/tiled_matrix.hh"
#include "runtime/engine.hh"

namespace tbp::la {

/// Cholesky factorization A = L L^H (uplo == Lower) of a Hermitian positive
/// definite tiled matrix; L overwrites the lower triangle. Upper variant
/// factors A = U^H U. Throws tbp::Error via the tile kernel if A is not HPD.
/// `lookahead` promotes trailing updates into the next `lookahead` panel
/// columns onto the priority lane (see geqrf); 0 keeps the plain schedule.
template <typename T>
void potrf(rt::Engine& eng, Uplo uplo, TiledMatrix<T> A, int lookahead = 0) {
    int const nt = A.nt();
    tbp_require(A.mt() == nt);
    tbp_require(uplo == Uplo::Lower);  // QDWH needs Lower; Upper unimplemented
    auto upd_pr = [lookahead](int k, int j) {
        return (lookahead > 0 && j - k <= lookahead) ? 1 : 0;
    };

    for (int k = 0; k < nt; ++k) {
        double const fl_p = flops::potrf(A.tile_nb(k)) * (fma_flops<T>() / 2.0);
        // Panel tasks carry priority 1 (SLATE's `omp priority` on panels):
        // the k+1 panel chain must not starve behind trailing updates.
        eng.submit("potrf", fl_p, {rt::readwrite(A.tile_key(k, k))},
                   [A, k] { blas::potrf(Uplo::Lower, A.tile(k, k)); },
                   /*priority=*/1);

        for (int i = k + 1; i < nt; ++i) {
            double const fl = flops::trsm_right(A.tile_mb(i), A.tile_nb(k))
                              * (fma_flops<T>() / 2.0);
            eng.submit("trsm", fl,
                       {rt::read(A.tile_key(k, k)), rt::readwrite(A.tile_key(i, k))},
                       [A, i, k] {
                           blas::trsm(Side::Right, Uplo::Lower, Op::ConjTrans,
                                      Diag::NonUnit, T(1), A.tile(k, k),
                                      A.tile(i, k));
                       },
                       /*priority=*/1);
        }
        for (int j = k + 1; j < nt; ++j) {
            double const fl_h = flops::syrk(A.tile_nb(j), A.tile_nb(k))
                                * (fma_flops<T>() / 2.0);
            eng.submit("herk", fl_h,
                       {rt::read(A.tile_key(j, k)), rt::readwrite(A.tile_key(j, j))},
                       [A, j, k] {
                           blas::herk(Uplo::Lower, Op::NoTrans, real_t<T>(-1),
                                      A.tile(j, k), real_t<T>(1), A.tile(j, j));
                       },
                       upd_pr(k, j));
            for (int i = j + 1; i < nt; ++i) {
                double const fl =
                    flops::gemm(A.tile_mb(i), A.tile_nb(j), A.tile_nb(k))
                    * (fma_flops<T>() / 2.0);
                eng.submit("gemm", fl,
                           {rt::read(A.tile_key(i, k)), rt::read(A.tile_key(j, k)),
                            rt::readwrite(A.tile_key(i, j))},
                           [A, i, j, k] {
                               blas::gemm(Op::NoTrans, Op::ConjTrans, T(-1),
                                          A.tile(i, k), A.tile(j, k), T(1),
                                          A.tile(i, j));
                           },
                           upd_pr(k, j));
            }
        }
    }
    eng.op_fence();
}

/// Solve A X = B with A Hermitian positive definite: Cholesky factor, then
/// two triangular solves. A is overwritten by its factor, B by X.
template <typename T>
void posv(rt::Engine& eng, TiledMatrix<T> A, TiledMatrix<T> B,
          int lookahead = 0) {
    potrf(eng, Uplo::Lower, A, lookahead);
    trsm(eng, Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit, T(1), A, B);
    trsm(eng, Side::Left, Uplo::Lower, Op::ConjTrans, Diag::NonUnit, T(1), A, B);
}

}  // namespace tbp::la
