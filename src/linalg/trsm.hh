// Task-parallel tiled triangular solve with multiple right-hand sides.
//
// Supports both sides, both triangles and all ops; QDWH uses
//   Right/Lower/ConjTrans + Right/Lower/NoTrans   (A := A Z^-1 via chol(Z))
//   Left/Lower/{NoTrans,ConjTrans}                (posv solves)
//   Left/Upper/{NoTrans,ConjTrans}                (trcondest solves with R)
// The triangular matrix A must be square at the tile level; only tiles in
// its `uplo` triangle are referenced.

#pragma once

#include <vector>

#include "blas/gemm.hh"
#include "blas/level3.hh"
#include "blas/util.hh"
#include "common/flops.hh"
#include "common/types.hh"
#include "matrix/tiled_matrix.hh"
#include "runtime/engine.hh"

namespace tbp::la {

template <typename T>
void trsm(rt::Engine& eng, Side side, Uplo uplo, Op op, Diag diag, T alpha,
          TiledMatrix<T> A, TiledMatrix<T> B) {
    int const mt = B.mt();
    int const nt = B.nt();
    int const at = (side == Side::Left) ? mt : nt;
    tbp_require(A.mt() == at && A.nt() == at);

    // Tile of op(A) at block position (i, j), and whether op(A) is
    // effectively upper triangular.
    bool const eff_upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);
    auto a_tile = [A, op](int i, int j) {
        return (op == Op::NoTrans) ? A.tile(i, j) : A.tile(j, i);
    };
    auto a_key = [A, op](int i, int j) {
        return (op == Op::NoTrans) ? A.tile_key(i, j) : A.tile_key(j, i);
    };

    if (alpha != T(1)) {
        for (int j = 0; j < nt; ++j)
            for (int i = 0; i < mt; ++i)
                eng.submit("trsm_scale", {rt::readwrite(B.tile_key(i, j))},
                           [B, alpha, i, j] { blas::scale(alpha, B.tile(i, j)); });
    }

    if (side == Side::Left) {
        // Solve op(A) X = B. Left-looking over block rows of B.
        auto solve_row = [&](int k) {
            for (int j = 0; j < nt; ++j) {
                double const fl = flops::trsm_left(B.tile_mb(k), B.tile_nb(j))
                                  * (fma_flops<T>() / 2.0);
                // Diagonal-block solves form the critical chain; priority 1
                // keeps them ahead of the trsm_gemm trailing updates.
                eng.submit("trsm", fl,
                           {rt::read(a_key(k, k)), rt::readwrite(B.tile_key(k, j))},
                           [=] {
                               blas::trsm(Side::Left, uplo, op, diag, T(1),
                                          a_tile(k, k), B.tile(k, j));
                           },
                           /*priority=*/1);
            }
        };
        auto update_row = [&](int i, int k) {
            // B(i, :) -= op(A)(i, k) * B(k, :)
            for (int j = 0; j < nt; ++j) {
                double const fl =
                    flops::gemm(B.tile_mb(i), B.tile_nb(j), B.tile_mb(k))
                    * (fma_flops<T>() / 2.0);
                eng.submit("trsm_gemm", fl,
                           {rt::read(a_key(i, k)), rt::read(B.tile_key(k, j)),
                            rt::readwrite(B.tile_key(i, j))},
                           [=] {
                               blas::gemm(op, Op::NoTrans, T(-1), a_tile(i, k),
                                          B.tile(k, j), T(1), B.tile(i, j));
                           });
            }
        };
        if (!eff_upper) {
            for (int k = 0; k < mt; ++k) {
                solve_row(k);
                for (int i = k + 1; i < mt; ++i)
                    update_row(i, k);
            }
        } else {
            for (int k = mt - 1; k >= 0; --k) {
                solve_row(k);
                for (int i = k - 1; i >= 0; --i)
                    update_row(i, k);
            }
        }
    } else {
        // Solve X op(A) = B. Left-looking over block columns of B.
        auto solve_col = [&](int k) {
            for (int i = 0; i < mt; ++i) {
                double const fl = flops::trsm_right(B.tile_mb(i), B.tile_nb(k))
                                  * (fma_flops<T>() / 2.0);
                eng.submit("trsm", fl,
                           {rt::read(a_key(k, k)), rt::readwrite(B.tile_key(i, k))},
                           [=] {
                               blas::trsm(Side::Right, uplo, op, diag, T(1),
                                          a_tile(k, k), B.tile(i, k));
                           },
                           /*priority=*/1);
            }
        };
        auto update_col = [&](int j, int k) {
            // B(:, j) -= B(:, k) * op(A)(k, j)
            for (int i = 0; i < mt; ++i) {
                double const fl =
                    flops::gemm(B.tile_mb(i), B.tile_nb(j), B.tile_nb(k))
                    * (fma_flops<T>() / 2.0);
                eng.submit("trsm_gemm", fl,
                           {rt::read(a_key(k, j)), rt::read(B.tile_key(i, k)),
                            rt::readwrite(B.tile_key(i, j))},
                           [=] {
                               blas::gemm(Op::NoTrans, op, T(-1), B.tile(i, k),
                                          a_tile(k, j), T(1), B.tile(i, j));
                           });
            }
        };
        if (eff_upper) {
            for (int k = 0; k < nt; ++k) {
                solve_col(k);
                for (int j = k + 1; j < nt; ++j)
                    update_col(j, k);
            }
        } else {
            for (int k = nt - 1; k >= 0; --k) {
                solve_col(k);
                for (int j = k - 1; j >= 0; --j)
                    update_col(j, k);
            }
        }
    }
    eng.op_fence();
}

}  // namespace tbp::la
