// Sequential tile-level Cholesky factorization.
//
// Two forms share the public entry point, as in level3.hh:
//   potrf_naive     - the original element loops, kept as the tested
//                     reference and used as the recursion's base case.
//   potrf_recursive - halves the tile until it is at most kernel::kTriBase
//                     (16): potrf on the leading half, trsm_recursive for the
//                     off-diagonal block, herk_recursive for the trailing
//                     update, potrf on the trailing half. All but the
//                     base-case diagonal blocks' flops run through the
//                     packed micro-kernel layer.
// The public entry runs the element loops whole at or below the base case
// and charges the call's flops exactly once. The inner GEMMs run at the
// kernel's own precision: a float tile under a bf16 execution mode is not
// truncated to bf16, as the element loops never were.

#pragma once

#include <cmath>

#include "blas/kernel/params.hh"
#include "blas/kernel/stats.hh"
#include "blas/level3.hh"
#include "common/error.hh"
#include "common/flops.hh"
#include "common/precision.hh"
#include "common/types.hh"
#include "matrix/tile.hh"

namespace tbp::blas {

/// Cholesky factorization of a Hermitian positive definite tile by the
/// element loops:
///   uplo == Lower: A = L * L^H, L overwrites the lower triangle.
///   uplo == Upper: A = U^H * U, U overwrites the upper triangle.
/// Throws tbp::Error if a non-positive pivot is met (matrix not HPD), as
/// xPOTRF reports via info > 0; QDWH relies on this signal never firing once
/// the iterate is well-conditioned.
template <typename T>
void potrf_naive(Uplo uplo, Tile<T> const& A) {
    using R = real_t<T>;
    int const n = A.mb();
    tbp_require(A.nb() == n);

    if (uplo == Uplo::Lower) {
        for (int j = 0; j < n; ++j) {
            R djj = real_part(A(j, j));
            for (int k = 0; k < j; ++k)
                djj -= abs_sq(A(j, k));
            if (!(djj > R(0)))
                tbp_throw("potrf: matrix is not positive definite");
            R const ljj = std::sqrt(djj);
            A(j, j) = from_real<T>(ljj);
            for (int i = j + 1; i < n; ++i) {
                T x = A(i, j);
                for (int k = 0; k < j; ++k)
                    x -= A(i, k) * conj_val(A(j, k));
                A(i, j) = x / from_real<T>(ljj);
            }
        }
    } else {
        for (int j = 0; j < n; ++j) {
            R djj = real_part(A(j, j));
            for (int k = 0; k < j; ++k)
                djj -= abs_sq(A(k, j));
            if (!(djj > R(0)))
                tbp_throw("potrf: matrix is not positive definite");
            R const ujj = std::sqrt(djj);
            A(j, j) = from_real<T>(ujj);
            for (int i = j + 1; i < n; ++i) {
                T x = A(j, i);
                for (int k = 0; k < j; ++k)
                    x -= conj_val(A(k, j)) * A(k, i);
                A(j, i) = x / from_real<T>(ujj);
            }
        }
    }
}

/// Recursive Cholesky (same contract as potrf_naive):
///   Lower: L11 = chol(A11), L21 = A21 L11^-H, L22 = chol(A22 - L21 L21^H)
///   Upper: U11 = chol(A11), U12 = U11^-H A12, U22 = chol(A22 - U12^H U12)
/// A non-positive pivot in either half throws from its base case.
template <typename T>
void potrf_recursive(Uplo uplo, Tile<T> const& A) {
    using R = real_t<T>;
    int const n = A.mb();
    tbp_require(A.nb() == n);
    if (n <= kernel::kTriBase) {
        potrf_naive(uplo, A);
        return;
    }
    int const n1 = n / 2, n2 = n - n1;
    auto const A11 = A.sub(0, 0, n1, n1);
    auto const A22 = A.sub(n1, n1, n2, n2);
    potrf_recursive(uplo, A11);
    if (uplo == Uplo::Lower) {
        auto const A21 = A.sub(n1, 0, n2, n1);
        trsm_recursive(Side::Right, Uplo::Lower, Op::ConjTrans, Diag::NonUnit,
                       T(1), A11, A21);
        herk_recursive(Uplo::Lower, Op::NoTrans, R(-1), A21, R(1), A22);
    } else {
        auto const A12 = A.sub(0, n1, n1, n2);
        trsm_recursive(Side::Left, Uplo::Upper, Op::ConjTrans, Diag::NonUnit,
                       T(1), A11, A12);
        herk_recursive(Uplo::Upper, Op::ConjTrans, R(-1), A12, R(1), A22);
    }
    potrf_recursive(uplo, A22);
}

template <typename T>
void potrf(Uplo uplo, Tile<T> const& A) {
    int const n = A.mb();
    tbp_require(A.nb() == n);
    {
        prec::ExecModeScope const native(prec::GemmMode::Native);
        if (n <= kernel::kTriBase)
            potrf_naive(uplo, A);
        else
            potrf_recursive(uplo, A);
    }
    kernel::count_flops(flops::potrf(n) * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

}  // namespace tbp::blas
