// Sequential tile-level GEMM.
//
// C := alpha * op(A) * op(B) + beta * C, with C m-by-n, op(A) m-by-k,
// op(B) k-by-n. This is the workhorse kernel every tiled algorithm calls per
// tile. Two implementations share the entry point:
//
//   gemm        - dispatcher: routes to the packed register-blocked
//                 micro-kernel layer (blas/kernel/) for non-trivial sizes,
//                 falls back to the naive loops below the crossover. Charges
//                 the call's flops to the measured-rate counter
//                 (kernel/stats.hh).
//   gemm_naive  - the original strided triple loop, kept as the reference
//                 both paths are tested against.
//
// Beta convention (BLAS semantics, both paths): beta == 0 stores T(0) into C
// unconditionally — C is write-only and pre-existing NaN/Inf in an
// uninitialized tile is cleared, never propagated via 0 * NaN. beta == 1
// leaves C untouched before accumulation.

#pragma once

#include <vector>

#include "blas/kernel/gemm.hh"
#include "blas/kernel/params.hh"
#include "blas/kernel/stats.hh"
#include "common/flops.hh"
#include "common/types.hh"
#include "matrix/tile.hh"

namespace tbp::blas {

template <typename T>
void gemm_naive(Op opA, Op opB, T alpha, Tile<T> const& A, Tile<T> const& B,
                T beta, Tile<T> const& C) {
    int const m = C.mb();
    int const n = C.nb();
    int const k = (opA == Op::NoTrans) ? A.nb() : A.mb();

    tbp_require(((opA == Op::NoTrans) ? A.mb() : A.nb()) == m);
    tbp_require(((opB == Op::NoTrans) ? B.mb() : B.nb()) == k);
    tbp_require(((opB == Op::NoTrans) ? B.nb() : B.mb()) == n);

    // Scale C by beta first so the accumulation loops are uniform.
    // beta == 0 stores zeros unconditionally (see header).
    kernel::scale_beta(beta, C);
    if (alpha == T(0) || k == 0)
        return;

    if (opA == Op::NoTrans && opB == Op::NoTrans) {
        // jli order: stream down columns of C and A.
        for (int j = 0; j < n; ++j) {
            for (int l = 0; l < k; ++l) {
                T const blj = alpha * B(l, j);
                if (blj == T(0))
                    continue;
                for (int i = 0; i < m; ++i)
                    C(i, j) += A(i, l) * blj;
            }
        }
    } else if (opA == Op::NoTrans) {
        // B accessed as op(B)(l, j) = op(B(j, l)).
        for (int j = 0; j < n; ++j) {
            for (int l = 0; l < k; ++l) {
                T const blj = alpha * apply_op(opB, B(j, l));
                if (blj == T(0))
                    continue;
                for (int i = 0; i < m; ++i)
                    C(i, j) += A(i, l) * blj;
            }
        }
    } else if (opB == Op::NoTrans) {
        // op(A)(i, l) = op(A(l, i)): dot products down columns of A and B.
        for (int j = 0; j < n; ++j) {
            for (int i = 0; i < m; ++i) {
                T sum(0);
                for (int l = 0; l < k; ++l)
                    sum += apply_op(opA, A(l, i)) * B(l, j);
                C(i, j) += alpha * sum;
            }
        }
    } else {
        for (int j = 0; j < n; ++j) {
            for (int i = 0; i < m; ++i) {
                T sum(0);
                for (int l = 0; l < k; ++l)
                    sum += apply_op(opA, A(l, i)) * apply_op(opB, B(j, l));
                C(i, j) += alpha * sum;
            }
        }
    }
}

/// Path selection without flop accounting — used by the blocked level-3
/// kernels whose public entry points charge their own (aggregate) counts.
/// A float-typed call under an active bf16 gemm mode always takes the
/// packed path: the bf16 truncation lives in the pack layer, so routing to
/// the naive loops below the crossover would silently run the "bf16" gemm
/// in full fp32.
template <typename T>
void gemm_dispatch(Op opA, Op opB, T alpha, Tile<T> const& A,
                   Tile<T> const& B, T beta, Tile<T> const& C) {
    if constexpr (std::is_same_v<real_t<T>, float>) {
        if (prec::exec_gemm_mode() != prec::GemmMode::Native) {
            kernel::gemm(opA, opB, alpha, A, B, beta, C);
            return;
        }
    }
    int const k = (opA == Op::NoTrans) ? A.nb() : A.mb();
    double const volume =
        static_cast<double>(C.mb()) * C.nb() * static_cast<double>(k);
    if (volume < kernel::kGemmCrossover)
        gemm_naive(opA, opB, alpha, A, B, beta, C);
    else
        kernel::gemm(opA, opB, alpha, A, B, beta, C);
}

template <typename T>
void gemm(Op opA, Op opB, T alpha, Tile<T> const& A, Tile<T> const& B,
          T beta, Tile<T> const& C) {
    gemm_dispatch(opA, opB, alpha, A, B, beta, C);
    int const k = (opA == Op::NoTrans) ? A.nb() : A.mb();
    kernel::count_flops(flops::gemm(C.mb(), C.nb(), k)
                        * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

/// Matrix-vector style product used by gemmA reductions: y := alpha op(A) x
/// + beta y, where x, y are dense column tiles (nb == 1 allowed but general).
template <typename T>
void gemv(Op opA, T alpha, Tile<T> const& A, T const* x, T beta, T* y) {
    int const m = (opA == Op::NoTrans) ? A.mb() : A.nb();
    int const n = (opA == Op::NoTrans) ? A.nb() : A.mb();
    for (int i = 0; i < m; ++i)
        y[i] = (beta == T(0)) ? T(0) : beta * y[i];
    if (opA == Op::NoTrans) {
        for (int j = 0; j < n; ++j) {
            T const xj = alpha * x[j];
            for (int i = 0; i < m; ++i)
                y[i] += A(i, j) * xj;
        }
    } else {
        for (int i = 0; i < m; ++i) {
            T sum(0);
            for (int j = 0; j < n; ++j)
                sum += apply_op(opA, A(j, i)) * x[j];
            y[i] += alpha * sum;
        }
    }
    kernel::count_flops(flops::gemm(m, n, 1) * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

}  // namespace tbp::blas
