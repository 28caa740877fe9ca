// Sequential tile-level triangular and rank-k kernels: herk/syrk, trsm, and
// trmm_naive (the Householder appliers' T-factor product).
//
// Conventions follow BLAS: only the `uplo` triangle of Hermitian results is
// referenced, triangular solves overwrite the right-hand side, and `Diag`
// selects an implicit unit diagonal.
//
// herk and trsm exist in two forms sharing one public entry point:
//   *_naive     - the original element loops, kept as the tested reference.
//   *_recursive - halves the triangular dimension until it is at most
//                 kernel::kTriBase (16), with one GEMM update between the
//                 halves routed through the packed micro-kernel layer
//                 (blas/kernel/). About kTriBase / n of trsm's flops (a
//                 quarter at n = 64) sit in the base-case diagonal blocks,
//                 which trsm_base solves: it packs op(A) with its reciprocal
//                 diagonal once and, for right-hand sides on the right,
//                 hands it to the register-blocked kernel::trsm_right_upper
//                 (compiled at -O3 with the micro-kernels), so the base
//                 case runs vectorized and divides nowhere. herk computes
//                 each diagonal block by GEMM into an arena workspace and
//                 merges only its triangle, so all its flops are GEMM flops.
// A tile at or below the base case runs the naive loops whole; the public
// entry charges the call's flops to the measured-rate counter either way.
// The recursive Cholesky (factor.hh) is built from trsm_recursive and
// herk_recursive.
//
// Precision: under a bf16 execution mode (prec::exec_gemm_mode) the GEMM
// updates inside these kernels are truncated to bf16 at pack, like any other
// float gemm; only the base cases run in fp32. Before the recursion,
// a 64-wide tile ran entirely in the naive fp32 loops while charge_prec
// already charged its flops as bf16.

#pragma once

#include "blas/gemm.hh"
#include "blas/kernel/arena.hh"
#include "blas/kernel/microkernel.hh"
#include "blas/kernel/params.hh"
#include "blas/kernel/stats.hh"
#include "common/flops.hh"
#include "common/types.hh"
#include "matrix/tile.hh"

namespace tbp::blas {

/// Hermitian rank-k update.
///   op == NoTrans:   C := alpha * A * A^H + beta * C,  A n-by-k
///   op == ConjTrans: C := alpha * A^H * A + beta * C,  A k-by-n
/// alpha, beta are real; for real T this is syrk.
template <typename T>
void herk_naive(Uplo uplo, Op op, real_t<T> alpha, Tile<T> const& A,
                real_t<T> beta, Tile<T> const& C) {
    int const n = C.mb();
    tbp_require(C.nb() == n);
    int const k = (op == Op::NoTrans) ? A.nb() : A.mb();
    tbp_require(((op == Op::NoTrans) ? A.mb() : A.nb()) == n);

    auto a = [&](int i, int l) -> T {
        return (op == Op::NoTrans) ? A(i, l) : conj_val(A(l, i));
    };

    for (int j = 0; j < n; ++j) {
        int const ilo = (uplo == Uplo::Lower) ? j : 0;
        int const ihi = (uplo == Uplo::Lower) ? n : j + 1;
        for (int i = ilo; i < ihi; ++i) {
            T sum(0);
            for (int l = 0; l < k; ++l)
                sum += a(i, l) * conj_val(a(j, l));
            T c0 = (beta == real_t<T>(0)) ? T(0) : from_real<T>(beta) * C(i, j);
            C(i, j) = c0 + from_real<T>(alpha) * sum;
            if (i == j) {
                // Force an exactly real diagonal, as zherk does.
                C(i, j) = from_real<T>(real_part(C(i, j)));
            }
        }
    }
}

/// Recursive herk: the off-diagonal block between the two halves is one
/// GEMM; a diagonal block at the base case is computed whole by GEMM into
/// the arena's kWork0 slot, and only its `uplo` triangle is merged into C,
/// with the diagonal forced exactly real as in herk_naive.
template <typename T>
void herk_recursive(Uplo uplo, Op op, real_t<T> alpha, Tile<T> const& A,
                    real_t<T> beta, Tile<T> const& C) {
    int const n = C.mb();
    tbp_require(C.nb() == n);
    int const k = (op == Op::NoTrans) ? A.nb() : A.mb();
    tbp_require(((op == Op::NoTrans) ? A.mb() : A.nb()) == n);

    Op const opa = (op == Op::NoTrans) ? Op::NoTrans : Op::ConjTrans;
    Op const opb = (op == Op::NoTrans) ? Op::ConjTrans : Op::NoTrans;
    T const al = from_real<T>(alpha);
    T const be = from_real<T>(beta);
    if (n <= kernel::kTriBase) {
        Tile<T> W(kernel::tls_arena<T>().get(
                      kernel::kWork0, static_cast<std::size_t>(n) * n),
                  n, n, n);
        gemm_dispatch(opa, opb, al, A, A, T(0), W);
        for (int j = 0; j < n; ++j) {
            int const ilo = (uplo == Uplo::Lower) ? j : 0;
            int const ihi = (uplo == Uplo::Lower) ? n : j + 1;
            for (int i = ilo; i < ihi; ++i) {
                T const c0 = (beta == real_t<T>(0)) ? T(0) : be * C(i, j);
                C(i, j) = c0 + W(i, j);
            }
            C(j, j) = from_real<T>(real_part(C(j, j)));
        }
        return;
    }

    // Rows [r0, r0 + rn) of op(A), as the stored block.
    auto rows = [&](int r0, int rn) {
        return (op == Op::NoTrans) ? A.sub(r0, 0, rn, k) : A.sub(0, r0, k, rn);
    };
    int const n1 = n / 2, n2 = n - n1;
    herk_recursive(uplo, op, alpha, rows(0, n1), beta, C.sub(0, 0, n1, n1));
    if (uplo == Uplo::Lower)
        gemm_dispatch(opa, opb, al, rows(n1, n2), rows(0, n1), be,
                      C.sub(n1, 0, n2, n1));
    else
        gemm_dispatch(opa, opb, al, rows(0, n1), rows(n1, n2), be,
                      C.sub(0, n1, n1, n2));
    herk_recursive(uplo, op, alpha, rows(n1, n2), beta, C.sub(n1, n1, n2, n2));
}

template <typename T>
void herk(Uplo uplo, Op op, real_t<T> alpha, Tile<T> const& A,
          real_t<T> beta, Tile<T> const& C) {
    int const n = C.mb();
    int const k = (op == Op::NoTrans) ? A.nb() : A.mb();
    if (n <= kernel::kTriBase)
        herk_naive(uplo, op, alpha, A, beta, C);
    else
        herk_recursive(uplo, op, alpha, A, beta, C);
    kernel::count_flops(flops::syrk(n, k) * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

/// Triangular solve with multiple right-hand sides.
///   side == Left:  solve op(A) * X = alpha * B,  A m-by-m, B m-by-n
///   side == Right: solve X * op(A) = alpha * B,  A n-by-n, B m-by-n
/// X overwrites B.
template <typename T>
void trsm_naive(Side side, Uplo uplo, Op op, Diag diag, T alpha,
                Tile<T> const& A, Tile<T> const& B) {
    int const m = B.mb();
    int const n = B.nb();
    int const na = (side == Side::Left) ? m : n;
    tbp_require(A.mb() == na && A.nb() == na);

    // Element of op(A).
    auto a = [&](int i, int j) -> T {
        return (op == Op::NoTrans) ? A(i, j) : apply_op(op, A(j, i));
    };
    // Is op(A) effectively upper triangular?
    bool const eff_upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);

    if (alpha != T(1)) {
        for (int j = 0; j < n; ++j)
            for (int i = 0; i < m; ++i)
                B(i, j) = (alpha == T(0)) ? T(0) : alpha * B(i, j);
    }

    if (side == Side::Left) {
        for (int j = 0; j < n; ++j) {
            if (!eff_upper) {
                for (int i = 0; i < m; ++i) {
                    T x = B(i, j);
                    for (int l = 0; l < i; ++l)
                        x -= a(i, l) * B(l, j);
                    B(i, j) = (diag == Diag::Unit) ? x : x / a(i, i);
                }
            } else {
                for (int i = m - 1; i >= 0; --i) {
                    T x = B(i, j);
                    for (int l = i + 1; l < m; ++l)
                        x -= a(i, l) * B(l, j);
                    B(i, j) = (diag == Diag::Unit) ? x : x / a(i, i);
                }
            }
        }
    } else {
        // X * op(A) = B: column j of B couples X columns l with a(l, j) != 0.
        if (eff_upper) {
            for (int j = 0; j < n; ++j) {
                for (int l = 0; l < j; ++l) {
                    T const alj = a(l, j);
                    if (alj == T(0))
                        continue;
                    for (int i = 0; i < m; ++i)
                        B(i, j) -= B(i, l) * alj;
                }
                if (diag == Diag::NonUnit) {
                    T const d = a(j, j);
                    for (int i = 0; i < m; ++i)
                        B(i, j) /= d;
                }
            }
        } else {
            for (int j = n - 1; j >= 0; --j) {
                for (int l = j + 1; l < n; ++l) {
                    T const alj = a(l, j);
                    if (alj == T(0))
                        continue;
                    for (int i = 0; i < m; ++i)
                        B(i, j) -= B(i, l) * alj;
                }
                if (diag == Diag::NonUnit) {
                    T const d = a(j, j);
                    for (int i = 0; i < m; ++i)
                        B(i, j) /= d;
                }
            }
        }
    }
}

namespace detail {

/// The stored block of A whose op() is op(A)(i0:i0+mi, j0:j0+nj).
template <typename T>
Tile<T> op_sub(Op op, Tile<T> const& A, int i0, int j0, int mi, int nj) {
    return (op == Op::NoTrans) ? A.sub(i0, j0, mi, nj) : A.sub(j0, i0, nj, mi);
}

}  // namespace detail

/// Base case of trsm_recursive (triangular dimension na <= kTriBase), same
/// contract as trsm_naive. op(A) is packed once into a column-major
/// kTriBase^2 buffer with the conjugation applied and the diagonal replaced
/// by its reciprocals, so the solve divides nowhere. On the right (all of
/// QDWH's solves) the packed triangle goes to kernel::trsm_right_upper,
/// which keeps blocks of B's rows in vector registers; an effectively lower
/// op(A) is packed reversed and solved over B's columns backwards. On the
/// left each column of B is a forward or backward substitution by column
/// axpys of length below na.
template <typename T>
void trsm_base(Side side, Uplo uplo, Op op, Diag diag, T alpha,
               Tile<T> const& A, Tile<T> const& B) {
    constexpr int K = kernel::kTriBase;
    int const m = B.mb();
    int const n = B.nb();
    bool const left = (side == Side::Left);
    int const na = left ? m : n;
    tbp_require(A.mb() == na && A.nb() == na && na <= K);
    bool const eff_upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);
    // The right side's lower case runs reversed: u(i, j) = op(A)(r(i), r(j)).
    bool const reverse = !left && !eff_upper;
    auto r = [&](int i) { return reverse ? na - 1 - i : i; };
    auto opa = [&](int i, int j) {
        return (op == Op::NoTrans) ? A(i, j) : apply_op(op, A(j, i));
    };

    // u = the effective triangle of op(A) (upper unless on the left with a
    // lower op(A)), reciprocal diagonal (1 for a unit diagonal).
    T u[K * K];
    bool const pack_upper = eff_upper || reverse;
    for (int j = 0; j < na; ++j) {
        int const ilo = pack_upper ? 0 : j + 1;
        int const ihi = pack_upper ? j : na;
        for (int i = ilo; i < ihi; ++i)
            u[i + j * K] = opa(r(i), r(j));
        u[j + j * K] =
            (diag == Diag::Unit) ? T(1) : T(1) / opa(r(j), r(j));
    }

    if (alpha != T(1)) {
        for (int j = 0; j < n; ++j)
            for (int i = 0; i < m; ++i)
                B(i, j) = (alpha == T(0)) ? T(0) : alpha * B(i, j);
    }

    if (!left) {
        std::ptrdiff_t const ld = B.ld();
        kernel::trsm_right_upper(m, n, u, &B(0, reverse ? n - 1 : 0),
                                 reverse ? -ld : ld);
        return;
    }
    for (int j = 0; j < n; ++j) {
        T* b = &B(0, j);
        if (!eff_upper) {
            for (int l = 0; l < m; ++l) {
                T const x = b[l] * u[l + l * K];
                b[l] = x;
                for (int i = l + 1; i < m; ++i)
                    b[i] -= u[i + l * K] * x;
            }
        } else {
            for (int l = m - 1; l >= 0; --l) {
                T const x = b[l] * u[l + l * K];
                b[l] = x;
                for (int i = 0; i < l; ++i)
                    b[i] -= u[i + l * K] * x;
            }
        }
    }
}

/// Recursive trsm: solve with the half of op(A) that comes first in the
/// substitution order, fold the solution into the other half's right-hand
/// sides with one GEMM (whose beta applies alpha to that half), then solve
/// with the other half at alpha = 1. Base case: trsm_base.
template <typename T>
void trsm_recursive(Side side, Uplo uplo, Op op, Diag diag, T alpha,
                    Tile<T> const& A, Tile<T> const& B) {
    int const m = B.mb();
    int const n = B.nb();
    bool const left = (side == Side::Left);
    int const na = left ? m : n;
    tbp_require(A.mb() == na && A.nb() == na);
    if (na <= kernel::kTriBase) {
        trsm_base(side, uplo, op, diag, alpha, A, B);
        return;
    }

    // The leading half goes first for an effectively lower op(A) on the
    // left and an effectively upper one on the right: [f0, f0 + fn) is
    // solved first, [s0, s0 + sn) second.
    bool const eff_upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);
    bool const leading_first = left != eff_upper;
    int const n1 = na / 2;
    int const f0 = leading_first ? 0 : n1, fn = leading_first ? n1 : na - n1;
    int const s0 = leading_first ? n1 : 0, sn = na - fn;
    auto rhs = [&](int i0, int in) {
        return left ? B.sub(i0, 0, in, n) : B.sub(0, i0, m, in);
    };

    trsm_recursive(side, uplo, op, diag, alpha, A.sub(f0, f0, fn, fn),
                   rhs(f0, fn));
    if (left)
        gemm_dispatch(op, Op::NoTrans, T(-1),
                      detail::op_sub(op, A, s0, f0, sn, fn), rhs(f0, fn),
                      alpha, rhs(s0, sn));
    else
        gemm_dispatch(Op::NoTrans, op, T(-1), rhs(f0, fn),
                      detail::op_sub(op, A, f0, s0, fn, sn), alpha,
                      rhs(s0, sn));
    trsm_recursive(side, uplo, op, diag, T(1), A.sub(s0, s0, sn, sn),
                   rhs(s0, sn));
}

template <typename T>
void trsm(Side side, Uplo uplo, Op op, Diag diag, T alpha,
          Tile<T> const& A, Tile<T> const& B) {
    int const m = B.mb();
    int const n = B.nb();
    int const na = (side == Side::Left) ? m : n;
    if (na <= kernel::kTriBase)
        trsm_naive(side, uplo, op, diag, alpha, A, B);
    else
        trsm_recursive(side, uplo, op, diag, alpha, A, B);
    kernel::count_flops((side == Side::Left ? flops::trsm_left(m, n)
                                            : flops::trsm_right(m, n))
                        * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

/// Triangular matrix-matrix multiply, left side only (all TBP call sites):
///   B := alpha * op(A) * B,  A m-by-m triangular, B m-by-n.
/// Element loops only: its one caller, the Householder appliers' T-factor
/// product, uses it at or below kernel::kTriBase and a GEMM above.
template <typename T>
void trmm_naive(Uplo uplo, Op op, Diag diag, T alpha, Tile<T> const& A,
                Tile<T> const& B) {
    int const m = B.mb();
    int const n = B.nb();
    tbp_require(A.mb() == m && A.nb() == m);

    auto a = [&](int i, int j) -> T {
        return (op == Op::NoTrans) ? A(i, j) : apply_op(op, A(j, i));
    };
    bool const eff_upper = (uplo == Uplo::Upper) == (op == Op::NoTrans);

    for (int j = 0; j < n; ++j) {
        if (eff_upper) {
            // Row i of the product uses B rows >= i: process top-down.
            for (int i = 0; i < m; ++i) {
                T x = (diag == Diag::Unit) ? B(i, j) : a(i, i) * B(i, j);
                for (int l = i + 1; l < m; ++l)
                    x += a(i, l) * B(l, j);
                B(i, j) = alpha * x;
            }
        } else {
            // Row i uses B rows <= i: process bottom-up.
            for (int i = m - 1; i >= 0; --i) {
                T x = (diag == Diag::Unit) ? B(i, j) : a(i, i) * B(i, j);
                for (int l = 0; l < i; ++l)
                    x += a(i, l) * B(l, j);
                B(i, j) = alpha * x;
            }
        }
    }
}

}  // namespace tbp::blas
