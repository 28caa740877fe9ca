// Householder kernels for the PLASMA/SLATE-style flat-tree tile QR:
//
//   larfg  - generate one elementary reflector (zlarfg convention)
//   geqrt  - QR of a single tile with a compact WY T factor
//   unmqr  - apply the geqrt reflector block (larfb) to a tile
//   tsqrt  - triangle-on-top-of-square QR (the communication-avoiding step)
//   tsmqr  - apply the tsqrt reflector block to a tile pair
//
// Conventions (matching LAPACK):
//   H = I - tau * v * v^H,  v(0) = 1,  H^H * x = beta * e1 with beta real.
//   Q = H_1 * H_2 * ... * H_k = I - V * T * V^H with T upper triangular.
// The factorization loop applies H^H from the left, so A = Q * R.
//
// The appliers (unmqr, tsmqr, ttmqr) are GEMM-shaped: all are compact-WY
// products C -= V op(T) V^H C. Each has a *_naive elementwise reference and
// a level-3 form that routes the bulk of the flops through the packed
// micro-kernel layer: GEMM on the dense V blocks, the recursive trmm of
// level3.hh on the triangular V blocks, and one dense GEMM on the whole T
// tile for op(T) W. That last product is exact because geqrt, tsqrt and
// ttqrt always store T with a zero strict lower triangle; at or below
// kernel::kTriBase it stays the naive triangular product. The shared entry
// point dispatches on size / TBP_NAIVE_BLAS and charges the aggregate flops
// to the measured-rate counter.

#pragma once

#include <cmath>
#include <vector>

#include "blas/gemm.hh"
#include "blas/kernel/arena.hh"
#include "blas/kernel/params.hh"
#include "blas/kernel/stats.hh"
#include "blas/level3.hh"
#include "blas/util.hh"
#include "common/error.hh"
#include "common/flops.hh"
#include "common/types.hh"
#include "matrix/tile.hh"

namespace tbp::blas {

/// Generate a Householder reflector for the vector [alpha; x] of length
/// 1 + n_tail such that (I - tau v v^H)^H [alpha; x] = [beta; 0] with beta
/// real. On return x holds the tail of v (v(0) = 1 implicit), alpha is
/// untouched; returns {beta, tau}.
template <typename T>
struct LarfgResult {
    real_t<T> beta;
    T tau;
};

template <typename T>
LarfgResult<T> larfg(T alpha, int n_tail, T* x, int incx = 1) {
    using R = real_t<T>;
    R xnorm_sq(0);
    for (int i = 0; i < n_tail; ++i)
        xnorm_sq += abs_sq(x[i * incx]);

    R const alpha_re = real_part(alpha);
    R alpha_im(0);
    if constexpr (is_complex_v<T>)
        alpha_im = alpha.imag();

    if (xnorm_sq == R(0) && alpha_im == R(0)) {
        // Already in the desired form; H = I.
        return {alpha_re, T(0)};
    }

    R beta = std::sqrt(alpha_re * alpha_re + alpha_im * alpha_im + xnorm_sq);
    if (alpha_re > R(0))
        beta = -beta;

    T tau;
    if constexpr (is_complex_v<T>)
        tau = T((beta - alpha_re) / beta, -alpha_im / beta);
    else
        tau = (beta - alpha) / beta;

    T const scal = T(1) / (alpha - from_real<T>(beta));
    for (int i = 0; i < n_tail; ++i)
        x[i * incx] *= scal;

    return {beta, tau};
}

/// QR factorization of tile A (mb-by-nb, mb >= 1). On return the upper
/// triangle of A holds R, the strict lower triangle holds the reflector
/// vectors V (unit diagonal implicit), and T (k-by-k upper triangular with
/// k = min(mb, nb)) holds the compact WY factor: Q = I - V T V^H.
template <typename T>
void geqrt(Tile<T> const& A, Tile<T> const& Tf) {
    int const mb = A.mb();
    int const nb = A.nb();
    int const k = std::min(mb, nb);
    tbp_require(Tf.mb() >= k && Tf.nb() >= k);

    std::vector<T> tau(k);
    for (int j = 0; j < k; ++j) {
        // Reflector from column j, rows j..mb-1.
        auto r = larfg(A(j, j), mb - 1 - j, &A(std::min(j + 1, mb - 1), j));
        tau[j] = r.tau;
        A(j, j) = from_real<T>(r.beta);

        // Apply H_j^H = I - conj(tau) v v^H to A(j:mb, j+1:nb).
        T const ctau = conj_val(r.tau);
        if (ctau != T(0)) {
            for (int c = j + 1; c < nb; ++c) {
                T w = A(j, c);  // v(0) = 1
                for (int i = j + 1; i < mb; ++i)
                    w += conj_val(A(i, j)) * A(i, c);
                w *= ctau;
                A(j, c) -= w;
                for (int i = j + 1; i < mb; ++i)
                    A(i, c) -= A(i, j) * w;
            }
        }
    }

    // Build T (forward columnwise larft):
    //   T(j, j)    = tau_j
    //   T(0:j, j)  = -tau_j * T(0:j, 0:j) * (V(:, 0:j)^H v_j)
    for (int j = 0; j < k; ++j) {
        Tf(j, j) = tau[j];
        // Zero the strictly lower part of column j so T can be used whole,
        // also when H_j = I (tau == 0).
        for (int i = j + 1; i < Tf.mb(); ++i)
            Tf(i, j) = T(0);
        if (tau[j] == T(0)) {
            for (int i = 0; i < j; ++i)
                Tf(i, j) = T(0);
            continue;
        }
        // z_i = V(:, i)^H v_j = conj(V(j, i)) + sum_{r > j} conj(A(r, i)) A(r, j)
        for (int i = 0; i < j; ++i) {
            T z = conj_val(A(j, i));
            for (int r = j + 1; r < mb; ++r)
                z += conj_val(A(r, i)) * A(r, j);
            Tf(i, j) = -tau[j] * z;
        }
        // T(0:j, j) = T(0:j, 0:j) * T(0:j, j) (in-place upper-triangular mv).
        for (int i = 0; i < j; ++i) {
            T s(0);
            for (int l = i; l < j; ++l)
                s += Tf(i, l) * Tf(l, j);
            Tf(i, j) = s;
        }
    }

    kernel::count_flops(flops::geqrf(mb, nb) * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

namespace detail {

/// S := op(T) W for the compact-WY factor in Tf's leading k-by-k block
/// (k = W.mb()), leaving W intact. Above kernel::kTriBase this is one dense
/// GEMM on the whole block, exact because T's strict lower triangle is
/// stored as zeros; at or below it, the naive triangular product.
template <typename T>
void apply_tfactor(Op op, Tile<T> const& Tf, Tile<T> const& W,
                   Tile<T> const& S) {
    int const k = W.mb();
    auto const Tk = Tf.sub(0, 0, k, k);
    Op const opt = (op == Op::NoTrans) ? Op::NoTrans : Op::ConjTrans;
    if (k <= kernel::kTriBase) {
        copy(W, S);
        trmm_naive(Uplo::Upper, opt, Diag::NonUnit, T(1), Tk, S);
        return;
    }
    gemm_dispatch(opt, Op::NoTrans, T(1), Tk, W, T(0), S);
}

}  // namespace detail

/// Apply the block reflector from geqrt(V, T) to tile C from the left
/// (reference element loops):
///   op == ConjTrans: C := Q^H C = C - V T^H V^H C
///   op == NoTrans:   C := Q   C = C - V T   V^H C
/// V is the tile that geqrt factored (reflectors in its strict lower part,
/// unit diagonal implicit), k = min(V.mb, V.nb) reflectors.
template <typename T>
void unmqr_naive(Op op, Tile<T> const& V, Tile<T> const& Tf,
                 Tile<T> const& C) {
    int const mb = V.mb();
    int const k = std::min(mb, V.nb());
    int const nn = C.nb();
    tbp_require(C.mb() == mb);
    tbp_require(op == Op::NoTrans || op == Op::ConjTrans);

    // W = V^H C  (k-by-nn), with V unit-lower-trapezoidal.
    std::vector<T> W(static_cast<size_t>(k) * nn);
    auto w = [&](int i, int j) -> T& { return W[i + static_cast<size_t>(j) * k]; };
    for (int j = 0; j < nn; ++j) {
        for (int i = 0; i < k; ++i) {
            T s = C(i, j);  // unit diagonal of V
            for (int r = i + 1; r < mb; ++r)
                s += conj_val(V(r, i)) * C(r, j);
            w(i, j) = s;
        }
    }

    // W := op(T) W with T upper triangular (op(T) = T or T^H).
    for (int j = 0; j < nn; ++j) {
        if (op == Op::NoTrans) {
            for (int i = 0; i < k; ++i) {
                T s(0);
                for (int l = i; l < k; ++l)
                    s += Tf(i, l) * w(l, j);
                w(i, j) = s;
            }
        } else {
            // T^H is lower triangular: compute bottom-up.
            for (int i = k - 1; i >= 0; --i) {
                T s(0);
                for (int l = 0; l <= i; ++l)
                    s += conj_val(Tf(l, i)) * w(l, j);
                w(i, j) = s;
            }
        }
    }

    // C := C - V W.
    for (int j = 0; j < nn; ++j) {
        for (int i = 0; i < k; ++i)
            C(i, j) -= w(i, j);  // unit diagonal
        for (int r = 0; r < mb; ++r) {
            // strict lower part: C(r, j) -= sum_{i < min(r, k)} V(r, i) w(i, j)
            T s(0);
            int const ilim = std::min(r, k);
            for (int i = 0; i < ilim; ++i)
                s += V(r, i) * w(i, j);
            C(r, j) -= s;
        }
    }
}

/// Level-3 unmqr: split V = [V1; V2] with V1 unit lower triangular (k-by-k)
/// and V2 dense, then
///   W  = op(T) * (V1^H C1 + V2^H C2)   (trmm + GEMM, then GEMM)
///   C1 -= V1 * W,  C2 -= V2 * W        (trmm + GEMM)
/// Workspaces come from the calling thread's arena (kWork0/kWork1); the
/// GEMM panels go through the packed micro-kernel layer.
template <typename T>
void unmqr_level3(Op op, Tile<T> const& V, Tile<T> const& Tf,
                  Tile<T> const& C) {
    int const mb = V.mb();
    int const k = std::min(mb, V.nb());
    int const nn = C.nb();
    tbp_require(C.mb() == mb);
    tbp_require(op == Op::NoTrans || op == Op::ConjTrans);
    if (k == 0 || nn == 0)
        return;

    auto& arena = kernel::tls_arena<T>();
    std::size_t const wcount = static_cast<std::size_t>(k) * nn;
    Tile<T> W(arena.get(kernel::kWork0, wcount), k, nn, k);
    Tile<T> W2(arena.get(kernel::kWork1, wcount), k, nn, k);
    auto V1 = V.sub(0, 0, k, k);
    auto C1 = C.sub(0, 0, k, nn);

    // W := V^H C = V1^H C1 + V2^H C2.
    copy(C1, W);
    trmm_dispatch(Uplo::Lower, Op::ConjTrans, Diag::Unit, T(1), V1, W);
    if (mb > k)
        gemm_dispatch(Op::ConjTrans, Op::NoTrans, T(1), V.sub(k, 0, mb - k, k),
                      C.sub(k, 0, mb - k, nn), T(1), W);

    // W2 := op(T) W.
    detail::apply_tfactor(op, Tf, W, W2);

    // C1 -= V1 W2 (via W so W2 stays intact for the V2 update),
    // C2 -= V2 W2.
    copy(W2, W);
    trmm_dispatch(Uplo::Lower, Op::NoTrans, Diag::Unit, T(1), V1, W);
    add(T(-1), W, T(1), C1);
    if (mb > k)
        gemm_dispatch(Op::NoTrans, Op::NoTrans, T(-1), V.sub(k, 0, mb - k, k),
                      W2, T(1), C.sub(k, 0, mb - k, nn));
}

template <typename T>
void unmqr(Op op, Tile<T> const& V, Tile<T> const& Tf, Tile<T> const& C) {
    int const mb = V.mb();
    int const k = std::min(mb, V.nb());
    int const nn = C.nb();
    double const volume = static_cast<double>(mb) * k * nn;
    if (kernel::use_naive() || volume < 4.0 * kernel::kGemmCrossover)
        unmqr_naive(op, V, Tf, C);
    else
        unmqr_level3(op, V, Tf, C);
    kernel::count_flops(flops::unmqr(mb, nn, k) * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

/// Triangle-on-top-of-square QR: factor [R1; A2] where R1 = upper triangle
/// of A1 (n-by-n, n = A1.nb, A1.mb >= n) and A2 is m2-by-n dense.
/// On return the upper triangle of A1 holds the new R, A2 holds V2 (the
/// dense part of the reflectors; the top part of each v_j is e_j), and Tf
/// the compact WY factor.
template <typename T>
void tsqrt(Tile<T> const& A1, Tile<T> const& A2, Tile<T> const& Tf) {
    int const n = A1.nb();
    int const m2 = A2.mb();
    tbp_require(A1.mb() >= n && A2.nb() == n);
    tbp_require(Tf.mb() >= n && Tf.nb() >= n);

    std::vector<T> tau(n);
    for (int j = 0; j < n; ++j) {
        auto r = larfg(A1(j, j), m2, &A2(0, j));
        tau[j] = r.tau;
        A1(j, j) = from_real<T>(r.beta);

        T const ctau = conj_val(r.tau);
        if (ctau != T(0)) {
            for (int c = j + 1; c < n; ++c) {
                // w = e_j^H A1(:, c) + v2^H A2(:, c)
                T w = A1(j, c);
                for (int i = 0; i < m2; ++i)
                    w += conj_val(A2(i, j)) * A2(i, c);
                w *= ctau;
                A1(j, c) -= w;
                for (int i = 0; i < m2; ++i)
                    A2(i, c) -= A2(i, j) * w;
            }
        }
    }

    // T factor: top parts of the v's are orthonormal e_j's, so only V2
    // contributes to the inner products.
    for (int j = 0; j < n; ++j) {
        Tf(j, j) = tau[j];
        for (int i = 0; i < j; ++i) {
            T z(0);
            for (int r = 0; r < m2; ++r)
                z += conj_val(A2(r, i)) * A2(r, j);
            Tf(i, j) = -tau[j] * z;
        }
        for (int i = 0; i < j; ++i) {
            T s(0);
            for (int l = i; l < j; ++l)
                s += Tf(i, l) * Tf(l, j);
            Tf(i, j) = s;
        }
        for (int i = j + 1; i < Tf.mb(); ++i)
            Tf(i, j) = T(0);
    }

    kernel::count_flops(flops::tsqrt(m2, n) * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

/// Apply the tsqrt block reflector to the tile pair [C1; C2] (reference
/// element loops):
///   op == ConjTrans: [C1; C2] := Q^H [C1; C2]
///   op == NoTrans:   [C1; C2] := Q   [C1; C2]
/// where Q = I - [E; V2] T [E; V2]^H, E = [I_n; 0] occupying the first n
/// rows of C1. V2 is m2-by-n (from tsqrt), C1 is (>= n)-by-nn, C2 m2-by-nn.
template <typename T>
void tsmqr_naive(Op op, Tile<T> const& V2, Tile<T> const& Tf,
                 Tile<T> const& C1, Tile<T> const& C2) {
    int const n = V2.nb();
    int const m2 = V2.mb();
    int const nn = C1.nb();
    tbp_require(C1.mb() >= n && C2.nb() == nn && C2.mb() == m2);
    tbp_require(op == Op::NoTrans || op == Op::ConjTrans);

    // S = C1(0:n, :) + V2^H C2   (n-by-nn)
    std::vector<T> S(static_cast<size_t>(n) * nn);
    auto s_ = [&](int i, int j) -> T& { return S[i + static_cast<size_t>(j) * n]; };
    for (int j = 0; j < nn; ++j) {
        for (int i = 0; i < n; ++i) {
            T s = C1(i, j);
            for (int r = 0; r < m2; ++r)
                s += conj_val(V2(r, i)) * C2(r, j);
            s_(i, j) = s;
        }
    }

    // S := op(T) S.
    for (int j = 0; j < nn; ++j) {
        if (op == Op::NoTrans) {
            for (int i = 0; i < n; ++i) {
                T s(0);
                for (int l = i; l < n; ++l)
                    s += Tf(i, l) * s_(l, j);
                s_(i, j) = s;
            }
        } else {
            for (int i = n - 1; i >= 0; --i) {
                T s(0);
                for (int l = 0; l <= i; ++l)
                    s += conj_val(Tf(l, i)) * s_(l, j);
                s_(i, j) = s;
            }
        }
    }

    // [C1; C2] -= [E; V2] S.
    for (int j = 0; j < nn; ++j) {
        for (int i = 0; i < n; ++i)
            C1(i, j) -= s_(i, j);
        for (int r = 0; r < m2; ++r) {
            T acc(0);
            for (int i = 0; i < n; ++i)
                acc += V2(r, i) * s_(i, j);
            C2(r, j) -= acc;
        }
    }
}

/// Level-3 tsmqr: the top of the reflector block is the identity, so
///   S  = op(T) * (C1(0:n, :) + V2^H C2)   (GEMM, then GEMM)
///   C1(0:n, :) -= S,  C2 -= V2 * S        (add + GEMM)
/// with the two m2-deep GEMM panels carrying most of the flops.
template <typename T>
void tsmqr_level3(Op op, Tile<T> const& V2, Tile<T> const& Tf,
                  Tile<T> const& C1, Tile<T> const& C2) {
    int const n = V2.nb();
    int const m2 = V2.mb();
    int const nn = C1.nb();
    tbp_require(C1.mb() >= n && C2.nb() == nn && C2.mb() == m2);
    tbp_require(op == Op::NoTrans || op == Op::ConjTrans);
    if (n == 0 || nn == 0)
        return;

    auto& arena = kernel::tls_arena<T>();
    std::size_t const wcount = static_cast<std::size_t>(n) * nn;
    Tile<T> S(arena.get(kernel::kWork0, wcount), n, nn, n);
    Tile<T> W(arena.get(kernel::kWork1, wcount), n, nn, n);
    auto C1t = C1.sub(0, 0, n, nn);

    copy(C1t, W);
    if (m2 > 0)
        gemm_dispatch(Op::ConjTrans, Op::NoTrans, T(1), V2, C2, T(1), W);
    detail::apply_tfactor(op, Tf, W, S);
    add(T(-1), S, T(1), C1t);
    if (m2 > 0)
        gemm_dispatch(Op::NoTrans, Op::NoTrans, T(-1), V2, S, T(1), C2);
}

template <typename T>
void tsmqr(Op op, Tile<T> const& V2, Tile<T> const& Tf,
           Tile<T> const& C1, Tile<T> const& C2) {
    int const n = V2.nb();
    int const m2 = V2.mb();
    int const nn = C1.nb();
    double const volume = static_cast<double>(m2 + n) * n * nn;
    if (kernel::use_naive() || volume < 4.0 * kernel::kGemmCrossover)
        tsmqr_naive(op, V2, Tf, C1, C2);
    else
        tsmqr_level3(op, V2, Tf, C1, C2);
    kernel::count_flops(flops::tsmqr(m2, n, nn) * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

/// Triangle-on-top-of-triangle QR: factor [R1; R2] where R1 = upper
/// triangle of A1 (n-by-n, n = A1.nb, A1.mb >= n) and R2 = the upper
/// trapezoid of A2 (m2-by-n, m2 <= n) — the fold of the QDWH identity
/// block's diagonal tile, which stays upper triangular throughout the
/// stacked factorization. Column j of R2 has t_j = min(j + 1, m2) nonzero
/// rows, so its reflector tail has length t_j; everything below the
/// trapezoid is neither read nor written (callers may leave it stale).
/// On return: the new R in A1's upper triangle, V2 in A2's upper trapezoid
/// (non-unit diagonal; the implicit unit lives in R1's row j as e_j), and
/// Tf the compact WY factor. ~2.5x fewer flops than tsqrt on the same tile.
template <typename T>
void ttqrt(Tile<T> const& A1, Tile<T> const& A2, Tile<T> const& Tf) {
    int const n = A1.nb();
    int const m2 = A2.mb();
    tbp_require(A1.mb() >= n && A2.nb() == n && m2 <= n);
    tbp_require(Tf.mb() >= n && Tf.nb() >= n);

    std::vector<T> tau(n);
    for (int j = 0; j < n; ++j) {
        int const tj = std::min(j + 1, m2);
        auto r = larfg(A1(j, j), tj, &A2(0, j));
        tau[j] = r.tau;
        A1(j, j) = from_real<T>(r.beta);

        T const ctau = conj_val(r.tau);
        if (ctau != T(0)) {
            for (int c = j + 1; c < n; ++c) {
                // Column c's trapezoid has t_c >= t_j rows, so the update
                // stays inside the structure (fill never leaks downward).
                T w = A1(j, c);
                for (int i = 0; i < tj; ++i)
                    w += conj_val(A2(i, j)) * A2(i, c);
                w *= ctau;
                A1(j, c) -= w;
                for (int i = 0; i < tj; ++i)
                    A2(i, c) -= A2(i, j) * w;
            }
        }
    }

    // T factor: only the trapezoidal V2 contributes to the inner products
    // (column i has t_i <= t_j stored rows).
    for (int j = 0; j < n; ++j) {
        Tf(j, j) = tau[j];
        for (int i = 0; i < j; ++i) {
            int const ti = std::min(i + 1, m2);
            T z(0);
            for (int r2 = 0; r2 < ti; ++r2)
                z += conj_val(A2(r2, i)) * A2(r2, j);
            Tf(i, j) = -tau[j] * z;
        }
        for (int i = 0; i < j; ++i) {
            T s(0);
            for (int l = i; l < j; ++l)
                s += Tf(i, l) * Tf(l, j);
            Tf(i, j) = s;
        }
        for (int i = j + 1; i < Tf.mb(); ++i)
            Tf(i, j) = T(0);
    }

    kernel::count_flops(flops::ttqrt(m2, n) * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

/// Apply the ttqrt block reflector to the tile pair [C1; C2] (reference
/// element loops): Q = I - [E; V2] T [E; V2]^H with V2 upper-trapezoidal
/// (column i has t_i = min(i + 1, m2) stored rows). c2_zero declares C2
/// structurally zero on entry: the V2^H C2 accumulation is skipped and C2
/// is overwritten (never read), which is how the stacked factorization
/// creates the first fill in a trailing identity-block tile without a
/// set-zero sweep.
template <typename T>
void ttmqr_naive(Op op, Tile<T> const& V2, Tile<T> const& Tf,
                 Tile<T> const& C1, Tile<T> const& C2, bool c2_zero) {
    int const n = V2.nb();
    int const m2 = V2.mb();
    int const nn = C1.nb();
    tbp_require(C1.mb() >= n && C2.nb() == nn && C2.mb() == m2);
    tbp_require(op == Op::NoTrans || op == Op::ConjTrans);

    // S = C1(0:n, :) + V2^H C2   (n-by-nn)
    std::vector<T> S(static_cast<size_t>(n) * nn);
    auto s_ = [&](int i, int j) -> T& { return S[i + static_cast<size_t>(j) * n]; };
    for (int j = 0; j < nn; ++j) {
        for (int i = 0; i < n; ++i) {
            T s = C1(i, j);
            if (!c2_zero) {
                int const ti = std::min(i + 1, m2);
                for (int r = 0; r < ti; ++r)
                    s += conj_val(V2(r, i)) * C2(r, j);
            }
            s_(i, j) = s;
        }
    }

    // S := op(T) S.
    for (int j = 0; j < nn; ++j) {
        if (op == Op::NoTrans) {
            for (int i = 0; i < n; ++i) {
                T s(0);
                for (int l = i; l < n; ++l)
                    s += Tf(i, l) * s_(l, j);
                s_(i, j) = s;
            }
        } else {
            for (int i = n - 1; i >= 0; --i) {
                T s(0);
                for (int l = 0; l <= i; ++l)
                    s += conj_val(Tf(l, i)) * s_(l, j);
                s_(i, j) = s;
            }
        }
    }

    // [C1; C2] -= [E; V2] S; row r of V2 is nonzero in columns i >= r.
    for (int j = 0; j < nn; ++j) {
        for (int i = 0; i < n; ++i)
            C1(i, j) -= s_(i, j);
        for (int r = 0; r < m2; ++r) {
            T acc(0);
            for (int i = r; i < n; ++i)
                acc += V2(r, i) * s_(i, j);
            if (c2_zero)
                C2(r, j) = -acc;
            else
                C2(r, j) -= acc;
        }
    }
}

/// Level-3 ttmqr for the square case (m2 == n, the production shape): both
/// V2 products are upper-triangular trmm, so the applier routes through the
/// recursive trmm instead of the dense tsmqr GEMM panels; op(T) S is one
/// GEMM.
template <typename T>
void ttmqr_level3(Op op, Tile<T> const& V2, Tile<T> const& Tf,
                  Tile<T> const& C1, Tile<T> const& C2, bool c2_zero) {
    int const n = V2.nb();
    int const m2 = V2.mb();
    int const nn = C1.nb();
    tbp_require(m2 == n);
    tbp_require(C1.mb() >= n && C2.nb() == nn && C2.mb() == m2);
    tbp_require(op == Op::NoTrans || op == Op::ConjTrans);
    if (n == 0 || nn == 0)
        return;

    auto& arena = kernel::tls_arena<T>();
    std::size_t const wcount = static_cast<std::size_t>(n) * nn;
    Tile<T> S(arena.get(kernel::kWork0, wcount), n, nn, n);
    Tile<T> W(arena.get(kernel::kWork1, wcount), n, nn, n);
    auto C1t = C1.sub(0, 0, n, nn);

    // W = C1(0:n, :) + V2^H C2 (the V2 term via an upper-triangular trmm),
    // then S = op(T) W.
    copy(C1t, W);
    if (!c2_zero) {
        copy(C2, S);
        trmm_dispatch(Uplo::Upper, Op::ConjTrans, Diag::NonUnit, T(1), V2, S);
        add(T(1), S, T(1), W);
    }
    detail::apply_tfactor(op, Tf, W, S);
    add(T(-1), S, T(1), C1t);

    // C2 -= V2 S (or C2 := -V2 S when C2 was structurally zero).
    copy(S, W);
    trmm_dispatch(Uplo::Upper, Op::NoTrans, Diag::NonUnit, T(1), V2, W);
    if (c2_zero) {
        copy(W, C2);
        scale(T(-1), C2);
    } else {
        add(T(-1), W, T(1), C2);
    }
}

template <typename T>
void ttmqr(Op op, Tile<T> const& V2, Tile<T> const& Tf, Tile<T> const& C1,
           Tile<T> const& C2, bool c2_zero = false) {
    int const n = V2.nb();
    int const m2 = V2.mb();
    int const nn = C1.nb();
    double const volume = static_cast<double>(2 * n) * n * nn;
    if (kernel::use_naive() || m2 != n
        || volume < 4.0 * kernel::kGemmCrossover)
        ttmqr_naive(op, V2, Tf, C1, C2, c2_zero);
    else
        ttmqr_level3(op, V2, Tf, C1, C2, c2_zero);
    kernel::count_flops(flops::ttmqr(m2, n, nn, c2_zero)
                        * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

}  // namespace tbp::blas
