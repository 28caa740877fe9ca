// Householder kernels for the PLASMA/SLATE-style flat-tree tile QR:
//
//   larfg  - generate one elementary reflector (zlarfg convention)
//   geqrt  - QR of a single tile with a compact WY T factor
//   unmqr  - apply the geqrt reflector block (larfb) to a tile
//   tsqrt  - triangle-on-top-of-square QR (the communication-avoiding step)
//   tsmqr  - apply the tsqrt reflector block to a tile pair
//   ttqrt  - triangle-on-top-of-triangle QR (the identity block's fold)
//   ttmqr  - apply the ttqrt reflector block to a tile pair
//
// Conventions (matching LAPACK):
//   H = I - tau * v * v^H,  v(0) = 1,  H^H * x = beta * e1 with beta real.
//   Q = H_1 * H_2 * ... * H_k = I - V * T * V^H with T upper triangular.
// The factorization loop applies H^H from the left, so A = Q * R.
//
// tsqrt and ttqrt are the two ends of one pentagonal shape (LAPACK
// xTPQRT's l): the lower block has l trailing rows that are upper
// trapezoidal, l = 0 for tsqrt and l = m2 for ttqrt. Both, and their
// appliers, share one body parameterized by l (detail::tpqrt*,
// detail::tpmqr*).
//
// The appliers (unmqr, tsmqr, ttmqr) are GEMM-shaped: all are compact-WY
// products C -= V op(T) V^H C. Each has a *_naive elementwise reference and
// a level-3 form that routes all its flops through the packed micro-kernel
// layer: GEMM on the dense V blocks, GEMM on a dense copy (zeros outside
// the triangle, detail::masked_copy) of the triangular V blocks, and one
// dense GEMM on the whole T tile for op(T) W. That last product is exact
// because geqrt, tsqrt and ttqrt always store T with a zero strict lower
// triangle; at or below kernel::kTriBase it stays the naive triangular
// product.
//
// The factorizations (geqrt, tsqrt, ttqrt) are recursive on the column
// dimension, like LAPACK's xGEQRT3: factor the left half, apply its block
// reflector to the right half with the level-3 applier, factor the right
// half, and merge the two T factors with GEMMs,
//   T12 = -T11 (V1^H V2) T22,
// again exact because of T's zero strict lower triangle. Halves at or
// below kernel::kTriBase columns run the *_naive element loops, which stay
// the tested reference; so does every tile of at most kTriBase columns.
// The recursion's inner GEMMs run at the kernel's own precision: a float
// factorization under a bf16 execution mode does not truncate its panel
// to bf16, just as the element loops never did.
//
// Every public entry dispatches on size and charges the call's aggregate
// flops to the measured-rate counter exactly once; the recursion's inner
// calls go through the non-counting *_dispatch paths.
// tau_j is stored in Tf(j, j) as soon as column j is factored, and the
// appliers' workspaces come from the thread's kernel arena, so none of
// these kernels allocates after warm-up.

#pragma once

#include <algorithm>
#include <cmath>

#include "blas/gemm.hh"
#include "blas/kernel/arena.hh"
#include "blas/kernel/params.hh"
#include "blas/kernel/stats.hh"
#include "blas/level3.hh"
#include "blas/util.hh"
#include "common/error.hh"
#include "common/flops.hh"
#include "common/precision.hh"
#include "common/types.hh"
#include "matrix/tile.hh"

namespace tbp::blas {

/// Generate a Householder reflector for the vector [alpha; x] of length
/// 1 + n_tail such that (I - tau v v^H)^H [alpha; x] = [beta; 0] with beta
/// real. On return x holds the tail of v (v(0) = 1 implicit), alpha is
/// untouched; returns {tau, beta}.
///
/// tau comes first so that a complex<float> tau starts the struct's first
/// eightbyte: behind a 4-byte beta it would straddle two, a layout whose
/// x86-64 calling convention changed in GCC 4.4 (GCC notes every return).
template <typename T>
struct LarfgResult {
    T tau;
    real_t<T> beta;
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
        return {T(0), alpha_re};
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

    return {tau, beta};
}

/// QR factorization of tile A (mb-by-nb, mb >= 1) by the element loops:
/// the reference for geqrt and its recursion's base case. On return the
/// upper triangle of A holds R, the strict lower triangle holds the
/// reflector vectors V (unit diagonal implicit), and T (k-by-k upper
/// triangular with k = min(mb, nb)) holds the compact WY factor:
/// Q = I - V T V^H. Tf's rows below the diagonal in the leading k columns
/// are zeroed, down to Tf.mb().
template <typename T>
void geqrt_naive(Tile<T> const& A, Tile<T> const& Tf) {
    int const mb = A.mb();
    int const nb = A.nb();
    int const k = std::min(mb, nb);
    tbp_require(Tf.mb() >= k && Tf.nb() >= k);

    for (int j = 0; j < k; ++j) {
        // Reflector from column j, rows j..mb-1; tau_j goes to Tf(j, j).
        auto r = larfg(A(j, j), mb - 1 - j, &A(std::min(j + 1, mb - 1), j));
        Tf(j, j) = r.tau;
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
        T const tau = Tf(j, j);
        // Zero the strictly lower part of column j so T can be used whole,
        // also when H_j = I (tau == 0).
        for (int i = j + 1; i < Tf.mb(); ++i)
            Tf(i, j) = T(0);
        if (tau == T(0)) {
            for (int i = 0; i < j; ++i)
                Tf(i, j) = T(0);
            continue;
        }
        // z_i = V(:, i)^H v_j = conj(V(j, i)) + sum_{r > j} conj(A(r, i)) A(r, j)
        for (int i = 0; i < j; ++i) {
            T z = conj_val(A(j, i));
            for (int r = j + 1; r < mb; ++r)
                z += conj_val(A(r, i)) * A(r, j);
            Tf(i, j) = -tau * z;
        }
        // T(0:j, j) = T(0:j, 0:j) * T(0:j, j) (in-place upper-triangular mv).
        for (int i = 0; i < j; ++i) {
            T s(0);
            for (int l = i; l < j; ++l)
                s += Tf(i, l) * Tf(l, j);
            Tf(i, j) = s;
        }
    }
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

/// A k-by-n workspace from slot `slot` of the calling thread's arena.
template <typename T>
Tile<T> arena_tile(kernel::Slot slot, int k, int n) {
    return Tile<T>(kernel::tls_arena<T>().get(
                       slot, static_cast<std::size_t>(k) * n),
                   k, n, k);
}

/// W := the `uplo` trapezoid of V with zeros outside it and, for a unit
/// diagonal, ones on it: a triangular reflector block made dense, so that
/// its products are single GEMMs. At tile sizes those run faster than a
/// triangular recursion despite the zero half.
template <typename T>
void masked_copy(Uplo uplo, Diag diag, Tile<T> const& V, Tile<T> const& W) {
    for (int j = 0; j < V.nb(); ++j)
        for (int i = 0; i < V.mb(); ++i) {
            bool const keep = (uplo == Uplo::Lower) ? i > j : i < j;
            if (i == j)
                W(i, j) = (diag == Diag::Unit) ? T(1) : V(i, j);
            else
                W(i, j) = keep ? V(i, j) : T(0);
        }
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
    auto const w = detail::arena_tile<T>(kernel::kWork0, k, nn);
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

/// Level-3 unmqr: with Vm the dense copy of the unit lower trapezoidal V,
///   W = Vm^H C,  S = op(T) W,  C -= Vm S
/// three GEMMs through the packed micro-kernel layer. Workspaces come from
/// the calling thread's arena (kWork0..kWork2).
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

    auto const Vm = detail::arena_tile<T>(kernel::kWork2, mb, k);
    auto const W = detail::arena_tile<T>(kernel::kWork0, k, nn);
    auto const S = detail::arena_tile<T>(kernel::kWork1, k, nn);
    detail::masked_copy(Uplo::Lower, Diag::Unit, V.sub(0, 0, mb, k), Vm);
    gemm_dispatch(Op::ConjTrans, Op::NoTrans, T(1), Vm, C, T(0), W);
    detail::apply_tfactor(op, Tf, W, S);
    gemm_dispatch(Op::NoTrans, Op::NoTrans, T(-1), Vm, S, T(1), C);
}

/// Path selection without flop accounting (for the recursive geqrt).
template <typename T>
void unmqr_dispatch(Op op, Tile<T> const& V, Tile<T> const& Tf,
                    Tile<T> const& C) {
    double const volume =
        static_cast<double>(V.mb()) * std::min(V.mb(), V.nb()) * C.nb();
    if (volume < 4.0 * kernel::kGemmCrossover)
        unmqr_naive(op, V, Tf, C);
    else
        unmqr_level3(op, V, Tf, C);
}

template <typename T>
void unmqr(Op op, Tile<T> const& V, Tile<T> const& Tf, Tile<T> const& C) {
    unmqr_dispatch(op, V, Tf, C);
    int const mb = V.mb();
    kernel::count_flops(flops::unmqr(mb, C.nb(), std::min(mb, V.nb()))
                            * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

namespace detail {

/// Factor [R1; B] by the element loops, where R1 is the upper triangle of
/// A1's leading n-by-n block (n = A1.nb, A1.mb >= n) and B is m-by-n
/// pentagonal: its first p = m - l rows dense, its last l rows upper
/// trapezoidal, so column j has t_j = p + min(j + 1, l) stored rows and
/// nothing below them is read or written (callers may leave it stale).
/// l = 0 is tsqrt, l = m ttqrt. On return: the new R in A1's upper
/// triangle, the reflectors' lower parts V in B (the implicit unit of
/// reflector j lives in R1's row j as e_j), and Tf the compact WY factor,
/// its strict lower part zeroed down to Tf.mb().
template <typename T>
void tpqrt_naive(int l, Tile<T> const& A1, Tile<T> const& B,
                 Tile<T> const& Tf) {
    int const n = A1.nb();
    int const p = B.mb() - l;
    tbp_require(A1.mb() >= n && B.nb() == n && p >= 0 && l <= n);
    tbp_require(Tf.mb() >= n && Tf.nb() >= n);
    auto rows = [&](int j) { return p + std::min(j + 1, l); };

    for (int j = 0; j < n; ++j) {
        int const tj = rows(j);
        auto r = larfg(A1(j, j), tj, &B(0, j));
        Tf(j, j) = r.tau;
        A1(j, j) = from_real<T>(r.beta);

        T const ctau = conj_val(r.tau);
        if (ctau != T(0)) {
            for (int c = j + 1; c < n; ++c) {
                // w = e_j^H A1(:, c) + v^H B(:, c). Column c has t_c >= t_j
                // rows, so the update stays inside the structure.
                T w = A1(j, c);
                for (int i = 0; i < tj; ++i)
                    w += conj_val(B(i, j)) * B(i, c);
                w *= ctau;
                A1(j, c) -= w;
                for (int i = 0; i < tj; ++i)
                    B(i, c) -= B(i, j) * w;
            }
        }
    }

    // T factor: the top parts of the v's are orthonormal e_j's, so only B
    // contributes to the inner products (column i has t_i <= t_j rows).
    for (int j = 0; j < n; ++j) {
        T const tau = Tf(j, j);
        for (int i = 0; i < j; ++i) {
            int const ti = rows(i);
            T z(0);
            for (int r = 0; r < ti; ++r)
                z += conj_val(B(r, i)) * B(r, j);
            Tf(i, j) = -tau * z;
        }
        for (int i = 0; i < j; ++i) {
            T s(0);
            for (int k = i; k < j; ++k)
                s += Tf(i, k) * Tf(k, j);
            Tf(i, j) = s;
        }
        for (int i = j + 1; i < Tf.mb(); ++i)
            Tf(i, j) = T(0);
    }
}

/// Apply the block reflector of tpqrt(l) to the tile pair [C1; C2]
/// (reference element loops):
///   op == ConjTrans: [C1; C2] := Q^H [C1; C2]
///   op == NoTrans:   [C1; C2] := Q   [C1; C2]
/// where Q = I - [E; V] T [E; V]^H, E = [I_n; 0] occupying the first n rows
/// of C1 and V the m-by-n pentagon of tpqrt_naive. c2_zero declares C2
/// structurally zero on entry: the V^H C2 accumulation is skipped and C2 is
/// overwritten (never read), which is how the stacked factorization creates
/// the first fill in a trailing identity-block tile without a set-zero
/// sweep.
template <typename T>
void tpmqr_naive(Op op, int l, Tile<T> const& V, Tile<T> const& Tf,
                 Tile<T> const& C1, Tile<T> const& C2, bool c2_zero) {
    int const n = V.nb();
    int const m = V.mb();
    int const p = m - l;
    int const nn = C1.nb();
    tbp_require(C1.mb() >= n && C2.nb() == nn && C2.mb() == m && p >= 0);
    tbp_require(op == Op::NoTrans || op == Op::ConjTrans);

    // S = C1(0:n, :) + V^H C2   (n-by-nn)
    auto const S = arena_tile<T>(kernel::kWork0, n, nn);
    for (int j = 0; j < nn; ++j) {
        for (int i = 0; i < n; ++i) {
            T s = C1(i, j);
            if (!c2_zero) {
                int const ti = p + std::min(i + 1, l);
                for (int r = 0; r < ti; ++r)
                    s += conj_val(V(r, i)) * C2(r, j);
            }
            S(i, j) = s;
        }
    }

    // S := op(T) S.
    for (int j = 0; j < nn; ++j) {
        if (op == Op::NoTrans) {
            for (int i = 0; i < n; ++i) {
                T s(0);
                for (int k = i; k < n; ++k)
                    s += Tf(i, k) * S(k, j);
                S(i, j) = s;
            }
        } else {
            for (int i = n - 1; i >= 0; --i) {
                T s(0);
                for (int k = 0; k <= i; ++k)
                    s += conj_val(Tf(k, i)) * S(k, j);
                S(i, j) = s;
            }
        }
    }

    // [C1; C2] -= [E; V] S; row r of V is nonzero in columns i >= r - p.
    for (int j = 0; j < nn; ++j) {
        for (int i = 0; i < n; ++i)
            C1(i, j) -= S(i, j);
        for (int r = 0; r < m; ++r) {
            T acc(0);
            for (int i = std::max(0, r - p); i < n; ++i)
                acc += V(r, i) * S(i, j);
            if (c2_zero)
                C2(r, j) = -acc;
            else
                C2(r, j) -= acc;
        }
    }
}

/// The m-by-n pentagon V of tpqrt(l) as two GEMM operands: its p = m - l
/// dense rows in place, and a dense copy of its l trapezoid rows (zeros
/// below the trapezoid) in arena slot `slot`.
template <typename T>
struct Pentagon {
    Tile<T> dense, trap;
    Pentagon(int l, Tile<T> const& V, kernel::Slot slot)
        : dense(V.sub(0, 0, V.mb() - l, V.nb())),
          trap(arena_tile<T>(slot, l, V.nb())) {
        masked_copy(Uplo::Upper, Diag::NonUnit,
                    V.sub(V.mb() - l, 0, l, V.nb()), trap);
    }

    /// Y := beta Y + V^H X, X m-by-nn.
    void ctrans_mul(Tile<T> const& X, T beta, Tile<T> const& Y) const {
        int const p = dense.mb(), l = trap.mb(), nn = X.nb();
        gemm_dispatch(Op::ConjTrans, Op::NoTrans, T(1), dense,
                      X.sub(0, 0, p, nn), beta, Y);
        if (l > 0)
            gemm_dispatch(Op::ConjTrans, Op::NoTrans, T(1), trap,
                          X.sub(p, 0, l, nn), T(1), Y);
    }

    /// X := beta X - V S, X m-by-nn.
    void sub_mul(Tile<T> const& S, T beta, Tile<T> const& X) const {
        int const p = dense.mb(), l = trap.mb(), nn = X.nb();
        if (p > 0)
            gemm_dispatch(Op::NoTrans, Op::NoTrans, T(-1), dense, S, beta,
                          X.sub(0, 0, p, nn));
        if (l > 0)
            gemm_dispatch(Op::NoTrans, Op::NoTrans, T(-1), trap, S, beta,
                          X.sub(p, 0, l, nn));
    }
};

/// Level-3 tpmqr, with V as a Pentagon (GEMMs on its dense rows and on the
/// dense copy of its trapezoid):
///   W = C1(0:n, :) + V^H C2,  S = op(T) W,  C1(0:n, :) -= S,  C2 -= V S
/// For tsmqr (l = 0) the two m2-deep GEMM panels carry most of the flops.
template <typename T>
void tpmqr_level3(Op op, int l, Tile<T> const& V, Tile<T> const& Tf,
                  Tile<T> const& C1, Tile<T> const& C2, bool c2_zero) {
    int const n = V.nb();
    int const m = V.mb();
    int const nn = C1.nb();
    tbp_require(C1.mb() >= n && C2.nb() == nn && C2.mb() == m && l <= m
                && l <= n);
    tbp_require(op == Op::NoTrans || op == Op::ConjTrans);
    if (n == 0 || nn == 0)
        return;

    Pentagon<T> const P(l, V, kernel::kWork2);
    auto const W = arena_tile<T>(kernel::kWork0, n, nn);
    auto const S = arena_tile<T>(kernel::kWork1, n, nn);
    auto const C1t = C1.sub(0, 0, n, nn);
    copy(C1t, W);
    if (!c2_zero)
        P.ctrans_mul(C2, T(1), W);
    apply_tfactor(op, Tf, W, S);
    add(T(-1), S, T(1), C1t);
    // C2 -= V S, or C2 := -V S when C2 was structurally zero.
    P.sub_mul(S, c2_zero ? T(0) : T(1), C2);
}

/// Path selection without flop accounting.
template <typename T>
void tpmqr_dispatch(Op op, int l, Tile<T> const& V, Tile<T> const& Tf,
                    Tile<T> const& C1, Tile<T> const& C2, bool c2_zero) {
    int const n = V.nb();
    double const volume = static_cast<double>(V.mb() + n) * n * C1.nb();
    if (volume < 4.0 * kernel::kGemmCrossover)
        tpmqr_naive(op, l, V, Tf, C1, C2, c2_zero);
    else
        tpmqr_level3(op, l, V, Tf, C1, C2, c2_zero);
}

/// Finish the T factor of a column split at n1. On entry Tf's diagonal
/// blocks hold T11 and T22 (strict lower triangles zero) and its (0, n1)
/// block holds Z = V1^H V2; on return that block holds T12 = -T11 Z T22
/// and the (n1, 0) block is zero. Both products are GEMMs over the whole
/// triangular blocks, exact because their strict lower triangles are zeros.
template <typename T>
void tfactor_merge(Tile<T> const& Tf, int n1) {
    int const n2 = Tf.nb() - n1;
    auto const Z = Tf.sub(0, n1, n1, n2);
    auto const Y = arena_tile<T>(kernel::kWork0, n1, n2);
    gemm_dispatch(Op::NoTrans, Op::NoTrans, T(1), Z, Tf.sub(n1, n1, n2, n2),
                  T(0), Y);
    gemm_dispatch(Op::NoTrans, Op::NoTrans, T(-1), Tf.sub(0, 0, n1, n1), Y,
                  T(0), Z);
    set(T(0), T(0), Tf.sub(n1, 0, n2, n1));
}

/// Recursive geqrt of a tall tile (A.mb >= A.nb = n) into the n-by-n Tf.
template <typename T>
void geqrt_recursive(Tile<T> const& A, Tile<T> const& Tf) {
    int const mb = A.mb();
    int const n = A.nb();
    if (n <= kernel::kTriBase) {
        geqrt_naive(A, Tf);
        return;
    }
    int const n1 = n / 2, n2 = n - n1;
    auto const V1 = A.sub(0, 0, mb, n1);
    auto const T11 = Tf.sub(0, 0, n1, n1);
    geqrt_recursive(V1, T11);
    unmqr_dispatch(Op::ConjTrans, V1, T11, A.sub(0, n1, mb, n2));
    geqrt_recursive(A.sub(n1, n1, mb - n1, n2), Tf.sub(n1, n1, n2, n2));

    // Z = V1^H V2 over rows n1..mb, where V2 starts: one GEMM against the
    // dense copy of V2's unit lower trapezoid.
    auto const V2m = arena_tile<T>(kernel::kWork0, mb - n1, n2);
    masked_copy(Uplo::Lower, Diag::Unit, A.sub(n1, n1, mb - n1, n2), V2m);
    gemm_dispatch(Op::ConjTrans, Op::NoTrans, T(1), A.sub(n1, 0, mb - n1, n1),
                  V2m, T(0), Tf.sub(0, n1, n1, n2));
    tfactor_merge(Tf, n1);
}

/// Recursive tpqrt of the n-by-n triangle A1 over the m-by-n pentagon B
/// into the n-by-n Tf. The left half's pentagon has the rows down to the
/// end of its trapezoid, m1 = p + min(n1, l); the right half's keeps all m
/// rows, of which the last l - n1 (if any) are still trapezoidal.
template <typename T>
void tpqrt_recursive(int l, Tile<T> const& A1, Tile<T> const& B,
                     Tile<T> const& Tf) {
    int const n = A1.nb();
    int const m = B.mb();
    int const p = m - l;
    if (n <= kernel::kTriBase) {
        tpqrt_naive(l, A1, B, Tf);
        return;
    }
    int const n1 = n / 2, n2 = n - n1;
    int const l1 = std::min(n1, l);
    int const m1 = p + l1;
    auto const V1 = B.sub(0, 0, m1, n1);
    auto const T11 = Tf.sub(0, 0, n1, n1);
    tpqrt_recursive(l1, A1.sub(0, 0, n1, n1), V1, T11);
    tpmqr_dispatch(Op::ConjTrans, l1, V1, T11, A1.sub(0, n1, n1, n2),
                   B.sub(0, n1, m1, n2), false);
    tpqrt_recursive(std::max(0, l - n1), A1.sub(n1, n1, n2, n2),
                    B.sub(0, n1, m, n2), Tf.sub(n1, n1, n2, n2));

    // Z = V1^H V2: the identity tops of the two halves are disjoint, so
    // only B's first m1 rows count, and V2 is dense there.
    Pentagon<T>(l1, V1, kernel::kWork0)
        .ctrans_mul(B.sub(0, n1, m1, n2), T(0), Tf.sub(0, n1, n1, n2));
    tfactor_merge(Tf, n1);
}

/// tpqrt through the recursion, or the element loops at or below the base
/// case; the inner GEMMs run at the kernel's own precision.
template <typename T>
void tpqrt(int l, Tile<T> const& A1, Tile<T> const& B, Tile<T> const& Tf) {
    int const n = A1.nb();
    tbp_require(A1.mb() >= n && B.nb() == n && Tf.mb() >= n && Tf.nb() >= n);
    prec::ExecModeScope const native(prec::GemmMode::Native);
    if (n <= kernel::kTriBase) {
        tpqrt_naive(l, A1, B, Tf);
        return;
    }
    tpqrt_recursive(l, A1.sub(0, 0, n, n), B, Tf.sub(0, 0, n, n));
    set(T(0), T(0), Tf.sub(n, 0, Tf.mb() - n, n));
}

}  // namespace detail

/// QR factorization of tile A (mb-by-nb, mb >= 1); see geqrt_naive for the
/// result. Tiles of more than kernel::kTriBase reflectors go through the
/// column recursion; a wide tile (nb > mb) factors its leading square and
/// applies that block reflector to the remaining columns.
template <typename T>
void geqrt(Tile<T> const& A, Tile<T> const& Tf) {
    int const mb = A.mb();
    int const nb = A.nb();
    int const k = std::min(mb, nb);
    tbp_require(Tf.mb() >= k && Tf.nb() >= k);
    {
        prec::ExecModeScope const native(prec::GemmMode::Native);
        if (k <= kernel::kTriBase) {
            geqrt_naive(A, Tf);
        } else {
            auto const V = A.sub(0, 0, mb, k);
            auto const Tk = Tf.sub(0, 0, k, k);
            detail::geqrt_recursive(V, Tk);
            if (nb > k)
                unmqr_dispatch(Op::ConjTrans, V, Tk, A.sub(0, k, mb, nb - k));
            set(T(0), T(0), Tf.sub(k, 0, Tf.mb() - k, k));
        }
    }
    kernel::count_flops(flops::geqrf(mb, nb) * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

/// tsqrt by the element loops: the reference for tsqrt and the base case
/// of its recursion.
template <typename T>
void tsqrt_naive(Tile<T> const& A1, Tile<T> const& A2, Tile<T> const& Tf) {
    detail::tpqrt_naive(0, A1, A2, Tf);
}

/// Triangle-on-top-of-square QR: factor [R1; A2] where R1 = upper triangle
/// of A1 (n-by-n, n = A1.nb, A1.mb >= n) and A2 is m2-by-n dense.
/// On return the upper triangle of A1 holds the new R, A2 holds V2 (the
/// dense part of the reflectors; the top part of each v_j is e_j), and Tf
/// the compact WY factor.
template <typename T>
void tsqrt(Tile<T> const& A1, Tile<T> const& A2, Tile<T> const& Tf) {
    detail::tpqrt(0, A1, A2, Tf);
    kernel::count_flops(flops::tsqrt(A2.mb(), A1.nb()) * (fma_flops<T>() / 2.0),
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
    detail::tpmqr_naive(op, 0, V2, Tf, C1, C2, false);
}

/// Level-3 tsmqr: the top of the reflector block is the identity, so
///   S  = op(T) * (C1(0:n, :) + V2^H C2)   (GEMM, then GEMM)
///   C1(0:n, :) -= S,  C2 -= V2 * S        (add + GEMM)
/// with the two m2-deep GEMM panels carrying most of the flops.
template <typename T>
void tsmqr_level3(Op op, Tile<T> const& V2, Tile<T> const& Tf,
                  Tile<T> const& C1, Tile<T> const& C2) {
    detail::tpmqr_level3(op, 0, V2, Tf, C1, C2, false);
}

template <typename T>
void tsmqr(Op op, Tile<T> const& V2, Tile<T> const& Tf,
           Tile<T> const& C1, Tile<T> const& C2) {
    detail::tpmqr_dispatch(op, 0, V2, Tf, C1, C2, false);
    kernel::count_flops(flops::tsmqr(V2.mb(), V2.nb(), C1.nb())
                            * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

/// ttqrt by the element loops: the reference for ttqrt and the base case
/// of its recursion.
template <typename T>
void ttqrt_naive(Tile<T> const& A1, Tile<T> const& A2, Tile<T> const& Tf) {
    detail::tpqrt_naive(A2.mb(), A1, A2, Tf);
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
    tbp_require(A2.mb() <= A1.nb());
    detail::tpqrt(A2.mb(), A1, A2, Tf);
    kernel::count_flops(flops::ttqrt(A2.mb(), A1.nb()) * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

/// Apply the ttqrt block reflector to the tile pair [C1; C2] (reference
/// element loops): Q = I - [E; V2] T [E; V2]^H with V2 upper-trapezoidal
/// (column i has t_i = min(i + 1, m2) stored rows). For c2_zero see
/// detail::tpmqr_naive.
template <typename T>
void ttmqr_naive(Op op, Tile<T> const& V2, Tile<T> const& Tf,
                 Tile<T> const& C1, Tile<T> const& C2, bool c2_zero) {
    detail::tpmqr_naive(op, V2.mb(), V2, Tf, C1, C2, c2_zero);
}

/// ttmqr: the level-3 form multiplies by the dense copy of V2's trapezoid,
/// so each V2 product is one GEMM of n-by-n depth m2; op(T) S is one GEMM.
template <typename T>
void ttmqr(Op op, Tile<T> const& V2, Tile<T> const& Tf, Tile<T> const& C1,
           Tile<T> const& C2, bool c2_zero = false) {
    int const m2 = V2.mb();
    detail::tpmqr_dispatch(op, m2, V2, Tf, C1, C2, c2_zero);
    kernel::count_flops(flops::ttmqr(m2, V2.nb(), C1.nb(), c2_zero)
                            * (fma_flops<T>() / 2.0),
                        prec::charge_prec<T>());
}

}  // namespace tbp::blas
