// One-norm condition estimation (paper Section 6.3).
//
//   norm1est  - Hager's algorithm [Hager 1984] with reverse communication:
//               estimates ||B||_1 given only the products B*x and B^H*x.
//               As in (Sca)LAPACK's xLACON, a single implementation serves
//               any factorization by plugging in the right solves.
//   trcondest - reciprocal 1-norm condition estimate of a triangular R
//               (QDWH calls this on R from A = QR, Algorithm 1 line 17).
//   gecondest - reciprocal condition estimate of a general matrix given its
//               tiled Cholesky-like or LU-like solves; the tiled variant
//               here uses a QR of a scratch copy, the dense-reference LU
//               variant lives in src/ref/.

#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "linalg/trsm.hh"
#include "linalg/util.hh"
#include "matrix/tiled_matrix.hh"
#include "runtime/engine.hh"

namespace tbp::cond {

/// Estimate ||B||_1 for an implicit n-by-n operator B using Hager's
/// algorithm. `apply` overwrites the vector v with B v; `apply_h` with
/// B^H v. Both act on a dense vector of length n.
template <typename T>
real_t<T> norm1est(std::int64_t n,
                   std::function<void(std::vector<T>&)> const& apply,
                   std::function<void(std::vector<T>&)> const& apply_h) {
    using R = real_t<T>;
    tbp_require(n >= 1);

    auto norm1 = [](std::vector<T> const& v) {
        R s(0);
        for (auto const& x : v)
            s += std::abs(x);
        return s;
    };
    auto sign_of = [](T x) -> T {
        R const a = std::abs(x);
        return a == R(0) ? T(1) : x / from_real<T>(a);
    };
    auto argmax_abs = [](std::vector<T> const& v) {
        std::int64_t j = 0;
        R best(-1);
        for (std::int64_t i = 0; i < static_cast<std::int64_t>(v.size()); ++i) {
            R const a = std::abs(v[static_cast<size_t>(i)]);
            if (a > best) {
                best = a;
                j = i;
            }
        }
        return j;
    };

    std::vector<T> x(static_cast<size_t>(n), from_real<T>(R(1) / R(n)));
    apply(x);  // x := B * (1/n) e
    if (n == 1)
        return std::abs(x[0]);

    R est = norm1(x);

    for (auto& v : x)
        v = sign_of(v);
    apply_h(x);  // x := B^H sign(y)
    std::int64_t j = argmax_abs(x);

    for (int iter = 0; iter < 5; ++iter) {
        std::fill(x.begin(), x.end(), T(0));
        x[static_cast<size_t>(j)] = T(1);
        apply(x);  // y := B e_j
        R const est_new = norm1(x);
        if (est_new <= est)
            break;
        est = est_new;
        for (auto& v : x)
            v = sign_of(v);
        apply_h(x);
        std::int64_t const j_new = argmax_abs(x);
        if (j_new == j)
            break;
        j = j_new;
    }

    // Alternating-sign safeguard (dlacn2's final probe).
    R altsgn(1);
    for (std::int64_t i = 0; i < n; ++i) {
        x[static_cast<size_t>(i)] = from_real<T>(
            altsgn * (R(1) + R(i) / R(std::max<std::int64_t>(n - 1, 1))));
        altsgn = -altsgn;
    }
    apply(x);
    R const est2 = R(2) * norm1(x) / (R(3) * R(n));
    return std::max(est, est2);
}

/// 1-norm of the upper-triangular R stored in the top square of a
/// geqrf-factored matrix (entries below the diagonal are reflector data and
/// must be ignored).
template <typename T>
real_t<T> tr_norm1(rt::Engine& eng, TiledMatrix<T> R_) {
    using R = real_t<T>;
    eng.wait();  // serial pass over upper triangle; R_ must be quiescent
    int const nt = R_.nt();
    R best(0);
    std::int64_t col0 = 0;
    for (int j = 0; j < nt; ++j) {
        int const nbj = R_.tile_nb(j);
        std::vector<R> sums(static_cast<size_t>(nbj), R(0));
        std::int64_t row0 = 0;
        for (int i = 0; i <= j && i < R_.mt(); ++i) {
            auto t = R_.tile(i, j);
            for (int c = 0; c < t.nb(); ++c) {
                for (int r = 0; r < t.mb(); ++r) {
                    if (row0 + r <= col0 + c)
                        sums[static_cast<size_t>(c)] += std::abs(t(r, c));
                }
            }
            row0 += t.mb();
        }
        for (R s : sums)
            best = std::max(best, s);
        col0 += nbj;
    }
    return best;
}

/// Gather / scatter between a dense vector and a tiled n-by-1 column.
template <typename T>
void vec_to_tiled(std::vector<T> const& v, TiledMatrix<T>& X) {
    for (std::int64_t i = 0; i < X.m(); ++i)
        X.at(i, 0) = v[static_cast<size_t>(i)];
}

template <typename T>
void tiled_to_vec(TiledMatrix<T> const& X, std::vector<T>& v) {
    for (std::int64_t i = 0; i < X.m(); ++i)
        v[static_cast<size_t>(i)] = X.at(i, 0);
}

/// Reciprocal 1-norm condition estimate of the upper-triangular R held in
/// the top rows of a geqrf-factored matrix:
///   rcond = 1 / ( ||R||_1 * est(||R^{-1}||_1) ).
/// Returns 0 if R is exactly singular (zero diagonal). The R block is
/// extracted into a square-tiled scratch copy so that edge tiles conform
/// for the triangular solves even when m % nb != 0.
template <typename T>
real_t<T> trcondest(rt::Engine& eng, TiledMatrix<T> Rfac) {
    using RT = real_t<T>;
    eng.wait();  // Rfac must be quiescent for the serial extraction
    std::int64_t const n = Rfac.n();
    tbp_require(Rfac.m() >= n);

    // Square-tiled copy of R (upper triangle; zeros below).
    TiledMatrix<T> Rsq(Rfac.col_tile_sizes(), Rfac.col_tile_sizes(),
                       Rfac.grid());
    for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t i = 0; i <= j; ++i)
            Rsq.at(i, j) = Rfac.at(i, j);

    // Exact-singularity guard.
    for (std::int64_t i = 0; i < n; ++i)
        if (Rsq.at(i, i) == T(0))
            return RT(0);

    RT const rnorm = tr_norm1(eng, Rsq);
    if (rnorm == RT(0))
        return RT(0);

    TiledMatrix<T> X(Rsq.col_tile_sizes(), {1}, Rsq.grid());
    auto solve = [&](std::vector<T>& v) {
        vec_to_tiled(v, X);
        la::trsm(eng, Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit,
                 T(1), Rsq, X);
        eng.wait();
        tiled_to_vec(X, v);
    };
    auto solve_h = [&](std::vector<T>& v) {
        vec_to_tiled(v, X);
        la::trsm(eng, Side::Left, Uplo::Upper, Op::ConjTrans, Diag::NonUnit,
                 T(1), Rsq, X);
        eng.wait();
        tiled_to_vec(X, v);
    };

    RT const rinv_norm = norm1est<T>(n, solve, solve_h);
    if (rinv_norm == RT(0))
        return RT(0);
    return RT(1) / (rnorm * rinv_norm);
}

}  // namespace tbp::cond
