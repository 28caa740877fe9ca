// Matrix two-norm estimation by power iteration — paper Algorithm 2.
//
// The initial vector is the vector of column absolute sums (computed as
// local tile sums + a global reduction, mirroring internal::norm +
// MPI_Allreduce in the paper); iterations alternate x -> A x -> A^H (A x)
// through gemmA, the tall-A-by-skinny-vector product of Section 6.2.
// The tolerance is 0.1: "approximations accurate to a factor of 5 are
// entirely satisfactory" for scaling QDWH's initial iterate.

#pragma once

#include <cmath>
#include <cstdint>

#include "linalg/gemm.hh"
#include "linalg/util.hh"
#include "matrix/tiled_matrix.hh"
#include "runtime/engine.hh"

namespace tbp::cond {

struct Norm2estOptions {
    double tol = 0.1;
    int max_iter = 100;
};

/// Estimate ||A||_2 (largest singular value). Returns 0 for a zero matrix.
template <typename T>
real_t<T> norm2est(rt::Engine& eng, TiledMatrix<T> A,
                   Norm2estOptions const& opt = {}) {
    using R = real_t<T>;

    // Distributed vectors X (n) and AX (m) sharing A's tile boundaries.
    TiledMatrix<T> X(A.col_tile_sizes(), {1}, A.grid());
    TiledMatrix<T> AX(A.row_tile_sizes(), {1}, A.grid());

    // X := column absolute sums of A (Algorithm 2 lines 5-8).
    auto sums = la::col_abs_sums(eng, A);
    for (std::int64_t j = 0; j < A.n(); ++j)
        X.at(j, 0) = from_real<T>(sums[static_cast<size_t>(j)]);

    // Initial estimate e = ||X||_F.
    R e = la::norm(eng, Norm::Fro, X);
    if (e == R(0))
        return R(0);

    R e0(0);
    R normX = e;
    int iter = 0;
    while (std::abs(e - e0) > opt.tol * e && iter < opt.max_iter) {
        e0 = e;
        la::scale(eng, from_real<T>(R(1) / normX), X);

        la::gemmA(eng, Op::NoTrans, T(1), A, X, T(0), AX);   // AX = A x
        la::gemmA(eng, Op::ConjTrans, T(1), A, AX, T(0), X); // X  = A^H (A x)

        normX = la::norm(eng, Norm::Fro, X);
        R const normAX = la::norm(eng, Norm::Fro, AX);
        if (normAX == R(0) || normX == R(0))
            return e0;  // hit the null space; keep the last estimate
        e = normX / normAX;
        ++iter;
    }
    return e;
}

}  // namespace tbp::cond
