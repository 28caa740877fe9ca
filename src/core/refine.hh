// Inverse-free Newton-Schulz orthogonality refinement of the Zolo-PD
// precision ladder (detail::low_precision_polar).
//
//   U <- 3/2 U - 1/2 U (U^H U)
//
// converges quadratically for sigma(U) in (0, sqrt(3)), so a handful of
// gemm-bound steps restore native-precision orthogonality to a polar factor
// computed in float (||I - U^H U|| ~ 1e-6 -> ~1e-12 -> eps64). The backward
// error of the low-precision stage is *not* repaired (see polar_stages.hh
// for the accuracy contract).

#pragma once

#include <cmath>
#include <limits>

#include "linalg/gemm.hh"
#include "linalg/util.hh"
#include "matrix/tiled_matrix.hh"
#include "runtime/engine.hh"

namespace tbp {

struct RefineInfo {
    int steps = 0;           ///< Newton-Schulz steps taken
    double orth_before = 0;  ///< ||I - U^H U||_F entering refinement
    double orth_after = 0;   ///< ... at exit
};

/// Refine U (m x n, sigma(U) in (0, sqrt(3))) toward U^H U = I in U's own
/// precision. Stops when ||I - U^H U||_F < 10 eps sqrt(n) or after
/// max_steps. Synchronizes.
template <typename T>
RefineInfo polar_refine_ns(rt::Engine& eng, TiledMatrix<T> U,
                           int max_steps = 5) {
    using R = real_t<T>;
    std::int64_t const n = U.n();
    auto const rows = U.row_tile_sizes();
    auto const cols = U.col_tile_sizes();

    RefineInfo info;
    TiledMatrix<T> G(cols, cols, U.grid());
    TiledMatrix<T> UG(rows, cols, U.grid());
    R const eps = std::numeric_limits<R>::epsilon();
    for (int step = 0; step < max_steps; ++step) {
        // G := U^H U; orthogonality check on the fly.
        la::gemm(eng, Op::ConjTrans, Op::NoTrans, T(1), U, U, T(0), G);
        eng.wait();  // clone() reads tiles directly
        TiledMatrix<T> Gerr = G.clone();
        for (std::int64_t i = 0; i < n; ++i)
            Gerr.at(i, i) -= T(1);
        double const orth =
            static_cast<double>(la::norm(eng, Norm::Fro, Gerr));
        if (step == 0)
            info.orth_before = orth;
        info.orth_after = orth;
        if (orth < 10 * static_cast<double>(eps)
                       * std::sqrt(static_cast<double>(n)))
            break;
        // U := 1.5 U - 0.5 U G.
        la::gemm(eng, Op::NoTrans, Op::NoTrans, from_real<T>(R(-0.5)), U, G,
                 T(0), UG);
        la::add(eng, from_real<T>(R(1.5)), U, T(1), UG);
        la::copy(eng, UG, U);
        ++info.steps;
    }
    eng.wait();
    return info;
}

}  // namespace tbp
