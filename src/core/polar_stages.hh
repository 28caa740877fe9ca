// Stages shared by the shared-memory polar solvers (QDWH and Zolo-PD), each
// written once:
//
//   QdwhWorkspace        stacked [W1; W2] / [Q1; Q2] / T / Z iteration scratch
//   scale_and_condest    two-norm estimate, scaling, and the sigma_min lower
//                        bound by QR + trcondest (Algorithm 1 lines 11-19)
//   polar_h_stage        H = U_p^H A, symmetrized to exact Hermitian, line 52
//   low_precision_polar  convert down, low-precision solve, convert back,
//                        Newton-Schulz polish, native H
//
// Low-precision pipeline accuracy contract (the Zolo-PD precision ladder;
// QDWH's Float request meets the same one through its rung plan): the
// low-precision solve is backward stable in its own precision, i.e. it
// computes the polar factor of A + dA with ||dA|| ~ eps32 ||A||.
// Refinement that never touches A again cannot undo that perturbation, so
// the result has
//   - orthogonality            ~ eps64  (restored by Newton-Schulz),
//   - backward error ||A-UH||  ~ eps32  (inherited from the low stage),
//   - forward error vs the native polar factor ~ eps32 * kappa(A).
// A run that needs native backward error uses the all-native solver
// (precision Native).

#pragma once

#include <cmath>
#include <vector>

#include "common/error.hh"
#include "common/types.hh"
#include "cond/condest.hh"
#include "cond/norm2est.hh"
#include "core/precision_policy.hh"
#include "core/refine.hh"
#include "linalg/gemm.hh"
#include "linalg/geqrf.hh"
#include "linalg/util.hh"
#include "matrix/tiled_matrix.hh"
#include "runtime/engine.hh"

namespace tbp::detail {

/// Iteration workspaces for one scalar type. The QDWH precision ladder
/// allocates a second bundle in the shadow (float) type next to the native
/// one; Zolo-PD reuses W/Q/Tw for each stacked-QR term and Z for each
/// Cholesky term.
template <typename T>
struct QdwhWorkspace {
    TiledMatrix<T> W;   ///< stacked [W1; W2], (m + n) x n
    TiledMatrix<T> Q;   ///< stacked [Q1; Q2]
    TiledMatrix<T> Tw;  ///< QR T factors of W
    TiledMatrix<T> Z;   ///< Cholesky operand, n x n

    QdwhWorkspace() = default;
    QdwhWorkspace(std::vector<int> const& row_sizes,
                  std::vector<int> const& col_sizes, Grid grid) {
        std::vector<int> w_rows = row_sizes;
        w_rows.insert(w_rows.end(), col_sizes.begin(), col_sizes.end());
        W = TiledMatrix<T>(w_rows, col_sizes, grid);
        Q = TiledMatrix<T>(w_rows, col_sizes, grid);
        Tw = la::alloc_qr_t(W);
        Z = TiledMatrix<T>(col_sizes, col_sizes, grid);
    }
    bool empty() const { return W.empty(); }
};

template <typename T>
struct ScaledInput {
    real_t<T> alpha = 0;  ///< estimated ||A||_2; 0 flags a zero matrix
    real_t<T> l0 = 0;     ///< unclamped lower bound on sigma_min(A / alpha)
};

/// Stages 1-2 of Algorithm 1 (lines 11-19): alpha = norm2est(A),
/// A := A / alpha, and l0 from QR + trcondest of the scaled A (or
/// `condest_override` when > 0). The m x n QR runs in the workspace's W1/Tw
/// blocks, which the first iteration reinitializes anyway. A zero matrix
/// returns alpha = 0 with A untouched. l0 is returned unclamped: each
/// solver clamps it into its own interval.
template <typename T>
ScaledInput<T> scale_and_condest(rt::Engine& eng, TiledMatrix<T>& A,
                                 QdwhWorkspace<T>& ws, double condest_override,
                                 int lookahead) {
    using R = real_t<T>;
    ScaledInput<T> s;
    s.alpha = cond::norm2est(eng, A);
    if (s.alpha == R(0))
        return s;
    la::scale(eng, from_real<T>(R(1) / s.alpha), A);
    if (condest_override > 0) {
        s.l0 = static_cast<R>(condest_override);
        return s;
    }
    TiledMatrix<T> W1 = ws.W.sub(0, 0, A.mt(), A.nt());
    R const anorm = la::norm(eng, Norm::One, A);
    la::copy(eng, A, W1);
    la::geqrf(eng, W1, ws.Tw.sub(0, 0, A.mt(), A.nt()), lookahead);
    eng.wait();
    R const rcond = cond::trcondest(eng, W1);
    s.l0 = anorm * rcond / std::sqrt(static_cast<R>(A.n()));
    return s;
}

/// H = U_p^H A0, made exactly Hermitian by H := (H + H^H)/2, Algorithm 1
/// line 52.
template <typename T>
void polar_h_stage(rt::Engine& eng, TiledMatrix<T>& U, TiledMatrix<T>& Acpy,
                   TiledMatrix<T>& H) {
    la::gemm(eng, Op::ConjTrans, Op::NoTrans, T(1), U, Acpy, T(0), H);
    TiledMatrix<T> Ht(H.row_tile_sizes(), H.col_tile_sizes(), H.grid());
    la::transpose_copy(eng, Op::ConjTrans, H, Ht);
    la::add(eng, T(0.5), Ht, T(0.5), H);
}

/// The low-precision polar pipeline (see the header comment for its
/// accuracy contract): A converts into a shadow-type copy, `solve(As)`
/// overwrites it with its polar factor, the factor converts back into A,
/// Newton-Schulz restores native orthogonality, and H = U^H A is formed
/// natively from the original A. A non-Ok status from `solve` is returned
/// as is, with A unchanged.
template <typename T, typename Solve>
Status low_precision_polar(rt::Engine& eng, TiledMatrix<T> A, TiledMatrix<T> H,
                           bool compute_h, RefineInfo& ref, Solve&& solve) {
    using S = prec::shadow_t<T>;
    eng.wait();  // clone() reads tiles directly
    TiledMatrix<T> Acpy = A.clone();
    TiledMatrix<S> As(A.row_tile_sizes(), A.col_tile_sizes(), A.grid());
    la::convert_copy(eng, A, As);
    Status const s = solve(As);
    if (s != Status::Ok)
        return s;
    la::convert_copy(eng, As, A);
    ref = polar_refine_ns(eng, A, 5);
    if (compute_h)
        polar_h_stage(eng, A, Acpy, H);
    eng.wait();
    return Status::Ok;
}

}  // namespace tbp::detail
