// Mixed-precision QDWH (paper Section 8, future work: "integrate
// mixed-precision techniques to further accelerate the polar decomposition").
//
// Strategy: run the full QDWH iteration in single precision (every flop of
// the expensive QR/Cholesky iterations at half the memory traffic and, on
// real accelerators, >= 2x the rate), then restore double-precision
// *orthogonality* with a few inverse-free Newton-Schulz refinement steps
//
//   U <- 3/2 U - 1/2 U (U^H U),
//
// which converge quadratically for sigma(U) in (0, sqrt(3)) — amply
// satisfied by a single-precision polar factor (||I - U^H U|| ~ 1e-6).
// Cost: the O(n^3) iterations in float + 2 gemm-bound cleanup steps in
// double, vs 6 full double iterations for plain QDWH.
//
// Accuracy contract (detail::low_precision_polar, core/polar_stages.hh):
// orthogonality ~ eps64, backward error ||A - UH|| / ||A|| ~ eps32. A run
// that needs a native backward error uses qdwh() with a Native (or Double)
// precision request instead.

#pragma once

#include "core/polar_stages.hh"
#include "core/qdwh.hh"

namespace tbp {

struct QdwhMixedInfo {
    QdwhInfo low_precision;   ///< the float-precision QDWH run
    int refine_steps = 0;     ///< Newton-Schulz steps in double
    double orth_before = 0;   ///< ||I - U^H U||_F entering refinement
    double orth_after = 0;    ///< ... after refinement
};

/// Polar decomposition of a double-precision matrix with the iteration in
/// float: A (m x n, m >= n) is overwritten by U_p to double orthogonality;
/// H (optional, n x n) as in qdwh(). Throws tbp::Error as qdwh() does.
inline QdwhMixedInfo qdwh_mixed(rt::Engine& eng, TiledMatrix<double> A,
                                TiledMatrix<double> H,
                                QdwhOptions const& opts = {}) {
    if (opts.compute_h)
        tbp_require(H.m() == A.n() && H.n() == A.n());
    // The float stage passes opts through (including structured_qr) except
    // for H, formed in double from the original A, and the precision: it
    // is already the low rung of this driver, so it never ladders again (a
    // Bf16/Adaptive request belongs on qdwh() proper).
    QdwhOptions lo = opts;
    lo.compute_h = false;
    lo.precision = prec::PrecisionPolicy{};
    QdwhMixedInfo info;
    RefineInfo ref;
    detail::low_precision_polar(eng, A, H, opts.compute_h, opts.symmetrize_h,
                                ref, [&](TiledMatrix<float>& Af) {
                                    info.low_precision = qdwh(eng, Af, {}, lo);
                                    return Status::Ok;
                                });
    info.refine_steps = ref.steps;
    info.orth_before = ref.orth_before;
    info.orth_after = ref.orth_after;
    return info;
}

}  // namespace tbp
