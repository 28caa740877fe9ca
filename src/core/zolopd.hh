// Zolo-PD: polar decomposition via the Zolotarev rational approximation of
// the sign function (Nakatsukasa & Freund; the paper's Section 8 names this
// QDWH variant as future work and cites its implementation in [25]).
//
// Where QDWH applies the degree-(3,2) dynamically weighted Halley map per
// iteration, Zolo-PD applies a degree-(2r+1, 2r) Zolotarev-optimal rational
// function, evaluated through its partial-fraction expansion:
//
//   f(x) = x * prod_j (x^2 + c_{2j}) / (x^2 + c_{2j-1})
//        = x * (1 + sum_j a_j / (x^2 + c_{2j-1}))
//
// with c_i = l^2 sn^2(i K'/(2r+1); k') / cn^2(i K'/(2r+1); k'),
// k' = sqrt(1 - l^2), K' = K(k'). Each of the r partial-fraction terms
//
//   X (X^H X + c_{2j-1} I)^{-1}
//
// is computed independently — by the inverse-free QR trick on the stacked
// [X; sqrt(c) I] while ill-conditioned, by a Cholesky solve once c is small
// — which is exactly the extra concurrency (r independent factorizations
// per iteration) that makes Zolo-PD attractive in the strong-scaling
// regime, at ~r times the flops of one QDWH iteration. It converges in 2
// iterations for r = 8 even at kappa = 1e16.

#pragma once

#include <cmath>
#include <limits>
#include <vector>

#include "common/elliptic.hh"
#include "common/error.hh"
#include "common/precision.hh"
#include "common/types.hh"
#include "core/polar_stages.hh"
#include "core/precision_policy.hh"
#include "linalg/gemm.hh"
#include "linalg/geqrf.hh"
#include "linalg/potrf.hh"
#include "linalg/trsm.hh"
#include "linalg/util.hh"
#include "matrix/tiled_matrix.hh"
#include "runtime/engine.hh"

namespace tbp {

struct ZoloOptions {
    /// Number of partial-fraction terms r (degree 2r+1 Zolotarev function).
    /// r = 8 converges in 2 iterations at kappa = 1e16 in double; smaller r
    /// trades concurrency for more iterations.
    int r = 8;
    double condest_override = 0;  ///< as in QdwhOptions
    int max_iter = 20;
    bool compute_h = true;  ///< as in QdwhOptions (H made exactly Hermitian)
    /// Panel lookahead depth of the QR/Cholesky solves (see QdwhOptions).
    int lookahead = 0;
    /// Precision ladder (core/precision_policy.hh). Zolo-PD's whole
    /// iteration converges in ~2 sweeps, so there is no per-iteration rung
    /// schedule to exploit: a low-precision request on a double-kind matrix
    /// runs the *entire* Zolotarev iteration in float (under simulated-bf16
    /// gemm mode for a Bf16 request) and restores double orthogonality with
    /// a Newton-Schulz polish, computing H natively — the
    /// detail::low_precision_polar pipeline, with its accuracy contract
    /// (core/polar_stages.hh). Ignored (native) for float-kind scalars.
    prec::PrecisionPolicy precision;
};

struct ZoloInfo {
    int iterations = 0;
    int terms = 0;           ///< r
    int qr_solves = 0;       ///< stacked-QR term evaluations
    int chol_solves = 0;     ///< Cholesky term evaluations
    bool converged = false;  ///< iteration met the tolerance
    double norm2_estimate = 0;
    double condest_l0 = 0;
    double conv = 0;
    double flops = 0;

    // Precision-ladder accounting (defaults describe a native run).
    bool low_precision = false;  ///< iteration ran on the float rung
    int refine_steps = 0;        ///< Newton-Schulz polish steps in native
    double orth_after = 0;       ///< ||I - U^H U||_F after the polish
};

namespace detail {

/// Zolotarev coefficients c_1..c_2r and partial-fraction residues a_1..a_r
/// for sign(x) on [l, 1].
struct ZoloCoeffs {
    std::vector<double> c;  // 2r values, c[i-1] = c_i
    std::vector<double> a;  // r residues for poles c_{2j-1}
    double f_max;           // max of f over [l, 1] (renormalization)
    double f_min;           // min of f over [l, 1] (next interval bound)
};

inline ZoloCoeffs zolo_coeffs(double l, int r) {
    tbp_require(0 < l && l < 1 && r >= 1);
    ZoloCoeffs z;
    // Modulus k' = sqrt(1 - l^2); for tiny l it rounds to 1.0 and the
    // elliptic functions degenerate to their hyperbolic forms, so K must be
    // computed from the complementary modulus l directly.
    double const kp = std::sqrt((1.0 - l) * (1.0 + l));
    double const K = ellip_K_from_complement(l);
    z.c.resize(static_cast<size_t>(2 * r));
    for (int i = 1; i <= 2 * r; ++i) {
        double const u = i * K / (2 * r + 1);
        double ci;
        if (l < 1e-6) {
            // Degenerate modulus: the Landen recurrence cannot deliver
            // cn(u, k') ~ sech(u) ~ l to relative accuracy (it cancels
            // O(1) quantities down to 1e-16). Use the exact k' -> 1 limit
            // sn -> tanh, cn -> sech: c_i = l^2 sinh^2(u_i) (error
            // O(l^2 e^{2u}) <= O(1e-2) at the top coefficient — a
            // negligible perturbation of the optimal rational function).
            double const sh = std::sinh(u);
            ci = (l * sh) * (l * sh);
        } else {
            auto const e = ellip_sncndn(u, kp);
            ci = l * l * (e.sn * e.sn) / (e.cn * e.cn);
        }
        z.c[static_cast<size_t>(i - 1)] = ci;
    }
    // Residues of f(x)/x at the poles -c_{2j-1}:
    //   a_j = -prod_{k=1}^{r} (c_{2j-1} - c_{2k})
    //        / prod_{k != j}   (c_{2j-1} - c_{2k-1}).
    z.a.resize(static_cast<size_t>(r));
    for (int j = 1; j <= r; ++j) {
        double num = 1, den = 1;
        double const p = z.c[static_cast<size_t>(2 * j - 2)];
        for (int k = 1; k <= r; ++k) {
            num *= p - z.c[static_cast<size_t>(2 * k - 1)];
            if (k != j)
                den *= p - z.c[static_cast<size_t>(2 * k - 2)];
        }
        z.a[static_cast<size_t>(j - 1)] = -num / den;
    }
    // Evaluate f in product form — the partial-fraction form cancels
    // catastrophically for scalar arguments when the poles span many orders
    // of magnitude (the matrix iteration is immune: each term is an
    // orthogonal-QR solve, cf. Nakatsukasa-Freund's stability analysis).
    auto f = [&](double x) {
        double v = x;
        for (int j = 1; j <= r; ++j)
            v *= (x * x + z.c[static_cast<size_t>(2 * j - 1)])
                 / (x * x + z.c[static_cast<size_t>(2 * j - 2)]);
        return v;
    };
    // The Zolotarev function equioscillates on [l, 1]; sample the image
    // interval numerically (log spacing resolves the decades near l, linear
    // spacing the oscillations near 1).
    z.f_max = 0;
    z.f_min = std::numeric_limits<double>::max();
    auto probe = [&](double x) {
        double const v = f(x);
        z.f_max = std::max(z.f_max, v);
        z.f_min = std::min(z.f_min, v);
    };
    int const grid = 2000;
    double const log_l = std::log(l);
    for (int i = 0; i <= grid; ++i) {
        double const t = static_cast<double>(i) / grid;
        probe(std::exp(log_l * (1.0 - t)));  // log-spaced l..1
        probe(l + (1.0 - l) * t);            // linear-spaced l..1
    }
    return z;
}

/// Body of zolo_pd_status after validation; may throw tbp::Error from task
/// synchronization points (caught and mapped by zolo_pd_status).
template <typename T>
Status zolo_impl(rt::Engine& eng, TiledMatrix<T> A, TiledMatrix<T> H,
                 ZoloInfo& info, ZoloOptions const& opts) {
    using R = real_t<T>;
    info.terms = opts.r;
    double const flops0 = eng.flops_executed();

    R const eps = std::numeric_limits<R>::epsilon();
    R const tol1 = R(10) * eps;
    R const tol3 = std::cbrt(R(5) * eps);

    int const mt = A.mt();
    int const nt = A.nt();
    auto const row_sizes = A.row_tile_sizes();
    auto const col_sizes = A.col_tile_sizes();

    eng.wait();  // quiesce pending caller tasks: clone() reads tiles directly
    TiledMatrix<T> Acpy = A.clone();
    TiledMatrix<T> Aprev(row_sizes, col_sizes, A.grid());
    TiledMatrix<T> Acc(row_sizes, col_sizes, A.grid());
    TiledMatrix<T> Term(row_sizes, col_sizes, A.grid());
    QdwhWorkspace<T> ws(row_sizes, col_sizes, A.grid());

    // Scale and estimate sigma_min as in QDWH.
    auto const est = scale_and_condest(eng, A, ws, opts.condest_override,
                                       opts.lookahead);
    if (est.alpha == R(0)) {
        info.flops = eng.flops_executed() - flops0;
        return Status::ZeroMatrix;
    }
    info.norm2_estimate = static_cast<double>(est.alpha);

    TiledMatrix<T> W1 = ws.W.sub(0, 0, mt, nt);
    TiledMatrix<T> Q1 = ws.Q.sub(0, 0, mt, nt);
    TiledMatrix<T> Q2 = ws.Q.sub(mt, 0, nt, nt);

    // Floor below double's kappa = 1e16 regime: the Zolotarev interval
    // must contain sigma_min(A0) or the bottom of the spectrum is
    // under-lifted and extra sweeps are needed.
    R li = std::min(std::max(est.l0, R(1e-17)), R(0.999));
    info.condest_l0 = static_cast<double>(li);

    R conv = R(100);
    while ((conv >= tol3 || std::abs(li - R(1)) >= tol1)
           && info.iterations < opts.max_iter) {
        // Clamp the coefficient argument: in low precision li can round to
        // exactly 1 while the iterate still needs a final polishing sweep.
        double const l_arg = std::min(
            std::max(static_cast<double>(li), 1e-17), 1.0 - 1e-12);
        auto const zc = detail::zolo_coeffs(l_arg, opts.r);

        // The Cholesky operand c I + X^H X has condition <= (c + 1)/(c +
        // l^2); safe only once the iterate is well-conditioned. Mirrors
        // QDWH's QR -> Cholesky switch (and Zolo-PD's iteration-1-QR /
        // iteration-2-Cholesky schedule).
        bool const use_qr = li < R(0.3);

        la::copy(eng, A, Aprev);
        la::copy(eng, A, Acc);  // the leading "x * 1" term

        for (int j = 1; j <= opts.r; ++j) {
            double const c = zc.c[static_cast<size_t>(2 * j - 2)];
            double const aj = zc.a[static_cast<size_t>(j - 1)];
            if (use_qr) {
                // QR evaluation on the stacked [X; sqrt(c) I], exploiting
                // its sqrt(c) I block; exact even for ill-conditioned X.
                la::copy(eng, Aprev, W1);
                la::geqrf_stacked_tri(
                    eng, ws.W, mt, from_real<T>(static_cast<R>(std::sqrt(c))),
                    ws.Tw, opts.lookahead);
                la::ungqr_stacked_tri(eng, ws.W, mt, ws.Tw, ws.Q);
                // X (X^H X + c I)^{-1} = Q1 Q2^H / sqrt(c); Q2 =
                // sqrt(c) R^{-1} is block upper triangular.
                la::gemm_rt_upper(
                    eng, from_real<T>(static_cast<R>(aj / std::sqrt(c))), Q1,
                    Q2, T(1), Acc);
                ++info.qr_solves;
            } else {
                // Cholesky evaluation: Z = c I + X^H X.
                la::set(eng, T(0), from_real<T>(static_cast<R>(c)), ws.Z);
                la::herk(eng, Uplo::Lower, Op::ConjTrans, R(1), Aprev, R(1),
                         ws.Z);
                la::potrf(eng, Uplo::Lower, ws.Z, opts.lookahead);
                la::copy(eng, Aprev, Term);
                la::trsm(eng, Side::Right, Uplo::Lower, Op::ConjTrans,
                         Diag::NonUnit, T(1), ws.Z, Term);
                la::trsm(eng, Side::Right, Uplo::Lower, Op::NoTrans,
                         Diag::NonUnit, T(1), ws.Z, Term);
                la::add(eng, from_real<T>(static_cast<R>(aj)), Term, T(1), Acc);
                ++info.chol_solves;
            }
        }

        // Renormalize the image interval [f_min, f_max] back into (0, 1].
        la::copy(eng, Acc, A);
        la::scale(eng, from_real<T>(static_cast<R>(1.0 / zc.f_max)), A);
        li = static_cast<R>(zc.f_min / zc.f_max);

        // Fused non-destructive convergence check (one read-only sweep).
        conv = la::diff_norm_fro(eng, A, Aprev);
        ++info.iterations;
    }
    info.conv = static_cast<double>(conv);
    if (info.iterations >= opts.max_iter
        && (conv >= tol3 || std::abs(li - R(1)) >= tol1)) {
        eng.wait();
        info.flops = eng.flops_executed() - flops0;
        return Status::NotConverged;
    }
    info.converged = true;

    if (opts.compute_h)
        polar_h_stage(eng, A, Acpy, H);
    eng.wait();
    info.flops = eng.flops_executed() - flops0;
    return Status::Ok;
}

}  // namespace detail

/// Status-returning Zolo-PD (same failure contract as qdwh_status):
/// validates up front, reports ZeroMatrix / NotConverged / NumericalError
/// instead of throwing. The batched service entry point.
template <typename T>
Status zolo_pd_status(rt::Engine& eng, TiledMatrix<T> A, TiledMatrix<T> H,
                      ZoloInfo& info, ZoloOptions const& opts = {}) {
    info = ZoloInfo{};
    if (A.empty() || A.m() < A.n())
        return Status::InvalidArgument;
    std::int64_t const n = A.n();
    if (opts.compute_h && (H.empty() || H.m() != n || H.n() != n))
        return Status::InvalidArgument;
    if (opts.r < 1 || opts.max_iter < 1)
        return Status::InvalidArgument;

    try {
        if constexpr (std::is_same_v<T, double>
                      || std::is_same_v<T, std::complex<double>>) {
            if (prec::ladder_engaged(opts.precision.request,
                                     prec::native_prec<T>())) {
                // The whole Zolotarev iteration runs in float (simulated
                // bf16 gemms for a Bf16 request), polished natively.
                ZoloOptions lo = opts;
                lo.compute_h = false;
                lo.precision = prec::PrecisionPolicy{};  // the shadow is the rung
                prec::Prec const rung =
                    opts.precision.request == prec::Precision::Bf16
                        ? prec::Prec::Bf16
                        : prec::Prec::Float;
                RefineInfo ref;
                Status const s = detail::low_precision_polar(
                    eng, A, H, opts.compute_h, ref, [&](auto& As) {
                        prec::ScopedGemmMode mode_scope(prec::gemm_mode(rung));
                        return zolo_pd_status(eng, As, {}, info, lo);
                    });
                info.low_precision = s == Status::Ok;
                info.refine_steps = ref.steps;
                info.orth_after = ref.orth_after;
                return s;
            }
        }
        return detail::zolo_impl(eng, A, H, info, opts);
    } catch (Error const&) {
        try {
            eng.wait();
        } catch (...) {
        }
        return Status::NumericalError;
    }
}

/// Polar decomposition A = U_p H by Zolo-PD. Same contract as qdwh():
/// A (m x n, m >= n) is overwritten by U_p; H optional n x n. Throws
/// tbp::Error on invalid input, a zero matrix, or non-convergence.
template <typename T>
ZoloInfo zolo_pd(rt::Engine& eng, TiledMatrix<T> A, TiledMatrix<T> H,
                 ZoloOptions const& opts = {}) {
    ZoloInfo info;
    Status const s = zolo_pd_status(eng, A, H, info, opts);
    if (s != Status::Ok)
        detail::throw_status("zolo_pd", s,
                             A.empty() ? 0 : static_cast<long long>(A.m()),
                             A.empty() ? 0 : static_cast<long long>(A.n()),
                             opts.max_iter);
    return info;
}

}  // namespace tbp
