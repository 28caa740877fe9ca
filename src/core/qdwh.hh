// QDWH-based polar decomposition — the paper's Algorithm 1.
//
// Computes A = U_p H for A in C^{m x n} (m >= n): U_p with orthonormal
// columns overwrites A, and H (n x n, Hermitian positive semidefinite) is
// returned in H. The iteration is the inverse-free QR-based dynamically
// weighted Halley method of Nakatsukasa et al., switching to the cheaper
// Cholesky-based variant once the iterate is well-conditioned (c <= 100),
// exactly as in the paper.
//
// Stage map (Algorithm 1 line numbers in brackets):
//   1. two-norm estimate and scaling           [11-13]  cond::norm2est
//   2. condition estimate via QR + trcondest   [15-19]  la::geqrf, cond::trcondest
//   3. QR-based iterations                     [30-36]  la::geqrf_stacked_tri/
//                                                       ungqr_stacked_tri/
//                                                       gemm_rt_upper
//      Cholesky-based iterations               [38-44]  la::herk/potrf/trsm/add
//   4. H = U_p^H A                             [52]     la::gemm (+ symmetrization)
//
// Note on Algorithm 1 line 40: the paper prints `herk(-c, A, one, W2)` with
// the comment W2 = I - c A^T A, but Eq. (2) (and positive definiteness of
// the Cholesky operand, given c >= 3) require Z = I + c A^H A; we follow
// Eq. (2). This implementation also realizes the paper's posv(W2, A^T) step
// as two right-side triangular solves with the Cholesky factor,
// A := A L^{-H} L^{-1} = A Z^{-1}, avoiding the explicit transposes.
//
// All four scalar types are supported; execution is task-dataflow or
// fork-join depending on the engine's mode (paper's SLATE vs ScaLAPACK).
//
// Precision ladder. There is one iteration loop (detail::qdwh_run); what
// QdwhOptions::precision changes is *where* each iteration's flops run. A
// pre-computed rung plan (prec::plan_rungs, a pure function of the condition
// estimate l0) assigns every iteration to simulated-bf16, float, or the
// native type; a Native request is simply the all-native plan.
//
//   native rung — the iteration body runs on the native buffers.
//   float rung  — the entering iterate converts into a float shadow
//                 workspace, the body runs there (every QR/Cholesky flop in
//                 float, half the memory traffic), and the result converts
//                 back. The two O(n^2) conversion sweeps are the price for
//                 O(n^3) iteration flops at the float rate.
//   bf16 rung   — the float-rung body under an active bf16 gemm mode:
//                 pack-time truncation of every gemm operand to bf16 with
//                 fp32 accumulation (see blas/kernel/gemm.hh).
//
// The l recurrence runs in double (prec::qdwh_weights — the same pure
// function the plan, the distributed driver and the cost model use), so the
// executed schedule is deterministic at fixed inputs and identical across
// engine modes and process grids.
//
// Fallback: a low-precision Cholesky iteration whose operand loses
// numerical positive definiteness throws from potrf; the error surfaces at
// the convergence-norm sync, the engine quiesces, and the iteration re-runs
// one rung up from the *intact* native iterate (bodies only write the
// shadow and `oth` buffers). A native-rung failure, or a non-finite native
// iterate, is terminal (Status::NumericalError). Promotions are recorded in
// info.fallbacks, and a fallback that discarded partially executed work
// clears info.kernel_flops_exact (the cost model cannot replay a poisoned
// half-iteration's charges).
//
// Accuracy: the final planned iterations and every conv-driven straggler
// run native (prec::kTailNative >= 1), and one native Halley
// step cubes the float-level error (1e-7^3 << eps64), so the loop exits at
// native orthogonality; H = U^H A is computed natively from the original A.

#pragma once

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "blas/kernel/stats.hh"
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

struct QdwhOptions {
    /// Override the estimated lower bound l0 on sigma_min(A0); <= 0 means
    /// estimate it via QR + trcondest (the paper's path).
    double condest_override = 0;
    /// Safety cap on iterations (theory guarantees <= 6 in double).
    int max_iter = 50;
    /// Compute H = U_p^H A after convergence (Algorithm 1 line 52), made
    /// exactly Hermitian by H := (H + H^H)/2.
    bool compute_h = true;
    /// Panel lookahead depth of the QR/Cholesky iterates (geqrf/potrf):
    /// updates into the next `lookahead` panel columns ride the priority
    /// lane so those panels unblock early. 0 = plain dataflow schedule.
    int lookahead = 0;
    /// Precision-ladder policy (core/precision_policy.hh). Native plans
    /// every iteration on the matrix's own type; Float/Bf16/Adaptive plan
    /// admissible iterations on lower rungs with a native tail and native
    /// H, promoting a failed low-precision Cholesky iterate one rung up
    /// instead of aborting. Every request runs the same loop. A Float
    /// request's contract is native orthogonality with a float-level
    /// backward error.
    prec::PrecisionPolicy precision;
};

struct QdwhInfo {
    int iterations = 0;  ///< total iterations
    int it_qr = 0;       ///< QR-based iterations (Eq. 1)
    int it_chol = 0;     ///< Cholesky-based iterations (Eq. 2)
    bool converged = false;     ///< iteration met the tolerance
    double norm2_estimate = 0;  ///< estimated ||A||_2 used for scaling
    double condest_l0 = 0;      ///< lower bound on sigma_min(A0)
    double conv = 0;            ///< final ||A_k - A_{k-1}||_F
    double flops = 0;           ///< flops executed by this call (measured)
    std::vector<double> li_history;  ///< L_k after each parameter update

    // Precision-ladder accounting. A Native request reports every
    // iteration at the native rung.
    std::vector<prec::Prec> rungs;  ///< executed rung per iteration
    int fallbacks = 0;  ///< low-rung attempts re-run one rung up
    /// Measured kernel-counter deltas (blas::kernel::flops_performed per
    /// bucket) over the iteration loop + H stage — the quantity the
    /// precision-aware cost model reproduces exactly. Valid only when no
    /// concurrent kernel activity shares the process-global counters.
    std::array<double, prec::kNumPrec> kernel_flops_by_prec{};
    /// False when a mid-flight fallback discarded a partially executed
    /// iteration's charges (the model cannot replay partial poisoned DAGs).
    bool kernel_flops_exact = true;
};

namespace detail {

/// One QDWH iteration (Algorithm 1 lines 30-44): reads cur, writes A_k into
/// oth; ws provides the stacked W/Q/T and Z scratch. The weights arrive in
/// double (the planning precision) and are applied in R. The QR-based
/// branch (Eq. 1) runs while c > 100, the Cholesky-based branch (Eq. 2)
/// after; a Cholesky operand that is not numerically HPD throws tbp::Error
/// (surfaced at a sync point), which is the ladder's fallback trigger.
template <typename T>
void qdwh_iter(rt::Engine& eng, prec::QdwhWeights const& w, TiledMatrix<T>& cur,
               TiledMatrix<T>& oth, QdwhWorkspace<T>& ws,
               QdwhOptions const& opts) {
    using R = real_t<T>;
    double const a = w.a, b = w.b, c = w.c;
    if (!w.qr) {
        la::copy(eng, cur, oth);
        la::set_identity(eng, ws.Z);
        la::herk(eng, Uplo::Lower, Op::ConjTrans, static_cast<R>(c), cur,
                 R(1), ws.Z);
        la::potrf(eng, Uplo::Lower, ws.Z, opts.lookahead);
        la::trsm(eng, Side::Right, Uplo::Lower, Op::ConjTrans, Diag::NonUnit,
                 T(1), ws.Z, oth);
        la::trsm(eng, Side::Right, Uplo::Lower, Op::NoTrans, Diag::NonUnit,
                 T(1), ws.Z, oth);
        // A_k = (b/c) A_{k-1} + (a - b/c) A_{k-1} Z^{-1}
        la::add(eng, from_real<T>(static_cast<R>(b / c)), cur,
                from_real<T>(static_cast<R>(a - b / c)), oth);
        return;
    }
    int const mt = cur.mt(), nt = cur.nt();
    TiledMatrix<T> W1 = ws.W.sub(0, 0, mt, nt);
    TiledMatrix<T> Q1 = ws.Q.sub(0, 0, mt, nt);
    TiledMatrix<T> Q2 = ws.Q.sub(mt, 0, nt, nt);
    la::copy(eng, cur, W1);
    la::scale(eng, from_real<T>(static_cast<R>(std::sqrt(c))), W1);
    R const theta = static_cast<R>((a - b / c) / std::sqrt(c));
    R const beta = static_cast<R>(b / c);
    // The QR of W = [sqrt(c) A; I] exploits the identity block
    // (geqrf_stacked_tri / ungqr_stacked_tri), ~35% fewer flops at m = n.
    la::geqrf_stacked_tri(eng, ws.W, mt, T(1), ws.Tw, opts.lookahead);
    la::ungqr_stacked_tri(eng, ws.W, mt, ws.Tw, ws.Q);
    // Q2 = R^{-1} is block upper triangular; the out-of-place triangular
    // gemm writes A_k while A_{k-1} survives in cur.
    la::gemm_rt_upper(eng, from_real<T>(theta), Q1, Q2, from_real<T>(beta),
                      cur, oth);
}

/// Body of qdwh_status after validation; may throw tbp::Error from task
/// synchronization points (caught and mapped by qdwh_status).
template <typename T>
Status qdwh_run(rt::Engine& eng, TiledMatrix<T> A, TiledMatrix<T> H,
                QdwhInfo& info, QdwhOptions const& opts) {
    using R = real_t<T>;
    using S = prec::shadow_t<T>;
    prec::Prec const native = prec::native_prec<T>();
    prec::PrecisionPolicy const& pol = opts.precision;
    double const flops0 = eng.flops_executed();

    R const eps = std::numeric_limits<R>::epsilon();
    double const tol1 = static_cast<double>(R(5) * eps);  // |L - 1|
    R const tol3 = std::cbrt(R(5) * eps);  // ||A_k - A_{k-1}||_F

    auto const row_sizes = A.row_tile_sizes();
    auto const col_sizes = A.col_tile_sizes();

    eng.wait();  // quiesce pending caller tasks: clone() reads tiles directly
    // Workspaces (Algorithm 1 lines 4-6). Aalt is the rotation partner of
    // A: each iteration writes A_k into whichever of the two buffers holds
    // A_{k-2}, so no per-iteration Aprev copy sweep is needed.
    TiledMatrix<T> Acpy = A.clone();  // backup of the *unscaled* A, for H
    TiledMatrix<T> Aalt(row_sizes, col_sizes, A.grid());
    QdwhWorkspace<T> ws(row_sizes, col_sizes, A.grid());

    // --- Stages 1-2: scaling and condition estimate (lines 11-19) --------
    auto const est = scale_and_condest(eng, A, ws, opts.condest_override,
                                       opts.lookahead);
    if (est.alpha == R(0)) {
        info.flops = eng.flops_executed() - flops0;
        return Status::ZeroMatrix;
    }
    info.norm2_estimate = static_cast<double>(est.alpha);
    // Clamp into a sane open interval: an exact 0 (singular estimate) still
    // converges with the worst-case parameters; > 1 cannot happen for a
    // correctly scaled iterate but guards estimator overshoot.
    R const li_floor = std::numeric_limits<R>::min() * R(100);
    double li =
        static_cast<double>(std::min(std::max(est.l0, li_floor), R(1)));
    info.condest_l0 = li;

    // The rung schedule is a pure function of l0 (a Native request plans
    // every iteration on the native rung), shared with the distributed
    // driver and the precision cost model.
    auto const plan = prec::plan_rungs(li, tol1, opts.max_iter, pol, native);

    // Shadow workspaces, allocated on first low-rung use (an all-native
    // plan never pays for them).
    TiledMatrix<S> Scur, Soth;
    QdwhWorkspace<S> sws;
    auto ensure_shadow = [&] {
        if (!Scur.empty())
            return;
        Scur = TiledMatrix<S>(row_sizes, col_sizes, A.grid());
        Soth = TiledMatrix<S>(row_sizes, col_sizes, A.grid());
        sws = QdwhWorkspace<S>(row_sizes, col_sizes, A.grid());
    };

    // --- Stage 3: main iteration (lines 21-50) ----------------------------
    // Per-precision measured-counter snapshot: every preceding charging op
    // (norm2est's gemvs, the condest QR) has synchronized, and the ops
    // still in flight (scale) charge nothing, so the deltas taken at the
    // end cover exactly the iteration loop + H stage.
    std::array<double, prec::kNumPrec> kf0{};
    for (int p = 0; p < prec::kNumPrec; ++p)
        kf0[static_cast<std::size_t>(p)] =
            blas::kernel::flops_performed(static_cast<prec::Prec>(p));

    R conv = R(100);
    auto const unconverged = [&] {
        return conv >= tol3 || std::abs(li - 1.0) >= tol1;
    };
    // Buffer rotation: `cur` holds A_{k-1}, the iteration writes A_k into
    // `oth`, the convergence check reads both, then the roles swap.
    TiledMatrix<T>* cur = &A;
    TiledMatrix<T>* oth = &Aalt;
    bool forced_fallback_done = false;

    while (unconverged() && info.iterations < opts.max_iter) {
        std::size_t const k = static_cast<std::size_t>(info.iterations);
        prec::QdwhWeights const w = prec::qdwh_weights(li);  // lines 23-27
        li = w.li_next;
        info.li_history.push_back(li);
        prec::Prec rung = k < plan.size() ? plan[k].rung : native;

        for (;;) {  // fallback: retry one rung up until native
            bool failed = false;
            if (pol.force_fallback_iter == info.iterations && rung != native
                && !forced_fallback_done) {
                // Test hook: fail *before* submission, so no partial
                // charges are discarded and accounting stays exact.
                forced_fallback_done = true;
                failed = true;
            } else {
                try {
                    if (rung == native) {
                        qdwh_iter(eng, w, *cur, *oth, ws, opts);
                    } else {
                        // Low rung: the iterate converts into the shadow
                        // workspace, the body runs there and converts back.
                        ensure_shadow();
                        la::convert_copy(eng, *cur, Scur);
                        {
                            // Submission-side mode: captured into every
                            // task (and batch-group key) this scope emits.
                            prec::ScopedGemmMode mode_scope(
                                prec::gemm_mode(rung));
                            qdwh_iter(eng, w, Scur, Soth, sws, opts);
                        }
                        la::convert_copy(eng, Soth, *oth);
                    }
                    // conv = ||A_k - A_{k-1}||_F (lines 47-48): one fused
                    // read-only sweep over both buffers. Synchronizes.
                    conv = la::diff_norm_fro(eng, *oth, *cur);
                    if (!std::isfinite(static_cast<double>(conv))) {
                        failed = true;
                        info.kernel_flops_exact = false;
                    }
                } catch (Error const&) {
                    if (rung == native)
                        throw;  // terminal, mapped by qdwh_status
                    try {
                        eng.wait();  // quiesce the poisoned DAG
                    } catch (...) {
                    }
                    failed = true;
                    info.kernel_flops_exact = false;
                }
            }
            if (!failed)
                break;
            if (rung == native)
                tbp_throw("qdwh: non-finite iterate at native precision");
            rung = prec::promote(rung, native);
            ++info.fallbacks;
        }

        info.rungs.push_back(rung);
        if (w.qr)
            ++info.it_qr;
        else
            ++info.it_chol;
        std::swap(cur, oth);
        ++info.iterations;
    }
    if (cur != &A)
        la::copy(eng, *cur, A);
    info.conv = static_cast<double>(conv);
    if (info.iterations >= opts.max_iter && unconverged()) {
        eng.wait();
        info.flops = eng.flops_executed() - flops0;
        return Status::NotConverged;
    }
    info.converged = true;

    // --- Stage 4: H = U_p^H A, always native (line 52) --------------------
    if (opts.compute_h)
        polar_h_stage(eng, A, Acpy, H);
    eng.wait();

    for (int p = 0; p < prec::kNumPrec; ++p)
        info.kernel_flops_by_prec[static_cast<std::size_t>(p)] =
            blas::kernel::flops_performed(static_cast<prec::Prec>(p))
            - kf0[static_cast<std::size_t>(p)];
    info.flops = eng.flops_executed() - flops0;
    return Status::Ok;
}

}  // namespace detail

/// Status-returning polar decomposition A = U_p H by QDWH (the batched
/// service entry point: a failing job must report, not unwind through the
/// shared engine). A (m x n, m >= n) is overwritten by U_p; if
/// opts.compute_h, H must be n-by-n with A's column tile sizes. Validates
/// inputs up front (InvalidArgument) instead of failing downstream in
/// geqrf; returns ZeroMatrix / NotConverged / NumericalError in place of
/// the throwing wrapper's tbp::Error. `info` is always filled with
/// whatever progress was made.
template <typename T>
Status qdwh_status(rt::Engine& eng, TiledMatrix<T> A, TiledMatrix<T> H,
                   QdwhInfo& info, QdwhOptions const& opts = {}) {
    info = QdwhInfo{};
    if (A.empty() || A.m() < A.n())
        return Status::InvalidArgument;
    std::int64_t const n = A.n();
    if (opts.compute_h && (H.empty() || H.m() != n || H.n() != n))
        return Status::InvalidArgument;
    if (opts.max_iter < 1)
        return Status::InvalidArgument;

    try {
        return detail::qdwh_run(eng, A, H, info, opts);
    } catch (Error const&) {
        // A task-level numerical failure (e.g. a non-HPD Cholesky pivot)
        // surfaced at a synchronization point. Quiesce so the engine is
        // clean for the next job, then report instead of rethrowing.
        try {
            eng.wait();
        } catch (...) {
        }
        return Status::NumericalError;
    }
}

/// Polar decomposition A = U_p H by QDWH. A (m x n, m >= n) is overwritten
/// by U_p. If opts.compute_h, H must be n-by-n with A's column tile sizes.
/// Throws tbp::Error with a clear message on invalid dimensions, a zero
/// matrix, non-convergence, or a numerical failure; single-job callers keep
/// this interface, the batched service uses qdwh_status.
template <typename T>
QdwhInfo qdwh(rt::Engine& eng, TiledMatrix<T> A, TiledMatrix<T> H,
              QdwhOptions const& opts = {}) {
    QdwhInfo info;
    Status const s = qdwh_status(eng, A, H, info, opts);
    if (s != Status::Ok)
        detail::throw_status("qdwh", s,
                             A.empty() ? 0 : static_cast<long long>(A.m()),
                             A.empty() ? 0 : static_cast<long long>(A.n()),
                             opts.max_iter);
    return info;
}

}  // namespace tbp
