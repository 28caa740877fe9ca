// Fully distributed QDWH over virtual ranks — both iteration branches:
// QR-based (Eq. 1) on the stacked [sqrt(c) A; I] via dist_geqrf/dist_ungqr,
// and Cholesky-based (Eq. 2) via dist_herk/dist_potrf/dist_trsm. This is
// the message-passing counterpart of the shared-memory task solver and the
// paper's contribution #1 in its distributed form.
//
// The workspaces take their tile sizes from A's, so any m >= n and nb work:
// the stacked [W1; W2] keeps A's block rows on top, and W1, Q1 and Q2 are
// sub-views of the stacked matrices, exactly as in the shared-memory
// qdwh_iter. The sigma_min lower bound l0 is supplied by the caller (the
// shared-memory path's QR + trcondest estimate, or an application bound).

#pragma once

#include <memory>

#include "comm/dist_qr.hh"
#include "comm/dist_summa25.hh"
#include "comm/grid3d.hh"
#include "common/precision.hh"
#include "core/precision_policy.hh"

namespace tbp::comm {

/// Result of dist_qdwh.
struct DistQdwhInfo {
    int iterations = 0;
    double norm2_estimate = 0;
    double conv = 0;

    // Per executed iteration: the precision-ladder rung it ran on (native
    // throughout under a Native policy) and this rank's point-to-point
    // traffic inside the iteration-branch region only (tile staging of the
    // QR or Cholesky body — the convergence-norm allreduce and barrier are
    // excluded, so a float-rung iteration's bytes are *exactly*
    // sizeof(float-kind) / sizeof(native) times the native iteration's,
    // with equal message counts; asserted in test_precision).
    std::vector<prec::Prec> rungs;
    std::vector<std::uint64_t> iter_bytes_sent;
    std::vector<std::uint64_t> iter_msgs_sent;
};

namespace detail {

/// Distributed workspaces of one QDWH iteration in one scalar type — the
/// message-passing analogue of tbp::detail::QdwhWorkspace, on A's tile
/// sizes. The T factors take the widest panel, nb_0, in every block row.
template <typename T>
struct DistQdwhWork {
    TiledMatrix<T> Aprev, Z, W, Tm, Q;

    template <typename U>
    explicit DistQdwhWork(TiledMatrix<U> const& A) {
        auto const rows = A.row_tile_sizes(), cols = A.col_tile_sizes();
        auto w_rows = rows;
        w_rows.insert(w_rows.end(), cols.begin(), cols.end());
        Grid const g = A.grid();
        int const r = A.rank();
        Aprev = TiledMatrix<T>(rows, cols, g, r);
        Z = TiledMatrix<T>(cols, cols, g, r);
        W = TiledMatrix<T>(w_rows, cols, g, r);
        Tm = TiledMatrix<T>(std::vector<int>(w_rows.size(), cols[0]), cols, g,
                            r);
        Q = TiledMatrix<T>(w_rows, cols, g, r);
    }
};

/// One distributed QDWH iteration (both branches): A := f_k(A) with weights
/// (a, b, cc), leaving the entering iterate in w.Aprev. dist_qdwh runs it on
/// the native matrices or, on a low rung, on a float shadow matrix set;
/// `tag_base` advances by the same span on every rank and rung.
template <typename T>
void dist_qdwh_iter(Communicator& c, ProcGrid3d g3, TiledMatrix<T> const& A,
                    DistQdwhWork<T>& w, double da, double db, double dcc,
                    int& tag_base) {
    using R = real_t<T>;
    Grid const g = g3.layer();
    int const mt = A.mt(), nt = A.nt();
    R const a = static_cast<R>(da);
    R const b = static_cast<R>(db);
    R const cc = static_cast<R>(dcc);

    dist_copy(A, w.Aprev);

    if (dcc > 100.0) {
        // --- QR-based iteration on the stacked [sqrt(c) A; I] -------------
        R const sq = std::sqrt(cc);
        TiledMatrix<T> W1 = w.W.sub(0, 0, mt, nt);
        TiledMatrix<T> Q1 = w.Q.sub(0, 0, mt, nt);
        TiledMatrix<T> Q2 = w.Q.sub(mt, 0, nt, nt);
        dist_copy(A, W1);
        dist_scale(from_real<T>(sq), W1);
        dist_set_identity(w.W.sub(mt, 0, nt, nt));
        dist_geqrf(c, g, w.W, w.Tm);
        dist_ungqr(c, g, w.W, w.Tm, w.Q);

        // A := theta Q1 Q2^H + beta A (SUMMA over the shared column index
        // l), over the replication layers when g3.c > 1.
        R const theta = (a - b / cc) / sq;
        R const beta = b / cc;
        summa_25d(c, g3, Op::ConjTrans, from_real<T>(theta), Q1, Q2,
                  from_real<T>(beta), A, tag_base);
        tag_base += summa25_tag_span(mt, nt, nt);
    } else {
        // --- Cholesky-based iteration (Eq. 2) -------------------------------
        dist_set_identity(w.Z);
        dist_herk(c, g, cc, A, R(1), w.Z);
        dist_potrf(c, g, w.Z);
        dist_trsm_right_lower(c, g, Op::ConjTrans, w.Z, A);
        dist_trsm_right_lower(c, g, Op::NoTrans, w.Z, A);
        dist_add(w.Aprev, from_real<T>(b / cc), from_real<T>(a - b / cc), A);
    }
}

}  // namespace detail

/// Distributed QDWH: A (m x n, m >= n, rank-local) is overwritten by U_p.
/// l0 is a lower bound on sigma_min(A)/sigma_max(A). Every rank returns
/// identical info scalars; the per-iteration traffic vectors are
/// this rank's own counts.
///
/// The matrices live on g3's p x q layer grid; with g3.c > 1 the trailing
/// A := theta Q1 Q2^H + beta A update of each QR iteration runs as 2.5D
/// SUMMA over the replication layers (the factorizations, norms, and the
/// Cholesky branch stay on layer 0, with layers >= 1 idle or contributing
/// exact zeros to the collectives — in deterministic mode the ascending-
/// rank folds make every iterate bit-identical to the 2D run).
///
/// Precision ladder: the rung schedule is prec::plan_rungs of (l0, tol1,
/// max_iter, pol) — a pure double computation every rank performs
/// identically, so no rank ever disagrees about payload element types (the
/// default Native policy plans every iteration native). A low-rung
/// iteration's branch body runs on a float shadow matrix set, so every
/// staged tile payload (panel broadcasts, SUMMA steps, trsm columns) ships
/// sizeof(float-kind) bytes per element instead of sizeof(native): exactly
/// half the double-kind branch-region volume, with an unchanged message
/// count and tag stream. Iterates entering and leaving a low iteration
/// convert locally (zero communication), and the convergence norm runs
/// natively every iteration. There is no fallback promotion here (a
/// mid-iteration rung switch would desynchronize posted receives): a
/// non-finite iterate is a hard error.
template <typename T>
DistQdwhInfo dist_qdwh(Communicator& c, ProcGrid3d g3, TiledMatrix<T> const& A,
                       double l0, int max_iter = 30,
                       prec::PrecisionPolicy const& pol = {}) {
    using R = real_t<T>;
    using S = prec::shadow_t<T>;
    prec::Prec const native = prec::native_prec<T>();
    tbp_require(c.size() == g3.size());
    tbp_require(A.grid().p == g3.p && A.grid().q == g3.q);
    tbp_require(A.m() >= A.n());

    DistQdwhInfo info;
    R const eps = std::numeric_limits<R>::epsilon();
    R const tol3 = std::cbrt(R(5) * eps);
    double const tol1 = 5.0 * static_cast<double>(eps);

    // The estimate is allreduced, so every rank throws here together. An
    // Inf entry must stop here: scaled by 1/Inf it turns into NaNs that fail
    // one rank's potrf while its peers block in recv.
    R const alpha = dist_norm2est(c, A);
    info.norm2_estimate = static_cast<double>(alpha);
    if (alpha == R(0))
        tbp_throw("dist_qdwh: A is the zero matrix");
    if (!std::isfinite(static_cast<double>(alpha)))
        tbp_throw("dist_qdwh: A has a NaN or Inf entry");
    dist_scale(from_real<T>(R(1) / alpha), A);

    double li = std::min(
        std::max(l0, static_cast<double>(std::numeric_limits<R>::min())
                         * 100.0),
        1.0);
    auto const plan = prec::plan_rungs(li, tol1, max_iter, pol, native);

    detail::DistQdwhWork<T> w(A);

    // Shadow iterate + workspaces, allocated on first low-rung use.
    TiledMatrix<S> As;
    std::unique_ptr<detail::DistQdwhWork<S>> sw;
    auto ensure_shadow = [&] {
        if (sw)
            return;
        As = TiledMatrix<S>(A.row_tile_sizes(), A.col_tile_sizes(), A.grid(),
                            A.rank());
        sw = std::make_unique<detail::DistQdwhWork<S>>(A);
    };

    R conv = R(100);
    int tag_base = 1 << 26;

    while ((conv >= tol3 || std::abs(li - 1.0) >= tol1)
           && info.iterations < max_iter) {
        std::size_t const k = static_cast<std::size_t>(info.iterations);
        prec::QdwhWeights const pw = prec::qdwh_weights(li);
        li = pw.li_next;
        prec::Prec const rung = k < plan.size() ? plan[k].rung : native;

        // Branch-region traffic snapshot (staging only; the conv allreduce
        // and barrier below are outside the delta).
        CommStats const s0 = c.stats();
        if (rung == native) {
            detail::dist_qdwh_iter(c, g3, A, w, pw.a, pw.b, pw.c, tag_base);
        } else {
            ensure_shadow();
            dist_copy(A, w.Aprev);      // native entering iterate, for conv
            dist_convert(A, As);        // local, no messages
            {
                // Bf16 packs gemm operands at the blas level on each rank's
                // own thread — install the exec-side mode directly.
                prec::ExecModeScope mode_scope(prec::gemm_mode(rung));
                detail::dist_qdwh_iter(c, g3, As, *sw, pw.a, pw.b, pw.c,
                                       tag_base);
            }
            dist_convert(As, A);        // local, no messages
        }
        CommStats const s1 = c.stats();
        info.rungs.push_back(rung);
        info.iter_bytes_sent.push_back(s1.bytes_sent - s0.bytes_sent);
        info.iter_msgs_sent.push_back(s1.sends - s0.sends);

        dist_add(A, T(1), T(-1), w.Aprev);
        conv = dist_norm_fro(c, w.Aprev);
        if (!std::isfinite(static_cast<double>(conv)))
            tbp_throw("dist_qdwh: non-finite iterate (no fallback in the "
                      "distributed driver)");
        ++info.iterations;
        c.barrier();
    }
    info.conv = static_cast<double>(conv);
    return info;
}

/// 2D entry point: the p x q grid spans the whole communicator (c == 1).
template <typename T>
DistQdwhInfo dist_qdwh(Communicator& c, Grid g, TiledMatrix<T> const& A,
                       double l0,
                       int max_iter = 30,
                       prec::PrecisionPolicy const& pol = {}) {
    return dist_qdwh(c, ProcGrid3d{g.p, g.q, 1}, A, l0, max_iter, pol);
}

}  // namespace tbp::comm
