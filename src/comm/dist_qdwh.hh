// Fully distributed QDWH over virtual ranks — both iteration branches:
// QR-based (Eq. 1) on the stacked [sqrt(c) A; I] via dist_geqrf/dist_ungqr,
// and Cholesky-based (Eq. 2) via dist_herk/dist_potrf/dist_trsm. This is
// the message-passing counterpart of the shared-memory task solver and the
// paper's contribution #1 in its distributed form.
//
// Constraints of this driver (documented, checked): m must be a tile
// multiple so the stacked workspace's top block rows share A's tile
// boundaries and ownership; the sigma_min lower bound l0 is supplied by the
// caller (the shared-memory path's QR + trcondest estimate, or an
// application bound).

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
/// message-passing analogue of tbp::detail::QdwhWorkspace.
template <typename T>
struct DistQdwhWork {
    DistMatrix<T> Aprev, Z, W, Tm, Q;

    DistQdwhWork(Communicator& c, std::int64_t m, std::int64_t n, int nb,
                 Grid g)
        : Aprev(c, m, n, nb, g),
          Z(c, n, n, nb, g),
          W(c, m + n, n, nb, g),
          Tm(c, static_cast<std::int64_t>(W.mt()) * nb, n, nb, g),
          Q(c, m + n, n, nb, g) {}
};

/// One distributed QDWH iteration (both branches): A := f_k(A) with weights
/// (a, b, cc), leaving the entering iterate in w.Aprev. dist_qdwh runs it on
/// the native matrices or, on a low rung, on a float shadow matrix set;
/// `tag_base` advances by the same span on every rank and rung.
template <typename T>
void dist_qdwh_iter(Communicator& c, ProcGrid3d g3, DistMatrix<T>& A,
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
        // --- QR-based iteration on the stacked matrix -----------------------
        // W tiles in the top mt block rows share A's ownership map.
        R const sq = std::sqrt(cc);
        for (int j = 0; j < nt; ++j) {
            for (int i = 0; i < w.W.mt(); ++i) {
                if (!w.W.is_local(i, j))
                    continue;
                auto wt = w.W.tile(i, j);
                if (i < mt) {
                    blas::copy(A.tile(i, j), wt);
                    blas::scale(from_real<T>(sq), wt);
                } else {
                    blas::set(T(0), (i - mt == j) ? T(1) : T(0), wt);
                }
            }
        }
        dist_geqrf(c, g, w.W, w.Tm);
        dist_ungqr(c, g, w.W, w.Tm, w.Q);

        // A := theta Q1 Q2^H + beta A (SUMMA over the shared column
        // index l; Q1 = top mt block rows of Q, Q2 = the rest), over the
        // replication layers when g3.c > 1.
        R const theta = (a - b / cc) / sq;
        R const beta = b / cc;
        summa_25d(c, g3, Op::ConjTrans, from_real<T>(theta), w.Q, w.Q, mt,
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

/// Distributed QDWH: A (m x n tiles, m >= n, m % nb == 0) is overwritten by
/// U_p. l0 is a lower bound on sigma_min(A)/sigma_max(A). Every rank
/// returns identical info scalars; the per-iteration traffic vectors are
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
DistQdwhInfo dist_qdwh(Communicator& c, ProcGrid3d g3, DistMatrix<T>& A,
                       double l0, int max_iter = 30,
                       prec::PrecisionPolicy const& pol = {}) {
    using R = real_t<T>;
    using S = prec::shadow_t<T>;
    prec::Prec const native = prec::native_prec<T>();
    Grid const g = g3.layer();
    tbp_require(c.size() == g3.size());
    int const mt = A.mt();
    int const nb = A.tile_nb(0);
    tbp_require(A.m() >= A.n());
    tbp_require(A.tile_mb(mt - 1) == A.tile_mb(0));  // m % nb == 0

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
    for (int j = 0; j < A.nt(); ++j)
        for (int i = 0; i < mt; ++i)
            if (A.is_local(i, j))
                blas::scale(from_real<T>(R(1) / alpha), A.tile(i, j));

    double li = std::min(
        std::max(l0, static_cast<double>(std::numeric_limits<R>::min())
                         * 100.0),
        1.0);
    auto const plan = prec::plan_rungs(li, tol1, max_iter, pol, native);

    detail::DistQdwhWork<T> w(c, A.m(), A.n(), nb, g);

    // Shadow iterate + workspaces, allocated on first low-rung use.
    std::unique_ptr<DistMatrix<S>> As;
    std::unique_ptr<detail::DistQdwhWork<S>> sw;
    auto ensure_shadow = [&] {
        if (As)
            return;
        As = std::make_unique<DistMatrix<S>>(c, A.m(), A.n(), nb, g);
        sw = std::make_unique<detail::DistQdwhWork<S>>(c, A.m(), A.n(), nb, g);
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
            dist_convert(A, *As);       // local, no messages
            {
                // Bf16 packs gemm operands at the blas level on each rank's
                // own thread — install the exec-side mode directly.
                prec::ExecModeScope mode_scope(prec::gemm_mode(rung));
                detail::dist_qdwh_iter(c, g3, *As, *sw, pw.a, pw.b, pw.c,
                                       tag_base);
            }
            dist_convert(*As, A);       // local, no messages
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
DistQdwhInfo dist_qdwh(Communicator& c, Grid g, DistMatrix<T>& A, double l0,
                       int max_iter = 30,
                       prec::PrecisionPolicy const& pol = {}) {
    return dist_qdwh(c, ProcGrid3d{g.p, g.q, 1}, A, l0, max_iter, pol);
}

}  // namespace tbp::comm
