// Precision-aware QDWH cost model: exact per-precision replay of the tile
// kernels' flop charges for an adaptive (or fixed-rung) run, plus a simple
// per-precision rate model for projected speedup.
//
// Contract (the ladder analogue of perf::stacked_qr_kernel_flops): for a run
// whose QdwhInfo reports kernel_flops_exact, the modeled per-bucket totals
// equal the measured blas::kernel::flops_performed(Prec) deltas *exactly* —
// same formulas, same per-call uint64 truncation, same loop structure as the
// task graphs in linalg/{gemm,potrf,trsm}.hh and the stacked-QR replay.
// Bucketing follows the execution semantics: every charge inside an
// iteration lands in that iteration's rung bucket (the ladder wraps the
// whole iteration body in one gemm-mode scope, and charge_prec<T>() buckets
// by scalar kind + active mode), and the H stage is always native.
//
// The measured region is the iteration loop + H stage (snapshots taken after
// the condition estimate), so the condest QR and norm2est gemvs are *not*
// replayed here.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/error.hh"
#include "common/flops.hh"
#include "common/precision.hh"
#include "perf/qdwh_model.hh"

namespace tbp::perf {

namespace detail {

/// Accumulates charges exactly as blas::kernel::count_flops does: each
/// call's double charge truncates to uint64 before summing.
struct TruncAcc {
    double total = 0;
    void add(double fl) {
        if (fl > 0)
            total += static_cast<double>(static_cast<std::uint64_t>(fl));
    }
};

}  // namespace detail

/// Kernel-counter flops of one Cholesky-based QDWH iteration (Eq. 2) on an
/// iterate with row tile sizes `rows` (mt tiles) and column tile sizes
/// `cols` (nt tiles). Replays, call for call:
///   la::herk  (Lower, ConjTrans)  Z := c A^H A + I
///   la::potrf (Lower)             Z = L L^H
///   la::trsm  (Right/Lower/ConjTrans then Right/Lower/NoTrans)
/// copy / set_identity / add charge nothing. `weight` = fma_flops<T>()/2.
inline double chol_iter_kernel_flops(std::vector<int> const& rows,
                                     std::vector<int> const& cols,
                                     double weight) {
    int const mt = static_cast<int>(rows.size());
    int const nt = static_cast<int>(cols.size());
    detail::TruncAcc acc;

    // la::herk, op == ConjTrans, C = Z (nt x nt, Lower), kt = mt.
    for (int j = 0; j < nt; ++j)
        for (int i = j; i < nt; ++i)
            for (int l = 0; l < mt; ++l)
                acc.add((i == j ? flops::syrk(cols[static_cast<std::size_t>(i)],
                                              rows[static_cast<std::size_t>(l)])
                                : flops::gemm(cols[static_cast<std::size_t>(i)],
                                              cols[static_cast<std::size_t>(j)],
                                              rows[static_cast<std::size_t>(l)]))
                        * weight);

    // la::potrf on Z.
    for (int k = 0; k < nt; ++k) {
        acc.add(flops::potrf(cols[static_cast<std::size_t>(k)]) * weight);
        for (int i = k + 1; i < nt; ++i)
            acc.add(flops::trsm_right(cols[static_cast<std::size_t>(i)],
                                      cols[static_cast<std::size_t>(k)])
                    * weight);
        for (int j = k + 1; j < nt; ++j) {
            acc.add(flops::syrk(cols[static_cast<std::size_t>(j)],
                                cols[static_cast<std::size_t>(k)])
                    * weight);
            for (int i = j + 1; i < nt; ++i)
                acc.add(flops::gemm(cols[static_cast<std::size_t>(i)],
                                    cols[static_cast<std::size_t>(j)],
                                    cols[static_cast<std::size_t>(k)])
                        * weight);
        }
    }

    // Two right-side solves on the m x n iterate: ConjTrans sweeps block
    // columns ascending and updates j > k, NoTrans descending with j < k.
    // Per solved column k, every block row i gets one tile trsm; each
    // update (k -> j) is one tile gemm per block row.
    for (int pass = 0; pass < 2; ++pass) {
        bool const conj = pass == 0;
        for (int k = 0; k < nt; ++k) {
            for (int i = 0; i < mt; ++i)
                acc.add(flops::trsm_right(rows[static_cast<std::size_t>(i)],
                                          cols[static_cast<std::size_t>(k)])
                        * weight);
            int const jlo = conj ? k + 1 : 0;
            int const jhi = conj ? nt : k;
            for (int j = jlo; j < jhi; ++j)
                for (int i = 0; i < mt; ++i)
                    acc.add(flops::gemm(rows[static_cast<std::size_t>(i)],
                                        cols[static_cast<std::size_t>(j)],
                                        cols[static_cast<std::size_t>(k)])
                            * weight);
        }
    }
    return acc.total;
}

/// Kernel-counter flops of one QR-based QDWH iteration (Eq. 1): the stacked
/// [sqrt(c) A; I] geqrf + ungqr (delegated to the existing exact replay) and
/// the block upper triangular Q1 Q2^H update (l >= j). copy / scale charge
/// nothing.
inline double qr_iter_kernel_flops(std::vector<int> const& rows,
                                   std::vector<int> const& cols,
                                   double weight) {
    int const mt = static_cast<int>(rows.size());
    int const nt = static_cast<int>(cols.size());
    detail::TruncAcc acc;
    acc.total += stacked_qr_kernel_flops(rows, cols, weight);
    for (int j = 0; j < nt; ++j)
        for (int i = 0; i < mt; ++i)
            for (int l = j; l < nt; ++l)
                acc.add(flops::gemm(rows[static_cast<std::size_t>(i)],
                                    cols[static_cast<std::size_t>(j)],
                                    cols[static_cast<std::size_t>(l)])
                        * weight);
    return acc.total;
}

/// Kernel-counter flops of the H = U^H A stage (la::gemm ConjTrans/NoTrans
/// into the nt x nt H; symmetrization's transpose_copy + add charge 0).
inline double h_stage_kernel_flops(std::vector<int> const& rows,
                                   std::vector<int> const& cols,
                                   double weight) {
    int const mt = static_cast<int>(rows.size());
    int const nt = static_cast<int>(cols.size());
    detail::TruncAcc acc;
    for (int j = 0; j < nt; ++j)
        for (int i = 0; i < nt; ++i)
            for (int l = 0; l < mt; ++l)
                acc.add(flops::gemm(cols[static_cast<std::size_t>(i)],
                                    cols[static_cast<std::size_t>(j)],
                                    rows[static_cast<std::size_t>(l)])
                        * weight);
    return acc.total;
}

/// Per-precision kernel-flop totals for a QDWH run, bucketed as the counters
/// bucket them: one entry per prec::Prec.
struct QdwhPrecFlops {
    std::array<double, prec::kNumPrec> by_prec{};

    double total() const {
        double t = 0;
        for (double v : by_prec)
            t += v;
        return t;
    }
    double at(prec::Prec p) const {
        return by_prec[static_cast<std::size_t>(p)];
    }
};

/// Replay a full run from its executed schedule: `rungs` is
/// QdwhInfo::rungs (one executed rung per iteration — fallback promotions
/// already folded in), the first `it_qr` iterations are QR-based (QDWH's c_k
/// decreases monotonically, so the QR block always precedes the Cholesky
/// block), and the H stage (if computed) charges at `native`. Valid against
/// measured QdwhInfo::kernel_flops_by_prec whenever kernel_flops_exact.
inline QdwhPrecFlops qdwh_prec_kernel_flops(
    std::vector<int> const& rows, std::vector<int> const& cols,
    std::vector<prec::Prec> const& rungs, int it_qr, bool compute_h,
    double weight, prec::Prec native) {
    QdwhPrecFlops out;
    double const qr_fl = qr_iter_kernel_flops(rows, cols, weight);
    double const ch_fl = chol_iter_kernel_flops(rows, cols, weight);
    for (std::size_t k = 0; k < rungs.size(); ++k)
        out.by_prec[static_cast<std::size_t>(rungs[k])] +=
            static_cast<int>(k) < it_qr ? qr_fl : ch_fl;
    if (compute_h)
        out.by_prec[static_cast<std::size_t>(native)] +=
            h_stage_kernel_flops(rows, cols, weight);
    return out;
}

/// Relative per-rung execution rates for the projected-speedup model,
/// normalized to the native rung (rate 1). Defaults reflect hardware-class
/// throughput ratios, not the simulation host: fp32 streams twice the
/// elements of fp64 per cache line and runs twice the vector lanes (2x),
/// and bf16 halves the traffic again (4x fp64 — conservative next to real
/// tensor-core silicon at 8-16x).
struct PrecRates {
    double native = 1.0;
    double flt = 2.0;
    double bf16 = 4.0;
};

/// Projected time (in native-rung flop-units) of a rung schedule relative
/// to the all-native run of the same iteration count: sum of per-iteration
/// flops divided by each rung's rate. speedup = all-native time / this.
/// `structured` must be true: the QR iterations run only on the
/// structured stacked QR.
inline double qdwh_prec_time_model(std::vector<int> const& rows,
                                   std::vector<int> const& cols,
                                   std::vector<prec::Prec> const& rungs,
                                   int it_qr, bool structured, bool compute_h,
                                   double weight, prec::Prec native,
                                   PrecRates const& rates = {}) {
    tbp_require(structured);
    double const qr_fl = qr_iter_kernel_flops(rows, cols, weight);
    double const ch_fl = chol_iter_kernel_flops(rows, cols, weight);
    double t = 0;
    for (std::size_t k = 0; k < rungs.size(); ++k) {
        double const fl = static_cast<int>(k) < it_qr ? qr_fl : ch_fl;
        double rate = rates.native;
        if (rungs[k] != native)
            rate = rungs[k] == prec::Prec::Bf16 ? rates.bf16 : rates.flt;
        t += fl / rate;
    }
    if (compute_h)
        t += h_stage_kernel_flops(rows, cols, weight) / rates.native;
    return t;
}

}  // namespace tbp::perf
