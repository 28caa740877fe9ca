#include "perf/qdwh_model.hh"

#include <algorithm>

#include "common/flops.hh"

namespace tbp::perf {

std::vector<OpSpec> qdwh_ops(std::int64_t n, int nb, int it_qr, int it_chol,
                             bool structured) {
    double const dn = static_cast<double>(n);
    double const n2 = dn * dn;
    double const n3 = n2 * dn;
    double const steps = dn / nb;

    std::vector<OpSpec> ops;

    // Stage 1: norm2est — a handful of gemv sweeps plus reductions.
    ops.push_back({"norm2est", 8 * n2, 0, 0.05, 8, n});

    // Stage 2: condition estimate — QR of A plus trcondest's O(n^2) solves.
    {
        double const total = flops::geqrf(dn, dn);
        double const panel = n2 * nb;
        ops.push_back({"condest_geqrf", total - panel, panel, 1.5, steps, n});
        ops.push_back({"trcondest", 10 * n2, 0, 0.02, 10, n});
    }

    // Stage 3a: QR-based iterations on the stacked (2n) x n matrix. The
    // structured path never touches the identity block's zero tiles (n^3
    // saved in geqrf and in ungqr) and the triangular Q2 halves the
    // Q1 Q2^H product (2n^3 -> n^3); its panel chain is also shorter (no
    // tsqrt below W2's diagonal).
    for (int k = 0; k < it_qr; ++k) {
        double const tri = structured ? n3 : 0.0;
        double const qr_total = flops::geqrf(2 * dn, dn) - tri;  // 10/3 or 7/3
        double const qr_panel = (structured ? 2.5 : 3.0) * n2 * nb;
        ops.push_back({"qr_geqrf", qr_total - qr_panel, qr_panel, 2.0, steps, n});
        double const un_total = flops::ungqr(2 * dn, dn, dn) - tri;
        double const un_panel = (structured ? 2.5 : 3.0) * n2 * nb;
        ops.push_back({"qr_ungqr", un_total - un_panel, un_panel, 2.0, steps, n});
        ops.push_back({"qr_gemm", structured ? n3 : 2 * n3, 0, 2.0, steps, n});
    }

    // Stage 3b: Cholesky-based iterations.
    for (int k = 0; k < it_chol; ++k) {
        ops.push_back({"chol_herk", n3, 0, 1.0, steps, n});
        double const po_total = flops::potrf(dn);  // n^3/3
        double const po_panel = 0.5 * n2 * nb;
        ops.push_back({"chol_potrf", po_total - po_panel, po_panel, 0.5, steps, n});
        // Two right-side triangular solves (A Z^{-1}); trsm trails gemm rate
        // slightly — folded in as a 1.15x inflation.
        ops.push_back({"chol_trsm", 2 * n3 * 1.15, 0, 1.0, steps, n});
    }

    // Stage 4: H = U^H A (+ symmetrization, bandwidth-bound, negligible).
    ops.push_back({"h_gemm", 2 * n3, 0, 2.0, steps, n});

    return ops;
}

QdwhPerfResult qdwh_perf(MachineModel const& machine, Device device,
                         Schedule schedule, std::int64_t n, int nb,
                         int it_qr, int it_chol, bool structured) {
    CostModel cm(machine, device, schedule, nb);
    auto const ops = qdwh_ops(n, nb, it_qr, it_chol, structured);

    QdwhPerfResult r;
    r.it_qr = it_qr;
    r.it_chol = it_chol;
    // One global sync per iteration (convergence norm) plus setup stages.
    r.breakdown = cm.total_time(ops, it_qr + it_chol + 4);
    r.seconds = r.breakdown.total;
    r.model_flops =
        structured
            ? flops::qdwh_model_structured(static_cast<double>(n), it_qr,
                                           it_chol)
            : flops::qdwh_model(static_cast<double>(n), it_qr, it_chol);
    r.tflops = r.model_flops / r.seconds / 1e12;
    r.peak_fraction = r.tflops * 1e12 / (machine.peak_gflops(device) * 1e9);
    r.fits_memory = n <= machine.max_n(device);
    return r;
}

double stacked_qr_kernel_flops(std::vector<int> const& w1_rows,
                               std::vector<int> const& cols, double weight) {
    // Replays, task by task, the kernel calls of la::geqrf_stacked_tri +
    // la::ungqr_stacked_tri, charging each call exactly what the tile
    // kernel charges: the formula times `weight`, truncated to uint64
    // before accumulating (matching blas::kernel::count_flops).
    // Truncation-then-sum is order independent, so the replay order need
    // not match the execution order.
    std::uint64_t total = 0;
    auto charge = [&](double formula) {
        total += static_cast<std::uint64_t>(formula * weight);
    };
    int const mt1 = static_cast<int>(w1_rows.size());
    int const nt = static_cast<int>(cols.size());
    auto row = [&](int i) {
        return i < mt1 ? w1_rows[static_cast<size_t>(i)]
                       : cols[static_cast<size_t>(i - mt1)];
    };

    // geqrf_stacked_tri: W1 is dense, W2's tile (i2, k) is tsqrt fill for
    // i2 < k, a ttqrt triangular fold at i2 == k, untouched below.
    for (int k = 0; k < nt; ++k) {
        int const nbk = cols[static_cast<size_t>(k)];
        charge(flops::geqrf(row(k), nbk));
        for (int j = k + 1; j < nt; ++j)
            charge(flops::unmqr(row(k), cols[static_cast<size_t>(j)],
                                std::min(row(k), nbk)));
        for (int i = k + 1; i < mt1; ++i) {
            charge(flops::tsqrt(row(i), nbk));
            for (int j = k + 1; j < nt; ++j)
                charge(flops::tsmqr(row(i), nbk, cols[static_cast<size_t>(j)]));
        }
        charge(flops::ttqrt(nbk, nbk));
        for (int j = k + 1; j < nt; ++j)
            charge(flops::ttmqr(nbk, nbk, cols[static_cast<size_t>(j)],
                                /*c2_zero=*/true));
        for (int i2 = 0; i2 < k; ++i2) {
            charge(flops::tsqrt(cols[static_cast<size_t>(i2)], nbk));
            for (int j = k + 1; j < nt; ++j)
                charge(flops::tsmqr(cols[static_cast<size_t>(i2)], nbk,
                                    cols[static_cast<size_t>(j)]));
        }
    }
    // ungqr_stacked_tri: fill rows, the ttmqr row (column k's first touch
    // through the cheaper c2_zero path), dense W1 rows, the geqrt row.
    for (int k = 0; k < nt; ++k) {
        int const nbk = cols[static_cast<size_t>(k)];
        for (int i2 = 0; i2 < k; ++i2)
            for (int j = k; j < nt; ++j)
                charge(flops::tsmqr(cols[static_cast<size_t>(i2)], nbk,
                                    cols[static_cast<size_t>(j)]));
        for (int j = k; j < nt; ++j)
            charge(flops::ttmqr(nbk, nbk, cols[static_cast<size_t>(j)],
                                /*c2_zero=*/j == k));
        for (int i = k + 1; i < mt1; ++i)
            for (int j = k; j < nt; ++j)
                charge(flops::tsmqr(row(i), nbk, cols[static_cast<size_t>(j)]));
        for (int j = k; j < nt; ++j)
            charge(flops::unmqr(row(k), cols[static_cast<size_t>(j)],
                                std::min(row(k), nbk)));
    }
    return static_cast<double>(total);
}

AchievedRate achieved_vs_model(QdwhPerfResult const& model,
                               double measured_flops, double seconds) {
    AchievedRate r;
    r.measured_flops = measured_flops;
    r.seconds = seconds;
    r.achieved_gflops = seconds > 0 ? measured_flops / seconds / 1e9 : 0.0;
    r.modeled_gflops = model.tflops * 1e3;
    r.ratio = r.modeled_gflops > 0 ? r.achieved_gflops / r.modeled_gflops
                                   : 0.0;
    return r;
}

}  // namespace tbp::perf
