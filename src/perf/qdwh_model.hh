// QDWH end-to-end performance projection: composes the Algorithm 1 op
// stream (condition estimate, QR-based iterations on the stacked
// [sqrt(c) A; I], Cholesky-based iterations, H formation) and charges it to
// a machine/device/schedule through the cost model.
//
// Flop accounting matches the paper's Section 4 complexity formula; the
// reported Tflop/s uses that formula's flops (as performance papers do), so
// model output is directly comparable to Figures 2-6.

#pragma once

#include <cstdint>
#include <vector>

#include "perf/cost_model.hh"
#include "perf/machine.hh"

namespace tbp::perf {

struct QdwhPerfResult {
    double seconds = 0;
    double tflops = 0;        ///< paper-formula flops / time
    double model_flops = 0;   ///< Section 4 formula
    double peak_fraction = 0; ///< tflops / machine peak
    bool fits_memory = true;
    int it_qr = 3;
    int it_chol = 3;
    TimeBreakdown breakdown;
};

/// The operation stream of one QDWH run on an n x n matrix. With
/// `structured` the QR iterations charge the stacked-[sqrt(c) A; I]
/// structure exploitation (7/3 n^3 geqrf + 7/3 n^3 ungqr + n^3 gemm
/// instead of 10/3 + 10/3 + 2); default false keeps the paper's Section 4
/// dense formula as the anchor.
std::vector<OpSpec> qdwh_ops(std::int64_t n, int nb, int it_qr, int it_chol,
                             bool structured = false);

/// Project a full QDWH run. Defaults model the paper's benchmark case:
/// ill-conditioned input, 3 QR + 3 Cholesky iterations.
QdwhPerfResult qdwh_perf(MachineModel const& machine, Device device,
                         Schedule schedule, std::int64_t n, int nb,
                         int it_qr = 3, int it_chol = 3,
                         bool structured = false);

/// Exact task-level replay of the stacked-QR factor + Q generation: returns
/// the total count the tile kernels will add to
/// blas::kernel::flops_performed() for one geqrf_stacked_tri +
/// ungqr_stacked_tri on W = [W1; I], with W1's row tile sizes in `w1_rows`
/// and the (square-tile) column sizes in `cols`. `weight` is fma_flops<T>() / 2 (1 for real scalars, 4 for
/// complex). The kernel counter truncates each call's charge to uint64
/// before accumulating, and so does this replay — measured minus modeled
/// must be exactly zero (tested in test_perf, recorded by bench_qdwh_cpu).
double stacked_qr_kernel_flops(std::vector<int> const& w1_rows,
                               std::vector<int> const& cols, double weight);

/// Measured-vs-modeled comparison for a real run: the achieved compute rate
/// from the tile kernels' flop counter (blas::kernel::flops_performed()
/// delta over the region) against the cost model's projected rate for the
/// same problem. `ratio` > 1 means the host beat the model's assumptions.
struct AchievedRate {
    double measured_flops = 0;   ///< tile-kernel flops actually executed
    double seconds = 0;          ///< measured wall time
    double achieved_gflops = 0;  ///< measured_flops / seconds
    double modeled_gflops = 0;   ///< model_flops / model seconds
    double ratio = 0;            ///< achieved / modeled
};

AchievedRate achieved_vs_model(QdwhPerfResult const& model,
                               double measured_flops, double seconds);

}  // namespace tbp::perf
