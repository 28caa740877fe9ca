// Performance model: structural invariants (monotonicity, schedule ordering,
// peak bounds, flop accounting) and the paper's published anchor points.

#include <gtest/gtest.h>

#include <vector>

#include "blas/kernel/stats.hh"
#include "common/flops.hh"
#include "linalg/geqrf.hh"
#include "linalg/util.hh"
#include "perf/cost_model.hh"
#include "perf/qdwh_model.hh"
#include "perf/sched_report.hh"
#include "test_util.hh"

using namespace tbp::perf;

TEST(PerfModel, OpStreamFlopsMatchPaperFormula) {
    // Sum of per-op flops == Section 4 complexity model (up to the small
    // O(n^2) estimator terms).
    std::int64_t const n = 20000;
    for (auto [qr, ch] : {std::pair{3, 3}, {0, 2}, {5, 1}}) {
        auto ops = qdwh_ops(n, 320, qr, ch);
        double sum = 0;
        for (auto const& op : ops)
            sum += op.update_flops + op.panel_flops;
        double const model = tbp::flops::qdwh_model(static_cast<double>(n), qr, ch);
        // The paper's Cholesky-iteration count (4 + 1/3 n^3) is ~n^3 coarser
        // than the kernel-level sum (herk counted as a full gemm); allow the
        // corresponding band.
        EXPECT_GE(sum, 0.85 * model) << "it_qr=" << qr << " it_chol=" << ch;
        EXPECT_LE(sum, 1.05 * model) << "it_qr=" << qr << " it_chol=" << ch;
    }
}

TEST(PerfModel, StructuredOpStreamMatchesStructuredFormula) {
    // With structured QR enabled, the op-stream sum must track the 17/3 n^3
    // per-QR-iteration model instead of the dense 26/3 n^3 one.
    std::int64_t const n = 20000;
    for (auto [qr, ch] : {std::pair{3, 3}, {5, 1}}) {
        auto ops = qdwh_ops(n, 320, qr, ch, /*structured=*/true);
        double sum = 0;
        for (auto const& op : ops)
            sum += op.update_flops + op.panel_flops;
        double const model = tbp::flops::qdwh_model_structured(
            static_cast<double>(n), qr, ch);
        EXPECT_GE(sum, 0.85 * model) << "it_qr=" << qr;
        EXPECT_LE(sum, 1.05 * model) << "it_qr=" << qr;
        // Structured must be strictly cheaper than dense when QR iterations
        // are present.
        auto dense = qdwh_ops(n, 320, qr, ch, /*structured=*/false);
        double dsum = 0;
        for (auto const& op : dense)
            dsum += op.update_flops + op.panel_flops;
        if (qr > 0) {
            EXPECT_LT(sum, dsum);
        }
    }
}

namespace {

/// Run one structured stacked-QR factor + Q generation on a live engine and
/// return the kernel counter delta.
template <typename T>
double measured_stacked_qr_flops(std::vector<int> const& rows,
                                 std::vector<int> const& cols) {
    using namespace tbp;
    rt::Engine eng(3);
    int const mt1 = static_cast<int>(rows.size());
    auto wrows = rows;
    wrows.insert(wrows.end(), cols.begin(), cols.end());
    int m = 0, n = 0;
    for (int r : rows) m += r;
    for (int c : cols) n += c;
    auto D = ref::random_dense<T>(m, n, 77);
    TiledMatrix<T> W(wrows, cols);
    auto Wtop = W.sub(0, 0, mt1, W.nt());
    test::dense_to_tiled(D, Wtop);
    auto Tm = la::alloc_qr_t(W);
    TiledMatrix<T> Q(wrows, cols);
    double const before = blas::kernel::flops_performed();
    la::geqrf_stacked_tri(eng, W, mt1, T(1), Tm);
    la::ungqr_stacked_tri(eng, W, mt1, Tm, Q);
    eng.wait();
    return blas::kernel::flops_performed() - before;
}

}  // namespace

TEST(PerfModel, StackedQrKernelFlopsReplayIsExact) {
    // stacked_qr_kernel_flops replays the submission loops with the same
    // per-call uint64 truncation as the kernel counter, so the prediction
    // must equal the measured delta EXACTLY — for both scalar weights and
    // uneven tilings. This is what keeps the bench JSON's
    // model-match field honest.
    using tbp::fma_flops;
    for (auto const& [rows, cols] :
         {std::pair<std::vector<int>, std::vector<int>>{{4, 4, 4}, {4, 4}},
          {{5, 5, 3}, {5, 3}},
          {{4, 4}, {4, 4}}}) {
        double const wd = fma_flops<double>() / 2.0;
        EXPECT_EQ(measured_stacked_qr_flops<double>(rows, cols),
                  stacked_qr_kernel_flops(rows, cols, wd))
            << "double";
        double const wz = fma_flops<std::complex<float>>() / 2.0;
        EXPECT_EQ(measured_stacked_qr_flops<std::complex<float>>(rows, cols),
                  stacked_qr_kernel_flops(rows, cols, wz))
            << "complex";
    }
}

TEST(PerfModel, TaskDataflowBeatsForkJoin) {
    for (int nodes : {1, 4, 16}) {
        auto m = MachineModel::summit(nodes);
        for (std::int64_t n : {8000, 30000}) {
            for (auto dev : {Device::Cpu, Device::Gpu}) {
                auto td = qdwh_perf(m, dev, Schedule::TaskDataflow, n, 320);
                auto fj = qdwh_perf(m, dev, Schedule::ForkJoin, n, 320);
                EXPECT_LT(td.seconds, fj.seconds)
                    << "nodes=" << nodes << " n=" << n;
            }
        }
    }
}

TEST(PerfModel, ThroughputGrowsWithSize) {
    auto m = MachineModel::summit(8);
    double prev = 0;
    for (std::int64_t n : {5000, 10000, 20000, 40000, 80000}) {
        auto r = qdwh_perf(m, Device::Gpu, Schedule::TaskDataflow, n, 320);
        EXPECT_GT(r.tflops, prev) << n;
        prev = r.tflops;
    }
}

TEST(PerfModel, BoundedByAchievableRate) {
    for (int nodes : {1, 8, 32}) {
        auto m = MachineModel::summit(nodes);
        auto r = qdwh_perf(m, Device::Gpu, Schedule::TaskDataflow,
                           m.max_n(Device::Gpu), 320);
        EXPECT_LT(r.tflops * 1e3, m.total_gflops(Device::Gpu));
        EXPECT_GT(r.tflops, 0);
    }
}

TEST(PerfModel, Anchor18xOnOneSummitNode) {
    // Paper Section 7.2: "SLATE-QDWH is faster by up to 18x on 1 node and 4
    // nodes" vs ScaLAPACK-CPU.
    auto m = MachineModel::summit(1);
    std::int64_t const n = m.max_n(Device::Gpu);
    auto gpu = qdwh_perf(m, Device::Gpu, Schedule::TaskDataflow, n, 320);
    auto scal = qdwh_perf(m, Device::Cpu, Schedule::ForkJoin, n, 192);
    double const speedup = gpu.tflops / scal.tflops;
    EXPECT_GE(speedup, 14.0);
    EXPECT_LE(speedup, 22.0);
}

TEST(PerfModel, Anchor13xOnEightSummitNodes) {
    // "approximately 13x on 8 nodes".
    auto m = MachineModel::summit(8);
    std::int64_t const n = 70000;  // within the plotted range of Fig. 2b
    auto gpu = qdwh_perf(m, Device::Gpu, Schedule::TaskDataflow, n, 320);
    auto scal = qdwh_perf(m, Device::Cpu, Schedule::ForkJoin, n, 192);
    double const speedup = gpu.tflops / scal.tflops;
    EXPECT_GE(speedup, 10.0);
    EXPECT_LE(speedup, 17.0);
}

TEST(PerfModel, SlateCpuTracksScalapack) {
    // Paper: "Using only CPU cores, SLATE's performance is similar to the
    // ScaLAPACK performance."
    auto m = MachineModel::summit(1);
    auto slate = qdwh_perf(m, Device::Cpu, Schedule::TaskDataflow, 30000, 192);
    auto scal = qdwh_perf(m, Device::Cpu, Schedule::ForkJoin, 30000, 192);
    double const ratio = slate.tflops / scal.tflops;
    EXPECT_GE(ratio, 0.95);
    EXPECT_LE(ratio, 1.35);
}

TEST(PerfModel, AnchorFrontier180TF) {
    // Paper: "around 180 Tflop/s on 16 nodes equipped with 128 GPUs", at the
    // memory-limited n = 175k.
    auto m = MachineModel::frontier(16);
    auto r = qdwh_perf(m, Device::Gpu, Schedule::TaskDataflow, 175000, 320);
    EXPECT_GE(r.tflops, 150.0);
    EXPECT_LE(r.tflops, 210.0);
}

TEST(PerfModel, FrontierMemoryLimit) {
    // "The maximum matrix size that can be tested on this number of nodes is
    // 175k, due to the large memory footprint."
    auto m = MachineModel::frontier(16);
    auto const nmax = m.max_n(Device::Gpu);
    EXPECT_GE(nmax, 175000);
    EXPECT_LE(nmax, 400000);
    EXPECT_FALSE(qdwh_perf(m, Device::Gpu, Schedule::TaskDataflow, nmax + 50000,
                           320)
                     .fits_memory);
}

TEST(PerfModel, SummitOneNodeMemoryLimit) {
    auto m = MachineModel::summit(1);
    auto const nmax = m.max_n(Device::Gpu);
    EXPECT_GE(nmax, 25000);
    EXPECT_LE(nmax, 45000);
}

TEST(PerfModel, WeakScalingImproves) {
    // Fig. 4: "good weak scalability at the largest problem size for each
    // number of nodes".
    double prev = 0;
    for (int nodes : {1, 2, 4, 8, 16, 32}) {
        auto m = MachineModel::summit(nodes);
        auto r = qdwh_perf(m, Device::Gpu, Schedule::TaskDataflow,
                           m.max_n(Device::Gpu), 320);
        EXPECT_GT(r.tflops, prev) << nodes;
        prev = r.tflops;
    }
}

TEST(PerfModel, StrongScalingIsLimited) {
    // Fig. 4: strong scalability for a fixed size is limited: going 4 -> 32
    // nodes (8x resources) at fixed n = 60k gains far less than 8x, but the
    // bigger machine is not slower at this size.
    auto r4 = qdwh_perf(MachineModel::summit(4), Device::Gpu,
                        Schedule::TaskDataflow, 60000, 320);
    auto r32 = qdwh_perf(MachineModel::summit(32), Device::Gpu,
                         Schedule::TaskDataflow, 60000, 320);
    double const gain = r32.tflops / r4.tflops;
    EXPECT_GT(gain, 1.0);
    EXPECT_LT(gain, 6.0);
}

TEST(PerfModel, GpuAwareMpiHelpsFrontierStyleMachines) {
    // Section 7.2: GPU-aware MPI benefits Frontier (NIC on GPU); staging
    // through the host costs time when it is absent.
    auto m = MachineModel::frontier(8);
    auto aware = qdwh_perf(m, Device::Gpu, Schedule::TaskDataflow, 100000, 320);
    m.gpu_aware_mpi = false;
    auto staged = qdwh_perf(m, Device::Gpu, Schedule::TaskDataflow, 100000, 320);
    EXPECT_LE(staged.tflops, aware.tflops);
}

TEST(PerfModel, TileSizeSweetSpot) {
    // Section 7.2: nb = 320 beat other tested tile sizes on GPUs; tiny and
    // huge tiles must both lose in the model (kernel starvation vs panel
    // chain dominance).
    auto m = MachineModel::summit(4);
    auto at = [&](int nb) {
        return qdwh_perf(m, Device::Gpu, Schedule::TaskDataflow, 60000, nb).tflops;
    };
    EXPECT_GT(at(320), at(32));
    EXPECT_GT(at(320), at(4096));
}

TEST(PerfModel, TileOptimaMatchPaperTuning) {
    // Section 7.2: nb = 320 best on GPUs, nb = 192 best on CPUs, at
    // representative benchmarking sizes (GPUs sweep larger matrices).
    auto m = MachineModel::summit(4);
    auto best_nb = [&](Device d, std::int64_t n) {
        double best = 0;
        int arg = 0;
        for (int nb : {64, 128, 192, 256, 320, 384, 512, 768, 1024}) {
            double const t =
                qdwh_perf(m, d, Schedule::TaskDataflow, n, nb).tflops;
            if (t > best) {
                best = t;
                arg = nb;
            }
        }
        return arg;
    };
    EXPECT_EQ(best_nb(Device::Gpu, 60000), 320);
    EXPECT_EQ(best_nb(Device::Cpu, 20000), 192);
}

TEST(SchedReport, MeasuredSchedulerEfficiency) {
    // The measured counterpart to the modeled schedules: run a real DAG and
    // check the report's invariants (accounting, utilization bounds).
    tbp::rt::Engine eng(3);
    eng.set_trace(true);
    long x = 0;
    std::vector<long> ys(64, 0);
    for (int i = 0; i < 8; ++i)
        eng.submit("chain", 1.0, {tbp::rt::readwrite(&x)}, [&x] { ++x; },
                   /*priority=*/1);
    for (size_t i = 0; i < ys.size(); ++i)
        eng.submit("fan", 1.0, {tbp::rt::read(&x), tbp::rt::write(&ys[i])},
                   [&ys, &x, i] { ys[i] = x; });
    eng.wait();
    auto const r = sched_report(eng);
    EXPECT_EQ(r.dag.tasks, 72u);
    EXPECT_EQ(r.workers, 3);
    EXPECT_EQ(r.counters.local_pops + r.counters.steals, 72u);
    EXPECT_EQ(r.sched.priority_tasks, 8u);
    EXPECT_GT(r.tasks_per_sec(), 0.0);
    EXPECT_GT(r.sched.utilization, 0.0);
    EXPECT_LE(r.sched.utilization, 1.0 + 1e-9);
    EXPECT_GE(r.sched.idle, 0.0);
    EXPECT_FALSE(r.format().empty());
}
