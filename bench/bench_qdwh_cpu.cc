// Real wall-clock microbenchmarks (google-benchmark) of this library on the
// host CPU: QDWH under the three execution modes, its building blocks, and
// the dense baselines. This is the measured-hardware supplement to the
// modeled figures (see DESIGN.md experiment index).
//
// BM_Qdwh additionally reports the tile kernels' *measured* GFLOP/s (the
// kernel/stats.hh counter over the solver region) next to the model-formula
// rate, and every run appends a JSON record; set TBP_BENCH_JSON=path to
// write the document on exit (see bench_util.hh).

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "blas/kernel/stats.hh"
#include "common/timer.hh"
#include "core/baselines.hh"
#include "core/qdwh.hh"
#include "gen/matgen.hh"
#include "linalg/geqrf.hh"
#include "linalg/potrf.hh"
#include "ref/dense.hh"

using namespace tbp;

namespace {

bench::JsonEmitter& emitter() {
    static bench::JsonEmitter e;
    return e;
}

int threads() {
    if (char const* env = std::getenv("TBP_THREADS"))
        return std::atoi(env);
    return 3;
}

rt::Mode mode_of(int m) {
    switch (m) {
        case 0: return rt::Mode::Sequential;
        case 1: return rt::Mode::TaskDataflow;
        default: return rt::Mode::ForkJoin;
    }
}

char const* mode_name(int m) {
    switch (m) {
        case 0: return "seq";
        case 1: return "task";
        default: return "forkjoin";
    }
}

void BM_Qdwh(benchmark::State& state) {
    std::int64_t const n = state.range(0);
    int const nb = 32;
    rt::Mode const mode = mode_of(static_cast<int>(state.range(1)));
    rt::Engine eng(threads(), mode);
    gen::MatGenOptions opt;
    opt.cond = 1e8;
    opt.seed = 5000;
    auto A0 = gen::cond_matrix<double>(eng, n, n, nb, opt);

    double flops = 0;
    double kernel_flops = 0, solve_secs = 0;
    int it_qr = 0, it_chol = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto A = A0.clone();
        TiledMatrix<double> H(n, n, nb);
        state.ResumeTiming();
        double const kf0 = blas::kernel::flops_performed();
        Timer t;
        auto info = qdwh(eng, A, H);
        solve_secs += t.elapsed();
        kernel_flops += blas::kernel::flops_performed() - kf0;
        flops = info.flops;
        it_qr = info.it_qr;
        it_chol = info.it_chol;
    }
    state.counters["Gflop/s"] = benchmark::Counter(
        flops * static_cast<double>(state.iterations()) / 1e9,
        benchmark::Counter::kIsRate);
    double const achieved =
        solve_secs > 0 ? kernel_flops / solve_secs / 1e9 : 0.0;
    state.counters["kernel_Gflop/s"] = achieved;
    state.SetLabel(mode_name(static_cast<int>(state.range(1))));

    bench::JsonRecord r;
    r.field("bench", "qdwh")
        .field("n", static_cast<std::int64_t>(n))
        .field("mode", mode_name(static_cast<int>(state.range(1))))
        .field("it_qr", it_qr)
        .field("it_chol", it_chol)
        .field("model_flops", flops)
        .field("kernel_flops", kernel_flops)
        .field("solve_seconds", solve_secs)
        .field("achieved_gflops", achieved);
    emitter().add(r);
}

// One structured stacked-QR factor + Q generation, the QR iterations' core.
// The JSON record carries the exact model-predicted kernel flops and a
// model-match flag: the replay in perf::stacked_qr_kernel_flops shares the
// counter's per-call truncation, so any mismatch is a kernel-accounting
// bug, not noise.
void BM_StackedQr(benchmark::State& state) {
    std::int64_t const n = state.range(0);
    int const nb = 32;
    rt::Engine eng(threads());
    TiledMatrix<double> A0(n, n, nb);
    gen::fill_gaussian(eng, A0, 7000);
    eng.wait();
    int const mt1 = A0.mt();

    auto wrows = TiledMatrix<double>::chop(n, nb);
    auto const cols = wrows;
    wrows.insert(wrows.end(), cols.begin(), cols.end());

    double kernel_flops = 0, secs = 0;
    for (auto _ : state) {
        state.PauseTiming();
        TiledMatrix<double> W(wrows, cols);
        la::copy(eng, A0, W.sub(0, 0, mt1, W.nt()));
        auto Tm = la::alloc_qr_t(W);
        TiledMatrix<double> Q(wrows, cols);
        eng.wait();
        state.ResumeTiming();
        double const kf0 = blas::kernel::flops_performed();
        Timer t;
        la::geqrf_stacked_tri(eng, W, mt1, 1.0, Tm);
        la::ungqr_stacked_tri(eng, W, mt1, Tm, Q);
        eng.wait();
        secs += t.elapsed();
        kernel_flops = blas::kernel::flops_performed() - kf0;
    }
    double const model = bench::stacked_qr_model_flops<double>(n, nb);
    state.counters["Gflop/s"] =
        secs > 0 ? kernel_flops * static_cast<double>(state.iterations()) /
                       secs / 1e9
                 : 0.0;

    bench::JsonRecord r;
    r.field("bench", "stacked_qr")
        .field("n", static_cast<std::int64_t>(n))
        .field("qr_kernel_flops", kernel_flops)
        .field("qr_model_flops", model)
        .field("qr_model_match", kernel_flops == model)
        .field("solve_seconds", secs);
    emitter().add(r);
}

void BM_Geqrf(benchmark::State& state) {
    std::int64_t const n = state.range(0);
    int const nb = 32;
    rt::Engine eng(threads());
    TiledMatrix<double> A0(2 * n, n, nb);
    gen::fill_gaussian(eng, A0, 6000);
    eng.wait();
    for (auto _ : state) {
        state.PauseTiming();
        auto A = A0.clone();
        auto Tm = la::alloc_qr_t(A);
        state.ResumeTiming();
        la::geqrf(eng, A, Tm);
        eng.wait();
    }
}

void BM_Potrf(benchmark::State& state) {
    std::int64_t const n = state.range(0);
    int const nb = 32;
    rt::Engine eng(threads());
    auto A0 = gen::hpd_matrix<double>(eng, n, nb, 6001);
    for (auto _ : state) {
        state.PauseTiming();
        auto A = A0.clone();
        state.ResumeTiming();
        la::potrf(eng, Uplo::Lower, A);
        eng.wait();
    }
}

void BM_NewtonPolar(benchmark::State& state) {
    std::int64_t const n = state.range(0);
    rt::Engine eng(threads());
    gen::MatGenOptions opt;
    opt.cond = 1e4;
    opt.seed = 6002;
    auto A = ref::to_dense(gen::cond_matrix<double>(eng, n, n, 32, opt));
    for (auto _ : state) {
        ref::Dense<double> U, H;
        newton_polar(A, U, H);
        benchmark::DoNotOptimize(U.data());
    }
}

void BM_SvdPolar(benchmark::State& state) {
    std::int64_t const n = state.range(0);
    rt::Engine eng(threads());
    gen::MatGenOptions opt;
    opt.cond = 1e4;
    opt.seed = 6003;
    auto A = ref::to_dense(gen::cond_matrix<double>(eng, n, n, 32, opt));
    for (auto _ : state) {
        ref::Dense<double> U, H;
        svd_polar(A, U, H);
        benchmark::DoNotOptimize(U.data());
    }
}

}  // namespace

BENCHMARK(BM_Qdwh)
    ->ArgsProduct({{128, 256}, {0, 1, 2}})
    ->Args({512, 1})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StackedQr)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Geqrf)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Potrf)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NewtonPolar)->Arg(128)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SvdPolar)->Arg(128)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (char const* path = std::getenv("TBP_BENCH_JSON"))
        if (!emitter().empty())
            emitter().write(path);
    return 0;
}
