// Layer microbenches of a traced run. Each calls one public entry point in
// a loop and reports its rate from the kernel flop counter (GF/s over the
// summed call time) or its median wall time:
//   kernel   blas::gemm on single tiles, s/d/c/z, float under bf16 mode,
//            double at nb = 192;
//   blas     the double tile kernels QDWH's panels and updates use;
//   runtime  rt::Engine cost per empty task, independent and chained;
//   linalg   one QR-based and one Cholesky-based QDWH iteration body and a
//            tiled gemm at n = 512 on T workers;
//   cond     norm2est and trcondest at n = 512.

#include <complex>

#include "blas/factor.hh"
#include "blas/householder.hh"
#include "common/aligned.hh"
#include "common/rng.hh"
#include "cond/condest.hh"
#include "cond/norm2est.hh"
#include "gen/matgen.hh"
#include "ledger.hh"
#include "linalg/gemm.hh"
#include "linalg/geqrf.hh"
#include "linalg/potrf.hh"
#include "linalg/trsm.hh"
#include "linalg/util.hh"

namespace tbp::ledger {
namespace {

constexpr double kMinSeconds = 0.1;  ///< timed calls per kernel, at least
constexpr int kNb = 64;

/// A square nb x nb tile with its own aligned storage.
template <typename T>
struct OwnedTile {
    aligned_vector<T> v;
    Tile<T> t;
    explicit OwnedTile(int nb, std::uint64_t seed = 0)
        : v(static_cast<std::size_t>(nb) * nb), t(v.data(), nb, nb, nb) {
        CounterRng const rng(seed);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = seed ? rng.gaussian<T>(i) : T(0);
    }
    OwnedTile(OwnedTile const& o) : v(o.v), t(v.data(), o.t.mb(), o.t.nb(), o.t.mb()) {}
    OwnedTile& operator=(OwnedTile const&) = delete;
    void load(OwnedTile const& o) { std::copy(o.v.begin(), o.v.end(), v.begin()); }
};

/// GF/s of a single-thread tile kernel: `restore` resets its inputs
/// (untimed), `call` runs it once; the flop counter's delta over the summed
/// call time. One untimed warm-up call grows the pack arenas.
template <typename Restore, typename Call>
double kernel_rate(Restore&& restore, Call&& call) {
    restore();
    call();
    double busy = 0, fl = 0;
    for (int reps = 0; busy < kMinSeconds || reps < 3; ++reps) {
        restore();
        double const f0 = blas::kernel::flops_performed();
        double const t0 = wall_time();
        call();
        busy += wall_time() - t0;
        fl += blas::kernel::flops_performed() - f0;
    }
    return fl / busy / 1e9;
}

template <typename T>
double gemm_rate(int nb, std::uint64_t seed) {
    OwnedTile<T> A(nb, seed), B(nb, seed + 1), C(nb, seed + 2);
    return kernel_rate([] {}, [&] {
        blas::gemm(Op::NoTrans, Op::NoTrans, T(1), A.t, B.t, T(0.5), C.t);
    });
}

void kernel_layer(Ledger& L) {
    std::uint64_t const s = L.cfg.seed;
    auto run = [&](char const* name, auto&& f) {
        Tracer::Span span(L.tracer, "kernel", name);
        L.metric(name, f(), "GF/s");
    };
    run("kernel.dgemm_gflops", [&] { return gemm_rate<double>(kNb, s); });
    run("kernel.sgemm_gflops", [&] { return gemm_rate<float>(kNb, s); });
    run("kernel.cgemm_gflops",
        [&] { return gemm_rate<std::complex<float>>(kNb, s); });
    run("kernel.zgemm_gflops",
        [&] { return gemm_rate<std::complex<double>>(kNb, s); });
    run("kernel.bf16gemm_gflops", [&] {
        prec::ExecModeScope bf16(prec::GemmMode::Bf16);
        return gemm_rate<float>(kNb, s);
    });
    run("kernel.dgemm192_gflops", [&] { return gemm_rate<double>(192, s); });
}

void blas_layer(Ledger& L) {
    using D = double;
    std::uint64_t const s = L.cfg.seed * 16 + 1;
    OwnedTile<D> G(kNb, s), G2(kNb, s + 1), C1(kNb, s + 2), C2(kNb, s + 3);
    OwnedTile<D> A(kNb), A2(kNb), X1(kNb), X2(kNb), Tf(kNb);

    // Factored operands: V/T of a geqrt, of a tsqrt and of a ttqrt, an HPD
    // matrix and its Cholesky factor.
    OwnedTile<D> V(G), Tv(kNb);
    blas::geqrt(V.t, Tv.t);
    OwnedTile<D> R2(G2), T2(kNb);
    blas::geqrt(R2.t, T2.t);
    OwnedTile<D> Rts(V), Vts(G2), Tts(kNb);
    blas::tsqrt(Rts.t, Vts.t, Tts.t);
    OwnedTile<D> Rtt(V), Vtt(R2), Ttt(kNb);
    blas::ttqrt(Rtt.t, Vtt.t, Ttt.t);
    OwnedTile<D> Z(kNb);
    blas::gemm(Op::NoTrans, Op::ConjTrans, 1.0, G.t, G.t, 0.0, Z.t);
    for (int i = 0; i < kNb; ++i)
        Z.t(i, i) += kNb;
    OwnedTile<D> Lf(Z);
    blas::potrf(Uplo::Lower, Lf.t);

    auto run = [&](char const* name, auto&& restore, auto&& call) {
        Tracer::Span span(L.tracer, "blas", name);
        L.metric(name, kernel_rate(restore, call), "GF/s");
    };
    run("blas.geqrt_gflops", [&] { A.load(G); },
        [&] { blas::geqrt(A.t, Tf.t); });
    run("blas.tsqrt_gflops", [&] { A.load(V); A2.load(G2); },
        [&] { blas::tsqrt(A.t, A2.t, Tf.t); });
    run("blas.ttqrt_gflops", [&] { A.load(V); A2.load(R2); },
        [&] { blas::ttqrt(A.t, A2.t, Tf.t); });
    run("blas.potrf_gflops", [&] { A.load(Z); },
        [&] { blas::potrf(Uplo::Lower, A.t); });
    run("blas.trsm_gflops", [&] { X1.load(C1); }, [&] {
        blas::trsm(Side::Right, Uplo::Lower, Op::ConjTrans, Diag::NonUnit, 1.0,
                   Lf.t, X1.t);
    });
    run("blas.herk_gflops", [] {},
        [&] { blas::herk(Uplo::Lower, Op::ConjTrans, 1.0, G.t, 0.0, X1.t); });
    run("blas.unmqr_gflops", [&] { X1.load(C1); },
        [&] { blas::unmqr(Op::ConjTrans, V.t, Tv.t, X1.t); });
    run("blas.tsmqr_gflops", [&] { X1.load(C1); X2.load(C2); },
        [&] { blas::tsmqr(Op::ConjTrans, Vts.t, Tts.t, X1.t, X2.t); });
    run("blas.ttmqr_gflops", [&] { X1.load(C1); X2.load(C2); },
        [&] { blas::ttmqr(Op::ConjTrans, Vtt.t, Ttt.t, X1.t, X2.t); });
}

/// Median ns per task of `tasks` tasks submitted by `submit_one`, then wait().
template <typename Submit>
double ns_per_task(rt::Engine& eng, int tasks, Submit&& submit_one) {
    return median_seconds(3, [&] {
               for (int i = 0; i < tasks; ++i)
                   submit_one(eng);
               eng.wait();
           })
           / tasks * 1e9;
}

void runtime_layer(Ledger& L) {
    auto independent = [](rt::Engine& e) { e.submit("empty", {}, [] {}); };
    {
        Tracer::Span span(L.tracer, "runtime", "independent tasks (dataflow)");
        rt::Engine eng(L.cfg.threads);
        L.metric("runtime.ns_per_task_df", ns_per_task(eng, 100000, independent),
                 "ns");
    }
    {
        Tracer::Span span(L.tracer, "runtime", "independent tasks (sequential)");
        rt::Engine eng(1, rt::Mode::Sequential);
        L.metric("runtime.ns_per_task_seq",
                 ns_per_task(eng, 100000, independent), "ns");
    }
    {
        Tracer::Span span(L.tracer, "runtime", "task chain");
        rt::Engine eng(L.cfg.threads);
        int key = 0;
        L.metric("runtime.ns_per_chain_task",
                 ns_per_task(eng, 20000,
                             [&](rt::Engine& e) {
                                 e.submit("chain", {rt::readwrite(&key)}, [] {});
                             }),
                 "ns");
    }
}

void linalg_cond_layer(Ledger& L) {
    using D = double;
    std::int64_t const n = 512;
    rt::Engine eng(L.cfg.threads);
    gen::MatGenOptions g;
    g.cond = 1e6;
    g.seed = L.cfg.seed;
    auto const A = gen::cond_matrix<D>(eng, n, n, kNb, g);
    auto const rows = A.row_tile_sizes();
    auto const cols = A.col_tile_sizes();
    int const mt = A.mt(), nt = A.nt();

    // QR-based iteration body on the stacked [A; I].
    std::vector<int> wrows = rows;
    wrows.insert(wrows.end(), cols.begin(), cols.end());
    TiledMatrix<D> W(wrows, cols), Q(wrows, cols);
    auto const Tw = la::alloc_qr_t(W);
    std::vector<double> t;
    {
        Tracer::Span span(L.tracer, "linalg", "qr iteration");
        for (int r = 0; r < 3; ++r) {
            la::copy(eng, A, W.sub(0, 0, mt, nt));
            eng.wait();
            double const t0 = wall_time();
            la::geqrf_stacked_tri(eng, W, mt, D(1), Tw);
            la::ungqr_stacked_tri(eng, W, mt, Tw, Q);
            eng.wait();
            t.push_back(wall_time() - t0);
        }
    }
    L.metric("linalg.qr_iter_s", median(t), "s");

    // Cholesky-based iteration body: Z = c A^H A + I, Z = L L^H, two solves.
    TiledMatrix<D> Z(cols, cols), X(rows, cols);
    t.clear();
    {
        Tracer::Span span(L.tracer, "linalg", "cholesky iteration");
        for (int r = 0; r < 3; ++r) {
            la::copy(eng, A, X);
            la::set_identity(eng, Z);
            eng.wait();
            double const t0 = wall_time();
            la::herk(eng, Uplo::Lower, Op::ConjTrans, 3.0, A, 1.0, Z);
            la::potrf(eng, Uplo::Lower, Z);
            la::trsm(eng, Side::Right, Uplo::Lower, Op::ConjTrans, Diag::NonUnit,
                     D(1), Z, X);
            la::trsm(eng, Side::Right, Uplo::Lower, Op::NoTrans, Diag::NonUnit,
                     D(1), Z, X);
            eng.wait();
            t.push_back(wall_time() - t0);
        }
    }
    L.metric("linalg.chol_iter_s", median(t), "s");

    {
        Tracer::Span span(L.tracer, "linalg", "gemm");
        double fl = 0;
        double const secs = median_seconds(3, [&] {
            double const f0 = blas::kernel::flops_performed();
            la::gemm(eng, Op::NoTrans, Op::NoTrans, D(1), A, A, D(0), X);
            eng.wait();
            fl = blas::kernel::flops_performed() - f0;
        });
        L.metric("linalg.gemm_gflops", fl / secs / 1e9, "GF/s");
    }
    {
        Tracer::Span span(L.tracer, "cond", "norm2est");
        L.metric("cond.norm2est_s",
                 median_seconds(3, [&] { (void)cond::norm2est(eng, A); }), "s");
    }
    {
        Tracer::Span span(L.tracer, "cond", "trcondest");
        la::copy(eng, A, X);
        la::geqrf(eng, X, Tw.sub(0, 0, mt, nt));
        eng.wait();
        L.metric("cond.condest_s",
                 median_seconds(3, [&] { (void)cond::trcondest(eng, X); }), "s");
    }
}

}  // namespace

void run_layers(Ledger& L) {
    kernel_layer(L);
    blas_layer(L);
    runtime_layer(L);
    linalg_cond_layer(L);
}

}  // namespace tbp::ledger
