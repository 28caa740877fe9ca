// Micro-kernel GEMM benchmark: measured GFLOP/s of the packed
// register-blocked kernel layer (blas/kernel/) against the naive reference
// loops, swept over tile sizes and all four scalar types. This is the
// acceptance harness for the kernel layer and doubles as a retuning tool
// after any change to Params<T> (see kernel/params.hh).
//
// A second sweep times the tile kernels built on it (herk, trsm, unmqr,
// tsmqr, ttmqr and the panel factorizations geqrt, tsqrt, ttqrt, potrf) at
// nb = 32, 64, 128 and 192: the public entry, its *_naive element loops and
// their ratio, and the public entry's ratio to the packed gemm at the same
// nb, i.e. how close each kernel runs to the gemm rate.
//
// Usage:
//   bench_gemm_kernel                 full sweep, console table +
//                                     BENCH_gemm_kernel.json
//   bench_gemm_kernel --json PATH     write the JSON document to PATH
//   bench_gemm_kernel --smoke         fast ctest mode: one mid-size tile
//                                     per scalar type, asserts the micro
//                                     path beats naive and agrees with it,
//                                     and that every double tile kernel's
//                                     public entry (panels included)
//                                     matches its naive form at nb=64
//
// TBP_SIZES="64,128" overrides the gemm sweep sizes.

#include <algorithm>
#include <complex>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "blas/factor.hh"
#include "blas/gemm.hh"
#include "blas/householder.hh"
#include "blas/level3.hh"
#include "common/aligned.hh"
#include "common/timer.hh"

using namespace tbp;

namespace {

char const* type_name(float) { return "s"; }
char const* type_name(double) { return "d"; }
char const* type_name(std::complex<float>) { return "c"; }
char const* type_name(std::complex<double>) { return "z"; }

/// Deterministic fill in [-0.5, 0.5) — xorshift, no <random> setup cost.
template <typename T>
void fill(aligned_vector<T>& v, std::uint64_t seed) {
    std::uint64_t s = seed * 2654435761u + 1;
    auto next = [&]() -> double {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return static_cast<double>(s % 100000) / 100000.0 - 0.5;
    };
    for (auto& x : v) {
        if constexpr (is_complex_v<T>)
            x = T(static_cast<real_t<T>>(next()),
                  static_cast<real_t<T>>(next()));
        else
            x = static_cast<T>(next());
    }
}

struct PathResult {
    double gflops = 0;       ///< mean rate over the whole timed window
    double best_gflops = 0;  ///< rate of the fastest single call in it
    double seconds = 0;
    int reps = 0;
};

/// Time C := alpha A B + beta C at n^3 volume; kernel selected by `micro`.
/// One ~0.12 s window gives the mean; each call in it is also timed on its
/// own, and the fastest gives the best-of rate, which a shared, noisy host
/// disturbs far less than the mean (an A/B of two builds compares it).
template <typename T>
PathResult time_path(bool micro, int n, Tile<T> const& A, Tile<T> const& B,
                     aligned_vector<T> const& c0, Tile<T> const& C) {
    T const alpha = T(1) + T(1) / T(8);
    T const beta = T(1) / T(2);
    double const fl =
        flops::gemm(n, n, n) * (fma_flops<T>() / 2.0);

    auto run = [&] {
        std::copy(c0.begin(), c0.end(), C.data());
        if (micro)
            blas::kernel::gemm(Op::NoTrans, Op::NoTrans, alpha, A, B, beta, C);
        else
            blas::gemm_naive(Op::NoTrans, Op::NoTrans, alpha, A, B, beta, C);
    };

    run();  // warm-up (and arena growth for the micro path)
    Timer t1;
    run();
    double const once = std::max(t1.elapsed(), 1e-7);
    int const reps = std::max(3, static_cast<int>(0.12 / once));

    double best = once;
    Timer t;
    for (int r = 0; r < reps; ++r) {
        Timer call;
        run();
        best = std::min(best, call.elapsed());
    }
    double const secs = t.elapsed() / reps;

    PathResult res;
    res.seconds = secs;
    res.gflops = fl / secs / 1e9;
    res.best_gflops = fl / best / 1e9;
    res.reps = reps;
    return res;
}

/// Max |micro - naive| relative to the result magnitude.
template <typename T>
double path_diff(Tile<T> const& A, Tile<T> const& B,
                 aligned_vector<T> const& c0, Tile<T> const& C,
                 aligned_vector<T>& scratch) {
    T const alpha = T(1) + T(1) / T(8);
    T const beta = T(1) / T(2);
    std::copy(c0.begin(), c0.end(), C.data());
    blas::gemm_naive(Op::NoTrans, Op::NoTrans, alpha, A, B, beta, C);
    std::copy(C.data(), C.data() + scratch.size(), scratch.begin());
    std::copy(c0.begin(), c0.end(), C.data());
    blas::kernel::gemm(Op::NoTrans, Op::NoTrans, alpha, A, B, beta, C);
    double dmax = 0, vmax = 0;
    for (std::size_t i = 0; i < scratch.size(); ++i) {
        dmax = std::max(dmax, static_cast<double>(std::abs(C.data()[i] - scratch[i])));
        vmax = std::max(vmax, static_cast<double>(std::abs(scratch[i])));
    }
    return vmax > 0 ? dmax / vmax : dmax;
}

template <typename T>
void run_type(std::vector<std::int64_t> const& sizes,
              bench::JsonEmitter& out) {
    for (std::int64_t n64 : sizes) {
        int const n = static_cast<int>(n64);
        aligned_vector<T> a(static_cast<std::size_t>(n) * n);
        aligned_vector<T> b(a.size()), c0(a.size()), c(a.size()),
            scratch(a.size());
        fill(a, 11 + n);
        fill(b, 22 + n);
        fill(c0, 33 + n);
        Tile<T> A(a.data(), n, n, n), B(b.data(), n, n, n),
            C(c.data(), n, n, n);

        auto naive = time_path<T>(false, n, A, B, c0, C);
        auto micro = time_path<T>(true, n, A, B, c0, C);
        double const diff = path_diff<T>(A, B, c0, C, scratch);
        double const speedup = naive.gflops > 0
                                   ? micro.gflops / naive.gflops
                                   : 0.0;

        std::printf("  %s n=%4d  naive %7.2f GF/s  micro %7.2f GF/s "
                    "(best %7.2f)  speedup %5.2fx  maxdiff %.2e\n",
                    type_name(T{}), n, naive.gflops, micro.gflops,
                    micro.best_gflops, speedup, diff);

        bench::JsonRecord r;
        r.field("op", "gemm")
            .field("type", type_name(T{}))
            .field("m", n)
            .field("n", n)
            .field("k", n)
            .field("naive_gflops", naive.gflops)
            .field("naive_best_gflops", naive.best_gflops)
            .field("micro_gflops", micro.gflops)
            .field("micro_best_gflops", micro.best_gflops)
            .field("speedup", speedup)
            .field("maxdiff_rel", diff);
        out.add(r);
    }
}

/// An nb x nb tile with its own aligned storage, filled deterministically.
template <typename T>
struct OwnedTile {
    aligned_vector<T> v;
    Tile<T> t;
    OwnedTile(int nb, std::uint64_t seed)
        : v(static_cast<std::size_t>(nb) * nb), t(v.data(), nb, nb, nb) {
        fill(v, seed);
    }
    OwnedTile(OwnedTile const&) = delete;
    void load(OwnedTile const& o) {
        std::copy(o.v.begin(), o.v.end(), v.begin());
    }
};

/// The kernel operands a TileKernel writes: X1 and X2 are loaded from the
/// kernel's inputs before every call, X3 receives a T factor.
template <typename T>
struct Outputs {
    OwnedTile<T> X1, X2, X3;
    explicit Outputs(int nb) : X1(nb, 0), X2(nb, 0), X3(nb, 0) {}
};

/// One tile kernel as run by the sweep: `naive` selects the *_naive form;
/// X1 starts as a copy of `in1` (the random C1 when null), X2 of C2.
template <typename T>
struct TileKernel {
    char const* name;
    std::function<void(bool naive, Outputs<T>& X)> run;
    OwnedTile<T> const* in1 = nullptr;
};

/// Operands of the tile-kernel rows at one nb: random tiles, a Hermitian
/// positive definite tile P and its Cholesky factor L for trsm, and the V/T
/// pairs of a geqrt, a tsqrt and a ttqrt.
template <typename T>
struct TileOperands {
    OwnedTile<T> G, C1, C2, P, L, V, Tv, Rts, Vts, Tts, Rtt, Vtt, Ttt;

    explicit TileOperands(int n)
        : G(n, 1), C1(n, 2), C2(n, 3), P(n, 0), L(n, 4), V(n, 5), Tv(n, 6),
          Rts(n, 7), Vts(n, 8), Tts(n, 9), Rtt(n, 10), Vtt(n, 11),
          Ttt(n, 12) {
        blas::gemm(Op::NoTrans, Op::ConjTrans, T(1), G.t, G.t, T(0), P.t);
        for (int i = 0; i < n; ++i)
            P.t(i, i) += T(n);
        L.load(P);
        blas::potrf(Uplo::Lower, L.t);
        blas::geqrt(V.t, Tv.t);
        Rts.load(V);
        blas::tsqrt(Rts.t, Vts.t, Tts.t);
        Rtt.load(V);
        blas::geqrt(Vtt.t, Ttt.t);  // upper-triangular R for ttqrt
        blas::ttqrt(Rtt.t, Vtt.t, Ttt.t);
    }

    /// The kernels in the shapes the QDWH iterations use them.
    std::vector<TileKernel<T>> kernels() {
        using R = real_t<T>;
        auto const CT = Op::ConjTrans;
        return {
            {"herk",
             [this](bool naive, Outputs<T>& X) {
                 (naive ? blas::herk_naive<T> : blas::herk<T>)(
                     Uplo::Lower, CT, R(1), G.t, R(0), X.X1.t);
             }},
            {"trsm",
             [this](bool naive, Outputs<T>& X) {
                 (naive ? blas::trsm_naive<T> : blas::trsm<T>)(
                     Side::Right, Uplo::Lower, CT, Diag::NonUnit, T(1), L.t,
                     X.X1.t);
             }},
            {"unmqr",
             [this](bool naive, Outputs<T>& X) {
                 (naive ? blas::unmqr_naive<T> : blas::unmqr<T>)(CT, V.t,
                                                                 Tv.t, X.X1.t);
             }},
            {"tsmqr",
             [this](bool naive, Outputs<T>& X) {
                 (naive ? blas::tsmqr_naive<T> : blas::tsmqr<T>)(
                     CT, Vts.t, Tts.t, X.X1.t, X.X2.t);
             }},
            {"ttmqr",
             [this](bool naive, Outputs<T>& X) {
                 (naive ? blas::ttmqr_naive<T> : blas::ttmqr<T>)(
                     CT, Vtt.t, Ttt.t, X.X1.t, X.X2.t, false);
             }},
            {"geqrt",
             [](bool naive, Outputs<T>& X) {
                 (naive ? blas::geqrt_naive<T> : blas::geqrt<T>)(X.X1.t,
                                                                 X.X3.t);
             }},
            {"tsqrt",
             [](bool naive, Outputs<T>& X) {
                 (naive ? blas::tsqrt_naive<T> : blas::tsqrt<T>)(
                     X.X1.t, X.X2.t, X.X3.t);
             }},
            {"ttqrt",
             [](bool naive, Outputs<T>& X) {
                 (naive ? blas::ttqrt_naive<T> : blas::ttqrt<T>)(
                     X.X1.t, X.X2.t, X.X3.t);
             }},
            {"potrf",
             [](bool naive, Outputs<T>& X) {
                 (naive ? blas::potrf_naive<T> : blas::potrf<T>)(Uplo::Lower,
                                                                 X.X1.t);
             },
             &P},
        };
    }

    /// Load a kernel's inputs into X.
    void restore(TileKernel<T> const& k, Outputs<T>& X) const {
        X.X1.load(k.in1 ? *k.in1 : C1);
        X.X2.load(C2);
    }
};

/// Seconds per call of `call`, timing only the call (`restore` resets its
/// inputs outside the clock); one warm-up call, then at least ~0.12 s of
/// calls.
template <typename Restore, typename Call>
double tile_seconds(Restore&& restore, Call&& call) {
    restore();
    call();
    double busy = 0;
    int reps = 0;
    for (; busy < 0.12 || reps < 3; ++reps) {
        restore();
        Timer t;
        call();
        busy += t.elapsed();
    }
    return busy / reps;
}

/// Real flops one call of `call` charges to the measured-rate counter.
template <typename Call>
double charged_flops(Call&& call) {
    double const f0 = blas::kernel::flops_performed();
    call();
    return blas::kernel::flops_performed() - f0;
}

template <typename T>
void run_tile_kernels(std::vector<int> const& nbs, bench::JsonEmitter& out) {
    for (int nb : nbs) {
        TileOperands<T> ops(nb);
        Outputs<T> X(nb);
        auto gemm = [&] {
            blas::gemm(Op::NoTrans, Op::NoTrans, T(1), ops.G.t, ops.C2.t,
                       T(0.5), X.X1.t);
        };
        double const gemm_gf =
            charged_flops(gemm)
            / tile_seconds([&] { X.X1.load(ops.C1); }, gemm) / 1e9;
        for (auto const& k : ops.kernels()) {
            // The naive forms charge nothing: both rates use the public
            // entry's charge.
            ops.restore(k, X);
            double const fl = charged_flops([&] { k.run(false, X); });
            auto rate = [&](bool naive) {
                return fl
                       / tile_seconds([&] { ops.restore(k, X); },
                                      [&] { k.run(naive, X); })
                       / 1e9;
            };
            double const gf = rate(false);
            double const naive_gf = rate(true);
            double const ratio = gemm_gf > 0 ? gf / gemm_gf : 0.0;
            double const speedup = naive_gf > 0 ? gf / naive_gf : 0.0;
            std::printf("  %s nb=%4d  %-5s %7.2f GF/s  naive %6.2f (%5.2fx)  "
                        "(%.2f of gemm at %.2f GF/s)\n",
                        type_name(T{}), nb, k.name, gf, naive_gf, speedup,
                        ratio, gemm_gf);
            bench::JsonRecord r;
            r.field("op", k.name)
                .field("type", type_name(T{}))
                .field("nb", nb)
                .field("gflops", gf)
                .field("naive_gflops", naive_gf)
                .field("naive_ratio", speedup)
                .field("gemm_gflops", gemm_gf)
                .field("gemm_ratio", ratio);
            out.add(r);
        }
    }
}

/// Max |public - naive| of every tile kernel at nb, relative to the naive
/// result's magnitude, over all its outputs.
template <typename T>
bool tile_kernels_match(int nb, double tol) {
    TileOperands<T> ops(nb);
    Outputs<T> X(nb), Y(nb);
    bool ok = true;
    for (auto const& k : ops.kernels()) {
        ops.restore(k, X);
        ops.restore(k, Y);
        X.X3.load(Y.X3);
        k.run(true, Y);
        k.run(false, X);
        double dmax = 0, vmax = 0;
        auto accumulate = [&](OwnedTile<T> const& x, OwnedTile<T> const& y) {
            for (std::size_t i = 0; i < y.v.size(); ++i) {
                dmax = std::max(
                    dmax, static_cast<double>(std::abs(x.v[i] - y.v[i])));
                vmax = std::max(vmax, static_cast<double>(std::abs(y.v[i])));
            }
        };
        accumulate(X.X1, Y.X1);
        accumulate(X.X2, Y.X2);
        accumulate(X.X3, Y.X3);
        double const rel = vmax > 0 ? dmax / vmax : dmax;
        std::printf("smoke: %s nb=%d %-5s public vs naive maxdiff %.2e\n",
                    type_name(T{}), nb, k.name, rel);
        ok = ok && rel < tol;
    }
    return ok;
}

/// The micro path at n = 192 must beat the naive loops by 5 % and agree
/// with them to `tol`: a vectorizer cliff in one type's micro-kernel shape
/// (MR = 16 collapses to a few GF/s) fails this check.
template <typename T>
bool gemm_beats_naive(double tol) {
    int const n = 192;
    aligned_vector<T> a(static_cast<std::size_t>(n) * n);
    aligned_vector<T> b(a.size()), c0(a.size()), c(a.size()),
        scratch(a.size());
    fill(a, 101);
    fill(b, 202);
    fill(c0, 303);
    Tile<T> A(a.data(), n, n, n), B(b.data(), n, n, n), C(c.data(), n, n, n);

    auto naive = time_path<T>(false, n, A, B, c0, C);
    auto micro = time_path<T>(true, n, A, B, c0, C);
    double const diff = path_diff<T>(A, B, c0, C, scratch);
    double const speedup = micro.gflops / naive.gflops;

    std::printf("smoke: %s n=%d naive %.2f GF/s micro %.2f GF/s speedup "
                "%.2fx maxdiff %.2e\n",
                type_name(T{}), n, naive.gflops, micro.gflops, speedup, diff);
    return speedup >= 1.05 && diff < tol;
}

int run_smoke() {
    // One mid-size tile per type plus the double tile kernels. Kept fast
    // (a few seconds) so it can run inside ctest.
    bool ok = gemm_beats_naive<float>(1e-5);
    ok = gemm_beats_naive<double>(1e-12) && ok;
    ok = gemm_beats_naive<std::complex<float>>(1e-5) && ok;
    ok = gemm_beats_naive<std::complex<double>>(1e-12) && ok;
    ok = tile_kernels_match<double>(64, 1e-12) && ok;
    std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string json_path = "BENCH_gemm_kernel.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--json PATH]\n", argv[0]);
            return 2;
        }
    }

    if (smoke)
        return run_smoke();

    auto const sizes = bench::bench_sizes({64, 96, 128, 192, 256});
    bench::JsonEmitter out;

    bench::header("bench_gemm_kernel",
                  "packed micro-kernel vs naive tile GEMM");
    run_type<float>(sizes, out);
    run_type<double>(sizes, out);
    run_type<std::complex<float>>(sizes, out);
    run_type<std::complex<double>>(sizes, out);

    std::printf("\ntile kernels (public entry) vs packed gemm:\n");
    std::vector<int> const nbs = {32, 64, 128, 192};
    run_tile_kernels<float>(nbs, out);
    run_tile_kernels<double>(nbs, out);
    run_tile_kernels<std::complex<float>>(nbs, out);
    run_tile_kernels<std::complex<double>>(nbs, out);

    if (out.write(json_path))
        std::printf("\nwrote %s\n", json_path.c_str());
    return 0;
}
