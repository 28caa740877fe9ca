// bench_precision — adaptive precision-ladder QDWH vs the all-native run
// (core/qdwh.hh, perf/prec_model.hh).
//
// What it measures and checks:
//   - the executed rung schedule (bf16 / float / native per iteration) of
//     the adaptive ladder on ill-conditioned double inputs;
//   - accuracy: the adaptive run's orthogonality must stay at native
//     machine precision (<= 50 eps64 — the native-tail contract). The
//     backward error is *reported*, not gated: bf16 rungs commit a
//     backward perturbation at bf16 precision that later native iterations
//     cannot undo (the standard mixed-precision polar trade — see
//     core/precision_policy.hh);
//   - exact cost-model agreement: the per-precision kernel-counter flop
//     buckets measured by the run must equal perf::qdwh_prec_kernel_flops
//     bit-for-bit (same formulas, same per-call truncation) — reported as
//     the prec_model_match JSON field tools/check_bench_json.py gates on;
//   - projected effective iterate throughput: with the hardware-class rate
//     model (fp32 = 2x fp64, bf16 = 4x fp64), the adaptive schedule must
//     be >= 1.5x the all-native run at n >= 512.
//
// Usage:
//   bench_precision [--smoke] [--json PATH]
//
// --smoke runs inside ctest (label "prec"): a single n = 512 double-path
// case, exits nonzero on a model mismatch, an orthogonality miss, a
// schedule that never left the native rung, or a projected speedup below
// 1.5x. Results land in BENCH_precision.json.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/timer.hh"
#include "perf/prec_model.hh"

using namespace tbp;

namespace {

struct RunOut {
    QdwhInfo info;
    bench::Accuracy acc{};
    double wall = 0;
    bool ok = false;
    bool model_match = false;
};

std::string rung_string(std::vector<prec::Prec> const& rungs) {
    std::string s;
    for (auto r : rungs) {
        if (!s.empty())
            s += ",";
        s += prec::prec_name(r);
    }
    return s;
}

/// Exact per-bucket comparison of the measured kernel counters against the
/// cost-model replay (valid only for kernel_flops_exact runs).
bool prec_model_match(QdwhInfo const& info, std::vector<int> const& cols) {
    if (!info.kernel_flops_exact)
        return false;
    auto const model = perf::qdwh_prec_kernel_flops(
        cols, cols, info.rungs, info.it_qr, /*compute_h=*/true,
        fma_flops<double>() / 2.0, prec::Prec::Double);
    for (std::size_t p = 0; p < static_cast<std::size_t>(prec::kNumPrec); ++p)
        if (model.by_prec[p] != info.kernel_flops_by_prec[p])
            return false;
    return true;
}

RunOut run_one(int threads, std::int64_t n, int nb, double cond,
               prec::Precision request) {
    RunOut out;
    rt::Engine eng(threads);
    gen::MatGenOptions g;
    g.cond = cond;
    g.seed = 42 + static_cast<std::uint64_t>(n);
    auto A = gen::cond_matrix<double>(eng, n, n, nb, g);
    auto Ad = ref::to_dense(A);
    TiledMatrix<double> H(n, n, nb);
    QdwhOptions qo;
    qo.precision.request = request;
    Timer t;
    Status const s = qdwh_status(eng, A, H, out.info, qo);
    out.wall = t.elapsed();
    out.ok = s == Status::Ok && out.info.converged;
    if (!out.ok) {
        std::fprintf(stderr, "bench_precision: n=%" PRId64 " %s run failed: %s\n",
                     n, prec::precision_name(request), status_name(s));
        return out;
    }
    out.acc = bench::accuracy(Ad, A, H);
    out.model_match =
        prec_model_match(out.info, TiledMatrix<double>::chop(n, nb));
    return out;
}

/// Projected time of a run's executed schedule under the hardware-class
/// rate model (native flop-units; lower is faster).
double projected_time(QdwhInfo const& info, std::vector<int> const& cols) {
    return perf::qdwh_prec_time_model(cols, cols, info.rungs, info.it_qr,
                                      /*structured=*/true, /*compute_h=*/true,
                                      fma_flops<double>() / 2.0,
                                      prec::Prec::Double);
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string json_path = "BENCH_precision.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
            return 2;
        }
    }

    int const threads = bench::bench_threads();
    int const nb = 64;
    double const cond = 1e12;
    double const eps64 = std::numeric_limits<double>::epsilon();
    bench::header("precision", "adaptive precision-ladder QDWH vs all-native "
                               "(measured, kappa = 1e12, double)");
    std::printf("%6s  %6s  %10s  %10s  %10s  %10s  %7s  %5s  %s\n", "n",
                "series", "wall_s", "orth", "backward", "speedup_x", "model",
                "iters", "rungs");

    auto const sizes = smoke ? std::vector<std::int64_t>{512}
                             : bench::bench_sizes({256, 384, 512});
    bench::JsonEmitter out;
    bool ok = true;
    auto check = [&](bool cond_, char const* what) {
        if (!cond_) {
            std::printf("smoke FAIL: %s\n", what);
            ok = false;
        }
    };

    for (auto n : sizes) {
        auto const cols = TiledMatrix<double>::chop(n, nb);
        auto const native =
            run_one(threads, n, nb, cond, prec::Precision::Native);
        auto const adapt =
            run_one(threads, n, nb, cond, prec::Precision::Adaptive);
        if (!native.ok || !adapt.ok) {
            ok = false;
            continue;
        }

        // Effective iterate throughput ratio under the projected rate model:
        // each run costed on its own executed schedule.
        double const t_native = projected_time(native.info, cols);
        double const t_adapt = projected_time(adapt.info, cols);
        double const speedup = t_adapt > 0 ? t_native / t_adapt : 0;

        struct Row {
            char const* series;
            RunOut const* r;
        } rows[2] = {{"native", &native}, {"adaptive", &adapt}};
        for (auto const& row : rows) {
            std::printf("%6" PRId64 "  %8s  %10.3f  %10.3e  %10.3e  %10.2f  "
                        "%7s  %5d  %s\n",
                        n, row.series, row.r->wall, row.r->acc.orth,
                        row.r->acc.backward,
                        row.r == &adapt ? speedup : 1.0,
                        row.r->model_match ? "exact" : "MISS",
                        row.r->info.iterations,
                        rung_string(row.r->info.rungs).c_str());
            bench::JsonRecord rec;
            rec.field("bench", "precision").field("series", row.series);
            rec.field("n", n).field("nb", nb).field("cond", cond);
            rec.field("iterations", row.r->info.iterations)
                .field("it_qr", row.r->info.it_qr)
                .field("fallbacks", row.r->info.fallbacks)
                .field("rungs", rung_string(row.r->info.rungs));
            rec.field("wall_s", row.r->wall)
                .field("orth", row.r->acc.orth)
                .field("backward", row.r->acc.backward);
            rec.field("flops_double",
                      row.r->info.kernel_flops_by_prec[static_cast<std::size_t>(
                          prec::Prec::Double)])
                .field("flops_float",
                       row.r->info.kernel_flops_by_prec[static_cast<std::size_t>(
                           prec::Prec::Float)])
                .field("flops_bf16",
                       row.r->info.kernel_flops_by_prec[static_cast<std::size_t>(
                           prec::Prec::Bf16)]);
            rec.field("prec_model_match", row.r->model_match);
            rec.field("projected_speedup", row.r == &adapt ? speedup : 1.0);
            rec.field("orth_ok", row.r->acc.orth <= 50 * eps64);
            out.add(rec);
        }

        bool left_native = false;
        for (auto r : adapt.info.rungs)
            left_native |= r != prec::Prec::Double;
        check(native.model_match, "native run kernel counters != cost model");
        check(adapt.model_match, "adaptive run kernel counters != cost model");
        check(adapt.acc.orth <= 50 * eps64,
              "adaptive orthogonality above 50 eps64");
        check(left_native, "adaptive schedule never left the native rung");
        if (n >= 512)
            check(speedup >= 1.5,
                  "projected adaptive speedup below 1.5x at n >= 512");
    }
    out.write(json_path);

    if (smoke) {
        std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
        return ok ? 0 : 1;
    }
    return ok ? 0 : 1;
}
