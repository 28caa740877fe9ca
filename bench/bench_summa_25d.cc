// 2D vs 2.5D SUMMA weak-scaling bench: measures one distributed gemm per
// grid shape on the simulated-MPI world and cross-checks every per-rank
// traffic counter against perf::summa_volume — the two must match exactly,
// since the predictor replays the implementation loops. On top of the
// measured rows it prints the 2D/2.5D crossover table the auto-selector
// (perf::choose_summa_plan) works from: modeled max_rank_bytes per
// replication depth c at each rank count, weak-scaled so the tile count per
// rank stays constant as P grows to 64.
//
// The replicated layers only pay off in PartialSum mode (deterministic =
// false): ExactOrder ships one product tile per remote step to preserve the
// bitwise 2D fold order, so its reduction traffic cancels the staging win.
// The crossover assertions therefore run in PartialSum mode; ExactOrder rows
// are still model-checked exactly.
//
// Usage:
//   bench_summa_25d               full sweep, console table +
//                                 BENCH_summa_25d.json
//   bench_summa_25d --json PATH   write the JSON document to PATH
//   bench_summa_25d --smoke       fast ctest mode: asserts model ==
//                                 measured for 2D and 2.5D shapes in both
//                                 reduction modes and that the modeled
//                                 2.5D max_rank_bytes beats 2D at P >= 16

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "comm/dist_algs.hh"
#include "comm/dist_summa25.hh"
#include "common/timer.hh"
#include "perf/cost_model.hh"
#include "perf/sched_report.hh"

using namespace tbp;

namespace {

struct Shape {
    int p, q, c;
    int size() const { return p * q * c; }
};

struct Measured {
    perf::CommReport rep;
    double seconds = 0;
};

/// One distributed gemm (m x k times k x n doubles, tile nb) on the p*q*c
/// world through summa_25d (c == 1 is the plain 2D SUMMA). The world does
/// nothing else, so the report is the gemm's traffic alone.
Measured run_gemm(Shape s, std::int64_t m, std::int64_t n, std::int64_t k,
                  int nb, bool deterministic) {
    comm::coll::Config cfg;
    cfg.deterministic = deterministic;
    comm::World world(s.size());
    world.set_coll_config(cfg);
    comm::ProcGrid3d g3{s.p, s.q, s.c};
    Grid const g = g3.layer();
    Timer t;
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<double> A(c, m, k, nb, g);
        comm::DistMatrix<double> B(c, k, n, nb, g);
        comm::DistMatrix<double> C(c, m, n, nb, g);
        auto f = [](std::int64_t i, std::int64_t j) {
            return 1.0 / static_cast<double>(i + 2 * j + 3);
        };
        A.fill(f);
        B.fill(f);
        C.fill(f);
        comm::summa_25d(c, g3, Op::NoTrans, 1.5, A, B, 0.5, C);
    });
    Measured mres;
    mres.seconds = t.elapsed();
    mres.rep = perf::comm_report(world);
    return mres;
}

bool check_match(Measured const& m, perf::SummaVolume const& v) {
    return m.rep.total.sends == v.total.messages
           && m.rep.total.bytes_sent == v.total.bytes
           && m.rep.max_rank_sends() == v.total.max_rank_sends
           && m.rep.max_rank_bytes() == v.total.max_rank_bytes
           && m.rep.leaked == 0;
}

/// Weak-scaling problem size, k-heavy (m : n : k = 2 : 1 : 4): replicating
/// layers amortize across the inner dimension, so 2.5D pays off exactly
/// when k dominates — for a square gemm at P = 16 the per-rank send volume
/// of the best 2.5D grid provably ties the 2D grid, while this shape gives
/// a strict win. The per-rank tile count stays constant as P grows 4x.
struct Dims {
    std::int64_t m, n, k;
};
Dims weak_dims(int P, int nb) {
    int side = 1;
    while (side * side * 4 < P)
        side *= 2;
    auto d = [&](int f) { return static_cast<std::int64_t>(f * side) * nb; };
    return Dims{d(4), d(2), d(8)};
}

/// Shapes measured per rank count: the near-square 2D grid plus both
/// orientations of the near-square layer grid for c in {2, 4} when c
/// divides P (the staging burden is asymmetric for a non-square gemm, so
/// the selector considers both).
std::vector<Shape> shapes_for(int P) {
    std::vector<Shape> out;
    auto near_square = [](int L) {
        Grid const g = comm::near_square_grid(L);
        return Shape{g.p, g.q, 1};
    };
    out.push_back(near_square(P));
    for (int c : {2, 4}) {
        if (P % c == 0 && P / c >= 1) {
            Shape s = near_square(P / c);
            s.c = c;
            out.push_back(s);
            if (s.p != s.q)
                out.push_back(Shape{s.q, s.p, c});
        }
    }
    return out;
}

int run_sweep(std::string const& json_path) {
    bench::header("bench_summa_25d",
                  "2D vs replicated-layer 2.5D SUMMA, model-exact traffic");
    bench::JsonEmitter out;
    bool all_match = true;

    std::vector<int> const ranks = {4, 16, 64};
    int const nb = 8;

    for (int P : ranks) {
        Dims const d = weak_dims(P, nb);
        std::printf("\nP=%d  (m = %lld, n = %lld, k = %lld, nb = %d):\n", P,
                    static_cast<long long>(d.m), static_cast<long long>(d.n),
                    static_cast<long long>(d.k), nb);
        for (bool det : {true, false}) {
            for (Shape s : shapes_for(P)) {
                // Measuring 64 ranks is fine; the allgather-free gemm keeps
                // the footprint at one matrix copy per rank share.
                auto meas = run_gemm(s, d.m, d.n, d.k, nb, det);
                auto v = perf::summa_volume(d.m, d.n, d.k, nb, sizeof(double),
                                            s.p, s.q, s.c, det);
                bool const ok = check_match(meas, v);
                all_match = all_match && ok;
                std::printf("  %dx%dx%d %-10s %8.1f ms  max/rank bytes "
                            "%10llu  (stage %llu fiber %llu reduce %llu)  "
                            "model %s\n",
                            s.p, s.q, s.c,
                            det ? "exact" : "partialsum",
                            meas.seconds * 1e3,
                            static_cast<unsigned long long>(
                                meas.rep.max_rank_bytes()),
                            static_cast<unsigned long long>(v.stage_bytes),
                            static_cast<unsigned long long>(v.fiber_bytes),
                            static_cast<unsigned long long>(v.reduce_bytes),
                            ok ? "match" : "MISMATCH");
                bench::JsonRecord r;
                r.field("ranks", P)
                    .field("p", s.p)
                    .field("q", s.q)
                    .field("c", s.c)
                    .field("m", d.m)
                    .field("n", d.n)
                    .field("k", d.k)
                    .field("nb", nb)
                    .field("deterministic", det)
                    .field("seconds", meas.seconds)
                    .field("messages", meas.rep.total.sends)
                    .field("bytes", meas.rep.total.bytes_sent)
                    .field("max_rank_sends", meas.rep.max_rank_sends())
                    .field("max_rank_bytes", meas.rep.max_rank_bytes())
                    .field("model_messages", v.total.messages)
                    .field("model_bytes", v.total.bytes)
                    .field("model_max_rank_sends", v.total.max_rank_sends)
                    .field("model_max_rank_bytes", v.total.max_rank_bytes)
                    .field("model_stage_bytes", v.stage_bytes)
                    .field("model_fiber_bytes", v.fiber_bytes)
                    .field("model_reduce_bytes", v.reduce_bytes)
                    .field("model_match", ok);
                out.add(r);
            }
        }
    }

    // Crossover table: the auto-selector's view in PartialSum mode. 2.5D
    // must win the max_rank_bytes bottleneck from P = 16 up.
    std::printf("\n2D/2.5D crossover (PartialSum, modeled max_rank_bytes):\n");
    bool crossover_ok = true;
    for (int P : ranks) {
        Dims const d = weak_dims(P, nb);
        auto plan = perf::choose_summa_plan(P, d.m, d.n, d.k, nb,
                                            sizeof(double),
                                            /*deterministic=*/false,
                                            comm::CommPlan::Auto);
        bool const won = plan.vol.total.max_rank_bytes
                         < plan.vol2d.total.max_rank_bytes;
        if (P >= 16 && !(plan.c >= 2 && won))
            crossover_ok = false;
        std::printf("  P=%3d  2d %10llu   chosen %dx%dx%d %10llu   %s\n", P,
                    static_cast<unsigned long long>(
                        plan.vol2d.total.max_rank_bytes),
                    plan.p, plan.q, plan.c,
                    static_cast<unsigned long long>(
                        plan.vol.total.max_rank_bytes),
                    plan.c > 1 ? (won ? "2.5d wins" : "2.5d NOT cheaper")
                               : "2d kept");
        bench::JsonRecord r;
        r.field("crossover_ranks", P)
            .field("m", d.m)
            .field("n", d.n)
            .field("k", d.k)
            .field("nb", nb)
            .field("chosen_p", plan.p)
            .field("chosen_q", plan.q)
            .field("chosen_c", plan.c)
            .field("model_2d_max_rank_bytes", plan.vol2d.total.max_rank_bytes)
            .field("model_chosen_max_rank_bytes",
                   plan.vol.total.max_rank_bytes)
            .field("crossover", plan.c >= 2 && won);
        out.add(r);
    }

    if (out.write(json_path))
        std::printf("\nwrote %s\n", json_path.c_str());
    std::printf("model cross-check: %s; crossover at P >= 16: %s\n",
                all_match ? "all cases match" : "MISMATCHES (see above)",
                crossover_ok ? "yes" : "NO");
    return all_match && crossover_ok ? 0 : 1;
}

int run_smoke(std::string const& json_path) {
    bool ok = true;
    auto fail = [&](char const* what) {
        std::printf("smoke FAIL: %s\n", what);
        ok = false;
    };
    bench::JsonEmitter out;

    int const nb = 4;
    // Exact model == measured for 2D and 2.5D shapes in both reduction
    // modes, including a non-square layer grid and a ragged edge (m = 36 is
    // a 9-tile side at nb = 4).
    struct Case {
        Shape s;
        std::int64_t m;
    };
    for (Case cs : {Case{{2, 2, 1}, 24}, Case{{2, 1, 2}, 24},
                    Case{{2, 2, 2}, 36}, Case{{2, 2, 4}, 24}}) {
        for (bool det : {true, false}) {
            auto meas = run_gemm(cs.s, cs.m, cs.m, cs.m, nb, det);
            auto v = perf::summa_volume(cs.m, cs.m, cs.m, nb, sizeof(double),
                                        cs.s.p, cs.s.q, cs.s.c, det);
            bool const match = check_match(meas, v);
            bench::JsonRecord rec;
            rec.field("bench", "summa_25d_smoke");
            rec.field("p", cs.s.p);
            rec.field("q", cs.s.q);
            rec.field("c", cs.s.c);
            rec.field("m", cs.m);
            rec.field("deterministic", det);
            rec.field("measured_bytes", meas.rep.total.bytes_sent);
            rec.field("measured_msgs", meas.rep.total.sends);
            rec.field("max_rank_bytes", meas.rep.max_rank_bytes());
            rec.field("volume_model_match", match);
            out.add(rec);
            if (!match) {
                std::printf("  %dx%dx%d det=%d: measured %llu msgs %llu "
                            "bytes max %llu vs model %llu/%llu/%llu\n",
                            cs.s.p, cs.s.q, cs.s.c, det ? 1 : 0,
                            static_cast<unsigned long long>(
                                meas.rep.total.sends),
                            static_cast<unsigned long long>(
                                meas.rep.total.bytes_sent),
                            static_cast<unsigned long long>(
                                meas.rep.max_rank_bytes()),
                            static_cast<unsigned long long>(v.total.messages),
                            static_cast<unsigned long long>(v.total.bytes),
                            static_cast<unsigned long long>(
                                v.total.max_rank_bytes));
                fail("measured traffic != summa_volume prediction");
            }
        }
    }

    // The selector must find a winning c >= 2 at P >= 16 in PartialSum mode
    // on the k-heavy weak-scaling shape (the acceptance crossover), and
    // must honor a forced 2D plan.
    for (int P : {16, 64}) {
        Dims const d = weak_dims(P, nb);
        auto plan = perf::choose_summa_plan(P, d.m, d.n, d.k, nb,
                                            sizeof(double), false,
                                            comm::CommPlan::Auto);
        bool const crossover_ok =
            plan.c >= 2
            && plan.vol.total.max_rank_bytes
                   < plan.vol2d.total.max_rank_bytes;
        if (!crossover_ok)
            fail("2.5d does not beat 2d max_rank_bytes at P >= 16");
        auto p2d = perf::choose_summa_plan(P, d.m, d.n, d.k, nb,
                                           sizeof(double), false,
                                           comm::CommPlan::Grid2d);
        if (p2d.c != 1)
            fail("forced 2d plan picked c > 1");
        bench::JsonRecord rec;
        rec.field("bench", "summa_25d_smoke");
        rec.field("ranks", P);
        rec.field("chosen_c", plan.c);
        rec.field("max_rank_bytes_25d", plan.vol.total.max_rank_bytes);
        rec.field("max_rank_bytes_2d", plan.vol2d.total.max_rank_bytes);
        rec.field("crossover_ok", crossover_ok && p2d.c == 1);
        out.add(rec);
    }

    if (out.write(json_path))
        std::printf("wrote %s\n", json_path.c_str());
    std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string json_path = "BENCH_summa_25d.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    if (smoke)
        return run_smoke(json_path);
    return run_sweep(json_path);
}
