// tbp_driver — command-line driver for the TBP polar decomposition stack,
// in the spirit of SLATE's `tester`: pick an algorithm, a matrix, a
// schedule, and get the paper's metrics printed.
//
// Usage:
//   tbp_driver [--algo qdwh|zolo|newton|svdpd|svd|dqdwh|serve]
//              [--m M] [--n N] [--nb NB] [--cond KAPPA]
//              [--dist geom|arith|cluster|loguni]
//              [--type s|d|c|z] [--mode task|forkjoin|seq]
//              [--threads T] [--seed S] [--r R]
//              [--jobs J] [--rate R] [--fifo] [--verbose]
//
// Examples:
//   tbp_driver --algo qdwh --n 512 --cond 1e16
//   tbp_driver --algo qdwh --n 512 --cond 1e12 --precision adaptive
//   tbp_driver --algo zolo --n 256 --r 8 --type z
//   tbp_driver --algo qdwh --n 384 --mode forkjoin   # ScaLAPACK-style run
//   tbp_driver --algo serve --jobs 200 --n 64 --nb 32  # batched service

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "blas/kernel/stats.hh"
#include "comm/dist_qdwh.hh"
#include "common/timer.hh"
#include "core/baselines.hh"
#include "fault/fault_plan.hh"
#include "perf/fault_report.hh"
#include "perf/qdwh_model.hh"
#include "perf/sched_report.hh"
#include "core/qdwh.hh"
#include "core/qdwh_svd.hh"
#include "core/zolopd.hh"
#include "gen/matgen.hh"
#include "ref/dense.hh"
#include "service/service.hh"

using namespace tbp;

namespace {

struct Args {
    std::string algo = "qdwh";
    std::int64_t m = 0;  // 0 -> square (= n)
    std::int64_t n = 256;
    int nb = 32;
    double cond = 1e12;
    gen::SigmaDist dist = gen::SigmaDist::Geometric;
    char type = 'd';
    rt::Mode mode = rt::Mode::TaskDataflow;
    int threads = 3;
    std::uint64_t seed = 42;
    int r = 8;
    bool verbose = false;
    int ranks = 4;             // --algo dqdwh: virtual ranks
    int gp = 0, gq = 0;        // process grid (0 -> auto near-square)
    comm::CommPlan comm_plan = comm::CommPlan::Auto;  // --comm-plan
    int jobs = 200;            // --algo serve: batch size
    double rate = 0;           // arrival rate jobs/s (0 -> submit at once)
    bool fifo = false;         // serve: disable the QoS priority split
    int lookahead = 0;         // panel lookahead depth (geqrf/potrf)
    // --- precision ladder (qdwh, zolo) ------------------------------------
    prec::Precision precision = prec::Precision::Native;  // --precision
    // --- fault plane (dqdwh, serve) ---------------------------------------
    std::string fault_plan = "off";  // off|drop|delay|dup|corrupt|slow|poison|mix
    std::uint64_t fault_seed = 1;    // chaos seed (replayable)
    double fault_rate = 0.05;        // per-message fault probability
    double timeout_ms = 0;           // comm retry timeout (0 = default)
    int retry_max = 0;               // comm resend budget (0 = default)
};

/// Build the seeded chaos plan the --fault-* flags describe (inert when
/// --fault-plan is "off").
fault::FaultPlan make_fault_plan(Args const& a) {
    if (a.fault_plan == "off")
        return {};
    fault::FaultKind k = a.fault_plan == "drop"      ? fault::FaultKind::Drop
                         : a.fault_plan == "delay"   ? fault::FaultKind::Delay
                         : a.fault_plan == "dup"     ? fault::FaultKind::Duplicate
                         : a.fault_plan == "corrupt" ? fault::FaultKind::Corrupt
                         : a.fault_plan == "slow"    ? fault::FaultKind::Slowdown
                         : a.fault_plan == "poison"  ? fault::FaultKind::PoisonRank
                                                     : fault::FaultKind::Mix;
    return fault::FaultPlan::preset(k, a.fault_seed, a.fault_rate);
}

fault::RetryConfig make_retry_config(Args const& a) {
    fault::RetryConfig rc;
    if (a.timeout_ms > 0)
        rc.timeout_ms = a.timeout_ms;
    if (a.retry_max > 0)
        rc.retry_max = a.retry_max;
    return rc;
}

[[noreturn]] void usage(char const* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--algo qdwh|zolo|newton|svdpd|svd|dqdwh|serve] "
                 "[--m M] [--n N]\n"
                 "          [--nb NB] [--cond K] [--dist geom|arith|cluster|"
                 "loguni]\n"
                 "          [--type s|d|c|z] [--mode task|forkjoin|seq]\n"
                 "          [--threads T] [--seed S] [--r R] [--verbose]\n"
                 "          [--ranks P] [--grid PxQ]\n"
                 "          [--comm-plan auto|2d|2.5d]\n"
                 "          [--jobs J] [--rate JOBS_PER_SEC] [--fifo]\n"
                 "          [--lookahead D]\n"
                 "          [--precision native|float|bf16|adaptive]\n"
                 "\n"
                 "  --lookahead D prioritizes trailing updates feeding the "
                 "next D panels.\n"
                 "  --precision puts qdwh/zolo/dqdwh on the precision ladder: "
                 "'adaptive' picks\n"
                 "  simulated-bf16 / float / native per iteration from the "
                 "l_k recurrence\n"
                 "  (condition-driven), 'float'/'bf16' force every "
                 "non-tail iteration onto\n"
                 "  that rung.\n"
                 "  --algo dqdwh runs the distributed QDWH over P virtual "
                 "ranks.\n"
                 "  --algo serve runs a mixed qdwh/zolo/posv/geqrf batch of "
                 "J jobs\n"
                 "  (every 4th in the Latency QoS class) through the service "
                 "layer at\n"
                 "  --rate jobs/s Poisson arrivals (0 = all at once); --fifo "
                 "disables\n"
                 "  the priority split for an A/B baseline.\n"
                 "  --comm-plan picks the SUMMA variant for dqdwh's trailing "
                 "gemms:\n"
                 "  'auto' costs 2D vs replicated-layer 2.5D with the "
                 "max_rank_bytes\n"
                 "  bottleneck model and takes the cheaper; '2d'/'2.5d' force "
                 "one\n"
                 "  ('2.5d' picks the replication depth by the same model).\n"
                 "  --fault-plan off|drop|delay|dup|corrupt|slow|poison|mix "
                 "installs a\n"
                 "  seeded chaos plan on the dqdwh World (or the serve batch's "
                 "dqdwh\n"
                 "  jobs): --fault-seed S replays the exact same faults, "
                 "--fault-rate R\n"
                 "  sets the per-message probability, --timeout-ms / "
                 "--retry-max tune the\n"
                 "  reliable transport's resend policy.\n",
                 argv0);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        auto need = [&](char const* flag) -> char const* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", flag);
                usage(argv[0]);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--algo")) {
            a.algo = need("--algo");
            if (a.algo != "qdwh" && a.algo != "zolo" && a.algo != "newton"
                && a.algo != "svdpd" && a.algo != "svd" && a.algo != "dqdwh"
                && a.algo != "serve") {
                std::fprintf(stderr, "unknown --algo %s\n", a.algo.c_str());
                usage(argv[0]);
            }
        } else if (!std::strcmp(argv[i], "--m")) {
            a.m = std::atoll(need("--m"));
        } else if (!std::strcmp(argv[i], "--n")) {
            a.n = std::atoll(need("--n"));
        } else if (!std::strcmp(argv[i], "--nb")) {
            a.nb = std::atoi(need("--nb"));
        } else if (!std::strcmp(argv[i], "--cond")) {
            a.cond = std::atof(need("--cond"));
        } else if (!std::strcmp(argv[i], "--dist")) {
            std::string d = need("--dist");
            if (d == "geom") {
                a.dist = gen::SigmaDist::Geometric;
            } else if (d == "arith") {
                a.dist = gen::SigmaDist::Arithmetic;
            } else if (d == "cluster") {
                a.dist = gen::SigmaDist::ClusterAtOne;
            } else if (d == "loguni") {
                a.dist = gen::SigmaDist::LogUniform;
            } else {
                std::fprintf(stderr, "unknown --dist %s\n", d.c_str());
                usage(argv[0]);
            }
        } else if (!std::strcmp(argv[i], "--type")) {
            a.type = need("--type")[0];
        } else if (!std::strcmp(argv[i], "--mode")) {
            std::string m = need("--mode");
            if (m == "task") {
                a.mode = rt::Mode::TaskDataflow;
            } else if (m == "forkjoin") {
                a.mode = rt::Mode::ForkJoin;
            } else if (m == "seq") {
                a.mode = rt::Mode::Sequential;
            } else {
                std::fprintf(stderr, "unknown --mode %s\n", m.c_str());
                usage(argv[0]);
            }
        } else if (!std::strcmp(argv[i], "--threads")) {
            a.threads = std::atoi(need("--threads"));
        } else if (!std::strcmp(argv[i], "--seed")) {
            a.seed = static_cast<std::uint64_t>(std::atoll(need("--seed")));
        } else if (!std::strcmp(argv[i], "--r")) {
            a.r = std::atoi(need("--r"));
        } else if (!std::strcmp(argv[i], "--verbose")) {
            a.verbose = true;
        } else if (!std::strcmp(argv[i], "--ranks")) {
            a.ranks = std::atoi(need("--ranks"));
        } else if (!std::strcmp(argv[i], "--grid")) {
            if (std::sscanf(need("--grid"), "%dx%d", &a.gp, &a.gq) != 2) {
                std::fprintf(stderr, "--grid wants PxQ, e.g. 2x2\n");
                usage(argv[0]);
            }
        } else if (!std::strcmp(argv[i], "--jobs")) {
            a.jobs = std::atoi(need("--jobs"));
        } else if (!std::strcmp(argv[i], "--rate")) {
            a.rate = std::atof(need("--rate"));
        } else if (!std::strcmp(argv[i], "--fifo")) {
            a.fifo = true;
        } else if (!std::strcmp(argv[i], "--lookahead")) {
            a.lookahead = std::atoi(need("--lookahead"));
        } else if (!std::strcmp(argv[i], "--precision")) {
            std::string p = need("--precision");
            if (p == "native") {
                a.precision = prec::Precision::Native;
            } else if (p == "float") {
                a.precision = prec::Precision::Float;
            } else if (p == "bf16") {
                a.precision = prec::Precision::Bf16;
            } else if (p == "adaptive") {
                a.precision = prec::Precision::Adaptive;
            } else {
                std::fprintf(stderr, "unknown --precision %s\n", p.c_str());
                usage(argv[0]);
            }
        } else if (!std::strcmp(argv[i], "--comm-plan")) {
            std::string cp = need("--comm-plan");
            if (cp == "auto") {
                a.comm_plan = comm::CommPlan::Auto;
            } else if (cp == "2d") {
                a.comm_plan = comm::CommPlan::Grid2d;
            } else if (cp == "2.5d") {
                a.comm_plan = comm::CommPlan::Grid25d;
            } else {
                std::fprintf(stderr, "unknown --comm-plan %s\n", cp.c_str());
                usage(argv[0]);
            }
        } else if (!std::strcmp(argv[i], "--fault-plan")) {
            a.fault_plan = need("--fault-plan");
            if (a.fault_plan != "off" && a.fault_plan != "drop"
                && a.fault_plan != "delay" && a.fault_plan != "dup"
                && a.fault_plan != "corrupt" && a.fault_plan != "slow"
                && a.fault_plan != "poison" && a.fault_plan != "mix") {
                std::fprintf(stderr, "unknown --fault-plan %s\n",
                             a.fault_plan.c_str());
                usage(argv[0]);
            }
        } else if (!std::strcmp(argv[i], "--fault-seed")) {
            a.fault_seed =
                static_cast<std::uint64_t>(std::atoll(need("--fault-seed")));
            if (a.fault_plan == "off")
                a.fault_plan = "mix";  // a seed alone means "chaos, please"
        } else if (!std::strcmp(argv[i], "--fault-rate")) {
            a.fault_rate = std::atof(need("--fault-rate"));
        } else if (!std::strcmp(argv[i], "--timeout-ms")) {
            a.timeout_ms = std::atof(need("--timeout-ms"));
        } else if (!std::strcmp(argv[i], "--retry-max")) {
            a.retry_max = std::atoi(need("--retry-max"));
        } else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            usage(argv[0]);
        }
    }
    if (a.m == 0)
        a.m = a.n;
    if (a.m < a.n) {
        std::fprintf(stderr, "require m >= n\n");
        std::exit(2);
    }
    if (a.gp == 0) {
        Grid const g = comm::near_square_grid(a.ranks);
        a.gp = g.p;
        a.gq = g.q;
    } else if (a.gp * a.gq != a.ranks) {
        a.ranks = a.gp * a.gq;  // an explicit grid defines the rank count
    }
    return a;
}

/// The executed rung schedule of a precision-ladder run, one line.
void print_ladder(Args const& a, std::vector<prec::Prec> const& rungs,
                  int fallbacks) {
    std::string sched;
    for (auto r : rungs) {
        if (!sched.empty())
            sched += ",";
        sched += prec::prec_name(r);
    }
    std::printf("  precision ladder: %s   rungs %s   fallbacks %d\n",
                prec::precision_name(a.precision), sched.c_str(), fallbacks);
}

template <typename T>
int run_tiled(Args const& a) {
    rt::Engine eng(a.threads, a.mode);
    gen::MatGenOptions opt;
    opt.cond = a.cond;
    opt.dist = a.dist;
    opt.seed = a.seed;

    Timer t_gen;
    auto A = gen::cond_matrix<T>(eng, a.m, a.n, a.nb, opt);
    auto Ad = ref::to_dense(A);
    double const gen_s = t_gen.elapsed();

    TiledMatrix<T> H(a.n, a.n, a.nb);
    Timer t_run;
    int iters = 0, it_qr = 0, it_chol = 0;
    double flops = 0;
    eng.reset_stats();
    double const kflops0 = blas::kernel::flops_performed();

    std::vector<prec::Prec> rungs;
    std::array<double, prec::kNumPrec> prec_flops{};
    int fallbacks = 0;
    if (a.algo == "qdwh") {
        QdwhOptions qo;
        qo.lookahead = a.lookahead;
        qo.precision.request = a.precision;
        auto info = qdwh(eng, A, H, qo);
        iters = info.iterations;
        it_qr = info.it_qr;
        it_chol = info.it_chol;
        flops = info.flops;
        rungs = info.rungs;
        prec_flops = info.kernel_flops_by_prec;
        fallbacks = info.fallbacks;
    } else if (a.algo == "zolo") {
        ZoloOptions zo;
        zo.r = a.r;
        zo.lookahead = a.lookahead;
        zo.precision.request = a.precision;
        auto info = zolo_pd(eng, A, H, zo);
        iters = info.iterations;
        it_qr = info.qr_solves;
        it_chol = info.chol_solves;
        flops = info.flops;
    } else if (a.algo == "svd") {
        auto res = qdwh_svd(eng, A, {});
        double const secs = t_run.elapsed();
        std::printf("algo=svd n=%lld sigma_max=%.6e sigma_min=%.6e time=%.3fs\n",
                    static_cast<long long>(a.n), static_cast<double>(res.sigma.front()),
                    static_cast<double>(res.sigma.back()), secs);
        return 0;
    } else {
        std::fprintf(stderr, "unknown tiled algo %s\n", a.algo.c_str());
        return 2;
    }
    double const secs = t_run.elapsed();
    double const kflops = blas::kernel::flops_performed() - kflops0;

    // The paper's metrics.
    auto U = ref::to_dense(A);
    auto Hd = ref::to_dense(H);
    double const orth =
        ref::orthogonality(U) / std::sqrt(static_cast<double>(a.n));
    auto UH = ref::gemm(Op::NoTrans, Op::NoTrans, T(1), U, Hd);
    double const bwd = ref::diff_fro(UH, Ad) / ref::norm_fro(Ad);

    std::printf("algo=%-6s type=%c m=%lld n=%lld nb=%d cond=%.1e mode=%s "
                "lookahead=%d\n",
                a.algo.c_str(), a.type, static_cast<long long>(a.m),
                static_cast<long long>(a.n), a.nb, a.cond,
                a.mode == rt::Mode::TaskDataflow ? "task"
                : a.mode == rt::Mode::ForkJoin   ? "forkjoin"
                                                 : "seq",
                a.lookahead);
    std::printf("  iterations %d (qr/solves %d, chol %d)   time %.3fs   "
                "%.2f Gflop/s\n",
                iters, it_qr, it_chol, secs, flops / secs / 1e9);
    if (a.precision != prec::Precision::Native && !rungs.empty()) {
        print_ladder(a, rungs, fallbacks);
        std::printf("  kernel flops by rung: double %.3e  float %.3e  "
                    "bf16 %.3e\n",
                    prec_flops[static_cast<std::size_t>(prec::Prec::Double)],
                    prec_flops[static_cast<std::size_t>(prec::Prec::Float)],
                    prec_flops[static_cast<std::size_t>(prec::Prec::Bf16)]);
    }
    std::printf("  kernel flops %.3e   achieved %.2f Gflop/s (measured)\n",
                kflops, secs > 0 ? kflops / secs / 1e9 : 0.0);
    std::printf("  ||I-U'U||/sqrt(n) = %.3e   ||A-UH||/||A|| = %.3e\n", orth,
                bwd);
    if (a.verbose) {
        std::printf("  gen time %.3fs   tasks %llu\n", gen_s,
                    static_cast<unsigned long long>(eng.tasks_executed()));
        if (a.algo == "qdwh") {
            // Measured rate vs the Summit single-node CPU projection for the
            // same problem — how far this host is from the model's testbed.
            auto model = perf::qdwh_perf(perf::MachineModel::summit(1),
                                         perf::Device::Cpu,
                                         perf::Schedule::TaskDataflow, a.n,
                                         a.nb, it_qr, it_chol);
            auto rate = perf::achieved_vs_model(model, kflops, secs);
            std::printf("  model (summit 1-node cpu): %.2f Gflop/s modeled, "
                        "ratio %.3f\n",
                        rate.modeled_gflops, rate.ratio);
        }
    }
    return 0;
}

template <typename T>
int run_dense(Args const& a) {
    rt::Engine eng(a.threads);
    gen::MatGenOptions opt;
    opt.cond = a.cond;
    opt.dist = a.dist;
    opt.seed = a.seed;
    auto Ad = ref::to_dense(gen::cond_matrix<T>(eng, a.m, a.n, a.nb, opt));

    ref::Dense<T> U, H;
    Timer t_run;
    int iters = 0;
    if (a.algo == "newton") {
        if (a.m != a.n) {
            std::fprintf(stderr, "newton requires a square matrix\n");
            return 2;
        }
        auto info = newton_polar(Ad, U, H);
        iters = info.iterations;
    } else {
        svd_polar(Ad, U, H);
    }
    double const secs = t_run.elapsed();
    double const orth =
        ref::orthogonality(U) / std::sqrt(static_cast<double>(a.n));
    auto UH = ref::gemm(Op::NoTrans, Op::NoTrans, T(1), U, H);
    double const bwd = ref::diff_fro(UH, Ad) / ref::norm_fro(Ad);
    std::printf("algo=%-6s type=%c n=%lld cond=%.1e (dense baseline)\n",
                a.algo.c_str(), a.type, static_cast<long long>(a.n), a.cond);
    std::printf("  iterations %d   time %.3fs\n", iters, secs);
    std::printf("  ||I-U'U||/sqrt(n) = %.3e   ||A-UH||/||A|| = %.3e\n", orth,
                bwd);
    return 0;
}

/// Distributed QDWH over virtual ranks: the whole solve runs SPMD inside
/// World::run; afterwards the measured comm-engine counters are printed next
/// to the cost model's collective_volume prediction for the dominant
/// allreduce shape.
template <typename T>
int run_dist(Args const& a) {
    rt::Engine eng(a.threads);
    gen::MatGenOptions opt;
    opt.cond = a.cond;
    opt.dist = a.dist;
    opt.seed = a.seed;
    auto Ad = ref::to_dense(gen::cond_matrix<T>(eng, a.m, a.n, a.nb, opt));

    comm::coll::Config const cfg;
    // Resolve the SUMMA plan for the trailing updates: the chooser costs
    // every c | P for the reduction mode that will run and takes the
    // max_rank_bytes minimizer (--comm-plan 2d / 2.5d restricts it).
    auto const plan = perf::choose_summa_plan(a.ranks, a.m, a.n, a.n, a.nb,
                                              sizeof(T), cfg.deterministic,
                                              a.comm_plan);
    // c == 1 keeps the 2D behavior exactly (including an explicit
    // --grid); c > 1 uses the plan's near-square layer grid.
    comm::ProcGrid3d g3 = plan.c == 1
                              ? comm::ProcGrid3d{a.gp, a.gq, 1}
                              : comm::ProcGrid3d{plan.p, plan.q, plan.c};
    Grid const g = g3.layer();
    comm::World world(a.ranks);
    auto const plan_f = make_fault_plan(a);
    if (plan_f.enabled()) {
        world.set_fault(plan_f, make_retry_config(a));
        std::printf("fault plan: %s\n", plan_f.describe().c_str());
    }

    ref::Dense<T> U(a.m, a.n);
    comm::DistQdwhInfo info;
    prec::PrecisionPolicy pol;
    pol.request = a.precision;
    Timer t_run;
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> A(c, a.m, a.n, a.nb, g);
        A.fill([&](std::int64_t i, std::int64_t j) { return Ad(i, j); });
        auto inf = comm::dist_qdwh(c, g3, A, 1.0 / a.cond, 30, pol);
        auto dense = comm::dist_gather(c, A);
        if (c.rank() == 0) {
            info = inf;
            for (std::int64_t j = 0; j < a.n; ++j)
                for (std::int64_t i = 0; i < a.m; ++i)
                    U(i, j) = dense[static_cast<size_t>(i + j * a.m)];
        }
    });
    double const secs = t_run.elapsed();

    double const orth =
        ref::orthogonality(U) / std::sqrt(static_cast<double>(a.n));
    auto UhA = ref::gemm(Op::ConjTrans, Op::NoTrans, T(1), U, Ad);
    ref::Dense<T> Hd(a.n, a.n);
    for (std::int64_t j = 0; j < a.n; ++j)
        for (std::int64_t i = 0; i < a.n; ++i)
            Hd(i, j) = T(0.5) * (UhA(i, j) + conj_val(UhA(j, i)));
    auto UH = ref::gemm(Op::NoTrans, Op::NoTrans, T(1), U, Hd);
    double const bwd = ref::diff_fro(UH, Ad) / ref::norm_fro(Ad);

    std::printf("algo=dqdwh type=%c m=%lld n=%lld nb=%d cond=%.1e ranks=%d "
                "grid=%dx%dx%d plan=%s\n",
                a.type, static_cast<long long>(a.m),
                static_cast<long long>(a.n), a.nb, a.cond, a.ranks, g3.p,
                g3.q, g3.c, comm::comm_plan_name(a.comm_plan));
    std::printf("  summa model: chosen %dx%dx%d max_rank_bytes %llu "
                "(2d %llu)  stage %llu  fiber %llu  reduce %llu\n",
                g3.p, g3.q, g3.c,
                static_cast<unsigned long long>(
                    g3.c == 1 ? plan.vol2d.total.max_rank_bytes
                              : plan.vol.total.max_rank_bytes),
                static_cast<unsigned long long>(
                    plan.vol2d.total.max_rank_bytes),
                static_cast<unsigned long long>(plan.vol.stage_bytes),
                static_cast<unsigned long long>(plan.vol.fiber_bytes),
                static_cast<unsigned long long>(plan.vol.reduce_bytes));
    std::printf("  iterations %d   ||A||_2 est %.3e   time %.3fs\n",
                info.iterations, info.norm2_estimate, secs);
    if (a.precision != prec::Precision::Native)
        print_ladder(a, info.rungs, 0);  // no fallback in the dist driver
    std::printf("  ||I-U'U||/sqrt(n) = %.3e   ||A-UH||/||A|| = %.3e\n", orth,
                bwd);
    auto rep = perf::comm_report(world);
    std::printf("%s", rep.format().c_str());
    if (world.fault())
        std::printf("%s", perf::fault_report(world).format().c_str());
    if (a.verbose) {
        // Model check: predicted traffic of one n-element allreduce (the
        // norm-estimator / convergence shape) under the selected algorithm.
        auto algo = comm::coll::resolve_allreduce(
            cfg, static_cast<size_t>(a.n) * sizeof(T));
        auto v = perf::collective_volume(perf::CollKind::Allreduce, algo,
                                         a.ranks, static_cast<size_t>(a.n),
                                         sizeof(T));
        std::printf("  model: one %s allreduce(n) = %llu msgs, %llu bytes, "
                    "max/rank sends %llu\n",
                    comm::coll::algo_name(algo),
                    static_cast<unsigned long long>(v.messages),
                    static_cast<unsigned long long>(v.bytes),
                    static_cast<unsigned long long>(v.max_rank_sends));
    }
    return 0;
}

/// Batched service mode: a mixed workload through src/service/, reporting
/// jobs/sec and per-QoS-class latency percentiles.
int run_serve(Args const& a) {
    rt::Engine eng(a.threads);
    auto const plan_f = make_fault_plan(a);
    svc::ServiceOptions so;
    so.fifo = a.fifo;
    if (plan_f.enabled()) {
        // Chaos workloads get a real retry budget so the resilience stats
        // show recovery, not just failure.
        so.retry.max_attempts = 3;
        std::printf("fault plan: %s\n", plan_f.describe().c_str());
    }
    svc::PolarService service(eng, so);

    // Under a fault plan the Latency slot (every 4th job) becomes a
    // distributed QDWH carrying the chaos plan, so the batch exercises the
    // comm recovery path and the service's retry/failover machinery.
    svc::JobKind const kinds[] = {plan_f.enabled() ? svc::JobKind::DistQdwh
                                                   : svc::JobKind::Qdwh,
                                  svc::JobKind::Posv, svc::JobKind::Geqrf,
                                  svc::JobKind::ZoloPd};
    CounterRng arrivals(a.seed ^ 0x5E17E);
    std::vector<svc::JobHandle> handles;
    handles.reserve(static_cast<size_t>(a.jobs));
    double const t0 = wall_time();
    double t_arr = 0;
    for (int i = 0; i < a.jobs; ++i) {
        svc::JobSpec s;
        s.kind = kinds[i % 4];
        s.cls = (i % 4 == 0) ? svc::JobClass::Latency : svc::JobClass::Bulk;
        s.type = a.type;
        s.n = a.n;
        s.m = s.kind == svc::JobKind::Posv ? 1 : a.m;
        s.nb = a.nb;
        s.cond = a.cond;
        s.seed = a.seed + static_cast<std::uint64_t>(i);
        if (s.kind == svc::JobKind::ZoloPd)
            s.r = a.r;
        if (s.kind == svc::JobKind::DistQdwh) {
            s.ranks = std::min(a.ranks, 4);
            s.fault = plan_f;
            s.fault.seed = a.fault_seed + static_cast<std::uint64_t>(i);
            s.timeout_ms = a.timeout_ms;
            s.retry_max = a.retry_max;
        }
        s.lookahead = a.lookahead;
        if (a.rate > 0) {
            double const u = arrivals.uniform(static_cast<std::uint64_t>(i));
            t_arr += -std::log1p(-std::min(u, 0.999999)) / a.rate;
            while (wall_time() - t0 < t_arr)
                std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        handles.push_back(service.submit(s));
    }
    service.wait_all();

    std::vector<double> lat[2];
    double t_last = t0;
    std::uint64_t failed = 0;
    for (auto const& h : handles) {
        auto const& res = h.result();
        t_last = std::max(t_last, res.t_end);
        lat[res.cls == svc::JobClass::Latency ? 0 : 1].push_back(
            res.latency());
        if (!res.ok()) {
            ++failed;
            if (a.verbose)
                std::printf("  job %llu %s/%s failed: %s\n",
                            static_cast<unsigned long long>(res.id),
                            svc::job_kind_name(res.kind),
                            svc::job_class_name(res.cls), res.error.c_str());
        }
    }
    auto pct = [](std::vector<double> v, double p) {
        if (v.empty())
            return 0.0;
        std::sort(v.begin(), v.end());
        return v[static_cast<size_t>(p * (static_cast<double>(v.size()) - 1))];
    };
    double const wall = t_last - t0;
    auto const st = service.stats();
    std::printf("algo=serve type=%c n=%lld nb=%d jobs=%d threads=%d "
                "sched=%s rate=%s\n",
                a.type, static_cast<long long>(a.n), a.nb, a.jobs, a.threads,
                a.fifo ? "fifo" : "qos",
                a.rate > 0 ? std::to_string(a.rate).c_str() : "burst");
    std::printf("  %.0f jobs/s   wall %.3fs   failed %llu/%llu   "
                "workspaces %zu\n",
                wall > 0 ? a.jobs / wall : 0.0, wall,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(st.completed),
                st.workspaces_created);
    std::printf("  latency-class p50 %.2fms p99 %.2fms   bulk p50 %.2fms "
                "p99 %.2fms\n",
                pct(lat[0], 0.5) * 1e3, pct(lat[0], 0.99) * 1e3,
                pct(lat[1], 0.5) * 1e3, pct(lat[1], 0.99) * 1e3);
    if (plan_f.enabled() || st.retried_jobs > 0) {
        auto const h = service.health();
        std::printf("  resilience: retried %llu   recovered %llu   "
                    "failed-over %llu   heartbeats %llu\n",
                    static_cast<unsigned long long>(st.retried_jobs),
                    static_cast<unsigned long long>(st.recovered_jobs),
                    static_cast<unsigned long long>(st.failed_over),
                    static_cast<unsigned long long>(h.heartbeats));
    }
    return failed == 0 ? 0 : 1;
}

template <typename T>
int dispatch(Args const& a) {
    if (a.algo == "newton" || a.algo == "svdpd")
        return run_dense<T>(a);
    if (a.algo == "dqdwh")
        return run_dist<T>(a);
    return run_tiled<T>(a);
}

}  // namespace

int main(int argc, char** argv) {
    auto const a = parse(argc, argv);
    try {
        if (a.algo == "serve")
            return run_serve(a);
        switch (a.type) {
            case 's': return dispatch<float>(a);
            case 'd': return dispatch<double>(a);
            case 'c': return dispatch<std::complex<float>>(a);
            case 'z': return dispatch<std::complex<double>>(a);
            default:
                std::fprintf(stderr, "unknown type '%c'\n", a.type);
                return 2;
        }
    } catch (std::exception const& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
