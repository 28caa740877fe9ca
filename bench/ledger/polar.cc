// Shared-memory QDWH workloads: polar-1024 (native double, the gemm-bound
// case) and polar-512-ladder (the adaptive precision ladder). Both solve one
// seeded input repeatedly through qdwh_status on a TaskDataflow engine of T
// workers; the warm-up solve is checked against its accuracy contract with
// ref::, and every later solve must reproduce the warm-up's bytes.

#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>

#include "core/qdwh.hh"
#include "gen/matgen.hh"
#include "ledger.hh"
#include "perf/prec_model.hh"
#include "runtime/trace_analysis.hh"

namespace tbp::ledger {

Accuracy polar_accuracy(ref::Dense<double> const& A,
                        ref::Dense<double> const& U,
                        ref::Dense<double> const& H) {
    // Both products run in ref::gemm's contiguous dot-product form
    // (ConjTrans x NoTrans), the orthogonality check on a second thread.
    auto orth = std::async(std::launch::async, [&] {
        return ref::orthogonality(U) / std::sqrt(static_cast<double>(U.n()));
    });
    ref::Dense<double> Ut(U.n(), U.m());
    for (std::int64_t j = 0; j < U.n(); ++j)
        for (std::int64_t i = 0; i < U.m(); ++i)
            Ut(j, i) = U(i, j);
    auto const UH = ref::gemm(Op::ConjTrans, Op::NoTrans, 1.0, Ut, H);
    Accuracy acc;
    acc.backward = ref::diff_fro(UH, A) / ref::norm_fro(A);
    acc.orth = orth.get();
    return acc;
}

namespace {

double const kEps = std::numeric_limits<double>::epsilon();

struct PolarSpec {
    std::int64_t n;
    int nb;
    double cond;
    prec::Precision precision;
    double max_backward;  ///< accuracy contract (orth is always <= 50 eps)
};

PolarSpec const kPolar1024{1024, 64, 1e12, prec::Precision::Native, 50 * kEps};
PolarSpec const kPolar512Ladder{512, 64, 1e12, prec::Precision::Adaptive,
                                1e-2};

template <typename T>
bool same_bytes(TiledMatrix<T> const& a, TiledMatrix<T> const& b) {
    for (int j = 0; j < a.nt(); ++j)
        for (int i = 0; i < a.mt(); ++i) {
            auto const x = a.tile(i, j), y = b.tile(i, j);
            if (std::memcmp(x.data(), y.data(),
                            sizeof(T) * static_cast<std::size_t>(x.mb())
                                * static_cast<std::size_t>(x.nb()))
                != 0)
                return false;
        }
    return true;
}

/// One seeded input on its engine, with its set-up timings.
struct PolarSetup {
    std::unique_ptr<rt::Engine> eng;
    TiledMatrix<double> A0;
    ref::Dense<double> Ad;
    double setup_s = 0;  ///< median engine + input + dense-copy time
    double gen_s = 0;    ///< median input-generation share of it
};

PolarSetup polar_setup(Ledger& L, PolarSpec const& spec) {
    Tracer::Span span(L.tracer, "gen", "setup");
    PolarSetup s;
    std::vector<double> total, gen;
    for (double const t_start = wall_time();
         total.size() < kSetupReps || wall_time() - t_start < kSetupSeconds;) {
        s.eng.reset();
        double const t0 = wall_time();
        s.eng = std::make_unique<rt::Engine>(L.cfg.threads);
        gen::MatGenOptions g;
        g.cond = spec.cond;
        g.seed = L.cfg.seed;
        double const tg = wall_time();
        s.A0 = gen::cond_matrix<double>(*s.eng, spec.n, spec.n, spec.nb, g);
        gen.push_back(wall_time() - tg);
        s.Ad = ref::to_dense(s.A0);
        total.push_back(wall_time() - t0);
    }
    s.setup_s = median(total);
    s.gen_s = median(gen);
    return s;
}

/// The solver under test plus the warm-up's output bytes every later solve
/// must reproduce.
struct PolarRunner {
    PolarSetup& in;
    QdwhOptions qo;
    TiledMatrix<double> A, H, U_ref, H_ref;

    PolarRunner(PolarSetup& in, prec::Precision p)
        : in(in),
          A(in.A0.row_tile_sizes(), in.A0.col_tile_sizes()),
          H(in.A0.col_tile_sizes(), in.A0.col_tile_sizes()) {
        qo.precision.request = p;
    }

    /// Restore A from the input (untimed), then time one qdwh_status call.
    double solve(Ledger& L, QdwhInfo& info, Status& st) {
        Tracer::Span solve(L.tracer, "ledger", "solve");
        la::copy(*in.eng, in.A0, A);
        in.eng->wait();
        Tracer::Span span(L.tracer, "core", "qdwh_status");
        double const t0 = wall_time();
        st = qdwh_status(*in.eng, A, H, info, qo);
        return wall_time() - t0;
    }

    /// Warm-up: solve, check the accuracy contract against the input with
    /// ref::, keep the output bytes. Returns the warm-up seconds.
    double warm_up(Ledger& L, double max_backward, QdwhInfo& info) {
        Status st = Status::InternalError;
        double const secs = solve(L, info, st);
        U_ref = A.clone();
        H_ref = H.clone();
        bool ok = st == Status::Ok;
        std::string const p = prec::precision_name(qo.precision.request);
        std::string rungs;
        for (auto r : info.rungs)
            rungs += std::string(rungs.empty() ? "" : ",") + prec::prec_name(r);
        L.record.field(p + "_it_qr", info.it_qr)
            .field(p + "_it_chol", info.it_chol)
            .field(p + "_rungs", rungs);
        if (ok) {
            Tracer::Span span(L.tracer, "ref", "accuracy");
            auto const acc =
                polar_accuracy(in.Ad, ref::to_dense(A), ref::to_dense(H));
            ok = acc.orth <= 50 * kEps && acc.backward <= max_backward;
            L.record.field(p + "_orth", acc.orth).field(p + "_backward", acc.backward);
        }
        L.verify(ok);
        accuracy_ok = accuracy_ok && ok;
        return secs;
    }

    /// One timed solve whose bytes must equal the warm-up's.
    double timed(Ledger& L, QdwhInfo& info) {
        Status st = Status::InternalError;
        double const secs = solve(L, info, st);
        bool const ok =
            st == Status::Ok && same_bytes(A, U_ref) && same_bytes(H, H_ref);
        L.verify(ok);
        repeat_ok = repeat_ok && ok;
        return secs;
    }

    bool accuracy_ok = true;
    bool repeat_ok = true;
};

/// Solves that fit in `seconds` at `per_solve` each, at least `lo`.
int solve_count(double seconds, double per_solve, int lo) {
    return std::max(lo, static_cast<int>(std::lround(
                            seconds / std::max(per_solve, 1e-6))));
}

/// Timed solves for the measured window, at least 5; op_ms is their median.
void end_to_end(Ledger& L, PolarSetup& in, PolarRunner& run) {
    std::vector<double> t;
    QdwhInfo info;
    for (double const t0 = wall_time();
         t.size() < 5 || wall_time() - t0 < L.cfg.seconds;)
        t.push_back(run.timed(L, info));
    L.metric("op_ms", median(t) * 1e3, "ms");
    L.metric("setup_s", in.setup_s, "s");
}

/// Engine-trace view of one traced solve.
struct TracedSolve {
    double wall = 0;
    rt::DagStats dag;
    rt::Engine::SchedStats sched;
    double busy = 0, makespan = 0;
    double update = 0, panel = 0, convert = 0, aux = 0;
};

TracedSolve traced_solve(Ledger& L, PolarRunner& run, QdwhInfo& info) {
    auto& eng = *run.in.eng;
    la::copy(eng, run.in.A0, run.A);
    eng.wait();
    eng.clear_trace();
    eng.reset_stats();
    eng.set_trace(true);
    TracedSolve ts;
    std::uint64_t span_id = 0;
    Status st = Status::InternalError;
    {
        Tracer::Span solve(L.tracer, "ledger", "solve (traced)");
        Tracer::Span span(L.tracer, "core", "qdwh_status");
        span_id = span.id();
        double const t0 = wall_time();
        st = qdwh_status(eng, run.A, run.H, info, run.qo);
        ts.wall = wall_time() - t0;
    }
    eng.set_trace(false);
    L.verify(st == Status::Ok && same_bytes(run.A, run.U_ref)
             && same_bytes(run.H, run.H_ref));
    auto const& trace = eng.trace();
    L.tracer.add_tasks(trace, span_id);
    ts.dag = rt::analyze(trace);
    ts.sched = eng.sched_stats();
    ts.makespan = ts.dag.measured_makespan;
    for (auto const& r : trace) {
        double const d = r.t_end - r.t_start;
        ts.busy += d;
        auto const& nm = r.name;
        if (nm == "gemm" || nm == "herk" || nm == "trsm_gemm" || nm == "unmqr"
            || nm == "tsmqr" || nm == "ttmqr")
            ts.update += d;
        else if (nm == "geqrt" || nm == "tsqrt" || nm == "ttqrt"
                 || nm == "potrf" || nm == "trsm")
            ts.panel += d;
        else
            ts.aux += d;
        if (nm == "convert")
            ts.convert += d;
    }
    eng.clear_trace();
    return ts;
}

double mean_of(std::vector<TracedSolve> const& v, double TracedSolve::*f) {
    double s = 0;
    for (auto const& x : v)
        s += x.*f;
    return s / static_cast<double>(v.size());
}

/// Per-layer metrics of a traced run: untraced solves (for the trace
/// overhead and the achieved rates) and traced solves (for the task split).
/// `untraced` holds the untraced solve seconds of the workload's solver.
void per_layer(Ledger& L, PolarSpec const& spec, PolarSetup& in,
               PolarRunner& run, std::vector<double> const& untraced,
               QdwhInfo const& info, double flops_per_solve) {
    std::vector<TracedSolve> ts;
    QdwhInfo tinfo;
    for (int k = 0; k < 2; ++k)
        ts.push_back(traced_solve(L, run, tinfo));
    std::vector<double> traced_wall;
    for (auto const& x : ts)
        traced_wall.push_back(x.wall);
    double const solve_s = median(untraced);
    int const T = L.cfg.threads;
    auto const& last = ts.back();

    L.metric("gen.input_s", in.gen_s, "s");
    L.metric("trace.overhead_frac", median(traced_wall) / solve_s - 1, "ratio");
    L.metric("runtime.tasks", static_cast<double>(last.dag.tasks), "count");
    L.metric("runtime.utilization",
             mean_of(ts, &TracedSolve::busy) / (T * mean_of(ts, &TracedSolve::makespan)),
             "ratio");
    L.metric("runtime.idle_s",
             T * mean_of(ts, &TracedSolve::makespan) - mean_of(ts, &TracedSolve::busy),
             "s");
    L.metric("runtime.critical_path_s", last.dag.critical_path, "s");
    L.metric("runtime.avg_parallelism", last.dag.avg_parallelism, "ratio");
    L.metric("runtime.steals", static_cast<double>(last.sched.steals), "count");
    L.metric("runtime.sleeps", static_cast<double>(last.sched.sleeps), "count");
    L.metric("runtime.coverage",
             mean_of(ts, &TracedSolve::makespan) / mean_of(ts, &TracedSolve::wall),
             "ratio");
    L.metric("core.it_qr", info.it_qr, "count");
    L.metric("core.it_chol", info.it_chol, "count");
    double const n = static_cast<double>(spec.n);
    L.metric("core.model_gflops",
             flops::qdwh_model_structured(n, info.it_qr, info.it_chol) / solve_s
                 / 1e9,
             "GF/s");
    double const kernel_gflops = flops_per_solve / solve_s / 1e9;
    L.metric("core.kernel_gflops", kernel_gflops, "GF/s");
    L.metric("core.efficiency",
             kernel_gflops / (L.value("kernel.dgemm_gflops") * T), "ratio");
    L.metric("core.update_s", mean_of(ts, &TracedSolve::update), "s");
    L.metric("core.panel_s", mean_of(ts, &TracedSolve::panel), "s");
    L.metric("core.aux_s", mean_of(ts, &TracedSolve::aux), "s");
    if (spec.precision != prec::Precision::Native)
        L.metric("ladder.convert_s", mean_of(ts, &TracedSolve::convert), "s");
}

/// Untraced timed solves for a traced run, with the kernel-counter flops of
/// one solve (deterministic, so any solve's delta serves).
std::vector<double> untraced_solves(Ledger& L, PolarRunner& run, int count,
                                    double& flops_per_solve) {
    std::vector<double> t;
    QdwhInfo info;
    for (int k = 0; k < count; ++k) {
        double const f0 = blas::kernel::flops_performed();
        t.push_back(run.timed(L, info));
        flops_per_solve = blas::kernel::flops_performed() - f0;
    }
    return t;
}

void finish_record(Ledger& L, PolarRunner const& run) {
    L.record.field("accuracy_ok", run.accuracy_ok)
        .field("repeat_ok", run.repeat_ok);
}

}  // namespace

void run_polar_1024(Ledger& L) {
    auto const& spec = kPolar1024;
    auto in = polar_setup(L, spec);
    PolarRunner run(in, spec.precision);
    QdwhInfo info;
    double const warm = run.warm_up(L, spec.max_backward, info);
    if (!L.cfg.traced) {
        end_to_end(L, in, run);
    } else {
        L.metric("setup.warmup_s", warm, "s");
        double flops = 0;
        auto const t = untraced_solves(L, run, 2, flops);
        per_layer(L, spec, in, run, t, info, flops);
    }
    finish_record(L, run);
}

void run_polar_512_ladder(Ledger& L) {
    auto const& spec = kPolar512Ladder;
    auto in = polar_setup(L, spec);
    PolarRunner run(in, spec.precision);
    QdwhInfo info;
    double const warm = run.warm_up(L, spec.max_backward, info);
    if (!L.cfg.traced) {
        end_to_end(L, in, run);
        finish_record(L, run);
        return;
    }
    L.metric("setup.warmup_s", warm, "s");
    // Adaptive vs native on the same input, alternating which runs first so
    // drift in the host's speed falls on both sides alike.
    PolarRunner native(in, prec::Precision::Native);
    QdwhInfo ninfo;
    double const nwarm = native.warm_up(L, kPolar1024.max_backward, ninfo);
    int const pairs = solve_count(0.5 * L.cfg.seconds, warm + nwarm, 3);
    std::vector<double> ta, tn;
    double flops = 0;
    QdwhInfo sink;
    auto adaptive_solve = [&] {
        double const f0 = blas::kernel::flops_performed();
        ta.push_back(run.timed(L, sink));
        flops = blas::kernel::flops_performed() - f0;
    };
    auto native_solve = [&] { tn.push_back(native.timed(L, sink)); };
    for (int k = 0; k < pairs; ++k) {
        if (k % 2 == 0) {
            adaptive_solve();
            native_solve();
        } else {
            native_solve();
            adaptive_solve();
        }
    }
    per_layer(L, spec, in, run, ta, info, flops);

    auto const cols = TiledMatrix<double>::chop(spec.n, spec.nb);
    auto projected = [&](QdwhInfo const& i) {
        return perf::qdwh_prec_time_model(cols, cols, i.rungs, i.it_qr, true,
                                          true, fma_flops<double>() / 2.0,
                                          prec::Prec::Double);
    };
    auto bucket = [&](prec::Prec p) {
        return info.kernel_flops_by_prec[static_cast<std::size_t>(p)];
    };
    L.metric("ladder.native_solve_s", median(tn), "s");
    L.metric("ladder.speedup", median(tn) / median(ta), "ratio");
    L.metric("ladder.projected_speedup", projected(ninfo) / projected(info),
             "ratio");
    L.metric("ladder.flops_double", bucket(prec::Prec::Double), "flop");
    L.metric("ladder.flops_float", bucket(prec::Prec::Float), "flop");
    L.metric("ladder.flops_bf16", bucket(prec::Prec::Bf16), "flop");
    L.metric("ladder.fallbacks", info.fallbacks, "count");
    finish_record(L, run);
    L.record.field("native_accuracy_ok", native.accuracy_ok)
        .field("native_repeat_ok", native.repeat_ok);
}

}  // namespace tbp::ledger
