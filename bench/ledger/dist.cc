// polar-dist-p2: comm::dist_qdwh over P = 2 virtual ranks, the only
// workload that communicates. Each solve is timed on rank 0 between two
// barriers; the warm-up's gathered U is checked with ref:: against the
// input, and every later solve must reproduce each rank's warm-up tiles.
//
// P = 2, not 4: every rank is a busy thread, and on a few shared cores four
// of them in lockstep time the host's scheduler more than the solver. nb =
// 128, not 64: a quarter of the messages (1154 against 4514 per solve at
// the same solve time), so fewer receives block and wait for the host to
// wake their rank.

#include <cmath>
#include <limits>
#include <memory>

#include "comm/dist.hh"
#include "comm/dist_qdwh.hh"
#include "gen/matgen.hh"
#include "ledger.hh"
#include "perf/cost_model.hh"
#include "perf/sched_report.hh"

namespace tbp::ledger {
namespace {

constexpr int kRanks = 2;
constexpr std::int64_t kN = 768;
constexpr int kNb = 128;
constexpr double kCond = 1e12;

/// Per-rank copies of the local tiles, in (j, i) order of ownership.
using RankTiles = std::vector<std::vector<double>>;

RankTiles local_tiles(comm::DistMatrix<double>& A) {
    RankTiles out;
    for (int j = 0; j < A.nt(); ++j)
        for (int i = 0; i < A.mt(); ++i)
            if (A.is_local(i, j)) {
                auto t = A.tile(i, j);
                out.emplace_back(t.data(),
                                 t.data() + static_cast<std::size_t>(t.mb()) * t.nb());
            }
    return out;
}

struct DistSetup {
    std::unique_ptr<comm::World> world;
    ref::Dense<double> Ad;
    comm::ProcGrid3d g3;
    double setup_s = 0, gen_s = 0;
};

DistSetup dist_setup(Ledger& L) {
    Tracer::Span span(L.tracer, "gen", "setup");
    DistSetup s;
    std::vector<double> total, gen;
    for (double const t_start = wall_time();
         total.size() < kSetupReps || wall_time() - t_start < kSetupSeconds;) {
        s.world.reset();
        double const t0 = wall_time();
        s.world = std::make_unique<comm::World>(kRanks);
        {
            rt::Engine eng(L.cfg.threads);
            gen::MatGenOptions g;
            g.cond = kCond;
            g.seed = L.cfg.seed;
            double const tg = wall_time();
            s.Ad = ref::to_dense(gen::cond_matrix<double>(eng, kN, kN, kNb, g));
            gen.push_back(wall_time() - tg);
        }
        // Auto SUMMA plan: the bottleneck-driven 2D vs 2.5D choice.
        auto const plan = perf::choose_summa_plan(
            kRanks, kN, kN, kN, kNb, sizeof(double),
            s.world->coll_config().deterministic, comm::CommPlan::Auto);
        s.g3 = comm::ProcGrid3d{plan.p, plan.q, plan.c};
        total.push_back(wall_time() - t0);
    }
    s.setup_s = median(total);
    s.gen_s = median(gen);
    return s;
}

/// Timings of one World::run of `count` solves.
struct DistRun {
    std::vector<double> secs;   ///< rank-0 wall between the barriers
    std::vector<double> flops;  ///< kernel-counter flops per solve
    comm::DistQdwhInfo info;
    bool ok = true;             ///< converged and (if checked) repeated
};

class DistSolver {
public:
    explicit DistSolver(DistSetup& s) : s_(s), ref_(kRanks) {}

    /// `count` solves in one World::run. The first call keeps each rank's
    /// output tiles (and rank 0's gathered U) as the reference later calls
    /// must reproduce bit for bit. `parent` != 0 records per-rank spans.
    DistRun run(int count, std::uint64_t parent, Tracer& tracer) {
        DistRun out;
        bool const first = ref_[0].empty();
        std::vector<char> ok(kRanks, 1);
        Grid const g = s_.g3.layer();
        s_.world->run([&](comm::Communicator& c) {
            comm::DistMatrix<double> A(c, kN, kN, kNb, g);
            for (int k = 0; k < count; ++k) {
                A.fill([&](std::int64_t i, std::int64_t j) { return s_.Ad(i, j); });
                double const f0 = blas::kernel::flops_performed();
                c.barrier();
                double const t0 = wall_time();
                auto const inf = comm::dist_qdwh(c, s_.g3, A, 1.0 / kCond);
                double const t1 = wall_time();
                c.barrier();
                if (parent != 0)
                    tracer.add("comm", "dist_qdwh", t0, t1, 100 + c.rank(),
                               parent);
                auto const r = static_cast<std::size_t>(c.rank());
                bool const converged =
                    inf.iterations < 30
                    || inf.conv < std::cbrt(5 * std::numeric_limits<double>::epsilon());
                if (first)
                    ref_[r] = local_tiles(A);
                else if (local_tiles(A) != ref_[r])
                    ok[r] = 0;
                ok[r] = ok[r] && converged;
                if (c.rank() == 0) {
                    out.secs.push_back(wall_time() - t0);
                    out.flops.push_back(blas::kernel::flops_performed() - f0);
                    out.info = inf;
                }
            }
            if (first) {
                auto dense = comm::dist_gather(c, A);
                if (c.rank() == 0)
                    U_.assign(dense.begin(), dense.end());
            }
        });
        for (char x : ok)
            out.ok = out.ok && x;
        return out;
    }

    std::vector<double> const& gathered_u() const { return U_; }

private:
    DistSetup& s_;
    std::vector<RankTiles> ref_;
    std::vector<double> U_;
};

/// Warm-up accuracy: U from the gathered warm-up, H = sym(U^H A) densely.
bool check_accuracy(Ledger& L, DistSetup const& s, std::vector<double> const& u) {
    Tracer::Span span(L.tracer, "ref", "accuracy");
    ref::Dense<double> U(kN, kN);
    std::copy(u.begin(), u.end(), U.data());
    auto const UtA = ref::gemm(Op::ConjTrans, Op::NoTrans, 1.0, U, s.Ad);
    ref::Dense<double> H(kN, kN);
    for (std::int64_t j = 0; j < kN; ++j)
        for (std::int64_t i = 0; i < kN; ++i)
            H(i, j) = 0.5 * (UtA(i, j) + UtA(j, i));
    auto const acc = polar_accuracy(s.Ad, U, H);
    L.record.field("orth", acc.orth).field("backward", acc.backward);
    double const eps = std::numeric_limits<double>::epsilon();
    return acc.orth <= 50 * eps && acc.backward <= 50 * eps;
}

/// QR / Cholesky iteration split of a run of `iterations` from l0: the same
/// weight recurrence dist_qdwh follows.
std::pair<int, int> iteration_split(int iterations) {
    int qr = 0;
    double li = 1.0 / kCond;
    for (int k = 0; k < iterations; ++k) {
        auto const w = prec::qdwh_weights(li);
        qr += w.qr ? 1 : 0;
        li = w.li_next;
    }
    return {qr, iterations - qr};
}

}  // namespace

void run_polar_dist_p2(Ledger& L) {
    auto s = dist_setup(L);
    DistSolver solver(s);
    DistRun warm;
    {
        Tracer::Span span(L.tracer, "comm", "warm-up");
        warm = solver.run(1, 0, L.tracer);
    }
    L.record.field("iterations", warm.info.iterations)
        .field("grid_p", s.g3.p)
        .field("grid_q", s.g3.q)
        .field("grid_c", s.g3.c);
    bool const accuracy_ok = warm.ok && check_accuracy(L, s, solver.gathered_u());
    L.verify(accuracy_ok);
    L.record.field("accuracy_ok", accuracy_ok);

    bool repeat_ok = true;
    auto timed = [&](int count) {
        Tracer::Span span(L.tracer, "comm", "solves");
        auto r = solver.run(count, 0, L.tracer);
        for (int k = 0; k < count; ++k)
            L.verify(r.ok);
        repeat_ok = repeat_ok && r.ok;
        return r;
    };

    if (!L.cfg.traced) {
        // One World::run per solve, so the window ends on time however the
        // host's speed drifts.
        std::vector<double> t;
        for (double const t0 = wall_time();
             t.size() < 5 || wall_time() - t0 < L.cfg.seconds;)
            t.push_back(timed(1).secs[0]);
        L.metric("op_ms", median(t) * 1e3, "ms");
        L.metric("setup_s", s.setup_s, "s");
        L.record.field("repeat_ok", repeat_ok);
        return;
    }

    L.metric("setup.warmup_s", warm.secs[0], "s");
    L.metric("gen.input_s", s.gen_s, "s");
    auto const untraced = timed(2);
    double const solve_s = median(untraced.secs);

    // One traced solve per World::run, so perf::comm_report covers exactly
    // that solve's traffic (fill and the tile check are local).
    std::vector<double> traced_secs;
    perf::CommReport rep;
    for (int k = 0; k < 2; ++k) {
        Tracer::Span span(L.tracer, "comm", "dist_qdwh (traced)");
        auto const r = solver.run(1, span.id(), L.tracer);
        L.verify(r.ok);
        repeat_ok = repeat_ok && r.ok;
        traced_secs.push_back(r.secs[0]);
        rep = perf::comm_report(*s.world);
    }
    L.metric("trace.overhead_frac", median(traced_secs) / solve_s - 1, "ratio");
    L.metric("comm.messages", static_cast<double>(rep.total.sends), "count");
    L.metric("comm.bytes", static_cast<double>(rep.total.bytes_sent), "B");
    L.metric("comm.max_rank_bytes", static_cast<double>(rep.max_rank_bytes()), "B");
    L.metric("comm.max_rank_sends", static_cast<double>(rep.max_rank_sends()),
             "count");
    L.metric("comm.collectives", static_cast<double>(rep.total.collectives),
             "count");
    L.metric("comm.wait_rank_s", rep.total.wait_seconds, "s");
    L.metric("comm.wait_share", rep.total.wait_seconds / (kRanks * solve_s),
             "ratio");

    // Strong scaling against one P = 1 solve of the same input.
    double t1 = 0;
    {
        Tracer::Span span(L.tracer, "comm", "dist_qdwh P=1");
        comm::World one(1);
        one.run([&](comm::Communicator& c) {
            comm::DistMatrix<double> A(c, kN, kN, kNb, Grid{1, 1});
            A.fill([&](std::int64_t i, std::int64_t j) { return s.Ad(i, j); });
            double const t0 = wall_time();
            (void)comm::dist_qdwh(c, Grid{1, 1}, A, 1.0 / kCond);
            t1 = wall_time() - t0;
        });
    }
    L.metric("comm.p1_solve_s", t1, "s");
    L.metric("comm.strong_eff", t1 / (kRanks * solve_s), "ratio");

    auto const [qr, chol] = iteration_split(untraced.info.iterations);
    double const n3 = static_cast<double>(kN) * kN * kN;
    // dist_qdwh runs no condition estimate and no H stage.
    double const model = flops::qdwh_model(static_cast<double>(kN), qr, chol)
                         - (4.0 / 3.0 + 2.0) * n3;
    double const kernel_gflops = untraced.flops.back() / solve_s / 1e9;
    L.metric("core.it_qr", qr, "count");
    L.metric("core.it_chol", chol, "count");
    L.metric("core.model_gflops", model / solve_s / 1e9, "GF/s");
    L.metric("core.kernel_gflops", kernel_gflops, "GF/s");
    L.metric("core.efficiency",
             kernel_gflops / (L.value("kernel.dgemm_gflops") * kRanks), "ratio");
    L.record.field("repeat_ok", repeat_ok);
}

}  // namespace tbp::ledger
