// Comm/compute integration: the default collectives must reproduce the
// all-Linear collective oracle bit-for-bit — same kernels, same values, same
// combine order — for every scalar type and a sweep of process grids, while
// the traffic counters stay leak-free.

#include <gtest/gtest.h>

#include <complex>
#include <cstring>

#include "comm/dist_qdwh.hh"
#include "comm/dist_qr.hh"
#include "gen/matgen.hh"
#include "perf/sched_report.hh"
#include "ref/dense.hh"
#include "test_util.hh"

using namespace tbp;

namespace {

std::vector<std::pair<int, int>> const kGrids = {
    {1, 1}, {2, 1}, {3, 1}, {2, 2}, {4, 2}};  // P = 1, 2, 3, 4, 8

/// Replicated grids: layer 0's own SUMMA steps run through the same
/// pipelined step loop as the 2D grids.
std::vector<comm::ProcGrid3d> const kGrids25 = {{2, 1, 2}, {2, 2, 2}};

comm::coll::Config engine_cfg() { return comm::coll::Config{}; }

/// The reference oracle: every collective on its Linear path.
comm::coll::Config linear_cfg() {
    using comm::coll::Algo;
    comm::coll::Config cfg;
    cfg.bcast = cfg.reduce = cfg.allreduce = cfg.allgather = Algo::Linear;
    return cfg;
}

/// Byte-exact comparison that treats NaN == NaN (there are none in these
/// runs, but equality on floats is the point of the test).
template <typename T>
bool bits_equal(std::vector<T> const& a, std::vector<T> const& b) {
    return a.size() == b.size()
           && (a.empty()
               || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Full distributed QDWH under `cfg`; returns rank 0's gathered U.
template <typename T>
std::vector<T> run_dqdwh(ref::Dense<T> const& Ad, int nb,
                         comm::ProcGrid3d g3, comm::coll::Config cfg,
                         double l0) {
    comm::World world(g3.size());
    world.set_coll_config(cfg);
    std::vector<T> out;
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> A(c, Ad.m(), Ad.n(), nb, g3.layer());
        A.fill([&](std::int64_t i, std::int64_t j) { return Ad(i, j); });
        comm::dist_qdwh(c, g3, A, l0);
        auto d = comm::dist_gather(c, A);
        if (c.rank() == 0)
            out = d;
    });
    EXPECT_EQ(world.leaked_messages(), 0u);
    return out;
}

/// dist_geqrf + dist_ungqr under `cfg`; returns rank 0's gathered Q.
template <typename T>
std::vector<T> run_qr(ref::Dense<T> const& Ad, int nb, Grid g,
                      comm::coll::Config cfg) {
    comm::World world(g.size());
    world.set_coll_config(cfg);
    std::vector<T> out;
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> A(c, Ad.m(), Ad.n(), nb, g);
        comm::DistMatrix<T> Tm(c, static_cast<std::int64_t>(A.mt()) * nb,
                               Ad.n(), nb, g);
        comm::DistMatrix<T> Q(c, Ad.m(), Ad.n(), nb, g);
        A.fill([&](std::int64_t i, std::int64_t j) { return Ad(i, j); });
        comm::dist_geqrf(c, g, A, Tm);
        comm::dist_ungqr(c, g, A, Tm, Q);
        auto d = comm::dist_gather(c, Q);
        if (c.rank() == 0)
            out = d;
    });
    EXPECT_EQ(world.leaked_messages(), 0u);
    return out;
}

template <typename T>
void check_qdwh_engine_vs_linear() {
    int const n = 16, nb = 4;
    gen::MatGenOptions opt;
    opt.cond = 1e4;  // engages the QR branch before the Cholesky branch
    opt.seed = 611;
    rt::Engine eng(2);
    auto Ad = ref::to_dense(gen::cond_matrix<T>(eng, n, n, nb, opt));
    double const l0 = 1.0 / opt.cond;

    std::vector<comm::ProcGrid3d> grids = kGrids25;
    for (auto [p, q] : kGrids)
        grids.push_back({p, q, 1});
    for (auto g3 : grids) {
        auto linear = run_dqdwh(Ad, nb, g3, linear_cfg(), l0);
        auto engine = run_dqdwh(Ad, nb, g3, engine_cfg(), l0);
        EXPECT_TRUE(bits_equal(linear, engine))
            << g3.p << "x" << g3.q << "x" << g3.c;
    }
}

}  // namespace

TEST(CommEngine, QdwhBitIdenticalFloat) {
    check_qdwh_engine_vs_linear<float>();
}
TEST(CommEngine, QdwhBitIdenticalDouble) {
    check_qdwh_engine_vs_linear<double>();
}
TEST(CommEngine, QdwhBitIdenticalComplexFloat) {
    check_qdwh_engine_vs_linear<std::complex<float>>();
}
TEST(CommEngine, QdwhBitIdenticalComplexDouble) {
    check_qdwh_engine_vs_linear<std::complex<double>>();
}

TEST(CommEngine, QrPipelineBitIdentical) {
    using T = double;
    int const m = 24, n = 16, nb = 4;
    auto Ad = ref::random_dense<T>(m, n, 612);
    for (auto [p, q] : kGrids) {
        Grid g{p, q};
        auto linear = run_qr(Ad, nb, g, linear_cfg());
        auto engine = run_qr(Ad, nb, g, engine_cfg());
        EXPECT_TRUE(bits_equal(linear, engine)) << p << "x" << q;
    }
}

TEST(CommEngine, DistGatherMatchesFill) {
    // dist_gather's allgatherv-based replication must reproduce the source
    // element function exactly on every rank, for awkward tile remainders.
    using T = double;
    int const m = 19, n = 13, nb = 4;
    auto D = ref::random_dense<T>(m, n, 616);
    Grid g{3, 2};
    comm::World world(6);
    std::vector<std::vector<T>> per_rank(6);
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> A(c, m, n, nb, g);
        A.fill([&](std::int64_t i, std::int64_t j) { return D(i, j); });
        per_rank[static_cast<size_t>(c.rank())] = comm::dist_gather(c, A);
    });
    for (int r = 0; r < 6; ++r) {
        auto const& d = per_rank[static_cast<size_t>(r)];
        ASSERT_EQ(d.size(), static_cast<size_t>(m) * n);
        for (int j = 0; j < n; ++j)
            for (int i = 0; i < m; ++i)
                ASSERT_EQ(d[static_cast<size_t>(i + j * m)], D(i, j))
                    << r << " " << i << "," << j;
    }
}

TEST(CommEngine, CommReportAggregates) {
    comm::World world(4);
    world.run([&](comm::Communicator& c) {
        std::vector<double> v(8, c.rank() + 1.0);
        c.allreduce_sum(v);
        c.barrier();
    });
    auto rep = perf::comm_report(world);
    EXPECT_EQ(rep.per_rank.size(), 4u);
    EXPECT_EQ(rep.total.sends, rep.total.recvs);
    EXPECT_GT(rep.total.sends, 0u);
    EXPECT_GE(rep.total.collectives, 8u);  // allreduce + barrier per rank
    EXPECT_EQ(rep.leaked, 0u);
    EXPECT_FALSE(rep.format().empty());
}
