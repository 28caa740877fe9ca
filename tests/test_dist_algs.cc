// SPMD distributed tiled algorithms: SUMMA gemm, herk, Cholesky, the right
// triangular solves, and the distributed QDWH on a Cholesky-only input —
// validated against dense references and the shared-memory solver across
// several process grids.

#include <gtest/gtest.h>

#include "comm/dist_algs.hh"
#include "comm/dist_qdwh.hh"
#include "comm/dist_summa25.hh"
#include "core/qdwh.hh"
#include "gen/matgen.hh"
#include "ref/dense.hh"
#include "test_util.hh"

using namespace tbp;

namespace {

template <typename T>
ref::Dense<T> gather(comm::DistMatrix<T>& A, comm::Communicator& c) {
    // Every rank contributes its tiles through rank-0 via messages would be
    // overkill for tests; instead each test collects on every rank by
    // allreducing a dense image (zeros where remote).
    ref::Dense<T> D(A.m(), A.n());
    std::int64_t row0 = 0;
    for (int i = 0; i < A.mt(); ++i) {
        std::int64_t col0 = 0;
        for (int j = 0; j < A.nt(); ++j) {
            if (A.is_local(i, j)) {
                auto t = A.tile(i, j);
                for (int cc = 0; cc < t.nb(); ++cc)
                    for (int rr = 0; rr < t.mb(); ++rr)
                        D(row0 + rr, col0 + cc) = t(rr, cc);
            }
            col0 += A.tile_nb(j);
        }
        row0 += A.tile_mb(i);
    }
    std::vector<T> buf(static_cast<size_t>(A.m()) * A.n());
    for (std::int64_t j = 0; j < A.n(); ++j)
        for (std::int64_t i = 0; i < A.m(); ++i)
            buf[static_cast<size_t>(i + j * A.m())] = D(i, j);
    c.allreduce_sum(buf);
    for (std::int64_t j = 0; j < A.n(); ++j)
        for (std::int64_t i = 0; i < A.m(); ++i)
            D(i, j) = buf[static_cast<size_t>(i + j * A.m())];
    return D;
}

}  // namespace

TEST(DistAlgs, SummaGemmMatchesDense) {
    using T = double;
    int const m = 18, k = 14, n = 11, nb = 4;
    auto Da = ref::random_dense<T>(m, k, 201);
    auto Db = ref::random_dense<T>(k, n, 202);
    auto Dc = ref::random_dense<T>(m, n, 203);
    auto Cref = ref::gemm(Op::NoTrans, Op::NoTrans, 2.0, Da, Db);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            Cref(i, j) -= Dc(i, j);  // beta = -1

    for (auto [p, q] : {std::pair{1, 1}, {2, 2}, {3, 2}}) {
        Grid g{p, q};
        comm::World world(g.size());
        double err = -1;
        world.run([&](comm::Communicator& c) {
            comm::DistMatrix<T> A(c, m, k, nb, g), B(c, k, n, nb, g),
                C(c, m, n, nb, g);
            A.fill([&](std::int64_t i, std::int64_t j) { return Da(i, j); });
            B.fill([&](std::int64_t i, std::int64_t j) { return Db(i, j); });
            C.fill([&](std::int64_t i, std::int64_t j) { return Dc(i, j); });
            comm::summa_25d(c, comm::ProcGrid3d{p, q, 1}, Op::NoTrans, 2.0, A,
                            B, -1.0, C);
            auto D = gather(C, c);
            if (c.rank() == 0)
                err = ref::diff_fro(D, Cref);
        });
        EXPECT_LE(err, 1e-12 * (1 + ref::norm_fro(Cref))) << p << "x" << q;
    }
}

TEST(DistAlgs, HerkMatchesDense) {
    using T = double;
    int const m = 15, n = 12, nb = 4;
    auto Da = ref::random_dense<T>(m, n, 204);
    auto P = ref::gemm(Op::ConjTrans, Op::NoTrans, 3.0, Da, Da);
    for (int i = 0; i < n; ++i)
        P(i, i) += 1.0;  // beta = 1 applied to identity C

    Grid g{2, 2};
    comm::World world(4);
    double err = -1;
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> A(c, m, n, nb, g), C(c, n, n, nb, g);
        A.fill([&](std::int64_t i, std::int64_t j) { return Da(i, j); });
        comm::dist_set_identity(C);
        comm::dist_herk(c, g, 3.0, A, 1.0, C);
        auto D = gather(C, c);
        if (c.rank() == 0) {
            double e = 0;
            for (int j = 0; j < n; ++j)
                for (int i = j; i < n; ++i)
                    e += abs_sq(D(i, j) - P(i, j));
            err = std::sqrt(e);
        }
    });
    EXPECT_LE(err, 1e-12 * (1 + ref::norm_fro(P)));
}

TEST(DistAlgs, PotrfMatchesDense) {
    using T = double;
    int const n = 16, nb = 4;
    auto B = ref::random_dense<T>(n, n, 205);
    auto Dz = ref::gemm(Op::NoTrans, Op::ConjTrans, 1.0, B, B);
    for (int i = 0; i < n; ++i)
        Dz(i, i) += n;

    for (auto [p, q] : {std::pair{2, 2}, {1, 3}}) {
        Grid g{p, q};
        comm::World world(g.size());
        double err = -1;
        world.run([&](comm::Communicator& c) {
            comm::DistMatrix<T> Z(c, n, n, nb, g);
            Z.fill([&](std::int64_t i, std::int64_t j) { return Dz(i, j); });
            comm::dist_potrf(c, g, Z);
            auto L = gather(Z, c);
            if (c.rank() == 0) {
                for (int j = 0; j < n; ++j)
                    for (int i = 0; i < j; ++i)
                        L(i, j) = 0.0;
                auto R = ref::gemm(Op::NoTrans, Op::ConjTrans, 1.0, L, L);
                err = ref::diff_fro(R, Dz);
            }
        });
        EXPECT_LE(err, 1e-11 * (1 + ref::norm_fro(Dz))) << p << "x" << q;
    }
}

TEST(DistAlgs, TrsmRightLowerBothOps) {
    using T = double;
    int const m = 14, n = 10, nb = 4;
    auto Dl = ref::random_dense<T>(n, n, 206);
    for (int j = 0; j < n; ++j) {
        Dl(j, j) += 2 * n;
        for (int i = 0; i < j; ++i)
            Dl(i, j) = 0.0;
    }
    auto Dx = ref::random_dense<T>(m, n, 207);

    Grid g{2, 2};
    comm::World world(4);
    ref::Dense<T> X;
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> Z(c, n, n, nb, g), Xd(c, m, n, nb, g);
        Z.fill([&](std::int64_t i, std::int64_t j) { return Dl(i, j); });
        Xd.fill([&](std::int64_t i, std::int64_t j) { return Dx(i, j); });
        comm::dist_trsm_right_lower(c, g, Op::ConjTrans, Z, Xd);
        comm::dist_trsm_right_lower(c, g, Op::NoTrans, Z, Xd);
        auto D = gather(Xd, c);
        if (c.rank() == 0)
            X = D;
    });
    // X (L L^H) must reproduce the original right-hand side.
    auto ZZ = ref::gemm(Op::NoTrans, Op::ConjTrans, 1.0, Dl, Dl);
    auto P = ref::gemm(Op::NoTrans, Op::NoTrans, 1.0, X, ZZ);
    EXPECT_LE(ref::diff_fro(P, Dx), 1e-10 * (1 + ref::norm_fro(Dx)));
}

TEST(DistAlgs, DistributedQdwhMatchesSharedMemory) {
    using T = double;
    int const n = 20, nb = 4;
    gen::MatGenOptions opt;
    opt.cond = 15.0;  // well-conditioned enough for the Cholesky-only path
    opt.seed = 208;

    // Shared-memory reference result.
    rt::Engine eng(3);
    auto At = gen::cond_matrix<T>(eng, n, n, nb, opt);
    auto Ad = ref::to_dense(At);
    TiledMatrix<T> H(n, n, nb);
    QdwhOptions o;
    o.condest_override = 1.0 / opt.cond;
    qdwh(eng, At, H, o);
    auto Uref = ref::to_dense(At);
    // Already the first iteration takes the Cholesky branch (c <= 100), and
    // l only grows from there: no QR iteration runs.
    ASSERT_FALSE(prec::qdwh_weights(1.0 / opt.cond).qr);

    for (auto [p, q] : {std::pair{2, 2}, {3, 2}}) {
        Grid g{p, q};
        comm::World world(g.size());
        ref::Dense<T> U;
        comm::DistQdwhInfo info;
        world.run([&](comm::Communicator& c) {
            comm::DistMatrix<T> A(c, n, n, nb, g);
            A.fill([&](std::int64_t i, std::int64_t j) { return Ad(i, j); });
            auto inf = comm::dist_qdwh(c, g, A, 1.0 / opt.cond);
            auto D = gather(A, c);
            if (c.rank() == 0) {
                U = D;
                info = inf;
            }
        });
        EXPECT_LE(ref::diff_fro(U, Uref), 1e-11) << p << "x" << q;
        EXPECT_LE(ref::orthogonality(U), 1e-12 * n) << p << "x" << q;
        EXPECT_GE(info.iterations, 2);
        EXPECT_LE(info.iterations, 6);
    }
}
