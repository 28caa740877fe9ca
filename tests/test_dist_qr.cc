// Distributed tile QR over virtual ranks: bit-exact agreement with the
// shared-memory factorization (same kernels, same values, same order),
// explicit Q properties, and the composed distributed QR workflow.

#include <gtest/gtest.h>

#include "comm/dist_qdwh.hh"
#include "comm/dist_qr.hh"
#include "core/qdwh.hh"
#include "gen/matgen.hh"
#include "linalg/geqrf.hh"
#include "linalg/util.hh"
#include "ref/dense.hh"
#include "test_util.hh"

using namespace tbp;

namespace {

template <typename T>
ref::Dense<T> gather(comm::DistMatrix<T>& A, comm::Communicator& c) {
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

TEST(DistQr, FactorsBitExactVsSharedMemory) {
    using T = double;
    int const m = 24, n = 16, nb = 4;
    auto D = ref::random_dense<T>(m, n, 501);

    // Shared-memory factorization (deterministic kernel order).
    rt::Engine eng(1, rt::Mode::Sequential);
    auto As = ref::to_tiled(D, nb);
    auto Ts = la::alloc_qr_t(As);
    la::geqrf(eng, As, Ts);
    auto Aref = ref::to_dense(As);

    for (auto [p, q] : {std::pair{1, 1}, {2, 2}, {3, 2}}) {
        Grid g{p, q};
        comm::World world(g.size());
        ref::Dense<T> Ad;
        world.run([&](comm::Communicator& c) {
            comm::DistMatrix<T> A(c, m, n, nb, g);
            // T workspace: full nb x nb tiles per (i, k) slot.
            comm::DistMatrix<T> Tm(c, static_cast<std::int64_t>(A.mt()) * nb,
                                   n, nb, g);
            A.fill([&](std::int64_t i, std::int64_t j) { return D(i, j); });
            comm::dist_geqrf(c, g, A, Tm);
            auto G = gather(A, c);
            if (c.rank() == 0)
                Ad = G;
        });
        EXPECT_EQ(ref::diff_fro(Ad, Aref), 0.0) << p << "x" << q;
    }
}

TEST(DistQr, ExplicitQProperties) {
    using T = double;
    int const m = 20, n = 12, nb = 4;
    auto D = ref::random_dense<T>(m, n, 502);

    Grid g{2, 2};
    comm::World world(4);
    ref::Dense<T> Qd, Rfac;
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> A(c, m, n, nb, g);
        comm::DistMatrix<T> Tm(c, static_cast<std::int64_t>(A.mt()) * nb, n,
                               nb, g);
        comm::DistMatrix<T> Q(c, m, n, nb, g);
        A.fill([&](std::int64_t i, std::int64_t j) { return D(i, j); });
        comm::dist_geqrf(c, g, A, Tm);
        comm::dist_ungqr(c, g, A, Tm, Q);
        auto Gq = gather(Q, c);
        auto Ga = gather(A, c);
        if (c.rank() == 0) {
            Qd = Gq;
            Rfac = Ga;
        }
    });

    EXPECT_LE(ref::orthogonality(Qd), 1e-12 * m);
    ref::Dense<T> R(n, n);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i <= j; ++i)
            R(i, j) = Rfac(i, j);
    auto QR = ref::gemm(Op::NoTrans, Op::NoTrans, 1.0, Qd, R);
    EXPECT_LE(ref::diff_fro(QR, D), 1e-12 * (1 + ref::norm_fro(D)));
}

TEST(DistQr, StackedQdwhShape) {
    // The QDWH QR-iteration shape: [sqrt(c) A; I], (m + n) x n.
    using T = double;
    int const m = 16, n = 8, nb = 4;
    auto D = ref::random_dense<T>(m, n, 503);
    double const cc = 7.0;

    Grid g{3, 2};
    comm::World world(6);
    ref::Dense<T> Qd;
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> W(c, m + n, n, nb, g);
        comm::DistMatrix<T> Tm(c, static_cast<std::int64_t>(W.mt()) * nb, n,
                               nb, g);
        comm::DistMatrix<T> Q(c, m + n, n, nb, g);
        W.fill([&](std::int64_t i, std::int64_t j) {
            if (i < m)
                return std::sqrt(cc) * D(i, j);
            return (i - m == j) ? 1.0 : 0.0;
        });
        comm::dist_geqrf(c, g, W, Tm);
        comm::dist_ungqr(c, g, W, Tm, Q);
        auto Gq = gather(Q, c);
        if (c.rank() == 0)
            Qd = Gq;
    });
    EXPECT_LE(ref::orthogonality(Qd), 1e-12 * (m + n));
}

TEST(DistQdwhFull, BothBranchesMatchSharedMemory) {
    // kappa = 1e8 engages QR-based then Cholesky-based iterations; the
    // distributed driver must reproduce the shared-memory factor.
    using T = double;
    int const n = 16, nb = 4;
    gen::MatGenOptions opt;
    opt.cond = 1e8;
    opt.seed = 504;

    rt::Engine eng(2);
    auto At = gen::cond_matrix<T>(eng, n, n, nb, opt);
    auto Ad = ref::to_dense(At);
    TiledMatrix<T> H(n, n, nb);
    QdwhOptions o;
    o.condest_override = 1e-8;
    auto ref_info = qdwh(eng, At, H, o);
    auto Uref = ref::to_dense(At);

    for (auto [p, q] : {std::pair{2, 2}, {3, 2}}) {
        Grid g{p, q};
        comm::World world(g.size());
        ref::Dense<T> U;
        comm::DistQdwhInfo info;
        world.run([&](comm::Communicator& c) {
            comm::DistMatrix<T> A(c, n, n, nb, g);
            A.fill([&](std::int64_t i, std::int64_t j) { return Ad(i, j); });
            auto inf = comm::dist_qdwh(c, g, A, 1e-8);
            auto D = gather(A, c);
            if (c.rank() == 0) {
                U = D;
                info = inf;
            }
        });
        EXPECT_LE(ref::orthogonality(U), 1e-12 * n) << p << "x" << q;
        // The distributed norm2est reduces in a different order than the
        // shared-memory one; the last-bit scaling difference propagates
        // forward as ~eps * kappa on the polar factor.
        EXPECT_LE(ref::diff_fro(U, Uref), 1e-16 * opt.cond * 100)
            << p << "x" << q;
        EXPECT_EQ(info.iterations, ref_info.iterations) << p << "x" << q;
    }
}

TEST(DistQdwhFull, RectangularIllConditioned) {
    using T = double;
    int const m = 24, n = 12, nb = 4;
    gen::MatGenOptions opt;
    opt.cond = 1e10;
    opt.seed = 505;
    rt::Engine eng(2);
    auto At = gen::cond_matrix<T>(eng, m, n, nb, opt);
    auto Ad = ref::to_dense(At);

    Grid g{2, 2};
    comm::World world(4);
    ref::Dense<T> U;
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> A(c, m, n, nb, g);
        A.fill([&](std::int64_t i, std::int64_t j) { return Ad(i, j); });
        comm::dist_qdwh(c, g, A, 1e-10);
        auto D = gather(A, c);
        if (c.rank() == 0)
            U = D;
    });
    EXPECT_LE(ref::orthogonality(U) / std::sqrt(double(n)), 1e-13);
    // U H reconstructs A with H = sym(U^H A).
    auto UhA = ref::gemm(Op::ConjTrans, Op::NoTrans, 1.0, U, Ad);
    ref::Dense<T> Hs(n, n);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
            Hs(i, j) = 0.5 * (UhA(i, j) + conj_val(UhA(j, i)));
    auto UH = ref::gemm(Op::NoTrans, Op::NoTrans, 1.0, U, Hs);
    EXPECT_LE(ref::diff_fro(UH, Ad) / ref::norm_fro(Ad), 1e-13);
}

TEST(DistQdwhFull, RaggedLastBlockRow) {
    // m % nb != 0: the stacked workspace keeps A's ragged block row on top
    // of the identity block. cond 1e10 runs QR iterations, then Cholesky.
    using T = double;
    int const m = 22, n = 16, nb = 4;
    double const l0 = 1e-10;
    gen::MatGenOptions opt;
    opt.cond = 1e10;
    opt.seed = 506;
    rt::Engine eng(2);
    auto Ad = ref::to_dense(gen::cond_matrix<T>(eng, m, n, nb, opt));

    Grid g{2, 2};
    comm::World world(4);
    ref::Dense<T> U;
    comm::DistQdwhInfo info;
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> A(c, m, n, nb, g);
        A.fill([&](std::int64_t i, std::int64_t j) { return Ad(i, j); });
        auto inf = comm::dist_qdwh(c, g, A, l0);
        auto D = gather(A, c);
        if (c.rank() == 0) {
            U = D;
            info = inf;
        }
    });
    int qr = 0;
    double li = l0;
    for (int k = 0; k < info.iterations; ++k) {
        auto const w = prec::qdwh_weights(li);
        qr += w.qr ? 1 : 0;
        li = w.li_next;
    }
    EXPECT_GT(qr, 0);
    EXPECT_LT(qr, info.iterations);

    EXPECT_LE(ref::orthogonality(U) / std::sqrt(double(n)), 1e-13);
    auto UhA = ref::gemm(Op::ConjTrans, Op::NoTrans, 1.0, U, Ad);
    ref::Dense<T> Hs(n, n);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
            Hs(i, j) = 0.5 * (UhA(i, j) + conj_val(UhA(j, i)));
    auto UH = ref::gemm(Op::NoTrans, Op::NoTrans, 1.0, U, Hs);
    EXPECT_LE(ref::diff_fro(UH, Ad) / ref::norm_fro(Ad), 1e-13);
}
