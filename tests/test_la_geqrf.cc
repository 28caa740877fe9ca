// Tiled flat-tree QR: R correctness, explicit Q orthogonality, A = Q R
// reconstruction, rectangular and stacked (QDWH [sqrt(c) A; I]) shapes,
// unmqr application, mode equivalence, lookahead invariance.

#include <gtest/gtest.h>

#include <cstring>

#include "gen/matgen.hh"
#include "linalg/gemm.hh"
#include "linalg/geqrf.hh"
#include "linalg/potrf.hh"
#include "linalg/util.hh"
#include "ref/dense.hh"
#include "test_util.hh"

using namespace tbp;

template <typename T>
class LaGeqrf : public ::testing::Test {};
TYPED_TEST_SUITE(LaGeqrf, test::AllTypes);

namespace {

template <typename T>
void check_qr(int m, int n, int nb, rt::Mode mode = rt::Mode::TaskDataflow) {
    rt::Engine eng(3, mode);
    auto D = ref::random_dense<T>(m, n, 41);
    auto A = ref::to_tiled(D, nb);
    auto Tm = la::alloc_qr_t(A);
    la::geqrf(eng, A, Tm);
    TiledMatrix<T> Q(m, n, nb);
    la::ungqr(eng, A, Tm, Q);
    eng.wait();

    auto Qd = ref::to_dense(Q);
    // Q has orthonormal columns.
    EXPECT_LE(ref::orthogonality(Qd), test::tol<T>(200) * std::max(m, n))
        << "m=" << m << " n=" << n << " nb=" << nb;

    // Q R == original A (R = upper triangle/trapezoid of factored A).
    ref::Dense<T> R(n, n);
    auto Ad = ref::to_dense(A);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i <= j && i < m; ++i)
            R(i, j) = Ad(i, j);
    auto QR = ref::gemm(Op::NoTrans, Op::NoTrans, T(1), Qd, R);
    EXPECT_LE(ref::diff_fro(QR, D), test::tol<T>(1000) * (1 + ref::norm_fro(D)))
        << "m=" << m << " n=" << n << " nb=" << nb;
}

/// Bitwise equality: a scheduling change must not perturb a single ulp.
template <typename T>
void expect_bitwise(TiledMatrix<T> const& A, TiledMatrix<T> const& B) {
    ASSERT_EQ(A.m(), B.m());
    ASSERT_EQ(A.n(), B.n());
    for (std::int64_t j = 0; j < A.n(); ++j)
        for (std::int64_t i = 0; i < A.m(); ++i) {
            T const a = A.at(i, j);
            T const b = B.at(i, j);
            ASSERT_EQ(0, std::memcmp(&a, &b, sizeof(T)))
                << "mismatch at (" << i << ", " << j << ")";
        }
}

}  // namespace

TYPED_TEST(LaGeqrf, TallMultiTile) { check_qr<TypeParam>(18, 8, 4); }
TYPED_TEST(LaGeqrf, Square) { check_qr<TypeParam>(12, 12, 4); }
TYPED_TEST(LaGeqrf, SquareUneven) { check_qr<TypeParam>(13, 13, 4); }
TYPED_TEST(LaGeqrf, TallUneven) { check_qr<TypeParam>(19, 7, 5); }
TYPED_TEST(LaGeqrf, SingleTile) { check_qr<TypeParam>(9, 6, 16); }
TYPED_TEST(LaGeqrf, VeryTall) { check_qr<TypeParam>(31, 5, 4); }
TYPED_TEST(LaGeqrf, ForkJoin) { check_qr<TypeParam>(14, 8, 4, rt::Mode::ForkJoin); }
TYPED_TEST(LaGeqrf, Sequential) { check_qr<TypeParam>(14, 8, 4, rt::Mode::Sequential); }

TYPED_TEST(LaGeqrf, StackedQdwhShape) {
    // The QDWH QR iterate: W = [sqrt(c) A; I], (m+n) x n with A's row tiles
    // on top and the identity's square tiles below.
    using T = TypeParam;
    rt::Engine eng(3);
    int const m = 10, n = 6, nb = 4;
    auto D = ref::random_dense<T>(m, n, 42);

    auto rows = TiledMatrix<T>::chop(m, nb);
    auto cols = TiledMatrix<T>::chop(n, nb);
    auto wrows = rows;
    wrows.insert(wrows.end(), cols.begin(), cols.end());
    TiledMatrix<T> W(wrows, cols);
    auto W1 = W.sub(0, 0, static_cast<int>(rows.size()), W.nt());
    auto W2 = W.sub(static_cast<int>(rows.size()), 0,
                    static_cast<int>(cols.size()), W.nt());
    test::dense_to_tiled(D, W1);
    la::set_identity(eng, W2);
    eng.wait();
    auto Worig = ref::to_dense(W);

    auto Tm = la::alloc_qr_t(W);
    la::geqrf(eng, W, Tm);
    TiledMatrix<T> Q(wrows, cols);
    la::ungqr(eng, W, Tm, Q);
    eng.wait();

    auto Qd = ref::to_dense(Q);
    EXPECT_LE(ref::orthogonality(Qd), test::tol<T>(500) * (m + n));
    ref::Dense<T> R(n, n);
    auto Wd = ref::to_dense(W);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i <= j; ++i)
            R(i, j) = Wd(i, j);
    auto QR = ref::gemm(Op::NoTrans, Op::NoTrans, T(1), Qd, R);
    EXPECT_LE(ref::diff_fro(QR, Worig),
              test::tol<T>(1000) * (1 + ref::norm_fro(Worig)));
}

TYPED_TEST(LaGeqrf, StackedTriMatchesDenseOracle) {
    // geqrf_stacked_tri + ungqr_stacked_tri on W = [A; I] must agree with
    // the dense set_identity + geqrf + ungqr oracle to factorization
    // tolerance, for m > n and m = n, even and uneven tilings. The
    // structured path gets an *uninitialized* W2 — proving no task reads a
    // structurally-zero tile before writing it.
    using T = TypeParam;
    for (auto [m, n, nb] : {std::tuple{10, 6, 4}, {8, 8, 4}, {13, 7, 5}}) {
        rt::Engine eng(3);
        auto D = ref::random_dense<T>(m, n, 47);

        auto rows = TiledMatrix<T>::chop(m, nb);
        auto cols = TiledMatrix<T>::chop(n, nb);
        int const mt1 = static_cast<int>(rows.size());
        auto wrows = rows;
        wrows.insert(wrows.end(), cols.begin(), cols.end());

        // Dense oracle.
        TiledMatrix<T> Wo(wrows, cols);
        auto Wo1 = Wo.sub(0, 0, mt1, Wo.nt());
        test::dense_to_tiled(D, Wo1);
        la::set_identity(eng, Wo.sub(mt1, 0, Wo.nt(), Wo.nt()));
        auto To = la::alloc_qr_t(Wo);
        la::geqrf(eng, Wo, To);
        TiledMatrix<T> Qo(wrows, cols);
        la::ungqr(eng, Wo, To, Qo);
        eng.wait();

        // Structured path; garbage-fill W2 to catch reads of "zero" tiles.
        TiledMatrix<T> Ws(wrows, cols);
        auto Ws1 = Ws.sub(0, 0, mt1, Ws.nt());
        test::dense_to_tiled(D, Ws1);
        la::set(eng, T(7), T(-3), Ws.sub(mt1, 0, Ws.nt(), Ws.nt()));
        auto Ts = la::alloc_qr_t(Ws);
        la::geqrf_stacked_tri(eng, Ws, mt1, T(1), Ts);
        TiledMatrix<T> Qs(wrows, cols);
        la::ungqr_stacked_tri(eng, Ws, mt1, Ts, Qs);
        eng.wait();

        auto Qod = ref::to_dense(Qo);
        auto Qsd = ref::to_dense(Qs);
        auto const tol = test::tol<T>(1000) * (m + n);
        EXPECT_LE(ref::orthogonality(Qsd), tol) << "m=" << m << " n=" << n;
        EXPECT_LE(ref::diff_fro(Qsd, Qod), tol) << "m=" << m << " n=" << n;

        // R factors agree (compare upper triangles of W's top block).
        auto Wod = ref::to_dense(Wo);
        auto Wsd = ref::to_dense(Ws);
        real_t<T> rerr(0);
        for (int j = 0; j < n; ++j)
            for (int i = 0; i <= j; ++i)
                rerr += abs_sq(Wsd(i, j) - Wod(i, j));
        EXPECT_LE(std::sqrt(rerr), tol * (1 + ref::norm_fro(D)))
            << "m=" << m << " n=" << n;

        // Q2 = R^{-1} must come out block upper triangular: everything
        // strictly below the global diagonal of the bottom block is zero.
        for (int j = 0; j < n; ++j)
            for (int i = j + 1; i < n; ++i)
                EXPECT_EQ(Qsd(m + i, j), T(0)) << i << "," << j;
    }
}

TYPED_TEST(LaGeqrf, StackedTriReconstructs) {
    // Q R == [A; I] directly from the structured factorization.
    using T = TypeParam;
    rt::Engine eng(3);
    int const m = 9, n = 6, nb = 4;
    auto D = ref::random_dense<T>(m, n, 48);

    auto rows = TiledMatrix<T>::chop(m, nb);
    auto cols = TiledMatrix<T>::chop(n, nb);
    int const mt1 = static_cast<int>(rows.size());
    auto wrows = rows;
    wrows.insert(wrows.end(), cols.begin(), cols.end());
    TiledMatrix<T> W(wrows, cols);
    auto W1 = W.sub(0, 0, mt1, W.nt());
    test::dense_to_tiled(D, W1);
    auto Tm = la::alloc_qr_t(W);
    la::geqrf_stacked_tri(eng, W, mt1, T(1), Tm);
    TiledMatrix<T> Q(wrows, cols);
    la::ungqr_stacked_tri(eng, W, mt1, Tm, Q);
    eng.wait();

    auto Qd = ref::to_dense(Q);
    auto Wd = ref::to_dense(W);
    ref::Dense<T> R(n, n);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i <= j; ++i)
            R(i, j) = Wd(i, j);
    auto QR = ref::gemm(Op::NoTrans, Op::NoTrans, T(1), Qd, R);
    ref::Dense<T> Orig(m + n, n);
    for (int j = 0; j < n; ++j) {
        for (int i = 0; i < m; ++i)
            Orig(i, j) = D(i, j);
        Orig(m + j, j) = T(1);
    }
    EXPECT_LE(ref::diff_fro(QR, Orig),
              test::tol<T>(1000) * (1 + ref::norm_fro(Orig)));
}

TYPED_TEST(LaGeqrf, AllocQrTSizesShortRows) {
    // A rectangular matrix with a short bottom row tile: the T workspace
    // must still hold a full panel-width factor for every tsqrt row (a
    // short folded tile produces one reflector per panel column), while
    // the short diagonal row itself needs only min(mb, nb) rows. This is a
    // regression test for the over/under-allocation in alloc_qr_t.
    using T = TypeParam;
    int const m = 14, n = 14, nb = 4;  // rows: 4,4,4,2
    auto D = ref::random_dense<T>(m, n, 49);
    auto A = ref::to_tiled(D, nb);
    auto Tm = la::alloc_qr_t(A);
    // Row 3 is 2 rows tall but is tsqrt-folded by panels 0..2 (width 4).
    EXPECT_EQ(Tm.tile_mb(3), 4);
    // Row 0 only holds its own geqrt factor: full nb.
    EXPECT_EQ(Tm.tile_mb(0), 4);
    rt::Engine eng(3);
    la::geqrf(eng, A, Tm);
    TiledMatrix<T> Q(m, n, nb);
    la::ungqr(eng, A, Tm, Q);
    eng.wait();
    EXPECT_LE(ref::orthogonality(ref::to_dense(Q)), test::tol<T>(500) * m);
}

TYPED_TEST(LaGeqrf, UnmqrAppliesQh) {
    // unmqr(ConjTrans) on the original A must reproduce [R; 0].
    using T = TypeParam;
    rt::Engine eng(3);
    int const m = 14, n = 6, nb = 4;
    auto D = ref::random_dense<T>(m, n, 43);
    auto A = ref::to_tiled(D, nb);
    auto Tm = la::alloc_qr_t(A);
    la::geqrf(eng, A, Tm);

    auto C = ref::to_tiled(D, nb);
    la::unmqr(eng, Op::ConjTrans, A, Tm, C);
    eng.wait();

    auto Cd = ref::to_dense(C);
    auto Ad = ref::to_dense(A);
    // Top triangle equals R, bottom must vanish.
    real_t<T> err(0);
    for (int j = 0; j < n; ++j) {
        for (int i = 0; i <= j; ++i)
            err += abs_sq(Cd(i, j) - Ad(i, j));
        for (int i = j + 1; i < m; ++i)
            err += abs_sq(Cd(i, j));
    }
    EXPECT_LE(std::sqrt(err), test::tol<T>(1000) * (1 + ref::norm_fro(D)));
}

TYPED_TEST(LaGeqrf, UnmqrRoundTrip) {
    using T = TypeParam;
    rt::Engine eng(3);
    int const m = 12, n = 5, nb = 4;
    auto D = ref::random_dense<T>(m, n, 44);
    auto A = ref::to_tiled(D, nb);
    auto Tm = la::alloc_qr_t(A);
    la::geqrf(eng, A, Tm);

    auto Dc = ref::random_dense<T>(m, 3, 45);
    auto C = ref::to_tiled(Dc, nb);
    la::unmqr(eng, Op::ConjTrans, A, Tm, C);
    la::unmqr(eng, Op::NoTrans, A, Tm, C);
    eng.wait();
    EXPECT_LE(ref::diff_fro(ref::to_dense(C), Dc),
              test::tol<T>(1000) * (1 + ref::norm_fro(Dc)));
}

TYPED_TEST(LaGeqrf, ModesProduceSameFactor) {
    using T = TypeParam;
    auto D = ref::random_dense<T>(12, 6, 46);
    std::vector<ref::Dense<T>> results;
    for (auto mode : {rt::Mode::Sequential, rt::Mode::TaskDataflow,
                      rt::Mode::ForkJoin}) {
        rt::Engine eng(3, mode);
        auto A = ref::to_tiled(D, 4);
        auto Tm = la::alloc_qr_t(A);
        la::geqrf(eng, A, Tm);
        eng.wait();
        results.push_back(ref::to_dense(A));
    }
    // Identical task set and deterministic kernels: results must agree
    // bit-for-bit across schedules.
    EXPECT_EQ(ref::diff_fro(results[0], results[1]), real_t<T>(0));
    EXPECT_EQ(ref::diff_fro(results[0], results[2]), real_t<T>(0));
}

// Lookahead is a pure scheduling hint: promoting updates into the next
// panels' columns changes priorities only, never the numerical result.
TYPED_TEST(LaGeqrf, LookaheadBitwise) {
    using T = TypeParam;
    rt::Engine eng(3);
    std::int64_t const m = 96, n = 64;
    int const nb = 16;
    TiledMatrix<T> A0(m, n, nb), A1(m, n, nb);
    gen::fill_gaussian(eng, A0, 17);
    la::copy(eng, A0, A1);
    eng.wait();

    TiledMatrix<T> T0 = la::alloc_qr_t(A0);
    TiledMatrix<T> T1 = la::alloc_qr_t(A1);
    la::geqrf(eng, A0, T0, /*lookahead=*/0);
    la::geqrf(eng, A1, T1, /*lookahead=*/2);
    eng.wait();
    expect_bitwise(A0, A1);

    // potrf lookahead likewise (on a fresh HPD matrix).
    TiledMatrix<T> P0 = gen::hpd_matrix<T>(eng, n, nb, 23);
    TiledMatrix<T> P1(n, n, nb);
    la::copy(eng, P0, P1);
    eng.wait();
    la::potrf(eng, Uplo::Lower, P0, /*lookahead=*/0);
    la::potrf(eng, Uplo::Lower, P1, /*lookahead=*/3);
    eng.wait();
    expect_bitwise(P0, P1);
}
