// Tiled gemm / gemmA / herk against dense references, across op
// combinations, tilings, and execution modes.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "linalg/gemm.hh"
#include "linalg/util.hh"
#include "ref/dense.hh"
#include "test_util.hh"

using namespace tbp;

template <typename T>
class LaGemm : public ::testing::Test {};
TYPED_TEST_SUITE(LaGemm, test::AllTypes);

namespace {

template <typename T>
void check_tiled_gemm(Op opA, Op opB, int m, int n, int k, int nb,
                      rt::Mode mode = rt::Mode::TaskDataflow) {
    rt::Engine eng(3, mode);
    auto Da = (opA == Op::NoTrans) ? ref::random_dense<T>(m, k, 1)
                                   : ref::random_dense<T>(k, m, 1);
    auto Db = (opB == Op::NoTrans) ? ref::random_dense<T>(k, n, 2)
                                   : ref::random_dense<T>(n, k, 2);
    auto Dc = ref::random_dense<T>(m, n, 3);

    auto A = ref::to_tiled(Da, nb);
    auto B = ref::to_tiled(Db, nb);
    auto C = ref::to_tiled(Dc, nb);

    T const alpha = from_real<T>(real_t<T>(1.25));
    T const beta = from_real<T>(real_t<T>(-0.75));
    la::gemm(eng, opA, opB, alpha, A, B, beta, C);
    eng.wait();

    auto P = ref::gemm(opA, opB, alpha, Da, Db);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            P(i, j) += beta * Dc(i, j);
    auto Cd = ref::to_dense(C);
    EXPECT_LE(ref::diff_fro(Cd, P), test::tol<T>(200) * (1 + ref::norm_fro(P)))
        << "op " << to_string(opA) << "/" << to_string(opB);
}

}  // namespace

TYPED_TEST(LaGemm, NoTransConjTrans) {
    check_tiled_gemm<TypeParam>(Op::NoTrans, Op::ConjTrans, 14, 10, 10, 4);
}

TYPED_TEST(LaGemm, ConjTransNoTrans) {
    check_tiled_gemm<TypeParam>(Op::ConjTrans, Op::NoTrans, 10, 10, 14, 4);
}

TYPED_TEST(LaGemm, NoTransNoTrans) {
    check_tiled_gemm<TypeParam>(Op::NoTrans, Op::NoTrans, 9, 13, 6, 5);
}

TYPED_TEST(LaGemm, UnevenTiles) {
    check_tiled_gemm<TypeParam>(Op::NoTrans, Op::NoTrans, 11, 7, 5, 3);
}

TYPED_TEST(LaGemm, SingleTile) {
    check_tiled_gemm<TypeParam>(Op::NoTrans, Op::ConjTrans, 6, 6, 6, 8);
}

TYPED_TEST(LaGemm, ForkJoinMode) {
    check_tiled_gemm<TypeParam>(Op::NoTrans, Op::NoTrans, 12, 12, 12, 4,
                                rt::Mode::ForkJoin);
}

TYPED_TEST(LaGemm, SequentialMode) {
    check_tiled_gemm<TypeParam>(Op::ConjTrans, Op::NoTrans, 12, 12, 12, 4,
                                rt::Mode::Sequential);
}

TYPED_TEST(LaGemm, GemmAMatchesGemm) {
    using T = TypeParam;
    rt::Engine eng(3);
    int const m = 15, n = 2, k = 9;
    auto Da = ref::random_dense<T>(m, k, 4);
    auto Db = ref::random_dense<T>(k, n, 5);
    auto A = ref::to_tiled(Da, 4);
    auto B = ref::to_tiled(Db, 4);
    TiledMatrix<T> C(m, n, 4);
    la::gemmA(eng, Op::NoTrans, T(1), A, B, T(0), C);
    eng.wait();
    auto P = ref::gemm(Op::NoTrans, Op::NoTrans, T(1), Da, Db);
    EXPECT_LE(ref::diff_fro(ref::to_dense(C), P),
              test::tol<T>(200) * (1 + ref::norm_fro(P)));
}

TYPED_TEST(LaGemm, GemmAConjTransAndBeta) {
    using T = TypeParam;
    rt::Engine eng(3);
    int const m = 12, n = 1, k = 7;  // A^H x shape from norm2est
    auto Da = ref::random_dense<T>(m, k, 6);
    auto Db = ref::random_dense<T>(m, n, 7);
    auto Dc = ref::random_dense<T>(k, n, 8);
    auto A = ref::to_tiled(Da, 5);
    auto B = ref::to_tiled(Db, 5);
    auto C = ref::to_tiled(Dc, 5);
    la::gemmA(eng, Op::ConjTrans, T(2), A, B, T(3), C);
    eng.wait();
    auto P = ref::gemm(Op::ConjTrans, Op::NoTrans, T(2), Da, Db);
    for (int i = 0; i < k; ++i)
        P(i, 0) += T(3) * Dc(i, 0);
    EXPECT_LE(ref::diff_fro(ref::to_dense(C), P),
              test::tol<T>(200) * (1 + ref::norm_fro(P)));
}

TYPED_TEST(LaGemm, HerkLowerConjTrans) {
    // Z = I + c A^H A, the QDWH Cholesky-iteration operand.
    using T = TypeParam;
    using R = real_t<T>;
    rt::Engine eng(3);
    int const m = 13, n = 9;
    auto Da = ref::random_dense<T>(m, n, 9);
    auto A = ref::to_tiled(Da, 4);
    TiledMatrix<T> Z(n, n, 4);
    la::set_identity(eng, Z);
    la::herk(eng, Uplo::Lower, Op::ConjTrans, R(2), A, R(1), Z);
    eng.wait();

    auto P = ref::gemm(Op::ConjTrans, Op::NoTrans, T(2), Da, Da);
    for (int i = 0; i < n; ++i)
        P(i, i) += T(1);
    auto Zd = ref::to_dense(Z);
    // Compare lower triangles only.
    real_t<T> err(0);
    for (int j = 0; j < n; ++j)
        for (int i = j; i < n; ++i)
            err += abs_sq(Zd(i, j) - P(i, j));
    EXPECT_LE(std::sqrt(err), test::tol<T>(200) * (1 + ref::norm_fro(P)));
}

TYPED_TEST(LaGemm, HerkNoTrans) {
    using T = TypeParam;
    using R = real_t<T>;
    rt::Engine eng(2);
    int const n = 10, k = 6;
    auto Da = ref::random_dense<T>(n, k, 10);
    auto A = ref::to_tiled(Da, 3);
    TiledMatrix<T> C(n, n, 3);
    la::herk(eng, Uplo::Lower, Op::NoTrans, R(1), A, R(0), C);
    eng.wait();
    auto P = ref::gemm(Op::NoTrans, Op::ConjTrans, T(1), Da, Da);
    auto Cd = ref::to_dense(C);
    real_t<T> err(0);
    for (int j = 0; j < n; ++j)
        for (int i = j; i < n; ++i)
            err += abs_sq(Cd(i, j) - P(i, j));
    EXPECT_LE(std::sqrt(err), test::tol<T>(200) * (1 + ref::norm_fro(P)));
}

TYPED_TEST(LaGemm, GemmOnSubViews) {
    // The QDWH update uses Q1, Q2 as sub-views of the stacked Q.
    using T = TypeParam;
    rt::Engine eng(3);
    int const m = 8, n = 4, nb = 4;
    auto Dq = ref::random_dense<T>(m + n, n, 11);
    auto Q = ref::to_tiled(Dq, nb);
    auto Q1 = Q.sub(0, 0, 2, 1);
    auto Q2 = Q.sub(2, 0, 1, 1);
    TiledMatrix<T> C(m, n, nb);
    la::gemm(eng, Op::NoTrans, Op::ConjTrans, T(1), Q1, Q2, T(0), C);
    eng.wait();

    ref::Dense<T> D1(m, n), D2(n, n);
    for (int j = 0; j < n; ++j) {
        for (int i = 0; i < m; ++i)
            D1(i, j) = Dq(i, j);
        for (int i = 0; i < n; ++i)
            D2(i, j) = Dq(m + i, j);
    }
    auto P = ref::gemm(Op::NoTrans, Op::ConjTrans, T(1), D1, D2);
    EXPECT_LE(ref::diff_fro(ref::to_dense(C), P),
              test::tol<T>(200) * (1 + ref::norm_fro(P)));
}

TYPED_TEST(LaGemm, GemmRtUpperMatchesGemmAndSkipsLowerTiles) {
    // la::gemm_rt_upper is the Q1 Q2^H update of the stacked-QR iterations:
    // B's strict-lower block tiles are structurally zero and never read, so
    // here they hold NaN. Both overloads (in place for Zolo-PD, out of place
    // for QDWH) must match la::gemm(NoTrans, ConjTrans) on the same B with
    // those tiles zeroed. Every dimension is unevenly tiled.
    using T = TypeParam;
    using R = real_t<T>;
    rt::Engine eng(3);
    std::vector<int> const rows{4, 4, 3}, cols{5, 3, 2};
    int const m = 11, n = 10;
    auto Da = ref::random_dense<T>(m, n, 12);
    auto Db = ref::random_dense<T>(n, n, 13);
    auto Dd = ref::random_dense<T>(m, n, 14);
    TiledMatrix<T> A(rows, cols), Bnan(cols, cols), Bzero(cols, cols);
    TiledMatrix<T> D(rows, cols), Cin(rows, cols), Cout(rows, cols),
        Cref(rows, cols);
    test::dense_to_tiled(Da, A);
    test::dense_to_tiled(Db, Bnan);
    test::dense_to_tiled(Db, Bzero);
    test::dense_to_tiled(Dd, D);
    test::dense_to_tiled(Dd, Cin);
    test::dense_to_tiled(Dd, Cref);
    T const nan = from_real<T>(std::numeric_limits<R>::quiet_NaN());
    for (int j = 0; j < Bnan.nt(); ++j)
        for (int i = j + 1; i < Bnan.mt(); ++i)
            for (int c = 0; c < Bnan.tile_nb(j); ++c)
                for (int r = 0; r < Bnan.tile_mb(i); ++r) {
                    Bnan.tile(i, j)(r, c) = nan;
                    Bzero.tile(i, j)(r, c) = T(0);
                }
    // The out-of-place result is write-only: start it as NaN too.
    for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t i = 0; i < m; ++i)
            Cout.at(i, j) = nan;

    T const alpha = from_real<T>(R(1.25));
    T const beta = from_real<T>(R(-0.75));
    la::gemm(eng, Op::NoTrans, Op::ConjTrans, alpha, A, Bzero, beta, Cref);
    la::gemm_rt_upper(eng, alpha, A, Bnan, beta, Cin);
    la::gemm_rt_upper(eng, alpha, A, Bnan, beta, D, Cout);
    eng.wait();

    auto P = ref::to_dense(Cref);
    R const tol = test::tol<T>(200) * (1 + ref::norm_fro(P));
    EXPECT_LE(ref::diff_fro(ref::to_dense(Cin), P), tol) << "in place";
    EXPECT_LE(ref::diff_fro(ref::to_dense(Cout), P), tol) << "out of place";
    EXPECT_EQ(ref::diff_fro(ref::to_dense(D), Dd), R(0)) << "D is read-only";
}
