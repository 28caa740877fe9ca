// Tile-level herk / trsm / trmm_naive kernels vs dense references.

#include <gtest/gtest.h>

#include "blas/gemm.hh"
#include "blas/level3.hh"
#include "ref/dense.hh"
#include "test_util.hh"

using namespace tbp;

template <typename T>
class BlasLevel3 : public ::testing::Test {};
TYPED_TEST_SUITE(BlasLevel3, test::AllTypes);

namespace {

template <typename T>
Tile<T> as_tile(ref::Dense<T>& D) {
    return Tile<T>(D.data(), static_cast<int>(D.m()), static_cast<int>(D.n()),
                   static_cast<int>(D.m()));
}

/// Copy only the `uplo` triangle, mirror-conjugate the other (to compare a
/// herk result against a full dense product).
template <typename T>
void symmetrize_from(Uplo uplo, ref::Dense<T>& C) {
    auto const n = C.n();
    for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t i = j + 1; i < n; ++i) {
            if (uplo == Uplo::Lower)
                C(j, i) = conj_val(C(i, j));
            else
                C(i, j) = conj_val(C(j, i));
        }
}

template <typename T>
void check_herk(Uplo uplo, Op op) {
    int const n = 9, k = 6;
    auto A = (op == Op::NoTrans) ? ref::random_dense<T>(n, k, 1)
                                 : ref::random_dense<T>(k, n, 1);
    // Hermitian C with real diagonal.
    auto C0 = ref::random_dense<T>(n, n, 2);
    ref::Dense<T> C(n, n);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
            C(i, j) = C0(i, j) + conj_val(C0(j, i));

    auto Cref = C;
    real_t<T> const alpha = 2, beta = -1;
    auto P = (op == Op::NoTrans)
                 ? ref::gemm(Op::NoTrans, Op::ConjTrans, from_real<T>(alpha), A, A)
                 : ref::gemm(Op::ConjTrans, Op::NoTrans, from_real<T>(alpha), A, A);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
            Cref(i, j) = P(i, j) + from_real<T>(beta) * Cref(i, j);

    blas::herk(uplo, op, alpha, as_tile(A), beta, as_tile(C));
    symmetrize_from(uplo, C);
    EXPECT_LE(ref::diff_fro(C, Cref), test::tol<T>(100) * (1 + ref::norm_fro(Cref)));
}

template <typename T>
void check_trsm(Side side, Uplo uplo, Op op, Diag diag) {
    int const m = 8, n = 5;
    int const na = (side == Side::Left) ? m : n;
    // Well-conditioned triangular A: dominant diagonal.
    auto A = ref::random_dense<T>(na, na, 3);
    for (int i = 0; i < na; ++i)
        A(i, i) = A(i, i) + from_real<T>(real_t<T>(4));
    auto B = ref::random_dense<T>(m, n, 4);
    auto X = B;

    T const alpha = from_real<T>(real_t<T>(1.5));
    blas::trsm(side, uplo, op, diag, alpha, as_tile(A), as_tile(X));

    // Verify op(tri(A)) X == alpha B (or X op(tri(A))).
    ref::Dense<T> Atri(na, na);
    for (int j = 0; j < na; ++j)
        for (int i = 0; i < na; ++i) {
            bool const in_tri = (uplo == Uplo::Lower) ? (i >= j) : (i <= j);
            Atri(i, j) = in_tri ? A(i, j) : T(0);
            if (i == j && diag == Diag::Unit)
                Atri(i, j) = T(1);
        }
    auto P = (side == Side::Left) ? ref::gemm(op, Op::NoTrans, T(1), Atri, X)
                                  : ref::gemm(Op::NoTrans, op, T(1), X, Atri);
    ref::Dense<T> aB(m, n);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            aB(i, j) = alpha * B(i, j);
    EXPECT_LE(ref::diff_fro(P, aB), test::tol<T>(500) * (1 + ref::norm_fro(aB)));
}

}  // namespace

TYPED_TEST(BlasLevel3, HerkLowerNoTrans) { check_herk<TypeParam>(Uplo::Lower, Op::NoTrans); }
TYPED_TEST(BlasLevel3, HerkUpperNoTrans) { check_herk<TypeParam>(Uplo::Upper, Op::NoTrans); }
TYPED_TEST(BlasLevel3, HerkLowerConjTrans) { check_herk<TypeParam>(Uplo::Lower, Op::ConjTrans); }
TYPED_TEST(BlasLevel3, HerkUpperConjTrans) { check_herk<TypeParam>(Uplo::Upper, Op::ConjTrans); }

TYPED_TEST(BlasLevel3, TrsmLeftLowerNoTrans) {
    check_trsm<TypeParam>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::NonUnit);
}
TYPED_TEST(BlasLevel3, TrsmLeftLowerConjTrans) {
    check_trsm<TypeParam>(Side::Left, Uplo::Lower, Op::ConjTrans, Diag::NonUnit);
}
TYPED_TEST(BlasLevel3, TrsmLeftUpperNoTrans) {
    check_trsm<TypeParam>(Side::Left, Uplo::Upper, Op::NoTrans, Diag::NonUnit);
}
TYPED_TEST(BlasLevel3, TrsmLeftUpperConjTrans) {
    check_trsm<TypeParam>(Side::Left, Uplo::Upper, Op::ConjTrans, Diag::NonUnit);
}
TYPED_TEST(BlasLevel3, TrsmRightLowerNoTrans) {
    check_trsm<TypeParam>(Side::Right, Uplo::Lower, Op::NoTrans, Diag::NonUnit);
}
TYPED_TEST(BlasLevel3, TrsmRightLowerConjTrans) {
    check_trsm<TypeParam>(Side::Right, Uplo::Lower, Op::ConjTrans, Diag::NonUnit);
}
TYPED_TEST(BlasLevel3, TrsmRightUpperNoTrans) {
    check_trsm<TypeParam>(Side::Right, Uplo::Upper, Op::NoTrans, Diag::NonUnit);
}
TYPED_TEST(BlasLevel3, TrsmRightUpperConjTrans) {
    check_trsm<TypeParam>(Side::Right, Uplo::Upper, Op::ConjTrans, Diag::NonUnit);
}
TYPED_TEST(BlasLevel3, TrsmUnitDiag) {
    check_trsm<TypeParam>(Side::Left, Uplo::Lower, Op::NoTrans, Diag::Unit);
}
TYPED_TEST(BlasLevel3, TrsmTransReal) {
    check_trsm<TypeParam>(Side::Right, Uplo::Upper, Op::Trans, Diag::NonUnit);
}

TYPED_TEST(BlasLevel3, TrmmMatchesDense) {
    using T = TypeParam;
    int const m = 7, n = 4;
    auto A = ref::random_dense<T>(m, m, 6);
    auto B = ref::random_dense<T>(m, n, 7);
    for (auto uplo : {Uplo::Lower, Uplo::Upper}) {
        for (auto op : {Op::NoTrans, Op::ConjTrans}) {
            auto X = B;
            blas::trmm_naive(uplo, op, Diag::NonUnit, T(2), as_tile(A),
                             as_tile(X));
            ref::Dense<T> Atri(m, m);
            for (int j = 0; j < m; ++j)
                for (int i = 0; i < m; ++i)
                    Atri(i, j) = ((uplo == Uplo::Lower) ? i >= j : i <= j)
                                     ? A(i, j) : T(0);
            auto Xref = ref::gemm(op, Op::NoTrans, T(2), Atri, B);
            EXPECT_LE(ref::diff_fro(X, Xref),
                      test::tol<T>(100) * (1 + ref::norm_fro(Xref)));
        }
    }
}

TYPED_TEST(BlasLevel3, TrmmUnitDiag) {
    using T = TypeParam;
    int const m = 5;
    auto A = ref::random_dense<T>(m, m, 8);
    auto B = ref::random_dense<T>(m, 3, 9);
    auto X = B;
    blas::trmm_naive(Uplo::Lower, Op::NoTrans, Diag::Unit, T(1), as_tile(A),
                     as_tile(X));
    ref::Dense<T> Atri(m, m);
    for (int j = 0; j < m; ++j)
        for (int i = 0; i < m; ++i)
            Atri(i, j) = (i > j) ? A(i, j) : (i == j ? T(1) : T(0));
    auto Xref = ref::gemm(Op::NoTrans, Op::NoTrans, T(1), Atri, B);
    EXPECT_LE(ref::diff_fro(X, Xref), test::tol<T>(100) * (1 + ref::norm_fro(Xref)));
}

TYPED_TEST(BlasLevel3, HerkForcesRealDiagonal) {
    using T = TypeParam;
    if constexpr (is_complex_v<T>) {
        auto A = ref::random_dense<T>(5, 3, 10);
        ref::Dense<T> C(5, 5);
        blas::herk(Uplo::Lower, Op::NoTrans, real_t<T>(1), as_tile(A),
                   real_t<T>(0), as_tile(C));
        for (int i = 0; i < 5; ++i)
            EXPECT_EQ(C(i, i).imag(), real_t<T>(0));
    }
}
