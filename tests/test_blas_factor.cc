// Tile-level Cholesky kernel: L L^H reconstruction and HPD failure path,
// the latter also through both halves of the recursion at n = 64.

#include <gtest/gtest.h>

#include "blas/factor.hh"
#include "common/error.hh"
#include "ref/dense.hh"
#include "test_util.hh"

using namespace tbp;

template <typename T>
class BlasFactor : public ::testing::Test {};
TYPED_TEST_SUITE(BlasFactor, test::AllTypes);

namespace {

template <typename T>
Tile<T> as_tile(ref::Dense<T>& D) {
    return Tile<T>(D.data(), static_cast<int>(D.m()), static_cast<int>(D.n()),
                   static_cast<int>(D.m()));
}

template <typename T>
ref::Dense<T> make_hpd(int n, std::uint64_t seed) {
    auto B = ref::random_dense<T>(n, n, seed);
    auto A = ref::gemm(Op::NoTrans, Op::ConjTrans, T(1), B, B);
    for (int i = 0; i < n; ++i)
        A(i, i) += from_real<T>(static_cast<real_t<T>>(n));
    return A;
}

}  // namespace

TYPED_TEST(BlasFactor, LowerReconstructs) {
    using T = TypeParam;
    int const n = 11;
    auto A = make_hpd<T>(n, 1);
    auto L = A;
    blas::potrf(Uplo::Lower, as_tile(L));
    // Zero the strict upper part (kernel leaves it untouched).
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < j; ++i)
            L(i, j) = T(0);
    auto R = ref::gemm(Op::NoTrans, Op::ConjTrans, T(1), L, L);
    EXPECT_LE(ref::diff_fro(R, A), test::tol<T>(500) * (1 + ref::norm_fro(A)));
}

TYPED_TEST(BlasFactor, UpperReconstructs) {
    using T = TypeParam;
    int const n = 9;
    auto A = make_hpd<T>(n, 2);
    auto U = A;
    blas::potrf(Uplo::Upper, as_tile(U));
    for (int j = 0; j < n; ++j)
        for (int i = j + 1; i < n; ++i)
            U(i, j) = T(0);
    auto R = ref::gemm(Op::ConjTrans, Op::NoTrans, T(1), U, U);
    EXPECT_LE(ref::diff_fro(R, A), test::tol<T>(500) * (1 + ref::norm_fro(A)));
}

TYPED_TEST(BlasFactor, DiagonalIsPositive) {
    using T = TypeParam;
    int const n = 6;
    auto A = make_hpd<T>(n, 3);
    blas::potrf(Uplo::Lower, as_tile(A));
    for (int i = 0; i < n; ++i)
        EXPECT_GT(real_part(A(i, i)), real_t<T>(0));
}

TYPED_TEST(BlasFactor, IndefiniteThrows) {
    using T = TypeParam;
    // n = 4 runs the element loops; at n = 64 the bad pivot sits in the
    // first (index 5) or the second (index 40) half of the recursion.
    struct Case {
        int n, bad;
    };
    for (Case c : {Case{4, 2}, Case{64, 5}, Case{64, 40}})
        for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
            ref::Dense<T> A(c.n, c.n);
            for (int i = 0; i < c.n; ++i)
                A(i, i) = T(1);
            A(c.bad, c.bad) = T(-1);  // indefinite
            EXPECT_THROW(blas::potrf(uplo, as_tile(A)), Error)
                << "n=" << c.n << " pivot " << c.bad;
        }
}

TYPED_TEST(BlasFactor, SingularThrows) {
    using T = TypeParam;
    {
        int const n = 3;
        ref::Dense<T> A(n, n);  // all zeros
        EXPECT_THROW(blas::potrf(Uplo::Lower, as_tile(A)), Error);
    }
    // A diagonal matrix with one zero pivot, in the first (bad = 10) or the
    // second (bad = 40) half of the recursion.
    int const n = 64;
    for (int bad : {10, 40})
        for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
            ref::Dense<T> A(n, n);
            for (int i = 0; i < n; ++i)
                A(i, i) = (i == bad) ? T(0) : T(4);
            EXPECT_THROW(blas::potrf(uplo, as_tile(A)), Error)
                << "pivot " << bad;
        }
}

TYPED_TEST(BlasFactor, OneByOne) {
    using T = TypeParam;
    ref::Dense<T> A(1, 1);
    A(0, 0) = T(9);
    blas::potrf(Uplo::Lower, as_tile(A));
    EXPECT_NEAR(real_part(A(0, 0)), real_t<T>(3), test::tol<T>());
}
