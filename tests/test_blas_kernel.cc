// Micro-kernel layer (blas/kernel/) vs the naive reference loops.
//
// Every routine that dispatches between a packed/blocked path and the naive
// element loops is checked for bitwise-plausible agreement on the same
// inputs: gemm across all op combinations, odd/fringe sizes (deliberately
// not multiples of any MR/NR/MC/KC), strided sub-views with ld > mb, and the
// alpha/beta corner cases including the beta == 0 store-zeros convention.
// herk/trsm and the Householder appliers run their public entries
// against the *_naive oracles over a sweep of tile sizes around the
// recursion's base case (kTriBase = 16) and the production tiles 64 and 192,
// on strided sub-views; geqrt/tsqrt/ttqrt must store T with an exactly zero
// strict lower triangle, which the appliers' dense op(T) GEMM relies on.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "blas/factor.hh"
#include "blas/gemm.hh"
#include "blas/householder.hh"
#include "blas/level3.hh"
#include "ref/dense.hh"
#include "test_util.hh"

using namespace tbp;

template <typename T>
class BlasKernel : public ::testing::Test {};
TYPED_TEST_SUITE(BlasKernel, test::AllTypes);

namespace {

template <typename T>
Tile<T> as_tile(ref::Dense<T>& D) {
    return Tile<T>(D.data(), static_cast<int>(D.m()), static_cast<int>(D.n()),
                   static_cast<int>(D.m()));
}

/// Agreement tolerance between two level-3 formulations of the same product:
/// both accumulate ~k rounding steps, so scale eps by the reduction depth.
template <typename T>
real_t<T> path_tol(int k) {
    return test::tol<T>(50.0 * std::max(k, 8));
}

template <typename T>
void check_gemm_paths(Op opA, Op opB, int m, int n, int k, T alpha, T beta) {
    auto A = (opA == Op::NoTrans) ? ref::random_dense<T>(m, k, 17)
                                  : ref::random_dense<T>(k, m, 17);
    auto B = (opB == Op::NoTrans) ? ref::random_dense<T>(k, n, 29)
                                  : ref::random_dense<T>(n, k, 29);
    auto C = ref::random_dense<T>(m, n, 43);
    auto Cref = C;

    blas::gemm_naive(opA, opB, alpha, as_tile(A), as_tile(B), beta,
                     as_tile(Cref));
    blas::kernel::gemm(opA, opB, alpha, as_tile(A), as_tile(B), beta,
                       as_tile(C));
    EXPECT_LE(ref::diff_fro(C, Cref),
              path_tol<T>(k) * (1 + ref::norm_fro(Cref)))
        << "opA=" << static_cast<int>(opA) << " opB=" << static_cast<int>(opB)
        << " m=" << m << " n=" << n << " k=" << k;
}

/// Tile sizes of the public-entry sweeps: the triangular base case and its
/// neighbours, odd recursion splits, and the production tiles 64 and 192.
constexpr int kSweep[] = {16, 17, 32, 63, 64, 65, 128, 192};

/// An m-by-n operand stored as an interior window of a larger random buffer
/// (ld > mb, nonzero offsets), plus an identical copy for the naive oracle.
template <typename T>
struct Framed {
    static constexpr int kPad = 3;
    int m, n;
    ref::Dense<T> buf, orc;
    Framed(int m_, int n_, std::uint64_t seed)
        : m(m_), n(n_),
          buf(ref::random_dense<T>(m_ + 2 * kPad + 1, n_ + 2 * kPad, seed)),
          orc(buf) {}
    Tile<T> tile() { return as_tile(buf).sub(kPad, kPad, m, n); }
    Tile<T> oracle() { return as_tile(orc).sub(kPad, kPad, m, n); }
};

/// The window agrees with the oracle's to path_tol<T>(depth), relative to
/// its norm, and the frame around it is bitwise untouched.
template <typename T>
::testing::AssertionResult framed_close(Framed<T> const& F, int depth) {
    using R = real_t<T>;
    int const P = Framed<T>::kPad;
    R d2(0), r2(0);
    for (std::int64_t j = 0; j < F.buf.n(); ++j)
        for (std::int64_t i = 0; i < F.buf.m(); ++i) {
            bool const inside =
                i >= P && i < P + F.m && j >= P && j < P + F.n;
            if (inside) {
                d2 += abs_sq(F.buf(i, j) - F.orc(i, j));
                r2 += abs_sq(F.orc(i, j));
            } else if (!(F.buf(i, j) == F.orc(i, j))) {
                return ::testing::AssertionFailure()
                       << "frame touched at (" << i << "," << j << ")";
            }
        }
    R const d = std::sqrt(d2);
    R const bound = path_tol<T>(depth) * (1 + std::sqrt(r2));
    if (d <= bound)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "diff " << d << " > " << bound;
}

}  // namespace

TYPED_TEST(BlasKernel, GemmAllOpsOddSizes) {
    using T = TypeParam;
    T const alpha = from_real<T>(real_t<T>(1.25));
    T const beta = from_real<T>(real_t<T>(-0.5));
    for (Op opA : {Op::NoTrans, Op::Trans, Op::ConjTrans})
        for (Op opB : {Op::NoTrans, Op::Trans, Op::ConjTrans})
            check_gemm_paths<T>(opA, opB, 37, 29, 31, alpha, beta);
}

TYPED_TEST(BlasKernel, GemmFringeSizes) {
    using T = TypeParam;
    T const alpha = from_real<T>(real_t<T>(0.75));
    T const beta = from_real<T>(real_t<T>(1.5));
    // Degenerate panels, single rows/columns, and sizes straddling the
    // register/cache blocking (MR/NR fringes, MC/KC boundaries).
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, 5, 67, 3, alpha, beta);
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, 130, 70, 85, alpha, beta);
    check_gemm_paths<T>(Op::ConjTrans, Op::NoTrans, 1, 9, 200, alpha, beta);
    check_gemm_paths<T>(Op::NoTrans, Op::ConjTrans, 97, 1, 33, alpha, beta);
    check_gemm_paths<T>(Op::Trans, Op::Trans, 33, 31, 1, alpha, beta);
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, 257, 129, 96, alpha, beta);
}

TEST(BlasKernelDouble, GemmStripBoundarySweep) {
    // m around every multiple of the double MR (32) and the MC panel (96),
    // n around NR (6): full strips, fringe strips and single rows.
    for (int m : {1, 16, 31, 32, 33, 63, 64, 65, 95, 96, 97, 129})
        for (int n : {5, 6, 7})
            for (Op opA : {Op::NoTrans, Op::Trans, Op::ConjTrans})
                for (Op opB : {Op::NoTrans, Op::Trans, Op::ConjTrans})
                    for (double beta : {0.0, 1.0})
                        check_gemm_paths<double>(opA, opB, m, n, 37, -0.75,
                                                 beta);
}

TYPED_TEST(BlasKernel, GemmAlphaBetaCorners) {
    using T = TypeParam;
    int const m = 41, n = 23, k = 19;
    T const one(1), zero(0);
    T const a = from_real<T>(real_t<T>(2.0));
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, m, n, k, zero, a);
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, m, n, k, a, zero);
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, m, n, k, one, one);
    check_gemm_paths<T>(Op::NoTrans, Op::NoTrans, m, n, k, zero, zero);
}

TYPED_TEST(BlasKernel, GemmSubViewsLdGtMb) {
    using T = TypeParam;
    // Operands are interior windows of a larger tile, so every view has
    // ld > mb and a nonzero row/col offset — the packing routines must honor
    // the stride, and stores must not touch the frame.
    int const M = 150, N = 140;
    int const m = 53, n = 38, k = 47;
    auto Abig = ref::random_dense<T>(M, N, 7);
    auto Bbig = ref::random_dense<T>(M, N, 8);
    auto Cbig = ref::random_dense<T>(M, N, 9);
    auto Cframe = Cbig;

    auto A = as_tile(Abig).sub(11, 5, m, k);
    auto B = as_tile(Bbig).sub(3, 21, k, n);
    auto C = as_tile(Cbig).sub(29, 17, m, n);

    ref::Dense<T> Ad(m, k), Bd(k, n), Cd(m, n);
    for (int j = 0; j < k; ++j)
        for (int i = 0; i < m; ++i)
            Ad(i, j) = A(i, j);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < k; ++i)
            Bd(i, j) = B(i, j);
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            Cd(i, j) = C(i, j);

    T const alpha = from_real<T>(real_t<T>(1.5));
    T const beta = from_real<T>(real_t<T>(0.25));
    blas::gemm_naive(Op::NoTrans, Op::NoTrans, alpha, as_tile(Ad),
                     as_tile(Bd), beta, as_tile(Cd));
    blas::kernel::gemm(Op::NoTrans, Op::NoTrans, alpha, A, B, beta, C);

    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            EXPECT_LE(std::abs(C(i, j) - Cd(i, j)),
                      path_tol<T>(k) * (1 + std::abs(Cd(i, j))));

    // The frame around the window must be untouched.
    for (int j = 0; j < N; ++j)
        for (int i = 0; i < M; ++i) {
            bool const inside =
                i >= 29 && i < 29 + m && j >= 17 && j < 17 + n;
            if (!inside) {
                ASSERT_EQ(Cbig(i, j), Cframe(i, j))
                    << "frame touched at (" << i << "," << j << ")";
            }
        }
}

TYPED_TEST(BlasKernel, GemmBetaZeroClearsNaN) {
    using T = TypeParam;
    using R = real_t<T>;
    int const m = 40, n = 36, k = 24;
    auto A = ref::random_dense<T>(m, k, 4);
    auto B = ref::random_dense<T>(k, n, 5);
    ref::Dense<T> C(m, n);
    R const qnan = std::numeric_limits<R>::quiet_NaN();
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            C(i, j) = from_real<T>(qnan);
    auto Cref = ref::gemm(Op::NoTrans, Op::NoTrans, T(1), A, B);

    // beta == 0 must overwrite, never scale: NaNs in C may not survive.
    blas::kernel::gemm(Op::NoTrans, Op::NoTrans, T(1), as_tile(A), as_tile(B),
                       T(0), as_tile(C));
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            ASSERT_TRUE(std::isfinite(std::abs(C(i, j))));
    EXPECT_LE(ref::diff_fro(C, Cref),
              path_tol<T>(k) * (1 + ref::norm_fro(Cref)));

    // Same convention on the naive path.
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            C(i, j) = from_real<T>(qnan);
    blas::gemm_naive(Op::NoTrans, Op::NoTrans, T(1), as_tile(A), as_tile(B),
                     T(0), as_tile(C));
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            ASSERT_TRUE(std::isfinite(std::abs(C(i, j))));
}

TYPED_TEST(BlasKernel, UnmqrLevel3MatchesNaive) {
    using T = TypeParam;
    int const mb = 96, nb = 32, nn = 40;
    auto V = ref::random_dense<T>(mb, nb, 91);
    ref::Dense<T> Tf(nb, nb);
    blas::geqrt(as_tile(V), as_tile(Tf));

    for (Op op : {Op::NoTrans, Op::ConjTrans}) {
        auto C = ref::random_dense<T>(mb, nn, 92);
        auto Cref = C;
        blas::unmqr_naive(op, as_tile(V), as_tile(Tf), as_tile(Cref));
        blas::unmqr_level3(op, as_tile(V), as_tile(Tf), as_tile(C));
        EXPECT_LE(ref::diff_fro(C, Cref),
                  path_tol<T>(mb) * (1 + ref::norm_fro(Cref)))
            << "op=" << static_cast<int>(op);
    }
}

TYPED_TEST(BlasKernel, TsmqrLevel3MatchesNaive) {
    using T = TypeParam;
    int const n = 32, m2 = 96, nn = 40;
    auto A1 = ref::random_dense<T>(n, n, 93);
    auto A2 = ref::random_dense<T>(m2, n, 94);
    ref::Dense<T> Tf(n, n);
    blas::tsqrt(as_tile(A1), as_tile(A2), as_tile(Tf));

    for (Op op : {Op::NoTrans, Op::ConjTrans}) {
        auto C1 = ref::random_dense<T>(n, nn, 95);
        auto C2 = ref::random_dense<T>(m2, nn, 96);
        auto C1ref = C1, C2ref = C2;
        blas::tsmqr_naive(op, as_tile(A2), as_tile(Tf), as_tile(C1ref),
                          as_tile(C2ref));
        blas::tsmqr_level3(op, as_tile(A2), as_tile(Tf), as_tile(C1),
                           as_tile(C2));
        EXPECT_LE(ref::diff_fro(C1, C1ref),
                  path_tol<T>(m2) * (1 + ref::norm_fro(C1ref)))
            << "op=" << static_cast<int>(op);
        EXPECT_LE(ref::diff_fro(C2, C2ref),
                  path_tol<T>(m2) * (1 + ref::norm_fro(C2ref)))
            << "op=" << static_cast<int>(op);
    }
}

TYPED_TEST(BlasKernel, PublicGemmRoutesAndCounts) {
    using T = TypeParam;
    // The public entry must agree with the naive path regardless of which
    // kernel it picks, and the flop counter must advance by the model count.
    int const m = 80, n = 72, k = 64;
    auto A = ref::random_dense<T>(m, k, 97);
    auto B = ref::random_dense<T>(k, n, 98);
    auto C = ref::random_dense<T>(m, n, 99);
    auto Cref = C;
    T const alpha = from_real<T>(real_t<T>(1.5));
    T const beta = from_real<T>(real_t<T>(0.5));

    blas::gemm_naive(Op::NoTrans, Op::NoTrans, alpha, as_tile(A), as_tile(B),
                     beta, as_tile(Cref));
    double const f0 = blas::kernel::flops_performed();
    blas::gemm(Op::NoTrans, Op::NoTrans, alpha, as_tile(A), as_tile(B), beta,
               as_tile(C));
    double const df = blas::kernel::flops_performed() - f0;
    EXPECT_LE(ref::diff_fro(C, Cref),
              path_tol<T>(k) * (1 + ref::norm_fro(Cref)));
    EXPECT_DOUBLE_EQ(df, flops::gemm(m, n, k) * (fma_flops<T>() / 2.0));
}

TYPED_TEST(BlasKernel, HerkMatchesNaiveSweep) {
    using T = TypeParam;
    using R = real_t<T>;
    R const alpha = R(0.5), beta = R(-1.5);
    for (int n : kSweep)
        for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
            for (Op op : {Op::NoTrans, Op::ConjTrans}) {
                int const k = n + 3;
                Framed<T> A(op == Op::NoTrans ? n : k,
                            op == Op::NoTrans ? k : n, 21 + n);
                Framed<T> C(n, n, 31 + n);
                blas::herk_naive(uplo, op, alpha, A.tile(), beta, C.oracle());
                blas::herk(uplo, op, alpha, A.tile(), beta, C.tile());
                EXPECT_TRUE(framed_close(C, k))
                    << "n=" << n << " uplo=" << static_cast<int>(uplo)
                    << " op=" << static_cast<int>(op);
            }
}

TYPED_TEST(BlasKernel, TrsmMatchesNaiveSweep) {
    using T = TypeParam;
    T const alpha = from_real<T>(real_t<T>(2.0));
    for (int n : kSweep)
        for (Side side : {Side::Left, Side::Right})
            for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
                for (Op op : {Op::NoTrans, Op::Trans, Op::ConjTrans})
                    for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
                        // Off-diagonal entries O(1/n) and a shifted diagonal
                        // keep both the unit and non-unit solves well
                        // conditioned at every size.
                        Framed<T> A(n, n, 51 + n);
                        auto At = A.tile();
                        for (int j = 0; j < n; ++j)
                            for (int i = 0; i < n; ++i)
                                At(i, j) *= from_real<T>(real_t<T>(1) / n);
                        for (int i = 0; i < n; ++i)
                            At(i, i) += T(1);
                        // The recursion splits only the triangular
                        // dimension; the other one stays a fringe size.
                        int const other = std::min(n, 64) - 5;
                        int const m = (side == Side::Left) ? n : other;
                        int const nrhs = (side == Side::Left) ? other : n;
                        Framed<T> B(m, nrhs, 61 + n);
                        blas::trsm_naive(side, uplo, op, diag, alpha, At,
                                         B.oracle());
                        blas::trsm(side, uplo, op, diag, alpha, At, B.tile());
                        EXPECT_TRUE(framed_close(B, n))
                            << "n=" << n
                            << " side=" << static_cast<int>(side)
                            << " uplo=" << static_cast<int>(uplo)
                            << " op=" << static_cast<int>(op)
                            << " diag=" << static_cast<int>(diag);
                    }
}

TYPED_TEST(BlasKernel, UnmqrMatchesNaiveSweep) {
    using T = TypeParam;
    for (int n : kSweep) {
        Framed<T> V(n, n, 91 + n), Tf(n, n, 92 + n);
        blas::geqrt(V.tile(), Tf.tile());
        for (Op op : {Op::NoTrans, Op::ConjTrans}) {
            Framed<T> C(n, n, 93 + n);
            blas::unmqr_naive(op, V.tile(), Tf.tile(), C.oracle());
            blas::unmqr(op, V.tile(), Tf.tile(), C.tile());
            EXPECT_TRUE(framed_close(C, n))
                << "n=" << n << " op=" << static_cast<int>(op);
        }
    }
}

TYPED_TEST(BlasKernel, TsmqrMatchesNaiveSweep) {
    using T = TypeParam;
    for (int n : kSweep) {
        Framed<T> A1(n, n, 94 + n), A2(n, n, 95 + n), Tf(n, n, 96 + n);
        blas::tsqrt(A1.tile(), A2.tile(), Tf.tile());
        for (Op op : {Op::NoTrans, Op::ConjTrans}) {
            Framed<T> C1(n, n, 97 + n), C2(n, n, 98 + n);
            blas::tsmqr_naive(op, A2.tile(), Tf.tile(), C1.oracle(),
                              C2.oracle());
            blas::tsmqr(op, A2.tile(), Tf.tile(), C1.tile(), C2.tile());
            EXPECT_TRUE(framed_close(C1, 2 * n))
                << "C1 n=" << n << " op=" << static_cast<int>(op);
            EXPECT_TRUE(framed_close(C2, 2 * n))
                << "C2 n=" << n << " op=" << static_cast<int>(op);
        }
    }
}

TYPED_TEST(BlasKernel, TtmqrMatchesNaiveSweep) {
    using T = TypeParam;
    for (int n : kSweep) {
        Framed<T> A1(n, n, 101 + n), A2(n, n, 102 + n), Tf(n, n, 103 + n);
        blas::ttqrt(A1.tile(), A2.tile(), Tf.tile());
        for (Op op : {Op::NoTrans, Op::ConjTrans})
            for (bool c2_zero : {false, true}) {
                Framed<T> C1(n, n, 104 + n), C2(n, n, 105 + n);
                blas::ttmqr_naive(op, A2.tile(), Tf.tile(), C1.oracle(),
                                  C2.oracle(), c2_zero);
                blas::ttmqr(op, A2.tile(), Tf.tile(), C1.tile(), C2.tile(),
                            c2_zero);
                EXPECT_TRUE(framed_close(C1, 2 * n))
                    << "C1 n=" << n << " op=" << static_cast<int>(op)
                    << " c2_zero=" << c2_zero;
                EXPECT_TRUE(framed_close(C2, 2 * n))
                    << "C2 n=" << n << " op=" << static_cast<int>(op)
                    << " c2_zero=" << c2_zero;
            }
    }
}

namespace {

/// Tf's leading k columns: strict lower triangle exactly zero, the rest
/// finite (Tf was NaN-filled before the factorization wrote it).
template <typename T>
::testing::AssertionResult tfactor_clean(ref::Dense<T> const& Tf, int k) {
    for (int j = 0; j < k; ++j)
        for (int i = 0; i < Tf.m(); ++i) {
            bool const ok = (i > j) ? Tf(i, j) == T(0)
                                    : std::isfinite(std::abs(Tf(i, j)));
            if (!ok)
                return ::testing::AssertionFailure()
                       << "Tf(" << i << "," << j << ") = " << Tf(i, j);
        }
    return ::testing::AssertionSuccess();
}

template <typename T>
ref::Dense<T> nan_dense(int m, int n) {
    ref::Dense<T> D(m, n);
    auto const qnan = std::numeric_limits<real_t<T>>::quiet_NaN();
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < m; ++i)
            D(i, j) = from_real<T>(qnan);
    return D;
}

/// Make column c of the stacked pair [A1; A2] an identity-like column:
/// A1(0:c, c) = 0, A1(c, c) real and A2's column zero, so the reflectors
/// before it leave it alone and its own reflector has tau == 0.
template <typename T>
void identity_column(Tile<T> const& A1, Tile<T> const& A2, int c) {
    for (int i = 0; i < c; ++i)
        A1(i, c) = T(0);
    A1(c, c) = from_real<T>(real_part(A1(c, c)));
    for (int i = 0; i < A2.mb(); ++i)
        A2(i, c) = T(0);
}

}  // namespace

TYPED_TEST(BlasKernel, TFactorStrictLowerIsZero) {
    using T = TypeParam;
    // {rows, cols, zero column or -1}: mb < nb, ragged tall and wide tiles,
    // and tau == 0 columns at the first, a middle and the last reflector.
    struct Shape {
        int mb, nb, zero_col;
    };
    // 64 and 128 (and the 70-row wide tile) go through the recursion.
    for (Shape sh : {Shape{8, 12, -1}, Shape{17, 13, -1}, Shape{13, 17, 4},
                     Shape{64, 64, 0}, Shape{64, 64, 7}, Shape{17, 17, 16},
                     Shape{128, 128, 70}, Shape{160, 128, 127},
                     Shape{70, 128, 3}}) {
        int const k = std::min(sh.mb, sh.nb);
        auto A = ref::random_dense<T>(sh.mb, sh.nb, 111 + sh.mb);
        if (sh.zero_col >= 0)
            for (int i = 0; i < sh.mb; ++i)
                A(i, sh.zero_col) = T(0);
        auto Tf = nan_dense<T>(sh.nb + 2, sh.nb);
        blas::geqrt(as_tile(A), as_tile(Tf));
        EXPECT_TRUE(tfactor_clean(Tf, k)) << "geqrt " << sh.mb << "x" << sh.nb;
        if (sh.zero_col >= 0) {
            EXPECT_EQ(Tf(sh.zero_col, sh.zero_col), T(0));
        }
    }

    // {n, m2, A1 rows, zero column}: tsqrt takes any m2, ttqrt m2 <= n.
    struct Pair {
        int n, m2, a1mb, zero_col;
    };
    for (Pair p : {Pair{12, 5, 12, -1}, Pair{13, 17, 16, 0},
                   Pair{64, 64, 64, 7}, Pair{17, 17, 17, 16},
                   Pair{17, 9, 19, 3}, Pair{64, 40, 66, 33},
                   Pair{128, 128, 128, 70}, Pair{128, 200, 130, 0}}) {
        for (bool tt : {false, true}) {
            if (tt && p.m2 > p.n)
                continue;
            auto A1 = ref::random_dense<T>(p.a1mb, p.n, 121 + p.n);
            auto A2 = ref::random_dense<T>(p.m2, p.n, 122 + p.m2);
            if (p.zero_col >= 0)
                identity_column(as_tile(A1), as_tile(A2), p.zero_col);
            auto Tf = nan_dense<T>(p.n + 2, p.n);
            if (tt)
                blas::ttqrt(as_tile(A1), as_tile(A2), as_tile(Tf));
            else
                blas::tsqrt(as_tile(A1), as_tile(A2), as_tile(Tf));
            EXPECT_TRUE(tfactor_clean(Tf, p.n))
                << (tt ? "ttqrt " : "tsqrt ") << p.n << " over " << p.m2;
            if (p.zero_col >= 0) {
                EXPECT_EQ(Tf(p.zero_col, p.zero_col), T(0));
            }
        }
    }
}

namespace {

/// Fill F's window (in both copies) with the Hermitian positive definite
/// G G^H + n I for a random G.
template <typename T>
void hpd_window(Framed<T>& F, std::uint64_t seed) {
    int const n = F.m;
    auto G = ref::random_dense<T>(n, n, seed);
    auto H = ref::gemm(Op::NoTrans, Op::ConjTrans, T(1), G, G);
    for (int i = 0; i < n; ++i)
        H(i, i) += from_real<T>(static_cast<real_t<T>>(n));
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
            F.tile()(i, j) = F.oracle()(i, j) = H(i, j);
}

}  // namespace

TYPED_TEST(BlasKernel, GeqrtMatchesNaiveSweep) {
    using T = TypeParam;
    struct Shape {
        int mb, nb;
    };
    for (int n : kSweep)
        // Square, tall, wide and ragged tiles; column n / 3 is zero, so its
        // reflector has tau == 0. Tf has two spare rows below k.
        for (Shape sh : {Shape{n, n}, Shape{n + 13, n}, Shape{n, n + 5},
                         Shape{n - 1, n + 2}}) {
            int const k = std::min(sh.mb, sh.nb);
            Framed<T> A(sh.mb, sh.nb, 131 + n), Tf(k + 2, k, 132 + n);
            for (int i = 0; i < sh.mb; ++i)
                A.tile()(i, n / 3) = A.oracle()(i, n / 3) = T(0);
            blas::geqrt_naive(A.oracle(), Tf.oracle());
            blas::geqrt(A.tile(), Tf.tile());
            EXPECT_TRUE(framed_close(A, sh.mb))
                << "A " << sh.mb << "x" << sh.nb;
            EXPECT_TRUE(framed_close(Tf, sh.mb))
                << "Tf " << sh.mb << "x" << sh.nb;
        }
}

TYPED_TEST(BlasKernel, TsqrtTtqrtMatchNaiveSweep) {
    using T = TypeParam;
    for (int n : kSweep)
        // tsqrt over m2 = n, a taller and a shorter A2; ttqrt over the
        // square and two shorter trapezoids. Column n / 3 is an identity
        // column (tau == 0); A1 has spare rows below n and Tf below n,
        // and ttqrt's A2 keeps random values below its trapezoid, which
        // neither path may read or write.
        for (bool tt : {false, true})
            for (int m2 : {n, tt ? n - 3 : n + 7, n / 2 + 1}) {
                Framed<T> A1(n + 2, n, 141 + n), A2(m2, n, 142 + m2),
                    Tf(n + 2, n, 143 + n);
                identity_column(A1.tile(), A2.tile(), n / 3);
                identity_column(A1.oracle(), A2.oracle(), n / 3);
                if (tt) {
                    blas::ttqrt_naive(A1.oracle(), A2.oracle(), Tf.oracle());
                    blas::ttqrt(A1.tile(), A2.tile(), Tf.tile());
                } else {
                    blas::tsqrt_naive(A1.oracle(), A2.oracle(), Tf.oracle());
                    blas::tsqrt(A1.tile(), A2.tile(), Tf.tile());
                }
                char const* name = tt ? "ttqrt" : "tsqrt";
                EXPECT_TRUE(framed_close(A1, n + m2))
                    << name << " A1 n=" << n << " m2=" << m2;
                EXPECT_TRUE(framed_close(A2, n + m2))
                    << name << " A2 n=" << n << " m2=" << m2;
                EXPECT_TRUE(framed_close(Tf, n + m2))
                    << name << " Tf n=" << n << " m2=" << m2;
            }
}

TYPED_TEST(BlasKernel, PotrfMatchesNaiveSweep) {
    using T = TypeParam;
    for (int n : kSweep)
        for (Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
            Framed<T> A(n, n, 151 + n);
            hpd_window(A, 152 + n);
            blas::potrf_naive(uplo, A.oracle());
            blas::potrf(uplo, A.tile());
            EXPECT_TRUE(framed_close(A, n))
                << "n=" << n << " uplo=" << static_cast<int>(uplo);
        }
}

TYPED_TEST(BlasKernel, TrsmBaseMatchesNaive) {
    using T = TypeParam;
    // trsm_base directly at and below the base case (the sweep above
    // reaches it through the recursion), with a right-hand-side dimension
    // that is not a multiple of its vector groups.
    T const alpha = from_real<T>(real_t<T>(-1.5));
    for (int n : {1, 2, 7, 16})
        for (Side side : {Side::Left, Side::Right})
            for (Uplo uplo : {Uplo::Lower, Uplo::Upper})
                for (Op op : {Op::NoTrans, Op::Trans, Op::ConjTrans})
                    for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
                        Framed<T> A(n, n, 161 + n);
                        auto At = A.tile();
                        for (int j = 0; j < n; ++j)
                            for (int i = 0; i < n; ++i)
                                At(i, j) *= from_real<T>(real_t<T>(1) / n);
                        for (int i = 0; i < n; ++i)
                            At(i, i) += T(1);
                        bool const left = side == Side::Left;
                        Framed<T> B(left ? n : 45, left ? 37 : n, 162 + n);
                        blas::trsm_naive(side, uplo, op, diag, alpha, At,
                                         B.oracle());
                        blas::trsm_base(side, uplo, op, diag, alpha, At,
                                        B.tile());
                        EXPECT_TRUE(framed_close(B, n))
                            << "n=" << n
                            << " side=" << static_cast<int>(side)
                            << " uplo=" << static_cast<int>(uplo)
                            << " op=" << static_cast<int>(op)
                            << " diag=" << static_cast<int>(diag);
                    }
}

TYPED_TEST(BlasKernel, PanelFlopChargesMatchFormulas) {
    using T = TypeParam;
    // At n = 64 every public entry below runs its recursion, whose inner
    // calls must not charge: each call adds exactly its formula, truncated
    // once as count_flops does.
    int const n = 64;
    double const w = fma_flops<T>() / 2.0;
    auto units = [w](double fl) {
        return static_cast<double>(static_cast<std::uint64_t>(fl * w));
    };
    auto charged = [](auto&& call) {
        double const f0 = blas::kernel::flops_performed();
        call();
        return blas::kernel::flops_performed() - f0;
    };
    auto A = ref::random_dense<T>(n, n, 171);
    auto B = ref::random_dense<T>(n, n, 172);
    auto C = ref::random_dense<T>(n, n, 173);
    ref::Dense<T> Tf(n, n);

    EXPECT_EQ(charged([&] { blas::geqrt(as_tile(A), as_tile(Tf)); }),
              units(flops::geqrf(n, n)));
    EXPECT_EQ(charged([&] {
                  blas::tsqrt(as_tile(A), as_tile(B), as_tile(Tf));
              }),
              units(flops::tsqrt(n, n)));
    EXPECT_EQ(charged([&] {
                  blas::ttqrt(as_tile(A), as_tile(C), as_tile(Tf));
              }),
              units(flops::ttqrt(n, n)));

    Framed<T> L(n, n, 174);
    hpd_window(L, 175);
    EXPECT_EQ(charged([&] { blas::potrf(Uplo::Lower, L.tile()); }),
              units(flops::potrf(n)));
    EXPECT_EQ(charged([&] {
                  blas::trsm(Side::Right, Uplo::Lower, Op::ConjTrans,
                             Diag::NonUnit, T(1), L.tile(), as_tile(B));
              }),
              units(flops::trsm_right(n, n)));
}
