// Future-work extensions: mixed-precision QDWH (the Float request) and
// partial-spectrum subspace extraction.

#include <gtest/gtest.h>

#include <cmath>

#include "core/qdwh.hh"
#include "core/subspace.hh"
#include "gen/matgen.hh"
#include "ref/jacobi.hh"
#include "test_util.hh"

using namespace tbp;

namespace {

/// QDWH with the Float request: every iteration on the float rung except
/// the native tail.
QdwhOptions float_request() {
    QdwhOptions qo;
    qo.precision.request = prec::Precision::Float;
    return qo;
}

}  // namespace

TEST(QdwhFloat, ReachesDoubleOrthogonality) {
    rt::Engine eng(3);
    gen::MatGenOptions opt;
    opt.cond = 1e6;  // within float's capability for the low-precision rungs
    opt.seed = 161;
    int const n = 40, nb = 8;
    auto A = gen::cond_matrix<double>(eng, n, n, nb, opt);
    auto Ad = ref::to_dense(A);
    TiledMatrix<double> H(n, n, nb);
    auto info = qdwh(eng, A, H, float_request());

    auto U = ref::to_dense(A);
    double const orth = ref::orthogonality(U) / std::sqrt(static_cast<double>(n));
    EXPECT_LE(orth, 1e-14);  // double-precision orthogonality
    auto UH = ref::gemm(Op::NoTrans, Op::NoTrans, 1.0, U, ref::to_dense(H));
    // Backward error is bounded by the float rungs' backward stability
    // (eps32-level), not eps64 — the Float request's contract
    // (core/precision_policy.hh).
    EXPECT_LE(ref::diff_fro(UH, Ad) / ref::norm_fro(Ad), 50 * 1.2e-7);

    // Every planned iteration runs on the float rung; the last one is the
    // native tail that cubes the float-level orthogonality error away.
    ASSERT_GE(info.rungs.size(), 2u);
    for (std::size_t k = 0; k + 1 < info.rungs.size(); ++k)
        EXPECT_EQ(info.rungs[k], prec::Prec::Float) << "iteration " << k;
    EXPECT_EQ(info.rungs.back(), prec::Prec::Double);
}

TEST(QdwhFloat, MatchesFullDoubleResult) {
    gen::MatGenOptions opt;
    opt.cond = 1e4;  // forward error scales as eps32 * kappa
    opt.seed = 162;
    int const n = 32, nb = 8;
    ref::Dense<double> u_float, u_double;
    {
        rt::Engine eng(3);
        auto A = gen::cond_matrix<double>(eng, n, n, nb, opt);
        TiledMatrix<double> H(n, n, nb);
        qdwh(eng, A, H, float_request());
        u_float = ref::to_dense(A);
    }
    {
        rt::Engine eng(3);
        auto A = gen::cond_matrix<double>(eng, n, n, nb, opt);
        TiledMatrix<double> H(n, n, nb);
        qdwh(eng, A, H);
        u_double = ref::to_dense(A);
    }
    // eps32 * kappa = 1.2e-7 * 1e4 ~ 1e-3 worst case; typically well below.
    EXPECT_LE(ref::diff_fro(u_float, u_double), 1.2e-7 * 1e4);
}

TEST(QdwhFloat, Rectangular) {
    rt::Engine eng(3);
    gen::MatGenOptions opt;
    opt.cond = 1e3;
    opt.seed = 163;
    int const m = 50, n = 20, nb = 8;
    auto A = gen::cond_matrix<double>(eng, m, n, nb, opt);
    TiledMatrix<double> H(n, n, nb);
    qdwh(eng, A, H, float_request());
    auto U = ref::to_dense(A);
    EXPECT_LE(ref::orthogonality(U) / std::sqrt(static_cast<double>(n)), 1e-14);
}

namespace {

/// Hermitian matrix with prescribed eigenvalues (ascending) via a random
/// orthogonal similarity.
ref::Dense<double> hermitian_with_spectrum(rt::Engine& eng,
                                           std::vector<double> const& lam,
                                           int nb, std::uint64_t seed) {
    int const n = static_cast<int>(lam.size());
    auto Q = gen::random_orthonormal<double>(eng, n, n, nb, seed);
    auto Qd = ref::to_dense(Q);
    auto QL = Qd;
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
            QL(i, j) = Qd(i, j) * lam[static_cast<size_t>(j)];
    return ref::gemm(Op::NoTrans, Op::ConjTrans, 1.0, QL, Qd);
}

}  // namespace

TEST(Subspace, ExtractsDominantInvariantSubspace) {
    rt::Engine eng(3);
    int const n = 36, nb = 8;
    std::vector<double> lam(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        lam[static_cast<size_t>(i)] = (i < 30) ? -1.0 - 0.1 * i : 2.0 + 0.1 * i;
    auto Ad = hermitian_with_spectrum(eng, lam, nb, 171);
    auto A = ref::to_tiled(Ad, nb);

    auto res = qdwh_subspace<double>(eng, A, /*mu=*/0.0);
    EXPECT_EQ(res.dim, 6);  // six eigenvalues above zero

    // Basis is orthonormal and invariant: ||A Q - Q (Q^H A Q)|| small.
    auto Q = ref::to_dense(res.basis);
    EXPECT_LE(ref::orthogonality(Q), 1e-12 * n);
    auto AQ = ref::gemm(Op::NoTrans, Op::NoTrans, 1.0, Ad, Q);
    auto B = ref::gemm(Op::ConjTrans, Op::NoTrans, 1.0, Q, AQ);
    auto QB = ref::gemm(Op::NoTrans, Op::NoTrans, 1.0, Q, B);
    EXPECT_LE(ref::diff_fro(AQ, QB), 1e-10 * (1 + ref::norm_fro(Ad)));
}

TEST(Subspace, SplitInTheMiddle) {
    rt::Engine eng(3);
    int const n = 24, nb = 8;
    std::vector<double> lam(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        lam[static_cast<size_t>(i)] = i - n / 2 + 0.5;  // half below, half above 0
    auto Ad = hermitian_with_spectrum(eng, lam, nb, 172);
    auto A = ref::to_tiled(Ad, nb);
    auto res = qdwh_subspace<double>(eng, A, 0.0);
    EXPECT_EQ(res.dim, n / 2);
    auto Q = ref::to_dense(res.basis);
    EXPECT_LE(ref::orthogonality(Q), 1e-12 * n);
}

TEST(Subspace, AllOnOneSide) {
    rt::Engine eng(3);
    int const n = 16, nb = 8;
    std::vector<double> lam(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        lam[static_cast<size_t>(i)] = 1.0 + i;  // all positive
    auto Ad = hermitian_with_spectrum(eng, lam, nb, 173);
    auto A = ref::to_tiled(Ad, nb);
    auto above = qdwh_subspace<double>(eng, A, 0.0);
    EXPECT_EQ(above.dim, n);
    auto below = qdwh_subspace<double>(eng, A, 100.0);
    EXPECT_EQ(below.dim, 0);
}

TEST(Subspace, EigenvaluesThroughCompression) {
    // Rayleigh-Ritz on the extracted basis reproduces the upper eigenvalues.
    rt::Engine eng(3);
    int const n = 20, nb = 5;
    std::vector<double> lam(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        lam[static_cast<size_t>(i)] = -5.0 + i;  // -5..14, split at 0 -> 14 above?
    auto Ad = hermitian_with_spectrum(eng, lam, nb, 174);
    auto A = ref::to_tiled(Ad, nb);
    auto res = qdwh_subspace<double>(eng, A, 0.5);
    ASSERT_GT(res.dim, 0);

    auto Q = ref::to_dense(res.basis);
    auto AQ = ref::gemm(Op::NoTrans, Op::NoTrans, 1.0, Ad, Q);
    auto B = ref::gemm(Op::ConjTrans, Op::NoTrans, 1.0, Q, AQ);
    std::vector<double> w;
    ref::Dense<double> V;
    ref::jacobi_eig(B, w, V);
    // Eigenvalues of the compression == the lam values above 0.5.
    std::vector<double> expected;
    for (double l : lam)
        if (l > 0.5)
            expected.push_back(l);
    ASSERT_EQ(w.size(), expected.size());
    for (size_t i = 0; i < w.size(); ++i)
        EXPECT_NEAR(w[i], expected[i], 1e-9 * (1 + std::abs(expected[i])));
}
