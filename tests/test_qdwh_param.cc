// Property-style parameterized sweeps (TEST_P) over the QDWH configuration
// space: shapes x tile sizes x condition numbers x singular-value profiles.
// Every point must satisfy the paper's two accuracy invariants and the
// iteration bound.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/qdwh.hh"
#include "gen/matgen.hh"
#include "test_util.hh"

using namespace tbp;

namespace {

struct Case {
    int m, n, nb;
    double cond;
    gen::SigmaDist dist;
};

std::ostream& operator<<(std::ostream& os, Case const& c) {
    return os << c.m << "x" << c.n << "/nb" << c.nb << "/k" << c.cond;
}

class QdwhSweep : public ::testing::TestWithParam<Case> {};

}  // namespace

TEST_P(QdwhSweep, AccuracyAndIterationBound) {
    auto const c = GetParam();
    rt::Engine eng(3);
    gen::MatGenOptions opt;
    opt.cond = c.cond;
    opt.dist = c.dist;
    opt.seed = 4242;
    auto A = gen::cond_matrix<double>(eng, c.m, c.n, c.nb, opt);
    auto Ad = ref::to_dense(A);
    TiledMatrix<double> H(c.n, c.n, c.nb);
    auto info = qdwh(eng, A, H);

    auto U = ref::to_dense(A);
    double const orth =
        ref::orthogonality(U) / std::sqrt(static_cast<double>(c.n));
    auto UH = ref::gemm(Op::NoTrans, Op::NoTrans, 1.0, U, ref::to_dense(H));
    double const bwd = ref::diff_fro(UH, Ad) / ref::norm_fro(Ad);

    EXPECT_LE(orth, 1e-13);
    EXPECT_LE(bwd, 1e-13);
    EXPECT_LE(info.iterations, 6);  // paper Section 4 upper bound (double)
    EXPECT_LE(info.conv,
              std::cbrt(5 * std::numeric_limits<double>::epsilon()) * 1.01);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QdwhSweep,
    ::testing::Values(
        Case{16, 16, 8, 1e8, gen::SigmaDist::Geometric},
        Case{17, 17, 8, 1e8, gen::SigmaDist::Geometric},    // uneven square
        Case{32, 16, 8, 1e8, gen::SigmaDist::Geometric},    // 2:1
        Case{48, 12, 8, 1e8, gen::SigmaDist::Geometric},    // 4:1
        Case{33, 15, 8, 1e8, gen::SigmaDist::Geometric},    // both uneven
        Case{25, 25, 5, 1e8, gen::SigmaDist::Geometric},    // exact tiling
        Case{26, 26, 5, 1e8, gen::SigmaDist::Geometric},    // edge tiles
        Case{20, 20, 32, 1e8, gen::SigmaDist::Geometric})); // single tile

INSTANTIATE_TEST_SUITE_P(
    Conditioning, QdwhSweep,
    ::testing::Values(Case{24, 24, 8, 1e0 + 1e-12, gen::SigmaDist::Geometric},
                      Case{24, 24, 8, 1e2, gen::SigmaDist::Geometric},
                      Case{24, 24, 8, 1e6, gen::SigmaDist::Geometric},
                      Case{24, 24, 8, 1e10, gen::SigmaDist::Geometric},
                      Case{24, 24, 8, 1e13, gen::SigmaDist::Geometric},
                      Case{24, 24, 8, 1e16, gen::SigmaDist::Geometric}));

INSTANTIATE_TEST_SUITE_P(
    SigmaProfiles, QdwhSweep,
    ::testing::Values(Case{24, 24, 8, 1e8, gen::SigmaDist::Arithmetic},
                      Case{24, 24, 8, 1e8, gen::SigmaDist::ClusterAtOne},
                      Case{24, 24, 8, 1e8, gen::SigmaDist::LogUniform},
                      Case{40, 20, 8, 1e12, gen::SigmaDist::ClusterAtOne},
                      Case{40, 20, 8, 1e12, gen::SigmaDist::LogUniform}));
