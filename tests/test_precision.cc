// Adaptive precision-ladder QDWH (core/precision_policy.hh, core/qdwh.hh,
// comm/dist_qdwh.hh, perf/prec_model.hh): accuracy of
// the adaptive schedule against the all-native run across types and
// conditioning, fallback promotion, bitwise determinism, distributed /
// single-rank schedule agreement with the exact byte-halving identity, and
// exact model == measured kernel-counter agreement per precision bucket.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "comm/dist_qdwh.hh"
#include "core/qdwh.hh"
#include "gen/matgen.hh"
#include "perf/prec_model.hh"
#include "ref/dense.hh"
#include "test_util.hh"

using namespace tbp;

namespace {

/// Collect a distributed matrix into a dense image on every rank (zeros
/// where remote, allreduced) — the same helper the dist-algorithm tests use.
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
    std::vector<T> buf(static_cast<std::size_t>(A.m()) * A.n());
    for (std::int64_t j = 0; j < A.n(); ++j)
        for (std::int64_t i = 0; i < A.m(); ++i)
            buf[static_cast<std::size_t>(i + j * A.m())] = D(i, j);
    c.allreduce_sum(buf);
    for (std::int64_t j = 0; j < A.n(); ++j)
        for (std::int64_t i = 0; i < A.m(); ++i)
            D(i, j) = buf[static_cast<std::size_t>(i + j * A.m())];
    return D;
}

template <typename T>
struct PolarErrors {
    real_t<T> orth;
    real_t<T> backward;
};

template <typename T>
PolarErrors<T> polar_errors(ref::Dense<T> const& A, ref::Dense<T> const& U,
                            ref::Dense<T> const& H) {
    PolarErrors<T> e;
    e.orth = ref::orthogonality(U) / std::sqrt(static_cast<real_t<T>>(U.n()));
    auto UH = ref::gemm(Op::NoTrans, Op::NoTrans, T(1), U, H);
    e.backward = ref::diff_fro(UH, A) / ref::norm_fro(A);
    return e;
}

/// Exact per-bucket model == measured comparison (kernel_flops_exact runs).
template <typename T>
void expect_prec_model_exact(QdwhInfo const& info, std::vector<int> const& rows,
                             std::vector<int> const& cols) {
    ASSERT_TRUE(info.kernel_flops_exact);
    auto const model = perf::qdwh_prec_kernel_flops(
        rows, cols, info.rungs, info.it_qr, /*compute_h=*/true,
        fma_flops<T>() / 2.0, prec::native_prec<T>());
    for (std::size_t p = 0; p < static_cast<std::size_t>(prec::kNumPrec); ++p)
        EXPECT_EQ(model.by_prec[p], info.kernel_flops_by_prec[p])
            << "bucket " << prec::prec_name(static_cast<prec::Prec>(p));
}

}  // namespace

template <typename T>
class Precision : public ::testing::Test {};
TYPED_TEST_SUITE(Precision, test::AllTypes);

// The ladder's accuracy contract across the conditioning range: native
// orthogonality out of the adaptive schedule (the native tail cubes the
// float-level error below eps), with the backward error free to sit at the
// lowest executed rung's precision (bf16 rungs commit a ~2^-9 backward
// perturbation that later native iterations cannot undo).
TYPED_TEST(Precision, AdaptiveMatchesNativeOrthogonalityAcrossCond) {
    using T = TypeParam;
    int const n = 48, nb = 16;
    std::vector<double> conds{1.5, 1e3, test::ill_cond<T>()};
    if (!std::is_same_v<real_t<T>, float>)
        conds.insert(conds.end() - 1, 1e9);
    for (double cond : conds) {
        rt::Engine eng(3);
        gen::MatGenOptions opt;
        opt.cond = cond;
        opt.seed = 600 + static_cast<std::uint64_t>(std::log10(cond));
        auto A = gen::cond_matrix<T>(eng, n, n, nb, opt);
        auto Ad = ref::to_dense(A);
        TiledMatrix<T> H(n, n, nb);
        QdwhOptions qo;
        qo.precision.request = prec::Precision::Adaptive;
        QdwhInfo info;
        ASSERT_EQ(qdwh_status(eng, A, H, info, qo), Status::Ok) << cond;
        ASSERT_TRUE(info.converged) << cond;
        auto e = polar_errors(Ad, ref::to_dense(A), ref::to_dense(H));
        EXPECT_LE(e.orth, test::tol<T>(100)) << cond;
        // Backward: bounded by the coarsest rung's roundoff, with slack for
        // the n-dependent constant. A blown ladder would sit at O(1).
        EXPECT_LE(e.backward, real_t<T>(0.05)) << cond;
        EXPECT_EQ(info.rungs.size(),
                  static_cast<std::size_t>(info.iterations));
        expect_prec_model_exact<T>(info, A.row_tile_sizes(),
                                   A.col_tile_sizes());
    }
}

// One weight formula: every request of every scalar type runs the same
// loop, whose l_k history is exactly the prec::qdwh_weights recurrence (in
// double) started from the clamped condition estimate.
TYPED_TEST(Precision, LiHistoryIsTheQdwhWeightsRecurrence) {
    using T = TypeParam;
    int const n = 32, nb = 16;
    for (auto req : {prec::Precision::Native, prec::Precision::Adaptive}) {
        rt::Engine eng(2);
        gen::MatGenOptions opt;
        opt.cond = test::ill_cond<T>();
        opt.seed = 618;
        auto A = gen::cond_matrix<T>(eng, n, n, nb, opt);
        TiledMatrix<T> H(n, n, nb);
        QdwhOptions qo;
        qo.precision.request = req;
        QdwhInfo info;
        ASSERT_EQ(qdwh_status(eng, A, H, info, qo), Status::Ok)
            << prec::precision_name(req);
        ASSERT_EQ(info.li_history.size(),
                  static_cast<std::size_t>(info.iterations));
        double li = info.condest_l0;
        for (std::size_t k = 0; k < info.li_history.size(); ++k) {
            li = prec::qdwh_weights(li).li_next;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(info.li_history[k]),
                      std::bit_cast<std::uint64_t>(li))
                << prec::precision_name(req) << " iter " << k;
        }
    }
}

// A non-finite iterate is a numerical failure on every request, never a
// "converged" exit with NaN in U: the native rung has nowhere to promote to.
// l0 = 1e-12 makes the first iteration a QR one, which has no pivot test;
// with max_iter = 1 that iteration is the whole run, so only the iterate
// check can tell a NaN iterate (NumericalError) from a slow one
// (NotConverged). max_iter = 30 is the full run.
TYPED_TEST(Precision, NonFiniteInputIsNumericalError) {
    using T = TypeParam;
    using R = real_t<T>;
    int const n = 32, nb = 16;
    for (R bad : {std::numeric_limits<R>::quiet_NaN(),
                  std::numeric_limits<R>::infinity()}) {
        for (auto req : {prec::Precision::Native, prec::Precision::Adaptive}) {
            for (int max_iter : {1, 30}) {
                rt::Engine eng(2);
                gen::MatGenOptions opt;
                opt.cond = 1e3;
                opt.seed = 619;
                auto A = gen::cond_matrix<T>(eng, n, n, nb, opt);
                eng.wait();
                A.tile(1, 0)(3, 5) = from_real<T>(bad);
                TiledMatrix<T> H(n, n, nb);
                QdwhOptions qo;
                qo.condest_override = 1e-12;
                qo.max_iter = max_iter;
                qo.precision.request = req;
                QdwhInfo info;
                EXPECT_EQ(qdwh_status(eng, A, H, info, qo),
                          Status::NumericalError)
                    << bad << " " << prec::precision_name(req) << " max_iter "
                    << max_iter;
                EXPECT_FALSE(info.converged);
            }
        }
    }
}

// The distributed driver has no fallback: the same input is a hard error
// that every rank raises. A NaN already fails the norm estimate's
// positivity check; an Inf passes it and reaches the per-iteration
// non-finite check of the first (QR) iteration, whose convergence norm is
// an allreduce, so all ranks see the same value. max_iter = 1 keeps a
// missing check from reaching a Cholesky iteration, where a NaN pivot
// throws on one rank only and the others would wait for it.
TEST(PrecisionLadder, DistNonFiniteInputThrowsOnEveryRank) {
    using T = double;
    int const n = 24, nb = 4;
    gen::MatGenOptions opt;
    opt.cond = 1e3;
    opt.seed = 620;
    rt::Engine eng(2);
    auto At = gen::cond_matrix<T>(eng, n, n, nb, opt);
    auto Ad = ref::to_dense(At);
    Grid const g{2, 2};
    // Runs dist_qdwh on A(i, j) = entry(i, j) and reports whether every
    // rank threw tbp::Error with the same message. A rank that throws alone
    // leaves its peers blocked in recv, so a failure here shows as a hang.
    auto every_rank_throws = [&](auto entry, double l0, int max_iter,
                                 prec::PrecisionPolicy const& pol) {
        std::vector<std::string> what(static_cast<std::size_t>(g.size()));
        comm::World world(g.size());
        world.run([&](comm::Communicator& c) {
            comm::DistMatrix<T> A(c, n, n, nb, g);
            A.fill(entry);
            try {
                comm::dist_qdwh(c, g, A, l0, max_iter, pol);
            } catch (Error const& e) {
                what[static_cast<std::size_t>(c.rank())] = e.what();
            }
        });
        return !what[0].empty()
               && std::count(what.begin(), what.end(), what[0]) == g.size();
    };
    for (T bad : {std::numeric_limits<T>::quiet_NaN(),
                  std::numeric_limits<T>::infinity()}) {
        auto entry = [&](std::int64_t i, std::int64_t j) {
            return i == 9 && j == 14 ? bad : Ad(i, j);
        };
        for (auto req : {prec::Precision::Native, prec::Precision::Adaptive}) {
            prec::PrecisionPolicy pol;
            pol.request = req;
            // l0 = 1e-12 starts on the QR branch; l0 = 0.5 starts on the
            // Cholesky branch, whose potrf fails on one rank only. 30 is the
            // default max_iter.
            EXPECT_TRUE(every_rank_throws(entry, 1e-12, 1, pol))
                << bad << " " << prec::precision_name(req) << " l0=1e-12";
            EXPECT_TRUE(every_rank_throws(entry, 0.5, 30, pol))
                << bad << " " << prec::precision_name(req) << " l0=0.5";
        }
    }
    auto zero = [](std::int64_t, std::int64_t) { return T(0); };
    EXPECT_TRUE(every_rank_throws(zero, 0.5, 30, {}));
}

// Ill-conditioned double-kind inputs must actually engage low rungs (the
// speedup exists only if the schedule leaves native).
TEST(PrecisionLadder, AdaptiveLeavesNativeRungWhenIllConditioned) {
    rt::Engine eng(3);
    gen::MatGenOptions opt;
    opt.cond = 1e12;
    opt.seed = 611;
    int const n = 48, nb = 16;
    auto A = gen::cond_matrix<double>(eng, n, n, nb, opt);
    TiledMatrix<double> H(n, n, nb);
    QdwhOptions qo;
    qo.precision.request = prec::Precision::Adaptive;
    QdwhInfo info;
    ASSERT_EQ(qdwh_status(eng, A, H, info, qo), Status::Ok);
    int low = 0, bf16 = 0;
    for (auto r : info.rungs) {
        low += r != prec::Prec::Double;
        bf16 += r == prec::Prec::Bf16;
    }
    EXPECT_GE(low, 2);
    EXPECT_GE(bf16, 1);  // admissible mid-schedule rung at this conditioning
    // The final iteration is native by the tail contract.
    ASSERT_FALSE(info.rungs.empty());
    EXPECT_EQ(info.rungs.back(), prec::Prec::Double);
}

// Forced fallback: a low-precision iteration that fails pre-submission must
// re-run one rung up, be recorded, and keep the flop accounting exact.
TEST(PrecisionLadder, ForcedFallbackPromotesOneRung) {
    double const l0 = 1e-10;
    double const tol1 = 5 * std::numeric_limits<double>::epsilon();
    prec::PrecisionPolicy pol;
    pol.request = prec::Precision::Adaptive;
    auto const plan = prec::plan_rungs(l0, tol1, 50, pol, prec::Prec::Double);
    int low_iter = -1;
    for (std::size_t k = 0; k < plan.size(); ++k)
        if (plan[k].rung != prec::Prec::Double) {
            low_iter = static_cast<int>(k);
            break;
        }
    ASSERT_GE(low_iter, 0) << "plan at l0=1e-10 must hold a low rung";

    rt::Engine eng(3);
    gen::MatGenOptions opt;
    opt.cond = 1e10;
    opt.seed = 612;
    int const n = 48, nb = 16;
    auto A = gen::cond_matrix<double>(eng, n, n, nb, opt);
    auto Ad = ref::to_dense(A);
    TiledMatrix<double> H(n, n, nb);
    QdwhOptions qo;
    qo.condest_override = l0;  // pin the schedule to the planned one
    qo.precision = pol;
    qo.precision.force_fallback_iter = low_iter;
    QdwhInfo info;
    ASSERT_EQ(qdwh_status(eng, A, H, info, qo), Status::Ok);
    EXPECT_GE(info.fallbacks, 1);
    // The executed rung of the forced iteration is the planned rung
    // promoted once (bf16 -> float, float -> native).
    auto const planned = plan[static_cast<std::size_t>(low_iter)].rung;
    EXPECT_EQ(info.rungs[static_cast<std::size_t>(low_iter)],
              prec::promote(planned, prec::Prec::Double));
    // Pre-submission failure discards no charges: accounting stays exact.
    expect_prec_model_exact<double>(info, A.row_tile_sizes(),
                                    A.col_tile_sizes());
    auto e = polar_errors(Ad, ref::to_dense(A), ref::to_dense(H));
    EXPECT_LE(e.orth, test::tol<double>(100));
}

// Two identical adaptive runs must agree bitwise: same rung schedule, same
// iterate bytes (the plan is a pure double function of l0, bf16 truncation
// is deterministic, and the runtime's reductions are order-fixed).
TEST(PrecisionLadder, AdaptiveScheduleAndIterateAreDeterministic) {
    auto run = [](QdwhInfo& info) {
        rt::Engine eng(3);
        gen::MatGenOptions opt;
        opt.cond = 1e10;
        opt.seed = 613;
        int const n = 40, nb = 8;
        auto A = gen::cond_matrix<double>(eng, n, n, nb, opt);
        TiledMatrix<double> H(n, n, nb);
        QdwhOptions qo;
        qo.precision.request = prec::Precision::Adaptive;
        EXPECT_EQ(qdwh_status(eng, A, H, info, qo), Status::Ok);
        return ref::to_dense(A);
    };
    QdwhInfo i1, i2;
    auto U1 = run(i1);
    auto U2 = run(i2);
    ASSERT_EQ(i1.rungs, i2.rungs);
    ASSERT_EQ(i1.iterations, i2.iterations);
    ASSERT_EQ(U1.m(), U2.m());
    for (std::int64_t j = 0; j < U1.n(); ++j)
        for (std::int64_t i = 0; i < U1.m(); ++i)
            ASSERT_EQ(std::memcmp(&U1(i, j), &U2(i, j), sizeof(double)), 0)
                << i << "," << j;
}

// Distributed adaptive ladder: P = 4 and P = 1 execute the identical rung
// schedule (plan_rungs is a pure function of l0 every rank evaluates), and
// the per-iteration branch-region traffic of a low rung is *exactly* half
// the all-native run's bytes at an identical message count.
TEST(PrecisionLadder, DistAdaptiveMatchesSingleRankAndHalvesBytes) {
    using T = double;
    int const n = 24, nb = 4;
    double const l0 = 1e-8;
    gen::MatGenOptions opt;
    opt.cond = 1e8;
    opt.seed = 614;
    rt::Engine eng(2);
    auto At = gen::cond_matrix<T>(eng, n, n, nb, opt);
    auto Ad = ref::to_dense(At);

    prec::PrecisionPolicy pol;
    pol.request = prec::Precision::Adaptive;

    auto run_dist = [&](int p, int q, bool adaptive, comm::DistQdwhInfo& info,
                        ref::Dense<T>& U) {
        Grid g{p, q};
        comm::World world(g.size());
        world.run([&](comm::Communicator& c) {
            comm::DistMatrix<T> A(c, n, n, nb, g);
            A.fill([&](std::int64_t i, std::int64_t j) { return Ad(i, j); });
            auto inf = comm::dist_qdwh(c, g, A, l0, 30,
                                       adaptive ? pol
                                                : prec::PrecisionPolicy{});
            auto D = gather(A, c);
            if (c.rank() == 0) {
                info = inf;
                U = D;
            }
        });
    };

    comm::DistQdwhInfo a1, a4, n4;
    ref::Dense<T> U1, U4, Un;
    run_dist(1, 1, true, a1, U1);
    run_dist(2, 2, true, a4, U4);
    run_dist(2, 2, false, n4, Un);

    // Identical schedule across process counts.
    ASSERT_EQ(a1.rungs, a4.rungs);
    EXPECT_EQ(a1.iterations, a4.iterations);
    bool left_native = false;
    for (auto r : a1.rungs)
        left_native |= r != prec::Prec::Double;
    EXPECT_TRUE(left_native);

    // Both converge to the polar factor at native orthogonality.
    EXPECT_LE(ref::orthogonality(U1) / std::sqrt(double(n)), 1e-13);
    EXPECT_LE(ref::orthogonality(U4) / std::sqrt(double(n)), 1e-13);
    EXPECT_LE(ref::diff_fro(U1, U4) / ref::norm_fro(U4), 1e-6);

    // Byte-halving identity against the all-native run (same l0, so the
    // same iteration stream): a float-payload iteration ships exactly half
    // the native bytes with an unchanged message count; a native-rung
    // iteration ships exactly the native traffic.
    ASSERT_EQ(n4.rungs.size(), static_cast<std::size_t>(n4.iterations));
    // Same l0 -> same planned stream; the adaptive run may pay at most one
    // conv-margin straggler (native by contract) past the native run.
    EXPECT_GE(a4.iterations, n4.iterations);
    EXPECT_LE(a4.iterations, n4.iterations + 1);
    std::size_t const common =
        std::min(a4.rungs.size(), n4.rungs.size());
    ASSERT_GE(common, 1u);
    ASSERT_GE(a4.iter_msgs_sent.size(), common);
    ASSERT_GE(a4.iter_bytes_sent.size(), common);
    ASSERT_GE(n4.iter_msgs_sent.size(), common);
    ASSERT_GE(n4.iter_bytes_sent.size(), common);
    for (std::size_t k = 0; k < common; ++k) {
        EXPECT_EQ(a4.iter_msgs_sent[k], n4.iter_msgs_sent[k]) << "iter " << k;
        if (a4.rungs[k] != prec::Prec::Double)
            EXPECT_EQ(2 * a4.iter_bytes_sent[k], n4.iter_bytes_sent[k])
                << "iter " << k;
        else
            EXPECT_EQ(a4.iter_bytes_sent[k], n4.iter_bytes_sent[k])
                << "iter " << k;
    }
}

// Model == measured identity for every fixed precision request and an
// uneven-tile rectangular shape (the replay must price the true tile
// geometry, not an n/nb idealization).
TEST(PrecisionLadder, ModelMatchesMeasuredPerRequestAndShape) {
    struct Case {
        std::int64_t m, n;
        prec::Precision req;
    } cases[] = {
        {40, 40, prec::Precision::Native},
        {40, 40, prec::Precision::Float},
        {40, 40, prec::Precision::Bf16},
        {40, 40, prec::Precision::Adaptive},
        {56, 40, prec::Precision::Adaptive},  // rectangular, uneven tiles
    };
    for (auto const& cs : cases) {
        rt::Engine eng(3);
        gen::MatGenOptions opt;
        opt.cond = 1e8;
        opt.seed = 615;
        int const nb = 16;  // 40 = 16+16+8: uneven trailing tile
        auto A = gen::cond_matrix<double>(eng, cs.m, cs.n, nb, opt);
        TiledMatrix<double> H(cs.n, cs.n, nb);
        QdwhOptions qo;
        qo.precision.request = cs.req;
        QdwhInfo info;
        ASSERT_EQ(qdwh_status(eng, A, H, info, qo), Status::Ok)
            << prec::precision_name(cs.req) << " " << cs.m << "x" << cs.n;
        expect_prec_model_exact<double>(info, A.row_tile_sizes(),
                                        A.col_tile_sizes());
    }
}

// Float-kind adaptive: the only low rung is bf16 (no promotion above the
// native float), and the tail is native float.
TEST(PrecisionLadder, FloatKindAdaptiveCapsAtFloat) {
    rt::Engine eng(3);
    gen::MatGenOptions opt;
    opt.cond = 1e5;
    opt.seed = 616;
    int const n = 48, nb = 16;
    auto A = gen::cond_matrix<float>(eng, n, n, nb, opt);
    TiledMatrix<float> H(n, n, nb);
    QdwhOptions qo;
    qo.precision.request = prec::Precision::Adaptive;
    QdwhInfo info;
    ASSERT_EQ(qdwh_status(eng, A, H, info, qo), Status::Ok);
    for (auto r : info.rungs)
        EXPECT_NE(r, prec::Prec::Double);
    ASSERT_FALSE(info.rungs.empty());
    EXPECT_EQ(info.rungs.back(), prec::Prec::Float);
    expect_prec_model_exact<float>(info, A.row_tile_sizes(),
                                   A.col_tile_sizes());
}

// The Float request's H contract: H is computed in double from the
// *original* A and the native-tail U — Hermitian, and equal to sym(U^H A)
// at double roundoff even though the iterations ran in float.
TEST(PrecisionLadder, FloatRequestHComputedInDoubleFromOriginalA) {
    rt::Engine eng(3);
    gen::MatGenOptions opt;
    opt.cond = 1e4;
    opt.seed = 617;
    int const n = 40, nb = 8;
    auto A = gen::cond_matrix<double>(eng, n, n, nb, opt);
    auto Ad = ref::to_dense(A);
    TiledMatrix<double> H(n, n, nb);
    QdwhOptions qo;
    qo.precision.request = prec::Precision::Float;
    auto info = qdwh(eng, A, H, qo);
    // Every iteration on the float rung but the native last one.
    ASSERT_GE(info.rungs.size(), 2u);
    for (std::size_t k = 0; k + 1 < info.rungs.size(); ++k)
        EXPECT_EQ(info.rungs[k], prec::Prec::Float) << "iteration " << k;
    EXPECT_EQ(info.rungs.back(), prec::Prec::Double);

    auto U = ref::to_dense(A);
    auto Hd = ref::to_dense(H);
    // Hermitian to the last bit of the symmetrization.
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
            EXPECT_NEAR(Hd(i, j), Hd(j, i), 1e-14);
    // H == sym(U^H A) in double: the float rungs must not leak into H.
    auto UhA = ref::gemm(Op::ConjTrans, Op::NoTrans, 1.0, U, Ad);
    double hdiff = 0;
    for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
            hdiff = std::max(hdiff, std::abs(Hd(i, j)
                                             - 0.5 * (UhA(i, j) + UhA(j, i))));
    EXPECT_LE(hdiff, 1e-12);
    auto UH = ref::gemm(Op::NoTrans, Op::NoTrans, 1.0, U, Hd);
    EXPECT_LE(ref::diff_fro(UH, Ad) / ref::norm_fro(Ad), 1e-5);
}
