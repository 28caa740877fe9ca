// Virtual-rank message passing: point-to-point, the request/progress layer,
// algorithmic collectives (all algorithms, non-power-of-two rank counts, all
// scalar types, determinism contracts), traffic counters vs the cost model,
// and the distributed kernels built on them.

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>

#include "comm/communicator.hh"
#include "comm/dist.hh"
#include "perf/cost_model.hh"
#include "perf/sched_report.hh"
#include "ref/dense.hh"
#include "test_util.hh"

using namespace tbp;

TEST(Comm, SendRecvRing) {
    int const P = 4;
    comm::World world(P);
    std::vector<int> received(P, -1);
    world.run([&](comm::Communicator& c) {
        int const next = (c.rank() + 1) % P;
        int const prev = (c.rank() + P - 1) % P;
        int payload = c.rank() * 10;
        c.send(&payload, 1, next, 7);
        int got = -1;
        c.recv(&got, 1, prev, 7);
        received[static_cast<size_t>(c.rank())] = got;
    });
    for (int r = 0; r < P; ++r)
        EXPECT_EQ(received[static_cast<size_t>(r)], ((r + P - 1) % P) * 10);
}

TEST(Comm, TagsKeepChannelsSeparate) {
    comm::World world(2);
    std::vector<double> got(2, 0);
    world.run([&](comm::Communicator& c) {
        if (c.rank() == 0) {
            double a = 1.5, b = 2.5;
            c.send(&b, 1, 1, /*tag=*/2);  // sent first...
            c.send(&a, 1, 1, /*tag=*/1);
        } else {
            double a = 0, b = 0;
            c.recv(&a, 1, 0, /*tag=*/1);  // ...but tag 1 received first
            c.recv(&b, 1, 0, /*tag=*/2);
            got[0] = a;
            got[1] = b;
        }
    });
    EXPECT_EQ(got[0], 1.5);
    EXPECT_EQ(got[1], 2.5);
}

TEST(Comm, FifoPerChannel) {
    comm::World world(2);
    std::vector<int> order;
    world.run([&](comm::Communicator& c) {
        if (c.rank() == 0) {
            for (int i = 0; i < 10; ++i)
                c.send(&i, 1, 1, 0);
        } else {
            for (int i = 0; i < 10; ++i) {
                int v;
                c.recv(&v, 1, 0, 0);
                order.push_back(v);
            }
        }
    });
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Comm, Barrier) {
    int const P = 5;
    comm::World world(P);
    std::atomic<int> phase1{0};
    std::vector<int> seen(P, -1);
    world.run([&](comm::Communicator& c) {
        phase1.fetch_add(1);
        c.barrier();
        seen[static_cast<size_t>(c.rank())] = phase1.load();
        c.barrier();
    });
    for (int r = 0; r < P; ++r)
        EXPECT_EQ(seen[static_cast<size_t>(r)], P);
}

TEST(Comm, BarrierReusable) {
    comm::World world(3);
    std::atomic<int> count{0};
    world.run([&](comm::Communicator& c) {
        for (int i = 0; i < 50; ++i) {
            c.barrier();
            if (c.rank() == 0)
                count.fetch_add(1);
            c.barrier();
        }
    });
    EXPECT_EQ(count.load(), 50);
}

TEST(Comm, Bcast) {
    comm::World world(4);
    std::vector<std::vector<double>> got(4);
    world.run([&](comm::Communicator& c) {
        std::vector<double> v(3, 0);
        if (c.rank() == 1)
            v = {1.0, 2.0, 3.0};
        c.bcast(v, 1);
        got[static_cast<size_t>(c.rank())] = v;
    });
    for (int r = 0; r < 4; ++r)
        EXPECT_EQ(got[static_cast<size_t>(r)], (std::vector<double>{1, 2, 3}));
}

TEST(Comm, AllreduceSum) {
    int const P = 6;
    comm::World world(P);
    std::vector<std::vector<long>> got(static_cast<size_t>(P));
    world.run([&](comm::Communicator& c) {
        std::vector<long> v{static_cast<long>(c.rank()), 1};
        c.allreduce_sum(v);
        got[static_cast<size_t>(c.rank())] = v;
    });
    long const expect0 = P * (P - 1) / 2;
    for (int r = 0; r < P; ++r) {
        EXPECT_EQ(got[static_cast<size_t>(r)][0], expect0);
        EXPECT_EQ(got[static_cast<size_t>(r)][1], P);
    }
}

TEST(Comm, AllreduceMax) {
    comm::World world(5);
    std::vector<double> got(5, -1);
    world.run([&](comm::Communicator& c) {
        got[static_cast<size_t>(c.rank())] =
            c.allreduce_max(static_cast<double>((c.rank() * 7) % 5));
    });
    for (auto v : got)
        EXPECT_EQ(v, 4.0);
}

TEST(Comm, ExceptionPropagatesFromRank) {
    comm::World world(2);
    EXPECT_THROW(world.run([&](comm::Communicator& c) {
        c.barrier();
        if (c.rank() == 1)
            throw std::runtime_error("rank failure");
    }),
                 std::runtime_error);
}

TEST(CommReq, IsendIrecvWaitAll) {
    int const N = 8;
    comm::World world(2);
    std::vector<int> got(static_cast<size_t>(N), -1);
    world.run([&](comm::Communicator& c) {
        if (c.rank() == 0) {
            std::vector<comm::Request> reqs;
            std::vector<int> vals(static_cast<size_t>(N));
            for (int i = 0; i < N; ++i) {
                vals[static_cast<size_t>(i)] = 100 + i;
                reqs.push_back(
                    c.isend(&vals[static_cast<size_t>(i)], 1, 1, i));
            }
            comm::Request::wait_all(reqs);
        } else {
            std::vector<comm::Request> reqs;
            for (int i = 0; i < N; ++i)
                reqs.push_back(c.irecv(&got[static_cast<size_t>(i)], 1, 0, i));
            comm::Request::wait_all(reqs);
        }
    });
    for (int i = 0; i < N; ++i)
        EXPECT_EQ(got[static_cast<size_t>(i)], 100 + i);
}

TEST(CommReq, TestPollsToCompletion) {
    comm::World world(2);
    std::vector<double> out(2, 0);
    world.run([&](comm::Communicator& c) {
        if (c.rank() == 0) {
            c.barrier();  // receiver posts first
            double v = 2.75;
            c.send(&v, 1, 1, 3);
        } else {
            double v = 0;
            auto r = c.irecv(&v, 1, 0, 3);
            EXPECT_FALSE(r.done());
            c.barrier();
            while (!r.test()) {
            }
            EXPECT_TRUE(r.done());
            out[1] = v;
        }
    });
    EXPECT_EQ(out[1], 2.75);
}

TEST(CommReq, ZeroLengthMessages) {
    comm::World world(2);
    std::vector<int> after(2, 0);
    world.run([&](comm::Communicator& c) {
        if (c.rank() == 0) {
            c.send(static_cast<double const*>(nullptr), 0, 1, 1);
            std::vector<double> empty;
            c.send(empty, 1, 2);
        } else {
            c.recv(static_cast<double*>(nullptr), 0, 0, 1);
            std::vector<double> v;
            c.recv(v, 0, 2);
            EXPECT_TRUE(v.empty());
        }
        after[static_cast<size_t>(c.rank())] = 1;
    });
    EXPECT_EQ(after[0] + after[1], 2);
}

TEST(CommReq, SelfSendRecv) {
    comm::World world(3);
    std::vector<int> got(3, -1);
    world.run([&](comm::Communicator& c) {
        int v = c.rank() * 11;
        c.send(&v, 1, c.rank(), 5);
        int r = -1;
        c.recv(&r, 1, c.rank(), 5);
        got[static_cast<size_t>(c.rank())] = r;
    });
    for (int r = 0; r < 3; ++r)
        EXPECT_EQ(got[static_cast<size_t>(r)], r * 11);
}

TEST(CommReq, RecvVectorResizesFromMessage) {
    comm::World world(2);
    std::vector<float> got;
    world.run([&](comm::Communicator& c) {
        if (c.rank() == 0) {
            std::vector<float> v{1.f, 2.f, 3.f, 4.f, 5.f};
            c.send(v, 1, 0);
        } else {
            std::vector<float> v;  // default-constructed: sized by message
            c.recv(v, 0, 0);
            got = v;
        }
    });
    ASSERT_EQ(got.size(), 5u);
    EXPECT_EQ(got[4], 5.f);
}

TEST(CommReq, RecvCountMismatchThrows) {
    comm::World world(2);
    EXPECT_THROW(world.run([&](comm::Communicator& c) {
        if (c.rank() == 0) {
            std::vector<double> v(3, 1.0);
            c.send(v, 1, 0);
        } else {
            double buf[5];
            c.recv(buf, 5, 0, 0);  // message carries 3 elements
        }
    }),
                 tbp::Error);
}

TEST(CommReq, NegativeUserTagThrows) {
    comm::World world(2);
    EXPECT_THROW(world.run([&](comm::Communicator& c) {
        if (c.rank() == 0) {
            int v = 1;
            c.send(&v, 1, 1, -3);  // reserved for internal collectives
        }
    }),
                 tbp::Error);
}

TEST(CommReq, LeakedMessagesCounted) {
    comm::World world(2);
    world.run([&](comm::Communicator& c) {
        if (c.rank() == 0) {
            int v = 9;
            c.send(&v, 1, 1, 0);  // never received
        }
    });
    EXPECT_EQ(world.leaked_messages(), 1u);
}

namespace {

template <typename T>
T coll_val(int rank, int i) {
    if constexpr (is_complex_v<T>)
        return T(static_cast<real_t<T>>(rank + 1),
                 static_cast<real_t<T>>(i + 1));
    else
        return static_cast<T>((rank + 1) * (i % 3 + 1));
}

/// One sweep of bcast / allreduce_sum / allgather / allgatherv on P ranks
/// under `cfg`; all results checked against rank-ordered references.
template <typename T>
void check_collectives(int P, comm::coll::Config cfg) {
    int const n = 5;
    comm::World world(P);
    world.set_coll_config(cfg);
    world.run([&](comm::Communicator& c) {
        // bcast from a non-zero root
        std::vector<T> b(static_cast<size_t>(n));
        int const root = P - 1;
        if (c.rank() == root)
            for (int i = 0; i < n; ++i)
                b[static_cast<size_t>(i)] = coll_val<T>(root, i);
        c.bcast(b, root);
        for (int i = 0; i < n; ++i)
            ASSERT_EQ(b[static_cast<size_t>(i)], coll_val<T>(root, i));

        // allreduce_sum: ascending-rank fold reference
        std::vector<T> v(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i)
            v[static_cast<size_t>(i)] = coll_val<T>(c.rank(), i);
        c.allreduce_sum(v);
        for (int i = 0; i < n; ++i) {
            T expect = coll_val<T>(0, i);
            for (int r = 1; r < P; ++r)
                expect += coll_val<T>(r, i);
            ASSERT_EQ(v[static_cast<size_t>(i)], expect);
        }

        // allgather
        std::vector<T> mine(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i)
            mine[static_cast<size_t>(i)] = coll_val<T>(c.rank(), i);
        std::vector<T> all(static_cast<size_t>(n) * P);
        c.allgather(mine.data(), mine.size(), all.data());
        for (int r = 0; r < P; ++r)
            for (int i = 0; i < n; ++i)
                ASSERT_EQ(all[static_cast<size_t>(r * n + i)],
                          coll_val<T>(r, i));

        // allgatherv: rank r contributes r + 1 elements
        std::vector<T> var(static_cast<size_t>(c.rank() + 1),
                           coll_val<T>(c.rank(), 0));
        std::vector<std::size_t> counts;
        auto cat = c.allgatherv(var, &counts);
        ASSERT_EQ(counts.size(), static_cast<size_t>(P));
        std::size_t pos = 0;
        for (int r = 0; r < P; ++r) {
            ASSERT_EQ(counts[static_cast<size_t>(r)],
                      static_cast<size_t>(r + 1));
            for (int i = 0; i <= r; ++i)
                ASSERT_EQ(cat[pos++], coll_val<T>(r, 0));
        }
    });
}

}  // namespace

TEST(CommColl, NonPowerOfTwoRanksAllTypes) {
    using comm::coll::Algo;
    for (int P : {3, 5, 6, 7}) {
        for (bool linear : {false, true}) {
            // Default (Auto) selection, then the all-Linear oracle.
            comm::coll::Config cfg;
            if (linear)
                cfg.bcast = cfg.reduce = cfg.allreduce = cfg.allgather =
                    Algo::Linear;
            check_collectives<float>(P, cfg);
            check_collectives<double>(P, cfg);
            check_collectives<std::complex<float>>(P, cfg);
            check_collectives<std::complex<double>>(P, cfg);
        }
    }
}

TEST(CommColl, ExplicitAlgorithmsAllRankCounts) {
    using comm::coll::Algo;
    for (int P : {2, 3, 4, 5, 7, 8}) {
        for (auto algo : {Algo::Linear, Algo::Tree, Algo::RecDouble,
                          Algo::Ring}) {
            comm::coll::Config cfg;
            cfg.allreduce = algo;
            cfg.bcast = algo == Algo::Linear ? Algo::Linear : Algo::Tree;
            cfg.allgather = algo == Algo::Ring ? Algo::Ring : Algo::Tree;
            if (algo == Algo::Ring)
                cfg.deterministic = false;
            check_collectives<double>(P, cfg);
        }
    }
}

namespace {

std::vector<double> run_allreduce(int P, comm::coll::Algo algo,
                                  std::size_t n) {
    comm::coll::Config cfg;
    cfg.allreduce = algo;
    cfg.deterministic = algo != comm::coll::Algo::Ring;
    comm::World world(P);
    world.set_coll_config(cfg);
    std::vector<double> out;
    world.run([&](comm::Communicator& c) {
        std::vector<double> v(n);
        std::uint64_t s = static_cast<std::uint64_t>(c.rank()) * 977 + 13;
        for (auto& x : v) {
            s = s * 6364136223846793005ull + 1442695040888963407ull;
            x = static_cast<double>(s >> 11) * 0x1.0p-53 - 0.5;
        }
        c.allreduce_sum(v);
        if (c.rank() == 0)
            out = v;
    });
    return out;
}

}  // namespace

TEST(CommColl, RankOrderedAlgosBitIdentical) {
    // Linear, Tree, and RecDouble all fold contributions in ascending rank
    // order, so with rounding-sensitive doubles the results must agree to
    // the last bit — the property that lets the engine replace the linear
    // collectives without perturbing any numerical result.
    using comm::coll::Algo;
    for (int P : {3, 4, 6, 7, 8}) {
        auto lin = run_allreduce(P, Algo::Linear, 33);
        auto tre = run_allreduce(P, Algo::Tree, 33);
        auto rec = run_allreduce(P, Algo::RecDouble, 33);
        EXPECT_EQ(lin, tre) << "P=" << P;
        EXPECT_EQ(lin, rec) << "P=" << P;
    }
}

TEST(CommColl, RingReproducibleAtFixedP) {
    // Ring re-associates (chunked reduce-scatter), so it may differ from the
    // rank-ordered fold — but repeated runs at the same P are bit-identical.
    using comm::coll::Algo;
    for (int P : {4, 6}) {
        auto a = run_allreduce(P, Algo::Ring, 64);
        auto b = run_allreduce(P, Algo::Ring, 64);
        EXPECT_EQ(a, b) << "P=" << P;
    }
}

TEST(CommColl, StatsMatchCostModelPrediction) {
    // One collective per run: the measured counters must equal the
    // cost model's replayed volumes exactly, message for message.
    using comm::coll::Algo;
    struct Case {
        perf::CollKind kind;
        Algo algo;
    };
    for (int P : {3, 4, 6}) {
        for (auto [kind, algo] :
             {Case{perf::CollKind::Bcast, Algo::Tree},
              Case{perf::CollKind::Allreduce, Algo::RecDouble},
              Case{perf::CollKind::Allreduce, Algo::Ring},
              Case{perf::CollKind::Allgather, Algo::Linear}}) {
            std::size_t const n = 24;
            comm::coll::Config cfg;
            cfg.bcast = algo;
            cfg.allreduce = algo;
            cfg.allgather = algo;
            cfg.deterministic = algo != Algo::Ring;
            comm::World world(P);
            world.set_coll_config(cfg);
            world.run([&](comm::Communicator& c) {
                std::vector<double> v(n, c.rank() + 1.0);
                std::vector<double> all(n * static_cast<size_t>(P));
                switch (kind) {
                    case perf::CollKind::Bcast:
                        c.bcast(v.data(), n, 0);
                        break;
                    case perf::CollKind::Allreduce:
                        c.allreduce_sum(v);
                        break;
                    default:
                        c.allgather(v.data(), n, all.data());
                        break;
                }
            });
            auto rep = perf::comm_report(world);
            auto vol = perf::collective_volume(kind, algo, P, n,
                                               sizeof(double));
            EXPECT_EQ(rep.total.sends, vol.messages) << P;
            EXPECT_EQ(rep.total.bytes_sent, vol.bytes) << P;
            EXPECT_EQ(rep.max_rank_sends(), vol.max_rank_sends) << P;
            EXPECT_EQ(rep.max_rank_bytes(), vol.max_rank_bytes) << P;
            EXPECT_EQ(rep.total.sends, rep.total.recvs) << P;
            EXPECT_EQ(rep.leaked, 0u) << P;
        }
    }
}

TEST(CommDist, BlockCyclicOwnershipPartitions) {
    // Rank-local storage on a 2x3 grid with ragged last block row and
    // column: each rank stores exactly its block-cyclic share and nothing
    // else, and sub-views keep the parent's owner map.
    int const m = 22, n = 17, nb = 4;
    Grid const g{2, 3};
    // ScaLAPACK's numroc (SLATE's localRowsCols): the elements of a
    // length-len dimension, dealt in nb blocks over procs ranks, that land
    // on rank coordinate coord.
    auto local_rows_cols = [](std::int64_t len, int coord, int procs) {
        std::int64_t out = 0;
        for (std::int64_t off = 0, b = 0; off < len; off += nb, ++b)
            if (b % procs == coord)
                out += std::min<std::int64_t>(nb, len - off);
        return out;
    };
    comm::World world(g.size());
    std::vector<int> owned(static_cast<size_t>(g.size()), 0);
    world.run([&](comm::Communicator& c) {
        int const r = c.rank();
        comm::DistMatrix<double> A(c, m, n, nb, g);
        std::int64_t elems = 0;
        int count = 0;
        for (int j = 0; j < A.nt(); ++j)
            for (int i = 0; i < A.mt(); ++i) {
                EXPECT_EQ(A.is_local(i, j), A.owner_rank(i, j) == r);
                if (A.is_local(i, j)) {
                    ++count;
                    elems += A.tile(i, j).mb() * A.tile(i, j).nb();
                } else {
                    EXPECT_THROW(A.tile(i, j), tbp::Error) << i << "," << j;
                }
            }
        EXPECT_EQ(elems, local_rows_cols(m, r / g.q, g.p)
                             * local_rows_cols(n, r % g.q, g.q))
            << r;
        owned[static_cast<size_t>(r)] = count;

        auto S = A.sub(1, 2, A.mt() - 1, A.nt() - 2);
        for (int j = 0; j < S.nt(); ++j)
            for (int i = 0; i < S.mt(); ++i) {
                EXPECT_EQ(S.owner_rank(i, j), A.owner_rank(i + 1, j + 2));
                ASSERT_EQ(S.is_local(i, j), A.is_local(i + 1, j + 2));
                if (S.is_local(i, j)) {
                    EXPECT_EQ(S.tile(i, j).data(), A.tile(i + 1, j + 2).data());
                }
            }

        // fill asks only for elements of local tiles, and sets all of them.
        std::int64_t asked = 0;
        A.fill([&](std::int64_t i, std::int64_t j) {
            ++asked;
            EXPECT_TRUE(A.is_local(static_cast<int>(i / nb),
                                   static_cast<int>(j / nb)))
                << i << "," << j;
            return static_cast<double>(i + 100 * j);
        });
        EXPECT_EQ(asked, elems);
        for (int j = 0; j < A.nt(); ++j)
            for (int i = 0; i < A.mt(); ++i)
                if (A.is_local(i, j)) {
                    auto t = A.tile(i, j);
                    int const r_last = i * nb + t.mb() - 1;
                    int const c_last = j * nb + t.nb() - 1;
                    EXPECT_EQ(t(t.mb() - 1, t.nb() - 1),
                              static_cast<double>(r_last + 100 * c_last));
                }
    });
    // 6x5 tiles over a 2x3 grid: 3 block rows each, block columns 2/2/1.
    EXPECT_EQ(owned, (std::vector<int>{6, 6, 3, 6, 6, 3}));
}

TEST(CommDist, ColSumsMatchDense) {
    using T = double;
    int const m = 18, n = 13;
    auto D = ref::random_dense<T>(m, n, 121);
    comm::World world(6);
    std::vector<std::vector<double>> per_rank(6);
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> A(c, m, n, 4, Grid{3, 2});
        A.fill([&](std::int64_t i, std::int64_t j) { return D(i, j); });
        per_rank[static_cast<size_t>(c.rank())] = comm::dist_col_abs_sums(c, A);
    });
    for (int r = 0; r < 6; ++r) {
        ASSERT_EQ(per_rank[static_cast<size_t>(r)].size(), static_cast<size_t>(n));
        for (int j = 0; j < n; ++j) {
            double s = 0;
            for (int i = 0; i < m; ++i)
                s += std::abs(D(i, j));
            EXPECT_NEAR(per_rank[static_cast<size_t>(r)][static_cast<size_t>(j)], s,
                        1e-12 * (1 + s));
        }
    }
}

TEST(CommDist, GemmAMatchesDense) {
    using T = double;
    int const m = 17, n = 11;
    auto D = ref::random_dense<T>(m, n, 122);
    auto xd = ref::random_dense<T>(n, 1, 123);
    std::vector<T> x(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        x[static_cast<size_t>(i)] = xd(i, 0);

    comm::World world(4);
    std::vector<std::vector<T>> ys(4);
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> A(c, m, n, 4, Grid{2, 2});
        A.fill([&](std::int64_t i, std::int64_t j) { return D(i, j); });
        std::vector<T> y;
        comm::dist_gemmA(c, Op::NoTrans, A, x, y);
        ys[static_cast<size_t>(c.rank())] = y;
    });
    auto yref = ref::gemm(Op::NoTrans, Op::NoTrans, T(1), D, xd);
    for (int r = 0; r < 4; ++r) {
        // Identical on every rank (deterministic allreduce).
        EXPECT_EQ(ys[static_cast<size_t>(r)], ys[0]);
    }
    for (int i = 0; i < m; ++i)
        EXPECT_NEAR(ys[0][static_cast<size_t>(i)], yref(i, 0),
                    1e-11 * (1 + std::abs(yref(i, 0))));
}

TEST(CommDist, FroNormMatches) {
    using T = double;
    auto D = ref::random_dense<T>(15, 10, 124);
    comm::World world(2);
    std::vector<double> norms(2, 0);
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> A(c, 15, 10, 4, Grid{2, 1});
        A.fill([&](std::int64_t i, std::int64_t j) { return D(i, j); });
        norms[static_cast<size_t>(c.rank())] = comm::dist_norm_fro(c, A);
    });
    EXPECT_NEAR(norms[0], ref::norm_fro(D), 1e-12 * ref::norm_fro(D));
    EXPECT_EQ(norms[0], norms[1]);
}
