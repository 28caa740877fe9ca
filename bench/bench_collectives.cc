// Collective-algorithm benchmark: linear (reference oracle) vs tree /
// recursive-doubling / ring collectives, swept over rank counts and message
// sizes. For every case it cross-checks the measured CommStats totals
// (messages, bytes, max per-rank sends) against the cost model's
// collective_volume prediction — the two must match exactly, since the
// predictor replays the algorithm loops.
//
// On a small host the virtual ranks time-share cores, so wall time is noisy;
// the headline metric is the root/ring bottleneck `max_rank_sends` (linear
// bcast: P-1 at the root; tree: ceil(log2 P)), which is exact and
// machine-independent.
//
// Usage:
//   bench_collectives               full sweep, console table +
//                                   BENCH_collectives.json
//   bench_collectives --json PATH   write the JSON document to PATH
//   bench_collectives --smoke       fast ctest mode: asserts prediction ==
//                                   measurement and that tree/ring beat the
//                                   linear bottleneck at P >= 4

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "comm/communicator.hh"
#include "common/timer.hh"
#include "perf/cost_model.hh"
#include "perf/sched_report.hh"

using namespace tbp;

namespace {

char const* kind_name(perf::CollKind k) {
    switch (k) {
        case perf::CollKind::Bcast: return "bcast";
        case perf::CollKind::Reduce: return "reduce";
        case perf::CollKind::Allreduce: return "allreduce";
        case perf::CollKind::Allgather: return "allgather";
    }
    return "?";
}

struct Measured {
    perf::CommReport rep;
    double sec_per_op = 0;
};

/// Run `reps` iterations of one collective on P ranks, count doubles each.
Measured run_case(perf::CollKind kind, comm::coll::Algo algo, int P,
                  std::size_t count, int reps) {
    comm::coll::Config cfg;
    switch (kind) {
        case perf::CollKind::Bcast: cfg.bcast = algo; break;
        case perf::CollKind::Reduce: cfg.reduce = algo; break;
        case perf::CollKind::Allreduce: cfg.allreduce = algo; break;
        case perf::CollKind::Allgather: cfg.allgather = algo; break;
    }
    if (algo == comm::coll::Algo::Ring)
        cfg.deterministic = false;

    comm::World world(P);
    world.set_coll_config(cfg);
    Timer t;
    world.run([&](comm::Communicator& c) {
        std::vector<double> buf(count);
        std::vector<double> all(count * static_cast<std::size_t>(P));
        for (int r = 0; r < reps; ++r) {
            for (std::size_t i = 0; i < count; ++i)
                buf[i] = static_cast<double>((c.rank() + 1) * (r + 1))
                         + static_cast<double>(i % 17);
            switch (kind) {
                case perf::CollKind::Bcast:
                    c.bcast(buf.data(), count, 0);
                    break;
                case perf::CollKind::Reduce:
                    c.reduce(buf.data(), count,
                             [](double& a, double const& b) { a += b; }, 0);
                    break;
                case perf::CollKind::Allreduce:
                    c.allreduce_sum(buf.data(), count);
                    break;
                case perf::CollKind::Allgather:
                    c.allgather(buf.data(), count, all.data());
                    break;
            }
        }
    });
    Measured m;
    m.sec_per_op = t.elapsed() / reps;
    m.rep = perf::comm_report(world);
    return m;
}

/// Predicted traffic of `reps` iterations (volumes scale linearly).
perf::CollVolume predict(perf::CollKind kind, comm::coll::Algo algo, int P,
                         std::size_t count, int reps) {
    auto v = perf::collective_volume(kind, algo, P, count, sizeof(double));
    auto const r = static_cast<std::uint64_t>(reps);
    v.messages *= r;
    v.bytes *= r;
    v.max_rank_sends *= r;
    v.max_rank_bytes *= r;
    v.bcast_bytes *= r;
    v.reduce_bytes *= r;
    v.allreduce_bytes *= r;
    v.allgather_bytes *= r;
    v.p2p_bytes *= r;
    return v;
}

/// The per-family attribution must charge everything to the family that was
/// called: the field matching `kind` equals `bytes`, the rest stay zero.
bool check_attribution(perf::CollKind kind, perf::CollVolume const& v) {
    std::uint64_t const want[4] = {v.bcast_bytes, v.reduce_bytes,
                                   v.allreduce_bytes, v.allgather_bytes};
    for (int i = 0; i < 4; ++i) {
        bool const mine = i == static_cast<int>(kind);
        if (want[i] != (mine ? v.bytes : 0))
            return false;
    }
    return v.p2p_bytes == 0;
}

bool check_match(Measured const& m, perf::CollVolume const& v) {
    return m.rep.total.sends == v.messages
           && m.rep.total.bytes_sent == v.bytes
           && m.rep.max_rank_sends() == v.max_rank_sends
           && m.rep.max_rank_bytes() == v.max_rank_bytes
           && m.rep.leaked == 0;
}

std::vector<comm::coll::Algo> algos_for(perf::CollKind kind) {
    using comm::coll::Algo;
    switch (kind) {
        case perf::CollKind::Bcast:
        case perf::CollKind::Reduce:
            return {Algo::Linear, Algo::Tree};
        case perf::CollKind::Allreduce:
            return {Algo::Linear, Algo::Tree, Algo::RecDouble, Algo::Ring};
        case perf::CollKind::Allgather:
            return {Algo::Linear, Algo::Tree, Algo::Ring};
    }
    return {};
}

int run_sweep(std::string const& json_path) {
    bench::header("bench_collectives",
                  "algorithmic collectives vs the linear oracle");
    bench::JsonEmitter out;
    bool all_match = true;

    // Weak-scaling tail: past 8 virtual ranks the time-shared threads make
    // wall time meaningless and the allgather buffers grow as P * count, so
    // the large-P rows keep the exact traffic cross-check but drop the big
    // message size and most reps.
    std::vector<int> const ranks = {2, 3, 4, 6, 8, 16, 64};
    int const reps_small = 20;

    for (auto kind : {perf::CollKind::Bcast, perf::CollKind::Reduce,
                      perf::CollKind::Allreduce, perf::CollKind::Allgather}) {
        std::printf("\n%s:\n", kind_name(kind));
        for (int P : ranks) {
            std::vector<std::size_t> const counts =
                P <= 8 ? std::vector<std::size_t>{256, 4096, 65536}
                       : std::vector<std::size_t>{256, 4096};
            int const reps = P <= 8 ? reps_small : 3;
            for (std::size_t count : counts) {
                for (auto algo : algos_for(kind)) {
                    auto m = run_case(kind, algo, P, count, reps);
                    auto v = predict(kind, algo, P, count, reps);
                    bool const ok =
                        check_match(m, v) && check_attribution(kind, v);
                    all_match = all_match && ok;
                    std::printf(
                        "  P=%d count=%6zu %-9s %8.1f us/op  msgs %6llu  "
                        "max/rank sends %4llu  model %s\n",
                        P, count, comm::coll::algo_name(algo),
                        m.sec_per_op * 1e6,
                        static_cast<unsigned long long>(m.rep.total.sends),
                        static_cast<unsigned long long>(
                            m.rep.max_rank_sends()),
                        ok ? "match" : "MISMATCH");
                    bench::JsonRecord r;
                    r.field("collective", kind_name(kind))
                        .field("algo", comm::coll::algo_name(algo))
                        .field("ranks", P)
                        .field("count", static_cast<std::int64_t>(count))
                        .field("bytes_per_rank",
                               static_cast<std::int64_t>(count
                                                         * sizeof(double)))
                        .field("reps", reps)
                        .field("sec_per_op", m.sec_per_op)
                        .field("messages", m.rep.total.sends)
                        .field("bytes", m.rep.total.bytes_sent)
                        .field("max_rank_sends", m.rep.max_rank_sends())
                        .field("max_rank_bytes", m.rep.max_rank_bytes())
                        .field("wait_rank_seconds",
                               m.rep.total.wait_seconds / reps)
                        .field("model_messages", v.messages)
                        .field("model_bytes", v.bytes)
                        .field("model_max_rank_sends", v.max_rank_sends)
                        .field("model_max_rank_bytes", v.max_rank_bytes)
                        .field("model_bcast_bytes", v.bcast_bytes)
                        .field("model_reduce_bytes", v.reduce_bytes)
                        .field("model_allreduce_bytes", v.allreduce_bytes)
                        .field("model_allgather_bytes", v.allgather_bytes)
                        .field("model_p2p_bytes", v.p2p_bytes)
                        .field("model_match", ok);
                    out.add(r);
                }
            }
        }
    }

    if (out.write(json_path))
        std::printf("\nwrote %s\n", json_path.c_str());
    std::printf("model cross-check: %s\n",
                all_match ? "all cases match" : "MISMATCHES (see above)");
    return all_match ? 0 : 1;
}

int run_smoke(std::string const& json_path) {
    using comm::coll::Algo;
    bool ok = true;
    auto fail = [&](char const* what) {
        std::printf("smoke FAIL: %s\n", what);
        ok = false;
    };
    bench::JsonEmitter out;

    // Every (kind, algo) pair must match the model exactly, including a
    // non-power-of-two rank count.
    for (int P : {4, 6}) {
        for (auto kind :
             {perf::CollKind::Bcast, perf::CollKind::Reduce,
              perf::CollKind::Allreduce, perf::CollKind::Allgather}) {
            for (auto algo : algos_for(kind)) {
                auto m = run_case(kind, algo, P, 512, 3);
                auto v = predict(kind, algo, P, 512, 3);
                bool const attr_ok = check_attribution(kind, v);
                bool const match = check_match(m, v);
                bench::JsonRecord rec;
                rec.field("bench", "collectives_smoke");
                rec.field("kind", kind_name(kind));
                rec.field("algo", comm::coll::algo_name(algo));
                rec.field("ranks", P);
                rec.field("measured_bytes", m.rep.total.bytes_sent);
                rec.field("measured_msgs", m.rep.total.sends);
                rec.field("attribution_ok", attr_ok);
                rec.field("volume_model_match", match);
                out.add(rec);
                if (!attr_ok)
                    fail("per-family byte attribution wrong");
                if (!match) {
                    std::printf("  %s/%s P=%d: measured %llu msgs %llu bytes "
                                "max %llu vs model %llu/%llu/%llu\n",
                                kind_name(kind), comm::coll::algo_name(algo),
                                P,
                                static_cast<unsigned long long>(
                                    m.rep.total.sends),
                                static_cast<unsigned long long>(
                                    m.rep.total.bytes_sent),
                                static_cast<unsigned long long>(
                                    m.rep.max_rank_sends()),
                                static_cast<unsigned long long>(v.messages),
                                static_cast<unsigned long long>(v.bytes),
                                static_cast<unsigned long long>(
                                    v.max_rank_sends));
                    fail("measured traffic != collective_volume prediction");
                }
            }
        }
    }

    // The algorithmic collectives must beat the linear root bottleneck at
    // P >= 4 (the whole point of the engine).
    for (int P : {4, 8}) {
        auto lin_b = predict(perf::CollKind::Bcast, Algo::Linear, P, 512, 1);
        auto tre_b = predict(perf::CollKind::Bcast, Algo::Tree, P, 512, 1);
        if (tre_b.max_rank_sends >= lin_b.max_rank_sends)
            fail("tree bcast does not beat linear bottleneck");
        auto lin_a =
            predict(perf::CollKind::Allreduce, Algo::Linear, P, 512, 1);
        auto rec_a =
            predict(perf::CollKind::Allreduce, Algo::RecDouble, P, 512, 1);
        auto rin_a = predict(perf::CollKind::Allreduce, Algo::Ring, P,
                             65536, 1);
        auto lin_big =
            predict(perf::CollKind::Allreduce, Algo::Linear, P, 65536, 1);
        if (rec_a.max_rank_sends >= lin_a.max_rank_sends)
            fail("recdouble allreduce does not beat linear bottleneck");
        // Ring sends ~2 n / P bytes per rank; the linear root ships
        // (P - 1) n in its bcast phase. Total bytes tie — the per-rank
        // bandwidth bottleneck is where ring wins.
        if (rin_a.max_rank_bytes >= lin_big.max_rank_bytes)
            fail("ring allreduce does not beat linear per-rank bytes");
        bench::JsonRecord rec;
        rec.field("bench", "collectives_smoke");
        rec.field("ranks", P);
        rec.field("bottleneck_ok",
                  tre_b.max_rank_sends < lin_b.max_rank_sends
                      && rec_a.max_rank_sends < lin_a.max_rank_sends
                      && rin_a.max_rank_bytes < lin_big.max_rank_bytes);
        out.add(rec);
    }

    if (out.write(json_path))
        std::printf("wrote %s\n", json_path.c_str());
    std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string json_path = "BENCH_collectives.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    if (smoke)
        return run_smoke(json_path);
    return run_sweep(json_path);
}
