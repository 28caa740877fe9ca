// Resilience benchmark: the price and the payoff of the fault plane
// (src/fault/) on the distributed QDWH workload.
//
// Three questions, answered with measured counters:
//   1. Overhead off: with an installed-but-inert plan every p2p message
//      still travels the enveloped reliable transport (seq + checksum +
//      retained copies). The logical traffic counters must be identical to
//      the bare fast path, and wall time must stay within a small factor.
//   2. Recovery: under seeded drop/corrupt/dup/delay plans the solver must
//      produce the bit-identical factor of the fault-free run, with the
//      recovery counters exactly matching the injected plan (resends ==
//      drops + corrupts, every duplicate absorbed).
//   3. Fail-stop: a poisoned rank must terminate the run with a typed error
//      inside the retry deadline — never a hang.
//
// Usage:
//   bench_resilience               full sweep, console table +
//                                  BENCH_resilience.json
//   bench_resilience --json PATH   write the JSON document to PATH
//   bench_resilience --smoke       fast ctest mode asserting 1-3

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "comm/comm_error.hh"
#include "comm/communicator.hh"
#include "comm/dist.hh"
#include "comm/dist_qdwh.hh"
#include "common/timer.hh"
#include "fault/fault_plan.hh"
#include "perf/fault_report.hh"
#include "perf/sched_report.hh"

using namespace tbp;

namespace {

struct CaseResult {
    std::vector<double> U;       // rank 0's gathered factor
    perf::CommReport comm;
    perf::FaultReport fault;
    double wall = 0;
    int iterations = 0;
    bool failed = false;         // run ended in a typed comm/rank error
    std::string error;
};

fault::RetryConfig bench_retry() {
    fault::RetryConfig rc;
    rc.timeout_ms = 5;
    rc.retry_max = 6;
    return rc;
}

/// One distributed QDWH solve (n x n, nb, P ranks in a near-square grid)
/// under `plan`; installs nothing when `install` is false (bare baseline).
CaseResult run_case(int P, std::int64_t n, int nb, fault::FaultPlan plan,
                    bool install) {
    Grid const g = comm::near_square_grid(P);
    auto fill = [](std::int64_t i, std::int64_t j) {
        return (i == j ? 2.0 : 0.0) + 1.0 / static_cast<double>(1 + i + j);
    };
    comm::World world(P);
    if (install)
        world.set_fault(plan, bench_retry());
    CaseResult r;
    Timer t;
    try {
        world.run([&](comm::Communicator& c) {
            comm::DistMatrix<double> A(c, n, n, nb, g);
            A.fill(fill);
            auto inf = comm::dist_qdwh(c, g, A, 1e-3);
            auto dense = comm::dist_gather(c, A);
            if (c.rank() == 0) {
                r.U = std::move(dense);
                r.iterations = inf.iterations;
            }
        });
    } catch (Error const& e) {
        r.failed = true;
        r.error = e.what();
    }
    r.wall = t.elapsed();
    r.comm = perf::comm_report(world);
    r.fault = perf::fault_report(world);
    return r;
}

/// Best-of-reps wall time for the overhead comparison (virtual ranks
/// time-share cores, so single runs are noisy).
double best_wall(int P, std::int64_t n, int nb, fault::FaultPlan plan,
                 bool install, int reps) {
    double best = 1e300;
    for (int i = 0; i < reps; ++i)
        best = std::min(best, run_case(P, n, nb, plan, install).wall);
    return best;
}

bool bitwise_equal(std::vector<double> const& a,
                   std::vector<double> const& b) {
    return a.size() == b.size()
           && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

int run_sweep(std::string const& json_path) {
    bench::header("bench_resilience",
                  "fault-plane overhead and recovery on distributed QDWH");
    bench::JsonEmitter out;
    bool all_ok = true;
    std::int64_t const n = 64;
    int const nb = 32;

    struct Kind {
        char const* name;
        fault::FaultKind kind;
    };
    Kind const kinds[] = {{"drop", fault::FaultKind::Drop},
                          {"corrupt", fault::FaultKind::Corrupt},
                          {"dup", fault::FaultKind::Duplicate},
                          {"delay", fault::FaultKind::Delay},
                          {"mix", fault::FaultKind::Mix}};

    for (int P : {4, 8}) {
        auto clean = run_case(P, n, nb, {}, false);
        auto inert = run_case(P, n, nb, fault::FaultPlan{}, true);
        bool const inert_exact =
            inert.comm.total.sends == clean.comm.total.sends
            && inert.comm.total.bytes_sent == clean.comm.total.bytes_sent
            && bitwise_equal(inert.U, clean.U);
        all_ok = all_ok && inert_exact;
        std::printf("\nP=%d clean: %d iters, %llu msgs, %llu bytes, %.3fs\n",
                    P, clean.iterations,
                    static_cast<unsigned long long>(clean.comm.total.sends),
                    static_cast<unsigned long long>(
                        clean.comm.total.bytes_sent),
                    clean.wall);
        std::printf("  inert plan: counters %s, wall %.3fs\n",
                    inert_exact ? "identical" : "DIVERGED", inert.wall);
        bench::JsonRecord base;
        base.field("ranks", P)
            .field("plan", "inert")
            .field("rate", 0.0)
            .field("bitwise_match", inert_exact)
            .field("messages", inert.comm.total.sends)
            .field("bytes", inert.comm.total.bytes_sent)
            .field("wall_clean", clean.wall)
            .field("wall", inert.wall)
            .field("resends", inert.fault.total.resends)
            .field("injected", inert.fault.injected());
        out.add(base);

        for (auto const& k : kinds) {
            for (double rate : {0.01, 0.05}) {
                auto plan = fault::FaultPlan::preset(k.kind, 2024, rate);
                auto r = run_case(P, n, nb, plan, true);
                bool const match = !r.failed && bitwise_equal(r.U, clean.U)
                                   && r.comm.total.bytes_sent
                                          == clean.comm.total.bytes_sent;
                all_ok = all_ok && match;
                auto const& f = r.fault.total;
                std::printf(
                    "  %-7s rate %.2f: injected %4llu (d%llu c%llu u%llu "
                    "l%llu)  resends %4llu  %.3fs  %s\n",
                    k.name, rate,
                    static_cast<unsigned long long>(r.fault.injected()),
                    static_cast<unsigned long long>(f.injected_drops),
                    static_cast<unsigned long long>(f.injected_corrupts),
                    static_cast<unsigned long long>(f.injected_dups),
                    static_cast<unsigned long long>(f.injected_delays),
                    static_cast<unsigned long long>(f.resends), r.wall,
                    match ? "bitwise match" : "MISMATCH");
                bench::JsonRecord rec;
                rec.field("ranks", P)
                    .field("plan", k.name)
                    .field("rate", rate)
                    .field("bitwise_match", match)
                    .field("messages", r.comm.total.sends)
                    .field("bytes", r.comm.total.bytes_sent)
                    .field("wall_clean", clean.wall)
                    .field("wall", r.wall)
                    .field("injected", r.fault.injected())
                    .field("injected_drops", f.injected_drops)
                    .field("injected_corrupts", f.injected_corrupts)
                    .field("injected_dups", f.injected_dups)
                    .field("injected_delays", f.injected_delays)
                    .field("resends", f.resends)
                    .field("checksum_failures", f.checksum_failures)
                    .field("dups_absorbed", r.fault.dups_accounted());
                out.add(rec);
            }
        }
    }

    if (out.write(json_path))
        std::printf("\nwrote %s\n", json_path.c_str());
    std::printf("recovery cross-check: %s\n",
                all_ok ? "all cases bitwise" : "MISMATCHES (see above)");
    return all_ok ? 0 : 1;
}

int run_smoke() {
    bool ok = true;
    auto fail = [&](char const* what) {
        std::printf("smoke FAIL: %s\n", what);
        ok = false;
    };
    std::int64_t const n = 64;
    int const nb = 32;
    int const P = 4;

    // 1. Inert plan: logical counters and result identical to the bare
    //    path; enveloped-transport wall overhead bounded.
    auto clean = run_case(P, n, nb, {}, false);
    auto inert = run_case(P, n, nb, fault::FaultPlan{}, true);
    if (clean.failed || inert.failed)
        fail("fault-free run raised an error");
    if (inert.comm.total.sends != clean.comm.total.sends
        || inert.comm.total.bytes_sent != clean.comm.total.bytes_sent)
        fail("inert plan changed the logical traffic counters");
    if (!bitwise_equal(inert.U, clean.U))
        fail("inert plan changed the result bytes");
    if (inert.fault.injected() != 0 || inert.fault.total.resends != 0)
        fail("inert plan injected or recovered something");
    double const w_bare = best_wall(P, n, nb, {}, false, 3);
    double const w_env = best_wall(P, n, nb, fault::FaultPlan{}, true, 3);
    if (w_env > 2.5 * w_bare + 0.05) {
        std::printf("  enveloped %.4fs vs bare %.4fs\n", w_env, w_bare);
        fail("reliable-transport overhead above bound");
    }

    // 2. Drop sweep: bitwise recovery with resends == injected drops and
    //    model-exact byte counters.
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        auto plan = fault::FaultPlan::preset(fault::FaultKind::Drop, seed);
        auto r = run_case(P, n, nb, plan, true);
        if (r.failed)
            fail("drop plan run raised an error");
        if (!bitwise_equal(r.U, clean.U))
            fail("drop plan result differs from fault-free oracle");
        if (r.fault.total.resends != r.fault.total.injected_drops)
            fail("resends != injected drops");
        if (r.fault.injected() == 0)
            fail("drop plan injected nothing");
        if (r.comm.total.bytes_sent != clean.comm.total.bytes_sent)
            fail("drop plan perturbed logical byte counters");
    }

    // 3. Fail-stop: a poisoned rank terminates the run with a typed error
    //    well inside the smoke budget.
    auto poison = fault::FaultPlan::preset(fault::FaultKind::PoisonRank, 9);
    poison.poison_after_sends = 10;
    Timer t;
    auto r = run_case(P, n, nb, poison, true);
    if (!r.failed)
        fail("poisoned rank did not surface an error");
    if (r.error.empty())
        fail("poison error carries no message");
    if (t.elapsed() > 30.0)
        fail("poisoned run took too long to terminate");

    std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string json_path = "BENCH_resilience.json";
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
        return run_smoke();
    return run_sweep(json_path);
}
