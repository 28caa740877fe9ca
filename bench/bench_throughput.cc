// bench_throughput — batched "polar as a service" throughput under
// open-loop Poisson arrivals (service layer, src/service/).
//
// What it measures and checks:
//   - jobs/sec and p50/p99 latency per QoS class (Latency vs Bulk) for a
//     mixed qdwh/zolopd/posv/geqrf workload across all four scalar types;
//   - an A/B of the QoS scheduler against a FIFO baseline under bulk
//     overload: Latency-class p99 must be measurably below FIFO's. The two
//     runs are interleaved over the two halves of the job stream in ABBA
//     order (qos, fifo, fifo, qos) and each pools its samples, so a change
//     in host load during the bench lands on both schedulers alike;
//   - zero cross-job corruption: every successful job's output bytes are
//     compared bit-for-bit against a single-job oracle run of the same
//     spec (counter-based generation + per-job sequential engines make
//     outputs a pure function of the spec);
//   - failure containment: deliberately failing specs (non-convergence,
//     non-HPD pivot, invalid dimensions) must yield JobResult errors while
//     every other job completes.
//
// Usage:
//   bench_throughput [--smoke] [--jobs N] [--json PATH]
//
// --smoke runs inside ctest (label "service"): >= 1000 mixed jobs, exits
// nonzero on any oracle mismatch, unexpected status, or a QoS p99 that is
// not below the FIFO baseline. Results land in BENCH_throughput.json.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "common/timer.hh"
#include "ledger/service_mix.hh"
#include "service/service.hh"

using namespace tbp;

namespace {

// The 16-case job table and its single-job oracle are the ledger's
// service-mix definitions (seed 0 is the original table).
using bench::make_cases;
using bench::Oracle;
using bench::run_oracle;
using bench::SpecCase;

double percentile(std::vector<double> v, double p) {
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto idx = static_cast<size_t>(p * (static_cast<double>(v.size()) - 1));
    return v[idx];
}

struct ClassStats {
    std::uint64_t jobs = 0;
    double p50 = 0, p99 = 0;
};

/// One scheduler's results, pooled over the slices of the job stream it
/// ran.
struct RunOut {
    double wall = 0;                ///< summed over the slices
    std::uint64_t jobs = 0;
    std::vector<double> lat_l, lat_b;  ///< latency samples per class
    std::uint64_t mismatches = 0;       ///< oracle byte or status mismatches
    std::uint64_t expected_failures = 0;
    std::size_t workspaces = 0;        ///< largest pool of any slice
    std::uint64_t retried_jobs = 0;    ///< jobs that needed > 1 attempt
    std::uint64_t recovered_jobs = 0;  ///< retried jobs that ended Ok

    void add(RunOut const& o) {
        wall += o.wall;
        jobs += o.jobs;
        lat_l.insert(lat_l.end(), o.lat_l.begin(), o.lat_l.end());
        lat_b.insert(lat_b.end(), o.lat_b.begin(), o.lat_b.end());
        mismatches += o.mismatches;
        expected_failures += o.expected_failures;
        workspaces = std::max(workspaces, o.workspaces);
        retried_jobs += o.retried_jobs;
        recovered_jobs += o.recovered_jobs;
    }
    double jobs_per_sec() const { return wall > 0 ? jobs / wall : 0; }
    ClassStats latency() const {
        return {static_cast<std::uint64_t>(lat_l.size()),
                percentile(lat_l, 0.50), percentile(lat_l, 0.99)};
    }
    ClassStats bulk() const {
        return {static_cast<std::uint64_t>(lat_b.size()),
                percentile(lat_b, 0.50), percentile(lat_b, 0.99)};
    }
};

// One service run over jobs [first, first + jobs) of the stream: Poisson
// arrivals at `rate` jobs/sec, every 16th job in the Latency class,
// verification of every result against the oracle table.
RunOut run_batch(std::vector<SpecCase> const& cases,
                 std::vector<Oracle> const& oracles, int first, int jobs,
                 int threads, double rate, bool fifo) {
    rt::Engine eng(threads);
    svc::ServiceOptions so;
    so.fifo = fifo;
    svc::PolarService service(eng, so);

    std::vector<svc::JobHandle> handles;
    handles.reserve(static_cast<size_t>(jobs));
    CounterRng arrivals(0xA221);
    double const t0 = wall_time();
    double t_arr = 0;
    for (int i = first; i < first + jobs; ++i) {
        auto const d = static_cast<size_t>(i) % cases.size();
        svc::JobSpec s = cases[d].spec;
        s.cls = (i % 16 == 0) ? svc::JobClass::Latency : svc::JobClass::Bulk;
        double const u = arrivals.uniform(static_cast<std::uint64_t>(i));
        t_arr += -std::log1p(-std::min(u, 0.999999)) / rate;
        while (wall_time() - t0 < t_arr)
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        handles.push_back(service.submit(s));
    }
    service.wait_all();

    RunOut out;
    out.jobs = static_cast<std::uint64_t>(jobs);
    double t_last = t0;
    for (int i = first; i < first + jobs; ++i) {
        auto const d = static_cast<size_t>(i) % cases.size();
        auto const& h = handles[static_cast<size_t>(i - first)];
        auto const& res = h.result();
        t_last = std::max(t_last, res.t_end);
        (res.cls == svc::JobClass::Latency ? out.lat_l : out.lat_b)
            .push_back(res.latency());
        if (cases[d].expect != Status::Ok) {
            // A failing job must report exactly its failure — and nothing
            // else in the batch is allowed to be dragged down by it.
            if (res.status == cases[d].expect)
                ++out.expected_failures;
            else
                ++out.mismatches;
            continue;
        }
        if (!res.ok()) {
            ++out.mismatches;
            continue;
        }
        bool const same_u =
            h.output_bytes(svc::Workspace::OutU) == oracles[d].u.size()
            && std::memcmp(h.output(svc::Workspace::OutU), oracles[d].u.data(),
                           oracles[d].u.size()) == 0;
        bool const same_h =
            h.output_bytes(svc::Workspace::OutH) == oracles[d].h.size()
            && std::memcmp(h.output(svc::Workspace::OutH), oracles[d].h.data(),
                           oracles[d].h.size()) == 0;
        if (!same_u || !same_h)
            ++out.mismatches;
    }
    out.wall = t_last - t0;
    auto const st = service.stats();
    out.workspaces = st.workspaces_created;
    out.retried_jobs = st.retried_jobs;
    out.recovered_jobs = st.recovered_jobs;
    return out;
}

void report(char const* name, RunOut const& r, bench::JsonEmitter& out) {
    ClassStats const lat = r.latency(), bulk = r.bulk();
    std::printf("%-5s %7.0f jobs/s  wall %.2fs  latency-class p50 %7.2fms "
                "p99 %7.2fms  bulk p50 %7.2fms p99 %7.2fms  ws %zu  "
                "mismatch %llu\n",
                name, r.jobs_per_sec(), r.wall, lat.p50 * 1e3, lat.p99 * 1e3,
                bulk.p50 * 1e3, bulk.p99 * 1e3, r.workspaces,
                static_cast<unsigned long long>(r.mismatches));
    bench::JsonRecord rec;
    rec.field("bench", "throughput").field("sched", name);
    rec.field("jobs_per_sec", r.jobs_per_sec()).field("wall_s", r.wall);
    rec.field("latency_jobs", lat.jobs)
        .field("latency_p50_s", lat.p50)
        .field("latency_p99_s", lat.p99);
    rec.field("bulk_jobs", bulk.jobs)
        .field("bulk_p50_s", bulk.p50)
        .field("bulk_p99_s", bulk.p99);
    rec.field("oracle_mismatches", r.mismatches)
        .field("expected_failures", r.expected_failures)
        .field("retried_jobs", r.retried_jobs)
        .field("recovered_jobs", r.recovered_jobs)
        .field("workspaces_created",
               static_cast<std::uint64_t>(r.workspaces));
    out.add(rec);
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    int jobs = 2000;
    bool jobs_set = false;
    std::string json_path = "BENCH_throughput.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            jobs = std::atoi(argv[++i]);
            jobs_set = true;
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--jobs N] [--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    if (smoke && !jobs_set)
        jobs = 1000;  // the smoke contract: >= 1000 mixed jobs

    int const threads = bench::bench_threads();
    bench::header("service", "batched polar-as-a-service throughput");

    auto const cases = make_cases();
    std::vector<Oracle> oracles;
    double mean_t = 0;
    int timed = 0;
    for (auto const& c : cases) {
        oracles.push_back(run_oracle(c));
        if (oracles.back().status == Status::Ok) {
            mean_t += oracles.back().secs;
            ++timed;
        }
    }
    mean_t = timed > 0 ? mean_t / timed : 1e-3;
    // Open-loop overload: arrivals at ~2x the service capacity so a Bulk
    // backlog builds and the QoS split has something to cut through.
    double const rate =
        std::min(2.0 * threads / std::max(mean_t, 1e-6), 2e5);
    std::printf("threads %d  cases %zu  mean service %.3fms  arrival rate "
                "%.0f jobs/s  jobs %d\n",
                threads, cases.size(), mean_t * 1e3, rate, jobs);

    // ABBA over the two halves of the job stream: each scheduler runs every
    // job once, and both see the start and the end of the bench.
    int const half = jobs / 2;
    RunOut qos, fifo;
    qos.add(run_batch(cases, oracles, 0, half, threads, rate, false));
    fifo.add(run_batch(cases, oracles, 0, half, threads, rate, true));
    fifo.add(run_batch(cases, oracles, half, jobs - half, threads, rate, true));
    qos.add(run_batch(cases, oracles, half, jobs - half, threads, rate, false));

    bench::JsonEmitter out;
    report("qos", qos, out);
    report("fifo", fifo, out);
    double const qos_p99 = qos.latency().p99;
    double const fifo_p99 = fifo.latency().p99;
    double const ratio = qos_p99 > 0 ? fifo_p99 / qos_p99 : 0;
    std::printf("latency-class p99: qos %.2fms vs fifo %.2fms (%.1fx)\n",
                qos_p99 * 1e3, fifo_p99 * 1e3, ratio);
    {
        bench::JsonRecord rec;
        rec.field("bench", "throughput").field("sched", "ab");
        rec.field("fifo_over_qos_latency_p99", ratio);
        out.add(rec);
    }
    out.write(json_path);

    if (smoke) {
        std::uint64_t const expect_fail_per_pass =
            (static_cast<std::uint64_t>(jobs) + cases.size() - 1) / cases.size();
        bool ok = true;
        auto check = [&](bool cond, char const* what) {
            if (!cond) {
                std::printf("smoke FAIL: %s\n", what);
                ok = false;
            }
        };
        check(qos.mismatches == 0, "qos run had oracle/status mismatches");
        check(fifo.mismatches == 0, "fifo run had oracle/status mismatches");
        check(qos.expected_failures >= expect_fail_per_pass,
              "deliberate failures missing from the qos run");
        check(qos_p99 < fifo_p99,
              "QoS latency-class p99 not below the FIFO baseline");
        std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
        return ok ? 0 : 1;
    }
    return 0;
}
