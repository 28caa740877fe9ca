// service-mix: svc::PolarService on T engine workers running the 16-case
// job mix of service_mix.hh. Untraced runs submit bursts back to back for
// the whole window; op_ms is the median over bursts of the burst's wall time
// per job. Traced runs add an open loop of Poisson arrivals at a fixed rate
// and report its latency, from each job's scheduled arrival, per layer: on a
// few shared cores that latency is set by how fast the host wakes an idle
// thread, which varied 2x from run to run. Every job's status and output
// bytes are checked against its single-job oracle.

#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "common/rng.hh"
#include "ledger.hh"
#include "runtime/trace_analysis.hh"
#include "service_mix.hh"

namespace tbp::ledger {
namespace {

/// Seeded variants of the case table: job i runs case i % 16 of variant
/// (i / 16) % kVariants, so one run's statistics average over many inputs
/// instead of hanging on one input per case.
constexpr std::uint64_t kVariants = 8;

/// Jobs per burst: a multiple of the 16 x kVariants table (every burst runs
/// the same mix) and ~0.2 s at T = 2, so a 20 s run's median covers 60-90
/// bursts. The traced open loop's arrival rate is ~30 % of that capacity.
constexpr std::int64_t kBurstJobs = 1024;
constexpr double kRate = 1500;

struct ServiceSetup {
    std::unique_ptr<rt::Engine> eng;
    std::unique_ptr<svc::PolarService> service;  // destroyed before eng
    std::vector<bench::SpecCase> cases;  ///< kVariants tables, variant-major
    std::vector<bench::Oracle> oracles;
    double setup_s = 0;
};

ServiceSetup service_setup(Ledger& L) {
    Tracer::Span span(L.tracer, "service", "setup");
    ServiceSetup s;
    std::vector<double> total;
    for (double const t_start = wall_time();
         total.size() < kSetupReps || wall_time() - t_start < kSetupSeconds;) {
        s.service.reset();
        s.eng.reset();
        double const t0 = wall_time();
        s.eng = std::make_unique<rt::Engine>(L.cfg.threads);
        s.service = std::make_unique<svc::PolarService>(*s.eng);
        s.cases.clear();
        for (std::uint64_t v = 0; v < kVariants; ++v) {
            auto const t = bench::make_cases(L.cfg.seed * kVariants + v);
            s.cases.insert(s.cases.end(), t.begin(), t.end());
        }
        s.oracles.clear();
        for (auto const& c : s.cases)
            s.oracles.push_back(bench::run_oracle(c));
        total.push_back(wall_time() - t0);
    }
    s.setup_s = median(total);
    return s;
}

/// Per-job samples of one phase (seconds).
struct Phase {
    std::vector<double> latency;        ///< t_end - scheduled arrival
    std::vector<double> latency_class;  ///< the same, Latency-class jobs
    std::vector<double> queue, exec, lag;
    double first_submit = 0, last_end = 0;
    std::uint64_t jobs = 0, mismatches = 0, expected_failures = 0;

    /// First submit to last completion.
    double wall() const { return last_end - first_submit; }
};

struct Pending {
    std::size_t c = 0;  ///< case index
    double due = 0;     ///< scheduled arrival
    svc::JobHandle h;
};

/// Check one completed job against its oracle and record its samples.
void settle(Ledger& L, ServiceSetup const& s, Pending const& p, Phase& ph) {
    auto const& res = p.h.result();
    auto const& c = s.cases[p.c];
    auto const& o = s.oracles[p.c];
    bool ok;
    if (c.expect != Status::Ok) {
        ok = res.status == c.expect;
        ph.expected_failures += ok ? 1 : 0;
    } else {
        auto same = [&](svc::Workspace::Slot slot, std::vector<std::byte> const& ref) {
            return p.h.output_bytes(slot) == ref.size()
                   && std::memcmp(p.h.output(slot), ref.data(), ref.size()) == 0;
        };
        ok = res.ok() && same(svc::Workspace::OutU, o.u)
             && same(svc::Workspace::OutH, o.h);
    }
    L.verify(ok);
    ph.mismatches += ok ? 0 : 1;
    ++ph.jobs;
    ph.first_submit = ph.jobs == 1 ? res.t_submit : std::min(ph.first_submit, res.t_submit);
    ph.last_end = std::max(ph.last_end, res.t_end);
    ph.latency.push_back(res.t_end - p.due);
    if (res.cls == svc::JobClass::Latency)
        ph.latency_class.push_back(res.t_end - p.due);
    ph.queue.push_back(res.t_start - res.t_submit);
    ph.exec.push_back(res.t_end - res.t_start);
    ph.lag.push_back(res.t_submit - p.due);
}

/// Submit `jobs` jobs. rate == 0 is a burst: all back to back, verified
/// once the last completes, so checking never competes with the workers.
/// rate > 0 is an open loop of Poisson arrivals drawn from `arrival_seed`,
/// verifying finished jobs between arrivals (in any order: a worker runs its
/// newest task first) so they release their workspaces.
Phase run_phase(Ledger& L, ServiceSetup& s, std::int64_t jobs, double rate,
                std::uint64_t arrival_seed) {
    Phase ph;
    std::vector<Pending> pending;
    auto settle_done = [&](bool all) {
        std::size_t keep = 0;
        for (std::size_t k = 0; k < pending.size(); ++k) {
            if (all || pending[k].h.done())
                settle(L, s, pending[k], ph);
            else if (keep++ != k)
                pending[keep - 1] = std::move(pending[k]);
        }
        pending.resize(all ? 0 : keep);
    };
    CounterRng arrivals(arrival_seed);
    double const t0 = wall_time();
    double t_arr = 0;
    for (std::int64_t i = 0; i < jobs; ++i) {
        auto const c = static_cast<std::size_t>(i) % s.cases.size();
        svc::JobSpec spec = s.cases[c].spec;
        spec.cls = i % 16 == 0 ? svc::JobClass::Latency : svc::JobClass::Bulk;
        double due = wall_time();
        if (rate > 0) {
            double const u = arrivals.uniform(static_cast<std::uint64_t>(i));
            t_arr += -std::log1p(-std::min(u, 0.999999)) / rate;
            due = t0 + t_arr;
            settle_done(false);
            double const wait = due - wall_time();
            if (wait > 0)
                std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        pending.push_back({c, due, s.service->submit(spec)});
    }
    s.service->wait_all();
    settle_done(true);
    s.eng->wait();  // retire the job tasks (the dispatcher is idle now)
    return ph;
}

/// Back-to-back bursts, at least `bursts` and for at least `seconds`;
/// returns each burst's wall seconds.
std::vector<double> run_bursts(Ledger& L, ServiceSetup& s, std::size_t bursts,
                               double seconds, std::uint64_t& mismatches,
                               std::uint64_t& expected_failures) {
    std::vector<double> walls;
    for (double const t0 = wall_time();
         walls.size() < bursts || wall_time() - t0 < seconds;) {
        Phase const ph = run_phase(L, s, kBurstJobs, 0, 0);
        walls.push_back(ph.wall());
        mismatches += ph.mismatches;
        expected_failures += ph.expected_failures;
    }
    return walls;
}

/// One job of every case and variant, unmeasured: fills the workspace pool.
double warm_up(Ledger& L, ServiceSetup& s) {
    Tracer::Span span(L.tracer, "service", "warm-up");
    double const t0 = wall_time();
    run_phase(L, s, static_cast<std::int64_t>(s.cases.size()), 0, 0);
    return wall_time() - t0;
}

}  // namespace

void run_service_mix(Ledger& L) {
    auto s = service_setup(L);
    double const warm = warm_up(L, s);
    std::uint64_t mismatches = 0, expected_failures = 0;

    if (!L.cfg.traced) {
        std::vector<double> walls;
        {
            Tracer::Span span(L.tracer, "service", "bursts");
            walls = run_bursts(L, s, 5, L.cfg.seconds, mismatches,
                               expected_failures);
        }
        L.metric("op_ms", median(walls) / kBurstJobs * 1e3, "ms");
        L.metric("setup_s", s.setup_s, "s");
    } else {
        L.metric("setup.warmup_s", warm, "s");
        std::vector<double> untraced, traced;
        {
            Tracer::Span span(L.tracer, "service", "bursts");
            untraced = run_bursts(L, s, 5, 0, mismatches, expected_failures);
        }
        auto& eng = *s.eng;
        eng.clear_trace();
        eng.reset_stats();
        eng.set_trace(true);
        {
            Tracer::Span span(L.tracer, "service", "burst (traced)");
            traced = run_bursts(L, s, 1, 0, mismatches, expected_failures);
            L.tracer.add_tasks(eng.trace(), span.id());
        }
        auto const dag = rt::analyze(eng.trace());
        auto const sched = eng.sched_stats();
        double busy = 0;
        for (auto const& r : eng.trace())
            busy += r.t_end - r.t_start;
        eng.clear_trace();
        Phase open;
        {
            Tracer::Span span(L.tracer, "service", "open loop (traced)");
            open = run_phase(L, s, std::llround(0.5 * kRate * L.cfg.seconds),
                             kRate, 0xA221 ^ (L.cfg.seed << 8));
            mismatches += open.mismatches;
            expected_failures += open.expected_failures;
            L.tracer.add_tasks(eng.trace(), span.id());
        }
        eng.set_trace(false);
        eng.clear_trace();

        int const T = L.cfg.threads;
        L.metric("trace.overhead_frac", traced[0] / median(untraced) - 1, "ratio");
        L.metric("runtime.tasks", static_cast<double>(dag.tasks), "count");
        L.metric("runtime.utilization", busy / (T * dag.measured_makespan), "ratio");
        L.metric("runtime.idle_s", T * dag.measured_makespan - busy, "s");
        L.metric("runtime.critical_path_s", dag.critical_path, "s");
        L.metric("runtime.avg_parallelism", dag.avg_parallelism, "ratio");
        L.metric("runtime.steals", static_cast<double>(sched.steals), "count");
        L.metric("runtime.sleeps", static_cast<double>(sched.sleeps), "count");
        L.metric("runtime.coverage", dag.measured_makespan / traced[0], "ratio");
        L.metric("service.latency_p50_ms", median(open.latency) * 1e3, "ms");
        L.metric("service.latency_p99_ms", quantile(open.latency, 0.99) * 1e3,
                 "ms");
        L.metric("service.queue_p50_ms", median(open.queue) * 1e3, "ms");
        L.metric("service.queue_p99_ms", quantile(open.queue, 0.99) * 1e3, "ms");
        L.metric("service.exec_p50_ms", median(open.exec) * 1e3, "ms");
        L.metric("service.exec_p99_ms", quantile(open.exec, 0.99) * 1e3, "ms");
        L.metric("service.latency_class_p99_ms",
                 quantile(open.latency_class, 0.99) * 1e3, "ms");
        L.metric("service.gen_lag_p99_ms", quantile(open.lag, 0.99) * 1e3, "ms");
        L.metric("service.workspaces_created",
                 static_cast<double>(s.service->stats().workspaces_created),
                 "count");
        L.metric("service.expected_failures",
                 static_cast<double>(expected_failures), "count");
    }
    L.record.field("oracle_mismatches", mismatches)
        .field("expected_failures", expected_failures);
}

}  // namespace tbp::ledger
