// Shared plumbing of the measured performance ledger (bench_ledger): the run
// configuration, the metric/verification sink every workload reports into,
// the in-memory span recorder with its Chrome trace-event export, and small
// statistics helpers. The ledger times the library only from outside: every
// span wraps a call into a public entry point.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/timer.hh"
#include "runtime/engine.hh"

namespace tbp::ledger {

struct Config {
    std::uint64_t seed = 1;
    double seconds = 10;  ///< measured window of one workload run
    int threads = 2;      ///< T engine workers: min(2, nproc - 1)
    int nproc = 1;
    bool traced = false;  ///< per-layer run: spans on, layer microbenches
};

// --- spans -------------------------------------------------------------------

/// In-memory span recorder. Spans nest workload -> solve -> layer call on the
/// ledger's own track (tid 0); engine task records land on one track per
/// worker (tid 1 + worker), distributed ranks on tid 100 + rank. Every span
/// carries an id and the id of the span that caused it. Disabled recorders
/// make every call a no-op, so untraced runs time the bare library.
class Tracer {
public:
    explicit Tracer(bool on) : on_(on) {}

    /// RAII span on the ledger thread; its parent is the innermost open one.
    class Span {
    public:
        Span(Tracer& tr, char const* cat, std::string name);
        ~Span();
        Span(Span const&) = delete;
        Span& operator=(Span const&) = delete;
        std::uint64_t id() const { return id_; }

    private:
        Tracer& tr_;
        char const* cat_;
        std::string name_;
        std::uint64_t id_ = 0, parent_ = 0;
        double t0_ = 0;
    };

    /// Record a finished span from any thread (distributed ranks).
    void add(char const* cat, std::string name, double t0, double t1, int tid,
             std::uint64_t parent);

    /// Engine task records of one traced region, caused by span `parent`.
    void add_tasks(std::vector<rt::TaskRecord> const& tasks,
                   std::uint64_t parent);

    /// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
    bool write(std::string const& path) const;

private:
    struct Event {
        std::string name;
        char const* cat;
        double t0, t1;
        int tid;
        std::uint64_t id, parent;
    };

    bool on_;
    mutable std::mutex mtx_;
    std::vector<Event> events_;         // guarded by mtx_
    std::vector<std::uint64_t> stack_;  // ledger thread only
    std::uint64_t next_id_ = 1;         // guarded by mtx_
};

// --- metric sink ---------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// What one workload run reports: metrics, verified operations, and a flat
/// JSON record for --json (bench_util.hh document format, so
/// tools/check_bench_json.py can judge its *_ok / *_mismatches fields).
class Ledger {
public:
    Ledger(Config const& cfg, Tracer& tracer) : cfg(cfg), tracer(tracer) {}

    Config const& cfg;
    Tracer& tracer;

    /// Report a metric; the name must be in the catalogue of this run's
    /// kind (end-to-end untraced, per-layer traced). Non-finite values throw.
    void metric(std::string const& name, double value, char const* unit);

    /// Count one verified operation; a false `ok` counts it failed.
    void verify(bool ok) {
        ++attempted;
        if (!ok)
            ++failed;
    }

    /// Value of an already reported metric (throws if absent).
    double value(std::string const& name) const;

    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bench::JsonRecord record;
};

/// Metric catalogues: name -> unit. End-to-end metrics come from untraced
/// runs; per-layer metrics from --trace runs, where a layer a workload does
/// not reach reports 0.
struct MetricDef {
    char const* name;
    char const* unit;
};
std::vector<MetricDef> const& end_to_end_metrics();
std::vector<MetricDef> const& per_layer_metrics();

// --- workloads -----------------------------------------------------------------

void run_polar_1024(Ledger& L);
void run_polar_512_ladder(Ledger& L);
void run_polar_dist_p2(Ledger& L);
void run_service_mix(Ledger& L);

/// Layer microbenches of a traced run: kernel, blas, runtime, linalg, cond.
void run_layers(Ledger& L);

// --- helpers -------------------------------------------------------------------

/// ref:: accuracy of a polar factorization A = U H.
struct Accuracy {
    double orth = 0;      ///< ||I - U^H U||_F / sqrt(n)
    double backward = 0;  ///< ||A - U H||_F / ||A||_F
};
Accuracy polar_accuracy(ref::Dense<double> const& A,
                        ref::Dense<double> const& U,
                        ref::Dense<double> const& H);

/// Quantile q of v by nearest rank (v copied and sorted).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Repeat `body` `reps` times and return the median wall seconds.
template <typename F>
double median_seconds(int reps, F&& body) {
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        double const t0 = wall_time();
        body();
        t.push_back(wall_time() - t0);
    }
    return median(t);
}

/// A run repeats its set-up at least kSetupReps times and for at least
/// kSetupSeconds; setup_s is the median.
inline constexpr std::size_t kSetupReps = 5;
inline constexpr double kSetupSeconds = 1.5;

}  // namespace tbp::ledger
