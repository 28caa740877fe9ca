// bench_ledger — the measured performance ledger: four fixed workloads,
// timed from outside the library, every output verified, every metric
// printed by name with its unit (README.md has the catalogue).
//
// Usage:
//   bench_ledger --workload <polar-1024|polar-512-ladder|polar-dist-p2|
//                            service-mix|all>
//                --seed S [--seconds N] [--trace PATH] [--json PATH]
//
// Untraced runs report the end-to-end metrics. --trace PATH turns on span
// recording and engine tracing, runs the layer microbenches, reports the
// per-layer metrics instead, and writes every span to PATH as Chrome
// trace-event JSON. Each metric prints as one `workload metric value unit`
// line; the last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and --json PATH writes the same data as a bench_util.hh document.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>

#include "ledger.hh"

namespace tbp::ledger {

// --- catalogues ----------------------------------------------------------------

std::vector<MetricDef> const& end_to_end_metrics() {
    static std::vector<MetricDef> const defs = {
        {"op_ms", "ms"}, {"setup_s", "s"}, {"peak_rss_mb", "MiB"},
    };
    return defs;
}

std::vector<MetricDef> const& per_layer_metrics() {
    static std::vector<MetricDef> const defs = {
        {"kernel.dgemm_gflops", "GF/s"},
        {"kernel.sgemm_gflops", "GF/s"},
        {"kernel.cgemm_gflops", "GF/s"},
        {"kernel.zgemm_gflops", "GF/s"},
        {"kernel.bf16gemm_gflops", "GF/s"},
        {"kernel.dgemm192_gflops", "GF/s"},
        {"blas.geqrt_gflops", "GF/s"},
        {"blas.tsqrt_gflops", "GF/s"},
        {"blas.ttqrt_gflops", "GF/s"},
        {"blas.potrf_gflops", "GF/s"},
        {"blas.trsm_gflops", "GF/s"},
        {"blas.herk_gflops", "GF/s"},
        {"blas.unmqr_gflops", "GF/s"},
        {"blas.tsmqr_gflops", "GF/s"},
        {"blas.ttmqr_gflops", "GF/s"},
        {"runtime.ns_per_task_df", "ns"},
        {"runtime.ns_per_task_seq", "ns"},
        {"runtime.ns_per_chain_task", "ns"},
        {"runtime.tasks", "count"},
        {"runtime.utilization", "ratio"},
        {"runtime.idle_s", "s"},
        {"runtime.critical_path_s", "s"},
        {"runtime.avg_parallelism", "ratio"},
        {"runtime.steals", "count"},
        {"runtime.sleeps", "count"},
        {"runtime.coverage", "ratio"},
        {"linalg.qr_iter_s", "s"},
        {"linalg.chol_iter_s", "s"},
        {"linalg.gemm_gflops", "GF/s"},
        {"cond.norm2est_s", "s"},
        {"cond.condest_s", "s"},
        {"core.it_qr", "count"},
        {"core.it_chol", "count"},
        {"core.model_gflops", "GF/s"},
        {"core.kernel_gflops", "GF/s"},
        {"core.efficiency", "ratio"},
        {"core.update_s", "s"},
        {"core.panel_s", "s"},
        {"core.aux_s", "s"},
        {"ladder.native_solve_s", "s"},
        {"ladder.speedup", "ratio"},
        {"ladder.projected_speedup", "ratio"},
        {"ladder.flops_double", "flop"},
        {"ladder.flops_float", "flop"},
        {"ladder.flops_bf16", "flop"},
        {"ladder.fallbacks", "count"},
        {"ladder.convert_s", "s"},
        {"comm.messages", "count"},
        {"comm.bytes", "B"},
        {"comm.max_rank_bytes", "B"},
        {"comm.max_rank_sends", "count"},
        {"comm.collectives", "count"},
        {"comm.wait_rank_s", "s"},
        {"comm.wait_share", "ratio"},
        {"comm.p1_solve_s", "s"},
        {"comm.strong_eff", "ratio"},
        {"service.latency_p50_ms", "ms"},
        {"service.latency_p99_ms", "ms"},
        {"service.queue_p50_ms", "ms"},
        {"service.queue_p99_ms", "ms"},
        {"service.exec_p50_ms", "ms"},
        {"service.exec_p99_ms", "ms"},
        {"service.latency_class_p99_ms", "ms"},
        {"service.gen_lag_p99_ms", "ms"},
        {"service.workspaces_created", "count"},
        {"service.expected_failures", "count"},
        {"setup.warmup_s", "s"},
        {"gen.input_s", "s"},
        {"trace.overhead_frac", "ratio"},
    };
    return defs;
}

void Ledger::metric(std::string const& name, double value, char const* unit) {
    auto const& defs = cfg.traced ? per_layer_metrics() : end_to_end_metrics();
    auto it = std::find_if(defs.begin(), defs.end(), [&](MetricDef const& d) {
        return name == d.name;
    });
    if (it == defs.end() || std::strcmp(it->unit, unit) != 0)
        throw std::logic_error("bench_ledger: metric " + name + " [" + unit
                               + "] is not in the catalogue of this run");
    if (!std::isfinite(value))
        throw std::runtime_error("bench_ledger: metric " + name
                                 + " is not finite");
    for (auto const& m : metrics)
        if (m.name == name)
            throw std::logic_error("bench_ledger: metric " + name
                                   + " reported twice");
    metrics.push_back({name, value, unit});
}

double Ledger::value(std::string const& name) const {
    for (auto const& m : metrics)
        if (m.name == name)
            return m.value;
    throw std::logic_error("bench_ledger: metric " + name + " not measured");
}

// --- spans -------------------------------------------------------------------

Tracer::Span::Span(Tracer& tr, char const* cat, std::string name)
    : tr_(tr), cat_(cat), name_(std::move(name)) {
    if (!tr_.on_)
        return;
    {
        std::lock_guard<std::mutex> lk(tr_.mtx_);
        id_ = tr_.next_id_++;
    }
    parent_ = tr_.stack_.empty() ? 0 : tr_.stack_.back();
    tr_.stack_.push_back(id_);
    t0_ = wall_time();
}

Tracer::Span::~Span() {
    if (!tr_.on_)
        return;
    double const t1 = wall_time();
    tr_.stack_.pop_back();
    std::lock_guard<std::mutex> lk(tr_.mtx_);
    tr_.events_.push_back({std::move(name_), cat_, t0_, t1, 0, id_, parent_});
}

void Tracer::add(char const* cat, std::string name, double t0, double t1,
                 int tid, std::uint64_t parent) {
    if (!on_)
        return;
    std::lock_guard<std::mutex> lk(mtx_);
    events_.push_back({std::move(name), cat, t0, t1, tid, next_id_++, parent});
}

void Tracer::add_tasks(std::vector<rt::TaskRecord> const& tasks,
                       std::uint64_t parent) {
    if (!on_)
        return;
    std::lock_guard<std::mutex> lk(mtx_);
    for (auto const& r : tasks)
        events_.push_back({r.name, "task", r.t_start, r.t_end, 1 + r.worker,
                           next_id_++, parent});
}

bool Tracer::write(std::string const& path) const {
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "bench_ledger: cannot write %s\n", path.c_str());
        return false;
    }
    std::lock_guard<std::mutex> lk(mtx_);
    double t_origin = events_.empty() ? 0 : events_.front().t0;
    for (auto const& e : events_)
        t_origin = std::min(t_origin, e.t0);
    std::map<int, std::string> tracks;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[160];
    bool first = true;
    for (auto const& e : events_) {
        tracks.emplace(e.tid, e.tid == 0    ? std::string("ledger")
                              : e.tid < 100 ? "worker " + std::to_string(e.tid - 1)
                                            : "rank " + std::to_string(e.tid - 100));
        std::snprintf(buf, sizeof buf,
                      ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                      e.tid, (e.t0 - t_origin) * 1e6, (e.t1 - e.t0) * 1e6,
                      static_cast<unsigned long long>(e.id),
                      static_cast<unsigned long long>(e.parent));
        out << (first ? "" : ",") << "{\"name\":"
            << bench::JsonRecord::quote(e.name) << ",\"cat\":\"" << e.cat
            << "\"" << buf;
        first = false;
    }
    for (auto const& [tid, name] : tracks) {
        out << (first ? "" : ",")
            << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
            << tid << ",\"args\":{\"name\":" << bench::JsonRecord::quote(name)
            << "}}";
        first = false;
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

// --- helpers -------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
    if (v.empty())
        throw std::logic_error("bench_ledger: quantile of no samples");
    std::sort(v.begin(), v.end());
    auto const rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace tbp::ledger

namespace {

using namespace tbp;
using namespace tbp::ledger;

struct Workload {
    char const* name;
    void (*run)(Ledger&);
};

constexpr Workload kWorkloads[] = {
    {"polar-1024", run_polar_1024},
    {"polar-512-ladder", run_polar_512_ladder},
    {"polar-dist-p2", run_polar_dist_p2},
    {"service-mix", run_service_mix},
};

int usage(char const* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload <polar-1024|polar-512-ladder|"
                 "polar-dist-p2|service-mix|all> --seed S [--seconds N] "
                 "[--trace PATH] [--json PATH]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload, trace_path, json_path;
    Config cfg;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string const a = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        char const* v = argv[++i];
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            cfg.seed = std::strtoull(v, nullptr, 10);
            have_seed = true;
        } else if (a == "--seconds") {
            cfg.seconds = std::atof(v);
        } else if (a == "--trace") {
            trace_path = v;
        } else if (a == "--json") {
            json_path = v;
        } else {
            return usage(argv[0]);
        }
    }
    if (!have_seed || !(cfg.seconds > 0 && cfg.seconds <= 600))
        return usage(argv[0]);
    std::vector<Workload> selected;
    for (auto const& w : kWorkloads)
        if (workload == "all" || workload == w.name)
            selected.push_back(w);
    if (selected.empty())
        return usage(argv[0]);

#if defined(__GLIBC__)
    // A fixed mmap threshold: every allocation of 1 MiB or more (the tiled
    // matrices) is its own mapping, returned to the system when freed. The
    // default threshold adapts to the allocation history, which lets the
    // peak resident set depend on thread timing.
    mallopt(M_MMAP_THRESHOLD, 1 << 20);
#endif
    cfg.nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    cfg.threads = std::max(1, std::min(2, cfg.nproc - 1));
    cfg.traced = !trace_path.empty();

    Tracer tracer(cfg.traced);
    bench::JsonEmitter json;
    std::uint64_t attempted = 0, failed = 0;
    std::string metrics_json;
    try {
        for (auto const& w : selected) {
            Ledger L(cfg, tracer);
            {
                Tracer::Span span(tracer, "workload", w.name);
                if (cfg.traced) {
                    Tracer::Span layers(tracer, "workload", "layers");
                    run_layers(L);
                }
                w.run(L);
            }
            if (cfg.traced) {
                // A layer this workload never reaches reports 0.
                for (auto const& d : per_layer_metrics())
                    if (std::none_of(L.metrics.begin(), L.metrics.end(),
                                     [&](Metric const& m) { return m.name == d.name; }))
                        L.metrics.push_back({d.name, 0.0, d.unit});
            } else {
                L.metric("peak_rss_mb", peak_rss_mb(), "MiB");
            }
            auto const& order =
                cfg.traced ? per_layer_metrics() : end_to_end_metrics();
            L.record.field("workload", w.name)
                .field("seed", cfg.seed)
                .field("seconds", cfg.seconds)
                .field("threads", cfg.threads)
                .field("nproc", cfg.nproc)
                .field("traced", cfg.traced)
                .field("attempted", L.attempted)
                .field("failed", L.failed);
            for (auto const& d : order) {
                auto const it = std::find_if(
                    L.metrics.begin(), L.metrics.end(),
                    [&](Metric const& x) { return x.name == d.name; });
                if (it == L.metrics.end())
                    throw std::logic_error(std::string("bench_ledger: ") + w.name
                                           + " did not report " + d.name);
                auto const& m = *it;
                std::printf("%s %s %.17g %s\n", w.name, m.name.c_str(), m.value,
                            m.unit.c_str());
                L.record.field(m.name, m.value);
                std::string const key =
                    selected.size() > 1 ? std::string(w.name) + "." + m.name
                                        : m.name;
                char buf[64];
                std::snprintf(buf, sizeof buf, "%.17g", m.value);
                metrics_json += (metrics_json.empty() ? "" : ",")
                                + bench::JsonRecord::quote(key)
                                + ":{\"value\":" + buf + ",\"unit\":"
                                + bench::JsonRecord::quote(m.unit) + "}";
            }
            json.add(L.record);
            attempted += L.attempted;
            failed += L.failed;
        }
    } catch (std::exception const& e) {
        std::fprintf(stderr, "bench_ledger: %s\n", e.what());
        return 1;
    }
    if (attempted == 0) {
        std::fprintf(stderr, "bench_ledger: no operation was verified\n");
        return 1;
    }
    if (cfg.traced && !tracer.write(trace_path))
        return 1;
    if (!json_path.empty() && !json.write(json_path))
        return 1;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{%s}}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics_json.c_str());
    return 0;
}
