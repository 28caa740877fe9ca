// Built-in providers for the service layer: qdwh, zolopd, posv, geqrf over
// all four scalar types, dispatched on JobSpec::type.
//
// Every provider follows the same shape: generate the input reproducibly
// from the spec's counter-RNG seed (gen/matgen.hh — same (dims, seed) gives
// the same matrix regardless of tiling or schedule), solve on the job's
// private engine, and stage the outputs as dense column-major bytes into
// the job's workspace. Running each job on a sequential private engine
// makes its output bytes a pure function of the spec, which is what lets
// the bench compare a 1000-job concurrent batch bit-for-bit against
// single-job oracle runs.
//
// Failure contract: solvers with status-returning entry points (qdwh,
// zolopd) report through JobResult::status; posv/geqrf use the throwing
// la:: calls and let tbp::Error escape to the service body, which maps it
// to Status::NumericalError. Either way the batch continues.

#pragma once

#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <vector>

#include "comm/dist.hh"
#include "comm/dist_qdwh.hh"
#include "core/qdwh.hh"
#include "core/zolopd.hh"
#include "gen/matgen.hh"
#include "linalg/geqrf.hh"
#include "linalg/potrf.hh"
#include "matrix/tiled_matrix.hh"
#include "runtime/engine.hh"
#include "service/registry.hh"

namespace tbp::svc {

/// Invoke f with a value of the scalar type named by `t` ('s','d','c','z');
/// false if the tag is unknown.
template <typename F>
bool with_scalar_type(char t, F&& f) {
    switch (t) {
        case 's': f(float{}); return true;
        case 'd': f(double{}); return true;
        case 'c': f(std::complex<float>{}); return true;
        case 'z': f(std::complex<double>{}); return true;
        default: return false;
    }
}

/// Spec validation shared by the service front end: a malformed spec turns
/// into an InvalidArgument JobResult without ever reaching a provider.
inline Status validate(JobSpec const& spec) {
    bool const known_type = spec.type == 's' || spec.type == 'd'
                            || spec.type == 'c' || spec.type == 'z';
    if (!known_type || spec.nb < 1 || spec.n < 1 || spec.max_iter < 0
        || spec.r < 0)
        return Status::InvalidArgument;
    if (spec.kind == JobKind::Posv) {
        if (spec.m < 1)  // m is the right-hand-side count for posv
            return Status::InvalidArgument;
    } else if (spec.m < spec.n) {
        return Status::InvalidArgument;
    }
    if (spec.kind == JobKind::DistQdwh) {
        // The l0 bound comes from 1/cond, so the condition target must be
        // >= 1. Ranks are virtual threads — cap them so a typo can't fork
        // 10^6 threads.
        if (spec.cond < 1 || spec.ranks < 0 || spec.ranks > 64)
            return Status::InvalidArgument;
    }
    return Status::Ok;
}

namespace detail {

/// Stage A as dense column-major scalars into `slot`; returns bytes used.
template <typename T>
std::size_t stage_dense(Workspace& ws, Workspace::Slot slot,
                        TiledMatrix<T> A) {
    std::int64_t const m = A.m();
    std::int64_t const n = A.n();
    T* p = ws.get_as<T>(slot, static_cast<std::size_t>(m * n));
    for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t i = 0; i < m; ++i)
            p[static_cast<std::size_t>(i + j * m)] = A.at(i, j);
    return static_cast<std::size_t>(m * n) * sizeof(T);
}

template <typename T>
void run_qdwh(rt::Engine& eng, JobSpec const& spec, Workspace& ws,
              JobResult& res) {
    gen::MatGenOptions g;
    g.cond = spec.cond;
    g.seed = spec.seed;
    TiledMatrix<T> A =
        gen::cond_matrix<T>(eng, spec.m, spec.n, spec.nb, g);
    TiledMatrix<T> H(spec.n, spec.n, spec.nb);
    QdwhOptions qo;
    if (spec.max_iter > 0)
        qo.max_iter = spec.max_iter;
    qo.lookahead = spec.lookahead;
    qo.precision.request = resolve_precision(spec);
    QdwhInfo info;
    Status const s = qdwh_status(eng, A, H, info, qo);
    res.status = s;
    res.iterations = info.iterations;
    res.converged = info.converged;
    res.flops = info.flops;
    if (s == Status::Ok) {
        stage_dense(ws, Workspace::OutU, A);
        stage_dense(ws, Workspace::OutH, H);
    } else {
        res.error = std::string(job_kind_name(spec.kind)) + ": "
                    + status_name(s);
    }
}

template <typename T>
void run_zolopd(rt::Engine& eng, JobSpec const& spec, Workspace& ws,
                JobResult& res) {
    gen::MatGenOptions g;
    g.cond = spec.cond;
    g.seed = spec.seed;
    TiledMatrix<T> A =
        gen::cond_matrix<T>(eng, spec.m, spec.n, spec.nb, g);
    TiledMatrix<T> H(spec.n, spec.n, spec.nb);
    ZoloOptions zo;
    if (spec.max_iter > 0)
        zo.max_iter = spec.max_iter;
    if (spec.r > 0)
        zo.r = spec.r;
    zo.lookahead = spec.lookahead;
    zo.precision.request = resolve_precision(spec);
    ZoloInfo info;
    Status const s = zolo_pd_status(eng, A, H, info, zo);
    res.status = s;
    res.iterations = info.iterations;
    res.converged = info.converged;
    res.flops = info.flops;
    if (s == Status::Ok) {
        stage_dense(ws, Workspace::OutU, A);
        stage_dense(ws, Workspace::OutH, H);
    } else {
        res.error = std::string(job_kind_name(spec.kind)) + ": "
                    + status_name(s);
    }
}

template <typename T>
void run_posv(rt::Engine& eng, JobSpec const& spec, Workspace& ws,
              JobResult& res) {
    double const flops0 = eng.flops_executed();
    TiledMatrix<T> A = gen::hpd_matrix<T>(eng, spec.n, spec.nb, spec.seed);
    if (spec.cond < 0) {
        // Failure-injection hook: shift the spectrum below zero so potrf
        // meets a non-positive pivot (hpd_matrix builds B B^H + n I, whose
        // smallest eigenvalue is ~n).
        for (std::int64_t i = 0; i < spec.n; ++i)
            A.at(i, i) -= from_real<T>(static_cast<real_t<T>>(2 * spec.n + 1));
    }
    TiledMatrix<T> B(spec.n, spec.m, spec.nb);
    gen::fill_gaussian(eng, B, spec.seed ^ 0x9e3779b97f4a7c15ULL);
    // throws tbp::Error on a non-HPD pivot
    la::posv(eng, A, B, spec.lookahead);
    eng.wait();
    res.status = Status::Ok;
    res.converged = true;
    res.flops = eng.flops_executed() - flops0;
    stage_dense(ws, Workspace::OutU, B);
}

template <typename T>
void run_geqrf(rt::Engine& eng, JobSpec const& spec, Workspace& ws,
               JobResult& res) {
    double const flops0 = eng.flops_executed();
    TiledMatrix<T> A(spec.m, spec.n, spec.nb);
    gen::fill_gaussian(eng, A, spec.seed);
    TiledMatrix<T> Tm = la::alloc_qr_t(A);
    TiledMatrix<T> Q(spec.m, spec.n, spec.nb);
    la::geqrf(eng, A, Tm, spec.lookahead);
    la::ungqr(eng, A, Tm, Q);
    eng.wait();
    res.status = Status::Ok;
    res.converged = true;
    res.flops = eng.flops_executed() - flops0;
    stage_dense(ws, Workspace::OutU, Q);
    stage_dense(ws, Workspace::OutH, A);  // reflectors + R for the oracle
}

template <typename T>
void run_dist_qdwh(rt::Engine& eng, JobSpec const& spec, Workspace& ws,
                   JobResult& res) {
    using R = real_t<T>;
    double const flops0 = eng.flops_executed();
    int const P = spec.ranks > 0 ? spec.ranks : 4;
    Grid const grid = comm::near_square_grid(P);
    int const max_iter = spec.max_iter > 0 ? spec.max_iter : 30;

    // Same reproducible input the local Qdwh provider would generate for
    // this spec — that identity is what makes single-rank failover (and the
    // chaos tests' fault-free oracle) meaningful.
    gen::MatGenOptions g;
    g.cond = spec.cond;
    g.seed = spec.seed;
    TiledMatrix<T> A0 =
        gen::cond_matrix<T>(eng, spec.m, spec.n, spec.nb, g);
    eng.wait();

    comm::World world(P);
    if (spec.fault.enabled()) {
        fault::RetryConfig rc;
        if (spec.timeout_ms > 0)
            rc.timeout_ms = spec.timeout_ms;
        if (spec.retry_max > 0)
            rc.retry_max = spec.retry_max;
        world.set_fault(spec.fault, rc);
    }

    std::vector<T> U;
    comm::DistQdwhInfo info;
    // CommError / RankFailedError out of run() propagate to the service's
    // retry loop; a recovered chaos run reaches here with clean results.
    world.run([&](comm::Communicator& c) {
        comm::DistMatrix<T> A(c, spec.m, spec.n, spec.nb, grid);
        A.fill([&](std::int64_t i, std::int64_t j) { return A0.at(i, j); });
        auto inf = comm::dist_qdwh(c, grid, A, 1.0 / spec.cond, max_iter);
        auto dense = comm::dist_gather(c, A);
        if (c.rank() == 0) {
            info = inf;
            U = std::move(dense);
        }
    });

    res.iterations = info.iterations;
    res.flops = eng.flops_executed() - flops0;
    double const tol3 =
        std::cbrt(5.0 * std::numeric_limits<R>::epsilon());
    res.converged = info.iterations < max_iter || info.conv < tol3;
    if (!res.converged) {
        res.status = Status::NotConverged;
        res.error = std::string(job_kind_name(spec.kind)) + ": "
                    + status_name(Status::NotConverged);
        return;
    }

    std::int64_t const m = spec.m, n = spec.n;
    T* pu = ws.get_as<T>(Workspace::OutU, static_cast<std::size_t>(m * n));
    std::copy(U.begin(), U.end(), pu);

    // H = (U^H A + (U^H A)^H) / 2, formed densely on rank 0's gathered
    // factor (n is the small dimension; this is O(m n^2) scalar work).
    T* ph = ws.get_as<T>(Workspace::OutH, static_cast<std::size_t>(n * n));
    for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t i = 0; i < n; ++i) {
            T acc{};
            for (std::int64_t k = 0; k < m; ++k)
                acc += conj_val(U[static_cast<std::size_t>(k + i * m)])
                       * A0.at(k, j);
            ph[static_cast<std::size_t>(i + j * n)] = acc;
        }
    for (std::int64_t j = 0; j < n; ++j)
        for (std::int64_t i = 0; i <= j; ++i) {
            T const h = (ph[static_cast<std::size_t>(i + j * n)]
                         + conj_val(ph[static_cast<std::size_t>(j + i * n)]))
                        / T(2);
            ph[static_cast<std::size_t>(i + j * n)] = h;
            ph[static_cast<std::size_t>(j + i * n)] = conj_val(h);
        }
    res.status = Status::Ok;
}

}  // namespace detail

inline ProviderRegistry ProviderRegistry::builtin() {
    ProviderRegistry reg;
    reg.add(JobKind::Qdwh, [](rt::Engine& eng, JobSpec const& spec,
                              Workspace& ws, JobResult& res) {
        with_scalar_type(spec.type, [&](auto tag) {
            detail::run_qdwh<decltype(tag)>(eng, spec, ws, res);
        });
    });
    reg.add(JobKind::ZoloPd, [](rt::Engine& eng, JobSpec const& spec,
                                Workspace& ws, JobResult& res) {
        with_scalar_type(spec.type, [&](auto tag) {
            detail::run_zolopd<decltype(tag)>(eng, spec, ws, res);
        });
    });
    reg.add(JobKind::Posv, [](rt::Engine& eng, JobSpec const& spec,
                              Workspace& ws, JobResult& res) {
        with_scalar_type(spec.type, [&](auto tag) {
            detail::run_posv<decltype(tag)>(eng, spec, ws, res);
        });
    });
    reg.add(JobKind::Geqrf, [](rt::Engine& eng, JobSpec const& spec,
                               Workspace& ws, JobResult& res) {
        with_scalar_type(spec.type, [&](auto tag) {
            detail::run_geqrf<decltype(tag)>(eng, spec, ws, res);
        });
    });
    reg.add(JobKind::DistQdwh, [](rt::Engine& eng, JobSpec const& spec,
                                  Workspace& ws, JobResult& res) {
        with_scalar_type(spec.type, [&](auto tag) {
            detail::run_dist_qdwh<decltype(tag)>(eng, spec, ws, res);
        });
    });
    return reg;
}

}  // namespace tbp::svc
