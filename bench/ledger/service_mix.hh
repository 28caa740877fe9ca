// The service traffic table: the 16-case job mix (s/d/c/z; qdwh, zolo,
// posv, geqrf; three deliberate failures) and its single-job oracle. One
// table defines the service traffic of the ledger's service-mix workload.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/timer.hh"
#include "service/service.hh"

namespace tbp::bench {

struct SpecCase {
    svc::JobSpec spec;
    Status expect = Status::Ok;
};

/// Mixed workload table: small problems across every kind and scalar type,
/// tall and square shapes, multi-tile and single-tile (nb >= n) tilings,
/// plus three deliberate failures. Job i runs cases[i % cases.size()].
/// `seed` offsets every job's generator seed; seed 0 gives the original
/// table. The failures fail for every seed.
inline std::vector<SpecCase> make_cases(std::uint64_t seed = 0) {
    using svc::JobKind;
    std::uint64_t const base = seed << 20;
    std::vector<SpecCase> cs;
    auto add = [&](JobKind k, char t, std::int64_t m, std::int64_t n, int nb,
                   double cond) {
        SpecCase c;
        c.spec.kind = k;
        c.spec.type = t;
        c.spec.m = m;
        c.spec.n = n;
        c.spec.nb = nb;
        c.spec.cond = cond;
        c.spec.seed = base + 1000 + cs.size();
        if (k == JobKind::ZoloPd)
            c.spec.r = 2;
        // Pinned, not Auto: the oracle runs the spec at its default (Bulk)
        // class while the batch alternates classes, and Auto precision is
        // class-resolved — pinning keeps job bytes a pure function of the
        // spec. Adaptive also puts the ladder on the bench's critical path.
        c.spec.precision = svc::JobPrec::Adaptive;
        cs.push_back(c);
    };
    add(JobKind::Qdwh, 'd', 16, 16, 8, 1e6);
    add(JobKind::Qdwh, 'd', 48, 48, 8, 1e6);   // 36 tiles: routes Batched
    add(JobKind::Geqrf, 'd', 32, 24, 8, 0);    // 12 tiles: routes Batched
    add(JobKind::Qdwh, 's', 24, 16, 8, 1e3);
    add(JobKind::Qdwh, 'z', 12, 12, 4, 1e4);
    add(JobKind::Qdwh, 'c', 16, 16, 16, 1e2);  // single tile, nb >= n
    add(JobKind::ZoloPd, 'd', 16, 16, 8, 1e4);
    add(JobKind::ZoloPd, 'c', 12, 12, 12, 1e2);  // single tile
    add(JobKind::Geqrf, 'd', 24, 16, 8, 0);
    add(JobKind::Geqrf, 'z', 16, 12, 4, 0);
    add(JobKind::Geqrf, 's', 16, 16, 16, 0);  // single tile
    add(JobKind::Posv, 'd', 2, 16, 8, 0);     // m = nrhs for posv
    add(JobKind::Posv, 'c', 1, 12, 12, 0);    // single tile

    // Deliberate failures: the batch must absorb all three.
    {
        SpecCase c;  // qdwh that cannot converge in one iteration
        c.spec.kind = JobKind::Qdwh;
        c.spec.m = c.spec.n = 16;
        c.spec.nb = 8;
        c.spec.cond = 1e8;
        c.spec.max_iter = 1;
        c.spec.seed = base + 7001;
        c.expect = Status::NotConverged;
        cs.push_back(c);
    }
    {
        SpecCase c;  // indefinite posv input: potrf throws mid-iteration
        c.spec.kind = JobKind::Posv;
        c.spec.m = 1;
        c.spec.n = 16;
        c.spec.nb = 8;
        c.spec.cond = -1;
        c.spec.seed = base + 7002;
        c.expect = Status::NumericalError;
        cs.push_back(c);
    }
    {
        SpecCase c;  // wide matrix: rejected at admission validation
        c.spec.kind = JobKind::Qdwh;
        c.spec.m = 8;
        c.spec.n = 16;
        c.spec.nb = 8;
        c.spec.seed = base + 7003;
        c.expect = Status::InvalidArgument;
        cs.push_back(c);
    }
    return cs;
}

struct Oracle {
    std::vector<std::byte> u, h;
    Status status = Status::Ok;
    double secs = 0;
};

/// Single-job oracle: run the provider exactly as a service worker would
/// (private sequential engine, private workspace) and keep the bytes.
inline Oracle run_oracle(SpecCase const& c) {
    Oracle o;
    auto reg = svc::ProviderRegistry::builtin();
    svc::Workspace ws;
    svc::JobResult res;
    Timer t;
    if (svc::validate(c.spec) != Status::Ok) {
        o.status = Status::InvalidArgument;
        return o;
    }
    try {
        rt::Engine eng(1, rt::Mode::Sequential);
        (*reg.find(c.spec.kind))(eng, c.spec, ws, res);
        o.status = res.status;
    } catch (Error const&) {
        o.status = Status::NumericalError;
    }
    o.secs = t.elapsed();
    if (o.status == Status::Ok) {
        o.u.assign(ws.data(svc::Workspace::OutU),
                   ws.data(svc::Workspace::OutU) + ws.used(svc::Workspace::OutU));
        o.h.assign(ws.data(svc::Workspace::OutH),
                   ws.data(svc::Workspace::OutH) + ws.used(svc::Workspace::OutH));
    }
    return o;
}

}  // namespace tbp::bench
