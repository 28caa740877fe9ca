// Service-layer tests: batched jobs through PolarService checked bit-for-
// bit against single-job oracle runs, failure containment (one bad job
// never aborts a batch), QoS classes, spec validation, single-tile jobs,
// and workspace-pool reuse. Runs under the "service" ctest label (also
// under ThreadSanitizer: ctest --preset tsan -L service).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "service/service.hh"

using namespace tbp;
using svc::JobClass;
using svc::JobKind;
using svc::JobSpec;
using svc::Workspace;

namespace {

/// Single-job oracle: execute the spec exactly as a service worker would
/// (builtin provider, private sequential engine) and return the staged
/// OutU/OutH bytes.
struct OracleOut {
    std::vector<std::byte> u, h;
    Status status = Status::InternalError;
};

OracleOut oracle(JobSpec const& spec) {
    OracleOut o;
    auto reg = svc::ProviderRegistry::builtin();
    Workspace ws;
    svc::JobResult res;
    try {
        rt::Engine eng(1, rt::Mode::Sequential);
        (*reg.find(spec.kind))(eng, spec, ws, res);
        o.status = res.status;
    } catch (Error const&) {
        o.status = Status::NumericalError;
    }
    if (o.status == Status::Ok) {
        o.u.assign(ws.data(Workspace::OutU),
                   ws.data(Workspace::OutU) + ws.used(Workspace::OutU));
        o.h.assign(ws.data(Workspace::OutH),
                   ws.data(Workspace::OutH) + ws.used(Workspace::OutH));
    }
    return o;
}

JobSpec make_spec(JobKind k, char type, std::int64_t m, std::int64_t n,
                  int nb, std::uint64_t seed, double cond = 1e4) {
    JobSpec s;
    s.kind = k;
    s.type = type;
    s.m = m;
    s.n = n;
    s.nb = nb;
    s.seed = seed;
    s.cond = cond;
    if (k == JobKind::ZoloPd)
        s.r = 2;
    // Pinned, not Auto: these tests compare Latency- and Bulk-class
    // instances of one spec against a single oracle run, and Auto precision
    // resolves per QoS class (Bulk -> Adaptive), which would legitimately
    // change the bytes. Pinning Adaptive keeps the comparison class-blind
    // while still exercising the ladder in the polar kinds.
    s.precision = svc::JobPrec::Adaptive;
    return s;
}

bool bytes_match(svc::JobHandle const& h, OracleOut const& o) {
    return h.output_bytes(Workspace::OutU) == o.u.size()
           && h.output_bytes(Workspace::OutH) == o.h.size()
           && std::memcmp(h.output(Workspace::OutU), o.u.data(),
                          o.u.size()) == 0
           && std::memcmp(h.output(Workspace::OutH), o.h.data(),
                          o.h.size()) == 0;
}

}  // namespace

TEST(Service, MixedBatchMatchesSingleJobOracleBitwise) {
    // Deterministic seeds, all four kinds and scalar types, each spec
    // repeated several times across the concurrent batch: every output
    // must be byte-identical to a single-job run of the same spec.
    std::vector<JobSpec> specs = {
        make_spec(JobKind::Qdwh, 'd', 16, 16, 8, 11),
        make_spec(JobKind::Qdwh, 's', 20, 12, 4, 12, 1e3),
        make_spec(JobKind::Qdwh, 'z', 12, 12, 4, 13),
        make_spec(JobKind::ZoloPd, 'd', 12, 12, 4, 14),
        make_spec(JobKind::Geqrf, 'c', 16, 12, 4, 15),
        make_spec(JobKind::Posv, 'd', 2, 16, 8, 16),
    };
    std::vector<OracleOut> oracles;
    for (auto const& s : specs)
        oracles.push_back(oracle(s));

    rt::Engine eng(3);
    svc::PolarService service(eng);
    int const jobs = 36;
    std::vector<svc::JobHandle> handles;
    for (int i = 0; i < jobs; ++i) {
        JobSpec s = specs[static_cast<size_t>(i) % specs.size()];
        s.cls = (i % 4 == 0) ? JobClass::Latency : JobClass::Bulk;
        handles.push_back(service.submit(s));
    }
    service.wait_all();

    for (int i = 0; i < jobs; ++i) {
        auto const d = static_cast<size_t>(i) % specs.size();
        auto const& res = handles[static_cast<size_t>(i)].result();
        ASSERT_EQ(res.status, Status::Ok)
            << "job " << i << ": " << res.error;
        EXPECT_TRUE(bytes_match(handles[static_cast<size_t>(i)], oracles[d]))
            << "job " << i << " bytes differ from its oracle";
    }
    auto const st = service.stats();
    EXPECT_EQ(st.admitted, static_cast<std::uint64_t>(jobs));
    EXPECT_EQ(st.completed, static_cast<std::uint64_t>(jobs));
    EXPECT_EQ(st.failed, 0u);
}

TEST(Service, FailingJobsReportErrorsWithoutAbortingBatch) {
    rt::Engine eng(3);
    svc::PolarService service(eng);

    // Healthy jobs surrounding three distinct failure modes.
    auto good = make_spec(JobKind::Qdwh, 'd', 12, 12, 4, 21);
    auto not_conv = make_spec(JobKind::Qdwh, 'd', 16, 16, 8, 22, 1e8);
    not_conv.max_iter = 1;
    auto non_hpd = make_spec(JobKind::Posv, 'd', 1, 16, 8, 23);
    non_hpd.cond = -1;  // indefinite input: potrf throws mid-batch
    auto invalid = make_spec(JobKind::Qdwh, 'd', 8, 16, 8, 24);  // m < n

    std::vector<svc::JobHandle> handles;
    for (int i = 0; i < 6; ++i)
        handles.push_back(service.submit(good));
    auto const h_nc = service.submit(not_conv);
    auto const h_hpd = service.submit(non_hpd);
    auto const h_inv = service.submit(invalid);
    for (int i = 0; i < 6; ++i)
        handles.push_back(service.submit(good));
    service.wait_all();

    EXPECT_EQ(h_nc.result().status, Status::NotConverged);
    EXPECT_FALSE(h_nc.result().error.empty());
    EXPECT_EQ(h_hpd.result().status, Status::NumericalError);
    EXPECT_FALSE(h_hpd.result().error.empty());
    EXPECT_EQ(h_inv.result().status, Status::InvalidArgument);

    auto const o = oracle(good);
    for (auto const& h : handles) {
        ASSERT_EQ(h.result().status, Status::Ok) << h.result().error;
        EXPECT_TRUE(bytes_match(h, o));
    }
    EXPECT_EQ(service.stats().failed, 3u);

    // The shared engine survives unpoisoned: its ambient job still works.
    int ran = 0;
    eng.submit("probe", {}, [&ran] { ran = 1; });
    eng.wait();
    EXPECT_EQ(ran, 1);
}

TEST(Service, InvalidSpecsYieldInvalidArgumentResults) {
    rt::Engine eng(2);
    svc::PolarService service(eng);
    auto bad_type = make_spec(JobKind::Qdwh, 'q', 8, 8, 4, 1);
    auto bad_nb = make_spec(JobKind::Qdwh, 'd', 8, 8, 0, 2);
    auto bad_dims = make_spec(JobKind::Geqrf, 'd', 4, 9, 4, 3);
    auto bad_rhs = make_spec(JobKind::Posv, 'd', 0, 8, 4, 4);
    for (auto const& s : {bad_type, bad_nb, bad_dims, bad_rhs}) {
        auto h = service.submit(s);
        EXPECT_EQ(h.result().status, Status::InvalidArgument);
        EXPECT_FALSE(h.result().error.empty());
    }
    service.wait_all();
    EXPECT_EQ(service.stats().failed, 4u);
}

TEST(Service, SingleTileJobsRun) {
    // nb >= n: the whole problem in one tile, every kind.
    rt::Engine eng(2);
    svc::PolarService service(eng);
    std::vector<svc::JobHandle> handles;
    handles.push_back(
        service.submit(make_spec(JobKind::Qdwh, 'd', 12, 12, 16, 31)));
    handles.push_back(
        service.submit(make_spec(JobKind::ZoloPd, 'z', 8, 8, 8, 32, 1e2)));
    handles.push_back(
        service.submit(make_spec(JobKind::Geqrf, 's', 12, 8, 12, 33)));
    handles.push_back(
        service.submit(make_spec(JobKind::Posv, 'c', 1, 8, 8, 34)));
    service.wait_all();
    for (auto const& h : handles) {
        ASSERT_EQ(h.result().status, Status::Ok) << h.result().error;
        EXPECT_GT(h.output_bytes(Workspace::OutU), 0u);
    }
}

TEST(Service, LatencyClassDoesNotStarveBulkAndViceVersa) {
    // A deep bulk backlog plus interleaved latency jobs: everything must
    // complete in both QoS and FIFO modes (the priority split reorders,
    // never drops or starves).
    for (bool fifo : {false, true}) {
        rt::Engine eng(3);
        svc::ServiceOptions so;
        so.fifo = fifo;
        svc::PolarService service(eng, so);
        std::vector<svc::JobHandle> handles;
        for (int i = 0; i < 48; ++i) {
            auto s = make_spec(JobKind::Geqrf, 'd', 12, 8, 4,
                               100 + static_cast<std::uint64_t>(i));
            s.cls = (i % 8 == 0) ? JobClass::Latency : JobClass::Bulk;
            handles.push_back(service.submit(s));
        }
        service.wait_all();
        auto const st = service.stats();
        EXPECT_EQ(st.completed, 48u);
        EXPECT_EQ(st.failed, 0u);
        for (auto const& h : handles)
            EXPECT_TRUE(h.result().ok());
    }
}

TEST(Service, WorkspacePoolReusesArenasAcrossBatches) {
    rt::Engine eng(2);
    svc::PolarService service(eng);
    auto spec = make_spec(JobKind::Geqrf, 'd', 16, 12, 4, 41);

    {
        std::vector<svc::JobHandle> handles;
        for (int i = 0; i < 12; ++i)
            handles.push_back(service.submit(spec));
        service.wait_all();
    }  // handles destroyed: workspaces return to the pool
    auto const created_first = service.stats().workspaces_created;
    EXPECT_GT(created_first, 0u);

    {
        std::vector<svc::JobHandle> handles;
        for (int i = 0; i < 12; ++i)
            handles.push_back(service.submit(spec));
        service.wait_all();
    }
    // A warm pool admits a same-shape batch without any new arenas.
    EXPECT_EQ(service.stats().workspaces_created, created_first);
}

TEST(Service, WorkspaceArenaGrowsMonotonically) {
    svc::Workspace ws;
    auto* p1 = ws.get(Workspace::OutU, 64);
    ASSERT_NE(p1, nullptr);
    EXPECT_EQ(ws.used(Workspace::OutU), 64u);
    ws.get(Workspace::OutU, 32);  // shrink request: capacity stays
    EXPECT_EQ(ws.used(Workspace::OutU), 32u);
    EXPECT_GE(ws.capacity(), 64u);
    ws.reset();
    EXPECT_EQ(ws.used(Workspace::OutU), 0u);
    EXPECT_GE(ws.capacity(), 64u);  // reset keeps buffers for reuse
}

TEST(Service, CustomProviderRegistryAndUnregisteredKind) {
    rt::Engine eng(2);
    svc::ProviderRegistry reg;  // empty: nothing registered
    reg.add(JobKind::Qdwh, [](rt::Engine&, JobSpec const&, Workspace&,
                              svc::JobResult& res) {
        throw std::runtime_error("provider exploded");
        (void)res;
    });
    svc::PolarService service(eng, reg);

    auto h_throw = service.submit(make_spec(JobKind::Qdwh, 'd', 8, 8, 4, 51));
    auto h_none = service.submit(make_spec(JobKind::Posv, 'd', 1, 8, 4, 52));
    service.wait_all();

    EXPECT_EQ(h_throw.result().status, Status::InternalError);
    EXPECT_NE(h_throw.result().error.find("provider exploded"),
              std::string::npos);
    EXPECT_EQ(h_none.result().status, Status::InvalidArgument);

    // The thrown exception was scoped to its job: ambient engine use is
    // unaffected after the service claimed the latch in wait_all().
    eng.submit("probe", {}, [] {});
    EXPECT_NO_THROW(eng.wait());
}
