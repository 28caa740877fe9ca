// Job model for the batched "polar as a service" front end (service.hh).
//
// A JobSpec names everything needed to run one solve reproducibly: the
// solver kind, the QoS class, the scalar type, dimensions, tiling, and the
// counter-based generator seed. Because generation is counter-based
// (gen/matgen.hh) and each job executes on its own sequential engine, the
// output bytes of a job are a pure function of its spec — the property the
// throughput bench exploits to check batches bit-for-bit against a
// single-job oracle.
//
// A JobResult carries the per-job outcome. A failing job reports through
// Status + error text here; it never aborts the batch (service.hh).

#pragma once

#include <cstdint>
#include <string>

#include "common/error.hh"
#include "core/precision_policy.hh"
#include "fault/fault_plan.hh"

namespace tbp::svc {

/// Solver kinds the built-in provider registry dispatches on.
enum class JobKind {
    Qdwh,      ///< polar decomposition, QDWH iteration (core/qdwh.hh)
    ZoloPd,    ///< polar decomposition, Zolotarev rational iteration
    Posv,      ///< Hermitian positive-definite solve (potrf + 2 trsm)
    Geqrf,     ///< QR factorization + explicit Q generation
    DistQdwh,  ///< distributed QDWH over virtual ranks (comm/dist_qdwh.hh),
               ///< optionally under a seeded fault plan; the failover
               ///< target of graceful degradation is the local Qdwh kind
};

/// QoS classes mapped onto the engine's per-worker priority lanes:
/// Latency jobs ride the high lane past any depth of Bulk backlog.
enum class JobClass {
    Latency,  ///< interactive: engine priority 1 (high lane)
    Bulk,     ///< throughput: engine priority 0 (normal lane)
};

inline char const* job_kind_name(JobKind k) {
    switch (k) {
        case JobKind::Qdwh: return "qdwh";
        case JobKind::ZoloPd: return "zolopd";
        case JobKind::Posv: return "posv";
        case JobKind::Geqrf: return "geqrf";
        case JobKind::DistQdwh: return "dqdwh";
    }
    return "unknown";
}

inline char const* job_class_name(JobClass c) {
    return c == JobClass::Latency ? "latency" : "bulk";
}

/// Per-job precision request. Auto resolves from the QoS class: Bulk jobs
/// run the adaptive ladder (throughput — the schedule is deterministic per
/// spec, so batch outputs stay bit-reproducible), Latency jobs stay native
/// (no conversion sweeps on the time-to-first-result path). The rest force
/// one prec::Precision regardless of class.
enum class JobPrec {
    Auto,      ///< Bulk -> Adaptive, Latency -> Native
    Native,    ///< every iteration in the job's scalar type
    Float,     ///< float rung + native tail (double-kind jobs)
    Bf16,      ///< simulated-bf16 rung + native tail
    Adaptive,  ///< condition-driven per-iteration rung schedule
};

inline char const* job_prec_name(JobPrec p) {
    switch (p) {
        case JobPrec::Auto: return "auto";
        case JobPrec::Native: return "native";
        case JobPrec::Float: return "float";
        case JobPrec::Bf16: return "bf16";
        case JobPrec::Adaptive: return "adaptive";
    }
    return "unknown";
}

struct JobSpec {
    JobKind kind = JobKind::Qdwh;
    JobClass cls = JobClass::Bulk;
    char type = 'd';  ///< scalar type: 's', 'd', 'c', 'z'
    /// Rows (for Posv: number of right-hand sides, >= 1).
    std::int64_t m = 0;
    std::int64_t n = 0;  ///< columns (m >= n >= 1 for the factorizations)
    int nb = 0;          ///< tile size, >= 1
    std::uint64_t seed = 0;  ///< counter-RNG seed: same spec -> same bytes
    /// Target condition number of the generated input. For Posv a negative
    /// value requests an indefinite matrix (deliberate failure injection).
    double cond = 1e6;
    int max_iter = 0;  ///< 0 = solver default; 1 forces NotConverged paths
    int r = 0;         ///< Zolo-PD partial-fraction terms; 0 = default
    int lookahead = 0;  ///< panel lookahead depth of the QR/Cholesky solves
    /// Precision ladder request; Auto routes Bulk jobs onto the adaptive
    /// ladder (qdwh/zolopd kinds only; the direct factorizations and the
    /// distributed kind run native).
    JobPrec precision = JobPrec::Auto;

    // --- DistQdwh / resilience fields (inert for the local kinds) ---------
    int ranks = 0;  ///< virtual ranks of a DistQdwh job; 0 = default (4)
    /// Seeded chaos plan installed on the job's World (default: inert).
    /// Part of the spec on purpose: a chaos job is as reproducible as a
    /// clean one — same spec, same faults, same recovery, same bytes.
    fault::FaultPlan fault{};
    double timeout_ms = 0;  ///< comm retry timeout; 0 = RetryConfig default
    int retry_max = 0;      ///< comm resend budget; 0 = RetryConfig default
    /// Service-level attempts for this job (re-running the whole provider
    /// body with backoff); 0 = the service's RetryPolicy default.
    int max_attempts = 0;
};

/// Resolve a job's effective precision request from its override and QoS
/// class (see JobPrec).
inline prec::Precision resolve_precision(JobSpec const& spec) {
    switch (spec.precision) {
        case JobPrec::Auto:
            return spec.cls == JobClass::Bulk ? prec::Precision::Adaptive
                                              : prec::Precision::Native;
        case JobPrec::Native: return prec::Precision::Native;
        case JobPrec::Float: return prec::Precision::Float;
        case JobPrec::Bf16: return prec::Precision::Bf16;
        case JobPrec::Adaptive: return prec::Precision::Adaptive;
    }
    return prec::Precision::Native;
}

struct JobResult {
    std::uint64_t id = 0;  ///< admission-order id assigned by the service
    JobKind kind = JobKind::Qdwh;
    JobClass cls = JobClass::Bulk;
    Status status = Status::InternalError;
    std::string error;  ///< non-empty iff status != Status::Ok

    int iterations = 0;
    bool converged = false;
    double flops = 0;  ///< measured on the job's private engine

    // --- resilience outcome ------------------------------------------------
    int attempts = 1;  ///< provider executions (1 = clean first-try run)
    /// The job ultimately succeeded but needed more than one attempt or a
    /// provider failover — the "saved by the retry machinery" marker the
    /// throughput bench reports.
    bool recovered = false;
    /// Graceful degradation fired: a faulted DistQdwh run was re-dispatched
    /// to the single-rank Qdwh provider.
    bool failed_over = false;

    double t_submit = 0;  ///< admission wall time
    double t_start = 0;   ///< body start (t_start - t_submit = queueing)
    double t_end = 0;     ///< body end

    bool ok() const { return status == Status::Ok; }
    double latency() const { return t_end - t_submit; }
};

}  // namespace tbp::svc
