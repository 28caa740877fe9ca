// Device executor: the Target::{Tasks,BatchedHost} seam of the drivers.
//
// SLATE's headline GPU numbers come from its Target::Devices path: tile
// operations are grouped into batched kernel calls per device instead of
// being dispatched one task per tile. TBP's analogue is this executor. The
// algorithm drivers in src/linalg/ are templated over an engine-like
// parameter and submit per-tile operations exactly as before; an Executor
// interposed between a driver and the runtime engine either forwards every
// operation unchanged (Target::Tasks — the per-tile oracle) or coalesces
// runs of same-shape batchable operations into single engine tasks that
// execute the whole batch back-to-back on one worker (Target::BatchedHost).
//
// Batching collector: at most ONE group is open at a time. A batchable
// submission joins the open group iff it matches the group's key — same
// kernel name, same per-op flop count (the same-shape proxy: equal-shape
// tiles cost identical flops, ragged edge tiles split off), same priority,
// job and access-list arity. Anything else — a different key, a
// non-batchable operation, a fence — flushes the group first, so the engine
// always receives tasks in driver program order and the dependency graph it
// derives is a conservative coarsening of the per-tile graph (the group's
// access list is the first-touch-ordered union of its members' accesses,
// with modes widened to ReadWrite on conflict). Within a group the member
// bodies run sequentially in submission order on one worker, so results are
// bitwise identical to the per-tile path, and the whole batch reuses that
// worker's hot thread-local pack arenas (src/blas/kernel/arena.hh) — one
// arena checkout per batch instead of per tile op.
//
// Accounting: a group task is submitted with ops = batch size, so the
// engine's tile-op counters and the traced DAG (DagStats::tile_ops) still
// reconcile exactly with perf::qr_task_counts even though the scheduler
// sees 5-30x fewer tasks.
//
// Streams: under BatchedHost every launch also drives the modeled
// per-device command streams (stream.hh), charging H2D staging on first
// touch and D2H writeback at wait() from the Summit/Frontier machine model.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/precision.hh"
#include "device/stream.hh"
#include "perf/machine.hh"
#include "runtime/engine.hh"

namespace tbp::dev {

/// Where the drivers execute: per-tile engine tasks (the oracle) or the
/// CPU-simulated batched device path.
enum class Target { Tasks, BatchedHost };

inline char const* target_name(Target t) {
    return t == Target::Tasks ? "tasks" : "batched";
}

struct ExecOptions {
    Target target = Target::Tasks;
    /// Largest number of tile ops coalesced into one engine task. Small
    /// values keep more scheduler parallelism; large values amortize more
    /// per-task overhead (bench_batch_exec sweeps this).
    int max_batch = 32;
    /// Simulated devices for the stream model (round-robin batch placement).
    int num_devices = 1;
    /// Bytes of one staged tile for the stream model; 0 picks a 64x64
    /// double tile. Callers that know the tiling (qdwh) set it exactly.
    std::size_t tile_bytes = 0;
    /// Drive the modeled command streams under BatchedHost.
    bool model_streams = true;
    /// Machine whose H2D/D2H bandwidth and device rate cost the streams.
    perf::MachineModel machine{};
};

/// Collector counters: how many tile ops were routed, and into how many
/// engine tasks they were coalesced.
struct BatchStats {
    std::uint64_t ops = 0;      ///< tile ops submitted through the executor
    std::uint64_t tasks = 0;    ///< engine tasks actually created
    std::uint64_t groups = 0;   ///< tasks carrying a batch of >= 2 ops
    std::uint64_t singles = 0;  ///< tasks carrying exactly 1 op
    std::uint64_t max_group = 0;

    /// Scheduler-load reduction: tile ops per engine task.
    double coalescing() const {
        return tasks > 0 ? static_cast<double>(ops) / static_cast<double>(tasks)
                         : 1.0;
    }
};

class Executor {
public:
    explicit Executor(rt::Engine& eng, ExecOptions opts = {})
        : eng_(eng),
          opts_(opts),
          streams_(opts.num_devices, opts.machine,
                   opts.tile_bytes ? opts.tile_bytes : kDefaultTileBytes) {
        if (opts_.max_batch < 1)
            opts_.max_batch = 1;
    }
    ~Executor() { flush(); }

    Executor(Executor const&) = delete;
    Executor& operator=(Executor const&) = delete;

    rt::Engine& engine() { return eng_; }
    Target target() const { return opts_.target; }
    bool batched() const { return opts_.target == Target::BatchedHost; }
    rt::Mode mode() const { return eng_.mode(); }
    int num_threads() const { return eng_.num_threads(); }

    /// Engine-compatible submission; the drivers call this exactly as they
    /// call rt::Engine::submit. Under Target::Tasks it forwards verbatim.
    void submit(char const* name, double flops,
                std::vector<rt::Access> accesses, std::function<void()> fn,
                int priority = 0, rt::JobId job = rt::kAmbientJob) {
        ++stats_.ops;
        if (!batched() || !batchable(name)) {
            flush();
            ++stats_.tasks;
            ++stats_.singles;
            if (batched() && opts_.model_streams)
                streams_.issue(accesses, flops);
            eng_.submit(name, flops, std::move(accesses), std::move(fn),
                        priority, job);
            return;
        }
        GroupKey const key{name, flops, priority, job, accesses.size(),
                           prec::ambient_gemm_mode()};
        if (open_ && !open_->key.matches(key))
            flush();
        if (!open_) {
            open_.emplace();
            open_->key = key;
        }
        open_->flops += flops;
        for (auto const& a : accesses)
            open_->merge(a);
        open_->fns.push_back(std::move(fn));
        if (open_->fns.size() >= static_cast<std::size_t>(opts_.max_batch))
            flush();
    }

    void submit(char const* name, std::vector<rt::Access> accesses,
                std::function<void()> fn, int priority = 0,
                rt::JobId job = rt::kAmbientJob) {
        submit(name, 0.0, std::move(accesses), std::move(fn), priority, job);
    }

    /// Hand the open group to the engine (no-op if nothing is buffered).
    void flush() {
        if (!open_)
            return;
        Group g = std::move(*open_);
        open_.reset();
        std::uint64_t const b = g.fns.size();
        ++stats_.tasks;
        if (b >= 2) {
            ++stats_.groups;
            stats_.max_group = std::max(stats_.max_group, b);
        } else {
            ++stats_.singles;
        }
        if (opts_.model_streams)
            streams_.issue(g.accesses, g.flops);
        // A singleton keeps its kernel name so traces stay comparable with
        // the per-tile path; a real batch is prefixed for the trace reader.
        std::string const name =
            b >= 2 ? std::string("batch_") + g.key.name : g.key.name;
        auto fns = std::make_shared<std::vector<std::function<void()>>>(
            std::move(g.fns));
        // The flush may run long after submission under a different ambient
        // mode (e.g. the ladder promoted rungs between open and flush);
        // re-establish the group's captured mode so the engine tags the
        // batch task with the precision its members were submitted under.
        prec::ScopedGemmMode mode_scope(g.key.gemm_mode);
        eng_.submit(name.c_str(), g.flops, std::move(g.accesses),
                    [fns] {
                        for (auto& f : *fns)
                            f();
                    },
                    g.key.priority, g.key.job, b);
    }

    /// Inter-operation fence: flush, then the engine's op_fence semantics.
    void op_fence() {
        flush();
        eng_.op_fence();
    }

    /// Host synchronization: flush, drain the engine, write the modeled
    /// dirty tiles back (the host observes results here).
    void wait() {
        flush();
        eng_.wait();
        if (batched() && opts_.model_streams)
            streams_.sync();
    }

    double flops_executed() const { return eng_.flops_executed(); }

    BatchStats const& batch_stats() const { return stats_; }
    StreamStats const& stream_stats() const { return streams_.stats(); }
    StreamSet& streams() { return streams_; }

    /// Tile operations that coalesce: the shape-regular inner kernels of
    /// the update sweeps (gemm/herk/tsmqr/ttmqr/unmqr/trsm_gemm) and the
    /// element-wise sweeps. Panel factorizations (geqrt/tsqrt/ttqrt/potrf)
    /// and diagonal solves stay per-tile: they are the critical chain and
    /// batching them would serialize independent panels behind one task.
    static bool batchable(char const* name) {
        static constexpr char const* kNames[] = {
            "gemm", "herk",  "tsmqr", "ttmqr", "unmqr",          "trsm_gemm",
            "copy", "scale", "add",   "set",   "transpose_copy", "q2_init",
            "convert",
        };
        for (char const* n : kNames)
            if (std::strcmp(name, n) == 0)
                return true;
        return false;
    }

private:
    static constexpr std::size_t kDefaultTileBytes = 64 * 64 * sizeof(double);

    struct GroupKey {
        char const* name = "";
        double flops = 0;  ///< per-op flops — the same-shape proxy
        int priority = 0;
        rt::JobId job = rt::kAmbientJob;
        std::size_t arity = 0;  ///< accesses per op
        // Precision tag: ops submitted under different gemm modes must not
        // coalesce — the whole batch executes under one exec mode.
        prec::GemmMode gemm_mode = prec::GemmMode::Native;

        bool matches(GroupKey const& o) const {
            return flops == o.flops && priority == o.priority && job == o.job
                   && arity == o.arity && gemm_mode == o.gemm_mode
                   && std::strcmp(name, o.name) == 0;
        }
    };

    struct Group {
        GroupKey key;
        double flops = 0;  ///< sum over members
        std::vector<std::function<void()>> fns;
        std::vector<rt::Access> accesses;  ///< merged, first-touch order
        std::unordered_map<void const*, std::size_t> index;

        /// Union a member access into the merged list. Widening a repeated
        /// key to ReadWrite is always safe: the group's external
        /// dependencies become a superset of its members' and the member
        /// bodies run in submission order inside the task.
        void merge(rt::Access const& a) {
            auto const [it, inserted] = index.emplace(a.key, accesses.size());
            if (inserted) {
                accesses.push_back(a);
                return;
            }
            auto& mode = accesses[it->second].mode;
            if (mode != a.mode)
                mode = rt::AccessMode::ReadWrite;
        }
    };

    rt::Engine& eng_;
    ExecOptions opts_;
    StreamSet streams_;
    std::optional<Group> open_;
    BatchStats stats_;
};

}  // namespace tbp::dev
