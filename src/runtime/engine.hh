// Superscalar dataflow task engine with a work-stealing scheduler.
//
// This is TBP's stand-in for SLATE's "OpenMP tasks to track data
// dependencies" (paper abstract): the algorithm layer submits tasks in
// sequential program order, each declaring read/write accesses on tile data
// pointers, and the engine derives RAW/WAR/WAW dependencies exactly like an
// OpenMP `depend(in/out/inout)` region, then executes ready tasks on a
// thread pool. Lookahead across panels, updates, and successive operations
// emerges from the dataflow, as in SLATE.
//
// Execution modes:
//   Sequential  - submit() runs the task inline (debugging, references)
//   TaskDataflow- full asynchronous dataflow (the paper's SLATE mode)
//   ForkJoin    - same engine, but the algorithm layer's op_fence() becomes
//                 a full barrier after every high-level operation. This
//                 reproduces the bulk-synchronous fork-join schedule of
//                 ScaLAPACK/POLAR that Section 3 identifies as the
//                 state-of-the-art's bottleneck.
//
// Scheduler: work stealing. Each worker has one ready deque. A worker pops
// its own deque LIFO (newest first, for cache locality with the task that
// just produced the data); an idle worker sweeps the other workers' deques
// and steals FIFO (oldest first, the task least likely to be hot in the
// victim's cache), taking half of the victim's backlog with it so
// fine-grained DAGs amortize the sweep over many tasks. Only when a local
// pop and a full steal sweep both fail does the worker sleep on a condition
// variable; a push wakes a worker only if one is actually asleep
// (sleeper-count gate), so the steady state where every worker is busy pays
// no wake-up traffic. Tasks released by a running task are pushed to that
// worker's own deque; tasks submitted by the driver thread are distributed
// round-robin.
//
// Priority: submit() takes an optional integer priority (default 0). Each
// deque keeps priority > 0 tasks in a separate high-priority lane that is
// always popped (and stolen) before priority-0 work. The algorithm layer
// marks critical-path tasks — panel factorizations (geqrt, tsqrt, potrf)
// and triangular panel solves — mirroring SLATE's `omp priority` hint on
// panel tasks, so trailing-matrix updates cannot starve the panel chain.
// Priorities are a scheduling hint only; dependency order always wins.
//
// Error propagation contract: errors are latched per *job*. Every task
// belongs to a job (the optional JobId argument of submit(); the default,
// kAmbientJob = 0, is the ordinary single-algorithm case). The first
// exception thrown by a task of a job poisons that job: the bodies of its
// subsequently dequeued tasks are skipped (the tasks still retire and
// release their successors, so wait() terminates and the dependency epoch
// stays consistent) — the job's DAG drains quickly instead of computing on
// poisoned data, while tasks of every other job keep executing normally.
// The ambient job's error is rethrown (and cleared) by the next wait(),
// preserving the single-job contract; errors of explicit jobs (new_job())
// are never rethrown by wait() and are claimed with take_job_error(). A
// host can also poison a job directly via poison_job() — the batched
// service layer uses this to fence off a job whose provider failed without
// routing the exception through a task body.
//
// The engine can also record a trace (task names, flop counts, dependency
// edges, start/end times, worker ids, priorities, whether the task was
// stolen) consumed by the performance-model replay in src/perf/ and the
// scheduler-efficiency reports in trace_analysis.hh.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace tbp::rt {

enum class Mode { Sequential, TaskDataflow, ForkJoin };

enum class AccessMode { Read, Write, ReadWrite };

/// Error-scoping domain of a task (see header comment). Job 0 is the
/// ambient job of plain submit() callers; explicit ids come from new_job().
using JobId = std::uint64_t;
inline constexpr JobId kAmbientJob = 0;

/// One data access of a task: a key (tile data pointer) plus a mode.
struct Access {
    void const* key;
    AccessMode mode;
};

inline Access read(void const* key) { return {key, AccessMode::Read}; }
inline Access write(void const* key) { return {key, AccessMode::Write}; }
inline Access readwrite(void const* key) { return {key, AccessMode::ReadWrite}; }

/// Trace record of one executed task (for tests and the perf replay).
struct TaskRecord {
    std::string name;
    double flops = 0;
    double t_start = 0;
    double t_end = 0;
    int worker = -1;
    std::uint64_t id = 0;
    std::vector<std::uint64_t> deps;  // ids of predecessor tasks (deduped)
    int priority = 0;
    bool stolen = false;  // executed by a worker that stole it from a victim
};

class Engine {
public:
    /// Scheduler event counters since construction / reset_stats().
    struct SchedStats {
        std::uint64_t local_pops = 0;   ///< tasks popped from the owner deque
        std::uint64_t steals = 0;       ///< tasks stolen from a victim deque
        std::uint64_t sleeps = 0;       ///< times a worker blocked on the cv
    };

    /// num_threads <= 0 picks std::thread::hardware_concurrency().
    explicit Engine(int num_threads = 0, Mode mode = Mode::TaskDataflow);
    ~Engine();

    Engine(Engine const&) = delete;
    Engine& operator=(Engine const&) = delete;

    Mode mode() const { return mode_; }
    int num_threads() const { return static_cast<int>(workers_.size()); }

    /// Submit a task. Must be called from a single submitter thread (the
    /// algorithm driver), as with OpenMP task regions. priority > 0 marks a
    /// critical-path task scheduled ahead of priority-0 work (see header).
    /// `job` selects the error-scoping domain the task belongs to.
    void submit(char const* name, double flops, std::vector<Access> accesses,
                std::function<void()> fn, int priority = 0,
                JobId job = kAmbientJob);

    /// Convenience overload without cost metadata.
    void submit(char const* name, std::vector<Access> accesses,
                std::function<void()> fn, int priority = 0,
                JobId job = kAmbientJob) {
        submit(name, 0.0, std::move(accesses), std::move(fn), priority, job);
    }

    /// Wait for every submitted task to finish. Rethrows the first exception
    /// thrown by an *ambient-job* task (and clears that latch). Errors of
    /// explicit jobs stay latched for take_job_error(). Clears the
    /// dependency table (a fresh epoch).
    void wait();

    // --- job error scoping ------------------------------------------------
    /// Fresh error-scoping domain for a batch job (thread-safe).
    JobId new_job() { return next_job_.fetch_add(1, std::memory_order_relaxed); }

    /// Claim and clear a job's latched error; nullptr if the job is clean.
    /// The job id must not be reused for new tasks afterwards.
    std::exception_ptr take_job_error(JobId job);

    /// Latch `err` for `job` directly (first error wins): pending tasks of
    /// that job drain with skipped bodies, exactly as if a task had thrown.
    /// Safe from any thread, including from inside a running task.
    void poison_job(JobId job, std::exception_ptr err);

    /// True if the job currently has a latched (unclaimed) error.
    bool job_poisoned(JobId job) const;

    /// Barrier inserted by the algorithm layer between high-level operations.
    /// A no-op under TaskDataflow (lookahead allowed); a full wait() under
    /// ForkJoin and Sequential.
    void op_fence();

    // --- statistics -------------------------------------------------------
    std::uint64_t tasks_executed() const { return tasks_executed_.load(); }
    double flops_executed() const;
    SchedStats sched_stats() const;
    void reset_stats();

    // --- tracing ----------------------------------------------------------
    void set_trace(bool on);
    bool tracing() const { return trace_on_.load(std::memory_order_relaxed); }
    /// Trace of the tasks executed since set_trace(true). Call after wait().
    std::vector<TaskRecord> const& trace() const { return trace_; }
    void clear_trace();

private:
    struct Task;
    struct ObjectState;
    struct WorkerQueue;

    void worker_loop(int worker_id);
    void run_task(Task* t, int worker_id, bool stolen);
    /// src_worker >= 0: released by that worker (push to its own deque);
    /// src_worker < 0: submitted by the driver (round-robin).
    void make_ready(Task* t, int src_worker);
    Task* pop_local(int worker_id);
    Task* steal(int thief_id);
    /// Definitive emptiness check: locks every worker deque in turn. Only
    /// used on the (rare) sleep path, keeping the push/pop hot paths free
    /// of any shared ready counter.
    bool queues_empty() const;

    Mode mode_;
    std::vector<std::thread> workers_;

    // Sleep/wake state. queue_mtx_ brackets every notify so cv waiters
    // cannot miss a wake.
    std::mutex queue_mtx_;
    std::condition_variable queue_cv_;
    std::condition_variable idle_cv_;
    std::atomic<bool> shutdown_{false};
    std::atomic<std::uint64_t> outstanding_{0};

    // Work-stealing state: one deque pair per worker. sleepers_ gates the
    // notify in make_ready (paired with the sleeper's lock-sweep of every
    // deque, see queues_empty()) so a push with every worker busy skips the
    // wake entirely.
    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::atomic<int> sleepers_{0};
    std::uint64_t next_queue_ = 0;  // round-robin cursor; driver thread only

    // Dependency bookkeeping; touched only by the submitter thread.
    std::unordered_map<void const*, ObjectState> objects_;
    std::vector<std::unique_ptr<Task>> all_tasks_;
    std::uint64_t next_id_ = 0;

    std::atomic<std::uint64_t> tasks_executed_{0};
    std::atomic<std::uint64_t> local_pops_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> sleeps_{0};
    mutable std::mutex stats_mtx_;
    double flops_executed_ = 0;  // guarded by stats_mtx_

    std::atomic<bool> trace_on_{false};
    std::mutex trace_mtx_;
    std::vector<TaskRecord> trace_;

    // Per-job error latches. poisoned_jobs_ counts map entries so the
    // run_task hot path stays a single atomic load while no job is poisoned.
    mutable std::mutex error_mtx_;
    std::unordered_map<JobId, std::exception_ptr> job_errors_;  // guarded
    std::atomic<std::uint64_t> poisoned_jobs_{0};
    std::atomic<JobId> next_job_{1};
};

}  // namespace tbp::rt
