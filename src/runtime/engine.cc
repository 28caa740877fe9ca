#include "runtime/engine.hh"

#include <algorithm>
#include <deque>

#include "common/error.hh"
#include "common/precision.hh"
#include "common/timer.hh"

namespace tbp::rt {

struct Engine::Task {
    std::function<void()> fn;
    std::string name;
    double flops = 0;
    int priority = 0;
    std::uint64_t id = 0;
    JobId job = kAmbientJob;
    // Gemm mode captured from the submitting thread's ambient slot, so a
    // worker executes the body under the precision the algorithm layer
    // requested at submission (see common/precision.hh).
    prec::GemmMode gemm_mode = prec::GemmMode::Native;
    std::vector<std::uint64_t> dep_ids;

    // Scheduling state.
    std::mutex mtx;
    bool done = false;
    std::atomic<int> unresolved{1};  // +1 submission guard
    std::vector<Task*> successors;   // guarded by mtx until done
};

struct Engine::ObjectState {
    Task* last_writer = nullptr;
    std::vector<Task*> readers_since_write;
};

// A worker's ready deque. The owner pops LIFO from the back; thieves pop
// FIFO from the front. Priority > 0 tasks live in their own lane, drained
// before normal work by owner and thieves alike.
struct Engine::WorkerQueue {
    std::mutex mtx;
    std::deque<Task*> high;
    std::deque<Task*> low;
};

Engine::Engine(int num_threads, Mode mode) : mode_(mode) {
    if (mode_ == Mode::Sequential)
        return;
    int n = num_threads;
    if (n <= 0) {
        n = static_cast<int>(std::thread::hardware_concurrency());
        if (n <= 0)
            n = 2;
    }
    queues_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        queues_.emplace_back(std::make_unique<WorkerQueue>());
    workers_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
}

Engine::~Engine() {
    if (mode_ == Mode::Sequential)
        return;
    try {
        wait();
    } catch (...) {
        // Destructor must not throw; errors were the caller's to collect.
    }
    shutdown_.store(true);
    {
        std::lock_guard<std::mutex> lk(queue_mtx_);
    }
    queue_cv_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void Engine::submit(char const* name, double flops,
                    std::vector<Access> accesses, std::function<void()> fn,
                    int priority, JobId job) {
    if (mode_ == Mode::Sequential) {
        double const t0 = wall_time();
        if (!job_poisoned(job)) {
            // Inline execution still routes the ambient gemm mode through
            // the exec slot so kernels behave identically to worker threads.
            prec::ExecModeScope mode_scope(prec::ambient_gemm_mode());
            fn();  // exceptions propagate straight to the (inline) caller
        }
        double const t1 = wall_time();
        tasks_executed_.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lk(stats_mtx_);
            flops_executed_ += flops;
        }
        if (trace_on_.load(std::memory_order_relaxed)) {
            std::lock_guard<std::mutex> lk(trace_mtx_);
            trace_.push_back({name, flops, t0, t1, 0, next_id_++, {}, priority,
                              false});
        }
        return;
    }

    auto t = std::make_unique<Task>();
    t->fn = std::move(fn);
    t->name = name;
    t->flops = flops;
    t->priority = priority;
    t->job = job;
    t->gemm_mode = prec::ambient_gemm_mode();
    t->id = next_id_++;

    // Derive dependencies superscalar-style from the access list. A task
    // can reach the same predecessor through several accesses (e.g. Read
    // then ReadWrite of one key); count each edge once, both for the
    // unresolved count and for the traced DAG.
    auto add_dep = [&](Task* pred) {
        if (pred == nullptr || pred == t.get())
            return;
        if (std::find(t->dep_ids.begin(), t->dep_ids.end(), pred->id)
            != t->dep_ids.end())
            return;
        std::lock_guard<std::mutex> lk(pred->mtx);
        if (!pred->done) {
            pred->successors.push_back(t.get());
            t->unresolved.fetch_add(1, std::memory_order_relaxed);
        }
        t->dep_ids.push_back(pred->id);
    };

    for (auto const& a : accesses) {
        ObjectState& st = objects_[a.key];
        if (a.mode == AccessMode::Read) {
            add_dep(st.last_writer);
            st.readers_since_write.push_back(t.get());
        } else {
            // Write / ReadWrite: after the last writer and all readers.
            add_dep(st.last_writer);
            for (Task* r : st.readers_since_write)
                add_dep(r);
            st.readers_since_write.clear();
            st.last_writer = t.get();
        }
    }

    outstanding_.fetch_add(1, std::memory_order_relaxed);

    Task* raw = t.get();
    all_tasks_.push_back(std::move(t));

    // Drop the submission guard; enqueue if all inputs resolved.
    if (raw->unresolved.fetch_sub(1, std::memory_order_acq_rel) == 1)
        make_ready(raw, -1);
}

void Engine::make_ready(Task* t, int src_worker) {
    size_t const nq = queues_.size();
    size_t const qi = (src_worker >= 0) ? static_cast<size_t>(src_worker)
                                        : (next_queue_++ % nq);
    WorkerQueue& q = *queues_[qi];
    {
        std::lock_guard<std::mutex> lk(q.mtx);
        (t->priority > 0 ? q.high : q.low).push_back(t);
    }
    // Wake someone only if someone is asleep, so the steady state (every
    // worker busy) pays a single load here and nothing else. No wake is
    // lost: a worker bumps sleepers_ before its definitive emptiness sweep
    // (queues_empty(), which locks every q.mtx). If that sweep missed this
    // push, the sweep's critical section on q.mtx preceded ours, so its
    // sleepers_ increment happens-before our load below and we notify. The
    // empty critical section orders the notify against a sleeper that is
    // between its sweep and the cv wait (it holds queue_mtx_ throughout).
    if (sleepers_.load() > 0) {
        {
            std::lock_guard<std::mutex> lk(queue_mtx_);
        }
        queue_cv_.notify_one();
    }
}

bool Engine::queues_empty() const {
    for (auto const& q : queues_) {
        std::lock_guard<std::mutex> lk(q->mtx);
        if (!q->high.empty() || !q->low.empty())
            return false;
    }
    return true;
}

Engine::Task* Engine::pop_local(int worker_id) {
    WorkerQueue& q = *queues_[static_cast<size_t>(worker_id)];
    std::lock_guard<std::mutex> lk(q.mtx);
    Task* t = nullptr;
    if (!q.high.empty()) {
        t = q.high.back();
        q.high.pop_back();
    } else if (!q.low.empty()) {
        t = q.low.back();
        q.low.pop_back();
    }
    return t;
}

Engine::Task* Engine::steal(int thief_id) {
    size_t const nq = queues_.size();
    for (size_t k = 1; k < nq; ++k) {
        WorkerQueue& q = *queues_[(static_cast<size_t>(thief_id) + k) % nq];
        Task* t = nullptr;
        std::deque<Task*> high_batch, low_batch;
        {
            std::unique_lock<std::mutex> lk(q.mtx, std::try_to_lock);
            if (!lk.owns_lock())
                continue;  // victim busy; a notify covers anything it adds
            if (!q.high.empty()) {
                t = q.high.front();
                q.high.pop_front();
            } else if (!q.low.empty()) {
                t = q.low.front();
                q.low.pop_front();
            }
            if (!t)
                continue;
            // Steal-half: take the older (FIFO) half of the victim's
            // backlog with us, so fine-grained DAGs do not pay one sweep
            // per stolen task. Collected locally and re-queued after the
            // victim's lock is dropped — holding two queue locks at once
            // could deadlock a cycle of thieves.
            for (size_t n = q.high.size() / 2; n > 0; --n) {
                high_batch.push_back(q.high.front());
                q.high.pop_front();
            }
            for (size_t n = q.low.size() / 2; n > 0; --n) {
                low_batch.push_back(q.low.front());
                q.low.pop_front();
            }
        }
        if (!high_batch.empty() || !low_batch.empty()) {
            WorkerQueue& mine = *queues_[static_cast<size_t>(thief_id)];
            std::lock_guard<std::mutex> lk(mine.mtx);
            for (Task* b : high_batch)
                mine.high.push_back(b);
            for (Task* b : low_batch)
                mine.low.push_back(b);
        }
        return t;
    }
    return nullptr;
}

void Engine::worker_loop(int worker_id) {
    for (;;) {
        Task* t = pop_local(worker_id);
        bool stolen = false;
        if (!t) {
            t = steal(worker_id);
            stolen = (t != nullptr);
        }
        if (!t) {
            std::unique_lock<std::mutex> lk(queue_mtx_);
            // Publish intent to sleep BEFORE the definitive emptiness sweep:
            // make_ready pushes and then reads sleepers_, and the sweep
            // locks every queue mutex, so at least one side observes the
            // other and the wake cannot be lost (see make_ready).
            sleepers_.fetch_add(1);
            bool slept = false;
            if (queues_empty()) {
                if (shutdown_.load(std::memory_order_relaxed)) {
                    sleepers_.fetch_sub(1, std::memory_order_relaxed);
                    return;
                }
                sleeps_.fetch_add(1, std::memory_order_relaxed);
                queue_cv_.wait(lk, [&] {
                    return shutdown_.load(std::memory_order_relaxed)
                           || !queues_empty();
                });
                slept = true;
            }
            sleepers_.fetch_sub(1, std::memory_order_relaxed);
            if (shutdown_.load(std::memory_order_relaxed) && queues_empty())
                return;
            if (!slept) {
                // The steal sweep's try_lock missed a busy victim; give that
                // thread the core before sweeping again.
                lk.unlock();
                std::this_thread::yield();
            }
            continue;  // retry pop/steal
        }
        (stolen ? steals_ : local_pops_).fetch_add(1, std::memory_order_relaxed);
        run_task(t, worker_id, stolen);
    }
}

void Engine::run_task(Task* t, int worker_id, bool stolen) {
    double const t0 = wall_time();
    // Once an error is latched for this task's job, drain that job's DAG
    // without executing bodies: the task still retires and releases
    // successors so wait() terminates, but nothing computes on poisoned
    // data. Tasks of other jobs are unaffected — a failing batch job must
    // not abort its siblings. The common no-error case costs one relaxed
    // atomic load (poisoned_jobs_ == 0 skips the map lookup).
    if (!job_poisoned(t->job)) {
        prec::ExecModeScope mode_scope(t->gemm_mode);
        try {
            t->fn();
        } catch (...) {
            poison_job(t->job, std::current_exception());
        }
    }
    // Release the body eagerly: the Task skeleton must survive until the
    // epoch reset in wait() for dependency bookkeeping, but the closure's
    // captures (job state, workspaces) should not. A service that never
    // calls wait() would otherwise pin every job's arena until shutdown.
    t->fn = nullptr;
    double const t1 = wall_time();

    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(stats_mtx_);
        flops_executed_ += t->flops;
    }
    if (trace_on_.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lk(trace_mtx_);
        trace_.push_back({t->name, t->flops, t0, t1, worker_id, t->id,
                          t->dep_ids, t->priority, stolen});
    }

    std::vector<Task*> succ;
    {
        std::lock_guard<std::mutex> lk(t->mtx);
        t->done = true;
        succ.swap(t->successors);
    }
    for (Task* s : succ) {
        if (s->unresolved.fetch_sub(1, std::memory_order_acq_rel) == 1)
            make_ready(s, worker_id);
    }

    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        {
            std::lock_guard<std::mutex> lk(queue_mtx_);
        }
        idle_cv_.notify_all();
    }
}

void Engine::wait() {
    if (mode_ != Mode::Sequential) {
        std::unique_lock<std::mutex> lk(queue_mtx_);
        idle_cv_.wait(lk, [&] {
            // Acquire pairs with the workers' acq_rel fetch_sub: the
            // teardown below must happen after every task body.
            return outstanding_.load(std::memory_order_acquire) == 0;
        });
    }
    // Fresh dependency epoch; tasks are retired.
    objects_.clear();
    all_tasks_.clear();
    // Only the ambient job's error surfaces here; explicit jobs keep their
    // latch until take_job_error() so a poisoned batch job cannot abort an
    // unrelated caller's wait().
    if (auto err = take_job_error(kAmbientJob))
        std::rethrow_exception(err);
}

std::exception_ptr Engine::take_job_error(JobId job) {
    std::lock_guard<std::mutex> lk(error_mtx_);
    auto it = job_errors_.find(job);
    if (it == job_errors_.end())
        return nullptr;
    std::exception_ptr err = it->second;
    job_errors_.erase(it);
    poisoned_jobs_.fetch_sub(1, std::memory_order_release);
    return err;
}

void Engine::poison_job(JobId job, std::exception_ptr err) {
    std::lock_guard<std::mutex> lk(error_mtx_);
    auto const inserted = job_errors_.emplace(job, std::move(err)).second;
    if (inserted)
        poisoned_jobs_.fetch_add(1, std::memory_order_release);
}

bool Engine::job_poisoned(JobId job) const {
    if (poisoned_jobs_.load(std::memory_order_acquire) == 0)
        return false;
    std::lock_guard<std::mutex> lk(error_mtx_);
    return job_errors_.count(job) != 0;
}

void Engine::op_fence() {
    if (mode_ != Mode::TaskDataflow)
        wait();
}

double Engine::flops_executed() const {
    std::lock_guard<std::mutex> lk(stats_mtx_);
    return flops_executed_;
}

Engine::SchedStats Engine::sched_stats() const {
    SchedStats s;
    s.local_pops = local_pops_.load(std::memory_order_relaxed);
    s.steals = steals_.load(std::memory_order_relaxed);
    s.sleeps = sleeps_.load(std::memory_order_relaxed);
    return s;
}

void Engine::reset_stats() {
    tasks_executed_.store(0);
    local_pops_.store(0);
    steals_.store(0);
    sleeps_.store(0);
    std::lock_guard<std::mutex> lk(stats_mtx_);
    flops_executed_ = 0;
}

void Engine::set_trace(bool on) {
    trace_on_.store(on, std::memory_order_relaxed);
}

void Engine::clear_trace() {
    std::lock_guard<std::mutex> lk(trace_mtx_);
    trace_.clear();
}

}  // namespace tbp::rt
