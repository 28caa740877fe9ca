// Work-stealing scheduler stress: thousands of tiny tasks with random
// read/write access patterns checked for dataflow-equivalence against
// Sequential mode, steal-path exercise, priority ordering, forced
// exceptions, and pop/steal accounting. Designed to run clean under
// ThreadSanitizer (-DTBP_SANITIZE=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "runtime/engine.hh"

using namespace tbp;

namespace {

/// Run the same randomly generated task program on `eng` and return the
/// final key values. Access lists intentionally contain duplicate keys
/// (Read + ReadWrite of the same address) to exercise dependency dedup.
std::vector<long> run_random_program(rt::Engine& eng, int n_keys, int n_tasks,
                                     std::uint64_t seed) {
    std::vector<long> vals(static_cast<size_t>(n_keys), 1);
    CounterRng rng(seed);
    for (int t = 0; t < n_tasks; ++t) {
        int const a = static_cast<int>(rng.uniform(4 * t) * n_keys);
        int const b = static_cast<int>(rng.uniform(4 * t + 1) * n_keys);
        int const dst = static_cast<int>(rng.uniform(4 * t + 2) * n_keys);
        long const add = static_cast<long>(rng.uniform(4 * t + 3) * 7);
        int const prio = (t % 5 == 0) ? 1 : 0;
        eng.submit("mix",
                   {rt::read(&vals[static_cast<size_t>(a)]),
                    rt::read(&vals[static_cast<size_t>(b)]),
                    rt::read(&vals[static_cast<size_t>(dst)]),  // dup of rw
                    rt::readwrite(&vals[static_cast<size_t>(dst)])},
                   [&vals, a, b, dst, add] {
                       vals[static_cast<size_t>(dst)] +=
                           vals[static_cast<size_t>(a)] % 13
                           + vals[static_cast<size_t>(b)] % 7 + add;
                   },
                   prio);
    }
    eng.wait();
    return vals;
}

}  // namespace

TEST(EngineStress, RandomDagMatchesSequential) {
    // The work-stealing schedule must be dataflow-equivalent to inline
    // sequential execution of the same program order, across thread counts.
    rt::Engine seq(0, rt::Mode::Sequential);
    auto const ref = run_random_program(seq, 10, 4000, 99);
    for (int threads : {2, 4, 8}) {
        rt::Engine eng(threads);
        auto const got = run_random_program(eng, 10, 4000, 99);
        EXPECT_EQ(got, ref) << "threads=" << threads;
    }
}

TEST(EngineStress, PopAccountingCoversAllTasks) {
    // Every executed task was obtained by exactly one of: local pop or
    // steal.
    rt::Engine eng(4);
    run_random_program(eng, 8, 3000, 7);
    auto const s = eng.sched_stats();
    EXPECT_EQ(s.local_pops + s.steals, eng.tasks_executed());
}

TEST(EngineStress, StealPathMovesFanOutWork) {
    // One root task fans out to many independent children. The children are
    // all released onto the finishing worker's own deque, so every other
    // worker can only obtain them by stealing.
    rt::Engine eng(4);
    int const fan = 256;
    int root_key = 0;
    std::vector<int> child_keys(static_cast<size_t>(fan), 0);
    std::atomic<long> sum{0};
    std::atomic<bool> go{false};
    // The root idles until every child is submitted, so all of them are
    // released as its successors onto one deque (none pre-distributed).
    eng.submit("root", {rt::write(&root_key)}, [&] {
        while (!go.load())
            std::this_thread::yield();
        root_key = 1;
    });
    for (int i = 0; i < fan; ++i)
        eng.submit("child",
                   {rt::read(&root_key),
                    rt::write(&child_keys[static_cast<size_t>(i)])},
                   [&, i] {
                       long acc = 0;
                       for (int k = 0; k < 20000; ++k)
                           acc += (k ^ i) % 17;
                       child_keys[static_cast<size_t>(i)] = 1;
                       sum.fetch_add(acc, std::memory_order_relaxed);
                   });
    go.store(true);
    eng.wait();
    for (int v : child_keys)
        EXPECT_EQ(v, 1);
    EXPECT_GT(eng.sched_stats().steals, 0u);
}

TEST(EngineStress, PriorityTaskRunsBeforeQueuedBulk) {
    // Single worker: while it is pinned on a blocker task, queue low-priority
    // tasks and then one high-priority task; the high-priority task must be
    // the first of the queued batch to execute.
    rt::Engine eng(1);
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    std::mutex order_mtx;
    std::vector<std::string> order;
    auto log = [&](char const* who) {
        std::lock_guard<std::mutex> lk(order_mtx);
        order.push_back(who);
    };
    eng.submit("blocker", {}, [&] {
        started.store(true);
        while (!release.load())
            std::this_thread::yield();
    });
    while (!started.load())
        std::this_thread::yield();
    for (int i = 0; i < 4; ++i)
        eng.submit("low", {}, [&] { log("low"); });
    eng.submit("high", {}, [&] { log("high"); }, /*priority=*/1);
    release.store(true);
    eng.wait();
    ASSERT_EQ(order.size(), 5u);
    EXPECT_EQ(order.front(), "high");
}

TEST(EngineStress, ErrorSkipsSuccessorBodies) {
    // After a task throws, dependent tasks still retire (wait() terminates)
    // but their bodies must not run on the poisoned data.
    rt::Engine eng(4);
    int x = 0;
    std::atomic<int> ran{0};
    eng.submit("boom", {rt::write(&x)}, [&]() -> void {
        throw std::runtime_error("boom");
    });
    for (int i = 0; i < 50; ++i)
        eng.submit("after", {rt::readwrite(&x)}, [&] { ran.fetch_add(1); });
    EXPECT_THROW(eng.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(eng.tasks_executed(), 51u);  // all retired, bodies skipped

    // The latch clears with wait(): the next epoch runs normally.
    eng.submit("ok", {rt::readwrite(&x)}, [&] { ran.fetch_add(1); });
    eng.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(EngineStress, ForcedExceptionsUnderLoad) {
    // Random DAG with several throwing tasks: first error surfaces, engine
    // stays reusable and consistent afterwards.
    for (int trial = 0; trial < 3; ++trial) {
        rt::Engine eng(4);
        std::vector<long> vals(6, 0);
        CounterRng rng(static_cast<std::uint64_t>(trial) + 31);
        for (int t = 0; t < 1500; ++t) {
            int const dst = static_cast<int>(rng.uniform(2 * t) * 6);
            if (t % 500 == 250)
                eng.submit("boom", {rt::readwrite(&vals[static_cast<size_t>(dst)])},
                           []() -> void { throw std::runtime_error("x"); });
            else
                eng.submit("inc", {rt::readwrite(&vals[static_cast<size_t>(dst)])},
                           [&vals, dst] { ++vals[static_cast<size_t>(dst)]; });
        }
        EXPECT_THROW(eng.wait(), std::runtime_error);
        // Engine reusable: a clean epoch after the failure.
        std::atomic<int> ok{0};
        for (int i = 0; i < 100; ++i)
            eng.submit("ok", {}, [&] { ok.fetch_add(1); });
        eng.wait();
        EXPECT_EQ(ok.load(), 100);
    }
}

TEST(EngineStress, DedupDuplicateAccessEdges) {
    // Read + ReadWrite of the same key must record a single dependency edge
    // to the previous writer.
    rt::Engine eng(2);
    eng.set_trace(true);
    int x = 0;
    eng.submit("w", {rt::write(&x)}, [&] { x = 1; });
    eng.submit("rrw", {rt::read(&x), rt::readwrite(&x)}, [&] { ++x; });
    eng.wait();
    auto const& tr = eng.trace();
    ASSERT_EQ(tr.size(), 2u);
    auto const& rrw = (tr[0].name == "rrw") ? tr[0] : tr[1];
    auto const& w = (tr[0].name == "w") ? tr[0] : tr[1];
    ASSERT_EQ(rrw.deps.size(), 1u);
    EXPECT_EQ(rrw.deps[0], w.id);
    EXPECT_EQ(x, 2);
}

TEST(EngineStress, JobScopedErrorLatchIsolatesJobs) {
    // Two explicit jobs share the engine; one throws. The failure must
    // skip only its own job's successor bodies, never the other job's, and
    // must surface through take_job_error() — not through wait().
    rt::Engine eng(4);
    auto const job_a = eng.new_job();
    auto const job_b = eng.new_job();

    std::atomic<int> a_ran{0}, b_ran{0};
    long key_a = 0, key_b = 0;
    eng.submit("a_boom", {rt::readwrite(&key_a)},
               []() -> void { throw std::runtime_error("job A failed"); },
               0, job_a);
    for (int i = 0; i < 50; ++i) {
        eng.submit("a_skip", {rt::readwrite(&key_a)},
                   [&a_ran] { a_ran.fetch_add(1); }, 0, job_a);
        eng.submit("b_ok", {rt::readwrite(&key_b)},
                   [&b_ran] { b_ran.fetch_add(1); }, 0, job_b);
    }
    // No ambient error: wait() must NOT throw.
    EXPECT_NO_THROW(eng.wait());
    EXPECT_EQ(a_ran.load(), 0) << "poisoned job ran successor bodies";
    EXPECT_EQ(b_ran.load(), 50) << "failure leaked across jobs";

    // The error is latched for its owner, claimed exactly once.
    EXPECT_TRUE(eng.job_poisoned(job_a));
    EXPECT_FALSE(eng.job_poisoned(job_b));
    auto err = eng.take_job_error(job_a);
    ASSERT_TRUE(err != nullptr);
    EXPECT_THROW(std::rethrow_exception(err), std::runtime_error);
    EXPECT_FALSE(eng.job_poisoned(job_a));
    EXPECT_TRUE(eng.take_job_error(job_a) == nullptr);
}

TEST(EngineStress, AmbientJobContractUnchangedAlongsideJobs) {
    // Plain submit() (ambient job) still rethrows on wait() even while an
    // explicit job is poisoned in the same epoch — and that job's error
    // stays latched rather than being consumed by wait().
    rt::Engine eng(3);
    auto const job = eng.new_job();
    eng.submit("job_boom", {},
               []() -> void { throw std::runtime_error("explicit"); }, 0,
               job);
    eng.submit("ambient_boom", {},
               []() -> void { throw std::logic_error("ambient"); });
    EXPECT_THROW(eng.wait(), std::logic_error);
    EXPECT_NO_THROW(eng.wait());  // ambient error consumed by first wait
    auto err = eng.take_job_error(job);
    ASSERT_TRUE(err != nullptr);
    EXPECT_THROW(std::rethrow_exception(err), std::runtime_error);
}

TEST(EngineStress, HostPoisonedJobSkipsQueuedBodies) {
    // poison_job() from the host (the service layer's path) marks the job
    // before its queued tasks run; their bodies are skipped but dependents
    // still release, so wait() terminates.
    rt::Engine eng(2);
    auto const job = eng.new_job();
    eng.poison_job(job, std::make_exception_ptr(std::runtime_error("host")));
    std::atomic<int> ran{0};
    long key = 0;
    for (int i = 0; i < 20; ++i)
        eng.submit("skipped", {rt::readwrite(&key)},
                   [&ran] { ran.fetch_add(1); }, 0, job);
    EXPECT_NO_THROW(eng.wait());
    EXPECT_EQ(ran.load(), 0);
    EXPECT_TRUE(eng.take_job_error(job) != nullptr);
}
