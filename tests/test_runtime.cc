// Dataflow engine: dependency semantics (RAW/WAR/WAW), modes, stress,
// error propagation, tracing.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "runtime/engine.hh"

using namespace tbp;

TEST(Runtime, RunsAllTasks) {
    rt::Engine eng(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        eng.submit("inc", {}, [&] { count.fetch_add(1); });
    eng.wait();
    EXPECT_EQ(count.load(), 100);
    EXPECT_EQ(eng.tasks_executed(), 100u);
}

TEST(Runtime, RawDependency) {
    rt::Engine eng(4);
    int x = 0;
    int observed = -1;
    eng.submit("w", {rt::write(&x)}, [&] { x = 42; });
    eng.submit("r", {rt::read(&x)}, [&] { observed = x; });
    eng.wait();
    EXPECT_EQ(observed, 42);
}

TEST(Runtime, WawOrdering) {
    rt::Engine eng(4);
    int x = 0;
    for (int i = 1; i <= 50; ++i)
        eng.submit("w", {rt::write(&x)}, [&x, i] { x = i; });
    eng.wait();
    EXPECT_EQ(x, 50);
}

TEST(Runtime, WarDependency) {
    // A writer submitted after readers must wait for all of them.
    rt::Engine eng(4);
    int x = 7;
    std::atomic<int> reads_ok{0};
    for (int i = 0; i < 20; ++i)
        eng.submit("r", {rt::read(&x)}, [&] {
            if (x == 7)
                reads_ok.fetch_add(1);
        });
    eng.submit("w", {rt::write(&x)}, [&] { x = 99; });
    eng.wait();
    EXPECT_EQ(reads_ok.load(), 20);
    EXPECT_EQ(x, 99);
}

TEST(Runtime, ChainAccumulation) {
    rt::Engine eng(4);
    long sum = 0;
    for (int i = 1; i <= 1000; ++i)
        eng.submit("acc", {rt::readwrite(&sum)}, [&sum, i] { sum += i; });
    eng.wait();
    EXPECT_EQ(sum, 500500);
}

TEST(Runtime, IndependentKeysRunConcurrently) {
    // No ordering between disjoint keys: both chains complete correctly.
    rt::Engine eng(4);
    long a = 0, b = 0;
    for (int i = 0; i < 500; ++i) {
        eng.submit("a", {rt::readwrite(&a)}, [&a] { ++a; });
        eng.submit("b", {rt::readwrite(&b)}, [&b] { ++b; });
    }
    eng.wait();
    EXPECT_EQ(a, 500);
    EXPECT_EQ(b, 500);
}

TEST(Runtime, SequentialModeExecutesInline) {
    rt::Engine eng(0, rt::Mode::Sequential);
    int x = 0;
    eng.submit("w", {rt::write(&x)}, [&] { x = 5; });
    EXPECT_EQ(x, 5);  // already done, no wait needed
    eng.wait();
}

TEST(Runtime, ForkJoinOpFenceWaits) {
    rt::Engine eng(2, rt::Mode::ForkJoin);
    int x = 0;
    eng.submit("w", {rt::write(&x)}, [&] { x = 1; });
    eng.op_fence();
    EXPECT_EQ(x, 1);
}

TEST(Runtime, DataflowOpFenceDoesNotBlockSubmission) {
    rt::Engine eng(2, rt::Mode::TaskDataflow);
    std::atomic<int> done{0};
    eng.submit("t", {}, [&] { done.fetch_add(1); });
    eng.op_fence();  // no-op; just must not deadlock
    eng.submit("t", {}, [&] { done.fetch_add(1); });
    eng.wait();
    EXPECT_EQ(done.load(), 2);
}

TEST(Runtime, ExceptionPropagates) {
    rt::Engine eng(2);
    eng.submit("boom", {}, [] { throw std::runtime_error("boom"); });
    EXPECT_THROW(eng.wait(), std::runtime_error);
    // Engine is reusable after the failure.
    std::atomic<int> ok{0};
    eng.submit("ok", {}, [&] { ok.fetch_add(1); });
    eng.wait();
    EXPECT_EQ(ok.load(), 1);
}

TEST(Runtime, FlopAccounting) {
    rt::Engine eng(2);
    eng.submit("a", 100.0, {}, [] {});
    eng.submit("b", 250.0, {}, [] {});
    eng.wait();
    EXPECT_DOUBLE_EQ(eng.flops_executed(), 350.0);
    eng.reset_stats();
    EXPECT_DOUBLE_EQ(eng.flops_executed(), 0.0);
}

TEST(Runtime, TraceRecordsTasksAndDeps) {
    rt::Engine eng(2);
    eng.set_trace(true);
    int x = 0;
    eng.submit("w1", 1.0, {rt::write(&x)}, [&] { x = 1; });
    eng.submit("w2", 2.0, {rt::readwrite(&x)}, [&] { x = 2; });
    eng.wait();
    auto const& tr = eng.trace();
    ASSERT_EQ(tr.size(), 2u);
    // Find w2; it must depend on w1's id.
    auto const& w2 = (tr[0].name == "w2") ? tr[0] : tr[1];
    auto const& w1 = (tr[0].name == "w1") ? tr[0] : tr[1];
    ASSERT_EQ(w2.deps.size(), 1u);
    EXPECT_EQ(w2.deps[0], w1.id);
    EXPECT_GE(w2.t_start, w1.t_start);
}

TEST(Runtime, StressRandomDag) {
    // Random reads/writes over a small key set; verify against a serial
    // replay of the same program order.
    int const n_keys = 8;
    int const n_tasks = 2000;
    std::vector<long> vals(n_keys, 0);
    std::vector<long> ref_vals(n_keys, 0);
    CounterRng rng(2024);

    rt::Engine eng(4);
    for (int t = 0; t < n_tasks; ++t) {
        int const dst = static_cast<int>(rng.uniform(3 * t) * n_keys);
        int const src = static_cast<int>(rng.uniform(3 * t + 1) * n_keys);
        long const add = static_cast<long>(rng.uniform(3 * t + 2) * 10);
        eng.submit("mix",
                   {rt::read(&vals[src]), rt::readwrite(&vals[dst])},
                   [&vals, src, dst, add] { vals[dst] += vals[src] + add; });
        ref_vals[dst] += ref_vals[src] + add;
    }
    eng.wait();
    EXPECT_EQ(vals, ref_vals);
}

TEST(Runtime, WaitIsReentrantEpoch) {
    rt::Engine eng(2);
    int x = 0;
    eng.submit("w", {rt::write(&x)}, [&] { x = 1; });
    eng.wait();
    eng.submit("w", {rt::readwrite(&x)}, [&] { x += 1; });
    eng.wait();
    EXPECT_EQ(x, 2);
}

TEST(Runtime, ManyThreadsManyTasks) {
    rt::Engine eng(8);
    std::atomic<long> sum{0};
    for (int i = 0; i < 5000; ++i)
        eng.submit("s", {}, [&] { sum.fetch_add(1); });
    eng.wait();
    EXPECT_EQ(sum.load(), 5000);
}

TEST(Runtime, TraceRecordsPriorityAndWorker) {
    rt::Engine eng(2);
    eng.set_trace(true);
    int x = 0;
    eng.submit("panel", 1.0, {rt::write(&x)}, [&] { x = 1; }, /*priority=*/1);
    eng.submit("update", 1.0, {rt::readwrite(&x)}, [&] { ++x; });
    eng.wait();
    auto const& tr = eng.trace();
    ASSERT_EQ(tr.size(), 2u);
    auto const& panel = (tr[0].name == "panel") ? tr[0] : tr[1];
    auto const& update = (tr[0].name == "update") ? tr[0] : tr[1];
    EXPECT_EQ(panel.priority, 1);
    EXPECT_EQ(update.priority, 0);
    EXPECT_GE(panel.worker, 0);
    EXPECT_LT(panel.worker, eng.num_threads());
}

TEST(Runtime, DuplicateAccessesSingleEdge) {
    // The same key listed twice must not double-count the dependency edge.
    rt::Engine eng(2);
    eng.set_trace(true);
    int x = 0;
    eng.submit("w", {rt::write(&x)}, [&] { x = 3; });
    eng.submit("dup", {rt::read(&x), rt::read(&x), rt::readwrite(&x)},
               [&] { ++x; });
    eng.wait();
    EXPECT_EQ(x, 4);
    auto const& tr = eng.trace();
    ASSERT_EQ(tr.size(), 2u);
    auto const& dup = (tr[0].name == "dup") ? tr[0] : tr[1];
    EXPECT_EQ(dup.deps.size(), 1u);
}
