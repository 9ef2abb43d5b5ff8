/**
 * @file
 * TaskPool contract tests: static partitioning, nested-submission
 * deadlock freedom, deterministic lowest-index exception selection,
 * resize, a parallelism cap of 1 running serially on the caller
 * with the same results as a pooled run, and the CPU binding rule.
 * The exception-determinism tests pin that workers=1 and workers=N
 * surface the same exception.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sched.h>

#include "common/metrics.h"
#include "common/task_pool.h"

using namespace cinnamon;

TEST(TaskPool, EveryIndexRunsExactlyOnce)
{
    TaskPool pool(4);
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.forEach(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(TaskPool, ParallelismOneRunsInline)
{
    TaskPool pool(1);
    EXPECT_EQ(pool.parallelism(), 1u);
    std::size_t sum = 0;
    // With no worker threads every index runs on the submitter, in
    // order — a plain serial loop.
    std::vector<std::size_t> order;
    pool.forEach(100, [&](std::size_t i) {
        sum += i;
        order.push_back(i);
    });
    EXPECT_EQ(sum, 4950u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(TaskPool, NestedSubmissionCompletesWithoutDeadlock)
{
    // A pool worker submitting a sub-range mid-chunk must never
    // deadlock: the submitter drains its own job's chunks itself.
    TaskPool pool(4);
    const std::size_t outer = 16, inner = 64;
    std::vector<std::atomic<int>> hits(outer * inner);
    pool.forEach(outer, [&](std::size_t o) {
        pool.forEach(inner, [&](std::size_t i) {
            hits[o * inner + i].fetch_add(1,
                                          std::memory_order_relaxed);
        });
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "cell " << i;
}

TEST(TaskPool, DoublyNestedSubmissionStillCompletes)
{
    TaskPool pool(3);
    std::atomic<std::size_t> total{0};
    pool.forEach(4, [&](std::size_t) {
        pool.forEach(4, [&](std::size_t) {
            pool.forEach(4, [&](std::size_t) {
                total.fetch_add(1, std::memory_order_relaxed);
            });
        });
    });
    EXPECT_EQ(total.load(), 64u);
}

namespace {

/** The index a run of `workers` surfaces as its failure, or -1. */
long
failingIndexSurfaced(std::size_t workers, std::size_t n,
                     const std::vector<std::size_t> &bad)
{
    TaskPool pool(workers);
    try {
        pool.forEach(n, [&](std::size_t i) {
            for (std::size_t b : bad) {
                if (i == b)
                    throw std::runtime_error(
                        "fail@" + std::to_string(i));
            }
        });
    } catch (const std::runtime_error &e) {
        return std::stol(std::string(e.what()).substr(5));
    }
    return -1;
}

} // namespace

TEST(TaskPool, LowestIndexExceptionWinsAtAnyWorkerCount)
{
    // Serial execution throws at the first (= lowest) failing index;
    // every worker count must surface that same exception. This is
    // the regression test for the old fork-join helper, which
    // dropped all but one arbitrary worker's exception.
    const std::size_t n = 5000;
    const std::vector<std::size_t> bad = {137, 2048, 4999};
    const long serial = failingIndexSurfaced(1, n, bad);
    EXPECT_EQ(serial, 137);
    for (std::size_t workers : {2u, 4u, 8u})
        EXPECT_EQ(failingIndexSurfaced(workers, n, bad), serial)
            << "workers=" << workers;
}

TEST(TaskPool, ExceptionInNestedJobPropagatesToOuterSubmitter)
{
    TaskPool pool(4);
    EXPECT_THROW(pool.forEach(8,
                              [&](std::size_t o) {
                                  pool.forEach(8, [&](std::size_t i) {
                                      if (o == 3 && i == 5)
                                          throw std::runtime_error(
                                              "inner");
                                  });
                              }),
                 std::runtime_error);
}

TEST(TaskPool, PoolKeepsServingAfterAnException)
{
    TaskPool pool(4);
    EXPECT_THROW(pool.forEach(100,
                              [](std::size_t i) {
                                  if (i == 50)
                                      throw std::runtime_error("x");
                              }),
                 std::runtime_error);
    std::atomic<std::size_t> ran{0};
    pool.forEach(100, [&](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 100u);
}

TEST(TaskPool, ResizeChangesParallelism)
{
    TaskPool pool(2);
    EXPECT_EQ(pool.parallelism(), 2u);
    pool.resize(5);
    EXPECT_EQ(pool.parallelism(), 5u);
    std::atomic<std::size_t> ran{0};
    pool.forEach(1000, [&](std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 1000u);
    pool.resize(1);
    EXPECT_EQ(pool.parallelism(), 1u);
}

TEST(TaskPool, MaxParallelismCapsButNeverRaises)
{
    TaskPool pool(8);
    // A cap below the pool's size restricts the chunk count; the
    // result is still every index exactly once.
    std::vector<std::atomic<int>> hits(512);
    pool.forEach(512, 2, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1);
}

TEST(TaskPool, OnWorkerThreadIsScopedToThePool)
{
    TaskPool pool(4);
    EXPECT_FALSE(pool.onWorkerThread());
    // The submitter assists but is not a pool-owned thread; chunks
    // that DID run on pool threads see onWorkerThread() true there.
    std::atomic<int> on_pool{0}, off_pool{0};
    pool.forEach(1000, [&](std::size_t) {
        (pool.onWorkerThread() ? on_pool : off_pool)
            .fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(on_pool.load() + off_pool.load(), 1000);
}

TEST(TaskPool, SerialCapAndPooledProduceIdenticalResults)
{
    // A cap of 1 runs in order on the caller (the serial path that
    // compile_workers = 1 and Emulator::setWorkers(1) take); resize
    // the shared pool so the capped-at-4 run fans out even on a
    // 1-core host.
    auto &pool = TaskPool::global();
    const std::size_t restore = pool.parallelism();
    pool.resize(4);
    const std::size_t n = 4096;
    std::vector<uint64_t> serial(n), pooled(n);
    auto body = [](std::size_t i) {
        uint64_t x = i * 0x9e3779b97f4a7c15ull;
        x ^= x >> 29;
        return x * 0xbf58476d1ce4e5b9ull;
    };
    const auto caller = std::this_thread::get_id();
    std::size_t in_order = 0;
    pool.forEach(n, 1, [&](std::size_t i) {
        serial[i] = body(i);
        const bool here = std::this_thread::get_id() == caller;
        in_order += here && i == in_order;
    });
    pool.forEach(n, 4, [&](std::size_t i) { pooled[i] = body(i); });
    pool.resize(restore);
    EXPECT_EQ(in_order, n);
    EXPECT_EQ(serial, pooled);
}

TEST(TaskPool, CappedExceptionSelectionMatchesSerial)
{
    auto &pool = TaskPool::global();
    const std::size_t restore = pool.parallelism();
    pool.resize(4);
    std::string serial_what, pooled_what;
    for (std::size_t workers : {1u, 4u}) {
        try {
            pool.forEach(3000, workers, [](std::size_t i) {
                if (i == 901 || i == 2902)
                    throw std::runtime_error("idx " +
                                             std::to_string(i));
            });
            FAIL() << "must throw";
        } catch (const std::runtime_error &e) {
            (workers == 1 ? serial_what : pooled_what) = e.what();
        }
    }
    pool.resize(restore);
    EXPECT_EQ(serial_what, "idx 901");
    EXPECT_EQ(pooled_what, serial_what);
}

namespace {

/**
 * The affinity mask of every pool worker, read through
 * pthread_getaffinity_np inside one job of parallelism() chunks in
 * which each chunk waits for all the others: no thread can hold two
 * chunks, so every worker runs exactly one.
 */
std::vector<cpu_set_t>
workerMasks(TaskPool &pool)
{
    const std::size_t par = pool.parallelism();
    const auto submitter = std::this_thread::get_id();
    std::vector<cpu_set_t> masks(par);
    std::vector<char> is_worker(par, 0);
    std::atomic<std::size_t> arrived{0};
    pool.forEach(par, [&](std::size_t i) {
        CPU_ZERO(&masks[i]);
        pthread_getaffinity_np(pthread_self(), sizeof(cpu_set_t),
                               &masks[i]);
        is_worker[i] = std::this_thread::get_id() != submitter;
        arrived.fetch_add(1);
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (arrived.load() < par &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::yield();
    });
    std::vector<cpu_set_t> out;
    for (std::size_t i = 0; i < par; ++i) {
        if (is_worker[i])
            out.push_back(masks[i]);
    }
    return out;
}

double
boundGauge()
{
    return MetricsRegistry::global().gauge("pool.workers_bound").value();
}

} // namespace

TEST(TaskPool, WorkersBindToDistinctCpusWhenTheMaskHasRoom)
{
    cpu_set_t process;
    CPU_ZERO(&process);
    ASSERT_EQ(sched_getaffinity(0, sizeof(process), &process), 0);
    const int cpus = CPU_COUNT(&process);
    if (cpus < 2)
        GTEST_SKIP() << "the process mask has " << cpus << " CPU";
    int first = 0;
    while (!CPU_ISSET(first, &process))
        ++first;

    // Room: one worker per CPU besides the spawner's. The spawner is
    // pinned to `first`, so that is the CPU no worker may take.
    std::vector<cpu_set_t> masks;
    std::size_t workers = 0;
    double bound = -1.0;
    std::thread spawner([&] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(first, &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
        TaskPool pool(static_cast<std::size_t>(cpus));
        workers = pool.parallelism() - 1;
        bound = boundGauge();
        masks = workerMasks(pool);
    });
    spawner.join();
    ASSERT_EQ(masks.size(), workers);
    EXPECT_EQ(bound, static_cast<double>(workers));
    std::set<int> taken;
    for (const cpu_set_t &m : masks) {
        ASSERT_EQ(CPU_COUNT(&m), 1) << "a worker is bound to one CPU";
        int cpu = 0;
        while (!CPU_ISSET(cpu, &m))
            ++cpu;
        EXPECT_NE(cpu, first) << "the spawner's CPU stays free";
        EXPECT_TRUE(CPU_ISSET(cpu, &process));
        taken.insert(cpu);
    }
    EXPECT_EQ(taken.size(), workers) << "workers share no CPU";

    // No room: one worker more than the CPUs besides the spawner's,
    // so none is bound and each keeps the mask it inherited.
    TaskPool crowded(static_cast<std::size_t>(cpus) + 1);
    EXPECT_EQ(boundGauge(), 0.0);
    const auto crowded_masks = workerMasks(crowded);
    ASSERT_EQ(crowded_masks.size(), static_cast<std::size_t>(cpus));
    for (const cpu_set_t &m : crowded_masks)
        EXPECT_TRUE(CPU_EQUAL(&m, &process));

    // resize() applies the rule again.
    crowded.resize(2);
    EXPECT_EQ(boundGauge(), 1.0);
}
