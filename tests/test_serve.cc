/**
 * @file
 * Tests for the multi-tenant serving runtime (src/serve): admission
 * control under saturation, chip-group exclusivity, FIFO leasing,
 * deterministic (bit-identical) outputs under concurrency, cache hit
 * accounting, and deadline shedding. This target is also built and
 * run under ThreadSanitizer in CI — every test here doubles as a race
 * detector workload.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "common/metrics.h"
#include "compiler/strategy.h"
#include "exec/backend.h"
#include "fhe/encoder.h"
#include "net/frame.h"
#include "net/message.h"
#include "net/socket.h"
#include "serve/batcher.h"
#include "serve/plan_cache.h"
#include "serve/remote/frontend.h"
#include "serve/remote/worker.h"
#include "serve/server.h"
#include "serve/tuner.h"
#include "workloads/benchmarks.h"

using namespace cinnamon;
using namespace cinnamon::serve;

namespace {

/** One shared context: a 16-level chain fits the mini bootstrap. */
const fhe::CkksContext &
serveContext()
{
    static fhe::CkksContext ctx(
        fhe::CkksParams::makeTest(1 << 8, 16, 4));
    return ctx;
}

ServeOptions
smallOptions()
{
    ServeOptions opt;
    opt.chips = 8;
    opt.group_size = 4;
    opt.workers = 2;
    opt.queue_capacity = 64;
    return opt;
}

/** The demo's mixed tenant trace. */
Workload
traceWorkload(std::size_t i)
{
    switch (i % 5) {
    case 0: return Workload::Bootstrap;
    case 1: return Workload::ResNet;
    case 2: return Workload::Helr;
    case 3: return Workload::Bert;
    default: return Workload::Keyswitch;
    }
}

/** Simulated seconds one request of `workload` takes here. */
double
measureSeconds(Workload workload)
{
    ServeOptions opt;
    opt.chips = 4;
    opt.group_size = 4;
    opt.workers = 1;
    opt.emulate = false;
    opt.time_dilation = 0.0;
    Server server(serveContext(), opt);
    server.start();
    EXPECT_TRUE(server.submit(workload, 1));
    server.drainAndStop();
    return server.stats().sim_seconds_total;
}

std::map<uint64_t, uint64_t>
completedHashes(const Server &server)
{
    std::map<uint64_t, uint64_t> hashes;
    for (const auto &r : server.responses())
        if (r.status == RequestStatus::Completed)
            hashes[r.id] = r.output_hash;
    return hashes;
}

/**
 * Pop the oldest request as a batch of one, the way a consumer at
 * width 1 does; empty once the queue is closed and drained. Blocks
 * while the queue is open and empty.
 */
std::vector<Request>
popOne(RequestQueue &q)
{
    return q.popBatch(1, 0.0, &BatchFormer::compatible);
}

} // namespace

TEST(Percentile, InterpolatesAndClamps)
{
    std::vector<double> v{4, 1, 3, 2};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
}

TEST(Queue, SaturationRejectsWithBackpressure)
{
    RequestQueue q(4);
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < 10; ++i)
        admitted += q.submit(Request{}) ? 1 : 0;
    EXPECT_EQ(admitted, 4u);
    EXPECT_EQ(q.rejected(), 6u);
    EXPECT_EQ(q.size(), 4u);

    // Draining one slot re-opens admission — no deadlock, no loss.
    ASSERT_EQ(popOne(q).size(), 1u);
    EXPECT_TRUE(q.submit(Request{}));
}

TEST(Queue, CloseDrainsPendingThenStops)
{
    RequestQueue q(8);
    ASSERT_TRUE(q.submit(Request{}));
    ASSERT_TRUE(q.submit(Request{}));
    q.close();
    EXPECT_FALSE(q.submit(Request{})); // closed: admission rejects
    EXPECT_EQ(popOne(q).size(), 1u);
    EXPECT_EQ(popOne(q).size(), 1u);
    // Closed + drained.
    EXPECT_TRUE(popOne(q).empty());
}

TEST(Scheduler, GroupsNeverOversubscribeChips)
{
    ChipGroupScheduler sched(8, 4);
    ASSERT_EQ(sched.numGroups(), 2u);

    std::atomic<int> concurrent{0}, max_concurrent{0};
    std::mutex held_mutex;
    std::set<std::size_t> held_groups;

    auto hammer = [&] {
        for (int i = 0; i < 25; ++i) {
            GroupLease lease = sched.acquire();
            const int now = concurrent.fetch_add(1) + 1;
            int seen = max_concurrent.load();
            while (now > seen &&
                   !max_concurrent.compare_exchange_weak(seen, now)) {
            }
            {
                // The same group must never be leased twice at once
                // (a chip can't serve two requests).
                std::lock_guard<std::mutex> lock(held_mutex);
                ASSERT_TRUE(held_groups.insert(lease.group()).second);
            }
            std::this_thread::yield();
            {
                std::lock_guard<std::mutex> lock(held_mutex);
                held_groups.erase(lease.group());
            }
            concurrent.fetch_sub(1);
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t)
        threads.emplace_back(hammer);
    for (auto &t : threads)
        t.join();

    EXPECT_LE(max_concurrent.load(), 2);
    EXPECT_EQ(sched.busyGroups(), 0u);
    // Both groups did real work.
    for (double busy : sched.busySeconds())
        EXPECT_GT(busy, 0.0);
}

TEST(Scheduler, SerialLeasesRotateThroughEveryGroup)
{
    // The free list is FIFO: a fresh scheduler hands out group 0
    // first, and a lessee that takes turns one lease at a time still
    // visits every group instead of reusing the last one released.
    ChipGroupScheduler sched(12, 4);
    std::vector<std::size_t> order;
    for (int i = 0; i < 6; ++i) {
        GroupLease lease = sched.acquire();
        order.push_back(lease.group());
    }
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 0, 1, 2}));
    {
        BatchLease batch = sched.acquireUpTo(2);
        EXPECT_EQ(batch.groups(), (std::vector<std::size_t>{0, 1}));
    }
    EXPECT_EQ(sched.acquire().group(), 2u);
}

TEST(Scheduler, ChipRangesPartitionTheMachine)
{
    ChipGroupScheduler sched(12, 4);
    ASSERT_EQ(sched.numGroups(), 3u);
    std::set<std::size_t> chips;
    for (std::size_t g = 0; g < sched.numGroups(); ++g) {
        auto [lo, hi] = sched.chipsOf(g);
        for (std::size_t c = lo; c < hi; ++c)
            EXPECT_TRUE(chips.insert(c).second) << "chip " << c;
    }
    EXPECT_EQ(chips.size(), 12u);
}

TEST(Runner, ConcurrentKernelResultsAreConsistent)
{
    // The sharded cache satellite: many threads asking for the same
    // configuration must agree and compile/simulate it exactly once.
    workloads::BenchmarkRunner runner(serveContext());
    auto kernel = workloads::keyswitchKernel(serveContext(), 8);
    sim::HardwareConfig hw;
    hw.n = serveContext().n();

    std::vector<double> cycles(4, 0.0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < cycles.size(); ++t)
        threads.emplace_back([&, t] {
            cycles[t] = runner.kernelResult(kernel, 4, hw, {}).cycles;
        });
    for (auto &t : threads)
        t.join();
    for (std::size_t t = 1; t < cycles.size(); ++t)
        EXPECT_DOUBLE_EQ(cycles[0], cycles[t]);

    auto stats = runner.cacheStats();
    EXPECT_EQ(stats.misses, 2u); // one compile + one simulate
    EXPECT_EQ(stats.hits, cycles.size() - 1);
}

TEST(Server, ConcurrentOutputsBitIdenticalToSerial)
{
    const std::size_t kRequests = 8;
    std::map<uint64_t, uint64_t> serial, concurrent;

    for (std::size_t workers : {1u, 3u}) {
        ServeOptions opt = smallOptions();
        opt.workers = workers;
        Server server(serveContext(), opt);
        server.start();
        for (std::size_t i = 0; i < kRequests; ++i)
            ASSERT_TRUE(server.submit(traceWorkload(i), 7000 + i));
        server.drainAndStop();

        auto stats = server.stats();
        EXPECT_EQ(stats.completed, kRequests);
        EXPECT_EQ(stats.failed, 0u);
        (workers == 1 ? serial : concurrent) =
            completedHashes(server);
    }

    ASSERT_EQ(serial.size(), kRequests);
    EXPECT_EQ(serial, concurrent);
    // Hashes are seeded per request: distinct tenants, distinct data.
    std::set<uint64_t> distinct;
    for (const auto &[id, h] : serial)
        distinct.insert(h);
    EXPECT_GT(distinct.size(), 1u);
}

TEST(Server, CacheHitsAreCounted)
{
    ServeOptions opt = smallOptions();
    Server server(serveContext(), opt);
    server.start();
    // Four requests of the same workload: the first compiles and
    // simulates its kernels, the remaining three must hit.
    for (std::size_t i = 0; i < 4; ++i)
        ASSERT_TRUE(server.submit(Workload::Helr, 42 + i));
    server.drainAndStop();

    auto stats = server.stats();
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_GT(stats.cache.hits, 0u);
    EXPECT_GT(stats.cache.hitRate(), 0.4);
    EXPECT_GT(stats.cache.misses, 0u); // the cold compiles
}

TEST(Server, DeadlineExpiresInQueue)
{
    ServeOptions opt = smallOptions();
    opt.workers = 1;
    opt.emulate = false;
    Server server(serveContext(), opt);

    // Admit before starting the pool, then let the deadline lapse:
    // the worker must shed the stale requests instead of serving.
    using std::chrono::milliseconds;
    ASSERT_TRUE(
        server.submit(Workload::Keyswitch, 1, milliseconds(5)));
    ASSERT_TRUE(
        server.submit(Workload::Keyswitch, 2, milliseconds(5)));
    ASSERT_TRUE(server.submit(Workload::Keyswitch, 3)); // no deadline
    std::this_thread::sleep_for(milliseconds(30));
    server.start();
    server.drainAndStop();

    auto stats = server.stats();
    EXPECT_EQ(stats.expired, 2u);
    EXPECT_EQ(stats.completed, 1u);
}

TEST(Server, DeadlineExpiresWhileWaitingForGroup)
{
    // A request that passes the queue-side deadline check but spends
    // its budget waiting for a chip group must be shed after the lease
    // is acquired, not run. One group, two workers: the first request
    // dwells on the only group while the second waits in acquire.
    const double ks_seconds = measureSeconds(Workload::Keyswitch);
    ASSERT_GT(ks_seconds, 0.0);

    ServeOptions opt;
    opt.chips = 4;
    opt.group_size = 4; // a single group serializes the machine
    opt.workers = 2;
    opt.emulate = false;
    opt.time_dilation = 0.4 / ks_seconds; // ~400 ms device dwell

    using std::chrono::milliseconds;
    Server server(serveContext(), opt);
    server.start();
    ASSERT_TRUE(server.submit(Workload::Keyswitch, 1)); // no deadline
    std::this_thread::sleep_for(milliseconds(80));
    // Popped immediately by the idle second worker (so it cannot
    // expire in the queue), then blocked in acquire past its budget.
    ASSERT_TRUE(
        server.submit(Workload::Keyswitch, 2, milliseconds(100)));
    server.drainAndStop();

    auto stats = server.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.expired, 1u);
    for (const auto &r : server.responses())
        if (r.status == RequestStatus::Expired) {
            // The budget was burned in service (waiting), not queued.
            EXPECT_GT(r.service_ms, r.queue_ms);
            EXPECT_GT(r.total_ms, 100.0);
        }
}

TEST(Server, HandedBackMemberCountsItsWholeWait)
{
    // A batch member whose lease got fewer groups than members goes
    // back to the queue without a new attempt, keeping its admission
    // stamp: its row's total_ms must cover the wall time from its
    // submit to the row. Two groups, three workers: a ResNet and a
    // shorter HELR dwell hold both groups while a keyswitch pair
    // waits in acquireUpTo(2). The HELR group frees first, the pair's
    // lease gets only it, and the second member is handed back.
    const double resnet_s = measureSeconds(Workload::ResNet);
    const double helr_s = measureSeconds(Workload::Helr);
    ASSERT_GT(resnet_s, 1.5 * helr_s);

    ServeOptions opt = smallOptions();
    opt.workers = 3;
    opt.emulate = false;
    opt.batch_max_streams = 2;
    opt.batch_linger_ms = 10.0;
    opt.time_dilation = 0.6 / resnet_s; // ~600 ms and ~300 ms dwells
    Server server(serveContext(), opt);
    server.start();

    auto &occupancy =
        MetricsRegistry::global().histogram("serve.batch_occupancy");
    const auto formed_before = occupancy.snapshot();
    using std::chrono::milliseconds;
    ASSERT_TRUE(server.submit(Workload::ResNet, 1)); // id 1, group 0
    std::this_thread::sleep_for(milliseconds(40));
    ASSERT_TRUE(server.submit(Workload::Helr, 2)); // id 2, group 1
    std::this_thread::sleep_for(milliseconds(40));
    ASSERT_TRUE(server.submit(Workload::Keyswitch, 3)); // id 3
    const auto submitted = Clock::now();
    ASSERT_TRUE(server.submit(Workload::Keyswitch, 4)); // id 4

    // Poll for the handed-back member's row.
    std::optional<Response> row;
    Clock::time_point seen;
    while (!row && msSince(submitted) < 10000.0) {
        for (const auto &r : server.responses())
            if (r.id == 4 && r.status == RequestStatus::Completed)
                row = r;
        seen = Clock::now();
        if (!row)
            std::this_thread::sleep_for(milliseconds(1));
    }
    server.drainAndStop();
    ASSERT_TRUE(row.has_value()) << "request 4 never completed";

    // The pair formed one batch of two (4 batches, 5 members), yet
    // no row ran two wide: one member was handed back.
    const auto formed_after = occupancy.snapshot();
    ASSERT_EQ(formed_after.count - formed_before.count, 4u);
    ASSERT_DOUBLE_EQ(formed_after.sum - formed_before.sum, 5.0);
    for (const auto &r : server.responses())
        EXPECT_EQ(r.batch_streams, 1u) << "request " << r.id;

    const double wall_ms =
        std::chrono::duration<double, std::milli>(seen - submitted)
            .count();
    EXPECT_GT(wall_ms, 150.0) << "the pair waited for the HELR dwell";
    EXPECT_DOUBLE_EQ(row->total_ms, row->queue_ms + row->service_ms);
    EXPECT_GE(row->total_ms, wall_ms - 25.0)
        << "the row must count the wait before the hand-back";
}

TEST(Server, StatsConcurrentWithShutdown)
{
    // stats() reads the lifecycle fields (started_, wall clock) that
    // drainAndStop() writes; under TSan this test is the race
    // detector for that pair.
    ServeOptions opt = smallOptions();
    opt.emulate = false;
    Server server(serveContext(), opt);
    server.start();
    for (std::size_t i = 0; i < 6; ++i)
        ASSERT_TRUE(server.submit(traceWorkload(i), 3000 + i));

    std::atomic<bool> done{false};
    std::thread poller([&] {
        while (!done.load()) {
            auto s = server.stats();
            EXPECT_GE(s.wall_seconds, 0.0);
            std::this_thread::yield();
        }
    });
    server.drainAndStop();
    done.store(true);
    poller.join();

    auto stats = server.stats();
    EXPECT_EQ(stats.completed, 6u);
    EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(Server, BertWorkloadServesDeterministically)
{
    ServeOptions opt = smallOptions();
    Server server(serveContext(), opt);
    server.start();
    for (std::size_t i = 0; i < 3; ++i)
        ASSERT_TRUE(server.submit(Workload::Bert, 5000 + i));
    server.drainAndStop();

    auto stats = server.stats();
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GT(stats.sim_seconds_total, 0.0);
    EXPECT_STREQ(workloadName(Workload::Bert), "bert");

    // Distinct seeds, distinct outputs; same catalog, so a rerun with
    // the same seed must reproduce the hash bit for bit.
    auto first = completedHashes(server);
    ASSERT_EQ(first.size(), 3u);

    Server rerun(serveContext(), opt);
    rerun.start();
    for (std::size_t i = 0; i < 3; ++i)
        ASSERT_TRUE(rerun.submit(Workload::Bert, 5000 + i));
    rerun.drainAndStop();
    EXPECT_EQ(completedHashes(rerun), first);
}

TEST(Server, TraceSpansSumToRequestTotal)
{
    // The per-request spans (queue → acquire → simulate → probe →
    // dwell) are leaves: per request they must tile the measured
    // total_ms to within a millisecond.
    ServeOptions opt = smallOptions();
    opt.workers = 1; // serial: no scheduling noise between spans
    opt.trace = true;
    Server server(serveContext(), opt);
    server.start();
    for (std::size_t i = 0; i < 3; ++i)
        ASSERT_TRUE(server.submit(traceWorkload(i), 8000 + i));
    server.drainAndStop();

    std::map<uint64_t, double> span_ms;
    for (const auto &e : server.trace().events()) {
        for (const auto &[key, value] : e.num_args)
            if (key == "rid")
                span_ms[static_cast<uint64_t>(value)] +=
                    e.dur_us / 1e3;
    }
    std::size_t checked = 0;
    for (const auto &r : server.responses()) {
        if (r.status != RequestStatus::Completed)
            continue;
        auto it = span_ms.find(r.id);
        ASSERT_NE(it, span_ms.end()) << "request " << r.id;
        EXPECT_NEAR(it->second, r.total_ms, 1.0)
            << "request " << r.id;
        ++checked;
    }
    EXPECT_EQ(checked, 3u);
}

TEST(Server, BackpressureUnderSaturation)
{
    ServeOptions opt = smallOptions();
    opt.workers = 1;
    opt.queue_capacity = 2;
    opt.emulate = false;
    // Slow each request down so the queue genuinely saturates.
    opt.time_dilation = 1000.0;

    Server server(serveContext(), opt);
    server.start();
    std::size_t admitted = 0, shed = 0;
    for (std::size_t i = 0; i < 12; ++i) {
        if (server.submit(Workload::Keyswitch, 100 + i))
            ++admitted;
        else
            ++shed;
    }
    server.drainAndStop();

    auto stats = server.stats();
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(stats.submitted, 12u);
    EXPECT_EQ(stats.rejected, shed);
    EXPECT_EQ(stats.completed, admitted);
    // Nothing lost, nothing duplicated.
    EXPECT_EQ(stats.completed + stats.rejected + stats.expired +
                  stats.failed,
              stats.submitted);
}

TEST(Server, StatsReportMentionsEveryGroup)
{
    ServeOptions opt = smallOptions();
    Server server(serveContext(), opt);
    server.start();
    for (std::size_t i = 0; i < 6; ++i)
        ASSERT_TRUE(server.submit(traceWorkload(i), 9000 + i));
    server.drainAndStop();

    auto stats = server.stats();
    ASSERT_EQ(stats.group_utilization.size(), 2u);
    auto report = stats.report();
    EXPECT_NE(report.find("throughput"), std::string::npos);
    EXPECT_NE(report.find("p50"), std::string::npos);
    EXPECT_NE(report.find("hit rate"), std::string::npos);
    EXPECT_NE(report.find("g0"), std::string::npos);
    EXPECT_NE(report.find("g1"), std::string::npos);
}

TEST(Queue, RequeuePreservesTheDeadlineAnchor)
{
    // The deadline budget is measured from first admission (`born`).
    // A requeued attempt must inherit that anchor unchanged: a fault
    // must never extend a request's deadline. Regression test for the
    // queue restamping `born` on requeue.
    RequestQueue queue(4);
    Request r;
    r.id = 1;
    r.seed = 7;
    r.deadline = std::chrono::milliseconds(500);
    ASSERT_TRUE(queue.submit(r));

    auto popped = popOne(queue);
    ASSERT_EQ(popped.size(), 1u);
    const auto born = popped[0].born;
    ASSERT_NE(born, Clock::time_point{}) << "submit must stamp born";
    const auto first_admitted = popped[0].admitted;

    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Request retry = popped[0];
    ++retry.attempt;
    queue.requeue(std::move(retry));

    auto again = popOne(queue);
    ASSERT_EQ(again.size(), 1u);
    // `born` is the cross-attempt anchor: bit-identical after requeue.
    EXPECT_EQ(again[0].born, born);
    // `admitted` is the caller's to stamp (settlement restamps it for
    // a retry, keeps it for a hand-back): requeue keeps it.
    EXPECT_EQ(again[0].admitted, first_admitted);
    // The budget already spent was not refunded.
    const double consumed_ms =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  again[0].born)
            .count();
    EXPECT_GE(consumed_ms, 20.0);
}

TEST(Queue, ClosedQueueStillDrainsARequeue)
{
    RequestQueue queue(4);
    Request r;
    r.id = 1;
    ASSERT_TRUE(queue.submit(r));
    auto popped = popOne(queue);
    ASSERT_EQ(popped.size(), 1u);

    // Closed + empty still accepts a requeue and drains it: close()
    // only stops *new* work; in-flight retries must not be stranded.
    queue.close();
    Request retry = popped[0];
    ++retry.attempt;
    EXPECT_TRUE(queue.requeue(std::move(retry)));
    auto drained = popOne(queue);
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].attempt, 1u);
    EXPECT_TRUE(popOne(queue).empty());
}

TEST(Queue, SealRefusesRequeueSoCallersFinalizeAsFailed)
{
    // Regression: requeue() used to ignore shutdown entirely, so a
    // retry requeued after the consumers were gone sat in the queue
    // forever — the request simply vanished from the accounting.
    // seal() is the point of no return: requeue() must *fail* so the
    // caller finalizes the request as Failed and conservation holds.
    RequestQueue queue(4);
    Request r;
    r.id = 1;
    ASSERT_TRUE(queue.submit(r));
    auto popped = popOne(queue);
    ASSERT_EQ(popped.size(), 1u);

    queue.seal();
    EXPECT_TRUE(queue.closed());
    EXPECT_TRUE(queue.sealed());
    Request retry = popped[0];
    ++retry.attempt;
    const std::size_t closed_before = queue.rejectedClosed();
    EXPECT_FALSE(queue.requeue(std::move(retry)))
        << "a sealed queue must refuse requeues";
    EXPECT_EQ(queue.rejectedClosed(), closed_before + 1);
    EXPECT_EQ(queue.size(), 0u) << "the refused request must not land";
    EXPECT_FALSE(queue.submit(Request{})) << "seal implies close";
}

TEST(Queue, RejectionCountersSplitFullFromClosed)
{
    RequestQueue q(2);
    ASSERT_TRUE(q.submit(Request{}));
    ASSERT_TRUE(q.submit(Request{}));
    EXPECT_FALSE(q.submit(Request{})); // full
    EXPECT_FALSE(q.submit(Request{})); // full
    q.close();
    EXPECT_FALSE(q.submit(Request{})); // closed
    EXPECT_EQ(q.rejectedFull(), 2u);
    EXPECT_EQ(q.rejectedClosed(), 1u);
    EXPECT_EQ(q.rejected(), 3u) << "the sum is the legacy counter";
}

TEST(Queue, PopBatchCoalescesCompatibleAndKeepsFifoForTheRest)
{
    const auto same_workload = [](const Request &a, const Request &b) {
        return a.workload == b.workload;
    };
    RequestQueue q(8);
    auto make = [](uint64_t id, Workload w) {
        Request r;
        r.id = id;
        r.workload = w;
        return r;
    };
    ASSERT_TRUE(q.submit(make(1, Workload::Keyswitch)));
    ASSERT_TRUE(q.submit(make(2, Workload::Bootstrap)));
    ASSERT_TRUE(q.submit(make(3, Workload::Keyswitch)));
    ASSERT_TRUE(q.submit(make(4, Workload::Keyswitch)));

    // The head anchors the batch; compatible followers are swept out
    // of the middle of the queue, incompatible ones keep their slot.
    auto batch = q.popBatch(3, 0.0, same_workload);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].id, 1u);
    EXPECT_EQ(batch[1].id, 3u);
    EXPECT_EQ(batch[2].id, 4u);

    auto rest = q.popBatch(3, 0.0, same_workload);
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].id, 2u) << "incompatible head kept FIFO order";

    // `max` is a hard cap even when more compatible work is queued.
    ASSERT_TRUE(q.submit(make(5, Workload::Helr)));
    ASSERT_TRUE(q.submit(make(6, Workload::Helr)));
    ASSERT_TRUE(q.submit(make(7, Workload::Helr)));
    auto capped = q.popBatch(2, 0.0, same_workload);
    EXPECT_EQ(capped.size(), 2u);
    EXPECT_EQ(q.size(), 1u);
    (void)q.popBatch(2, 0.0, same_workload);
}

TEST(Queue, PopBatchLingersForLateCompatibleArrivals)
{
    const auto same_workload = [](const Request &a, const Request &b) {
        return a.workload == b.workload;
    };
    RequestQueue q(8);
    Request head;
    head.id = 1;
    head.workload = Workload::Bert;
    ASSERT_TRUE(q.submit(head));

    std::thread late([&q] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        Request r;
        r.id = 2;
        r.workload = Workload::Bert;
        ASSERT_TRUE(q.submit(r));
    });
    double lingered_ms = -1.0;
    auto batch = q.popBatch(2, 500.0, same_workload, &lingered_ms);
    late.join();
    ASSERT_EQ(batch.size(), 2u)
        << "the linger window must pick up the late arrival";
    EXPECT_EQ(batch[1].id, 2u);
    EXPECT_GT(lingered_ms, 0.0);
    EXPECT_LT(lingered_ms, 500.0)
        << "a filled batch must cut the linger short";

    // close() cuts the linger short too: drain must not stall.
    Request tail;
    tail.id = 3;
    ASSERT_TRUE(q.submit(tail));
    std::thread closer([&q] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        q.close();
    });
    const auto t0 = Clock::now();
    auto last = q.popBatch(4, 10000.0, same_workload);
    closer.join();
    EXPECT_EQ(last.size(), 1u);
    const double waited_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    EXPECT_LT(waited_ms, 5000.0);
}

TEST(Queue, IncompatibleArrivalDuringLingerReachesAnIdleConsumer)
{
    // Consumer A holds a Bert request and lingers 2 s for a second
    // one; consumer B waits idle. A Helr arrival is of no use to A,
    // so it must wake B, not A, and leave the queue at once.
    const auto same_workload = [](const Request &a, const Request &b) {
        return a.workload == b.workload;
    };
    RequestQueue q(8);
    Request head;
    head.id = 1;
    head.workload = Workload::Bert;
    ASSERT_TRUE(q.submit(head));

    std::vector<Request> a_batch;
    std::thread a([&] { a_batch = q.popBatch(2, 2000.0, same_workload); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::vector<Request> b_batch;
    double b_ms = -1.0;
    std::atomic<bool> b_done{false};
    std::thread b([&] {
        b_batch = q.popBatch(1, 0.0, same_workload);
        b_ms = msSince(b_batch.empty() ? Clock::now()
                                       : b_batch.front().admitted);
        b_done = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    Request other;
    other.id = 2;
    other.workload = Workload::Helr;
    ASSERT_TRUE(q.submit(other));
    // A consumer that missed its wake-up waits for the close below.
    for (int i = 0; i < 100 && !b_done; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close(); // also cuts A's linger short
    b.join();
    a.join();

    ASSERT_EQ(b_batch.size(), 1u);
    EXPECT_EQ(b_batch[0].id, 2u);
    EXPECT_LT(b_ms, 250.0)
        << "the idle consumer must take the arrival while A lingers";
    ASSERT_EQ(a_batch.size(), 1u);
    EXPECT_EQ(a_batch[0].id, 1u);
}

TEST(Scheduler, GroupLeaseSelfMoveAssignmentKeepsTheLease)
{
    // Regression: operator=(GroupLease&&) without a self-move guard
    // released the held group and then read the just-nulled fields —
    // the lease was silently dropped and the group double-freed.
    ChipGroupScheduler sched(8, 4);
    GroupLease lease = sched.acquire();
    const std::size_t group = lease.group();
    ASSERT_TRUE(lease.held());
    ASSERT_EQ(sched.busyGroups(), 1u);

    GroupLease &alias = lease;
    lease = std::move(alias); // self-move
    EXPECT_TRUE(lease.held()) << "self-move must not drop the lease";
    EXPECT_EQ(lease.group(), group);
    EXPECT_EQ(sched.busyGroups(), 1u)
        << "self-move must not release the group";

    lease.release();
    EXPECT_EQ(sched.busyGroups(), 0u);
}

TEST(Scheduler, BatchLeaseGrabsFreeGroupsAndShrinksSurplus)
{
    ChipGroupScheduler sched(16, 4); // 4 groups
    BatchLease batch = sched.acquireUpTo(3);
    EXPECT_EQ(batch.size(), 3u);
    EXPECT_EQ(sched.busyGroups(), 3u);
    {
        // Distinct groups, each actually leased.
        std::set<std::size_t> groups(batch.groups().begin(),
                                     batch.groups().end());
        EXPECT_EQ(groups.size(), 3u);
    }

    // Only one group left: a second batch lease gets exactly it.
    BatchLease rest = sched.acquireUpTo(3);
    EXPECT_EQ(rest.size(), 1u);
    EXPECT_EQ(sched.busyGroups(), 4u);
    rest.release();

    // Shrinking returns the surplus to the free list immediately.
    batch.shrinkTo(1);
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_EQ(sched.busyGroups(), 1u);

    // Self-move safety, same contract as GroupLease.
    BatchLease &alias = batch;
    batch = std::move(alias);
    EXPECT_TRUE(batch.held());
    EXPECT_EQ(sched.busyGroups(), 1u);

    batch.release();
    EXPECT_EQ(sched.busyGroups(), 0u);

    // All-quarantined: acquireUpTo must throw, not deadlock.
    for (std::size_t chip = 0; chip < 16; chip += 4)
        sched.markChipFailed(chip);
    EXPECT_THROW((void)sched.acquireUpTo(2), NoHealthyGroupsError);
}

TEST(Server, BatchedServingBitIdenticalToUnbatched)
{
    // The tentpole end-to-end: the same trace served unbatched and
    // with continuous batching must produce identical per-request
    // digests, and the batched run must actually form multi-stream
    // batches (occupancy > 1) with steady-state plan-cache hits.
    const std::size_t kRequests = 10;

    ServeOptions solo = smallOptions();
    solo.workers = 1;
    Server unbatched(serveContext(), solo);
    unbatched.start();
    for (std::size_t i = 0; i < kRequests; ++i)
        ASSERT_TRUE(unbatched.submit(Workload::Keyswitch, 9100 + i));
    unbatched.drainAndStop();
    const auto expected = completedHashes(unbatched);
    ASSERT_EQ(expected.size(), kRequests);

    ServeOptions opt = smallOptions();
    opt.workers = 1; // one batch former: deterministic batch shapes
    opt.batch_max_streams = 2;
    opt.batch_linger_ms = 50.0;
    Server server(serveContext(), opt);
    server.start();
    for (std::size_t i = 0; i < kRequests; ++i)
        ASSERT_TRUE(server.submit(Workload::Keyswitch, 9100 + i));
    server.drainAndStop();

    EXPECT_EQ(completedHashes(server), expected)
        << "batched digests must be bit-identical to unbatched";

    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_GT(stats.batched_completed, 0u)
        << "the trace must have exercised real multi-stream batches";
    EXPECT_EQ(stats.batch_occupancy_max, 2u);
    EXPECT_GT(stats.plan_cache.lookups(), 0u);
    EXPECT_GT(stats.plan_cache.hits, 0u)
        << "steady state must hit the plan cache";
    const auto report = stats.report();
    EXPECT_NE(report.find("plan cache:"), std::string::npos);
    EXPECT_NE(report.find("batching:"), std::string::npos);
    EXPECT_NE(report.find("serve.batch_occupancy"), std::string::npos);
    EXPECT_NE(report.find("serve.plan_cache"), std::string::npos);
}

TEST(Server, BatchedServingHandlesMixedWorkloadsAndDeadlines)
{
    // Incompatible workloads must never share a batch, and deadline
    // shedding still works on the batched path.
    const std::size_t kRequests = 12;
    ServeOptions opt = smallOptions();
    opt.batch_max_streams = 2;
    opt.batch_linger_ms = 5.0;
    Server server(serveContext(), opt);

    ServeOptions solo = smallOptions();
    Server unbatched(serveContext(), solo);
    unbatched.start();
    for (std::size_t i = 0; i < kRequests; ++i)
        ASSERT_TRUE(unbatched.submit(traceWorkload(i), 9500 + i));
    unbatched.drainAndStop();
    const auto expected = completedHashes(unbatched);

    server.start();
    for (std::size_t i = 0; i < kRequests; ++i)
        ASSERT_TRUE(server.submit(traceWorkload(i), 9500 + i));
    // One request that is already dead on arrival: must be shed, not
    // batched into execution.
    ASSERT_TRUE(server.submit(Workload::Keyswitch, 42,
                              std::chrono::milliseconds(1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    server.drainAndStop();

    const auto responses = server.responses();
    std::map<uint64_t, uint64_t> got;
    std::size_t expired = 0;
    for (const auto &r : responses) {
        if (r.status == RequestStatus::Completed)
            got[r.id] = r.output_hash;
        if (r.status == RequestStatus::Expired)
            ++expired;
    }
    EXPECT_EQ(got, expected);
    EXPECT_GE(expired, 1u) << "the dead-on-arrival request was shed";
    // Conservation: every submitted request reached a final fate.
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed + stats.expired + stats.failed +
                  stats.rejected,
              stats.submitted);
}

TEST(PlanCache, HitAccountingUnderConcurrentLookups)
{
    // Many workers racing for the same plan must compile it exactly
    // once and agree on the cached instance (stable references).
    const auto &ctx = serveContext();
    WorkloadCatalog catalog(ctx);
    PlanCache plans(ctx);
    compiler::CompilerConfig cfg;
    cfg.chips = 4;
    cfg.num_streams = 1;

    constexpr std::size_t kThreads = 8;
    std::vector<const compiler::CompiledProgram *> seen(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            seen[t] = &plans.get(catalog.probe(), cfg);
        });
    for (auto &t : threads)
        t.join();

    for (std::size_t t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[t], seen[0])
            << "all threads must share one compiled instance";
    const auto stats = plans.stats();
    EXPECT_EQ(stats.misses, 1u) << "compiled exactly once";
    EXPECT_EQ(stats.hits, kThreads - 1);
    EXPECT_EQ(plans.size(), 1u);
}

TEST(Server, StatsCountPerGroupPlacementAndQuarantine)
{
    ServeOptions opt = smallOptions();
    Server server(serveContext(), opt);
    server.start();
    for (std::size_t i = 0; i < 8; ++i)
        ASSERT_TRUE(server.submit(traceWorkload(i), 4000 + i));
    server.drainAndStop();

    auto stats = server.stats();
    ASSERT_EQ(stats.group_completed.size(), 2u);
    ASSERT_EQ(stats.group_quarantined.size(), 2u);
    // Every completion is attributed to exactly one group.
    EXPECT_EQ(stats.group_completed[0] + stats.group_completed[1],
              stats.completed);
    EXPECT_EQ(stats.group_quarantined[0], 0);
    EXPECT_EQ(stats.group_quarantined[1], 0);
    auto report = stats.report();
    EXPECT_NE(report.find("req"), std::string::npos);
    EXPECT_EQ(report.find("[QUARANTINED]"), std::string::npos);
}

TEST(RemoteServing, LoopbackDistributedBitIdenticalToInProcess)
{
    // The full distributed loop inside one process: a RemoteFrontEnd
    // and two runWorker() instances on threads, talking real TCP over
    // loopback. Digests must match the in-process server exactly.
    const std::size_t kRequests = 6;

    ServeOptions base = smallOptions();
    Server local(serveContext(), base);
    local.start();
    for (std::size_t i = 0; i < kRequests; ++i)
        ASSERT_TRUE(local.submit(traceWorkload(i), 3000 + i));
    local.drainAndStop();
    const auto expected = completedHashes(local);
    ASSERT_EQ(expected.size(), kRequests);

    remote::FrontEndOptions fe_opt;
    fe_opt.workers = 2;
    fe_opt.group_size = 4;
    remote::RemoteFrontEnd frontend(fe_opt);
    ASSERT_TRUE(frontend.start());

    std::vector<std::thread> workers;
    for (uint64_t w = 0; w < 2; ++w)
        workers.emplace_back([&frontend, w] {
            remote::WorkerOptions opt;
            opt.port = frontend.port();
            opt.worker_id = w;
            opt.group_size = 4;
            remote::runWorker(serveContext(), opt);
        });
    ASSERT_TRUE(frontend.waitForWorkers(2));

    for (std::size_t i = 0; i < kRequests; ++i)
        ASSERT_TRUE(frontend.submit(traceWorkload(i), 3000 + i));
    frontend.drainAndStop();
    for (auto &t : workers)
        t.join();

    std::map<uint64_t, uint64_t> got;
    for (const auto &r : frontend.responses())
        if (r.status == RequestStatus::Completed)
            got[r.id] = r.output_hash;
    EXPECT_EQ(got, expected);

    const auto stats = frontend.stats();
    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_EQ(stats.completed + stats.rejected + stats.expired +
                  stats.failed,
              stats.submitted);
}

TEST(RemoteServing, BatchedLoopbackBitIdenticalToInProcessUnbatched)
{
    // Continuous batching across the wire: the front-end coalesces
    // compatible requests into one multi-stream Submit (wire v2), a
    // single worker executes the whole batch as one program, and every
    // member's digest still matches an unbatched in-process run.
    const std::size_t kRequests = 9;

    ServeOptions solo = smallOptions();
    solo.workers = 1;
    Server local(serveContext(), solo);
    local.start();
    for (std::size_t i = 0; i < kRequests; ++i)
        ASSERT_TRUE(local.submit(Workload::Keyswitch, 9300 + i));
    local.drainAndStop();
    const auto expected = completedHashes(local);
    ASSERT_EQ(expected.size(), kRequests);

    remote::FrontEndOptions fe_opt;
    fe_opt.workers = 2;
    fe_opt.group_size = 4;
    fe_opt.batch_max_streams = 3;
    fe_opt.batch_linger_ms = 50.0;
    remote::RemoteFrontEnd frontend(fe_opt);
    ASSERT_TRUE(frontend.start());

    std::vector<std::thread> workers;
    for (uint64_t w = 0; w < 2; ++w)
        workers.emplace_back([&frontend, w] {
            remote::WorkerOptions opt;
            opt.port = frontend.port();
            opt.worker_id = w;
            opt.group_size = 4;
            remote::runWorker(serveContext(), opt);
        });
    ASSERT_TRUE(frontend.waitForWorkers(2));

    for (std::size_t i = 0; i < kRequests; ++i)
        ASSERT_TRUE(frontend.submit(Workload::Keyswitch, 9300 + i));
    frontend.drainAndStop();
    for (auto &t : workers)
        t.join();

    std::map<uint64_t, uint64_t> got;
    for (const auto &r : frontend.responses())
        if (r.status == RequestStatus::Completed)
            got[r.id] = r.output_hash;
    EXPECT_EQ(got, expected)
        << "batched wire digests must match unbatched in-process";

    const auto stats = frontend.stats();
    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_GT(stats.batched_completed, 0u)
        << "the trace must have ridden real multi-stream Submits";
    EXPECT_GT(stats.batch_occupancy_max, 1u);
    EXPECT_LE(stats.batch_occupancy_max, 3u);
    EXPECT_EQ(stats.completed + stats.rejected + stats.expired +
                  stats.failed,
              stats.submitted);
}

TEST(RemoteServing, FaultedLoopbackSettlesLikeInProcess)
{
    // Both faces settle through one module: under the same
    // transient-only fault schedule, every request must reach the
    // same final status after the same number of Retried rows, with
    // the same digest, in-process and over loopback, at widths 1 and
    // 2 — and each face books the completion metrics once per
    // Completed row.
    constexpr std::size_t kRequests = 8;
    faults::FaultConfig faults;
    faults.seed = 3;
    faults.transient_p = 0.3;
    RetryPolicy retry;
    retry.backoff_base_ms = 0.1; // keep test retries fast
    retry.backoff_max_ms = 1.0;

    struct Fate
    {
        RequestStatus status = RequestStatus::Completed;
        std::size_t retried = 0;
        uint64_t digest = 0;
        bool operator==(const Fate &) const = default;
    };
    struct Booked
    {
        double completed;
        std::size_t compiles;
    };
    const auto booked = [] {
        auto &metrics = MetricsRegistry::global();
        return Booked{
            metrics.counter("serve.requests.completed").value(),
            metrics.histogram("serve.compile_ms").snapshot().count};
    };
    // Per-id fates, after checking the rows and the registry deltas.
    const auto settle = [](const std::vector<Response> &rows,
                           const Booked &before, const Booked &after,
                           const char *face) {
        std::map<uint64_t, Fate> fates;
        std::size_t completed = 0;
        for (const auto &r : rows) {
            Fate &f = fates[r.id];
            if (r.status == RequestStatus::Retried) {
                ++f.retried;
                EXPECT_DOUBLE_EQ(r.total_ms, r.queue_ms + r.service_ms)
                    << face << ": retried row of request " << r.id;
                continue;
            }
            f.status = r.status;
            f.digest = r.output_hash;
            completed += r.status == RequestStatus::Completed;
        }
        EXPECT_EQ(after.completed - before.completed,
                  static_cast<double>(completed))
            << face;
        EXPECT_EQ(after.compiles - before.compiles, completed) << face;
        return fates;
    };

    for (const std::size_t width : {1ul, 2ul}) {
        ServeOptions opt = smallOptions();
        opt.faults = faults;
        opt.retry = retry;
        opt.batch_max_streams = width;
        opt.batch_linger_ms = 5.0;
        Server local(serveContext(), opt);
        auto before = booked();
        local.start();
        for (std::size_t i = 0; i < kRequests; ++i)
            ASSERT_TRUE(local.submit(Workload::Keyswitch, 9700 + i));
        local.drainAndStop();
        const auto expected =
            settle(local.responses(), before, booked(), "in-process");

        remote::FrontEndOptions fe_opt;
        fe_opt.workers = 2;
        fe_opt.group_size = 4;
        fe_opt.retry = retry;
        fe_opt.batch_max_streams = width;
        fe_opt.batch_linger_ms = 5.0;
        remote::RemoteFrontEnd frontend(fe_opt);
        ASSERT_TRUE(frontend.start());
        std::vector<std::thread> workers;
        for (uint64_t w = 0; w < 2; ++w)
            workers.emplace_back([&frontend, &faults, w] {
                remote::WorkerOptions opt;
                opt.port = frontend.port();
                opt.worker_id = w;
                opt.group_size = 4;
                opt.faults = faults;
                remote::runWorker(serveContext(), opt);
            });
        ASSERT_TRUE(frontend.waitForWorkers(2));
        before = booked();
        for (std::size_t i = 0; i < kRequests; ++i)
            ASSERT_TRUE(frontend.submit(Workload::Keyswitch, 9700 + i));
        frontend.drainAndStop();
        for (auto &t : workers)
            t.join();
        const auto got = settle(frontend.responses(), before, booked(),
                                "loopback");

        ASSERT_EQ(expected.size(), kRequests);
        std::size_t retried = 0;
        for (const auto &[id, fate] : expected)
            retried += fate.retried;
        EXPECT_GT(retried, 0u) << "the schedule must exercise retries";
        EXPECT_TRUE(got == expected) << "width " << width;
    }
}

TEST(RemoteServing, VersionMismatchedWorkerIsRejectedWithReason)
{
    remote::FrontEndOptions fe_opt;
    fe_opt.workers = 1;
    fe_opt.group_size = 4;
    remote::RemoteFrontEnd frontend(fe_opt);
    ASSERT_TRUE(frontend.start());

    // Hand-roll a Hello from a "future" wire version.
    net::Socket sock = net::Socket::connectLoopback(frontend.port());
    ASSERT_TRUE(sock.valid());
    net::HelloMsg hello;
    hello.version = net::kWireVersion + 1;
    hello.chips = 4;
    hello.group_size = 4;
    const auto bytes =
        net::encodeFrame(net::MsgType::Hello, hello.encode(),
                         net::kWireVersion + 1);
    ASSERT_TRUE(sock.sendAll(bytes.data(), bytes.size()));

    net::FrameDecoder dec;
    net::Frame frame;
    uint8_t buf[4096];
    for (;;) {
        const auto status = dec.next(&frame);
        if (status == net::DecodeStatus::Ok)
            break;
        ASSERT_EQ(status, net::DecodeStatus::NeedMore);
        const ssize_t n = sock.recvSome(buf, sizeof(buf));
        ASSERT_GT(n, 0);
        dec.feed(buf, static_cast<std::size_t>(n));
    }
    ASSERT_EQ(frame.type, net::MsgType::HelloAck);
    net::HelloAckMsg ack;
    ASSERT_TRUE(ack.decode(frame.payload));
    EXPECT_EQ(ack.accepted, 0);
    EXPECT_NE(ack.reason.find("version"), std::string::npos);
    EXPECT_EQ(frontend.connectedWorkers(), 0u);
    frontend.drainAndStop();
}

TEST(BatchedExecution, DigestsBitIdenticalToUnbatchedAcrossSeeds)
{
    // The tentpole correctness contract: a request served as member k
    // of a batched multi-stream program must produce *exactly* the
    // digest it would have produced served alone. Keys, inputs, and
    // encryption randomness are all derived per member. The batch runs
    // on the shared pool, as serving runs it; executeSeeded is the
    // serial reference.
    const auto &ctx = serveContext();
    WorkloadCatalog catalog(ctx);
    fhe::Encoder encoder(ctx);
    PlanCache plans(ctx);

    compiler::CompilerConfig single;
    single.chips = 4;
    single.num_streams = 1;
    const auto &plan1 = plans.get(catalog.probe(), single);

    for (const std::size_t members : {2ul, 3ul}) {
        compiler::CompilerConfig cfg = single;
        cfg.chips = 4 * members;
        cfg.num_streams = static_cast<int>(members);
        const auto &planN =
            plans.get(catalog.batchedProbe(members), cfg);

        std::vector<uint64_t> seeds;
        for (std::size_t k = 0; k < members; ++k)
            seeds.push_back(7000 + 13 * k);

        const auto reports = exec::EmulateBackend::executeSeededBatch(
            ctx, encoder, catalog.probe(), planN, seeds);
        ASSERT_EQ(reports.size(), members);
        for (std::size_t k = 0; k < members; ++k) {
            const auto solo = exec::EmulateBackend::executeSeeded(
                ctx, encoder, catalog.probe(), plan1, seeds[k]);
            EXPECT_EQ(reports[k].digest, solo.digest)
                << "member " << k << " of a " << members
                << "-stream batch diverged from its unbatched run";
        }
    }
}

TEST(PlanCache, KeysOnContentAndConfigIncludingStreams)
{
    const auto &ctx = serveContext();
    WorkloadCatalog catalog(ctx);
    PlanCache plans(ctx);

    compiler::CompilerConfig cfg;
    cfg.chips = 4;
    cfg.num_streams = 1;

    double ms = -1.0;
    plans.get(catalog.probe(), cfg, &ms);
    EXPECT_GT(ms, 0.0) << "first compile must miss";
    plans.get(catalog.probe(), cfg, &ms);
    EXPECT_EQ(ms, 0.0) << "second fetch must hit";

    // num_streams is part of the key: the batched plan is distinct.
    compiler::CompilerConfig batched = cfg;
    batched.chips = 8;
    batched.num_streams = 2;
    plans.get(catalog.batchedProbe(2), batched, &ms);
    EXPECT_GT(ms, 0.0) << "batched variant must compile separately";

    const auto stats = plans.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST(PlanTuner, TunedNeverWorseThanDefaultAndFullyDeterministic)
{
    // The tuner's candidate set includes the untuned serving path
    // (cinnamon-ks, group = chips, one stream), so the winner can
    // never be slower than the default. And the decision must be a
    // pure function of (workload, chips, hardware): a fresh tuner
    // over a fresh runner reproduces it bit-for-bit — the invariant
    // that keeps autotuned distributed digests in lockstep with
    // in-process serving.
    const auto &ctx = serveContext();
    WorkloadCatalog catalog(ctx);
    sim::HardwareConfig hw = ServeOptions().hw;
    hw.n = ctx.n();

    workloads::BenchmarkRunner runner_a(ctx);
    workloads::BenchmarkRunner runner_b(ctx);
    PlanTuner tuner_a(runner_a);
    PlanTuner tuner_b(runner_b);

    for (Workload w : {Workload::Bootstrap, Workload::ResNet,
                       Workload::Helr, Workload::Bert,
                       Workload::Keyswitch}) {
        const auto &bench = catalog.benchmark(w);
        const TunedPlan &a = tuner_a.plan(bench, 4, hw);
        EXPECT_LE(a.tuned_seconds, a.default_seconds + 1e-12)
            << workloadName(w);
        EXPECT_GT(a.candidates, 0u);
        EXPECT_NE(compiler::StrategyRegistry::global().find(
                      a.strategy),
                  nullptr)
            << "winner must be a registry strategy";
        EXPECT_EQ(a.group * a.streams, 4u)
            << "plan must cover the whole lease";

        const TunedPlan &b = tuner_b.plan(bench, 4, hw);
        EXPECT_EQ(a.strategy, b.strategy) << workloadName(w);
        EXPECT_EQ(a.group, b.group);
        EXPECT_EQ(a.streams, b.streams);
        EXPECT_EQ(a.tuned_seconds, b.tuned_seconds);
        EXPECT_EQ(a.default_seconds, b.default_seconds);
    }

    // Decisions memoize: re-asking is a cache hit, not a re-tune.
    const auto before = tuner_a.stats();
    tuner_a.plan(catalog.benchmark(Workload::Keyswitch), 4, hw);
    const auto after = tuner_a.stats();
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(Server, AutotunedServingStaysDeterministicAndCountsDecisions)
{
    // Two independent autotuned servers over the same trace must
    // produce identical digests (the tuner is deterministic), and the
    // server stats must surface the tuner cache.
    ServeOptions opt = smallOptions();
    opt.autotune = true;

    auto runTrace = [&] {
        Server server(serveContext(), opt);
        server.start();
        for (std::size_t i = 0; i < 6; ++i)
            EXPECT_TRUE(server.submit(traceWorkload(i), 7100 + i));
        server.drainAndStop();
        auto hashes = completedHashes(server);
        EXPECT_GT(server.stats().tuner_cache.lookups(), 0u);
        return hashes;
    };
    const auto first = runTrace();
    const auto second = runTrace();
    ASSERT_EQ(first.size(), 6u);
    EXPECT_EQ(first, second);
}

TEST(Server, ForcedStrategyChangesPlansDeterministically)
{
    // Forcing a named strategy must serve successfully and stay
    // bit-reproducible run over run; an unknown name must surface as
    // a failed request, not a crash.
    ServeOptions opt = smallOptions();
    opt.strategy = "cifher";

    auto runTrace = [&] {
        Server server(serveContext(), opt);
        server.start();
        for (std::size_t i = 0; i < 4; ++i)
            EXPECT_TRUE(
                server.submit(Workload::Keyswitch, 7200 + i));
        server.drainAndStop();
        return completedHashes(server);
    };
    const auto first = runTrace();
    const auto second = runTrace();
    ASSERT_EQ(first.size(), 4u);
    EXPECT_EQ(first, second);
}

TEST(RemoteServing, AutotunedLoopbackBitIdenticalToInProcess)
{
    // The acceptance gate for the autotuner's determinism contract:
    // with --autotune on both sides, worker processes must reach the
    // exact plan decisions the in-process server reaches, so digests
    // stay bit-identical across the process boundary.
    const std::size_t kRequests = 5;

    ServeOptions base = smallOptions();
    base.autotune = true;
    Server local(serveContext(), base);
    local.start();
    for (std::size_t i = 0; i < kRequests; ++i)
        ASSERT_TRUE(local.submit(traceWorkload(i), 7300 + i));
    local.drainAndStop();
    const auto expected = completedHashes(local);
    ASSERT_EQ(expected.size(), kRequests);

    remote::FrontEndOptions fe_opt;
    fe_opt.workers = 2;
    fe_opt.group_size = 4;
    remote::RemoteFrontEnd frontend(fe_opt);
    ASSERT_TRUE(frontend.start());

    std::vector<std::thread> workers;
    for (uint64_t w = 0; w < 2; ++w)
        workers.emplace_back([&frontend, w] {
            remote::WorkerOptions opt;
            opt.port = frontend.port();
            opt.worker_id = w;
            opt.group_size = 4;
            opt.autotune = true;
            remote::runWorker(serveContext(), opt);
        });
    ASSERT_TRUE(frontend.waitForWorkers(2));

    for (std::size_t i = 0; i < kRequests; ++i)
        ASSERT_TRUE(frontend.submit(traceWorkload(i), 7300 + i));
    frontend.drainAndStop();
    for (auto &t : workers)
        t.join();

    std::map<uint64_t, uint64_t> got;
    for (const auto &r : frontend.responses())
        if (r.status == RequestStatus::Completed)
            got[r.id] = r.output_hash;
    EXPECT_EQ(got, expected)
        << "autotuned distributed digests must match in-process";
}
