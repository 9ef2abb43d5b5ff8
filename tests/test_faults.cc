/**
 * @file
 * Tests for the fault-injection subsystem (src/faults) and the
 * serving runtime's resilience to it: fault-schedule determinism
 * (same seed ⇒ identical failure trace), deadline-aware retry (never
 * retry past the deadline), quarantine-then-readmit round trips, and
 * the core recovery contract — a request that survives its faults
 * completes with an output hash bit-identical to an unfaulted run,
 * served alone or in batches.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "serve/server.h"

using namespace cinnamon;
using namespace cinnamon::serve;

namespace {

/** One shared context: a 16-level chain fits the mini bootstrap. */
const fhe::CkksContext &
faultContext()
{
    static fhe::CkksContext ctx(
        fhe::CkksParams::makeTest(1 << 8, 16, 4));
    return ctx;
}

ServeOptions
faultOptions()
{
    ServeOptions opt;
    opt.chips = 8;
    opt.group_size = 4;
    opt.workers = 2;
    opt.queue_capacity = 64;
    opt.retry.backoff_base_ms = 0.1; // keep test retries fast
    opt.retry.backoff_max_ms = 1.0;
    return opt;
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
 * Every Retried row settles like a final one: its total_ms is the
 * sum of its queue wait and its aborted attempt's service time.
 */
void
expectRetriedRowsTotalTheirParts(const Server &server)
{
    for (const auto &r : server.responses()) {
        if (r.status == RequestStatus::Retried) {
            EXPECT_DOUBLE_EQ(r.total_ms, r.queue_ms + r.service_ms)
                << "retried row of request " << r.id;
        }
    }
}

/** Per-id final status (the one non-Retried row per request). */
std::map<uint64_t, RequestStatus>
finalStatuses(const Server &server)
{
    std::map<uint64_t, RequestStatus> fates;
    for (const auto &r : server.responses())
        if (r.status != RequestStatus::Retried)
            fates[r.id] = r.status;
    return fates;
}

} // namespace

TEST(FaultPlan, SameSeedSameScheduleBitForBit)
{
    faults::FaultConfig cfg;
    cfg.seed = 1234;
    cfg.chip_mtbf_requests = 3.0;
    cfg.transient_p = 0.3;
    cfg.link_degrade_p = 0.2;
    const faults::FaultPlan a(cfg), b(cfg);

    std::vector<uint64_t> seeds;
    for (uint64_t s = 0; s < 64; ++s)
        seeds.push_back(1000 + s * 17);
    const auto trace_a = a.schedule(seeds, 4);
    const auto trace_b = b.schedule(seeds, 4);
    ASSERT_EQ(trace_a.size(), seeds.size() * 4);
    EXPECT_EQ(trace_a, trace_b); // bit-for-bit identical

    // A different seed draws a genuinely different schedule.
    cfg.seed = 1235;
    const faults::FaultPlan c(cfg);
    EXPECT_NE(trace_a, c.schedule(seeds, 4));

    // decide() is a pure function: replaying any single decision out
    // of order reproduces it exactly.
    const auto d1 = a.decide(seeds[7], 2);
    const auto d2 = a.decide(seeds[7], 2);
    EXPECT_EQ(d1.chip_fails, d2.chip_fails);
    EXPECT_EQ(d1.transient, d2.transient);
    EXPECT_EQ(d1.chip_offset, d2.chip_offset);
    EXPECT_DOUBLE_EQ(d1.at_fraction, d2.at_fraction);
    EXPECT_DOUBLE_EQ(d1.link_dilation, d2.link_dilation);
}

TEST(FaultPlan, RatesActuallyBiteAndLayersDecorrelate)
{
    faults::FaultConfig cfg;
    cfg.seed = 7;
    cfg.transient_p = 0.5;
    const faults::FaultPlan plan(cfg);

    std::size_t fired = 0;
    const std::size_t trials = 400;
    for (uint64_t s = 0; s < trials; ++s)
        fired += plan.decide(s, 0).transient ? 1 : 0;
    // A 0.5 rate over 400 draws stays within 5 sigma of the mean.
    EXPECT_GT(fired, trials / 2 - 50);
    EXPECT_LT(fired, trials / 2 + 50);

    // Enabling another layer must not change which requests draw
    // transient faults (per-layer decision streams).
    faults::FaultConfig cfg2 = cfg;
    cfg2.chip_mtbf_requests = 2.0;
    const faults::FaultPlan plan2(cfg2);
    for (uint64_t s = 0; s < 64; ++s)
        EXPECT_EQ(plan.decide(s, 0).transient,
                  plan2.decide(s, 0).transient);
}

TEST(Backoff, DeterministicBoundedAndCapped)
{
    const double base = 10.0, mult = 2.0, max = 50.0, jitter = 0.5;
    for (std::size_t attempt = 0; attempt < 6; ++attempt) {
        const double d1 =
            faults::backoffMs(99, attempt, base, mult, max, jitter);
        const double d2 =
            faults::backoffMs(99, attempt, base, mult, max, jitter);
        EXPECT_DOUBLE_EQ(d1, d2); // pure function of (seed, attempt)

        double nominal = base;
        for (std::size_t k = 0; k < attempt; ++k)
            nominal *= mult;
        nominal = std::min(nominal, max);
        EXPECT_GE(d1, nominal * (1.0 - jitter / 2.0));
        EXPECT_LT(d1, nominal * (1.0 + jitter / 2.0));
    }
    // Zero jitter is exact.
    EXPECT_DOUBLE_EQ(faults::backoffMs(5, 2, 10.0, 2.0, 1e9, 0.0),
                     40.0);
}

TEST(Scheduler, QuarantineThenReadmitRoundTrip)
{
    ChipGroupScheduler sched(8, 4); // groups 0 and 1
    sched.markChipFailed(5);        // chip 5 lives in group 1
    EXPECT_TRUE(sched.isQuarantined(1));
    EXPECT_FALSE(sched.isQuarantined(0));
    EXPECT_EQ(sched.quarantinedGroups(), 1u);
    EXPECT_EQ(sched.healthyGroups(), 1u);
    EXPECT_EQ(sched.failedChips(), std::vector<std::size_t>{5});
    EXPECT_EQ(sched.quarantinesTotal(), 1u);

    // Only the healthy group is leasable.
    auto lease = sched.tryAcquire();
    ASSERT_TRUE(lease.held());
    EXPECT_EQ(lease.group(), 0u);
    EXPECT_FALSE(sched.tryAcquire().held());
    lease.release();

    // Readmission restores the full machine: group 1 leases again
    // and its failed-chip marks are cleared.
    sched.readmit(1);
    EXPECT_FALSE(sched.isQuarantined(1));
    EXPECT_TRUE(sched.failedChips().empty());
    EXPECT_EQ(sched.readmissionsTotal(), 1u);
    auto l0 = sched.tryAcquire();
    auto l1 = sched.tryAcquire();
    EXPECT_TRUE(l0.held());
    EXPECT_TRUE(l1.held());
    EXPECT_NE(l0.group(), l1.group());
}

TEST(Scheduler, QuarantineWhileLeasedParksOnRelease)
{
    ChipGroupScheduler sched(8, 4);
    auto lease = sched.acquire(); // group 0
    ASSERT_EQ(lease.group(), 0u);
    // The chip dies mid-program, while the lease is held.
    sched.markChipFailed(0);
    EXPECT_TRUE(sched.isQuarantined(0));
    lease.release();
    // Release parked the group instead of freeing it: only group 1
    // remains leasable.
    auto next = sched.tryAcquire();
    ASSERT_TRUE(next.held());
    EXPECT_EQ(next.group(), 1u);
    EXPECT_FALSE(sched.tryAcquire().held());
}

TEST(Scheduler, AcquireThrowsWhenEveryGroupQuarantined)
{
    ChipGroupScheduler sched(8, 4);
    sched.markChipFailed(0);
    sched.markChipFailed(4);
    EXPECT_EQ(sched.healthyGroups(), 0u);
    EXPECT_THROW(sched.acquire(), NoHealthyGroupsError);
    // The thrown ticket passed the baton: later acquirers still work
    // once a group is repaired.
    sched.readmit(0);
    auto lease = sched.acquire();
    EXPECT_EQ(lease.group(), 0u);
    // readmitRecovered honors the repair time: group 1's quarantine
    // is fresh, so a huge repair window re-admits nothing.
    EXPECT_TRUE(sched.readmitRecovered(1e9).empty());
    EXPECT_TRUE(sched.isQuarantined(1));
    // A zero repair window re-admits it immediately.
    const auto readmitted = sched.readmitRecovered(0.0);
    ASSERT_EQ(readmitted.size(), 1u);
    EXPECT_EQ(readmitted[0], 1u);
}

TEST(Resilience, TransientFaultsRetryAndMatchUnfaultedBitForBit)
{
    const std::size_t n = 10;

    // Unfaulted baseline run over the same request seeds.
    ServeOptions clean = faultOptions();
    Server baseline(faultContext(), clean);
    baseline.start();
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(baseline.submit(Workload::Keyswitch, 2000 + i));
    baseline.drainAndStop();
    const auto clean_hashes = completedHashes(baseline);
    ASSERT_EQ(clean_hashes.size(), n);

    // Faulted run: every attempt draws a transient fault with p=0.5
    // from a fixed schedule, so each request's fate is predictable
    // from the plan alone.
    ServeOptions opt = faultOptions();
    opt.faults.seed = 77;
    opt.faults.transient_p = 0.5;
    opt.retry.max_attempts = 3;
    const faults::FaultPlan plan(opt.faults);

    // Expected fate per request: the first clean attempt completes;
    // three transient draws in a row exhaust the attempts.
    std::size_t expected_completed = 0, expected_retries = 0;
    std::vector<bool> completes(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t attempt = 0;
        while (attempt < opt.retry.max_attempts &&
               plan.decide(2000 + i, attempt).transient)
            ++attempt;
        completes[i] = attempt < opt.retry.max_attempts;
        expected_completed += completes[i] ? 1 : 0;
        expected_retries +=
            std::min(attempt, opt.retry.max_attempts - 1);
    }
    ASSERT_GT(expected_retries, 0u) << "schedule drew no faults; "
                                       "pick a different fault seed";

    // Batch width never changes a fate: a transient fault loses only
    // its own member's result, and a member that does not fit the
    // lease goes back to the queue without burning an attempt.
    for (const std::size_t width : {1u, 2u}) {
        SCOPED_TRACE("batch_max_streams " + std::to_string(width));
        opt.batch_max_streams = width;
        Server server(faultContext(), opt);
        server.start();
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_TRUE(server.submit(Workload::Keyswitch, 2000 + i));
        server.drainAndStop();

        const auto stats = server.stats();
        EXPECT_EQ(stats.completed, expected_completed);
        EXPECT_EQ(stats.retried, expected_retries);
        EXPECT_EQ(stats.failed, n - expected_completed);
        // Conservation: nothing lost, every request reached a final
        // fate.
        EXPECT_EQ(stats.completed + stats.rejected + stats.expired +
                      stats.failed,
                  stats.submitted);
        // Failures here are injected, hence retryable.
        EXPECT_EQ(stats.failed_retryable, stats.failed);
        expectRetriedRowsTotalTheirParts(server);

        // The recovery contract: a retried request's output is
        // bit-identical to the unfaulted run's (ids are assigned in
        // submit order in both runs).
        const auto faulted_hashes = completedHashes(server);
        EXPECT_EQ(faulted_hashes.size(), expected_completed);
        for (const auto &[id, hash] : faulted_hashes) {
            auto it = clean_hashes.find(id);
            ASSERT_NE(it, clean_hashes.end());
            EXPECT_EQ(hash, it->second)
                << "request " << id
                << " completed with a different digest after retries";
        }
    }
}

TEST(Resilience, RetryNeverCrossesTheDeadline)
{
    // Every attempt faults, and the first backoff (200 ms, zero
    // jitter) alone exceeds the 150 ms deadline: the runtime must
    // expire the request instead of retrying past its budget.
    ServeOptions opt = faultOptions();
    opt.faults.seed = 5;
    opt.faults.transient_p = 1.0;
    opt.retry.max_attempts = 5;
    opt.retry.backoff_base_ms = 200.0;
    opt.retry.backoff_max_ms = 1000.0;
    opt.retry.backoff_jitter = 0.0;

    Server server(faultContext(), opt);
    server.start();
    ASSERT_TRUE(server.submit(Workload::Keyswitch, 42,
                              std::chrono::milliseconds(150)));
    server.drainAndStop();

    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, 0u);
    EXPECT_EQ(stats.retried, 0u); // 200 ms never fits in 150 ms
    EXPECT_EQ(stats.expired, 1u);
    for (const auto &r : server.responses())
        EXPECT_NE(r.status, RequestStatus::Retried);
}

TEST(Resilience, ChipKillQuarantinesRequeuesAndRecovers)
{
    // An aggressive chip-kill schedule: ~every 3rd attempt loses a
    // chip. The machine must keep serving on healthy groups, requeue
    // the victims, readmit repaired groups, and lose nothing.
    const std::size_t n = 12;
    ServeOptions clean = faultOptions();
    Server baseline(faultContext(), clean);
    baseline.start();
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(baseline.submit(Workload::Keyswitch, 3000 + i));
    baseline.drainAndStop();
    const auto clean_hashes = completedHashes(baseline);

    ServeOptions opt = faultOptions();
    opt.faults.seed = 9;
    opt.faults.chip_mtbf_requests = 3.0;
    opt.faults.chip_repair_ms = 20.0;
    opt.health_probe_interval_ms = 5.0;
    opt.retry.max_attempts = 4;

    // At width 2 a kill aborts the whole batch: every member
    // requeues, and the group quarantines once.
    for (const std::size_t width : {1u, 2u}) {
        SCOPED_TRACE("batch_max_streams " + std::to_string(width));
        opt.batch_max_streams = width;
        Server server(faultContext(), opt);
        server.start();
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_TRUE(server.submit(Workload::Keyswitch, 3000 + i));
        server.drainAndStop();

        const auto stats = server.stats();
        // The schedule at this seed kills at least one chip.
        EXPECT_GE(server.scheduler().quarantinesTotal(), 1u);
        EXPECT_GE(stats.requeued, 1u);
        // Conservation: every submitted request reached a final
        // fate.
        EXPECT_EQ(stats.completed + stats.rejected + stats.expired +
                      stats.failed,
                  stats.submitted);
        EXPECT_EQ(finalStatuses(server).size(), n);
        // With repair at 20 ms and 4 attempts, the run makes
        // progress even through kills — most requests complete.
        EXPECT_GE(stats.completed, n / 2);
        expectRetriedRowsTotalTheirParts(server);

        // Completed-after-requeue outputs equal the unfaulted run's.
        for (const auto &[id, hash] : completedHashes(server)) {
            auto it = clean_hashes.find(id);
            ASSERT_NE(it, clean_hashes.end());
            EXPECT_EQ(hash, it->second);
        }
    }
}

TEST(Resilience, RejectionCarriesRetryableSignal)
{
    // Saturate a capacity-1 queue before the workers start: the
    // bounced submits are backpressure, so their responses must say
    // "retry later" (retryable). After shutdown begins, a submit is
    // permanent (not retryable).
    ServeOptions opt = faultOptions();
    opt.queue_capacity = 1;
    opt.emulate = false;
    Server server(faultContext(), opt);

    ASSERT_TRUE(server.submit(Workload::Keyswitch, 1));
    EXPECT_FALSE(server.submit(Workload::Keyswitch, 2));
    EXPECT_FALSE(server.submit(Workload::Keyswitch, 3));

    server.start();
    server.drainAndStop();
    EXPECT_FALSE(server.submit(Workload::Keyswitch, 4)); // draining

    std::size_t retryable = 0, permanent = 0;
    for (const auto &r : server.responses()) {
        if (r.status != RequestStatus::Rejected)
            continue;
        if (r.retryable)
            ++retryable;
        else
            ++permanent;
    }
    EXPECT_EQ(retryable, 2u);
    EXPECT_EQ(permanent, 1u);
    const auto stats = server.stats();
    EXPECT_EQ(stats.rejected, 3u);
    EXPECT_EQ(stats.rejected_retryable, 2u);
    EXPECT_EQ(stats.completed + stats.rejected + stats.expired +
                  stats.failed,
              stats.submitted);
}
