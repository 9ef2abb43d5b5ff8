/**
 * @file
 * Chip-group scheduler for the serving runtime.
 *
 * Cinnamon deploys one ciphertext stream per group of (typically
 * four) chips and parallelizes across groups (Section 7.1). For
 * serving, the machine is therefore partitioned statically: an 8-chip
 * Cinnamon-8 becomes two independent 4-chip groups, each able to run
 * one request at a time. The scheduler hands out whole groups —
 * a chip can never belong to two leases at once — and admits waiters
 * in strict FIFO ticket order so a burst of workers cannot starve an
 * early one. Free groups are handed out least recently released
 * first, so load spreads over every group even when lessees take
 * turns one at a time. Per-group busy time is accounted on release,
 * which is what the ServeStats utilization report is built from.
 *
 * Degraded mode: when a chip dies mid-program (markChipFailed) its
 * whole group is quarantined — release() parks it instead of freeing
 * it, so the dead hardware serves no further request — and the
 * machine keeps serving on the remaining groups. A health probe
 * re-admits quarantined groups once their repair time has elapsed
 * (readmitRecovered). If every group is quarantined, acquire() throws
 * NoHealthyGroupsError instead of deadlocking.
 */

#ifndef CINNAMON_SERVE_SCHEDULER_H_
#define CINNAMON_SERVE_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "serve/request.h"

namespace cinnamon::serve {

class ChipGroupScheduler;

/**
 * Thrown by acquire() when every group is quarantined: there is no
 * healthy hardware to wait for, so blocking would deadlock the worker.
 * Retryable — the health probe re-admits repaired groups.
 */
class NoHealthyGroupsError : public std::runtime_error
{
  public:
    NoHealthyGroupsError()
        : std::runtime_error("no healthy chip groups: every group is "
                             "quarantined pending repair")
    {
    }
};

/** RAII ownership of one chip group; releases on destruction. */
class GroupLease
{
  public:
    GroupLease() = default;
    GroupLease(ChipGroupScheduler *sched, std::size_t group)
        : sched_(sched), group_(group)
    {
    }
    GroupLease(GroupLease &&o) noexcept { *this = std::move(o); }
    GroupLease &
    operator=(GroupLease &&o) noexcept
    {
        // Self-move guard: without it, release() frees the held group
        // and the assignment then reads the just-nulled fields,
        // silently dropping the lease.
        if (this == &o)
            return *this;
        release();
        sched_ = o.sched_;
        group_ = o.group_;
        o.sched_ = nullptr;
        return *this;
    }
    GroupLease(const GroupLease &) = delete;
    GroupLease &operator=(const GroupLease &) = delete;
    ~GroupLease() { release(); }

    bool held() const { return sched_ != nullptr; }
    std::size_t group() const { return group_; }

    void release();

  private:
    ChipGroupScheduler *sched_ = nullptr;
    std::size_t group_ = 0;
};

/**
 * RAII ownership of one or more chip groups at once — the
 * batch-granularity lease behind continuous cross-request batching:
 * one multi-stream program spans every group in the lease, one stream
 * per group. Releases all held groups on destruction; shrinkTo()
 * returns surplus groups early when the batch former could not fill
 * the lease.
 */
class BatchLease
{
  public:
    BatchLease() = default;
    BatchLease(ChipGroupScheduler *sched, std::vector<std::size_t> groups)
        : sched_(sched), groups_(std::move(groups))
    {
    }
    BatchLease(BatchLease &&o) noexcept { *this = std::move(o); }
    BatchLease &
    operator=(BatchLease &&o) noexcept
    {
        if (this == &o)
            return *this;
        release();
        sched_ = o.sched_;
        groups_ = std::move(o.groups_);
        o.sched_ = nullptr;
        o.groups_.clear();
        return *this;
    }
    BatchLease(const BatchLease &) = delete;
    BatchLease &operator=(const BatchLease &) = delete;
    ~BatchLease() { release(); }

    bool held() const { return sched_ != nullptr && !groups_.empty(); }
    std::size_t size() const { return groups_.size(); }
    const std::vector<std::size_t> &groups() const { return groups_; }
    std::size_t group(std::size_t i) const { return groups_.at(i); }

    /** Release groups beyond the first `n` (batch smaller than lease). */
    void shrinkTo(std::size_t n);

    void release();

  private:
    ChipGroupScheduler *sched_ = nullptr;
    std::vector<std::size_t> groups_;
};

/** Partitions `chips` into `chips / group_size` exclusive groups. */
class ChipGroupScheduler
{
  public:
    /**
     * @param chips total chips in the machine (must be a multiple of
     *        group_size; a remainder would strand chips).
     * @param group_size chips per ciphertext stream (4 for Cinnamon).
     */
    ChipGroupScheduler(std::size_t chips, std::size_t group_size);

    /**
     * Block until a group is free (FIFO among waiters) and lease it.
     *
     * @throws NoHealthyGroupsError if every group is quarantined —
     *         there is nothing to wait for until a repair.
     */
    GroupLease acquire();

    /**
     * Batch-granularity lease: block (FIFO, same ticket line as
     * acquire) until at least one group is free, then additionally
     * grab every other free group up to `max_groups` total without
     * waiting further. The batch former fills the lease with
     * compatible requests and shrinkTo()s the surplus.
     *
     * @throws NoHealthyGroupsError if every group is quarantined.
     */
    BatchLease acquireUpTo(std::size_t max_groups);

    /**
     * Lease one *specific* group if it is free and healthy right now
     * (seed-keyed placement in the distributed front-end: requests
     * prefer the group their seed hashes to, falling back to
     * acquire() when it is busy). Does not overtake FIFO waiters.
     */
    GroupLease tryAcquireGroup(std::size_t group);

    std::size_t numGroups() const { return busy_since_.size(); }
    std::size_t groupSize() const { return group_size_; }

    /** Chip indices [lo, hi) of a group. */
    std::pair<std::size_t, std::size_t>
    chipsOf(std::size_t group) const
    {
        return {group * group_size_, (group + 1) * group_size_};
    }

    /** Groups currently leased. */
    std::size_t busyGroups() const;

    /**
     * Cumulative busy seconds per group (leased time; an in-flight
     * lease counts up to now).
     */
    std::vector<double> busySeconds() const;

    /**
     * Degraded mode: record that `chip` died and quarantine its group.
     * Called at fault-injection time, while the victim's lease is
     * still held — release() then parks the group instead of
     * returning it to the free list, so no later request can lease
     * dead hardware. Idempotent per group.
     */
    void markChipFailed(std::size_t chip);

    /**
     * Health probe: re-admit every quarantined, unleased group whose
     * quarantine is at least `repair_ms` old (the repair / hot-spare
     * swap time has elapsed). Clears the group's failed-chip marks.
     *
     * @return the groups re-admitted, for tracing.
     */
    std::vector<std::size_t> readmitRecovered(double repair_ms);

    /** Immediately re-admit one quarantined group (test hook). */
    void readmit(std::size_t group);

    bool isQuarantined(std::size_t group) const;
    /** Per-group quarantine flags (one consistent snapshot). */
    std::vector<uint8_t> quarantinedMask() const;
    /** Groups currently quarantined. */
    std::size_t quarantinedGroups() const;
    /** Groups neither quarantined nor permanently lost. */
    std::size_t
    healthyGroups() const
    {
        return numGroups() - quarantinedGroups();
    }
    /** Chips currently marked failed. */
    std::vector<std::size_t> failedChips() const;
    /** Quarantine events so far (monotone; readmission never decrements). */
    std::size_t quarantinesTotal() const;
    /** Readmission events so far. */
    std::size_t readmissionsTotal() const;

  private:
    friend class GroupLease;
    friend class BatchLease;
    void release(std::size_t group);

    /** Readmit one group; caller holds mutex_. */
    void readmitLocked(std::size_t group);

    /**
     * Lease the least recently released free group (the free list is
     * FIFO, so serialized lessees still rotate through every group);
     * caller holds mutex_ and has checked free_ is non-empty.
     */
    std::size_t leaseLocked(Clock::time_point now);

    const std::size_t group_size_;
    mutable std::mutex mutex_;
    std::condition_variable freed_;
    std::deque<std::size_t> free_;          ///< free groups, FIFO
    std::vector<Clock::time_point> busy_since_; ///< epoch = free
    std::vector<double> busy_seconds_;
    std::vector<uint8_t> quarantined_;      ///< per group
    std::vector<Clock::time_point> quarantined_since_;
    std::vector<uint8_t> chip_failed_;      ///< per chip
    std::size_t quarantined_count_ = 0;
    std::size_t quarantines_total_ = 0;
    std::size_t readmissions_total_ = 0;
    uint64_t next_ticket_ = 0;  ///< next ticket to hand out
    uint64_t serving_ticket_ = 0; ///< lowest ticket allowed to lease
};

} // namespace cinnamon::serve

#endif // CINNAMON_SERVE_SCHEDULER_H_
