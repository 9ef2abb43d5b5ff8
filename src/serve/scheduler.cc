#include "serve/scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace cinnamon::serve {

namespace {

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

} // namespace

void
GroupLease::release()
{
    if (sched_ != nullptr) {
        sched_->release(group_);
        sched_ = nullptr;
    }
}

void
BatchLease::shrinkTo(std::size_t n)
{
    if (sched_ == nullptr)
        return;
    while (groups_.size() > n && groups_.size() > 1) {
        sched_->release(groups_.back());
        groups_.pop_back();
    }
}

void
BatchLease::release()
{
    if (sched_ != nullptr) {
        for (const std::size_t g : groups_)
            sched_->release(g);
        sched_ = nullptr;
        groups_.clear();
    }
}

ChipGroupScheduler::ChipGroupScheduler(std::size_t chips,
                                       std::size_t group_size)
    : group_size_(group_size)
{
    CINN_FATAL_UNLESS(group_size >= 1 && chips >= group_size,
                      "machine must have at least one chip group");
    CINN_FATAL_UNLESS(chips % group_size == 0,
                      "chips (" << chips << ") must be a multiple of "
                                << "the group size (" << group_size
                                << "); a remainder would strand chips");
    const std::size_t groups = chips / group_size;
    busy_since_.assign(groups, Clock::time_point{});
    busy_seconds_.assign(groups, 0.0);
    quarantined_.assign(groups, 0);
    quarantined_since_.assign(groups, Clock::time_point{});
    chip_failed_.assign(chips, 0);
    for (std::size_t g = 0; g < groups; ++g)
        free_.push_back(g); // a fresh scheduler hands out group 0 first
}

std::size_t
ChipGroupScheduler::leaseLocked(Clock::time_point now)
{
    const std::size_t group = free_.front();
    free_.pop_front();
    busy_since_[group] = now;
    return group;
}

GroupLease
ChipGroupScheduler::acquire()
{
    std::unique_lock<std::mutex> lock(mutex_);
    const uint64_t ticket = next_ticket_++;
    freed_.wait(lock, [&] {
        return ticket == serving_ticket_ &&
               (!free_.empty() ||
                quarantined_count_ == busy_since_.size());
    });
    if (free_.empty()) {
        // Every group is quarantined: nothing will be released, so
        // waiting would deadlock. Pass the baton and report upward;
        // the caller retries after the health probe repairs a group.
        ++serving_ticket_;
        freed_.notify_all();
        throw NoHealthyGroupsError();
    }
    ++serving_ticket_;
    const std::size_t group = leaseLocked(Clock::now());
    // Wake the next ticket holder (they wait on the same cv).
    freed_.notify_all();
    return GroupLease(this, group);
}

BatchLease
ChipGroupScheduler::acquireUpTo(std::size_t max_groups)
{
    CINN_ASSERT(max_groups >= 1, "acquireUpTo needs at least one group");
    std::unique_lock<std::mutex> lock(mutex_);
    const uint64_t ticket = next_ticket_++;
    freed_.wait(lock, [&] {
        return ticket == serving_ticket_ &&
               (!free_.empty() ||
                quarantined_count_ == busy_since_.size());
    });
    if (free_.empty()) {
        ++serving_ticket_;
        freed_.notify_all();
        throw NoHealthyGroupsError();
    }
    ++serving_ticket_;
    // One group is guaranteed; take any further *currently free*
    // groups opportunistically — waiting for more would trade the
    // lease we already hold for latency.
    std::vector<std::size_t> groups;
    const auto now = Clock::now();
    while (!free_.empty() && groups.size() < max_groups)
        groups.push_back(leaseLocked(now));
    freed_.notify_all();
    return BatchLease(this, std::move(groups));
}

GroupLease
ChipGroupScheduler::tryAcquireGroup(std::size_t group)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CINN_ASSERT(group < busy_since_.size(),
                "tryAcquireGroup of unknown group " << group);
    // Respect FIFO: if someone holds an earlier ticket, don't overtake.
    if (next_ticket_ != serving_ticket_)
        return GroupLease();
    const auto it = std::find(free_.begin(), free_.end(), group);
    if (it == free_.end())
        return GroupLease(); // busy or quarantined
    free_.erase(it);
    busy_since_[group] = Clock::now();
    return GroupLease(this, group);
}

void
ChipGroupScheduler::release(std::size_t group)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CINN_ASSERT(group < busy_since_.size(), "release of unknown group");
    CINN_ASSERT(busy_since_[group] != Clock::time_point{},
                "double release of group " << group);
    busy_seconds_[group] += secondsSince(busy_since_[group]);
    busy_since_[group] = Clock::time_point{};
    // A group quarantined while leased (its chip died mid-program) is
    // parked, not freed: no later request may lease dead hardware.
    if (!quarantined_[group])
        free_.push_back(group);
    freed_.notify_all();
}

void
ChipGroupScheduler::markChipFailed(std::size_t chip)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CINN_ASSERT(chip < chip_failed_.size(),
                "failure report for unknown chip " << chip);
    chip_failed_[chip] = 1;
    const std::size_t group = chip / group_size_;
    if (!quarantined_[group]) {
        quarantined_[group] = 1;
        quarantined_since_[group] = Clock::now();
        ++quarantined_count_;
        ++quarantines_total_;
        // If the group is idle, pull it off the free list now.
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            if (*it == group) {
                free_.erase(it);
                break;
            }
        }
    }
    // Wake waiters: if this was the last healthy group, blocked
    // acquire() calls must observe it and fail over to a retry.
    freed_.notify_all();
}

void
ChipGroupScheduler::readmitLocked(std::size_t group)
{
    quarantined_[group] = 0;
    --quarantined_count_;
    ++readmissions_total_;
    const auto [lo, hi] = chipsOf(group);
    for (std::size_t c = lo; c < hi; ++c)
        chip_failed_[c] = 0;
    if (busy_since_[group] == Clock::time_point{})
        free_.push_back(group);
    freed_.notify_all();
}

std::vector<std::size_t>
ChipGroupScheduler::readmitRecovered(double repair_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::size_t> readmitted;
    const auto now = Clock::now();
    for (std::size_t g = 0; g < quarantined_.size(); ++g) {
        if (!quarantined_[g])
            continue;
        if (busy_since_[g] != Clock::time_point{})
            continue; // still leased; park until released
        const double since_ms =
            std::chrono::duration<double, std::milli>(
                now - quarantined_since_[g])
                .count();
        if (since_ms < repair_ms)
            continue;
        readmitLocked(g);
        readmitted.push_back(g);
    }
    return readmitted;
}

void
ChipGroupScheduler::readmit(std::size_t group)
{
    std::lock_guard<std::mutex> lock(mutex_);
    CINN_ASSERT(group < quarantined_.size(),
                "readmit of unknown group " << group);
    if (quarantined_[group])
        readmitLocked(group);
}

bool
ChipGroupScheduler::isQuarantined(std::size_t group) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CINN_ASSERT(group < quarantined_.size(),
                "query of unknown group " << group);
    return quarantined_[group] != 0;
}

std::vector<uint8_t>
ChipGroupScheduler::quarantinedMask() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantined_;
}

std::size_t
ChipGroupScheduler::quarantinedGroups() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantined_count_;
}

std::vector<std::size_t>
ChipGroupScheduler::failedChips() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::size_t> out;
    for (std::size_t c = 0; c < chip_failed_.size(); ++c)
        if (chip_failed_[c])
            out.push_back(c);
    return out;
}

std::size_t
ChipGroupScheduler::quarantinesTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantines_total_;
}

std::size_t
ChipGroupScheduler::readmissionsTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return readmissions_total_;
}

std::size_t
ChipGroupScheduler::busyGroups() const
{
    // Count leases directly: quarantined groups are neither free nor
    // busy, so groups − free would overcount while one is parked.
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t busy = 0;
    for (const auto &since : busy_since_)
        if (since != Clock::time_point{})
            ++busy;
    return busy;
}

std::vector<double>
ChipGroupScheduler::busySeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out = busy_seconds_;
    for (std::size_t g = 0; g < out.size(); ++g) {
        if (busy_since_[g] != Clock::time_point{})
            out[g] += secondsSince(busy_since_[g]);
    }
    return out;
}

} // namespace cinnamon::serve
