#include "serve/settlement.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "faults/fault_plan.h"

namespace cinnamon::serve {

namespace {

/** The budget is measured from first admission (`born`), so an
    attempt inherits whatever its earlier attempts already spent. */
bool
deadlineAllows(const Request &r, double extra_ms)
{
    if (r.deadline.count() == 0)
        return true;
    const double budget_ms = static_cast<double>(r.deadline.count());
    return msSince(r.born) + extra_ms <= budget_ms;
}

/** The seeded backoff before attempt `r.attempt + 1`. */
double
backoffFor(const Request &r, const RetryPolicy &p)
{
    return faults::backoffMs(r.seed, r.attempt, p.backoff_base_ms,
                             p.backoff_mult, p.backoff_max_ms,
                             p.backoff_jitter);
}

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

bool
isFinal(RequestStatus status)
{
    return status == RequestStatus::Completed ||
           status == RequestStatus::Expired ||
           status == RequestStatus::Failed;
}

} // namespace

Settlement::Settlement(std::size_t queue_capacity, RetryPolicy policy)
    : queue_(queue_capacity), retry_(policy)
{
}

void
Settlement::startClock()
{
    std::lock_guard<std::mutex> lock(clock_mutex_);
    CINN_ASSERT(!running_, "serving face already started");
    running_ = true;
    start_time_ = Clock::now();
}

void
Settlement::stopClock()
{
    std::lock_guard<std::mutex> lock(clock_mutex_);
    wall_seconds_ = secondsSince(start_time_);
    running_ = false;
}

bool
Settlement::running() const
{
    std::lock_guard<std::mutex> lock(clock_mutex_);
    return running_;
}

bool
Settlement::submit(Workload workload, uint64_t seed,
                   std::chrono::milliseconds deadline)
{
    Request r;
    r.workload = workload;
    r.seed = seed;
    r.deadline = deadline;
    r.born = Clock::now();
    {
        std::lock_guard<std::mutex> lock(rows_mutex_);
        r.id = next_id_++;
        ++submitted_;
    }
    auto &metrics = MetricsRegistry::global();
    metrics.counter("serve.requests.submitted").add();
    Response resp;
    resp.id = r.id;
    resp.workload = workload;
    if (queue_.submit(std::move(r))) {
        std::lock_guard<std::mutex> lock(rows_mutex_);
        ++admitted_;
        return true;
    }
    // Tell the caller whether this rejection is worth retrying: a
    // queue-full bounce clears as the queue drains; a submit after
    // shutdown began never will.
    resp.retryable = !queue_.closed();
    if (resp.retryable) {
        resp.error = "queue full (backpressure): retry later";
        metrics.counter("serve.requests.rejected_retryable").add();
    } else {
        resp.error = "draining: submit elsewhere";
    }
    record(std::move(resp), RequestStatus::Rejected);
    return false;
}

std::vector<Attempt>
Settlement::begin(std::vector<Request> batch)
{
    std::vector<Attempt> live;
    live.reserve(batch.size());
    for (auto &request : batch) {
        Attempt a;
        a.response.id = request.id;
        a.response.workload = request.workload;
        a.response.attempt = request.attempt;
        a.response.queue_ms = msSince(request.admitted);
        a.started = Clock::now();
        const bool lapsed = !deadlineAllows(request, 0.0);
        a.request = std::move(request);
        // Running a member whose budget the queue wait spent would
        // only push the requests behind it past their own deadlines.
        if (lapsed)
            settle(std::move(a), RequestStatus::Expired);
        else
            live.push_back(std::move(a));
    }
    return live;
}

void
Settlement::shed(std::vector<Attempt> &attempts)
{
    auto &metrics = MetricsRegistry::global();
    std::vector<Attempt> live;
    live.reserve(attempts.size());
    for (auto &a : attempts) {
        if (deadlineAllows(a.request, 0.0)) {
            live.push_back(std::move(a));
            continue;
        }
        metrics.counter("serve.requests.expired_after_lease").add();
        settle(std::move(a), RequestStatus::Expired);
    }
    attempts = std::move(live);
}

void
Settlement::handBack(Attempt attempt)
{
    if (queue_.requeue(attempt.request))
        return;
    attempt.response.error = "handed back to a sealed queue";
    MetricsRegistry::global().counter("serve.requeue_refused").add();
    settle(std::move(attempt), RequestStatus::Failed);
}

void
Settlement::complete(Attempt attempt)
{
    settle(std::move(attempt), RequestStatus::Completed);
}

std::optional<Retry>
Settlement::lose(Attempt attempt, std::string error, bool retryable,
                 bool requeued, double delay_floor_ms)
{
    Response &resp = attempt.response;
    resp.service_ms = msSince(attempt.started);
    resp.error = std::move(error);
    resp.retryable = retryable;
    if (!retryable) {
        // A permanent program error: no retry will change it.
        record(std::move(resp), RequestStatus::Failed);
        return std::nullopt;
    }
    const Request &r = attempt.request;
    const double delay_ms =
        std::max(delay_floor_ms, backoffFor(r, retry_));
    if (!deadlineAllows(r, delay_ms)) {
        // The fault burned the rest of the budget: shed, not lost.
        record(std::move(resp), RequestStatus::Expired);
        return std::nullopt;
    }
    if (r.attempt + 1 >= retry_.max_attempts) {
        record(std::move(resp), RequestStatus::Failed);
        return std::nullopt;
    }
    resp.requeued = requeued;
    return Retry{std::move(attempt), delay_ms};
}

void
Settlement::retry(Retry next)
{
    // Requeue before recording the Retried row: a sealed queue
    // refuses the requeue, and the request must then fail instead of
    // vanishing. `born` stays: a fault never extends the deadline.
    Request request = next.attempt.request;
    ++request.attempt;
    request.admitted = Clock::now();
    Response &resp = next.attempt.response;
    if (queue_.requeue(std::move(request))) {
        record(std::move(resp), RequestStatus::Retried);
        return;
    }
    resp.error += " (retry refused: queue sealed)";
    resp.requeued = false;
    MetricsRegistry::global().counter("serve.requeue_refused").add();
    record(std::move(resp), RequestStatus::Failed);
}

void
Settlement::settle(Attempt attempt, RequestStatus status)
{
    attempt.response.service_ms = msSince(attempt.started);
    record(std::move(attempt.response), status);
}

void
Settlement::record(Response row, RequestStatus status)
{
    row.status = status;
    row.total_ms = row.queue_ms + row.service_ms;
    auto &metrics = MetricsRegistry::global();
    Counter *completed = nullptr;
    switch (status) {
    case RequestStatus::Completed:
        completed = &metrics.counter("serve.requests.completed");
        metrics.histogram("serve.queue_ms").observe(row.queue_ms);
        metrics.histogram("serve.service_ms").observe(row.service_ms);
        metrics.histogram("serve.total_ms").observe(row.total_ms);
        metrics.histogram("serve.compile_ms").observe(row.compile_ms);
        break;
    case RequestStatus::Rejected:
        metrics.counter("serve.requests.rejected").add();
        break;
    case RequestStatus::Expired:
        metrics.counter("serve.requests.expired").add();
        break;
    case RequestStatus::Failed:
        metrics.counter("serve.requests.failed").add();
        break;
    case RequestStatus::Retried:
        metrics.counter("serve.retries").add();
        if (row.requeued)
            metrics.counter("serve.requeued").add();
        break;
    }
    // serve.requests.completed ticks under the row lock, right before
    // its row lands: the k-th tick is the k-th Completed row.
    std::lock_guard<std::mutex> lock(rows_mutex_);
    if (completed != nullptr)
        completed->add();
    rows_.push_back(std::move(row));
    if (isFinal(status)) {
        ++finalized_;
        settled_cv_.notify_all();
    }
}

void
Settlement::waitSettled()
{
    std::unique_lock<std::mutex> lock(rows_mutex_);
    settled_cv_.wait(lock, [&] { return finalized_ >= admitted_; });
}

std::vector<Response>
Settlement::responses() const
{
    std::lock_guard<std::mutex> lock(rows_mutex_);
    return rows_;
}

ServeStats
Settlement::stats(const CacheStats &cache,
                  const std::vector<double> &busy_seconds,
                  const std::vector<uint8_t> &quarantined) const
{
    std::vector<Response> rows;
    std::size_t submitted;
    {
        std::lock_guard<std::mutex> lock(rows_mutex_);
        rows = rows_;
        submitted = submitted_;
    }
    double wall;
    {
        std::lock_guard<std::mutex> lock(clock_mutex_);
        wall = running_ ? secondsSince(start_time_) : wall_seconds_;
    }
    auto s = ServeStats::fromResponses(rows, submitted,
                                       queue_.rejected(), wall, cache,
                                       busy_seconds, quarantined);
    s.rejected_full = queue_.rejectedFull();
    s.rejected_closed = queue_.rejectedClosed();
    return s;
}

} // namespace cinnamon::serve
