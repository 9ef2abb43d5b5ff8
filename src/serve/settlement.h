/**
 * @file
 * Settlement: the request-lifecycle policy both serving faces share.
 *
 * The in-process Server and the distributed RemoteFrontEnd place and
 * run attempts differently, but they settle every request the same
 * way, through this module:
 *
 *   - admission: request ids, the `born` deadline anchor, the bounded
 *     RequestQueue, and the Rejected row of a bounced submit;
 *   - deadline shedding, against a budget that spans every attempt;
 *   - the one row-recording path (status → metrics → row), so every
 *     row reports total_ms = queue_ms + service_ms;
 *   - the retry-or-expire-or-fail decision for an attempt that lost
 *     its result (RetryPolicy, faults::backoffMs, never past the
 *     deadline), and the requeue that schedules the next attempt;
 *   - responses(), stats(), the run clock, and the wait until every
 *     admitted request has a final row.
 *
 * A face keeps only its transport and placement: when to lease,
 * where to run, and whether to sleep a retry's backoff (the Server's
 * worker threads do; the front-end's I/O thread requeues at once).
 *
 * Queue-wait accounting: `admitted` is stamped when an attempt is
 * scheduled — at submit and at each retry — and a request handed
 * back to the queue without a new attempt keeps it. queue_ms is
 * therefore the whole wait of the attempt a row describes.
 */

#ifndef CINNAMON_SERVE_SETTLEMENT_H_
#define CINNAMON_SERVE_SETTLEMENT_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/queue.h"
#include "serve/request.h"
#include "serve/stats.h"

namespace cinnamon::serve {

/**
 * Bounded, deadline-aware retry for faulted attempts. Backoff is
 * exponential with jitter drawn from the request seed (a pure
 * function of (seed, attempt), reproducible run to run), and a
 * retry is scheduled only if its backoff still fits inside the
 * request's deadline: the runtime never retries past the deadline.
 */
struct RetryPolicy
{
    /** Total execution attempts per request (1 = no retries). */
    std::size_t max_attempts = 3;
    double backoff_base_ms = 1.0; ///< delay before the first retry
    double backoff_mult = 2.0;    ///< growth per attempt
    double backoff_max_ms = 50.0; ///< cap on the pre-jitter delay
    /** Jitter width: the delay is scaled by [1 - j/2, 1 + j/2). */
    double backoff_jitter = 0.5;
};

/**
 * One attempt of one request, from dequeue to settlement: the
 * request, its response row under construction, and the start of
 * its service time.
 */
struct Attempt
{
    Request request;
    Response response;
    Clock::time_point started{};
};

/** An attempt cleared to run again once `delay_ms` has passed. */
struct Retry
{
    Attempt attempt;
    double delay_ms = 0.0;
};

/** Admission and settlement for one serving face; thread-safe. */
class Settlement
{
  public:
    Settlement(std::size_t queue_capacity, RetryPolicy policy);

    Settlement(const Settlement &) = delete;
    Settlement &operator=(const Settlement &) = delete;

    /** The admission queue the face's batch former drains. */
    RequestQueue &queue() { return queue_; }

    /** Start the run clock (asserts it is not running). */
    void startClock();
    /** Stop the run clock, fixing the wall time stats() reports. */
    void stopClock();
    bool running() const;

    /**
     * Admit a request: assign its id, stamp `born`, and queue it.
     *
     * @return false when the queue bounced it. The Rejected row says
     *         why: a queue-full bounce is backpressure and marked
     *         `retryable` (retry once the queue drains), while a
     *         submit after shutdown began is permanent.
     */
    bool submit(Workload workload, uint64_t seed,
                std::chrono::milliseconds deadline);

    /**
     * Start an attempt for every dequeued request. queue_ms is the
     * wait since the attempt was admitted; service time starts now.
     * Members whose deadline budget the wait already spent are
     * expired instead of returned.
     */
    std::vector<Attempt> begin(std::vector<Request> batch);

    /**
     * Expire the attempts whose deadline budget lapsed while they
     * waited for hardware (after_lease), keeping the rest in order.
     */
    void shed(std::vector<Attempt> &attempts);

    /**
     * Return a request to the queue without starting a new attempt.
     * It keeps its `admitted` stamp, so the row of the attempt that
     * eventually runs counts the wait before the hand-back too. A
     * sealed queue refuses it, and the request fails instead.
     */
    void handBack(Attempt attempt);

    /** Record a Completed row; the caller filled in the results. */
    void complete(Attempt attempt);

    /**
     * Settle an attempt that produced no result. A permanent error
     * (`retryable` false) fails it. Otherwise it is retried when an
     * attempt is left and its backoff (at least `delay_floor_ms`)
     * still fits the deadline; it expires when the deadline does not
     * allow a retry, and fails when it ran out of attempts.
     *
     * @param requeued the retry moves to other hardware (the group
     *        lost a chip, or no group was healthy).
     * @return the retry to schedule with retry(), or nullopt when the
     *         attempt got its final row here.
     */
    std::optional<Retry> lose(Attempt attempt, std::string error,
                              bool retryable, bool requeued,
                              double delay_floor_ms = 0.0);

    /**
     * Schedule the next attempt: requeue it with a fresh admission
     * stamp and record this attempt's Retried row. A sealed queue
     * refuses the requeue, and the request fails instead of
     * vanishing.
     */
    void retry(Retry next);

    /** Block until every admitted request has a final row. */
    void waitSettled();

    /** Rows recorded so far (complete once the face has drained). */
    std::vector<Response> responses() const;

    /**
     * Aggregate statistics of the rows, plus the face's cache,
     * per-group busy time and quarantine state.
     */
    ServeStats stats(const CacheStats &cache,
                     const std::vector<double> &busy_seconds,
                     const std::vector<uint8_t> &quarantined) const;

  private:
    /** The one recording path: status → metrics → row. */
    void record(Response row, RequestStatus status);
    /** Record an attempt's row, its service time ending now. */
    void settle(Attempt attempt, RequestStatus status);

    RequestQueue queue_;
    const RetryPolicy retry_;

    mutable std::mutex rows_mutex_;
    std::condition_variable settled_cv_;
    std::vector<Response> rows_;
    uint64_t next_id_ = 1;
    std::size_t submitted_ = 0;
    std::size_t admitted_ = 0;
    std::size_t finalized_ = 0; ///< Completed, Expired, Failed rows

    mutable std::mutex clock_mutex_;
    bool running_ = false;
    Clock::time_point start_time_{};
    double wall_seconds_ = 0.0; ///< fixed at stopClock
};

} // namespace cinnamon::serve

#endif // CINNAMON_SERVE_SETTLEMENT_H_
