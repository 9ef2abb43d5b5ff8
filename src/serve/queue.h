/**
 * @file
 * Bounded admission queue for the serving runtime.
 *
 * Admission control is the backpressure point of the system: when the
 * queue is full, submit() fails immediately instead of blocking the
 * client or growing without bound — exactly the behaviour a front-end
 * load balancer needs to shed load onto another replica. Consumers
 * pop FIFO batches through popBatch(); deadline shedding and retries
 * are settlement policy (serve/settlement.h), not the queue's.
 */

#ifndef CINNAMON_SERVE_QUEUE_H_
#define CINNAMON_SERVE_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "serve/request.h"

namespace cinnamon::serve {

/** MPMC bounded FIFO with admission control and shutdown. */
class RequestQueue
{
  public:
    explicit RequestQueue(std::size_t capacity) : capacity_(capacity) {}

    /**
     * Admit a request. Stamps `admitted` on success, and `born` too
     * when the caller left it unset.
     *
     * @return false when the queue is full (backpressure) or closed.
     */
    bool submit(Request request);

    /** Two requests that may share one batched program. */
    using CompatFn =
        std::function<bool(const Request &, const Request &)>;

    /**
     * Pop a *batch*: block while the queue is empty and open, take
     * the oldest request, then coalesce up to `max - 1` further
     * requests `compatible` with it, scanning past incompatible ones
     * (which keep their FIFO slots).
     * If the batch is still short and the queue is open, linger up to
     * `linger_ms` for compatible arrivals — trading a bounded bit of
     * head latency for occupancy, continuous-batching style. With
     * `max` = 1 it pops exactly the oldest request and never
     * lingers.
     *
     * @return empty once the queue is closed *and* drained.
     *
     * @param lingered_ms if non-null, receives the wall-clock ms spent
     *        in the linger window (0 when the batch filled instantly).
     */
    std::vector<Request> popBatch(std::size_t max, double linger_ms,
                                  const CompatFn &compatible,
                                  double *lingered_ms = nullptr);

    /**
     * Put an admitted request back: a retry's next attempt, or a
     * request handed back without one. Inserts the request as it is,
     * stamps included; the caller decides whether a new attempt
     * starts (serve/settlement.h stamps `admitted` for retries).
     * Bypasses both the capacity check (the request already holds an
     * admission slot; bouncing it here would turn a transient fault
     * into a loss) and the closed check (the drain closes the queue
     * before the consumers finish, and an in-flight retry must still
     * drain): the consumer that requeues returns to popBatch(), which
     * reports drained only when the queue is empty.
     *
     * @return false once the queue is sealed: nothing will drain it
     *         anymore, so accepting the request would strand it and
     *         break request conservation. The caller must finalize
     *         the request as Failed instead.
     */
    bool requeue(Request request);

    /** Reject new work; pending requests still drain. */
    void close();

    /**
     * Final shutdown: after seal() even requeue() is refused, because
     * the consumers are gone and an accepted request could never
     * drain. Implies close().
     */
    void seal();

    /** True once close() was called (submit failures are permanent). */
    bool closed() const;

    /** True once seal() was called. */
    bool sealed() const;

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }

    /** Requests bounced by admission control so far (full + closed). */
    std::size_t rejected() const;

    /** Rejections due to capacity backpressure (queue full). */
    std::size_t rejectedFull() const;

    /** Rejections because the queue was already closed (shutdown). */
    std::size_t rejectedClosed() const;

  private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<Request> items_;
    std::size_t rejected_full_ = 0;   ///< capacity backpressure
    std::size_t rejected_closed_ = 0; ///< submits after close()
    bool closed_ = false;
    bool sealed_ = false;
};

} // namespace cinnamon::serve

#endif // CINNAMON_SERVE_QUEUE_H_
