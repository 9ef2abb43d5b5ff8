#include "serve/queue.h"

namespace cinnamon::serve {

bool
RequestQueue::submit(Request request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || items_.size() >= capacity_) {
        // Book the two causes separately: capacity rejections are the
        // load balancer's backpressure signal, while shutdown-time
        // rejections are expected during drain and would pollute it.
        if (closed_)
            ++rejected_closed_;
        else
            ++rejected_full_;
        return false;
    }
    request.admitted = Clock::now();
    // An unset deadline anchor (direct queue users such as tests)
    // defaults to first admission; it would otherwise make every
    // deadline check nonsense.
    if (request.born == Clock::time_point{})
        request.born = request.admitted;
    items_.push_back(std::move(request));
    notifyArrival();
    return true;
}

void
RequestQueue::notifyArrival()
{
    // One idle consumer takes the arrival; every lingering one sweeps
    // for it. Lingerers wait apart, so an arrival they cannot use
    // never spends the idle consumers' wake-up.
    ready_.notify_one();
    lingering_.notify_all();
}

std::vector<Request>
RequestQueue::popBatch(std::size_t max, double linger_ms,
                       const CompatFn &compatible,
                       double *lingered_ms)
{
    if (lingered_ms != nullptr)
        *lingered_ms = 0.0;
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    std::vector<Request> batch;
    if (items_.empty())
        return batch; // closed and drained
    batch.push_back(std::move(items_.front()));
    items_.pop_front();

    // Coalesce compatible followers; incompatible requests keep their
    // FIFO position for the next batch.
    const auto sweep = [&] {
        for (auto it = items_.begin();
             it != items_.end() && batch.size() < max;) {
            if (compatible(batch.front(), *it)) {
                batch.push_back(std::move(*it));
                it = items_.erase(it);
            } else {
                ++it;
            }
        }
    };
    sweep();

    // Linger briefly for late compatible arrivals. Bounded by the
    // deadline, and cut short the moment the batch fills or the
    // queue closes (drain must not stall on the linger window).
    const auto linger_start = Clock::now();
    const auto deadline =
        linger_start +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(linger_ms));
    bool lingered = false;
    while (batch.size() < max && !closed_ && linger_ms > 0) {
        lingered = true;
        if (lingering_.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
            sweep();
            break;
        }
        sweep();
    }
    if (lingered && lingered_ms != nullptr)
        *lingered_ms = std::chrono::duration<double, std::milli>(
                           Clock::now() - linger_start)
                           .count();
    return batch;
}

bool
RequestQueue::requeue(Request request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (sealed_) {
        // The consumers are gone: accepting the request would strand
        // it forever. Refuse, so the caller finalizes it as Failed
        // and request conservation holds at shutdown.
        ++rejected_closed_;
        return false;
    }
    items_.push_back(std::move(request));
    notifyArrival();
    return true;
}

void
RequestQueue::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    ready_.notify_all();
    lingering_.notify_all();
}

void
RequestQueue::seal()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    sealed_ = true;
    ready_.notify_all();
    lingering_.notify_all();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

bool
RequestQueue::sealed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sealed_;
}

std::size_t
RequestQueue::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
}

std::size_t
RequestQueue::rejected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rejected_full_ + rejected_closed_;
}

std::size_t
RequestQueue::rejectedFull() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rejected_full_;
}

std::size_t
RequestQueue::rejectedClosed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rejected_closed_;
}

} // namespace cinnamon::serve
