#include "common/task_pool.h"

#include <algorithm>
#include <cstdlib>

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/metrics.h"

namespace cinnamon {
namespace {

/** Set while a thread runs chunks for a pool (nested-job detection). */
thread_local const TaskPool *t_owning_pool = nullptr;

struct PoolMetrics
{
    Counter &jobs;
    Counter &jobs_nested;
    Counter &chunks;
    Counter &chunks_stolen;
    Gauge &queue_depth;
    Gauge &workers;
    Gauge &workers_bound;
};

/** Registry lookups lock a map; resolve the instruments once. */
PoolMetrics &
poolMetrics()
{
    static PoolMetrics m{
        MetricsRegistry::global().counter("pool.jobs"),
        MetricsRegistry::global().counter("pool.jobs_nested"),
        MetricsRegistry::global().counter("pool.chunks"),
        MetricsRegistry::global().counter("pool.chunks_stolen"),
        MetricsRegistry::global().gauge("pool.queue_depth"),
        MetricsRegistry::global().gauge("pool.workers"),
        MetricsRegistry::global().gauge("pool.workers_bound"),
    };
    return m;
}

/**
 * The CPUs `workers` new pool threads are bound to: the process
 * mask's CPUs other than the calling (spawning) thread's current one,
 * ascending, when there is one for every worker; otherwise none, and
 * the workers keep the mask they inherit.
 */
std::vector<int>
bindingCpus(std::size_t workers)
{
    std::vector<int> cpus;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (workers == 0 ||
        sched_getaffinity(getpid(), sizeof(mask), &mask) != 0)
        return cpus;
    const int self = sched_getcpu();
    for (int c = 0; c < CPU_SETSIZE && cpus.size() < workers; ++c) {
        if (c != self && CPU_ISSET(c, &mask))
            cpus.push_back(c);
    }
    if (cpus.size() < workers)
        cpus.clear();
    return cpus;
}

/** Bind `thread` to `cpu`; false if the kernel refused. */
bool
bindToCpu(std::thread &thread, int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return pthread_setaffinity_np(thread.native_handle(), sizeof(one),
                                  &one) == 0;
}

} // namespace

TaskPool::TaskPool(std::size_t parallelism)
{
    if (parallelism == 0)
        parallelism = defaultParallelism();
    spawn(parallelism - 1);
}

TaskPool::~TaskPool()
{
    joinAll();
}

TaskPool &
TaskPool::global()
{
    static TaskPool pool;
    return pool;
}

std::size_t
TaskPool::defaultParallelism()
{
    static const std::size_t par = [] {
        if (const char *env = std::getenv("CINNAMON_WORKERS")) {
            const long v = std::atol(env);
            if (v >= 1)
                return static_cast<std::size_t>(v);
        }
        return std::max<std::size_t>(
            1, std::thread::hardware_concurrency());
    }();
    return par;
}

bool
TaskPool::onWorkerThread() const
{
    return t_owning_pool == this;
}

void
TaskPool::spawn(std::size_t threads)
{
    const std::vector<int> cpus = bindingCpus(threads);
    std::size_t bound = 0;
    threads_.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        threads_.emplace_back([this] { workerLoop(); });
        if (!cpus.empty())
            bound += bindToCpu(threads_.back(), cpus[t]);
    }
    poolMetrics().workers.set(static_cast<double>(parallelism()));
    poolMetrics().workers_bound.set(static_cast<double>(bound));
}

void
TaskPool::joinAll()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &t : threads_)
        t.join();
    threads_.clear();
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = false;
}

void
TaskPool::resize(std::size_t parallelism)
{
    if (parallelism == 0)
        parallelism = defaultParallelism();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CINN_ASSERT(queue_.empty(),
                    "TaskPool::resize with jobs in flight");
    }
    if (parallelism == this->parallelism())
        return;
    joinAll();
    spawn(parallelism - 1);
}

bool
TaskPool::assistOne(Job &job, bool stolen)
{
    const std::size_t c =
        job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunks)
        return false;
    poolMetrics().chunks.add(1);
    if (stolen)
        poolMetrics().chunks_stolen.add(1);

    // Static boundaries: a pure function of (n, chunks, c).
    const std::size_t lo = c * job.n / job.chunks;
    const std::size_t hi = (c + 1) * job.n / job.chunks;
    std::size_t i = lo;
    try {
        for (; i < hi; ++i)
            (*job.fn)(i);
    } catch (...) {
        // First failure wins *within* the chunk (the loop stops);
        // the lowest index wins across chunks.
        std::lock_guard<std::mutex> lock(job.err_mutex);
        if (!job.err || i < job.err_index) {
            job.err = std::current_exception();
            job.err_index = i;
        }
    }

    if (job.unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(job.done_mutex);
        job.done_cv.notify_all();
    }
    return true;
}

void
TaskPool::runJob(std::size_t n, std::size_t chunks,
                 std::function<void(std::size_t)> &fn)
{
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->n = n;
    job->chunks = chunks;
    job->unfinished.store(chunks, std::memory_order_relaxed);

    const bool nested = onWorkerThread();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(job);
        poolMetrics().queue_depth.set(
            static_cast<double>(queue_.size()));
    }
    cv_.notify_all();
    poolMetrics().jobs.add(1);
    if (nested)
        poolMetrics().jobs_nested.add(1);

    // Assist: drain our own job's chunks. This is what makes nested
    // submission deadlock-free — the submitter never depends on any
    // other thread to finish claiming.
    while (assistOne(*job, /*stolen=*/false)) {
    }
    {
        // Drop the job from the queue once fully claimed so idle
        // workers stop looking at it (any thread may get here first).
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (it->get() == job.get()) {
                queue_.erase(it);
                break;
            }
        }
        poolMetrics().queue_depth.set(
            static_cast<double>(queue_.size()));
    }
    {
        std::unique_lock<std::mutex> lock(job->done_mutex);
        job->done_cv.wait(lock, [&] {
            return job->unfinished.load(std::memory_order_acquire) ==
                   0;
        });
    }
    if (job->err)
        std::rethrow_exception(job->err);
}

void
TaskPool::workerLoop()
{
    t_owning_pool = this;
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [&] { return stop_ || !queue_.empty(); });
            if (stop_)
                return;
            job = queue_.front();
        }
        if (!assistOne(*job, /*stolen=*/true)) {
            // Fully claimed: retire it from the queue if it is still
            // there, then look for other work.
            std::lock_guard<std::mutex> lock(mutex_);
            for (auto it = queue_.begin(); it != queue_.end(); ++it) {
                if (it->get() == job.get()) {
                    queue_.erase(it);
                    break;
                }
            }
            poolMetrics().queue_depth.set(
                static_cast<double>(queue_.size()));
        }
    }
}

} // namespace cinnamon
