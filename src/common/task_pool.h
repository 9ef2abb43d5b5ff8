/**
 * @file
 * Persistent process-wide worker pool: the one execution core every
 * parallel layer shares.
 *
 * Before this existed, a fork-join helper spawned (and joined) fresh
 * threads on every call, so each compiler pass, each emulated
 * instruction stream, and each serving worker paid thread-spawn cost
 * — and concurrent requests each spawned their own gang, oversub-
 * scribing the host. TaskPool replaces all of that with one lazily
 * created pool (`TaskPool::global()`, sized from `CINNAMON_WORKERS`
 * or hardware concurrency) that every layer submits to.
 *
 * Determinism contract (the reason the emulator and compiler can use
 * this freely):
 *
 *  - Static partitioning. `forEach(n, fn)` splits [0, n) into
 *    contiguous chunks whose boundaries depend only on (n, effective
 *    parallelism) — never on timing. Which *thread* runs a chunk is
 *    dynamic (idle workers steal, the submitter assists), but every
 *    index runs exactly once with the same arguments, so any
 *    data-race-free body produces bit-identical results at every
 *    worker count.
 *
 *  - Deterministic exception selection. Each chunk stops at its first
 *    throwing index; after the job completes, the exception with the
 *    LOWEST index is rethrown on the submitting thread. A serial run
 *    (parallelism 1) throws at the first failing index, which is the
 *    lowest failing index, so `workers=1` and `workers=N` surface the
 *    same exception — unlike the old fork-join helper, which kept
 *    whichever exception happened to be caught first and dropped the
 *    rest.
 *
 *  - Nested-submission safety. A pool worker may submit a sub-range
 *    mid-chunk (the emulator's limb slicing does): the nested job is
 *    enqueued and the submitter *assists* — it claims and runs its
 *    own job's chunks until none remain, then waits for stragglers.
 *    Idle workers pick nested chunks up too, so a 1-chip program on
 *    an 8-way pool still fans its limb slices out. The submitter can
 *    always drain its own job, so nesting never deadlocks.
 *
 * CPU binding. When the pool spawns its workers (at construction and
 * on resize()), it reads the process's affinity mask. If the mask
 * holds one CPU per worker besides the spawning thread's current CPU,
 * worker k is bound to the k-th such CPU in ascending order;
 * otherwise no worker is bound. On a host whose scheduler does not
 * balance load across CPUs, unbound workers stay on the CPU of the
 * thread that spawned them and a "parallel" job time-slices one CPU;
 * binding gives every worker a CPU of its own and leaves the
 * spawner's CPU to the submitter. There is no knob: CINNAMON_WORKERS
 * stays the one pool setting (at 1 there is no worker to bind).
 *
 * Metrics (process registry): pool.jobs, pool.jobs_nested,
 * pool.chunks, pool.chunks_stolen (run by a pool worker rather than
 * the submitter), pool.queue_depth, pool.workers, pool.workers_bound
 * (workers bound to a CPU at the last spawn).
 */

#ifndef CINNAMON_COMMON_TASK_POOL_H_
#define CINNAMON_COMMON_TASK_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cinnamon {

class TaskPool
{
  public:
    /**
     * @param parallelism total concurrency (worker threads + the
     *        submitting thread); 0 picks defaultParallelism(). A pool
     *        of parallelism 1 owns no threads and runs every job
     *        inline on the submitter.
     */
    explicit TaskPool(std::size_t parallelism = 0);
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /**
     * The process-wide pool. Created on first use with
     * defaultParallelism(), so CINNAMON_WORKERS sizes it for every
     * binary (spawned serving workers inherit it through execv).
     */
    static TaskPool &global();

    /**
     * `CINNAMON_WORKERS` when set (>= 1), else hardware concurrency
     * (>= 1). Read once per process.
     */
    static std::size_t defaultParallelism();

    /** Worker threads + 1 (the submitter always participates). */
    std::size_t parallelism() const { return threads_.size() + 1; }

    /**
     * Re-size the pool (joins current workers, spawns the new set and
     * binds it by the rule in the file comment). Must not race
     * in-flight jobs: call only at startup/shutdown boundaries.
     */
    void resize(std::size_t parallelism);

    /** True on a thread owned by this pool (inside a chunk). */
    bool onWorkerThread() const;

    /**
     * Run fn(i) for every i in [0, n), partitioned statically over at
     * most min(max_parallelism, parallelism()) participants
     * (max_parallelism 0 = no extra cap). A cap of 1, or n <= 1,
     * runs every index in order on the calling thread. Blocks until
     * every index ran; rethrows the lowest-index exception, if any.
     */
    template <typename Fn>
    void
    forEach(std::size_t n, std::size_t max_parallelism, Fn &&fn)
    {
        if (n == 0)
            return;
        std::size_t par = parallelism();
        if (max_parallelism != 0 && max_parallelism < par)
            par = max_parallelism;
        if (par > n)
            par = n;
        if (par <= 1) {
            for (std::size_t i = 0; i < n; ++i)
                fn(i);
            return;
        }
        std::function<void(std::size_t)> body(std::ref(fn));
        runJob(n, par, body);
    }

    template <typename Fn>
    void
    forEach(std::size_t n, Fn &&fn)
    {
        forEach(n, 0, std::forward<Fn>(fn));
    }

  private:
    /**
     * One submitted parallel loop. Chunk boundaries are fixed at
     * submission ([c*n/chunks, (c+1)*n/chunks)); the claim counter
     * only decides which thread runs a chunk.
     */
    struct Job
    {
        std::function<void(std::size_t)> *fn = nullptr;
        std::size_t n = 0;
        std::size_t chunks = 0;
        std::atomic<std::size_t> next_chunk{0};
        std::atomic<std::size_t> unfinished{0};

        /** Lowest-index exception across chunks. */
        std::mutex err_mutex;
        std::size_t err_index = 0;
        std::exception_ptr err;

        std::mutex done_mutex;
        std::condition_variable done_cv;
    };

    void runJob(std::size_t n, std::size_t chunks,
                std::function<void(std::size_t)> &fn);

    /**
     * Claim and execute one chunk of `job`. Returns false when no
     * unclaimed chunk remained.
     */
    bool assistOne(Job &job, bool stolen);

    void workerLoop();
    void spawn(std::size_t threads);
    void joinAll();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<Job>> queue_;
    std::vector<std::thread> threads_;
    bool stop_ = false;
};

} // namespace cinnamon

#endif // CINNAMON_COMMON_TASK_POOL_H_
