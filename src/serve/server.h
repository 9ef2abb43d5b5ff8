/**
 * @file
 * The multi-tenant serving runtime.
 *
 * A Server owns the whole pipeline a Cinnamon deployment needs to go
 * from "request arrived" to "encrypted result + latency numbers":
 *
 *   submit() → Settlement (ids, bounded RequestQueue admission)
 *            → BatchFormer (up to batch_max_streams compatible
 *              requests) → worker pool (std::thread)
 *            → ChipGroupScheduler (one exclusive chip group/member)
 *            → RequestExecutor (plan, sim timing, emulated probe,
 *              device dwell)
 *            → Settlement (response row: latency split, simulated
 *              time, output hash; retry, expiry or failure)
 *
 * There is one execution path. Every attempt is a batch: k
 * compatible requests run as one k-stream program on k chip groups,
 * and a request served alone is a batch of one (the default
 * batch_max_streams = 1 forms nothing else). Each member's workload
 * kernels are timed on its group through the shared compile/sim
 * cache and, at small parameter sets, the catalog probe runs
 * end-to-end — request-seeded keys, encryption, compiled ISA on the
 * functional emulator — so the serving path is continuously
 * validated, not just timed. If `time_dilation` is set, the attempt
 * additionally holds the batch's groups for the slowest member's
 * `sim_seconds * time_dilation` wall-clock seconds, modelling the
 * accelerator's real occupancy (the host thread waits on the
 * device); that is what makes multi-worker runs overlap device time
 * across groups, exactly as a real serving tier overlaps accelerator
 * work.
 *
 * Determinism contract: a request's output hash depends only on
 * (request seed, workload catalog, parameter set) — never on worker
 * count, batch width, scheduling order, or cache state. Concurrent
 * and serial runs of the same trace are bit-identical.
 *
 * Resilience (DESIGN.md §5c): when ServeOptions::faults enables a
 * fault schedule, attempts can suffer injected chip death, transient
 * execution errors, or link degradation. The Server quarantines a
 * chip-fault victim's group before the attempt runs, and a health
 * probe re-admits repaired groups; everything else — bounded retries
 * with seeded backoff, never past the deadline — is the settlement
 * policy it shares with the distributed front-end
 * (serve/settlement.h). Its workers sleep a retry's backoff before
 * requeueing. Fault decisions are pure functions of (fault seed,
 * request seed, attempt), so the determinism contract survives: a
 * retried request's output hash equals the unfaulted run's.
 */

#ifndef CINNAMON_SERVE_SERVER_H_
#define CINNAMON_SERVE_SERVER_H_

#include <condition_variable>
#include <memory>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "faults/fault_plan.h"
#include "serve/batcher.h"
#include "serve/executor.h"
#include "serve/scheduler.h"
#include "serve/settlement.h"
#include "serve/stats.h"

namespace cinnamon::serve {

/** Deployment shape of one serving replica. */
struct ServeOptions
{
    std::size_t chips = 8;       ///< simulated machine size
    std::size_t group_size = 4;  ///< chips per ciphertext stream
    std::size_t workers = 2;     ///< host worker threads
    std::size_t queue_capacity = 64;
    /** Run the end-to-end emulator probe per request (small n only). */
    bool emulate = true;
    /**
     * Ring dimension above which the probe is skipped. The flat
     * limb-plane data plane (Shoup/Harvey NTT kernels, arena-backed
     * emulator memory) made bit-exact emulation >3x faster, so the
     * default covers one ring-dimension step beyond the old 1<<12.
     */
    std::size_t emulate_max_n = 1 << 14;
    /**
     * Wall-clock seconds a chip group stays occupied per simulated
     * second (device-occupancy modelling). 0 disables the dwell.
     */
    double time_dilation = 0.0;
    /**
     * Record per-request spans (queue → acquire → simulate → probe →
     * dwell) into the server's TraceRecorder, exportable as Chrome
     * trace-event JSON via trace().
     */
    bool trace = false;
    sim::HardwareConfig hw; ///< per-chip model (hw.n set from ctx)
    /**
     * Deterministic fault schedule (chip death, transient errors,
     * link degradation). Disabled by default; see faults/fault_plan.h.
     */
    faults::FaultConfig faults;
    /** Retry policy for faulted attempts. */
    RetryPolicy retry;
    /**
     * Poll interval of the health probe that re-admits quarantined
     * groups once their repair time elapsed (runs only when faults
     * are enabled).
     */
    double health_probe_interval_ms = 10.0;
    /**
     * Continuous cross-request batching: coalesce up to this many
     * compatible queued requests (same workload shape) into one
     * multi-stream program spanning that many chip groups, one
     * member per group. 1 (the default) makes every batch a batch of
     * one; the execution path is the same at any width, and digests
     * are bit-identical either way.
     */
    std::size_t batch_max_streams = 1;
    /**
     * How long a short batch lingers for compatible arrivals before
     * dispatching anyway (only with batch_max_streams > 1).
     */
    double batch_linger_ms = 2.0;
    /**
     * Autotune the execution plan per workload: the PlanTuner
     * evaluates every registry strategy × stream split on this
     * machine's hardware model and the winner drives both the sim
     * timing and the probe's compile config. The decision is a pure
     * function of (workload, hardware), so distributed digests stay
     * bit-identical to in-process runs. Ignored when `strategy` is
     * set.
     */
    bool autotune = false;
    /**
     * Force one named StrategyRegistry strategy for every request
     * ("" = the default compile config). Unknown names throw at
     * request time with the registry's list.
     */
    std::string strategy;
};

class Server
{
  public:
    Server(const fhe::CkksContext &ctx, ServeOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Spawn the worker pool and open the queue. */
    void start();

    /**
     * Admit a request.
     *
     * @return false when the request was not admitted. The recorded
     *         Response distinguishes why: a queue-full bounce is
     *         backpressure and marked `retryable` — the caller should
     *         retry once the queue drains — while a submit after
     *         shutdown began is permanent (`retryable` false).
     */
    bool submit(Workload workload, uint64_t seed,
                std::chrono::milliseconds deadline =
                    std::chrono::milliseconds(0));

    /**
     * Stop admitting, drain every queued request, and join the pool.
     * After this returns, responses() and stats() are final.
     */
    void drainAndStop();

    /** Responses recorded so far (complete after drainAndStop). */
    std::vector<Response> responses() const;

    /** Aggregate statistics for the run so far. */
    ServeStats stats() const;

    const ChipGroupScheduler &scheduler() const { return *scheduler_; }
    const PlanCache &planCache() const
    {
        return executor_.planCache();
    }

    /** Per-request span recorder (populated when options.trace). */
    const TraceRecorder &trace() const { return trace_; }

  private:
    /**
     * Worker loop: forms batches of up to batch_max_streams
     * compatible requests through the BatchFormer and processes each.
     */
    void batchedWorkerLoop(std::size_t worker);

    /**
     * Serve one batch attempt: lease one chip group per member (the
     * surplus goes back to the queue), quarantine chip-fault victims,
     * run the attempt through the RequestExecutor, and settle every
     * member, sleeping one shared backoff before any retries.
     */
    void processBatch(std::vector<Request> batch, std::size_t worker);

    /**
     * Sleep the longest of the retries' backoffs once — the members
     * shared one attempt, they share one backoff — then requeue them.
     */
    void backOff(std::vector<Retry> retries, std::size_t worker);

    /**
     * Health-probe loop: periodically re-admits quarantined groups
     * whose repair time elapsed. Runs only when faults are enabled.
     */
    void healthProbeLoop();

    ServeOptions options_;
    /** Plan choice, sim timing, and the probe; shared by workers. */
    RequestExecutor executor_;
    /** Admission, the queue, and every response row. */
    Settlement settlement_;
    std::unique_ptr<BatchFormer> batcher_;
    std::unique_ptr<ChipGroupScheduler> scheduler_;

    std::vector<std::thread> workers_;
    TraceRecorder trace_;

    /** Health-probe lifecycle (thread runs start → drainAndStop). */
    std::thread health_probe_;
    std::mutex probe_mutex_;
    std::condition_variable probe_cv_;
    bool probe_stop_ = false;
};

} // namespace cinnamon::serve

#endif // CINNAMON_SERVE_SERVER_H_
