/**
 * @file
 * The chip-group worker process of the distributed serving tier
 * (DESIGN.md §5d).
 *
 * A worker owns exactly one chip group of the logical machine and
 * runs the same compile → simulate → emulate pipeline the in-process
 * server runs, behind a TCP connection instead of a function call:
 *
 *   connect → Hello/HelloAck handshake → loop { Submit → execute →
 *   Result } → Drain → DrainAck → exit
 *
 * Every Submit executes as a batch — a lone request is a batch of
 * one — through one RequestExecutor::run call, the same attempt the
 * in-process server runs (serve/executor.h): the workload's kernels
 * are timed through its BenchmarkRunner, the catalog probe is
 * emulated end-to-end with per-member request-seeded keys via
 * exec::EmulateBackend::executeSeededBatch, and the device dwells
 * for time_dilation — so a request's output digest is a pure
 * function of (seed, catalog, parameters), identical whether it was
 * served in-process or by any worker process, alone or batched. That
 * is the distributed tier's determinism contract. The worker only
 * maps each member's outcome onto its Result.
 *
 * A heartbeat thread beats every heartbeat_interval_ms for the whole
 * worker lifetime, including while a request is executing — liveness
 * and request latency are deliberately decoupled, so a slow request
 * is never mistaken for a dead worker.
 *
 * Fault injection: the worker draws from the same deterministic
 * FaultPlan as the in-process server. Chip and transient faults come
 * back in the Result with the executor's retryable and chip_failed
 * flags, and the front-end settles them under the shared policy
 * (serve/settlement.h); a conn-drop fault makes the worker sever its
 * connection mid-request and exit with kConnDropExit —
 * indistinguishable, to the front-end, from a real crash or
 * partition.
 */

#ifndef CINNAMON_SERVE_REMOTE_WORKER_H_
#define CINNAMON_SERVE_REMOTE_WORKER_H_

#include <cstdint>
#include <string>

#include "faults/fault_plan.h"
#include "fhe/params.h"
#include "sim/hardware.h"

namespace cinnamon::serve::remote {

/** Exit code of a worker that drew an injected connection drop. */
constexpr int kConnDropExit = 86;

/** Deployment shape of one worker process. */
struct WorkerOptions
{
    uint16_t port = 0;       ///< front-end's loopback port
    uint64_t worker_id = 0;  ///< stable identity across reconnects
    std::size_t group_size = 4; ///< chips in this worker's group
    /** Run the end-to-end emulator probe per request (small n only). */
    bool emulate = true;
    std::size_t emulate_max_n = 1 << 14;
    /**
     * Wall-clock seconds the group stays occupied per simulated
     * second (device-occupancy modelling, as in ServeOptions).
     */
    double time_dilation = 0.0;
    double heartbeat_interval_ms = 20.0;
    /** How long to keep retrying the initial connect. */
    double connect_timeout_ms = 5000.0;
    sim::HardwareConfig hw; ///< per-chip model (hw.n set from ctx)
    /** Deterministic fault schedule (same semantics as ServeOptions). */
    faults::FaultConfig faults;
    /**
     * Autotune the execution plan per workload (same semantics as
     * ServeOptions::autotune). The worker's PlanTuner sees the same
     * (workload, hardware) inputs as the in-process server's, so both
     * sides compute identical decisions — and identical digests.
     */
    bool autotune = false;
    /** Force one named registry strategy ("" = default config). */
    std::string strategy;
};

/**
 * Run one worker process to completion: serve requests until the
 * front-end drains us or the connection is lost.
 *
 * @return 0 after an orderly drain, kConnDropExit after an injected
 *         connection drop, 1 on connection/handshake failure.
 */
int runWorker(const fhe::CkksContext &ctx, const WorkerOptions &options);

} // namespace cinnamon::serve::remote

#endif // CINNAMON_SERVE_REMOTE_WORKER_H_
