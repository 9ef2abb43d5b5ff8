/**
 * @file
 * The one execution core behind both serving faces.
 *
 * The in-process Server and every distributed worker process run an
 * attempt the same way: pick the workload's plan, time each batch
 * member's kernels on the simulator, then emulate the catalog probe
 * for the whole batch as one multi-stream program with per-member
 * seeded keys. A request served alone is a batch of one: its program
 * is the probe itself, compiled under the same plan-cache key.
 *
 * RequestExecutor owns everything that pipeline touches — the
 * catalog, the BenchmarkRunner, the PlanCache, the PlanTuner, the
 * encoder, the emulator arenas, and the fault schedule — so the two
 * faces cannot drift apart, and a member's digest is a pure function
 * of (seed, catalog, parameters) whichever face served it.
 *
 * run() is the whole attempt: plan → sim timing → probe → device
 * dwell → each member's outcome. A transient fault is applied after
 * the run and its dwell — the device did the work; only the member's
 * result is lost. Any throw aborts the whole batch. What stays with
 * the callers: leasing, quarantine and spans (Server), the wire
 * mapping and connection drops (worker), and settling the outcomes
 * (serve/settlement.h).
 */

#ifndef CINNAMON_SERVE_EXECUTOR_H_
#define CINNAMON_SERVE_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/trace.h"
#include "faults/fault_plan.h"
#include "fhe/encoder.h"
#include "isa/emulator.h"
#include "serve/catalog.h"
#include "serve/plan_cache.h"
#include "serve/tuner.h"
#include "workloads/benchmarks.h"

namespace cinnamon::serve {

/** Runs batch attempts; thread-safe, shared by all host workers. */
class RequestExecutor
{
  public:
    /** The execution fields of ServeOptions / WorkerOptions. */
    struct Config
    {
        /** Chips per member stream (one chip group). */
        std::size_t group_size = 4;
        /** Emulate the probe (only up to ring dimension below). */
        bool emulate = true;
        std::size_t emulate_max_n = 1 << 14;
        /** Wall seconds of device dwell per simulated second. */
        double time_dilation = 0.0;
        /** Per-chip model; hw.n is set from the context. */
        sim::HardwareConfig hw;
        faults::FaultConfig faults;
        /** Tune the plan per workload (ignored if strategy set). */
        bool autotune = false;
        /** Forced registry strategy ("" = default config). */
        std::string strategy;
    };

    /** How one member's attempt ended. */
    struct Outcome
    {
        enum Kind {
            Completed, ///< the member's result came back
            Lost,      ///< a transient fault lost it after the run
            Aborted,   ///< the whole batch aborted
        };
        Kind kind = Completed;
        double sim_seconds = 0.0;
        /** Host ms compiling for this member (0 = all hits). */
        double compile_ms = 0.0;
        uint64_t digest = 0; ///< 0 unless Completed and emulated
        std::string error;   ///< why no result came back
        /** An injected fault explains the loss: retry it. */
        bool retryable = false;
        /** A chip of the batch died: quarantine and requeue. */
        bool chip_failed = false;
    };

    /**
     * Opens the span of one phase of an attempt ("simulate",
     * "probe", "dwell"); empty = no spans.
     */
    using SpanFn = std::function<ScopedSpan(const char *name)>;

    RequestExecutor(const fhe::CkksContext &ctx, Config config);

    RequestExecutor(const RequestExecutor &) = delete;
    RequestExecutor &operator=(const RequestExecutor &) = delete;

    /**
     * The faults attempt `attempt` of the request seeded `seed`
     * suffers — a pure function of (fault seed, seed, attempt), so a
     * member's fate is the same batched or alone. All-clear when the
     * schedule is disabled.
     */
    faults::FaultDecision decide(uint64_t seed,
                                 std::size_t attempt) const;

    /**
     * Run one attempt of a batch of `workload` requests: member i is
     * stream i of replicateStreams(probe, k) on chips [i·g, (i+1)·g),
     * with keys and inputs drawn from seeds[i] and faults from
     * fates[i]. Every member gets its simulated timing and digest,
     * then the device dwells for the slowest member's sim_seconds ×
     * time_dilation. A transient member's result is lost afterwards.
     * A throw — the first chip-fault member's victim dying
     * mid-program, or a program error — aborts every member under
     * one rule: retryable when any member drew a fault, chip_failed
     * when any member's chip died. Books
     * faults.injected.{chip,transient,link} for every member.
     */
    std::vector<Outcome>
    run(Workload workload, const std::vector<uint64_t> &seeds,
        const std::vector<faults::FaultDecision> &fates,
        const SpanFn &span = nullptr);

    const PlanCache &planCache() const { return plans_; }
    /** BenchmarkRunner compile + sim cache counters. */
    CacheStats runnerStats() const { return runner_.cacheStats(); }
    CacheStats tunerStats() const { return tuner_.stats(); }

  private:
    /**
     * The plan a workload runs under: the forced strategy, the
     * autotuned winner, or the default config. `strategy` feeds the
     * probe's CompilerConfig; `ks` and `sim_group` the sim timing.
     */
    struct PlanChoice
    {
        std::string strategy;
        compiler::KsPassOptions ks;
        std::size_t sim_group = 0;
    };

    /**
     * The workload's plan, decided on the undilated hardware model:
     * an injected link degradation can never change what gets
     * compiled — and thereby a retried request's digest.
     */
    PlanChoice planFor(Workload workload);

    /**
     * Simulated timing of every member on its own group (the first
     * member of a kind compiles, the rest hit the runner's cache). A
     * member with a degraded link times under the dilated config.
     */
    void simulate(Workload workload, const PlanChoice &plan,
                  const std::vector<faults::FaultDecision> &fates,
                  std::vector<Outcome> &out);

    /** True when probe() emulates. */
    bool emulates() const;

    /**
     * Emulate the batched probe into the members' digests. A
     * chip-fault member's victim dies mid-program and the call
     * throws (isa::EmulatorError); with emulation off, the same
     * fault throws faults::ChipFailedError.
     */
    void probe(const PlanChoice &plan,
               const std::vector<uint64_t> &seeds,
               const std::vector<faults::FaultDecision> &fates,
               std::vector<Outcome> &out);

    const fhe::CkksContext *ctx_;
    Config config_;
    WorkloadCatalog catalog_;
    workloads::BenchmarkRunner runner_;
    PlanCache plans_;
    PlanTuner tuner_;
    fhe::Encoder encoder_;
    /** Recycles emulator arenas across attempts. */
    isa::EmulatorCache emu_cache_;
    std::optional<faults::FaultPlan> fault_plan_;
};

} // namespace cinnamon::serve

#endif // CINNAMON_SERVE_EXECUTOR_H_
