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
 * What stays with the callers: leasing, quarantine, deadlines,
 * retries, and spans (Server), the wire mapping (worker), the device
 * dwell, and transient faults. A transient fault is applied after
 * the run and its dwell — the device did the work; only the member's
 * result is lost.
 */

#ifndef CINNAMON_SERVE_EXECUTOR_H_
#define CINNAMON_SERVE_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

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
        /** Per-chip model; hw.n is set from the context. */
        sim::HardwareConfig hw;
        faults::FaultConfig faults;
        /** Tune the plan per workload (ignored if strategy set). */
        bool autotune = false;
        /** Forced registry strategy ("" = default config). */
        std::string strategy;
    };

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

    /** What the batch's probe produced. */
    struct ProbeResult
    {
        /** Per-member output digests (0 when emulation is off). */
        std::vector<uint64_t> digests;
        /** Wall-clock ms compiling the batched probe (0 on a hit). */
        double compile_ms = 0.0;
    };

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
    std::vector<workloads::BenchTiming>
    simulate(Workload workload, const PlanChoice &plan,
             const std::vector<faults::FaultDecision> &fates);

    /** True when execute() emulates the probe. */
    bool emulates() const;

    /**
     * Run one attempt of the batch: member i is stream i of
     * replicateStreams(probe, k) on chips [i·g, (i+1)·g), with keys
     * and inputs drawn from seeds[i]. The first chip-fault member's
     * victim dies mid-program and the whole attempt throws
     * (isa::EmulatorError); with emulation off, the same fault
     * throws faults::ChipFailedError instead. Books
     * faults.injected.{chip,transient,link} for every member.
     */
    ProbeResult execute(
        const PlanChoice &plan, const std::vector<uint64_t> &seeds,
        const std::vector<faults::FaultDecision> &fates);

    const PlanCache &planCache() const { return plans_; }
    /** BenchmarkRunner compile + sim cache counters. */
    CacheStats runnerStats() const { return runner_.cacheStats(); }
    CacheStats tunerStats() const { return tuner_.stats(); }

  private:
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
