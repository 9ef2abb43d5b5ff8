/**
 * @file
 * Shared helpers for the experiment-reproduction binaries.
 *
 * Every bench builds a paper-scale CKKS context (N = 64K) once,
 * compiles kernels through the full compiler, and prints the rows or
 * series of the corresponding paper table/figure. Absolute times come
 * from our simulator and will not match the authors' testbed; the
 * *shape* (who wins, by what factor, where scaling saturates) is the
 * reproduction target — see EXPERIMENTS.md.
 */

#ifndef CINNAMON_BENCH_BENCH_UTIL_H_
#define CINNAMON_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "common/task_pool.h"
#include "compiler/lowering.h"
#include "compiler/strategy.h"
#include "fhe/params.h"
#include "rns/kernels.h"
#include "sim/hardware.h"
#include "sim/simulator.h"

namespace cinnamon::bench {

/** Paper-scale context with a chain of `levels` ciphertext primes. */
inline std::unique_ptr<fhe::CkksContext>
makePaperContext(std::size_t levels = 52)
{
    fhe::CkksParams p = fhe::CkksParams::makePaper();
    p.levels = levels;
    p.special = (levels + p.dnum - 1) / p.dnum;
    return std::make_unique<fhe::CkksContext>(p);
}

/** The per-chip hardware model used by a Cinnamon-N machine. */
inline sim::HardwareConfig
cinnamonHw(std::size_t chips)
{
    sim::HardwareConfig hw = sim::HardwareConfig::cinnamonChip();
    hw.topology = chips > 8 ? sim::Topology::Switch
                            : sim::Topology::Ring;
    return hw;
}

/**
 * The machine shape a measurement was taken on, as JSON members
 * without braces: "nproc", "pool_workers" (the shared TaskPool's
 * parallelism) and "avx512_ifma". Baselines record it, so a speed-up
 * is only compared against one taken on a machine of the same shape.
 */
inline std::string
machineShapeFields()
{
    char out[96];
    std::snprintf(out, sizeof(out),
                  "\"nproc\": %u, \"pool_workers\": %zu, "
                  "\"avx512_ifma\": %s",
                  std::thread::hardware_concurrency(),
                  TaskPool::global().parallelism(),
                  rns::avx512KernelTable() != nullptr ? "true"
                                                      : "false");
    return out;
}

inline void
printHeader(const std::string &title)
{
    std::printf("\n==== %s ====\n", title.c_str());
}

/**
 * The CompilerConfig a named strategy denotes on a `chips`-chip
 * machine: the registry entry's ks options and stream hint, with the
 * strategy name recorded so plan-cache keys stay distinct. Sequential
 * strategies compile for one chip regardless of the machine.
 * `streams` overrides the entry's hint when >= 1 (the fig13 PP rung
 * composes two single-stream compiles instead of one 2-stream one).
 */
inline compiler::CompilerConfig
strategyConfig(const compiler::CompileStrategy &strategy,
               std::size_t chips, int streams = 0)
{
    compiler::CompilerConfig cfg;
    cfg.chips = strategy.sequential ? 1 : chips;
    cfg.num_streams = streams >= 1 ? streams : strategy.streams;
    cfg.ks = strategy.ks;
    cfg.strategy = strategy.name;
    return cfg;
}

/** Compile `prog` under `cfg` (the one-shot helper every bench used
 *  to re-implement privately). */
inline compiler::CompiledProgram
compileWith(const fhe::CkksContext &ctx,
            const compiler::Program &prog,
            const compiler::CompilerConfig &cfg)
{
    compiler::Compiler comp(ctx, cfg);
    return comp.compile(prog);
}

/** Simulated seconds of `prog` compiled under `cfg`, run on `hw`. */
inline double
timeOf(const fhe::CkksContext &ctx, const compiler::Program &prog,
       const compiler::CompilerConfig &cfg,
       const sim::HardwareConfig &hw)
{
    return sim::simulate(compileWith(ctx, prog, cfg).machine, hw)
        .seconds;
}

} // namespace cinnamon::bench

#endif // CINNAMON_BENCH_BENCH_UTIL_H_
