/**
 * @file
 * Compile-latency smoke benchmark for the staged pass pipeline.
 *
 * Compiles a multi-stream bootstrap program twice — once with the
 * worker pool disabled (compile_workers = 1) and once on the whole
 * shared TaskPool (compile_workers = 0) — and prints one JSON
 * object per line with the wall-clock numbers. Limb lowering
 * parallelizes over independent stream units, and ISA emission,
 * register allocation and the preload table over chips, so the
 * parallel run should show a measurable wall-time reduction while
 * producing a byte-identical program (the equivalence itself is
 * asserted by tests/test_pipeline.cc; this binary only times it).
 *
 * `paper_ms` times the paper-scale shape perfbench's compile_paper
 * exercises: a cold compile of the N = 64K bootstrap kernel on
 * Cinnamon-4 (best of `reps`). The object also records the machine
 * shape (nproc, pool workers, IFMA).
 *
 *   build/bench/compile_time [streams] [reps]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "bench_util.h"
#include "compiler/dsl.h"
#include "compiler/lowering.h"
#include "fhe/params.h"
#include "workloads/kernels.h"

using namespace cinnamon;

namespace {

double
compileMs(const fhe::CkksContext &ctx, const compiler::Program &prog,
          const compiler::CompilerConfig &cfg)
{
    compiler::Compiler comp(ctx, cfg);
    const auto start = std::chrono::steady_clock::now();
    auto out = comp.compile(prog);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    // Touch the result so the compile cannot be optimized away.
    if (out.machine.totalInstructions() == 0)
        std::abort();
    return ms;
}

double
streamsCompileMs(const fhe::CkksContext &ctx,
                 const compiler::Program &prog, std::size_t streams,
                 std::size_t workers)
{
    compiler::CompilerConfig cfg;
    cfg.chips = 2 * streams;
    cfg.num_streams = streams;
    cfg.phys_regs = 64;
    cfg.compile_workers = workers;
    return compileMs(ctx, prog, cfg);
}

/** Best-of-`reps` cold compile of the N = 64K bootstrap on C-4. */
double
paperCompileMs(int reps)
{
    const auto ctx = bench::makePaperContext();
    const auto kernel = workloads::bootstrapKernel(
        *ctx, workloads::BootstrapShape::bootstrap13());
    // BenchmarkRunner's configuration for one four-chip group.
    compiler::CompilerConfig cfg;
    cfg.chips = 4;
    cfg.phys_regs = bench::cinnamonHw(4).phys_regs;
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r)
        best = std::min(best, compileMs(*ctx, kernel, cfg));
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t streams =
        argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 4;
    const int reps = argc > 2 ? std::atoi(argv[2]) : 3;

    // Mid-size context: big enough that lowering dominates, small
    // enough for a CI smoke run.
    auto params = fhe::CkksParams::makeTest(1 << 10, 16, 4);
    fhe::CkksContext ctx(params);

    workloads::BootstrapShape shape;
    shape.start_level = ctx.maxLevel();
    shape.c2s_stages = 2;
    shape.s2c_stages = 2;
    shape.bsgs_baby = 3;
    shape.bsgs_giant = 3;
    shape.evalmod_depth = 6;
    auto kernel = workloads::bootstrapKernel(ctx, shape);
    auto prog = compiler::replicateStreams(
        kernel, static_cast<int>(streams));

    // Best-of-reps to damp scheduler noise in CI.
    double serial_ms = std::numeric_limits<double>::infinity();
    double parallel_ms = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        serial_ms = std::min(serial_ms,
                             streamsCompileMs(ctx, prog, streams, 1));
        parallel_ms = std::min(parallel_ms,
                               streamsCompileMs(ctx, prog, streams, 0));
    }
    const double paper_ms = paperCompileMs(reps);

    std::printf("{\"benchmark\":\"compile_time\","
                "\"program\":\"bootstrap_x%zu\","
                "\"ops\":%zu,\"chips\":%zu,\"streams\":%zu,"
                "%s,\"reps\":%d,"
                "\"serial_ms\":%.3f,\"parallel_ms\":%.3f,"
                "\"speedup\":%.3f,\"paper_ms\":%.3f}\n",
                streams, prog.ops().size(), 2 * streams, streams,
                bench::machineShapeFields().c_str(), reps, serial_ms,
                parallel_ms, serial_ms / parallel_ms, paper_ms);
    return 0;
}
