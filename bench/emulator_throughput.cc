/**
 * @file
 * Emulator throughput benchmark for the flat limb-plane data plane.
 *
 * Runs the compiled keyswitch kernel through exec::EmulateBackend
 * across ring dimensions and chip counts and prints one JSON object
 * per configuration (limb ops executed, wall ms, limb ops/s). Each
 * configuration is measured twice — serial chip advance (workers = 1)
 * and pooled (workers = the shared TaskPool's parallelism) — and the
 * ratio is booked into the emulator.parallel_speedup gauge; the two
 * runs are also checked to produce identical output digests, so the
 * benchmark doubles as a quick determinism smoke test. Every row
 * carries the machine shape (nproc, pool workers, IFMA), so
 * scripts/check_bench.py gates parallel_speedup between like
 * machines only.
 *
 *   build/bench/emulator_throughput [reps]
 *
 * EXPERIMENTS.md records before/after numbers from this harness (the
 * "before" rows were taken with an identical workload shape against
 * the pre-refactor tree).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/task_pool.h"
#include "exec/backend.h"
#include "fhe/evaluator.h"
#include "workloads/benchmarks.h"
#include "workloads/kernels.h"

using namespace cinnamon;

namespace {

struct Measurement
{
    double wall_ms = 0;
    double limb_ops = 0;
    uint64_t digest = 0;
};

Measurement
measure(compiler::ProgramRuntime &runtime,
        const compiler::CompiledProgram &compiled, std::size_t workers,
        int reps)
{
    exec::EmulateBackend backend(runtime, workers);
    // Warm run: materializes plaintext/key caches and arena slots.
    auto report = backend.execute(compiled);
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        report = backend.execute(compiled);
    const auto t1 = std::chrono::steady_clock::now();
    Measurement m;
    m.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() /
        reps;
    m.limb_ops = static_cast<double>(report.emu_stats.total());
    m.digest = report.digest;
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const int base_reps = argc > 1 ? std::atoi(argv[1]) : 4;
    const std::size_t pool_workers = TaskPool::global().parallelism();
    const std::string shape = bench::machineShapeFields();
    std::printf("[\n");
    bool first = true;
    for (std::size_t logn : {12u, 13u, 14u, 15u}) {
        const std::size_t n = 1ull << logn;
        fhe::CkksContext ctx(fhe::CkksParams::makeTest(n, 12, 3));
        fhe::Encoder encoder(ctx);
        fhe::KeyGenerator keygen(ctx, 42);
        auto sk = keygen.secretKey();
        fhe::Evaluator eval(ctx);
        workloads::BenchmarkRunner runner(ctx);
        auto kernel = workloads::keyswitchKernel(ctx, 8);
        // The large ring runs the single-chip shape (intra-op limb
        // slicing + kernel improvements carry it — there is no chip
        // parallelism to hide behind) and the full 8-chip machine.
        const std::vector<std::size_t> chip_set =
            logn >= 15 ? std::vector<std::size_t>{1u, 8u}
                       : std::vector<std::size_t>{2u, 4u};
        for (std::size_t chips : chip_set) {
            const auto &compiled = runner.compiled(kernel, chips, 64, {});
            Rng rng(7);
            std::vector<fhe::Cplx> values(ctx.slots());
            for (auto &v : values)
                v = fhe::Cplx(rng.uniformReal(-1.0, 1.0), 0.0);
            auto plain = encoder.encode(values, 8);
            auto ct = eval.encrypt(plain, ctx.params().scale, sk, rng);
            compiler::ProgramRuntime runtime(ctx, encoder, keygen, sk);
            runtime.bindInput("x", ct);

            const int reps =
                logn >= 14 ? (base_reps + 1) / 2 : base_reps;
            const auto serial = measure(runtime, compiled, 1, reps);
            const auto pooled =
                measure(runtime, compiled, pool_workers, reps);
            if (serial.digest != pooled.digest) {
                std::fprintf(stderr,
                             "FATAL: serial/parallel digest mismatch "
                             "at n=%zu chips=%zu\n",
                             n, chips);
                return 1;
            }
            const double speedup = pooled.wall_ms > 0
                                       ? serial.wall_ms / pooled.wall_ms
                                       : 1.0;
            MetricsRegistry::global()
                .gauge("emulator.parallel_speedup")
                .set(speedup);
            std::printf(
                "%s  {\"variant\": \"after\", \"n\": %zu, "
                "\"chips\": %zu, \"limb_ops\": %.0f, "
                "\"wall_ms\": %.2f, \"limb_ops_per_s\": %.0f, "
                "\"pool_wall_ms\": %.2f, %s, "
                "\"parallel_speedup\": %.2f, \"digest\": \"%016llx\"}",
                first ? "" : ",\n", n, chips, serial.limb_ops,
                serial.wall_ms,
                serial.limb_ops / (serial.wall_ms / 1e3),
                pooled.wall_ms, shape.c_str(), speedup,
                static_cast<unsigned long long>(serial.digest));
            first = false;
            std::fflush(stdout);
        }
    }
    std::printf("\n]\n");
    return 0;
}
