/**
 * @file
 * emulate_n15: one closed-loop caller repeatedly executes the compiled
 * keyswitch kernel at n = 2^15 on 8 chips through a warm
 * ProgramRuntime (exec::EmulateBackend::execute), with the TaskPool at
 * the machine's core count. The rns kernels, the isa emulator and the
 * pool do nearly all the work; there is no key generation and no
 * compile in the loop.
 *
 * Correctness: the kernel's pinned digest (key seed 42, input drawn
 * from Rng(7)) must come out at the full pool size and at pool size 1;
 * the seed-derived input timed in the loop must give one digest on
 * every op and the same digest at pool size 1.
 */

#include <thread>

#include "common/metrics.h"
#include "common/random.h"
#include "common/task_pool.h"
#include "exec/backend.h"
#include "fhe/evaluator.h"
#include "harness.h"
#include "workloads/benchmarks.h"
#include "workloads/kernels.h"

namespace perfbench {

using namespace cinnamon;

namespace {

constexpr uint64_t kPinnedDigest = 0x6475d6dfa66e4509ull;
constexpr std::size_t kChips = 8;
constexpr std::size_t kLevel = 8;
/** Latency limit of one execute, for slo_met_ratio. */
constexpr double kSloMs = 100.0;

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct Loop
{
    std::vector<double> latency_ms, emulate_ms, digest_ms,
        materialize_ms, limb_ops_per_s;
    std::size_t ops = 0, mismatched = 0;
    double wall_s = 0.0;
};

/**
 * Execute until `seconds` have passed. Traced ops additionally time
 * the emulator run (registry delta) and re-hash the outputs to time
 * the digest on its own.
 */
Loop
runLoop(exec::EmulateBackend &backend,
        const compiler::CompiledProgram &program, uint64_t expect,
        double seconds, BenchTrace &trace)
{
    Loop out;
    auto &emu_run_ms =
        MetricsRegistry::global().histogram("emulator.run_ms");
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
        const double emu_before =
            trace.enabled() ? emu_run_ms.snapshot().sum : 0.0;
        const auto t0 = Clock::now();
        exec::ExecutionReport report;
        {
            auto s = trace.span("exec.execute", 0, 0,
                                static_cast<double>(out.ops));
            report = backend.execute(program);
        }
        const double ms = msBetween(t0, Clock::now());
        out.latency_ms.push_back(ms);
        out.mismatched += report.digest != expect;
        ++out.ops;
        if (!trace.enabled())
            continue;
        const double emu_ms = emu_run_ms.snapshot().sum - emu_before;
        const auto d0 = Clock::now();
        {
            auto s = trace.span("exec.digest", 0, 0,
                                 static_cast<double>(out.ops - 1));
            out.mismatched += exec::hashOutputs(report.outputs) != expect;
        }
        const double digest_ms = msBetween(d0, Clock::now());
        out.emulate_ms.push_back(emu_ms);
        out.digest_ms.push_back(digest_ms);
        out.materialize_ms.push_back(ms - emu_ms - digest_ms);
        out.limb_ops_per_s.push_back(
            static_cast<double>(report.emu_stats.total()) /
            (emu_ms / 1e3));
    }
    out.wall_s = msBetween(start, Clock::now()) / 1e3;
    return out;
}

} // namespace

Result
runEmulateN15(const Options &opt, RunClock &clock)
{
    Result r;
    CommonLayers common;
    common.process_base = RegistrySnapshot::take();
    BenchTrace trace(opt.trace);
    const std::size_t nproc =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    TaskPool::global().resize(nproc);

    fhe::CkksContext ctx(fhe::CkksParams::makeTest(1 << 15, 12, 3));
    fhe::Encoder encoder(ctx);
    auto t = Clock::now();
    fhe::KeyGenerator keygen(ctx, 42);
    auto sk = keygen.secretKey();
    const double keygen_ms = msBetween(t, Clock::now());
    fhe::Evaluator eval(ctx);

    workloads::BenchmarkRunner runner(ctx);
    const auto kernel = workloads::keyswitchKernel(ctx, kLevel);
    double compile_ms = 0.0;
    const auto &program =
        runner.compiled(kernel, kChips, 64, {}, &compile_ms);

    auto encryptInput = [&](uint64_t rng_seed) {
        Rng rng(rng_seed);
        std::vector<fhe::Cplx> values(ctx.slots());
        for (auto &v : values)
            v = fhe::Cplx(rng.uniformReal(-1.0, 1.0), 0.0);
        auto plain = encoder.encode(values, kLevel);
        return eval.encrypt(plain, ctx.params().scale, sk, rng);
    };
    t = Clock::now();
    const auto seeded_input = encryptInput(splitmix(opt.seed));
    const double encrypt_ms = msBetween(t, Clock::now());

    compiler::ProgramRuntime runtime(ctx, encoder, keygen, sk);
    exec::EmulateBackend backend(runtime, 0); // the whole pool
    // Warm-up: the pinned input fills the key and plaintext caches and
    // the arena; the seeded input then fixes the loop's digest.
    runtime.bindInput("x", encryptInput(7));
    const uint64_t pinned = backend.execute(program).digest;
    runtime.bindInput("x", seeded_input);
    const uint64_t expect = backend.execute(program).digest;
    if (!clock.beginTimed())
        return r;

    // Traced runs measure an untraced half first, for the overhead.
    BenchTrace off(false);
    const Loop plain = runLoop(backend, program, expect,
                               opt.trace ? opt.seconds / 2 : opt.seconds,
                               off);
    Loop traced;
    double slice_occupancy = 0.0; // the gauge holds the last run's value
    if (opt.trace) {
        common.beginPhase();
        traced = runLoop(backend, program, expect, opt.seconds / 2,
                         trace);
        common.endPhase();
        slice_occupancy = MetricsRegistry::global()
                              .gauge("emulator.slice.occupancy")
                              .value();
    }
    const Loop &main = opt.trace ? traced : plain;

    // Digests at pool size 1 (serial chip advance, no slicing).
    TaskPool::global().resize(1);
    runtime.bindInput("x", encryptInput(7));
    const uint64_t pinned_serial = backend.execute(program).digest;
    runtime.bindInput("x", seeded_input);
    const uint64_t seeded_serial = backend.execute(program).digest;
    TaskPool::global().resize(nproc);

    r.check(pinned == kPinnedDigest,
            "pinned digest " + hex(pinned) + " at pool size " +
                std::to_string(nproc) + ", expected " +
                hex(kPinnedDigest));
    r.check(pinned_serial == kPinnedDigest,
            "pinned digest " + hex(pinned_serial) +
                " at pool size 1, expected " + hex(kPinnedDigest));
    r.check(seeded_serial == expect,
            "seeded digest differs between pool sizes 1 and " +
                std::to_string(nproc));
    r.check(plain.mismatched + traced.mismatched == 0,
            std::to_string(plain.mismatched + traced.mismatched) +
                " executes gave a different digest");
    r.note("digests: pinned " + hex(pinned) + " (pool " +
           std::to_string(nproc) + " and 1), seeded " + hex(expect));

    r.attempted = main.ops;
    r.failed = main.mismatched;
    const auto lat = summarize(main.latency_ms);
    std::size_t slo_met = 0;
    for (double ms : main.latency_ms)
        slo_met += ms <= kSloMs;
    char line[120];
    std::snprintf(line, sizeof(line),
                  "; SLO %.0f ms met by %zu; error_rate %.4f", kSloMs,
                  slo_met,
                  static_cast<double>(main.mismatched) /
                      static_cast<double>(main.ops));
    r.note("latency: " + describe(lat, "executes") + line);

    if (!opt.trace) {
        addEndToEnd(r, main.ops, main.wall_s, lat, slo_met, main.ops,
                    main.mismatched);
        return r;
    }

    // One timing-model run of the same kernel, for the sim layer.
    t = Clock::now();
    exec::SimulateBackend(sim::HardwareConfig::cinnamonChip())
        .execute(program);
    const double simulate_ms = msBetween(t, Clock::now());

    const auto &d = common.phase;
    const double limb_ops_per_s = median(main.limb_ops_per_s);
    r.layer("isa.run_ms.p50", median(main.emulate_ms), "ms");
    r.layer("isa.limb_ops_per_s", limb_ops_per_s, "1/s");
    const double limbs = d.counter("emulator.limbs_executed");
    r.layer("isa.sliced_ops_ratio",
            limbs > 0 ? d.counter("emulator.slice.sliced_ops") / limbs
                      : 0.0,
            "ratio");
    r.layer("isa.slice.occupancy", slice_occupancy, "ratio");
    r.layer("compiler.materialize_ms.p50", median(main.materialize_ms),
            "ms");
    r.layer("exec.digest_ms.p50", median(main.digest_ms), "ms");
    r.layer("fhe.keygen_ms.p50", keygen_ms, "ms");
    r.layer("fhe.encrypt_ms.p50", encrypt_ms, "ms");

    const auto plain_lat = summarize(plain.latency_ms);
    common.report(r, main.ops, {compile_ms}, {simulate_ms},
                  plain_lat.p50 > 0 ? lat.p50 / plain_lat.p50 : 0.0);
    r.layer("isa.roofline_ratio",
            limb_ops_per_s / (1e6 / common.ntt_us), "ratio");
    r.note("trace: " + std::to_string(trace.size()) + " events -> " +
           opt.trace_out);
    r.check(opt.trace_out.empty() || trace.write(opt.trace_out),
            "writing the trace to " + opt.trace_out);
    return r;
}

} // namespace perfbench
