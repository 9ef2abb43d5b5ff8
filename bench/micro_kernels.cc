/**
 * @file
 * Google-benchmark microbenchmarks of the functional substrate: the
 * modular-arithmetic, NTT, base-conversion, and keyswitching kernels
 * the whole framework is built on, the sampler behind all key
 * material, and the per-request key materialization of the serving
 * probe. These measure this library's CPU performance (useful when
 * using cinnamon as a software FHE library), not the simulated
 * accelerator.
 */

#include <benchmark/benchmark.h>

#include "common/metrics.h"
#include "common/random.h"
#include "compiler/lowering.h"
#include "compiler/runtime.h"
#include "fhe/evaluator.h"
#include "rns/base_conv.h"
#include "rns/kernels.h"
#include "rns/modarith.h"
#include "rns/ntt.h"
#include "rns/prime_gen.h"
#include "serve/catalog.h"

using namespace cinnamon;

namespace {

const std::size_t kN = 1 << 13;

rns::RnsContext &
context()
{
    static rns::RnsContext ctx(kN, rns::generateNttPrimes(kN, 50, 8));
    return ctx;
}

} // namespace

static void
BM_MulMod(benchmark::State &state)
{
    Rng rng(1);
    const rns::Modulus &mod = context().modulus(0);
    auto xs = rng.uniformVector(4096, mod.value());
    for (auto _ : state) {
        uint64_t acc = 1;
        for (uint64_t x : xs)
            acc = mod.mul(acc, x);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * xs.size());
}
BENCHMARK(BM_MulMod);

static void
BM_MulModShoup(benchmark::State &state)
{
    Rng rng(1);
    const rns::Modulus &mod = context().modulus(0);
    const uint64_t q = mod.value();
    auto xs = rng.uniformVector(4096, q);
    const uint64_t s = rng.uniformMod(q);
    const uint64_t s_shoup = rns::shoupPrecompute(s, q);
    for (auto _ : state) {
        uint64_t acc = 0;
        for (uint64_t x : xs)
            acc ^= rns::mulModShoup(x, s, s_shoup, q);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * xs.size());
}
BENCHMARK(BM_MulModShoup);

/** The span kernels the flat data plane dispatches through. */
static void
BM_SpanKernelAdd(benchmark::State &state)
{
    Rng rng(6);
    const uint64_t q = context().modulus(0).value();
    auto a = rng.uniformVector(kN, q);
    auto b = rng.uniformVector(kN, q);
    std::vector<uint64_t> dst(kN);
    const auto &kt = rns::kernels();
    for (auto _ : state) {
        kt.add(dst.data(), a.data(), b.data(), kN, q);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_SpanKernelAdd);

static void
BM_SpanKernelMul(benchmark::State &state)
{
    Rng rng(7);
    const rns::Modulus &mod = context().modulus(0);
    auto a = rng.uniformVector(kN, mod.value());
    auto b = rng.uniformVector(kN, mod.value());
    std::vector<uint64_t> dst(kN);
    const auto &kt = rns::kernels();
    for (auto _ : state) {
        kt.mul(dst.data(), a.data(), b.data(), kN, mod);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_SpanKernelMul);

static void
BM_SpanKernelMulScalarShoup(benchmark::State &state)
{
    Rng rng(8);
    const uint64_t q = context().modulus(0).value();
    auto a = rng.uniformVector(kN, q);
    std::vector<uint64_t> dst(kN);
    const uint64_t s = rng.uniformMod(q);
    const uint64_t s_shoup = rns::shoupPrecompute(s, q);
    const auto &kt = rns::kernels();
    for (auto _ : state) {
        kt.mulScalarShoup(dst.data(), a.data(), kN, s, s_shoup, q);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_SpanKernelMulScalarShoup);

static void
BM_NttForward(benchmark::State &state)
{
    const std::size_t n = state.range(0);
    auto primes = rns::generateNttPrimes(n, 50, 1);
    rns::NttTable ntt(n, primes[0]);
    Rng rng(2);
    auto a = rng.uniformVector(n, primes[0]);
    for (auto _ : state) {
        ntt.forward(a);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NttForward)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16);

static void
BM_BaseConversion(benchmark::State &state)
{
    auto &ctx = context();
    rns::BaseConverter conv(ctx, rns::rangeBasis(0, 4),
                            rns::rangeBasis(4, 8));
    Rng rng(3);
    rns::RnsPoly x(ctx, rns::rangeBasis(0, 4), rns::Domain::Coeff);
    for (std::size_t i = 0; i < 4; ++i)
        x.setLimb(i, rng.uniformVector(kN, ctx.modulus(i).value()));
    for (auto _ : state) {
        auto y = conv.convert(x);
        benchmark::DoNotOptimize(y);
    }
    state.SetItemsProcessed(state.iterations() * kN * 4);
}
BENCHMARK(BM_BaseConversion);

static void
BM_KeySwitch(benchmark::State &state)
{
    static fhe::CkksContext ctx(fhe::CkksParams::makeTest(1 << 12, 6, 3));
    static fhe::Encoder enc(ctx);
    static fhe::Evaluator eval(ctx);
    static fhe::KeyGenerator keygen(ctx, 7);
    static fhe::SecretKey sk = keygen.secretKey();
    static fhe::EvalKey relin = keygen.relinKey(sk);
    Rng rng(4);
    auto plain = enc.encodeConstant(fhe::Cplx(0.5, 0), ctx.maxLevel());
    auto ct = eval.encrypt(plain, ctx.params().scale, sk, rng);
    for (auto _ : state) {
        auto out = eval.keySwitch(ct.c1, ct.level, relin);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_KeySwitch);

static void
BM_HomomorphicMul(benchmark::State &state)
{
    static fhe::CkksContext ctx(fhe::CkksParams::makeTest(1 << 12, 6, 3));
    static fhe::Encoder enc(ctx);
    static fhe::Evaluator eval(ctx);
    static fhe::KeyGenerator keygen(ctx, 8);
    static fhe::SecretKey sk = keygen.secretKey();
    static fhe::EvalKey relin = keygen.relinKey(sk);
    Rng rng(5);
    auto plain = enc.encodeConstant(fhe::Cplx(0.5, 0), ctx.maxLevel());
    auto ct = eval.encrypt(plain, ctx.params().scale, sk, rng);
    for (auto _ : state) {
        auto out = eval.rescale(eval.mul(ct, ct, relin));
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_HomomorphicMul);

/** Uniform sampling mod a 50-bit prime: the bulk of key generation. */
static void
BM_RngUniformVector(benchmark::State &state)
{
    Rng rng(9);
    const uint64_t q = context().modulus(0).value();
    for (auto _ : state) {
        auto v = rng.uniformVector(4096, q);
        benchmark::DoNotOptimize(v.data());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_RngUniformVector);

/**
 * One served request's host work minus compile: a fresh tenant key
 * generator and secret, the input encryption, and ProgramRuntime::run
 * of the serving probe (n = 2^8, 4 chips). The materialize_ms counter
 * is the runtime's own run-minus-emulation time.
 */
static void
BM_ProbeMaterialize(benchmark::State &state)
{
    static fhe::CkksContext ctx(fhe::CkksParams::makeTest(1 << 8, 16, 4));
    static fhe::Encoder encoder(ctx);
    static serve::WorkloadCatalog catalog(ctx);
    static const compiler::CompiledProgram program = [] {
        compiler::CompilerConfig cfg;
        cfg.chips = 4;
        return compiler::Compiler(ctx, cfg).compile(catalog.probe());
    }();
    static isa::EmulatorCache emulators(ctx);
    fhe::Evaluator eval(ctx);
    auto &materialize =
        MetricsRegistry::global().histogram("runtime.materialize_ms");
    const double before = materialize.snapshot().sum;
    uint64_t seed = 1;
    for (auto _ : state) {
        fhe::KeyGenerator keygen(ctx, seed);
        const fhe::SecretKey sk = keygen.secretKey();
        Rng data(seed++);
        std::vector<fhe::Cplx> values(ctx.slots());
        for (auto &v : values)
            v = fhe::Cplx(data.uniformReal(-1.0, 1.0), 0.0);
        const auto ct = eval.encrypt(
            encoder.encode(values, catalog.probeLevel()),
            ctx.params().scale, sk, data);
        compiler::ProgramRuntime runtime(ctx, encoder, keygen, sk);
        runtime.setEmulatorCache(&emulators);
        runtime.bindInput("x", ct);
        auto outputs = runtime.run(program);
        benchmark::DoNotOptimize(outputs);
    }
    state.counters["materialize_ms"] = benchmark::Counter(
        materialize.snapshot().sum - before,
        benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ProbeMaterialize)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
