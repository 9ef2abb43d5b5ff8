/**
 * @file
 * Data-plane golden tests: pins the flat limb-major layout, the
 * kernel-dispatch backends, and the parallel emulator bit-for-bit.
 *
 * The golden hashes below were recorded from the pre-refactor
 * (interleaved-layout, scalar-only, serial-emulator) tree at commit
 * 24d6af8. Every refactor of the data plane — flat Poly buffers,
 * KernelTable backends (scalar and AVX-512 IFMA), lazy-NTT stage
 * fusion, the chip-parallel emulator — must keep these bits: all
 * kernels produce canonical residues in [0, q), which are unique, so
 * layout and vectorization changes are observable only through bugs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/task_pool.h"
#include "compiler/runtime.h"
#include "exec/backend.h"
#include "fhe/evaluator.h"
#include "isa/emulator.h"
#include "rns/kernels.h"
#include "rns/ntt.h"
#include "rns/prime_gen.h"
#include "serve/catalog.h"
#include "workloads/benchmarks.h"

#include "fhe_test_util.h"

using namespace cinnamon;

namespace {

uint64_t
fnvBytes(const void *data, std::size_t len, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
hashVec(const std::vector<uint64_t> &v,
        uint64_t h = 14695981039346656037ull)
{
    for (uint64_t x : v)
        h = fnvBytes(&x, sizeof(x), h);
    return h;
}

uint64_t
hashLimbs(const rns::RnsPoly &p, uint64_t h)
{
    for (std::size_t i = 0; i < p.numLimbs(); ++i) {
        const auto &l = p.limb(i);
        for (std::size_t j = 0; j < l.size(); ++j)
            h = fnvBytes(&l[j], sizeof(uint64_t), h);
    }
    return h;
}

struct NttGolden
{
    std::size_t logn;
    uint64_t hash;
};

// Recorded against the pre-refactor scalar NTT (commit 24d6af8).
constexpr NttGolden kNttGoldens[] = {
    {10, 0xc9338ba43604216dull},
    {12, 0x080b94595272ed85ull},
    {14, 0x1516e2cd1b73a110ull},
};

struct PolyGolden
{
    std::size_t logn;
    uint64_t hash;
};

constexpr PolyGolden kPolyGoldens[] = {
    {10, 0x22beee155d6d5173ull},
    {12, 0xb769009902160ca1ull},
};

// serve-digest (exec::hashOutputs) of the catalog probe per key seed,
// chips=4. Pins digest *stability*, not a particular algorithm:
// re-record when hashOutputs itself changes (last: the word-at-a-time
// FNV fold) — kPolyGoldens above pins the raw limb bits, so a data-
// plane regression still fails there even across a digest re-record.
constexpr uint64_t kProbeGoldens[3] = {
    0xbdd3932d11896963ull,
    0xb19458fa76529384ull,
    0xd24402b911a842f6ull,
};

} // namespace

TEST(DataPlaneGolden, NttForwardPinnedAndRoundtrip)
{
    for (const auto &g : kNttGoldens) {
        const std::size_t n = 1ull << g.logn;
        auto primes = rns::generateNttPrimes(n, 50, 1);
        rns::NttTable t(n, primes[0]);
        Rng rng(0xabc000 + g.logn);
        std::vector<uint64_t> a(n);
        for (auto &x : a)
            x = rng.uniformMod(primes[0]);
        const std::vector<uint64_t> orig = a;
        t.forward(a);
        EXPECT_EQ(hashVec(a), g.hash) << "n=" << n;
        t.inverse(a);
        EXPECT_EQ(a, orig) << "NTT/INTT roundtrip n=" << n;
    }
}

TEST(DataPlaneGolden, PolyOpSequencePinned)
{
    for (const auto &g : kPolyGoldens) {
        fhe::CkksContext ctx(
            fhe::CkksParams::makeTest(1ull << g.logn, 8, 3));
        const auto basis = ctx.ciphertextBasis(5);
        const std::size_t n = ctx.n();
        rns::RnsPoly a(ctx.rns(), basis, rns::Domain::Coeff);
        rns::RnsPoly b(ctx.rns(), basis, rns::Domain::Coeff);
        Rng rng(0x901d + g.logn);
        for (std::size_t i = 0; i < basis.size(); ++i) {
            const uint64_t q = ctx.rns().modulus(basis[i]).value();
            for (std::size_t j = 0; j < n; ++j)
                a.limb(i)[j] = rng.uniformMod(q);
            for (std::size_t j = 0; j < n; ++j)
                b.limb(i)[j] = rng.uniformMod(q);
        }
        uint64_t h = 14695981039346656037ull;
        h = hashLimbs(a.add(b), h);
        h = hashLimbs(a.sub(b), h);
        rns::RnsPoly ae = a, be = b;
        ae.toEval();
        be.toEval();
        h = hashLimbs(ae.mul(be), h);
        rns::RnsPoly ac = ae;
        ac.toCoeff();
        h = hashLimbs(ac, h);
        h = hashLimbs(a.automorphism(5), h);
        rns::RnsPoly neg = a;
        neg.negateInPlace();
        h = hashLimbs(neg, h);
        rns::RnsPoly sc = a;
        sc.mulScalarInt(123456789ull);
        h = hashLimbs(sc, h);
        h = hashLimbs(ctx.tool().rescale(a), h);
        h = hashLimbs(ctx.tool().modUp(a, ctx.keyBasis()), h);
        EXPECT_EQ(h, g.hash) << "n=" << n;
    }
}

namespace {

/** Probe emulation exactly as the serving path runs it. */
uint64_t
probeDigest(uint64_t seed, std::size_t workers)
{
    fhe::CkksContext ctx(fhe::CkksParams::makeTest(1 << 10, 16, 4));
    fhe::Encoder encoder(ctx);
    serve::WorkloadCatalog catalog(ctx);
    workloads::BenchmarkRunner runner(ctx);
    const auto &compiled = runner.compiled(catalog.probe(), 4, 64, {});
    fhe::KeyGenerator keygen(ctx, seed);
    auto sk = keygen.secretKey();
    fhe::Evaluator eval(ctx);
    Rng data_rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<fhe::Cplx> values(ctx.slots());
    for (auto &v : values)
        v = fhe::Cplx(data_rng.uniformReal(-1.0, 1.0), 0.0);
    auto plain = encoder.encode(values, catalog.probeLevel());
    auto ct = eval.encrypt(plain, ctx.params().scale, sk, data_rng);
    compiler::ProgramRuntime runtime(ctx, encoder, keygen, sk);
    runtime.bindInput("x", ct);
    exec::EmulateBackend backend(runtime, workers);
    auto report = backend.execute(compiled);
    EXPECT_TRUE(report.has_outputs);
    return report.digest;
}

} // namespace

TEST(DataPlaneGolden, ProbeServeDigestsPinned)
{
    for (uint64_t seed : {1ull, 2ull, 3ull})
        EXPECT_EQ(probeDigest(seed, 1), kProbeGoldens[seed - 1])
            << "seed=" << seed;
}

TEST(EmulatorParallel, PoolExecutionBitIdenticalToSerial)
{
    // Chip-parallel execution (worker pool, rendezvous between
    // collectives) must be indistinguishable from the serial schedule.
    const uint64_t serial = probeDigest(2, 1);
    EXPECT_EQ(serial, probeDigest(2, 4));
    // The pooled run, which went last, advanced as many of the
    // probe's 4 chips at once as the cap of 4 and the pool allow.
    EXPECT_EQ(MetricsRegistry::global().gauge("emulator.workers").value(),
              static_cast<double>(
                  std::min<std::size_t>(TaskPool::global().parallelism(),
                                        4)));
}

TEST(KernelBackends, ScalarAlwaysRegistered)
{
    EXPECT_STREQ(rns::scalarKernels().name, "scalar");
    EXPECT_FALSE(rns::selectKernelBackend("no-such-backend"));
    // The active backend stays whatever the process selected.
    EXPECT_NE(rns::kernelBackendName(), nullptr);
}

TEST(KernelBackends, VectorBackendMatchesScalarBitForBit)
{
    const rns::KernelTable *vec = rns::avx512KernelTable();
    if (vec == nullptr)
        GTEST_SKIP() << "no AVX-512 IFMA on this host";
    const rns::KernelTable &ref = rns::scalarKernels();

    // Odd length exercises the vector tails; both prime widths the
    // parameter sets use (40-bit scale primes, 50-bit head primes).
    const std::size_t n = 1031;
    for (int bits : {40, 50}) {
        const uint64_t q = rns::generateNttPrimes(2048, bits, 1)[0];
        const rns::Modulus mod(q);
        Rng rng(0xbead + bits);
        const auto a = rng.uniformVector(n, q);
        const auto b = rng.uniformVector(n, q);
        std::vector<uint64_t> r0(n), r1(n);

        ref.add(r0.data(), a.data(), b.data(), n, q);
        vec->add(r1.data(), a.data(), b.data(), n, q);
        EXPECT_EQ(r0, r1) << "add bits=" << bits;

        ref.sub(r0.data(), a.data(), b.data(), n, q);
        vec->sub(r1.data(), a.data(), b.data(), n, q);
        EXPECT_EQ(r0, r1) << "sub bits=" << bits;

        ref.mul(r0.data(), a.data(), b.data(), n, mod);
        vec->mul(r1.data(), a.data(), b.data(), n, mod);
        EXPECT_EQ(r0, r1) << "mul bits=" << bits;

        auto az = a;
        az[0] = 0; // negate's zero fixed point
        ref.negate(r0.data(), az.data(), n, q);
        vec->negate(r1.data(), az.data(), n, q);
        EXPECT_EQ(r0, r1) << "negate bits=" << bits;

        const uint64_t s = rng.uniformMod(q);
        const uint64_t s_sh = rns::shoupPrecompute(s, q);
        ref.mulScalarShoup(r0.data(), a.data(), n, s, s_sh, q);
        vec->mulScalarShoup(r1.data(), a.data(), n, s, s_sh, q);
        EXPECT_EQ(r0, r1) << "mulScalarShoup bits=" << bits;

        r0 = b;
        r1 = b;
        ref.macScalarShoup(r0.data(), a.data(), n, s, s_sh, q);
        vec->macScalarShoup(r1.data(), a.data(), n, s, s_sh, q);
        EXPECT_EQ(r0, r1) << "macScalarShoup bits=" << bits;

        // Fan-in of 10 crosses the scalar path's 8-source chunking.
        const std::size_t k = 10;
        std::vector<std::vector<uint64_t>> planes;
        std::vector<const uint64_t *> sp;
        std::vector<uint64_t> fs;
        for (std::size_t j = 0; j < k; ++j) {
            planes.push_back(rng.uniformVector(n, q));
            fs.push_back(rng.uniformMod(q));
        }
        for (const auto &p : planes)
            sp.push_back(p.data());
        r0 = b;
        r1 = b;
        ref.macMulti(r0.data(), sp.data(), fs.data(), k, n, mod, q);
        vec->macMulti(r1.data(), sp.data(), fs.data(), k, n, mod, q);
        EXPECT_EQ(r0, r1) << "macMulti bits=" << bits;
    }
}

namespace {

/** An instruction with its source registers, before it joins a chip. */
struct Spec
{
    isa::Instruction ins;
    std::vector<int> srcs;
};

isa::MachineProgram
oneChip(const std::vector<Spec> &specs)
{
    isa::MachineProgram p;
    p.chips.resize(1);
    for (const Spec &spec : specs) {
        isa::Instruction ins = spec.ins;
        ins.srcs = p.chips[0].addSrcs(spec.srcs);
        p.chips[0].instrs.push_back(ins);
    }
    return p;
}

Spec
make(isa::Opcode op, int dst, std::vector<int> srcs, uint32_t prime,
     uint64_t imm = 0)
{
    Spec spec;
    spec.ins.op = op;
    spec.ins.dst = dst;
    spec.ins.prime = prime;
    spec.ins.imm = imm;
    spec.srcs = std::move(srcs);
    return spec;
}

testutil::CkksHarness &
errHarness()
{
    static testutil::CkksHarness h(1 << 8, 4, 2);
    return h;
}

} // namespace

TEST(EmulatorErrors, UnmappedLoadReportsOpcodeAndPosition)
{
    isa::Emulator emu(*errHarness().ctx, 1);
    try {
        emu.run(oneChip({make(isa::Opcode::Nop, -1, {}, 0),
                         make(isa::Opcode::Load, 0, {}, 0, 777)}));
        FAIL() << "unmapped Load must throw";
    } catch (const isa::EmulatorError &e) {
        EXPECT_EQ(e.opcode(), isa::Opcode::Load);
        EXPECT_EQ(e.chip(), 0u);
        EXPECT_EQ(e.pc(), 1u);
        const std::string what = e.what();
        EXPECT_NE(what.find("unmapped address 777"), std::string::npos)
            << what;
        EXPECT_NE(what.find("pc 1"), std::string::npos) << what;
    }
}

TEST(EmulatorErrors, UndefinedRegisterReadReportsRegister)
{
    isa::Emulator emu(*errHarness().ctx, 1);
    try {
        emu.run(oneChip({make(isa::Opcode::Add, 2, {0, 1}, 0)}));
        FAIL() << "undefined register read must throw";
    } catch (const isa::EmulatorError &e) {
        EXPECT_EQ(e.opcode(), isa::Opcode::Add);
        EXPECT_EQ(e.pc(), 0u);
        const std::string what = e.what();
        EXPECT_NE(what.find("undefined register"), std::string::npos)
            << what;
    }
}

TEST(KernelBackends, GatherKernelsMatchScalarAtPowerOfTwoN)
{
    const rns::KernelTable *vec = rns::avx512KernelTable();
    if (vec == nullptr)
        GTEST_SKIP() << "no AVX-512 IFMA on this host";
    const rns::KernelTable &ref = rns::scalarKernels();

    // Power-of-two length engages the vectorized automorph gather
    // (non-power-of-two n delegates to scalar — covered above).
    const std::size_t n = 2048;
    const uint64_t two_n = 2 * n;
    for (int bits : {40, 50}) {
        const uint64_t q = rns::generateNttPrimes(n, bits, 1)[0];
        const rns::Modulus mod(q);
        Rng rng(0xfeed + bits);
        auto a = rng.uniformVector(n, q);
        a[7] = 0; // negation's zero fixed point must survive the wrap
        std::vector<uint64_t> r0(n), r1(n);

        // Rotation elements 5^k, the conjugation element 2n-1, and a
        // plain small odd element; all walks cross the X^n = -1 sign
        // boundary many times.
        std::vector<uint64_t> galois = {3, 5, two_n - 1};
        uint64_t g = 5;
        for (int k = 0; k < 4; ++k) {
            g = (g * 5) % two_n;
            galois.push_back(g);
        }
        for (uint64_t elt : galois) {
            ref.automorph(r0.data(), a.data(), n, elt, q);
            vec->automorph(r1.data(), a.data(), n, elt, q);
            EXPECT_EQ(r0, r1)
                << "automorph g=" << elt << " bits=" << bits;
        }

        // modReduce takes arbitrary 64-bit inputs (cross-prime
        // reduction), not values already below q.
        std::vector<uint64_t> wide(n);
        for (auto &x : wide)
            x = rng.uniformMod(~0ull);
        ref.modReduce(r0.data(), wide.data(), n, q);
        vec->modReduce(r1.data(), wide.data(), n, q);
        EXPECT_EQ(r0, r1) << "modReduce bits=" << bits;

        // macMulti at the full fan-in ceiling with lazy (near-2^52)
        // sources: the deferred-accumulation endgame must still land
        // on the canonical residue the scalar 128-bit chunks produce.
        const std::size_t k = 64;
        const uint64_t bound = (1ull << 52) - 1;
        std::vector<std::vector<uint64_t>> planes;
        std::vector<const uint64_t *> sp;
        std::vector<uint64_t> fs;
        for (std::size_t j = 0; j < k; ++j) {
            planes.push_back(rng.uniformVector(n, bound));
            fs.push_back(rng.uniformMod(q));
        }
        for (const auto &p : planes)
            sp.push_back(p.data());
        r0 = a;
        r1 = a;
        ref.macMulti(r0.data(), sp.data(), fs.data(), k, n, mod,
                     bound);
        vec->macMulti(r1.data(), sp.data(), fs.data(), k, n, mod,
                      bound);
        EXPECT_EQ(r0, r1) << "macMulti k=64 bits=" << bits;
    }
}

TEST(EmulatorParallel, SingleChipRunSubmitsNoPoolJob)
{
    // Chips are the emulator's only parallel axis: a 1-chip program
    // runs every instruction on the caller's thread even when the
    // pool has idle workers and the ring is large, and still
    // reproduces the serial run bit for bit.
    fhe::CkksContext ctx(fhe::CkksParams::makeTest(1 << 13, 8, 3));
    const uint64_t q = ctx.rns().modulus(0).value();
    Rng rng(0x51ce);
    const auto xa = rng.uniformVector(ctx.n(), q);
    const auto xb = rng.uniformVector(ctx.n(), q);

    auto program = oneChip({
        make(isa::Opcode::Load, 0, {}, 0, 10),
        make(isa::Opcode::Load, 1, {}, 0, 11),
        make(isa::Opcode::Add, 2, {0, 1}, 0),
        make(isa::Opcode::Mul, 3, {2, 1}, 0),
        make(isa::Opcode::MulScalar, 4, {3}, 0, 12345),
        make(isa::Opcode::Ntt, 5, {4}, 0),
        make(isa::Opcode::Intt, 6, {5}, 0),
        make(isa::Opcode::Automorph, 7, {6}, 0, 5),
        make(isa::Opcode::Store, -1, {7}, 0, 99),
    });

    auto runOnce = [&](std::size_t workers) {
        isa::Emulator emu(ctx, 1);
        emu.memory(0).store(10, 0, rns::ConstLimbSpan(xa.data(),
                                                      xa.size()));
        emu.memory(0).store(11, 0, rns::ConstLimbSpan(xb.data(),
                                                      xb.size()));
        emu.setWorkers(workers);
        emu.run(program);
        const auto out = emu.memory(0).at(99);
        return std::vector<uint64_t>(out.data.data(),
                                     out.data.data() + out.data.size());
    };

    const auto serial = runOnce(1);
    auto &pool = TaskPool::global();
    const std::size_t restore = pool.parallelism();
    pool.resize(4);
    auto &metrics = MetricsRegistry::global();
    const double jobs_before = metrics.counter("pool.jobs").value();
    const auto pooled = runOnce(0); // 0 = take the pool's size
    const double jobs_after = metrics.counter("pool.jobs").value();
    pool.resize(restore);
    EXPECT_EQ(serial, pooled);
    EXPECT_EQ(jobs_after, jobs_before);
    EXPECT_EQ(metrics.gauge("emulator.workers").value(), 1.0);
}
