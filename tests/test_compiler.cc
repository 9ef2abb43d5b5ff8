/**
 * @file
 * End-to-end compiler tests: DSL → keyswitch pass → lowering → Belady
 * allocation → ISA emulator, validated against the fhe/ reference
 * evaluator (the paper's Section 6.2 methodology).
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/metrics.h"
#include "compiler/lowering.h"
#include "compiler/runtime.h"
#include "fhe_test_util.h"

using namespace cinnamon;
using namespace cinnamon::compiler;
using testutil::CkksHarness;
using testutil::maxError;
using fhe::Cplx;

namespace {

CkksHarness &
harness()
{
    static CkksHarness h(1 << 10, 6, 3);
    return h;
}

/** Compile + run a program with fresh bindings. */
std::map<std::string, fhe::Ciphertext>
execute(const Program &prog, const CompilerConfig &cfg,
        const std::map<std::string, fhe::Ciphertext> &inputs,
        const std::map<std::string, std::vector<Cplx>> &plains = {})
{
    auto &h = harness();
    Compiler compiler(*h.ctx, cfg);
    auto compiled = compiler.compile(prog);
    ProgramRuntime runtime(*h.ctx, *h.encoder, *h.keygen, h.sk);
    for (const auto &[name, ct] : inputs)
        runtime.bindInput(name, ct);
    for (const auto &[name, v] : plains)
        runtime.bindPlain(name, v);
    return runtime.run(compiled);
}

} // namespace

TEST(Dsl, LevelAndScaleInference)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    auto x = p.input("x", 4);
    EXPECT_EQ(x.level(), 4u);
    auto y = p.mul(x, x);
    EXPECT_DOUBLE_EQ(y.scale(), x.scale() * x.scale());
    auto z = p.rescale(y);
    EXPECT_EQ(z.level(), 3u);
    EXPECT_NEAR(z.scale(), h.params.scale, h.params.scale * 1e-3);
    auto r = p.rotate(z, 3);
    EXPECT_EQ(r.level(), 3u);
    EXPECT_EQ(p.rotationSteps(), (std::vector<int>{3}));
}

TEST(Dsl, StreamsAreTracked)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    auto x = p.input("x", 2);
    p.beginStream(1);
    auto y = p.rotate(x, 1);
    p.endStream();
    auto z = p.add(x, x);
    EXPECT_EQ(p.op(y.id()).stream, 1);
    EXPECT_EQ(p.op(z.id()).stream, 0);
    EXPECT_EQ(p.numStreams(), 2);
}

TEST(KsPass, DetectsInputBroadcastBatch)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    auto x = p.input("x", 3);
    auto r1 = p.rotate(x, 1);
    auto r2 = p.rotate(x, 2);
    auto r3 = p.rotate(x, 3);
    auto m = p.mul(r1, r2);
    p.output("o", p.add(p.rescale(m), p.rescale(p.mul(r3, r3))));

    auto result = runKeyswitchPass(p);
    ASSERT_EQ(result.ib_batches.size(), 1u);
    EXPECT_EQ(result.ib_batches[0].rotations.size(), 3u);
    EXPECT_EQ(result.ib_batches[0].input, x.id());
    EXPECT_EQ(result.of(r1.id()).algo, KsAlgo::InputBroadcast);
    EXPECT_EQ(result.of(r1.id()).batch, result.of(r2.id()).batch);
}

TEST(KsPass, DetectsOutputAggregationTree)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    auto a = p.input("a", 3);
    auto b = p.input("b", 3);
    auto c = p.input("c", 3);
    auto d = p.input("d", 3);
    // Four distinct rotations combined only by adds.
    auto sum = p.add(p.add(p.rotate(a, 1), p.rotate(b, 2)),
                     p.add(p.rotate(c, 3), p.rotate(d, 4)));
    p.output("o", sum);

    auto result = runKeyswitchPass(p);
    ASSERT_EQ(result.oa_batches.size(), 1u);
    const auto &batch = result.oa_batches[0];
    EXPECT_EQ(batch.rotations.size(), 4u);
    EXPECT_EQ(batch.root, sum.id());
    EXPECT_EQ(batch.tree_adds.size(), 3u);
    for (int r : batch.rotations)
        EXPECT_EQ(result.of(r).algo, KsAlgo::OutputAggregation);
}

TEST(KsPass, DisablingBatchingLeavesDefaults)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    auto x = p.input("x", 3);
    p.output("o", p.add(p.rotate(x, 1), p.rotate(x, 2)));
    KsPassOptions opt;
    opt.enable_batching = false;
    auto result = runKeyswitchPass(p, opt);
    EXPECT_TRUE(result.ib_batches.empty());
    EXPECT_TRUE(result.oa_batches.empty());
}

TEST(CompilerE2E, AddAndPlainOps)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    auto x = p.input("x", 3);
    auto y = p.input("y", 3);
    auto s = p.add(x, y);
    auto w = p.rescale(p.mulPlain(s, "w"));
    p.output("o", w);

    auto vx = h.randomSlots(1.0);
    auto vy = h.randomSlots(1.0);
    auto vw = h.randomSlots(1.0);
    CompilerConfig cfg;
    cfg.chips = 4;
    auto out = execute(p, cfg,
                       {{"x", h.encryptSlots(vx, 3)},
                        {"y", h.encryptSlots(vy, 3)}},
                       {{"w", vw}});
    auto back = h.decryptSlots(out.at("o"));
    double err = 0;
    for (std::size_t i = 0; i < h.ctx->slots(); i += 17)
        err = std::max(err,
                       std::abs(back[i] - (vx[i] + vy[i]) * vw[i]));
    EXPECT_LT(err, 1e-3);
}

TEST(CompilerE2E, CiphertextMultiplyMatchesEvaluator)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    auto x = p.input("x", 3);
    auto y = p.input("y", 3);
    p.output("o", p.rescale(p.mul(x, y)));

    auto vx = h.randomSlots(1.0);
    auto vy = h.randomSlots(1.0);
    CompilerConfig cfg;
    cfg.chips = 4;
    auto out = execute(p, cfg,
                       {{"x", h.encryptSlots(vx, 3)},
                        {"y", h.encryptSlots(vy, 3)}});
    auto back = h.decryptSlots(out.at("o"));
    double err = 0;
    for (std::size_t i = 0; i < h.ctx->slots(); i += 17)
        err = std::max(err, std::abs(back[i] - vx[i] * vy[i]));
    EXPECT_LT(err, 1e-3);
}

TEST(CompilerE2E, HoistedRotationsProduceCorrectValues)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    auto x = p.input("x", 2);
    // Three rotations of one ciphertext: pattern 1 (hoisted).
    auto r1 = p.rotate(x, 1);
    auto r2 = p.rotate(x, 4);
    auto r3 = p.rotate(x, 7);
    p.output("o1", r1);
    p.output("o2", r2);
    p.output("o3", r3);

    auto vx = h.randomSlots(1.0);
    CompilerConfig cfg;
    cfg.chips = 4;
    auto out = execute(p, cfg, {{"x", h.encryptSlots(vx, 2)}});
    const std::size_t slots = h.ctx->slots();
    for (auto [name, steps] :
         std::vector<std::pair<std::string, int>>{{"o1", 1},
                                                  {"o2", 4},
                                                  {"o3", 7}}) {
        auto back = h.decryptSlots(out.at(name));
        double err = 0;
        for (std::size_t i = 0; i < slots; i += 13)
            err = std::max(err,
                           std::abs(back[i] - vx[(i + steps) % slots]));
        EXPECT_LT(err, 1e-3) << name;
    }
}

TEST(CompilerE2E, RotateAggregateTreeProducesCorrectSum)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    auto a = p.input("a", 4);
    auto b = p.input("b", 4);
    auto c = p.input("c", 4);
    auto d = p.input("d", 4);
    auto sum = p.add(p.add(p.rotate(a, 1), p.rotate(b, 2)),
                     p.add(p.rotate(c, 3), p.rotate(d, 5)));
    p.output("o", sum);

    std::map<std::string, std::vector<Cplx>> vs;
    std::map<std::string, fhe::Ciphertext> ins;
    for (const std::string name : {"a", "b", "c", "d"}) {
        vs[name] = h.randomSlots(1.0);
        ins[name] = h.encryptSlots(vs[name], 4);
    }
    CompilerConfig cfg;
    cfg.chips = 4;
    auto out = execute(p, cfg, ins);
    auto back = h.decryptSlots(out.at("o"));
    const std::size_t slots = h.ctx->slots();
    double err = 0;
    for (std::size_t i = 0; i < slots; i += 13) {
        Cplx expected = vs["a"][(i + 1) % slots] +
                        vs["b"][(i + 2) % slots] +
                        vs["c"][(i + 3) % slots] +
                        vs["d"][(i + 5) % slots];
        err = std::max(err, std::abs(back[i] - expected));
    }
    EXPECT_LT(err, 1e-3);
}

TEST(CompilerE2E, CifherLoweringIsAlsoCorrect)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    auto x = p.input("x", 3);
    p.output("o", p.rotate(x, 2));

    CompilerConfig cfg;
    cfg.chips = 4;
    cfg.ks.default_algo = KsAlgo::Cifher;
    auto vx = h.randomSlots(1.0);
    auto out = execute(p, cfg, {{"x", h.encryptSlots(vx, 3)}});
    auto back = h.decryptSlots(out.at("o"));
    const std::size_t slots = h.ctx->slots();
    double err = 0;
    for (std::size_t i = 0; i < slots; i += 13)
        err = std::max(err, std::abs(back[i] - vx[(i + 2) % slots]));
    EXPECT_LT(err, 1e-3);
}

TEST(CompilerE2E, StreamsRunOnDisjointChipGroups)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    auto x = p.input("x", 3);
    p.beginStream(0);
    auto r0 = p.rotate(x, 1);
    p.endStream();
    p.beginStream(1);
    auto y = p.input("y", 3);
    auto r1 = p.rotate(y, 2);
    p.endStream();
    p.output("o0", r0);
    p.output("o1", r1);

    CompilerConfig cfg;
    cfg.chips = 4;
    cfg.num_streams = 2;
    auto vx = h.randomSlots(1.0);
    auto vy = h.randomSlots(1.0);
    auto out = execute(p, cfg,
                       {{"x", h.encryptSlots(vx, 3)},
                        {"y", h.encryptSlots(vy, 3)}});
    const std::size_t slots = h.ctx->slots();
    auto b0 = h.decryptSlots(out.at("o0"));
    auto b1 = h.decryptSlots(out.at("o1"));
    double err = 0;
    for (std::size_t i = 0; i < slots; i += 13) {
        err = std::max(err, std::abs(b0[i] - vx[(i + 1) % slots]));
        err = std::max(err, std::abs(b1[i] - vy[(i + 2) % slots]));
    }
    EXPECT_LT(err, 1e-3);
}

TEST(CompilerE2E, BeladyAllocationPreservesSemantics)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    auto x = p.input("x", 4);
    auto y = p.input("y", 4);
    auto t = p.rescale(p.mul(x, y));
    auto r = p.rotate(t, 1);
    p.output("o", p.add(r, r));

    auto vx = h.randomSlots(1.0);
    auto vy = h.randomSlots(1.0);
    // Tight register file: forces spills.
    CompilerConfig cfg;
    cfg.chips = 2;
    cfg.phys_regs = 24;
    auto out = execute(p, cfg,
                       {{"x", h.encryptSlots(vx, 4)},
                        {"y", h.encryptSlots(vy, 4)}});
    auto back = h.decryptSlots(out.at("o"));
    const std::size_t slots = h.ctx->slots();
    double err = 0;
    for (std::size_t i = 0; i < slots; i += 13) {
        Cplx expected = 2.0 * vx[(i + 1) % slots] * vy[(i + 1) % slots];
        err = std::max(err, std::abs(back[i] - expected));
    }
    EXPECT_LT(err, 1e-3);
}

TEST(Compiler, CommSummaryReflectsBatching)
{
    auto &h = harness();
    auto build = [&](bool batching) {
        Program p("t", *h.ctx);
        auto x = p.input("x", 3);
        for (int r = 1; r <= 4; ++r)
            p.output("o" + std::to_string(r), p.rotate(x, r));
        CompilerConfig cfg;
        cfg.chips = 4;
        cfg.allocate = false;
        cfg.ks.enable_batching = batching;
        Compiler compiler(*h.ctx, cfg);
        return compiler.compile(p).comm;
    };
    auto batched = build(true);
    auto unbatched = build(false);
    // One hoisted broadcast (4 limbs) vs four broadcasts (16 limbs).
    EXPECT_EQ(batched.broadcast_limbs, 4u);
    EXPECT_EQ(unbatched.broadcast_limbs, 16u);
}

TEST(Compiler, AllocatedProgramsRespectRegisterBound)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    auto x = p.input("x", 4);
    auto y = p.input("y", 4);
    p.output("o", p.rescale(p.mul(x, y)));
    CompilerConfig cfg;
    cfg.chips = 2;
    cfg.phys_regs = 32;
    Compiler compiler(*h.ctx, cfg);
    auto compiled = compiler.compile(p);
    EXPECT_TRUE(compiled.machine.allocated);
    for (const auto &chip : compiled.machine.chips) {
        for (const auto &ins : chip.instrs) {
            EXPECT_LT(ins.dst, 32);
            for (int s : chip.srcs(ins))
                EXPECT_LT(s, 32);
        }
    }
}

namespace {

/** Outputs equal name for name, limb for limb. */
void
expectSameOutputs(const std::map<std::string, fhe::Ciphertext> &a,
                  const std::map<std::string, fhe::Ciphertext> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (const auto &[name, ct] : a) {
        auto it = b.find(name);
        ASSERT_NE(it, b.end()) << name;
        EXPECT_EQ(ct.level, it->second.level) << name;
        EXPECT_TRUE(ct.c0 == it->second.c0 && ct.c1 == it->second.c1)
            << name;
    }
}

/** One program output: x rotated by one step, x at `level`. */
CompiledProgram
compileRotation(const std::string &input, std::size_t level)
{
    auto &h = harness();
    Program p("rot", *h.ctx);
    p.output("r", p.rotate(p.input(input, level), 1));
    CompilerConfig cfg;
    cfg.chips = 2;
    Compiler compiler(*h.ctx, cfg);
    return compiler.compile(p);
}

double
counterValue(const std::string &name)
{
    return MetricsRegistry::global().counter(name).value();
}

} // namespace

TEST(Runtime, ProgramsLoadingDifferentLimbsOfOneKeyEachGetTheirOwn)
{
    // A rotation at a low level loads fewer limbs of the very same
    // Galois key than one at the top level. One runtime running the
    // low program first must not serve its cached partial key to the
    // high one.
    auto &h = harness();
    const auto low = compileRotation("lo", 1);
    const auto high = compileRotation("hi", h.ctx->maxLevel());
    ASSERT_EQ(low.preload.keys.size(), 1u);
    ASSERT_EQ(high.preload.keys.size(), 1u);
    ASSERT_EQ(low.preload.keys[0].identity,
              high.preload.keys[0].identity);
    ASSERT_NE(low.preload.keys[0].limbs, high.preload.keys[0].limbs);

    auto v = h.randomSlots(1.0);
    const auto lo = h.encryptSlots(v, 1);
    const auto hi = h.encryptSlots(v, h.ctx->maxLevel());
    auto fresh = [&](const CompiledProgram &prog) {
        ProgramRuntime runtime(*h.ctx, *h.encoder, *h.keygen, h.sk);
        runtime.bindInput("lo", lo);
        runtime.bindInput("hi", hi);
        return runtime.run(prog);
    };
    ProgramRuntime shared(*h.ctx, *h.encoder, *h.keygen, h.sk);
    shared.bindInput("lo", lo);
    shared.bindInput("hi", hi);
    expectSameOutputs(shared.run(low), fresh(low));
    expectSameOutputs(shared.run(high), fresh(high));
    expectSameOutputs(shared.run(low), fresh(low));

    // And the rotation is still the rotation.
    auto back = h.decryptSlots(shared.run(high).at("r"));
    std::vector<Cplx> want(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        want[i] = v[(i + 1) % v.size()];
    EXPECT_LT(maxError(want, back), 1e-3);
}

TEST(Runtime, GeneratesOnlyLoadedKeyLimbsOnceAndCopiesRunAlike)
{
    auto &h = harness();
    Program p("probe", *h.ctx);
    auto x = p.input("x", 4);
    p.output("w", p.add(p.rotate(x, 1), p.rotate(x, 2)));
    p.output("sq", p.rescale(p.mul(x, x)));
    CompilerConfig cfg;
    cfg.chips = 4;
    auto original =
        std::make_unique<CompiledProgram>(Compiler(*h.ctx, cfg).compile(p));
    const PreloadTable &table = original->preload;
    ASSERT_EQ(table.keys.size(), 3u); // relin + two rotations
    double loaded = 0.0, full = 0.0;
    for (const auto &key : table.keys) {
        for (const auto &primes : key.limbs)
            loaded += 2.0 * static_cast<double>(primes.size());
        full += 2.0 * static_cast<double>(key.limbs.size() *
                                          h.ctx->keyBasis().size());
    }
    ASSERT_LT(loaded, full);

    const auto ct = h.encryptSlots(h.randomSlots(1.0), 4);
    ProgramRuntime runtime(*h.ctx, *h.encoder, *h.keygen, h.sk);
    runtime.bindInput("x", ct);
    const double keys0 = counterValue("runtime.keys.generated");
    const double limbs0 = counterValue("runtime.key_limbs.generated");
    const double full0 = counterValue("runtime.key_limbs.full");
    const auto first = runtime.run(*original);
    EXPECT_EQ(counterValue("runtime.keys.generated") - keys0, 3.0);
    EXPECT_EQ(counterValue("runtime.key_limbs.generated") - limbs0,
              loaded);
    EXPECT_EQ(counterValue("runtime.key_limbs.full") - full0, full);
    // A re-run reuses every key.
    expectSameOutputs(runtime.run(*original), first);
    EXPECT_EQ(counterValue("runtime.keys.generated") - keys0, 3.0);

    // A copy outlives its original and runs alike, on a fresh runtime
    // and on the one that ran the original.
    const CompiledProgram copy = *original;
    original.reset();
    ProgramRuntime other(*h.ctx, *h.encoder, *h.keygen, h.sk);
    other.bindInput("x", ct);
    expectSameOutputs(other.run(copy), first);
    expectSameOutputs(runtime.run(copy), first);
}

TEST(Runtime, RebindingAPlaintextReencodesIt)
{
    auto &h = harness();
    Program p("t", *h.ctx);
    p.output("o", p.rescale(p.mulPlain(p.input("x", 3), "w")));
    CompilerConfig cfg;
    cfg.chips = 2;
    const auto compiled = Compiler(*h.ctx, cfg).compile(p);
    const auto ct = h.encryptSlots(h.randomSlots(1.0), 3);
    const auto w1 = h.randomSlots(1.0);
    const auto w2 = h.randomSlots(1.0);

    ProgramRuntime runtime(*h.ctx, *h.encoder, *h.keygen, h.sk);
    runtime.bindInput("x", ct);
    runtime.bindPlain("w", w1);
    runtime.run(compiled);
    runtime.bindPlain("w", w2);
    expectSameOutputs(runtime.run(compiled),
                      execute(p, cfg, {{"x", ct}}, {{"w", w2}}));
}
