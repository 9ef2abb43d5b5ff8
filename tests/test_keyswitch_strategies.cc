/**
 * @file
 * Every keyswitch strategy, checked on the compiled path (Section
 * 4.3.1, Figure 8).
 *
 * One sweep covers every StrategyRegistry rung × chips
 * {1, 2, 3, 4, 6, 8}. Each case compiles small DSL programs under
 * the rung, runs them on the emulator through ProgramRuntime, and
 * checks both the result and the collectives the compiler emitted:
 *  - a rotation and a relinearization, at the top level and level
 *    2, are bit-exact with fhe::Evaluator under the keys the runtime
 *    derives; one keyswitch broadcasts level+1 limbs, or
 *    3(level+1) + 2|special| under CiFHER;
 *  - r rotations of one ciphertext share one broadcast when the pass
 *    hoists them, and every output stays bit-exact;
 *  - a rotate-then-sum of distinct ciphertexts costs two
 *    aggregations and no broadcast under output aggregation and
 *    decrypts; without a batch it is bit-exact (a batch that lowering
 *    declines miscompiles: see the disabled repro at the end);
 *  - limb i lives on chip i mod chips, and output aggregation's digit
 *    p is the limbs chip p holds.
 * Rungs come from the registry, so a new rung is swept
 * automatically; its expected counts follow from its KsPassOptions.
 *
 * After the sweep, the same checks pin Figure 8's claims one
 * configuration at a time, with the paper's counts spelled out:
 * limb placement and collective counts, each keyswitch algorithm on
 * 4 chips, and the input-broadcast, CiFHER and output-aggregation
 * keyswitches at 2, 3, 4 and 6 chips. These keep the test names
 * they had when they ran on the standalone limb-machine engines the
 * compiled path replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "compiler/lowering.h"
#include "compiler/runtime.h"
#include "compiler/strategy.h"
#include "fhe_test_util.h"

using namespace cinnamon;
using compiler::KsAlgo;
using testutil::CkksHarness;

namespace {

CkksHarness &
harness()
{
    static CkksHarness h(1 << 10, 6, 3);
    return h;
}

/** One sweep case: a registry rung on a machine of `chips` chips. */
struct SweepCase
{
    std::string strategy;
    std::size_t chips = 0;
};

// gtest lists each case's printed parameter beside its name, and
// gtest_discover_tests keeps it in the ctest name. The default print
// is a byte dump that includes the string's heap pointer, which
// would rename the case on every launch.
void
PrintTo(const SweepCase &c, std::ostream *os)
{
    *os << "{" << c.strategy << ", " << c.chips << "}";
}

std::vector<SweepCase>
sweepCases()
{
    std::vector<SweepCase> cases;
    const auto &registry = compiler::StrategyRegistry::global();
    for (const auto &s : registry.entries())
        for (std::size_t chips : {1, 2, 3, 4, 6, 8})
            cases.push_back({s.name, chips});
    return cases;
}

/** "cinnamon-ks" on 4 chips → cinnamon_ks_4. */
std::string
caseName(const ::testing::TestParamInfo<SweepCase> &info)
{
    std::string name =
        info.param.strategy + "_" + std::to_string(info.param.chips);
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

compiler::CompiledProgram
compile(const compiler::Program &p,
        const compiler::CompilerConfig &cfg)
{
    compiler::Compiler comp(*harness().ctx, cfg);
    return comp.compile(p);
}

/** Run a compiled program on the emulator with `inputs` bound. */
std::map<std::string, fhe::Ciphertext>
run(const compiler::CompiledProgram &compiled,
    const std::map<std::string, fhe::Ciphertext> &inputs)
{
    auto &h = harness();
    compiler::ProgramRuntime rt(*h.ctx, *h.encoder, *h.keygen, h.sk);
    for (const auto &[name, ct] : inputs)
        rt.bindInput(name, ct);
    return rt.run(compiled);
}

/** The evaluator's keys for standard-digit keyswitches. */
struct ReferenceKeys
{
    fhe::GaloisKeys galois;
    fhe::EvalKey relin;
};

/**
 * Every key `compiled` loads, drawn as the runtime draws it: whole,
 * from the generator derived from the identity in its preload table.
 */
ReferenceKeys
referenceKeys(const compiler::CompiledProgram &compiled)
{
    auto &h = harness();
    ReferenceKeys keys;
    for (const auto &key : compiled.preload.keys) {
        EXPECT_FALSE(key.chip_digits) << key.identity;
        fhe::KeyGenerator kg = h.keygen->derived(key.identity);
        if (key.galois == fhe::KeyGenerator::kRelin)
            keys.relin = kg.relinKey(h.sk);
        else
            keys.galois.keys[key.galois] =
                kg.galoisKey(h.sk, key.galois);
    }
    return keys;
}

void
expectBitExact(const fhe::Ciphertext &got,
               const fhe::Ciphertext &want)
{
    EXPECT_EQ(got.level, want.level);
    EXPECT_EQ(got.c0, want.c0);
    EXPECT_EQ(got.c1, want.c1);
}

/**
 * Broadcast limbs of one standalone keyswitch at `level`: the input
 * once, and under CiFHER both accumulators again at mod-down, whose
 * ciphertext and extension limbs are partitioned too.
 */
std::size_t
keyswitchBroadcastLimbs(KsAlgo algo, std::size_t level)
{
    const std::size_t special = harness().ctx->specialBasis().size();
    return algo == KsAlgo::Cifher ? 3 * (level + 1) + 2 * special
                                  : level + 1;
}

/**
 * The registry rung `name` on `chips` chips, as the serving tier
 * compiles it; the single-chip rung keeps one chip. These programs
 * have one stream, so the rung's stream hint is moot.
 */
compiler::CompilerConfig
rungConfig(const std::string &name, std::size_t chips)
{
    compiler::CompilerConfig cfg;
    const auto &registry = compiler::StrategyRegistry::global();
    cfg.strategy = name;
    cfg.chips = registry.at(name).sequential ? 1 : chips;
    return cfg;
}

/**
 * Compile and run a rotation and a relinearization at `level`,
 * check each bit-exact with the evaluator, and return the
 * collectives each program emits.
 */
std::array<compiler::CommSummary, 2>
rotateAndRelin(const compiler::CompilerConfig &cfg,
               std::size_t level)
{
    auto &h = harness();
    const auto a = h.encryptSlots(h.randomSlots(1.0), level);
    const auto b = h.encryptSlots(h.randomSlots(1.0), level);

    compiler::Program rot("rotate", *h.ctx);
    rot.output("o", rot.rotate(rot.input("a", level), 3));
    const auto rotated = compile(rot, cfg);
    expectBitExact(
        run(rotated, {{"a", a}}).at("o"),
        h.eval->rotate(a, 3, referenceKeys(rotated).galois));

    compiler::Program mul("mul", *h.ctx);
    const auto x = mul.input("a", level);
    mul.output("o", mul.mul(x, mul.input("b", level)));
    const auto product = compile(mul, cfg);
    expectBitExact(
        run(product, {{"a", a}, {"b", b}}).at("o"),
        h.eval->mul(a, b, referenceKeys(product).relin));
    return {rotated.comm, product.comm};
}

/**
 * Compile and run rotations of one ciphertext at `level` by each of
 * `steps`, check every output bit-exact with the evaluator, and
 * return the compiled program.
 */
compiler::CompiledProgram
hoistedRotations(const compiler::CompilerConfig &cfg,
                 std::size_t level, const std::vector<int> &steps)
{
    auto &h = harness();
    compiler::Program p("hoist", *h.ctx);
    const auto x = p.input("x", level);
    for (int s : steps)
        p.output("r" + std::to_string(s), p.rotate(x, s));
    auto compiled = compile(p, cfg);
    const auto ct = h.encryptSlots(h.randomSlots(1.0), level);
    const auto out = run(compiled, {{"x", ct}});
    const auto keys = referenceKeys(compiled);
    for (int s : steps) {
        SCOPED_TRACE("rotation " + std::to_string(s));
        expectBitExact(out.at("r" + std::to_string(s)),
                       h.eval->rotate(ct, s, keys.galois));
    }
    return compiled;
}

/**
 * Expect every key `compiled` loads to be split into the digits the
 * chips of a `chips`-chip group hold.
 */
void
expectChipDigitKeys(const compiler::CompiledProgram &compiled,
                    std::size_t chips)
{
    auto &h = harness();
    ASSERT_FALSE(compiled.preload.keys.empty());
    for (const auto &key : compiled.preload.keys) {
        EXPECT_TRUE(key.chip_digits) << key.identity;
        EXPECT_EQ(compiler::keyDigitBases(*h.ctx, key),
                  compiler::chipDigitBases(h.ctx->maxLevel(), chips));
    }
}

/** A rotate-then-sum of distinct ciphertexts, compiled and run. */
struct RotateSum
{
    compiler::CompiledProgram compiled;
    std::vector<fhe::Ciphertext> inputs;
    fhe::Ciphertext out;
    double error = 0; ///< max slot error against the plain sum
};

/** Σ_k rotate(x_k, steps[k]) over fresh ciphertexts at `level`. */
RotateSum
rotateSum(const compiler::CompilerConfig &cfg, std::size_t level,
          const std::vector<int> &steps)
{
    auto &h = harness();
    const std::size_t slots = h.ctx->slots();
    compiler::Program p("rotate_sum", *h.ctx);
    compiler::CtHandle sum;
    std::map<std::string, fhe::Ciphertext> bound;
    std::vector<fhe::Cplx> want(slots);
    RotateSum r;
    for (std::size_t k = 0; k < steps.size(); ++k) {
        const std::string name = "x" + std::to_string(k);
        const auto rot = p.rotate(p.input(name, level), steps[k]);
        sum = k == 0 ? rot : p.add(sum, rot);
        const auto v = h.randomSlots(1.0);
        for (std::size_t i = 0; i < slots; ++i)
            want[i] += v[(i + steps[k]) % slots];
        r.inputs.push_back(h.encryptSlots(v, level));
        bound[name] = r.inputs.back();
    }
    p.output("o", sum);
    r.compiled = compile(p, cfg);
    r.out = run(r.compiled, bound).at("o");
    r.error = testutil::maxError(h.decryptSlots(r.out), want);
    return r;
}

class KeyswitchSweep : public ::testing::TestWithParam<SweepCase>
{
  protected:
    const compiler::CompileStrategy &strategy() const
    {
        return compiler::StrategyRegistry::global().at(
            GetParam().strategy);
    }

    compiler::CompilerConfig config() const
    {
        return rungConfig(GetParam().strategy, GetParam().chips);
    }

    /** Chips the case compiles for: one for the single-chip rung. */
    std::size_t chips() const { return config().chips; }
};

} // namespace

TEST_P(KeyswitchSweep, RotateAndRelinBitExact)
{
    const KsAlgo algo = strategy().ks.default_algo;
    const std::size_t top = harness().ctx->maxLevel();
    for (const std::size_t level : {top, std::size_t{2}}) {
        SCOPED_TRACE("level " + std::to_string(level));
        for (const auto &comm : rotateAndRelin(config(), level)) {
            EXPECT_EQ(comm.broadcast_limbs,
                      keyswitchBroadcastLimbs(algo, level));
            EXPECT_EQ(comm.aggregation_limbs, 0u);
        }
    }
}

TEST_P(KeyswitchSweep, HoistedRotationsBitExact)
{
    const std::size_t level = 3;
    const std::vector<int> steps{1, 2, 5, 9};
    const auto compiled = hoistedRotations(config(), level, steps);

    // The pass hoists one broadcast over the batch unless batching is
    // off or the decomposition is CiFHER's, whose mod-down broadcasts
    // cannot be hoisted.
    const auto &ks = strategy().ks;
    const bool hoisted =
        ks.enable_batching && ks.default_algo != KsAlgo::Cifher;
    const std::size_t r = steps.size();
    const std::size_t per_ks =
        keyswitchBroadcastLimbs(ks.default_algo, level);
    EXPECT_EQ(compiled.ks_pass.ib_batches.size(), hoisted ? 1u : 0u);
    EXPECT_EQ(compiled.comm.broadcast_limbs,
              hoisted ? level + 1 : r * per_ks);
    EXPECT_EQ(compiled.comm.aggregation_limbs, 0u);
    if (ks.default_algo != KsAlgo::Cifher) {
        EXPECT_LT(compiled.comm.total(),
                  r * keyswitchBroadcastLimbs(KsAlgo::Cifher, level));
    }
}

TEST_P(KeyswitchSweep, SumOfDistinctRotations)
{
    auto &h = harness();
    const std::size_t level = h.ctx->maxLevel();
    const std::vector<int> steps{1, 3, 4};
    const auto r = rotateSum(config(), level, steps);
    const auto &comm = r.compiled.comm;

    // The pass batches the addition tree when output aggregation is
    // on and the decomposition is not CiFHER's. Lowering aggregates
    // only where every chip owns a digit and each digit's product
    // stays below the extension modulus.
    const auto &ks = strategy().ks;
    const bool batched = ks.enable_batching &&
                         ks.enable_output_aggregation &&
                         ks.default_algo != KsAlgo::Cifher;
    const std::size_t g = chips();
    const std::size_t special = h.ctx->specialBasis().size();
    const bool aggregated =
        batched && level + 1 >= g && (level + g) / g <= special;
    EXPECT_EQ(r.compiled.ks_pass.oa_batches.size(),
              batched ? 1u : 0u);

    if (aggregated) {
        EXPECT_EQ(comm.aggregation_limbs, 2 * (level + 1));
        EXPECT_EQ(comm.broadcast_limbs, 0u);
        EXPECT_LT(r.error, 1e-3);
        expectChipDigitKeys(r.compiled, g);
    } else if (batched) {
        // Lowering declined the batch and fell back to per-rotation
        // keyswitches, which miscompile distinct inputs:
        // DISABLED_OaFallbackRotateSumDecrypts below reproduces it.
        EXPECT_EQ(comm.aggregation_limbs, 0u);
    } else {
        const auto keys = referenceKeys(r.compiled);
        fhe::Ciphertext want;
        for (std::size_t k = 0; k < steps.size(); ++k) {
            const auto rot =
                h.eval->rotate(r.inputs[k], steps[k], keys.galois);
            want = k == 0 ? rot : h.eval->add(want, rot);
        }
        expectBitExact(r.out, want);
        const std::size_t per_ks =
            keyswitchBroadcastLimbs(ks.default_algo, level);
        EXPECT_EQ(comm.broadcast_limbs, steps.size() * per_ks);
        EXPECT_EQ(comm.aggregation_limbs, 0u);
        EXPECT_LT(r.error, 1e-3);
    }
}

TEST_P(KeyswitchSweep, ModularPlacement)
{
    auto &h = harness();
    const std::size_t g = chips();
    const std::size_t top = h.ctx->maxLevel();
    for (const std::size_t level : {std::size_t{2}, top}) {
        SCOPED_TRACE("level " + std::to_string(level));
        const auto digits = compiler::chipDigitBases(level, g);
        ASSERT_EQ(digits.size(), std::min(g, level + 1));
        for (std::size_t d = 0; d < digits.size(); ++d) {
            rns::Basis want;
            for (uint32_t i = 0; i <= level; ++i)
                if (i % g == d)
                    want.push_back(i);
            EXPECT_EQ(digits[d], want) << "digit " << d;
        }

        compiler::Program p("rotate", *h.ctx);
        p.output("o", p.rotate(p.input("x", level), 1));
        const auto compiled = compile(p, config());
        const auto &owners = compiled.outputs.at("o").owners;
        ASSERT_EQ(owners.size(), level + 1);
        for (std::size_t i = 0; i <= level; ++i)
            EXPECT_EQ(owners[i], i % g) << "limb " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Rungs, KeyswitchSweep,
                         ::testing::ValuesIn(sweepCases()), caseName);

// ---- Figure 8, one configuration at a time ------------------------

namespace {

/** Chips of the Cinnamon-4 machine the one-keyswitch checks use. */
constexpr std::size_t kChips = 4;

} // namespace

TEST(LimbMachine, ModularPartition)
{
    // Chip p holds the limbs i of a level-5 ciphertext with
    // i mod 4 = p.
    EXPECT_EQ(compiler::chipDigitBases(5, kChips),
              (std::vector<rns::Basis>{{0, 4}, {1, 5}, {2}, {3}}));
}

TEST(LimbMachine, ScatterGatherRoundTrip)
{
    // A sum needs no collective: the runtime scatters each input's
    // limbs to their owners and gathers the output back unchanged.
    auto &h = harness();
    const std::size_t level = h.ctx->maxLevel();
    compiler::Program p("add", *h.ctx);
    p.output("o", p.add(p.input("a", level), p.input("b", level)));
    const auto compiled =
        compile(p, rungConfig("input-broadcast", kChips));
    EXPECT_EQ(compiled.comm.total(), 0u);
    const auto &owners = compiled.outputs.at("o").owners;
    ASSERT_EQ(owners.size(), level + 1);
    for (std::size_t i = 0; i <= level; ++i)
        EXPECT_EQ(owners[i], i % kChips) << "limb " << i;

    const auto a = h.encryptSlots(h.randomSlots(1.0), level);
    const auto b = h.encryptSlots(h.randomSlots(1.0), level);
    expectBitExact(run(compiled, {{"a", a}, {"b", b}}).at("o"),
                   h.eval->add(a, b));
}

TEST(LimbMachine, CollectivesCountCommunication)
{
    // At level 5 a broadcast moves the input's 6 limbs, and each of
    // an output-aggregation batch's two aggregations moves 6.
    const std::size_t level = 5;
    compiler::Program p("rotate", *harness().ctx);
    p.output("o", p.rotate(p.input("x", level), 1));
    const auto broadcast =
        compile(p, rungConfig("input-broadcast", kChips)).comm;
    EXPECT_EQ(broadcast.broadcast_limbs, 6u);
    EXPECT_EQ(broadcast.aggregation_limbs, 0u);

    const auto aggregated =
        rotateSum(rungConfig("cinnamon-ks", kChips), level, {1, 2})
            .compiled.comm;
    EXPECT_EQ(aggregated.broadcast_limbs, 0u);
    EXPECT_EQ(aggregated.aggregation_limbs, 12u);
}

TEST(ParallelKeyswitch, InputBroadcastBitExactWithSequential)
{
    const std::size_t level = harness().ctx->maxLevel();
    const auto cfg = rungConfig("input-broadcast", kChips);
    for (const auto &comm : rotateAndRelin(cfg, level)) {
        EXPECT_EQ(comm.broadcast_limbs, level + 1);
        EXPECT_EQ(comm.aggregation_limbs, 0u);
    }
}

TEST(ParallelKeyswitch, InputBroadcastAtLowerLevel)
{
    const std::size_t level = 2;
    const auto cfg = rungConfig("input-broadcast", kChips);
    for (const auto &comm : rotateAndRelin(cfg, level)) {
        EXPECT_EQ(comm.broadcast_limbs, level + 1);
        EXPECT_EQ(comm.aggregation_limbs, 0u);
    }
}

TEST(ParallelKeyswitch,
     CifherBitExactWithSequentialButThreeCollectives)
{
    // The input once, then both accumulators again at mod-down.
    auto &h = harness();
    const std::size_t level = h.ctx->maxLevel();
    const std::size_t special = h.ctx->specialBasis().size();
    const auto cfg = rungConfig("cifher", kChips);
    for (const auto &comm : rotateAndRelin(cfg, level)) {
        EXPECT_EQ(comm.broadcast_limbs,
                  3 * (level + 1) + 2 * special);
        EXPECT_EQ(comm.aggregation_limbs, 0u);
    }
}

TEST(ParallelKeyswitch, OutputAggregationIsValidKeyswitch)
{
    // The compiler applies output aggregation to rotate-then-sum
    // trees, with keys over the digits the chips hold. The smallest
    // tree sums two rotations.
    const std::size_t level = harness().ctx->maxLevel();
    const auto r =
        rotateSum(rungConfig("cinnamon-ks", kChips), level, {1, 2});
    EXPECT_LT(r.error, 1e-3);
    EXPECT_EQ(r.compiled.comm.broadcast_limbs, 0u);
    EXPECT_EQ(r.compiled.comm.aggregation_limbs, 2 * (level + 1));
    expectChipDigitKeys(r.compiled, kChips);
}

TEST(ParallelKeyswitch, HoistedRotationsOneBroadcast)
{
    const std::size_t level = 3;
    const auto compiled = hoistedRotations(
        rungConfig("ib-pass", kChips), level, {1, 2, 5, 9});
    EXPECT_EQ(compiled.ks_pass.ib_batches.size(), 1u);
    EXPECT_EQ(compiled.comm.broadcast_limbs, level + 1);
    EXPECT_EQ(compiled.comm.aggregation_limbs, 0u);
}

TEST(ParallelKeyswitch, RotateAggregateTwoAggregations)
{
    const std::size_t level = harness().ctx->maxLevel();
    const auto r = rotateSum(rungConfig("cinnamon-ks", kChips),
                             level, {1, 3, 4});
    EXPECT_EQ(r.compiled.ks_pass.oa_batches.size(), 1u);
    EXPECT_EQ(r.compiled.comm.broadcast_limbs, 0u);
    EXPECT_EQ(r.compiled.comm.aggregation_limbs, 2 * (level + 1));
    EXPECT_LT(r.error, 1e-3);
}

TEST(ParallelKeyswitch, CinnamonBeatsCifherOnBatchedPatterns)
{
    // Eight rotations of one ciphertext: Cinnamon hoists a single
    // broadcast, while CiFHER's mod-down broadcasts cannot be
    // hoisted, so even with the pass it pays three per rotation.
    const std::size_t level = harness().ctx->maxLevel();
    const std::vector<int> steps{1, 2, 3, 4, 5, 6, 7, 8};
    const auto cinnamon = hoistedRotations(
        rungConfig("cinnamon-ks", kChips), level, steps);
    const auto cifher = hoistedRotations(
        rungConfig("cifher-pass", kChips), level, steps);
    EXPECT_EQ(cinnamon.comm.total(), level + 1);
    EXPECT_GT(cifher.comm.total(), 2 * cinnamon.comm.total());
}

// ---- Figure 8's keyswitches across machine sizes ------------------

class ChipsSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ChipsSweep, InputBroadcastBitExactAtAnyChipCount)
{
    const std::size_t level = harness().ctx->maxLevel();
    const auto cfg = rungConfig("input-broadcast", GetParam());
    for (const auto &comm : rotateAndRelin(cfg, level))
        EXPECT_EQ(comm.broadcast_limbs, level + 1);
}

TEST_P(ChipsSweep, CifherBitExactAtAnyChipCount)
{
    const std::size_t level = harness().ctx->maxLevel();
    const auto cfg = rungConfig("cifher", GetParam());
    for (const auto &comm : rotateAndRelin(cfg, level))
        EXPECT_EQ(comm.broadcast_limbs,
                  keyswitchBroadcastLimbs(KsAlgo::Cifher, level));
}

TEST_P(ChipsSweep, OutputAggregationDecryptsAtAnyChipCount)
{
    auto &h = harness();
    const std::size_t chips = GetParam();
    const std::size_t level = h.ctx->maxLevel();
    // Each chip's digit must fit under the extension modulus; where
    // it does not, lowering declines the batch (see the disabled
    // repro below).
    if ((level + chips) / chips > h.ctx->specialBasis().size())
        GTEST_SKIP() << "digit too large for P at " << chips
                     << " chips";
    const auto r =
        rotateSum(rungConfig("cinnamon-ks", chips), level, {1, 3, 4});
    EXPECT_EQ(r.compiled.comm.broadcast_limbs, 0u);
    EXPECT_EQ(r.compiled.comm.aggregation_limbs, 2 * (level + 1));
    EXPECT_LT(r.error, 1e-3);
    expectChipDigitKeys(r.compiled, chips);
}

INSTANTIATE_TEST_SUITE_P(Machines, ChipsSweep,
                         ::testing::Values(2, 3, 4, 6));

// When lowering declines an output-aggregation batch (a digit too
// large for the extension modulus, or fewer limbs than chips), the
// members keep their batch id, and the keyswitch lowering takes any
// batch id for a hoisted input-broadcast batch: every member reuses
// the first member's broadcast copies, so a sum of distinct
// ciphertexts decrypts to garbage. Enable once the lowering hoists
// only input-broadcast batches.
TEST(KeyswitchStrategies, DISABLED_OaFallbackRotateSumDecrypts)
{
    auto &h = harness();
    for (const std::size_t chips : {1, 2, 8}) {
        SCOPED_TRACE(std::to_string(chips) + " chips, top level");
        compiler::CompilerConfig cfg;
        cfg.strategy = "cinnamon-ks";
        cfg.chips = chips;
        EXPECT_LT(rotateSum(cfg, h.ctx->maxLevel(), {1, 3, 4}).error,
                  1e-3);
    }
    SCOPED_TRACE("default 4-chip config, level 2");
    EXPECT_LT(rotateSum(compiler::CompilerConfig{}, 2, {1, 2}).error,
              1e-3);
}
