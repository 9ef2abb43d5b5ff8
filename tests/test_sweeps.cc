/**
 * @file
 * Parameterized property sweeps across configuration axes:
 *  - parallel keyswitching over machine sizes (2..6 chips);
 *  - compiled rotations over step values and chip counts;
 *  - compiled multiply over levels;
 *  - keyswitch pass invariants over batch sizes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "compiler/lowering.h"
#include "compiler/runtime.h"
#include "fhe_test_util.h"
#include "parallel/keyswitch.h"

using namespace cinnamon;
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

} // namespace

// ---- parallel keyswitch across machine sizes -----------------------

class ChipsSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChipsSweep, InputBroadcastBitExactAtAnyChipCount)
{
    auto &h = harness();
    const std::size_t chips = GetParam();
    parallel::LimbMachine machine(*h.ctx, chips);
    parallel::ParallelKeySwitcher ks(*h.ctx, machine);

    const std::size_t level = h.ctx->maxLevel();
    auto v = h.randomSlots(1.0);
    auto ct = h.encryptSlots(v, level);
    auto [s0, s1] = h.eval->keySwitch(ct.c1, level, h.relin);

    auto out = ks.inputBroadcast(machine.scatter(ct.c1), level, h.relin);
    auto [p0, p1] = ks.gather(out, level);
    EXPECT_EQ(p0, s0);
    EXPECT_EQ(p1, s1);
}

TEST_P(ChipsSweep, CifherBitExactAtAnyChipCount)
{
    auto &h = harness();
    const std::size_t chips = GetParam();
    parallel::LimbMachine machine(*h.ctx, chips);
    parallel::ParallelKeySwitcher ks(*h.ctx, machine);

    const std::size_t level = h.ctx->maxLevel();
    auto v = h.randomSlots(1.0);
    auto ct = h.encryptSlots(v, level);
    auto [s0, s1] = h.eval->keySwitch(ct.c1, level, h.relin);

    auto out = ks.cifher(machine.scatter(ct.c1), level, h.relin);
    auto [p0, p1] = ks.gather(out, level);
    EXPECT_EQ(p0, s0);
    EXPECT_EQ(p1, s1);
}

TEST_P(ChipsSweep, OutputAggregationDecryptsAtAnyChipCount)
{
    auto &h = harness();
    const std::size_t chips = GetParam();
    // Digit size must fit under the extension modulus.
    const std::size_t level = h.ctx->maxLevel();
    const std::size_t digit_size = (level + chips) / chips;
    if (digit_size > h.ctx->specialBasis().size())
        GTEST_SKIP() << "digit too large for P at " << chips
                     << " chips";

    parallel::LimbMachine machine(*h.ctx, chips);
    parallel::ParallelKeySwitcher ks(*h.ctx, machine);
    auto digits = ks.chipDigits(level);
    auto s2 = h.sk.s.mul(h.sk.s);
    auto evk = h.keygen->makeKeySwitchKeyForDigits(h.sk, s2, digits);

    auto va = h.randomSlots(1.0);
    auto ca = h.encryptSlots(va, level);
    auto d0 = ca.c0.mul(ca.c0);
    auto d1 = ca.c0.mul(ca.c1);
    d1.addInPlace(ca.c1.mul(ca.c0));
    auto d2 = ca.c1.mul(ca.c1);

    auto out = ks.outputAggregation(machine.scatter(d2), level, evk);
    auto [k0, k1] = ks.gather(out, level);
    d0.addInPlace(k0);
    d1.addInPlace(k1);
    fhe::Ciphertext prod{d0, d1, level, ca.scale * ca.scale};
    auto back = h.decryptSlots(h.eval->rescale(prod));
    double err = 0;
    for (std::size_t i = 0; i < h.ctx->slots(); i += 31)
        err = std::max(err, std::abs(back[i] - va[i] * va[i]));
    EXPECT_LT(err, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Machines, ChipsSweep,
                         ::testing::Values(2, 3, 4, 6));

// ---- compiled rotation sweep ---------------------------------------

// gtest_discover_tests names each ctest case after gtest's byte dump
// of its parameter, so the struct must have no padding: padding bytes
// are indeterminate and would rename the case in every process.
struct RotCase
{
    std::int64_t steps;
    std::size_t chips;
};
static_assert(std::has_unique_object_representations_v<RotCase>);

class CompiledRotationSweep
    : public ::testing::TestWithParam<RotCase> {};

TEST_P(CompiledRotationSweep, MatchesPlainRotation)
{
    auto &h = harness();
    const int steps = static_cast<int>(GetParam().steps);
    const std::size_t chips = GetParam().chips;
    compiler::Program p("rot", *h.ctx);
    auto x = p.input("x", 3);
    p.output("o", p.rotate(x, steps));

    compiler::CompilerConfig cfg;
    cfg.chips = chips;
    compiler::Compiler comp(*h.ctx, cfg);
    auto compiled = comp.compile(p);

    compiler::ProgramRuntime rt(*h.ctx, *h.encoder, *h.keygen, h.sk);
    auto v = h.randomSlots(1.0);
    rt.bindInput("x", h.encryptSlots(v, 3));
    auto out = rt.run(compiled);
    auto back = h.decryptSlots(out.at("o"));
    const std::size_t slots = h.ctx->slots();
    double err = 0;
    for (std::size_t i = 0; i < slots; i += 23) {
        const std::size_t j =
            (i + static_cast<std::size_t>(
                     ((steps % (int)slots) + (int)slots) % (int)slots)) %
            slots;
        err = std::max(err, std::abs(back[i] - v[j]));
    }
    EXPECT_LT(err, 1e-3) << "steps=" << steps << " chips=" << chips;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CompiledRotationSweep,
    ::testing::Values(RotCase{1, 2}, RotCase{7, 2}, RotCase{64, 4},
                      RotCase{-3, 4}, RotCase{255, 3}));

// ---- compiled multiply across levels --------------------------------

class MulLevelSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MulLevelSweep, SquareDecryptsCorrectly)
{
    auto &h = harness();
    const std::size_t level = GetParam();
    compiler::Program p("sq", *h.ctx);
    auto x = p.input("x", level);
    p.output("o", p.rescale(p.mul(x, x)));

    compiler::CompilerConfig cfg;
    cfg.chips = 4;
    compiler::Compiler comp(*h.ctx, cfg);
    auto compiled = comp.compile(p);

    compiler::ProgramRuntime rt(*h.ctx, *h.encoder, *h.keygen, h.sk);
    auto v = h.randomSlots(1.0);
    rt.bindInput("x", h.encryptSlots(v, level));
    auto out = rt.run(compiled);
    auto back = h.decryptSlots(out.at("o"));
    double err = 0;
    for (std::size_t i = 0; i < h.ctx->slots(); i += 31)
        err = std::max(err, std::abs(back[i] - v[i] * v[i]));
    EXPECT_LT(err, 1e-3) << "level " << level;
}

INSTANTIATE_TEST_SUITE_P(Levels, MulLevelSweep,
                         ::testing::Values(1, 2, 4, 5));

// ---- keyswitch pass invariants over batch size -----------------------

class PassBatchSweep : public ::testing::TestWithParam<int> {};

TEST_P(PassBatchSweep, IbBatchCoversAllRotations)
{
    auto &h = harness();
    const int r = GetParam();
    compiler::Program p("b", *h.ctx);
    auto x = p.input("x", 3);
    for (int i = 1; i <= r; ++i)
        p.output("o" + std::to_string(i), p.rotate(x, i));
    auto res = compiler::runKeyswitchPass(p);
    if (r < 2) {
        EXPECT_TRUE(res.ib_batches.empty());
    } else {
        ASSERT_EQ(res.ib_batches.size(), 1u);
        EXPECT_EQ(res.ib_batches[0].rotations.size(),
                  static_cast<std::size_t>(r));
    }
}

TEST_P(PassBatchSweep, OaBatchCoversAllRotations)
{
    auto &h = harness();
    const int r = GetParam();
    if (r < 2)
        GTEST_SKIP();
    compiler::Program p("b", *h.ctx);
    std::vector<compiler::CtHandle> rots;
    for (int i = 0; i < r; ++i) {
        auto x = p.input("x" + std::to_string(i), 3);
        rots.push_back(p.rotate(x, i + 1));
    }
    auto acc = rots[0];
    for (int i = 1; i < r; ++i)
        acc = p.add(acc, rots[i]);
    p.output("o", acc);
    auto res = compiler::runKeyswitchPass(p);
    ASSERT_EQ(res.oa_batches.size(), 1u);
    EXPECT_EQ(res.oa_batches[0].rotations.size(),
              static_cast<std::size_t>(r));
    EXPECT_TRUE(res.oa_batches[0].extras.empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, PassBatchSweep,
                         ::testing::Values(1, 2, 3, 5, 9));
