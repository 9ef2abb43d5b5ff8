/**
 * @file
 * Parameterized property sweeps across configuration axes:
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
