/**
 * @file
 * Unit tests for the Cinnamon ISA and its functional emulator
 * (src/isa): every opcode's semantics against the rns/ reference,
 * collective rendezvous, participant-group scoping, and the
 * instruction text format.
 */

#include <gtest/gtest.h>

#include "common/random.h"
#include "fhe_test_util.h"
#include "isa/emulator.h"

using namespace cinnamon;
using namespace cinnamon::isa;
using testutil::CkksHarness;

namespace {

CkksHarness &
harness()
{
    static CkksHarness h(1 << 8, 4, 2);
    return h;
}

Limb
randomLimb(Rng &rng, const fhe::CkksContext &ctx, uint32_t prime)
{
    return Limb{prime,
                rng.uniformVector(ctx.n(),
                                  ctx.rns().modulus(prime).value())};
}

/** An instruction with its operand lists, before it joins a chip. */
struct Spec
{
    Instruction ins;
    std::vector<int> srcs;
    std::vector<uint32_t> aux;
};

/** Append `spec` to `chip`, its lists to the chip's pools. */
void
add(ChipProgram &chip, const Spec &spec)
{
    Instruction ins = spec.ins;
    ins.srcs = chip.addSrcs(spec.srcs);
    ins.aux = chip.addAux(spec.aux);
    chip.instrs.push_back(ins);
}

/** Single-chip program wrapper. */
MachineProgram
oneChip(const std::vector<Spec> &specs)
{
    MachineProgram p;
    p.chips.resize(1);
    for (const Spec &spec : specs)
        add(p.chips[0], spec);
    return p;
}

Spec
make(Opcode op, int dst, std::vector<int> srcs, uint32_t prime,
     uint64_t imm = 0, std::vector<uint32_t> aux = {})
{
    Spec spec;
    spec.ins.op = op;
    spec.ins.dst = dst;
    spec.ins.prime = prime;
    spec.ins.imm = imm;
    spec.srcs = std::move(srcs);
    spec.aux = std::move(aux);
    return spec;
}

} // namespace

TEST(IsaText, OpcodeNamesAndToString)
{
    EXPECT_STREQ(opcodeName(Opcode::Ntt), "ntt");
    EXPECT_STREQ(opcodeName(Opcode::BConv), "bcv");
    EXPECT_STREQ(opcodeName(Opcode::Bcast), "bcast");
    EXPECT_TRUE(isCollective(Opcode::Agg));
    EXPECT_FALSE(isCollective(Opcode::Mul));

    ChipProgram chip;
    add(chip, make(Opcode::Add, 3, {1, 2}, 7));
    auto text = chip.toString(chip.instrs[0]);
    EXPECT_NE(text.find("add"), std::string::npos);
    EXPECT_NE(text.find("r3"), std::string::npos);
    EXPECT_NE(text.find("q7"), std::string::npos);
}

TEST(Emulator, LoadStoreRoundTrip)
{
    auto &h = harness();
    Emulator emu(*h.ctx, 1);
    Rng rng(1);
    auto limb = randomLimb(rng, *h.ctx, 0);
    emu.memory(0).store(100, limb);
    emu.run(oneChip({make(Opcode::Load, 0, {}, 0, 100),
                     make(Opcode::Store, -1, {0}, 0, 200)}));
    EXPECT_EQ(emu.memory(0).at(200).data, limb.data);
    EXPECT_EQ(emu.stats().executed.at(Opcode::Load), 1u);
    EXPECT_EQ(emu.stats().executed.at(Opcode::Store), 1u);
}

TEST(Emulator, ArithmeticMatchesReference)
{
    auto &h = harness();
    Emulator emu(*h.ctx, 1);
    Rng rng(2);
    auto a = randomLimb(rng, *h.ctx, 1);
    auto b = randomLimb(rng, *h.ctx, 1);
    emu.memory(0).store(1, a);
    emu.memory(0).store(2, b);
    emu.run(oneChip({
        make(Opcode::Load, 0, {}, 1, 1),
        make(Opcode::Load, 1, {}, 1, 2),
        make(Opcode::Add, 2, {0, 1}, 1),
        make(Opcode::Sub, 3, {0, 1}, 1),
        make(Opcode::Mul, 4, {0, 1}, 1),
        make(Opcode::AddScalar, 5, {0}, 1, 42),
        make(Opcode::MulScalar, 6, {0}, 1, 7),
    }));
    const auto &mod = h.ctx->rns().modulus(1);
    for (std::size_t j = 0; j < h.ctx->n(); j += 17) {
        EXPECT_EQ(emu.reg(0, 2).data[j],
                  mod.add(a.data[j], b.data[j]));
        EXPECT_EQ(emu.reg(0, 3).data[j],
                  mod.sub(a.data[j], b.data[j]));
        EXPECT_EQ(emu.reg(0, 4).data[j],
                  mod.mul(a.data[j], b.data[j]));
        EXPECT_EQ(emu.reg(0, 5).data[j], mod.add(a.data[j], 42));
        EXPECT_EQ(emu.reg(0, 6).data[j], mod.mul(a.data[j], 7));
    }
}

TEST(Emulator, NttInttInverse)
{
    auto &h = harness();
    Emulator emu(*h.ctx, 1);
    Rng rng(3);
    auto a = randomLimb(rng, *h.ctx, 0);
    emu.memory(0).store(1, a);
    emu.run(oneChip({
        make(Opcode::Load, 0, {}, 0, 1),
        make(Opcode::Ntt, 1, {0}, 0),
        make(Opcode::Intt, 2, {1}, 0),
    }));
    EXPECT_NE(emu.reg(0, 1).data, a.data);
    EXPECT_EQ(emu.reg(0, 2).data, a.data);
}

TEST(Emulator, AutomorphMatchesPolyAutomorphism)
{
    auto &h = harness();
    Emulator emu(*h.ctx, 1);
    Rng rng(4);
    auto a = randomLimb(rng, *h.ctx, 0);
    const uint64_t g = 5;
    emu.memory(0).store(1, a);
    emu.run(oneChip({make(Opcode::Load, 0, {}, 0, 1),
                     make(Opcode::Automorph, 1, {0}, 0, g)}));

    rns::RnsPoly ref(h.ctx->rns(), {0}, rns::Domain::Coeff);
    ref.setLimb(0, a.data);
    auto expected = ref.automorphism(g);
    EXPECT_EQ(emu.reg(0, 1).data, expected.limb(0));
}

TEST(Emulator, BConvMatchesBaseConverter)
{
    auto &h = harness();
    Emulator emu(*h.ctx, 1);
    Rng rng(5);
    // Source digit {q0, q1}; convert to prime index 2.
    auto a0 = randomLimb(rng, *h.ctx, 0);
    auto a1 = randomLimb(rng, *h.ctx, 1);
    emu.memory(0).store(1, a0);
    emu.memory(0).store(2, a1);

    // Pre-scale by (S/s_i)^{-1} mod s_i, as the compiler does.
    rns::Basis digit{0, 1};
    auto shat_inv = [&](std::size_t i) {
        const auto &di = h.ctx->rns().modulus(digit[i]);
        uint64_t prod = h.ctx->rns().modulus(digit[1 - i]).value() %
                        di.value();
        return di.inv(prod);
    };
    emu.run(oneChip({
        make(Opcode::Load, 0, {}, 0, 1),
        make(Opcode::Load, 1, {}, 1, 2),
        make(Opcode::MulScalar, 2, {0}, 0, shat_inv(0)),
        make(Opcode::MulScalar, 3, {1}, 1, shat_inv(1)),
        make(Opcode::BConv, 4, {2, 3}, 2, 0, {0, 1}),
    }));

    rns::RnsPoly src(h.ctx->rns(), digit, rns::Domain::Coeff);
    src.setLimb(0, a0.data);
    src.setLimb(1, a1.data);
    rns::BaseConverter conv(h.ctx->rns(), digit, {2});
    auto expected = conv.convert(src);
    EXPECT_EQ(emu.reg(0, 4).data, expected.limb(0));
}

TEST(Emulator, ModReducesAcrossPrimes)
{
    auto &h = harness();
    Emulator emu(*h.ctx, 1);
    Rng rng(6);
    auto a = randomLimb(rng, *h.ctx, 0);
    emu.memory(0).store(1, a);
    emu.run(oneChip({make(Opcode::Load, 0, {}, 0, 1),
                     make(Opcode::Mod, 1, {0}, 1, 0, {0})}));
    const uint64_t q1 = h.ctx->rns().modulus(1).value();
    for (std::size_t j = 0; j < h.ctx->n(); j += 13)
        EXPECT_EQ(emu.reg(0, 1).data[j], a.data[j] % q1);
}

TEST(Emulator, BroadcastDeliversOwnerValue)
{
    auto &h = harness();
    Emulator emu(*h.ctx, 3);
    Rng rng(7);
    auto limb = randomLimb(rng, *h.ctx, 0);
    emu.memory(1).store(1, limb); // owner is chip 1

    MachineProgram p;
    p.chips.resize(3);
    for (uint32_t c = 0; c < 3; ++c) {
        if (c == 1)
            add(p.chips[c], make(Opcode::Load, 0, {}, 0, 1));
        Spec b = make(Opcode::Bcast, 5, c == 1 ? std::vector<int>{0}
                                               : std::vector<int>{},
                      0, /*owner=*/1);
        b.ins.tag = 9;
        b.ins.part_lo = 0;
        b.ins.part_hi = 3;
        add(p.chips[c], b);
    }
    emu.run(p);
    for (std::size_t c = 0; c < 3; ++c)
        EXPECT_EQ(emu.reg(c, 5).data, limb.data) << "chip " << c;
    EXPECT_EQ(emu.stats().executed.at(Opcode::Bcast), 1u);
}

TEST(Emulator, AggregationSumsAndScopesToGroup)
{
    auto &h = harness();
    Emulator emu(*h.ctx, 4);
    Rng rng(8);
    std::vector<Limb> limbs;
    for (uint32_t c = 0; c < 4; ++c) {
        limbs.push_back(randomLimb(rng, *h.ctx, 0));
        emu.memory(c).store(1, limbs.back());
    }

    // Two disjoint groups {0,1} and {2,3}, each aggregating.
    MachineProgram p;
    p.chips.resize(4);
    for (uint32_t c = 0; c < 4; ++c) {
        add(p.chips[c], make(Opcode::Load, 0, {}, 0, 1));
        Spec a = make(Opcode::Agg, c % 2 == 0 ? 5 : -1, {0}, 0);
        a.ins.tag = c < 2 ? 1 : 2;
        a.ins.part_lo = c < 2 ? 0 : 2;
        a.ins.part_hi = c < 2 ? 2 : 4;
        add(p.chips[c], a);
    }
    emu.run(p);

    const auto &mod = h.ctx->rns().modulus(0);
    for (std::size_t j = 0; j < h.ctx->n(); j += 29) {
        EXPECT_EQ(emu.reg(0, 5).data[j],
                  mod.add(limbs[0].data[j], limbs[1].data[j]));
        EXPECT_EQ(emu.reg(2, 5).data[j],
                  mod.add(limbs[2].data[j], limbs[3].data[j]));
    }
    EXPECT_EQ(emu.stats().executed.at(Opcode::Agg), 2u);
}

TEST(Emulator, IndependentGroupsProgressIndependently)
{
    // Group {0} does pure local work while group {1,2} rendezvous:
    // the emulator must not global-barrier.
    auto &h = harness();
    Emulator emu(*h.ctx, 3);
    Rng rng(9);
    auto limb = randomLimb(rng, *h.ctx, 0);
    for (uint32_t c = 0; c < 3; ++c)
        emu.memory(c).store(1, limb);

    MachineProgram p;
    p.chips.resize(3);
    add(p.chips[0], make(Opcode::Load, 0, {}, 0, 1));
    add(p.chips[0], make(Opcode::Store, -1, {0}, 0, 2));
    for (uint32_t c = 1; c < 3; ++c) {
        add(p.chips[c], make(Opcode::Load, 0, {}, 0, 1));
        Spec a = make(Opcode::Agg, 5, {0}, 0);
        a.ins.tag = 77;
        a.ins.part_lo = 1;
        a.ins.part_hi = 3;
        add(p.chips[c], a);
    }
    emu.run(p);
    EXPECT_EQ(emu.memory(0).at(2).data, limb.data);
    const auto &mod = h.ctx->rns().modulus(0);
    EXPECT_EQ(emu.reg(1, 5).data[0],
              mod.add(limb.data[0], limb.data[0]));
}

TEST(Emulator, FenceAndNopAreNeutral)
{
    auto &h = harness();
    Emulator emu(*h.ctx, 1);
    Rng rng(10);
    auto a = randomLimb(rng, *h.ctx, 0);
    emu.memory(0).store(1, a);
    emu.run(oneChip({make(Opcode::Load, 0, {}, 0, 1),
                     make(Opcode::Fence, -1, {}, 0),
                     make(Opcode::Nop, -1, {}, 0),
                     make(Opcode::Store, -1, {0}, 0, 2)}));
    EXPECT_EQ(emu.memory(0).at(2).data, a.data);
}

TEST(Emulator, MachineProgramCounters)
{
    MachineProgram p;
    p.chips.resize(2);
    p.chips[0].instrs.resize(3);
    p.chips[1].instrs.resize(5);
    EXPECT_EQ(p.numChips(), 2u);
    EXPECT_EQ(p.totalInstructions(), 8u);
}
