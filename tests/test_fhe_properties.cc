/**
 * @file
 * Algebraic property tests on the CKKS layer: ring homomorphism laws
 * that must survive encryption (commutativity, distributivity,
 * rotation linearity, conjugation multiplicativity), encoder
 * linearity, DSL construction error paths, and partial evaluation
 * keys (a key built for a limb subset is the full key restricted).
 */

#include <gtest/gtest.h>

#include "compiler/compiled.h"
#include "compiler/dsl.h"
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

TEST(FheProperties, AdditionCommutesAndAssociates)
{
    auto &h = harness();
    auto va = h.randomSlots(1.0);
    auto vb = h.randomSlots(1.0);
    auto vc = h.randomSlots(1.0);
    auto a = h.encryptSlots(va, 3);
    auto b = h.encryptSlots(vb, 3);
    auto c = h.encryptSlots(vc, 3);

    // (a+b)+c == a+(b+c), and a+b == b+a — exactly, ciphertext-wise.
    auto lhs = h.eval->add(h.eval->add(a, b), c);
    auto rhs = h.eval->add(a, h.eval->add(b, c));
    EXPECT_TRUE(lhs.c0 == rhs.c0 && lhs.c1 == rhs.c1);
    auto ab = h.eval->add(a, b);
    auto ba = h.eval->add(b, a);
    EXPECT_TRUE(ab.c0 == ba.c0 && ab.c1 == ba.c1);
}

TEST(FheProperties, MultiplicationDistributesOverAddition)
{
    auto &h = harness();
    auto va = h.randomSlots(1.0);
    auto vb = h.randomSlots(1.0);
    auto vc = h.randomSlots(1.0);
    auto a = h.encryptSlots(va, 3);
    auto b = h.encryptSlots(vb, 3);
    auto c = h.encryptSlots(vc, 3);

    auto lhs = h.decryptSlots(
        h.eval->rescale(h.eval->mul(h.eval->add(a, b), c, h.relin)));
    auto rhs = h.decryptSlots(h.eval->rescale(h.eval->add(
        h.eval->mul(a, c, h.relin), h.eval->mul(b, c, h.relin))));
    EXPECT_LT(maxError(lhs, rhs), 1e-3);
    // And against the plaintext ground truth.
    double err = 0;
    for (std::size_t i = 0; i < h.ctx->slots(); i += 29)
        err = std::max(err,
                       std::abs(lhs[i] - (va[i] + vb[i]) * vc[i]));
    EXPECT_LT(err, 1e-3);
}

TEST(FheProperties, RotationIsLinear)
{
    auto &h = harness();
    auto gks = h.keygen->galoisKeys(h.sk, {3});
    auto va = h.randomSlots(1.0);
    auto vb = h.randomSlots(1.0);
    auto a = h.encryptSlots(va, 2);
    auto b = h.encryptSlots(vb, 2);

    // rot(a+b) == rot(a) + rot(b)
    auto lhs = h.decryptSlots(h.eval->rotate(h.eval->add(a, b), 3, gks));
    auto rhs = h.decryptSlots(
        h.eval->add(h.eval->rotate(a, 3, gks),
                    h.eval->rotate(b, 3, gks)));
    EXPECT_LT(maxError(lhs, rhs), 1e-3);
}

TEST(FheProperties, ConjugationIsMultiplicative)
{
    auto &h = harness();
    auto gks = h.keygen->galoisKeys(h.sk, {}, true);
    auto va = h.randomSlots(1.0);
    auto vb = h.randomSlots(1.0);
    auto a = h.encryptSlots(va, 3);
    auto b = h.encryptSlots(vb, 3);

    // conj(a*b) == conj(a)*conj(b)
    auto lhs = h.decryptSlots(h.eval->conjugate(
        h.eval->rescale(h.eval->mul(a, b, h.relin)), gks));
    auto rhs = h.decryptSlots(h.eval->rescale(
        h.eval->mul(h.eval->conjugate(a, gks),
                    h.eval->conjugate(b, gks), h.relin)));
    EXPECT_LT(maxError(lhs, rhs), 1e-3);
}

TEST(FheProperties, EncoderIsLinear)
{
    auto &h = harness();
    auto va = h.randomSlots(1.0);
    auto vb = h.randomSlots(1.0);
    auto pa = h.encoder->encode(va, 2);
    auto pb = h.encoder->encode(vb, 2);
    auto psum = pa.add(pb);
    auto back = h.encoder->decode(psum, h.params.scale);
    double err = 0;
    for (std::size_t i = 0; i < h.ctx->slots(); i += 17)
        err = std::max(err, std::abs(back[i] - (va[i] + vb[i])));
    EXPECT_LT(err, 1e-5);
}

TEST(FheProperties, EmbedForwardInverseAreMutual)
{
    auto &h = harness();
    auto v = h.randomSlots(1.0);
    auto round = h.encoder->embedForward(h.encoder->embedInverse(v));
    EXPECT_LT(maxError(v, round), 1e-9);
    auto round2 = h.encoder->embedInverse(h.encoder->embedForward(v));
    EXPECT_LT(maxError(v, round2), 1e-9);
}

TEST(FheProperties, FreshNoiseIsSmall)
{
    auto &h = harness();
    // Encrypt zero and measure the decrypted magnitude: the noise
    // floor must be orders of magnitude below one slot unit.
    std::vector<Cplx> zero(h.ctx->slots(), Cplx(0, 0));
    auto ct = h.encryptSlots(zero, 2);
    auto back = h.decryptSlots(ct);
    EXPECT_LT(maxError(zero, back), 1e-6);
}

TEST(FheProperties, SubIsAddOfNegate)
{
    auto &h = harness();
    auto va = h.randomSlots(1.0);
    auto vb = h.randomSlots(1.0);
    auto a = h.encryptSlots(va, 2);
    auto b = h.encryptSlots(vb, 2);
    auto lhs = h.eval->sub(a, b);
    auto rhs = h.eval->add(a, h.eval->negate(b));
    EXPECT_TRUE(lhs.c0 == rhs.c0 && lhs.c1 == rhs.c1);
}

TEST(DslErrors, LevelMismatchIsFatal)
{
    auto &h = harness();
    compiler::Program p("bad", *h.ctx);
    auto x = p.input("x", 3);
    auto y = p.input("y", 2);
    EXPECT_EXIT({ p.add(x, y); }, ::testing::ExitedWithCode(1),
                "levels differ");
}

TEST(DslErrors, RescaleAtLevelZeroIsFatal)
{
    auto &h = harness();
    compiler::Program p("bad", *h.ctx);
    auto x = p.input("x", 0);
    EXPECT_EXIT({ p.rescale(x); }, ::testing::ExitedWithCode(1),
                "rescale at level 0");
}

TEST(DslErrors, InputAboveChainIsFatal)
{
    auto &h = harness();
    compiler::Program p("bad", *h.ctx);
    EXPECT_EXIT({ p.input("x", 99); }, ::testing::ExitedWithCode(1),
                "exceeds the parameter chain");
}

namespace {

/**
 * A seeded scattered subset of the key basis per digit, listed in
 * shuffled order; digit 1 (when present) is left empty.
 */
std::vector<rns::Basis>
scatteredLimbs(const fhe::CkksContext &ctx, std::size_t digits,
               uint64_t seed)
{
    Rng rng(seed);
    std::vector<rns::Basis> limbs(digits);
    for (std::size_t j = 0; j < digits; ++j) {
        if (j == 1)
            continue;
        for (uint32_t p : ctx.keyBasis())
            if (rng.uniformMod(2) == 1)
                limbs[j].push_back(p);
        for (std::size_t i = limbs[j].size(); i > 1; --i)
            std::swap(limbs[j][i - 1], limbs[j][rng.uniformMod(i)]);
    }
    return limbs;
}

/** Each digit of `part` is `full`'s digit restricted to `limbs`. */
void
expectRestriction(const fhe::EvalKey &full, const fhe::EvalKey &part,
                  const std::vector<rns::Basis> &limbs)
{
    ASSERT_EQ(part.parts.size(), full.parts.size());
    for (std::size_t j = 0; j < limbs.size(); ++j) {
        EXPECT_EQ(part.parts[j].first.basis(), limbs[j]);
        EXPECT_TRUE(part.parts[j].first ==
                    full.parts[j].first.restrictTo(limbs[j]))
            << "b, digit " << j;
        EXPECT_TRUE(part.parts[j].second ==
                    full.parts[j].second.restrictTo(limbs[j]))
            << "a, digit " << j;
    }
}

} // namespace

TEST(KeyLimbs, SubsetKeyEqualsTheFullKeyRestricted)
{
    auto &h = harness();
    const fhe::CkksContext &ctx = *h.ctx;
    const std::vector<std::vector<rns::Basis>> partitions = {
        ctx.digits(ctx.maxLevel()),
        compiler::chipDigitBases(ctx.maxLevel(), 2),
        compiler::chipDigitBases(ctx.maxLevel(), 4),
    };
    const uint64_t rotation = ctx.galoisForRotation(3);
    const uint64_t conjugation = ctx.galoisForConjugation();
    uint64_t seed = 1;
    for (const auto &digits : partitions) {
        for (const uint64_t galois :
             {fhe::KeyGenerator::kRelin, rotation, conjugation}) {
            SCOPED_TRACE("digits " + std::to_string(digits.size()) +
                         ", galois " + std::to_string(galois));
            fhe::KeyGenerator whole(ctx, 4242 + seed);
            fhe::KeyGenerator partial(ctx, 4242 + seed);
            fhe::EvalKey full;
            if (galois == fhe::KeyGenerator::kRelin)
                full = whole.makeKeySwitchKeyForDigits(
                    h.sk, h.sk.s.mul(h.sk.s), digits);
            else
                full = whole.galoisKeyForDigits(h.sk, galois, digits);
            const auto limbs = scatteredLimbs(ctx, digits.size(), ++seed);
            expectRestriction(
                full, partial.keyLimbs(h.sk, galois, digits, limbs),
                limbs);
            // Both generators consumed the same draws.
            EXPECT_EQ(whole.rng().uniformMod(1ull << 40),
                      partial.rng().uniformMod(1ull << 40));
        }
    }
}

TEST(KeyLimbs, EveryLimbIsTheFullKey)
{
    auto &h = harness();
    const fhe::CkksContext &ctx = *h.ctx;
    const auto digits = ctx.digits(ctx.maxLevel());
    const std::vector<rns::Basis> all(digits.size(), ctx.keyBasis());
    const uint64_t galois = ctx.galoisForRotation(-2);

    fhe::KeyGenerator a(ctx, 31), b(ctx, 31);
    const auto relin = a.relinKey(h.sk);
    const auto relin_limbs =
        b.keyLimbs(h.sk, fhe::KeyGenerator::kRelin, digits, all);
    const auto rot = a.galoisKey(h.sk, galois);
    const auto rot_limbs = b.keyLimbs(h.sk, galois, digits, all);
    ASSERT_EQ(relin_limbs.parts.size(), relin.parts.size());
    for (std::size_t j = 0; j < digits.size(); ++j) {
        EXPECT_TRUE(relin_limbs.parts[j].first == relin.parts[j].first);
        EXPECT_TRUE(relin_limbs.parts[j].second == relin.parts[j].second);
        EXPECT_TRUE(rot_limbs.parts[j].first == rot.parts[j].first);
        EXPECT_TRUE(rot_limbs.parts[j].second == rot.parts[j].second);
    }
}
