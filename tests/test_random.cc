/**
 * @file
 * Rng tests: the block-generated MT19937-64 engine reproduces
 * std::mt19937_64 word for word — across block boundaries and through
 * copies taken mid-block — and every sampler built on it returns what
 * the same sampler returns when driven by std::mt19937_64.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "common/random.h"

using namespace cinnamon;

namespace {

constexpr uint64_t kSeeds[] = {0ull, 1ull, 5489ull, 0x9e3779b97f4a7c15ull,
                               ~0ull};

/** Rng's samplers, restated over std::mt19937_64. */
struct StdSamplers
{
    std::mt19937_64 engine;

    explicit StdSamplers(uint64_t seed) : engine(seed) {}

    uint64_t
    uniformMod(uint64_t q)
    {
        return std::uniform_int_distribution<uint64_t>(0, q - 1)(engine);
    }

    int64_t
    ternary()
    {
        switch (engine() & 3) {
          case 0:
            return -1;
          case 1:
            return 1;
          default:
            return 0;
        }
    }

    int64_t
    gaussian(double sigma)
    {
        return static_cast<int64_t>(std::llround(
            std::normal_distribution<double>(0.0, sigma)(engine)));
    }

    double
    uniformReal(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine);
    }
};

} // namespace

static_assert(Mt19937_64::min() == std::mt19937_64::min() &&
              Mt19937_64::max() == std::mt19937_64::max());

TEST(Rng, EngineMatchesStdMt19937OverAMillionDraws)
{
    for (const uint64_t seed : kSeeds) {
        Mt19937_64 fast(seed);
        std::mt19937_64 ref(seed);
        // Not a multiple of the 312-word block: the last block is
        // consumed part-way.
        for (std::size_t i = 0; i < 1000003; ++i)
            ASSERT_EQ(fast(), ref()) << "seed " << seed << " draw " << i;
    }
}

TEST(Rng, CopyTakenMidBlockContinuesTheStream)
{
    for (const uint64_t seed : kSeeds) {
        Mt19937_64 fast(seed);
        std::mt19937_64 ref(seed);
        for (std::size_t i = 0; i < 700; ++i) { // 2 blocks + 76 words
            fast();
            ref();
        }
        Mt19937_64 copy = fast;
        std::mt19937_64 ref_copy = ref;
        for (std::size_t i = 0; i < 1000; ++i) {
            const uint64_t want = ref();
            ASSERT_EQ(fast(), want);
            ASSERT_EQ(ref_copy(), want);
            ASSERT_EQ(copy(), want) << "seed " << seed << " draw " << i;
        }
    }
}

TEST(Rng, SamplersMatchTheStdEngineDrivenSamplers)
{
    for (const uint64_t seed : kSeeds) {
        Rng rng(seed);
        StdSamplers ref(seed);
        // Interleave the samplers in a seeded order so each one starts
        // at many different offsets within a block.
        std::mt19937_64 order(seed ^ 0x5eed);
        for (std::size_t i = 0; i < 200000; ++i) {
            switch (order() % 6) {
              case 0: {
                const uint64_t q = (order() >> 4) | 1; // up to 2^60
                ASSERT_EQ(rng.uniformMod(q), ref.uniformMod(q));
                break;
              }
              case 1:
                ASSERT_EQ(rng.uniformMod(3), ref.uniformMod(3));
                break;
              case 2:
                ASSERT_EQ(rng.ternary(), ref.ternary());
                break;
              case 3:
                ASSERT_EQ(rng.gaussian(3.2), ref.gaussian(3.2));
                break;
              case 4:
                ASSERT_EQ(rng.gaussian(40.0), ref.gaussian(40.0));
                break;
              default:
                ASSERT_EQ(rng.uniformReal(-1.0, 1.0),
                          ref.uniformReal(-1.0, 1.0));
                break;
            }
        }
    }
}

TEST(Rng, VectorSamplersMatchElementwiseDraws)
{
    const uint64_t q = (1ull << 50) - 27;
    Rng rng(42);
    StdSamplers ref(42);
    for (uint64_t v : rng.uniformVector(1000, q))
        ASSERT_EQ(v, ref.uniformMod(q));
    std::vector<uint64_t> filled(333);
    rng.uniformFill(filled.data(), filled.size(), q);
    for (uint64_t v : filled)
        ASSERT_EQ(v, ref.uniformMod(q));
    for (int64_t v : rng.ternaryVector(1000))
        ASSERT_EQ(v, ref.ternary());
    for (int64_t v : rng.gaussianVector(1000))
        ASSERT_EQ(v, ref.gaussian(3.2));
}
