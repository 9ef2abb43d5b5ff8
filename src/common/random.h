/**
 * @file
 * Deterministic pseudo-random sampling used throughout the library.
 *
 * All randomness in the library flows through a Rng instance so that
 * tests and experiments are reproducible from a single seed. The
 * distributions implemented here are the three samplers CKKS needs:
 * uniform mod q, centered ternary (secret keys), and discrete gaussian
 * (encryption noise).
 */

#ifndef CINNAMON_COMMON_RANDOM_H_
#define CINNAMON_COMMON_RANDOM_H_

#include <array>
#include <cstdint>
#include <random>
#include <vector>

namespace cinnamon {

/**
 * MT19937-64 with exactly std::mt19937_64's output stream, generated a
 * block at a time.
 *
 * The standard engine twists its 312-word state one word per draw and
 * tempers each output on the way out. This one twists the whole state
 * and tempers all 312 outputs in one vectorized refill (AVX-512 or
 * AVX2 when the CPU has it, a portable build otherwise), then hands
 * the buffered words out one by one. Same seeding, same min()/max(),
 * same words in the same order — so every standard distribution
 * driven by it samples exactly what it would from std::mt19937_64.
 * Copies carry the buffered block, so a copy taken mid-block continues
 * the same stream.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;
    static constexpr std::size_t kStateWords = 312;

    explicit Mt19937_64(uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type
    operator()()
    {
        if (next_ == kStateWords)
            refill();
        return out_[next_++];
    }

  private:
    /** Twist state_ once and temper every word into out_. */
    void refill();

    std::array<uint64_t, kStateWords> state_;
    std::array<uint64_t, kStateWords> out_;
    std::size_t next_ = kStateWords;
};

/**
 * A seeded random source for all library sampling needs.
 *
 * Wraps a 64-bit Mersenne twister. Not cryptographically secure — this
 * library is a performance/architecture study, not a production
 * cryptosystem — but the sampled distributions match the shapes CKKS
 * requires so noise growth behaves realistically.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : engine_(seed) {}

    /** Uniform value in [0, modulus). */
    uint64_t uniformMod(uint64_t modulus);

    /** Signed ternary value in {-1, 0, 1} with Pr(0) = 1/2. */
    int64_t ternary();

    /** Discrete gaussian (rounded normal) with the given sigma. */
    int64_t gaussian(double sigma = 3.2);

    /** Fill out[0, n) with uniform values mod modulus. */
    void uniformFill(uint64_t *out, std::size_t n, uint64_t modulus);

    /** Vector of n uniform values mod modulus. */
    std::vector<uint64_t> uniformVector(std::size_t n, uint64_t modulus);

    /** Vector of n ternary values. */
    std::vector<int64_t> ternaryVector(std::size_t n);

    /** Vector of n gaussian values. */
    std::vector<int64_t> gaussianVector(std::size_t n, double sigma = 3.2);

    /** Uniform real in [lo, hi). */
    double uniformReal(double lo, double hi);

  private:
    Mt19937_64 engine_;
};

} // namespace cinnamon

#endif // CINNAMON_COMMON_RANDOM_H_
