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

#include <cstdint>
#include <random>
#include <vector>

namespace cinnamon {

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

    /** Vector of n uniform values mod modulus. */
    std::vector<uint64_t> uniformVector(std::size_t n, uint64_t modulus);

    /** Vector of n ternary values. */
    std::vector<int64_t> ternaryVector(std::size_t n);

    /** Vector of n gaussian values. */
    std::vector<int64_t> gaussianVector(std::size_t n, double sigma = 3.2);

    /** Uniform real in [lo, hi). */
    double uniformReal(double lo, double hi);

  private:
    std::mt19937_64 engine_;
};

} // namespace cinnamon

#endif // CINNAMON_COMMON_RANDOM_H_
