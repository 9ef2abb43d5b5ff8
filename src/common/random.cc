#include "common/random.h"

#include <cmath>
#include <cstring>

// The refill passes 512-bit GCC vectors between inlined helpers; the
// ABI note about such arguments does not apply to inlined code.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace cinnamon {
namespace {

constexpr std::size_t kN = Mt19937_64::kStateWords;
constexpr std::size_t kM = 156;
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr uint64_t kUpperMask = 0xFFFFFFFF80000000ull;
constexpr uint64_t kLowerMask = 0x7FFFFFFFull;

/** One twist step: word i from words i, i+1 and its far partner. */
inline uint64_t
twistWord(uint64_t cur, uint64_t next, uint64_t far)
{
    const uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
}

/** Eight words per step; lowered to the width of the calling clone. */
typedef uint64_t Words8 __attribute__((vector_size(64)));

inline Words8
load8(const uint64_t *p)
{
    Words8 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline void
store8(uint64_t *p, Words8 v)
{
    std::memcpy(p, &v, sizeof(v));
}

inline Words8
twist8(Words8 cur, Words8 next, Words8 far)
{
    const Words8 y = (cur & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
}

inline Words8
temper8(Words8 y)
{
    y ^= (y >> 29) & 0x5555555555555555ull;
    y ^= (y << 17) & 0x71D67FFFEDA60000ull;
    y ^= (y << 37) & 0xFFF7EEE000000000ull;
    return y ^ (y >> 43);
}

/**
 * The whole-state twist, then tempering of all 312 words. Word i reads
 * the *old* words i and i+1 and the far word i+156 (old) or i-156
 * (already new) — exactly the order the one-word-per-draw twist
 * produces — so eight consecutive words never depend on each other
 * and the loops run eight lanes at a time.
 */
inline __attribute__((always_inline)) void
twistAndTemper(uint64_t *x, uint64_t *out)
{
    std::size_t i = 0;
    for (; i + 8 <= kN - kM; i += 8)
        store8(x + i, twist8(load8(x + i), load8(x + i + 1),
                             load8(x + i + kM)));
    for (; i < kN - kM; ++i)
        x[i] = twistWord(x[i], x[i + 1], x[i + kM]);
    for (; i + 8 <= kN - 1; i += 8)
        store8(x + i, twist8(load8(x + i), load8(x + i + 1),
                             load8(x + i - (kN - kM))));
    for (; i < kN - 1; ++i)
        x[i] = twistWord(x[i], x[i + 1], x[i - (kN - kM)]);
    x[kN - 1] = twistWord(x[kN - 1], x[0], x[kM - 1]);
    for (std::size_t j = 0; j < kN; j += 8)
        store8(out + j, temper8(load8(x + j)));
}

using RefillFn = void (*)(uint64_t *, uint64_t *);

void
refillPortable(uint64_t *x, uint64_t *out)
{
    twistAndTemper(x, out);
}

#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target("avx2"))) void
refillAvx2(uint64_t *x, uint64_t *out)
{
    twistAndTemper(x, out);
}

__attribute__((target("avx512f"))) void
refillAvx512(uint64_t *x, uint64_t *out)
{
    twistAndTemper(x, out);
}
#endif

/**
 * The widest clone the CPU runs, picked once. Dispatch is a plain
 * function pointer rather than an ifunc: ifunc resolvers run before
 * sanitizer runtimes initialize.
 */
RefillFn
refillFn()
{
    static const RefillFn fn = [] {
#if defined(__x86_64__) && defined(__GNUC__)
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx512f"))
            return &refillAvx512;
        if (__builtin_cpu_supports("avx2"))
            return &refillAvx2;
#endif
        return &refillPortable;
    }();
    return fn;
}

} // namespace

Mt19937_64::Mt19937_64(uint64_t seed)
{
    // std::mersenne_twister_engine's seeding recurrence (f =
    // 6364136223846793005 for the 64-bit parameters).
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i)
        state_[i] = 6364136223846793005ull *
                        (state_[i - 1] ^ (state_[i - 1] >> 62)) +
                    i;
}

void
Mt19937_64::refill()
{
    refillFn()(state_.data(), out_.data());
    next_ = 0;
}

uint64_t
Rng::uniformMod(uint64_t modulus)
{
    std::uniform_int_distribution<uint64_t> dist(0, modulus - 1);
    return dist(engine_);
}

int64_t
Rng::ternary()
{
    // {-1, 0, 0, 1} gives Pr(0) = 1/2, Pr(±1) = 1/4 each.
    switch (engine_() & 3) {
      case 0:
        return -1;
      case 1:
        return 1;
      default:
        return 0;
    }
}

int64_t
Rng::gaussian(double sigma)
{
    std::normal_distribution<double> dist(0.0, sigma);
    return static_cast<int64_t>(std::llround(dist(engine_)));
}

void
Rng::uniformFill(uint64_t *out, std::size_t n, uint64_t modulus)
{
    std::uniform_int_distribution<uint64_t> dist(0, modulus - 1);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = dist(engine_);
}

std::vector<uint64_t>
Rng::uniformVector(std::size_t n, uint64_t modulus)
{
    std::vector<uint64_t> out(n);
    uniformFill(out.data(), n, modulus);
    return out;
}

std::vector<int64_t>
Rng::ternaryVector(std::size_t n)
{
    std::vector<int64_t> out(n);
    for (auto &v : out)
        v = ternary();
    return out;
}

std::vector<int64_t>
Rng::gaussianVector(std::size_t n, double sigma)
{
    std::vector<int64_t> out(n);
    for (auto &v : out)
        v = gaussian(sigma);
    return out;
}

double
Rng::uniformReal(double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

} // namespace cinnamon
