#include "common/random.h"

#include <cmath>

namespace cinnamon {

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

std::vector<uint64_t>
Rng::uniformVector(std::size_t n, uint64_t modulus)
{
    std::vector<uint64_t> out(n);
    for (auto &v : out)
        v = uniformMod(modulus);
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
