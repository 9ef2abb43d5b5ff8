/**
 * @file
 * CKKS key material and key generation.
 *
 * Evaluation keys follow the hybrid (digit-decomposed) keyswitching
 * scheme the paper assumes (Figure 4): the chain is split into dnum
 * digits; the key for digit j encrypts P * g_j * s_old over the
 * extended basis Q ∪ E, where P = prod(E) and g_j is the CRT
 * "selector" integer that is ≡ 1 mod every prime of digit j and
 * ≡ 0 mod every other ciphertext prime. Because the selector is
 * multiplied by P, its residues modulo the extension primes are
 * irrelevant (they carry a factor P ≡ 0), so the per-prime factor
 * reduces to (P mod q) * [q ∈ digit j] — no big-integer arithmetic is
 * required anywhere in key generation.
 *
 * Every limb of a key is therefore independent of every other limb
 * once the random draws are fixed, which is what lets one routine
 * (KeyGenerator::keySwitchKey) build either a whole key or only the
 * limbs a compiled program loads, bit-identically.
 */

#ifndef CINNAMON_FHE_KEYS_H_
#define CINNAMON_FHE_KEYS_H_

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fhe/params.h"
#include "rns/poly.h"

namespace cinnamon::fhe {

/** The secret key: a ternary polynomial over the full key basis. */
struct SecretKey
{
    rns::RnsPoly s; ///< evaluation domain, basis Q ∪ E
};

/** A public encryption key (b, a) with b = -a s + e over Q. */
struct PublicKey
{
    rns::RnsPoly b;
    rns::RnsPoly a;
};

/**
 * An evaluation key: one (b_j, a_j) pair per digit, over Q ∪ E, with
 * b_j = -a_j s + e_j + (P mod q)[q ∈ D_j] * s_old.
 */
struct EvalKey
{
    std::vector<std::pair<rns::RnsPoly, rns::RnsPoly>> parts;
};

/** A set of rotation/conjugation keys indexed by Galois element. */
struct GaloisKeys
{
    std::map<uint64_t, EvalKey> keys;

    bool has(uint64_t galois) const { return keys.count(galois) != 0; }

    const EvalKey &
    get(uint64_t galois) const
    {
        auto it = keys.find(galois);
        CINN_ASSERT(it != keys.end(),
                    "missing Galois key for element " << galois);
        return it->second;
    }
};

/** Generates all key material from a seeded Rng. */
class KeyGenerator
{
  public:
    KeyGenerator(const CkksContext &ctx, uint64_t seed);

    /**
     * A generator whose stream is a pure function of (this generator's
     * seed, identity). Evaluation keys drawn from a derived generator
     * are independent of the order they are requested in, so compiled
     * programs that load the same keys always see the same key bits no
     * matter how the compiler scheduled the loads.
     */
    KeyGenerator derived(const std::string &identity) const;

    /** Sample a fresh ternary secret key. */
    SecretKey secretKey();

    /** Public key for the given secret. */
    PublicKey publicKey(const SecretKey &sk);

    /** Relinearization key: switches s^2 back to s. */
    EvalKey relinKey(const SecretKey &sk);

    /** Rotation key for a specific Galois element. */
    EvalKey galoisKey(const SecretKey &sk, uint64_t galois);

    /** Rotation keys for a set of slot rotations (plus conjugation). */
    GaloisKeys galoisKeys(const SecretKey &sk,
                          const std::vector<int> &rotations,
                          bool include_conjugation = false);

    /**
     * Generic keyswitching key: encrypts old_secret (over Q ∪ E,
     * evaluation domain) so keyswitching re-encrypts a ciphertext
     * component times old_secret under sk.
     */
    EvalKey makeKeySwitchKey(const SecretKey &sk,
                             const rns::RnsPoly &old_secret);

    /**
     * Keyswitching key for an explicit digit partition (the digit
     * choice is free — Section 4.3.1 notes all digit selections are
     * interchangeable; output-aggregation keyswitching uses the
     * per-chip limb partition as its digits).
     */
    EvalKey makeKeySwitchKeyForDigits(const SecretKey &sk,
                                      const rns::RnsPoly &old_secret,
                                      const std::vector<rns::Basis> &digits);

    /** Galois key material for an explicit digit partition. */
    EvalKey galoisKeyForDigits(const SecretKey &sk, uint64_t galois,
                               const std::vector<rns::Basis> &digits);

    /** The `galois` argument of keyLimbs() that names s² (relin). */
    static constexpr uint64_t kRelin = 0;

    /**
     * Part of a relinearization (galois = kRelin) or Galois key: digit
     * j holds (b_j, a_j) at exactly the primes limbs[j], in that
     * order (any subset of the key basis; empty leaves the digit
     * empty). Every limb equals the same limb of the full key drawn
     * from this generator's current state.
     */
    EvalKey keyLimbs(const SecretKey &sk, uint64_t galois,
                     const std::vector<rns::Basis> &digits,
                     const std::vector<rns::Basis> &limbs);

    Rng &rng() { return rng_; }

    uint64_t seed() const { return seed_; }

  private:
    /** s_old at the given primes, Eval domain. */
    using OldSecretAt = std::function<rns::RnsPoly(const rns::Basis &)>;

    /**
     * The one keyswitching-key routine. Per digit it draws every key-
     * basis limb's uniform values and then the gaussian error, in the
     * same order whatever `limbs` asks for, but computes
     * a, b = e - a·s + (P mod q)[q ∈ D_j]·s_old and s_old only at the
     * requested primes.
     */
    EvalKey keySwitchKey(const SecretKey &sk, const OldSecretAt &old_at,
                         const std::vector<rns::Basis> &digits,
                         const std::vector<rns::Basis> &limbs);

    /** keySwitchKey over every limb of the key basis. */
    EvalKey fullKey(const SecretKey &sk, const OldSecretAt &old_at,
                    const std::vector<rns::Basis> &digits);

    /** Sample a uniform polynomial over `basis` in the Eval domain. */
    rns::RnsPoly sampleUniform(const rns::Basis &basis);

    /** Sample a gaussian error polynomial, returned in Eval domain. */
    rns::RnsPoly sampleError(const rns::Basis &basis);

    const CkksContext *ctx_;
    uint64_t seed_;
    Rng rng_;
};

} // namespace cinnamon::fhe

#endif // CINNAMON_FHE_KEYS_H_
