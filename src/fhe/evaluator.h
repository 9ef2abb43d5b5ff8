/**
 * @file
 * The CKKS evaluator: encryption, decryption, and all homomorphic
 * operations, including sequential hybrid keyswitching (Figure 4 of
 * the paper). This is the functional reference implementation that
 * compiled programs, run on the ISA emulator (src/isa), are validated
 * against under every keyswitch strategy.
 */

#ifndef CINNAMON_FHE_EVALUATOR_H_
#define CINNAMON_FHE_EVALUATOR_H_

#include <utility>
#include <vector>

#include "fhe/ciphertext.h"
#include "fhe/encoder.h"
#include "fhe/keys.h"
#include "fhe/params.h"

namespace cinnamon::fhe {

/**
 * Stateless-except-for-caches evaluator bound to one context.
 *
 * All ciphertext polynomials are kept in the evaluation (NTT) domain
 * between operations, matching what a real accelerator stores in its
 * register file; domain changes happen inside keyswitch/rescale only.
 */
class Evaluator
{
  public:
    explicit Evaluator(const CkksContext &ctx) : ctx_(&ctx) {}

    const CkksContext &context() const { return *ctx_; }

    /** Symmetric encryption of a coefficient-domain plaintext. */
    Ciphertext encrypt(const rns::RnsPoly &plain, double scale,
                       const SecretKey &sk, Rng &rng) const;

    /** Public-key encryption. */
    Ciphertext encryptPublic(const rns::RnsPoly &plain, double scale,
                             const PublicKey &pk, Rng &rng) const;

    /** Decrypt to a coefficient-domain plaintext polynomial. */
    rns::RnsPoly decrypt(const Ciphertext &ct, const SecretKey &sk) const;

    /** Homomorphic addition (levels must match; scales must agree). */
    Ciphertext add(const Ciphertext &a, const Ciphertext &b) const;

    /** Homomorphic subtraction. */
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b) const;

    /** Negation. */
    Ciphertext negate(const Ciphertext &a) const;

    /** Add an encoded plaintext (same level; scales must agree). */
    Ciphertext addPlain(const Ciphertext &a, const rns::RnsPoly &plain,
                        double plain_scale) const;

    /**
     * Multiply by an encoded plaintext. The result's scale is the
     * product of the two scales; callers usually rescale() after.
     * @param plain may be in either domain; converted as needed.
     */
    Ciphertext mulPlain(const Ciphertext &a, const rns::RnsPoly &plain,
                        double plain_scale) const;

    /** Ciphertext-ciphertext multiply with relinearization. */
    Ciphertext mul(const Ciphertext &a, const Ciphertext &b,
                   const EvalKey &relin) const;

    /** Divide by the last chain prime; drops one level. */
    Ciphertext rescale(const Ciphertext &a) const;

    /** Drop to a lower level without dividing (modulus switch). */
    Ciphertext dropToLevel(const Ciphertext &a, std::size_t level) const;

    /** Rotate slots left by `steps` (requires the matching key). */
    Ciphertext rotate(const Ciphertext &a, int steps,
                      const GaloisKeys &gks) const;

    /** Conjugate every slot. */
    Ciphertext conjugate(const Ciphertext &a, const GaloisKeys &gks) const;

    /**
     * The sequential hybrid keyswitch kernel (Figure 4): switches the
     * single polynomial `target` (Eval domain, ciphertext basis at
     * `level`) from key s_old to s, returning the two output
     * polynomials (Eval domain, same basis).
     */
    std::pair<rns::RnsPoly, rns::RnsPoly>
    keySwitch(const rns::RnsPoly &target, std::size_t level,
              const EvalKey &evk) const;

  private:
    void checkCompatible(const Ciphertext &a, const Ciphertext &b) const;

    const CkksContext *ctx_;
};

} // namespace cinnamon::fhe

#endif // CINNAMON_FHE_EVALUATOR_H_
