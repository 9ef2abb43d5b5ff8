#include "fhe/keys.h"

#include <algorithm>

namespace cinnamon::fhe {

KeyGenerator::KeyGenerator(const CkksContext &ctx, uint64_t seed)
    : ctx_(&ctx), seed_(seed), rng_(seed)
{
}

KeyGenerator
KeyGenerator::derived(const std::string &identity) const
{
    // FNV-1a over the identity, mixed with the master seed.
    uint64_t h = 14695981039346656037ull ^ seed_;
    for (char c : identity) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return KeyGenerator(*ctx_, h);
}

rns::RnsPoly
KeyGenerator::sampleUniform(const rns::Basis &basis)
{
    rns::RnsPoly p(ctx_->rns(), basis, rns::Domain::Eval);
    for (std::size_t i = 0; i < basis.size(); ++i) {
        const uint64_t q = ctx_->rns().modulus(basis[i]).value();
        p.setLimb(i, rng_.uniformVector(ctx_->n(), q));
    }
    return p;
}

rns::RnsPoly
KeyGenerator::sampleError(const rns::Basis &basis)
{
    auto e = rng_.gaussianVector(ctx_->n());
    rns::RnsPoly p(ctx_->rns(), basis, rns::Domain::Coeff);
    for (std::size_t i = 0; i < basis.size(); ++i) {
        const rns::Modulus &mod = ctx_->rns().modulus(basis[i]);
        for (std::size_t j = 0; j < e.size(); ++j)
            p.limb(i)[j] = mod.fromSigned(e[j]);
    }
    p.toEval();
    return p;
}

SecretKey
KeyGenerator::secretKey()
{
    auto t = rng_.ternaryVector(ctx_->n());
    const rns::Basis basis = ctx_->keyBasis();
    rns::RnsPoly s(ctx_->rns(), basis, rns::Domain::Coeff);
    for (std::size_t i = 0; i < basis.size(); ++i) {
        const rns::Modulus &mod = ctx_->rns().modulus(basis[i]);
        for (std::size_t j = 0; j < t.size(); ++j)
            s.limb(i)[j] = mod.fromSigned(t[j]);
    }
    s.toEval();
    return SecretKey{std::move(s)};
}

PublicKey
KeyGenerator::publicKey(const SecretKey &sk)
{
    const rns::Basis basis = ctx_->ciphertextBasis(ctx_->maxLevel());
    rns::RnsPoly a = sampleUniform(basis);
    rns::RnsPoly e = sampleError(basis);
    rns::RnsPoly b = a.mul(sk.s.restrictTo(basis));
    b.negateInPlace();
    b.addInPlace(e);
    return PublicKey{std::move(b), std::move(a)};
}

namespace {

/** s² at `primes` (relinearization's old secret). */
rns::RnsPoly
squareAt(const SecretKey &sk, const rns::Basis &primes)
{
    rns::RnsPoly s = sk.s.restrictTo(primes);
    return s.mul(s);
}

/** τ_galois(s) at `primes`: per-limb INTT, automorphism, NTT. */
rns::RnsPoly
automorphismAt(const SecretKey &sk, uint64_t galois,
               const rns::Basis &primes)
{
    rns::RnsPoly s = sk.s.restrictTo(primes);
    s.toCoeff();
    rns::RnsPoly out = s.automorphism(galois);
    out.toEval();
    return out;
}

} // namespace

EvalKey
KeyGenerator::keySwitchKey(const SecretKey &sk, const OldSecretAt &old_at,
                           const std::vector<rns::Basis> &digits,
                           const std::vector<rns::Basis> &limbs)
{
    CINN_ASSERT(limbs.size() == digits.size(),
                "need one limb subset per key digit");
    const rns::Basis key_basis = ctx_->keyBasis();
    CINN_ASSERT(sk.s.basis() == key_basis &&
                    sk.s.domain() == rns::Domain::Eval,
                "secret must span the key basis in Eval domain");

    // The primes any digit asks for, in key-basis order: s_old and
    // P mod q are only needed there. (The key basis is primes
    // 0..size-1, so a prime is its own index.)
    const std::size_t unlisted = digits.size();
    std::vector<std::size_t> listed_by(key_basis.size(), unlisted);
    for (std::size_t j = 0; j < limbs.size(); ++j) {
        for (uint32_t p : limbs[j]) {
            CINN_ASSERT(p < key_basis.size() && listed_by[p] != j,
                        "limb subsets must list distinct key primes");
            listed_by[p] = j;
        }
    }
    rns::Basis primes;
    for (uint32_t p : key_basis)
        if (listed_by[p] != unlisted)
            primes.push_back(p);
    const rns::RnsPoly old_secret = old_at(primes);
    CINN_ASSERT(old_secret.basis() == primes &&
                    old_secret.domain() == rns::Domain::Eval,
                "old secret must span the requested primes, Eval domain");

    // P mod q, P = prod(special primes).
    const rns::Basis special = ctx_->specialBasis();
    std::vector<uint64_t> p_mod(key_basis.size(), 0);
    for (uint32_t q : primes) {
        const rns::Modulus &mod = ctx_->rns().modulus(q);
        uint64_t p = 1;
        for (uint32_t sp : special)
            p = mod.mul(p, ctx_->rns().modulus(sp).value() % mod.value());
        p_mod[q] = p;
    }

    const std::size_t n = ctx_->n();
    std::vector<uint64_t> discard(n);
    EvalKey evk;
    evk.parts.reserve(digits.size());
    for (std::size_t j = 0; j < digits.size(); ++j) {
        const rns::Basis &want = limbs[j];
        // a: every limb's draws, in key-basis order; kept at `want`.
        rns::RnsPoly a(ctx_->rns(), want, rns::Domain::Eval);
        for (uint32_t q : key_basis) {
            const auto it = std::find(want.begin(), want.end(), q);
            uint64_t *dst = it == want.end()
                                ? discard.data()
                                : a.limbData(it - want.begin());
            rng_.uniformFill(dst, n, ctx_->rns().modulus(q).value());
        }
        // b = e - a·s + (P mod q)[q ∈ D_j]·s_old.
        rns::RnsPoly b = sampleError(want);
        b.subInPlace(a.mul(sk.s.restrictTo(want)));
        std::vector<uint64_t> factors(want.size(), 0);
        for (std::size_t i = 0; i < want.size(); ++i) {
            const rns::Basis &digit = digits[j];
            if (std::find(digit.begin(), digit.end(), want[i]) !=
                digit.end())
                factors[i] = p_mod[want[i]];
        }
        rns::RnsPoly payload = old_secret.restrictTo(want);
        payload.mulScalarPerLimb(factors);
        b.addInPlace(payload);

        evk.parts.emplace_back(std::move(b), std::move(a));
    }
    return evk;
}

EvalKey
KeyGenerator::fullKey(const SecretKey &sk, const OldSecretAt &old_at,
                      const std::vector<rns::Basis> &digits)
{
    return keySwitchKey(
        sk, old_at, digits,
        std::vector<rns::Basis>(digits.size(), ctx_->keyBasis()));
}

EvalKey
KeyGenerator::keyLimbs(const SecretKey &sk, uint64_t galois,
                       const std::vector<rns::Basis> &digits,
                       const std::vector<rns::Basis> &limbs)
{
    if (galois == kRelin)
        return keySwitchKey(
            sk, [&](const rns::Basis &b) { return squareAt(sk, b); },
            digits, limbs);
    return keySwitchKey(
        sk,
        [&](const rns::Basis &b) { return automorphismAt(sk, galois, b); },
        digits, limbs);
}

EvalKey
KeyGenerator::makeKeySwitchKey(const SecretKey &sk,
                               const rns::RnsPoly &old_secret)
{
    return makeKeySwitchKeyForDigits(sk, old_secret,
                                     ctx_->digits(ctx_->maxLevel()));
}

EvalKey
KeyGenerator::makeKeySwitchKeyForDigits(
    const SecretKey &sk, const rns::RnsPoly &old_secret,
    const std::vector<rns::Basis> &digits)
{
    CINN_ASSERT(old_secret.basis() == ctx_->keyBasis() &&
                    old_secret.domain() == rns::Domain::Eval,
                "old_secret must span the key basis in Eval domain");
    return fullKey(
        sk, [&](const rns::Basis &b) { return old_secret.restrictTo(b); },
        digits);
}

EvalKey
KeyGenerator::relinKey(const SecretKey &sk)
{
    return fullKey(
        sk, [&](const rns::Basis &b) { return squareAt(sk, b); },
        ctx_->digits(ctx_->maxLevel()));
}

EvalKey
KeyGenerator::galoisKey(const SecretKey &sk, uint64_t galois)
{
    return galoisKeyForDigits(sk, galois, ctx_->digits(ctx_->maxLevel()));
}

EvalKey
KeyGenerator::galoisKeyForDigits(const SecretKey &sk, uint64_t galois,
                                 const std::vector<rns::Basis> &digits)
{
    return fullKey(
        sk,
        [&](const rns::Basis &b) { return automorphismAt(sk, galois, b); },
        digits);
}

GaloisKeys
KeyGenerator::galoisKeys(const SecretKey &sk,
                         const std::vector<int> &rotations,
                         bool include_conjugation)
{
    GaloisKeys gks;
    for (int r : rotations) {
        const uint64_t g = ctx_->galoisForRotation(r);
        if (!gks.has(g))
            gks.keys.emplace(g, galoisKey(sk, g));
    }
    if (include_conjugation) {
        const uint64_t g = ctx_->galoisForConjugation();
        if (!gks.has(g))
            gks.keys.emplace(g, galoisKey(sk, g));
    }
    return gks;
}

} // namespace cinnamon::fhe
