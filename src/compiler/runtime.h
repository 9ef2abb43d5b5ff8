/**
 * @file
 * Execution runtime for compiled programs.
 *
 * The runtime walks a CompiledProgram's preload table and stores every
 * limb the program loads into the ISA emulator's per-chip memories —
 * input ciphertext limbs, encoded plaintext limbs, and evaluation-key
 * limbs (generating the exact key material each keyswitch variant
 * expects, including chip-digit-partition keys for output-aggregation
 * batches, but only at the limbs the program loads) — then runs the
 * program and reassembles the named outputs into ordinary
 * Ciphertexts. It is the bridge that lets compiled instruction
 * streams be validated against the fhe/ reference implementation
 * (Section 6.2's correctness methodology).
 *
 * Metrics (process registry): runtime.materialize_ms (run time minus
 * emulation), runtime.keys.generated, runtime.key_limbs.generated and
 * runtime.key_limbs.full (the limbs whole keys would have had).
 */

#ifndef CINNAMON_COMPILER_RUNTIME_H_
#define CINNAMON_COMPILER_RUNTIME_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "compiler/compiled.h"
#include "fhe/ciphertext.h"
#include "fhe/encoder.h"
#include "fhe/keys.h"
#include "isa/emulator.h"

namespace cinnamon::compiler {

/** Binds program inputs and executes compiled programs. */
class ProgramRuntime
{
  public:
    ProgramRuntime(const fhe::CkksContext &ctx,
                   const fhe::Encoder &encoder, fhe::KeyGenerator &keygen,
                   const fhe::SecretKey &sk)
        : ctx_(&ctx), encoder_(&encoder), keygen_(&keygen), sk_(&sk)
    {
    }

    ~ProgramRuntime()
    {
        if (emu_cache_ && emu_)
            emu_cache_->release(std::move(emu_));
    }

    ProgramRuntime(const ProgramRuntime &) = delete;
    ProgramRuntime &operator=(const ProgramRuntime &) = delete;

    /**
     * Borrow emulators from (and return them to) `cache` instead of
     * building one per runtime: a short-lived per-request runtime then
     * starts with a warm arena instead of growing one from zero. The
     * cache must be built on the same CkksContext and must outlive
     * this runtime. Call before the first run().
     */
    void setEmulatorCache(isa::EmulatorCache *cache)
    {
        emu_cache_ = cache;
    }

    /**
     * Bind an encrypted input by name. Rebinding (any name) marks the
     * pre-loaded chip memories stale, so the next run() re-stores
     * every Load address.
     */
    void bindInput(const std::string &name, const fhe::Ciphertext &ct);

    /**
     * Per-copy key material for batched (replicated-stream) programs:
     * copy k of a replicateStreams() program occupies chips
     * [k*g, (k+1)*g) and must draw its evaluation keys from its *own*
     * request's key generator so every member's outputs stay
     * bit-identical to an unbatched run under the same seed. The
     * pointers are non-owning and must outlive the next run(). An
     * empty vector (the default) restores single-tenant behaviour:
     * every chip uses the constructor's keygen/sk.
     */
    struct CopyKeys
    {
        fhe::KeyGenerator *keygen = nullptr;
        const fhe::SecretKey *sk = nullptr;
    };
    void setCopyKeys(std::vector<CopyKeys> copies)
    {
        copy_keys_ = std::move(copies);
        key_cache_.clear();
        ++bindings_version_;
    }

    /** Bind a plaintext slot vector by name (encoded on demand). */
    void bindPlain(const std::string &name,
                   std::vector<fhe::Cplx> values);

    /**
     * Execute a compiled program on the ISA emulator.
     *
     * @return the named output ciphertexts.
     */
    std::map<std::string, fhe::Ciphertext>
    run(const CompiledProgram &program);

    /** Emulator statistics from the last run. */
    const isa::EmulatorStats &lastStats() const { return last_stats_; }

    /**
     * Worker threads for the emulator's inter-collective chip advance
     * (default 1; results are bit-identical at any count).
     */
    void setEmulatorWorkers(std::size_t w) { emu_workers_ = w; }

    /**
     * Arm a one-shot injected chip failure for the next run(): chip
     * `chip` dies after executing `at_fraction` of its instruction
     * stream (the run throws isa::EmulatorError). Consumed by the
     * next run(); subsequent runs execute cleanly again.
     */
    void
    armFault(std::size_t chip, double at_fraction)
    {
        fault_armed_ = true;
        fault_chip_ = chip;
        fault_at_ = at_fraction;
    }

  private:
    /**
     * The program's evaluation keys, [copy * keys + k], from the cache
     * or generated concurrently on the shared TaskPool.
     */
    std::vector<const fhe::EvalKey *>
    keysFor(const PreloadTable &table, std::size_t copies);

    /** The program's plaintexts, encoded on first use. */
    std::vector<const rns::RnsPoly *> plainsFor(const PreloadTable &table);

    const fhe::CkksContext *ctx_;
    const fhe::Encoder *encoder_;
    fhe::KeyGenerator *keygen_;
    const fhe::SecretKey *sk_;

    std::map<std::string, fhe::Ciphertext> inputs_;
    std::map<std::string, std::vector<fhe::Cplx>> plains_;
    /** A generated key and the limbs it holds. */
    struct CachedKey
    {
        std::vector<rns::Basis> limbs;
        fhe::EvalKey key;
    };
    /**
     * Keys by (batch copy, identity). An entry serves a program only if
     * it holds exactly the limbs that program loads.
     */
    std::map<std::pair<std::size_t, std::string>, CachedKey> key_cache_;
    std::vector<CopyKeys> copy_keys_; ///< empty = single tenant
    /** Encoded plaintexts by (name, level, scale). */
    std::map<std::tuple<std::string, std::size_t, double>, rns::RnsPoly>
        plain_cache_;
    /**
     * The emulator is kept across run() calls (rebuilt only when the
     * chip count changes) so its arena, register files, and address
     * tables are allocated once; every Load address is re-stored at
     * the start of each run, so repeated runs — including with
     * re-bound inputs — stay bit-identical to a fresh emulator.
     */
    std::unique_ptr<isa::Emulator> emu_;
    isa::EmulatorCache *emu_cache_ = nullptr; ///< optional, non-owning
    /**
     * Identity of the last program run: a recycled or kept emulator is
     * resetMemory()'d when the program changes, so one program's
     * mappings and register definitions can never mask another's
     * unmapped-load / undefined-read faults.
     */
    const void *last_program_ = nullptr;
    /**
     * Pre-store validity: when the same program re-runs on the same
     * emulator instance and no binding changed since
     * (`bindings_version_` matches), every pre-loaded address the
     * program never Stores to still holds exactly the limb the last
     * run stored there, so run() skips its materialize+memcpy.
     * Invalidated whenever the emulator is replaced or reset and by
     * every bind/setCopyKeys call.
     */
    uint64_t bindings_version_ = 0;
    uint64_t prestored_version_ = 0;
    const void *prestored_program_ = nullptr;
    std::size_t emu_chips_ = 0;
    isa::EmulatorStats last_stats_;
    std::size_t emu_workers_ = 1;
    /** One-shot injected fault for the next run(). */
    bool fault_armed_ = false;
    std::size_t fault_chip_ = 0;
    double fault_at_ = 0.5;
};

} // namespace cinnamon::compiler

#endif // CINNAMON_COMPILER_RUNTIME_H_
