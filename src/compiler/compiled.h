/**
 * @file
 * Compiled-program containers shared by the lowering, the runtime and
 * the cycle simulator.
 *
 * A CompiledProgram couples the multi-chip ISA streams with a data
 * layout: every Load/Store address maps to a DataDescriptor telling
 * the runtime what to materialize there (an input ciphertext limb, an
 * encoded plaintext limb, an evaluation-key limb) or where to collect
 * results from.
 */

#ifndef CINNAMON_COMPILER_COMPILED_H_
#define CINNAMON_COMPILER_COMPILED_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/ks_pass.h"
#include "compiler/regalloc.h"
#include "fhe/params.h"
#include "isa/isa.h"
#include "rns/context.h"

namespace cinnamon::compiler {

/** What lives behind one memory address. */
struct DataDescriptor
{
    enum class Kind { InputCt, Plain, EvalKey, Output };

    Kind kind = Kind::InputCt;
    std::string name;      ///< input/plain/output name; "relin" or
                           ///  "galois:<g>" for keys
    int poly = 0;          ///< ciphertext/key polynomial index (0/1)
    uint32_t prime = 0;    ///< prime index of the limb
    std::size_t digit = 0; ///< evaluation-key digit index
    std::size_t level = 0; ///< plaintext encode level
    double scale = 0.0;    ///< plaintext encode scale
    uint64_t galois = 0;   ///< Galois element for rotation keys
    bool chip_digits = false; ///< key digits = per-chip partition
    uint32_t group_size = 0;  ///< group size for chip-digit keys
};

/** Where a program output lives after execution. */
struct OutputInfo
{
    std::size_t level = 0;
    double scale = 0.0;
    /** addrs[poly][limb] — address of each limb, on its owner chip. */
    std::array<std::vector<uint64_t>, 2> addrs;
    /** owner chip of each limb. */
    std::vector<uint32_t> owners;
};

/** Aggregate communication emitted by the compiler. */
struct CommSummary
{
    std::size_t broadcast_limbs = 0;
    std::size_t aggregation_limbs = 0;

    std::size_t total() const
    {
        return broadcast_limbs + aggregation_limbs;
    }
};

/** Compiler configuration. */
struct CompilerConfig
{
    std::size_t chips = 4;        ///< total chips in the machine
    int num_streams = 1;          ///< chip groups (program parallelism)
    KsPassOptions ks;             ///< keyswitch pass options
    /** Named strategy from the StrategyRegistry. When non-empty the
     *  compiler resolves it and overrides `ks` with the registry
     *  entry's options (unknown names throw); empty keeps the
     *  explicit `ks` above. Part of the cache key either way. */
    std::string strategy;
    std::size_t phys_regs = 224;  ///< register file limbs per chip
    bool allocate = true;         ///< run register allocation
    EvictionPolicy regalloc_policy = EvictionPolicy::Belady;
    /** Parallelism cap for limb lowering / register allocation on
     *  the shared TaskPool (0 = the whole pool). Never affects the
     *  output. */
    std::size_t compile_workers = 0;
    bool verify_ir = true; ///< run the inter-pass IR verifiers
};

/**
 * Serialization of every CompilerConfig field that affects the
 * compiled output, for use in program-cache keys: two configurations
 * map to the same string iff they compile identically. Worker count
 * and verifier toggles are deliberately excluded — they change how
 * fast (and how checked) compilation runs, never what it emits.
 * Extend this when adding fields.
 */
std::string cacheKeyOf(const CompilerConfig &config);

/**
 * What the runtime stores into chip memory before every run, computed
 * once at compile time by one dense pass over the final (allocated)
 * streams. Sources are named by index, never by pointer, so a copied
 * CompiledProgram's table stays valid.
 */
struct PreloadTable
{
    /** One program.data address a chip loads. */
    struct Load
    {
        uint64_t addr = 0;
        DataDescriptor::Kind kind = DataDescriptor::Kind::InputCt;
        bool dirtied = false; ///< the chip also Stores to addr
        int poly = 0;         ///< ciphertext/key polynomial (0/1)
        uint32_t prime = 0;
        uint32_t source = 0; ///< index into inputs / plains / keys
        uint32_t digit = 0;  ///< EvalKey: key digit
        uint32_t pos = 0;    ///< EvalKey: index of prime in the digit's limbs
    };

    /** A distinct plaintext encoding. */
    struct Plain
    {
        std::string name;
        std::size_t level = 0;
        double scale = 0.0;
    };

    /** A distinct evaluation key and the limbs the program loads. */
    struct Key
    {
        /** name:chip_digits:group_size — seeds the key's generator. */
        std::string identity;
        /** Galois element, or fhe::KeyGenerator::kRelin (s² → s). */
        uint64_t galois = 0;
        bool chip_digits = false;
        uint32_t group_size = 0;
        /** Per key digit, the primes any chip loads, ascending. */
        std::vector<rns::Basis> limbs;
    };

    /** Per chip: the data addresses it loads, in first-use order. */
    std::vector<std::vector<Load>> chips;
    /** Per chip: distinct Load/Store addresses (ChipMemory::reserve). */
    std::vector<std::size_t> footprint;
    std::vector<std::string> inputs; ///< distinct input ciphertexts
    std::vector<Plain> plains;
    std::vector<Key> keys;
};

/** The full compiler output. */
struct CompiledProgram
{
    isa::MachineProgram machine;
    std::map<uint64_t, DataDescriptor> data;
    std::map<std::string, OutputInfo> outputs;
    CommSummary comm;
    CompilerConfig config;
    KsPassResult ks_pass;
    RegAllocStats regalloc; ///< zeroed when allocation is disabled
    PreloadTable preload;
};

/**
 * The per-chip digit bases used by output-aggregation keyswitching on
 * a group of `group_size` chips at `level`: digit p = the prime
 * indices i ≤ level with i mod group_size == p. Shared between the
 * compiler and the runtime so key material lines up.
 */
std::vector<rns::Basis> chipDigitBases(std::size_t level,
                                       std::size_t group_size);

/**
 * The digit partition of the evaluation key `key` names: the per-chip
 * partition for output-aggregation keys, else the context's digits,
 * both at the top level.
 */
std::vector<rns::Basis> keyDigitBases(const fhe::CkksContext &ctx,
                                      const PreloadTable::Key &key);

} // namespace cinnamon::compiler

#endif // CINNAMON_COMPILER_COMPILED_H_
