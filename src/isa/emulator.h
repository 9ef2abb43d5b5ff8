/**
 * @file
 * Functional CPU emulator for the Cinnamon ISA (Section 6.2: "we
 * built a CPU emulator for the Cinnamon ISA and used it to run all
 * the benchmarks" — this is that tool).
 *
 * The emulator executes a MachineProgram on real limb data at any
 * ring dimension, so compiled instruction streams can be validated
 * bit-exactly against the fhe/ reference implementation. It has no
 * timing model; src/sim provides that.
 *
 * Data plane: each chip's HBM is a flat limb arena (one contiguous
 * buffer, address → slot table) and its register file is a flat
 * limb-major buffer — no per-limb heap allocation on the execution
 * path. Between collective rendezvous points chips share no state, so
 * run() advances them on the shared TaskPool; serial and parallel
 * execution are bit-identical by construction. Chips are the only
 * parallel axis, as in the machine (limbs on different chips meet
 * only at collectives): each instruction runs its kernel once over
 * the whole limb plane, so a 1-chip program never uses the pool.
 *
 * Data-dependent faults (unmapped loads, reads of never-written
 * registers) throw EmulatorError carrying the opcode, chip, and
 * stream position; structural misuse (malformed programs) still hits
 * CINN_ASSERT.
 */

#ifndef CINNAMON_ISA_EMULATOR_H_
#define CINNAMON_ISA_EMULATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "fhe/params.h"
#include "isa/isa.h"
#include "rns/limb_span.h"

namespace cinnamon::isa {

/** A limb value with the prime it is reduced under. */
struct Limb
{
    uint32_t prime = 0;
    std::vector<uint64_t> data;
};

/** A non-owning view of a limb resident in an arena or register file. */
struct LimbRef
{
    uint32_t prime = 0;
    rns::ConstLimbSpan data;
};

/**
 * A data-dependent execution fault: the failing opcode, chip, and
 * stream position (pc) are carried alongside the message.
 */
class EmulatorError : public std::runtime_error
{
  public:
    EmulatorError(const std::string &what, Opcode op, std::size_t chip,
                  std::size_t pc)
        : std::runtime_error(what), op_(op), chip_(chip), pc_(pc)
    {
    }

    Opcode opcode() const { return op_; }
    std::size_t chip() const { return chip_; }
    std::size_t pc() const { return pc_; }

  private:
    Opcode op_;
    std::size_t chip_;
    std::size_t pc_;
};

/**
 * One chip's HBM: a flat limb arena plus an address table. Limbs are
 * appended to the arena on first store to an address and overwritten
 * in place afterwards.
 */
class ChipMemory
{
  public:
    ChipMemory() : n_(0) {}
    explicit ChipMemory(std::size_t n) : n_(n) {}

    bool contains(uint64_t addr) const { return slots_.count(addr) > 0; }
    std::size_t size() const { return primes_.size(); }

    /**
     * Pre-size the arena, prime table, and slot map for `limbs`
     * distinct addresses, so the store hot path never reallocates or
     * rehashes mid-run. Called by ProgramRuntime with the program's
     * declared footprint (distinct Load/Store addresses).
     */
    void reserve(std::size_t limbs);

    /**
     * Unmap everything but keep the arena/table capacity — the cheap
     * reset between unrelated programs on a recycled emulator.
     */
    void clear();

    /** Map (or overwrite) `addr` with a limb reduced under `prime`. */
    void store(uint64_t addr, uint32_t prime, rns::ConstLimbSpan data);
    void
    store(uint64_t addr, const Limb &limb)
    {
        store(addr, limb.prime, limb.data);
    }

    /** View of the limb at `addr`; asserts the address is mapped. */
    LimbRef at(uint64_t addr) const;

    /** Bytes held by the arena (capacity actually allocated). */
    std::size_t
    arenaBytes() const
    {
        return arena_.capacity() * sizeof(uint64_t);
    }

  private:
    std::size_t n_;
    std::vector<uint64_t> arena_;
    std::vector<uint32_t> primes_;
    std::unordered_map<uint64_t, uint32_t> slots_;
};

/** Execution counters, per opcode. */
struct EmulatorStats
{
    std::map<Opcode, std::size_t> executed;

    std::size_t
    total() const
    {
        std::size_t t = 0;
        for (const auto &[op, n] : executed)
            t += n;
        return t;
    }
};

/**
 * Executes multi-chip programs with rendezvous collectives.
 *
 * All chips' streams must contain every collective (Bcast/Agg) in the
 * same order with matching tags; the emulator advances each chip to
 * its next collective, resolves it, and repeats. Chips advance on up
 * to setWorkers() threads; results are bit-identical at any worker
 * count because chips share no mutable state between rendezvous
 * points.
 */
class Emulator
{
  public:
    Emulator(const fhe::CkksContext &ctx, std::size_t chips);

    std::size_t chips() const { return chips_; }
    const fhe::CkksContext &context() const { return *ctx_; }

    /** Mutable pre-load access to chip memory (inputs, keys, plaintexts). */
    ChipMemory &memory(std::size_t chip);

    /**
     * Unmap every chip's memory and clear register definitions while
     * keeping all arena/table capacity. Recycled emulators call this
     * between unrelated programs so stale mappings cannot mask
     * unmapped-load faults; correct programs see identical results
     * either way.
     */
    void resetMemory();

    /**
     * Cap on how many chips advance at once. Default 1 (fully serial
     * on the caller's thread); 0 means "whatever the shared TaskPool
     * has". A run advances min(cap, pool parallelism, chips) chips at
     * once (booked as emulator.workers); the cap never changes
     * results.
     */
    void setWorkers(std::size_t workers) { workers_ = workers; }

    /**
     * Arm an injected chip failure: chip `chip` throws EmulatorError
     * the moment it is about to execute instruction index `pc` of its
     * stream — the chip "dies mid-program", exactly as a hardware
     * loss would surface to the host. Stays armed until clearFault().
     */
    void
    injectChipFailure(std::size_t chip, std::size_t pc)
    {
        fault_armed_ = true;
        fault_chip_ = chip;
        fault_pc_ = pc;
    }

    /** Disarm any injected failure. */
    void clearFault() { fault_armed_ = false; }

    /** Run a program to completion. */
    void run(const MachineProgram &program);

    /** Read a register after execution. */
    LimbRef reg(std::size_t chip, int index) const;

    /** Cumulative counters across every run() on this emulator. */
    const EmulatorStats &stats() const { return stats_; }

    /** Counters for the most recent run() only. */
    const EmulatorStats &lastRunStats() const { return last_run_; }

    /** Arena + register-file bytes across all chips. */
    std::size_t arenaBytes() const;

  private:
    /** One chip's register file: flat limb-major, grown on demand. */
    struct RegFile
    {
        std::size_t n = 0;
        std::vector<uint64_t> data;
        std::vector<uint32_t> primes;
        std::vector<uint8_t> defined;

        std::size_t size() const { return primes.size(); }

        /** Grow to cover `index`; returns its mutable plane. */
        uint64_t *ensure(int index);

        /** Drop definitions (planes stay allocated and zeroed lazily). */
        void clearDefined();
        uint64_t *plane(int index) { return data.data() + index * n; }
        const uint64_t *
        plane(int index) const
        {
            return data.data() + index * n;
        }
    };

    /** Execute instruction `pc` of `prog` (not a collective). */
    void execute(std::size_t chip, const ChipProgram &prog,
                 std::size_t pc);

    /** Execute one collective across chips [lo, hi). */
    void executeCollective(const MachineProgram &program,
                           const std::vector<std::size_t> &pcs,
                           uint32_t lo, uint32_t hi);

    /**
     * Read source `operand` of instruction `pc` of `prog`, a defined
     * register, or throw EmulatorError.
     */
    const uint64_t *srcPlane(std::size_t chip,
                             const ChipProgram &prog, std::size_t pc,
                             std::size_t operand) const;

    const fhe::CkksContext *ctx_;
    std::size_t chips_;
    std::size_t workers_ = 1;
    std::vector<RegFile> regs_;
    std::vector<ChipMemory> mem_;
    /** Per-chip scratch plane (automorph/bconv aliasing). */
    std::vector<std::vector<uint64_t>> scratch_;
    /** Injected chip-failure point (set before run, read during). */
    bool fault_armed_ = false;
    std::size_t fault_chip_ = 0;
    std::size_t fault_pc_ = 0;

    /** Per-chip counters, merged into stats_ after each run(). */
    std::vector<EmulatorStats> chip_stats_;
    EmulatorStats stats_;
    EmulatorStats last_run_;
};

/**
 * Recycles Emulator instances — really their flat arenas and register
 * files — across requests. Creating an emulator per request re-grows
 * every arena from zero; a recycled one has warm capacity and only
 * pays resetMemory(). Thread-safe: concurrent requests each acquire
 * their own instance. All instances share one CkksContext, so a cache
 * belongs to a serving tier (Server / remote worker), not a request.
 *
 * Metrics: emulator.cache.reuse / emulator.cache.create.
 */
class EmulatorCache
{
  public:
    explicit EmulatorCache(const fhe::CkksContext &ctx) : ctx_(&ctx) {}

    const fhe::CkksContext &context() const { return *ctx_; }

    /**
     * A reset emulator with `chips` chips: recycled when one is idle,
     * freshly built otherwise.
     */
    std::unique_ptr<Emulator> acquire(std::size_t chips);

    /** Return an emulator to the idle set for later acquire(). */
    void release(std::unique_ptr<Emulator> emu);

  private:
    const fhe::CkksContext *ctx_;
    std::mutex mutex_;
    std::vector<std::unique_ptr<Emulator>> idle_;
};

} // namespace cinnamon::isa

#endif // CINNAMON_ISA_EMULATOR_H_
