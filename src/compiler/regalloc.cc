#include "compiler/regalloc.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/task_pool.h"

namespace cinnamon::compiler {

namespace {

using isa::Instruction;
using isa::Opcode;

/** Instruction positions and use-list offsets within one stream. */
using Pos = uint32_t;

/** Next use of a value that is never used again. */
constexpr Pos kNever = std::numeric_limits<Pos>::max();

/** Home of a value with no memory copy (no address is ~0). */
constexpr uint64_t kNoHome = ~uint64_t{0};

/**
 * Allocation state for one chip's stream, on dense arrays: CSR use
 * lists with a forward-only next-use cursor per virtual register, and
 * per physical register an eviction rank (which encodes the vreg it
 * holds) and a pin stamp, scanned once per eviction. Free registers
 * are a bitmask.
 */
class ChipAllocator
{
  public:
    ChipAllocator(isa::ChipProgram &chip, std::size_t phys_regs,
                  uint64_t spill_base, RegAllocStats &stats,
                  EvictionPolicy policy)
        : chip_(chip), pool_(chip.operands), phys_(phys_regs),
          spill_base_(spill_base), stats_(stats),
          belady_(policy == EvictionPolicy::Belady)
    {
    }

    /**
     * Allocate the stream in place: operands are rewritten in the
     * chip's pool, spill Stores append theirs, and the instruction
     * list is replaced by the allocated one.
     */
    void run();

  private:
    /** Next use of `vreg` after `at`; `at` never decreases. */
    Pos
    nextUse(int vreg, Pos at)
    {
        Pos &c = cursor_[vreg];
        const Pos end = use_begin_[vreg + 1];
        while (c < end && use_pos_[c] <= at)
            ++c;
        return c == end ? kNever : use_pos_[c];
    }

    /**
     * Rank `vreg`, held in `p`: the key (Belady: next use; LRU: the
     * oldest touch ranks highest) in the high word, the lowest vreg
     * id winning ties in the low word. Every key is >= 1.
     */
    void
    setRank(int p, int vreg, Pos at, Pos next)
    {
        const uint64_t key = belady_ ? next : kNever - at;
        rank_[p] = key << 32 | (kNever - static_cast<Pos>(vreg));
    }

    void
    freeReg(int p)
    {
        free_[p / 64] |= uint64_t{1} << (p % 64);
        ++free_count_;
    }

    /** Pick the lowest free physical register, or evict one. */
    int
    acquire(Pos at)
    {
        if (free_count_ > 0) {
            std::size_t w = 0;
            while (free_[w] == 0)
                ++w;
            const int bit = std::countr_zero(free_[w]);
            free_[w] &= free_[w] - 1;
            --free_count_;
            return static_cast<int>(w * 64) + bit;
        }
        // No register is free, so every one holds a ranked value.
        // Belady evicts the unpinned one with the farthest next use,
        // LRU (ablation) the least recently touched one; ties go to
        // the lowest vreg id under both keys (setRank).
        uint64_t best = 0;
        for (std::size_t r = 0; r < phys_; ++r)
            best = std::max(best, pin_[r] == stamp_ ? 0 : rank_[r]);
        CINN_ASSERT(best != 0,
                    "register pressure exceeds the physical register "
                    "file even with everything evictable pinned");
        const int victim = static_cast<int>(kNever - (best & kNever));
        const int p = loc_[victim];
        const Pos key = static_cast<Pos>(best >> 32);
        const Pos next = belady_ ? key : nextUse(victim, at);
        if (next != kNever && home_[victim] == kNoHome) {
            // Value is still needed later, has no memory copy yet,
            // and cannot be rematerialized from read-only data.
            home_[victim] = spill_base_ + spill_slots_++;
            Instruction st;
            st.op = Opcode::Store;
            st.srcs = chip_.addSrcs({p});
            st.prime = prime_[victim];
            st.imm = home_[victim];
            out_.push_back(st);
            ++stats_.spill_stores;
        }
        loc_[victim] = -1;
        return p;
    }

    /** Ensure `vreg` is resident; reload it from memory if not. */
    void
    ensureResident(int vreg, Pos at)
    {
        if (loc_[vreg] >= 0)
            return;
        CINN_ASSERT(home_[vreg] != kNoHome,
                    "use of virtual register v"
                        << vreg << " with no definition");
        const int p = acquire(at);
        Instruction ld;
        ld.op = Opcode::Load;
        ld.dst = p;
        ld.prime = prime_[vreg];
        ld.imm = home_[vreg];
        out_.push_back(ld);
        loc_[vreg] = p;
        pin_[p] = stamp_;
        ++stats_.spill_loads;
    }

    isa::ChipProgram &chip_;
    std::vector<int> &pool_; ///< chip_.operands, grown by spills
    std::size_t phys_;
    uint64_t spill_base_;
    RegAllocStats &stats_;
    bool belady_;

    // Per virtual register.
    std::vector<Pos> use_begin_;  ///< CSR offsets into use_pos_
    std::vector<Pos> use_pos_;    ///< use positions, ascending
    std::vector<Pos> cursor_;     ///< next use_pos_ entry to test
    std::vector<uint32_t> prime_; ///< prime of the vreg's limb

    /** Memory copy: the data address of a Load-defined (hence
     *  rematerializable) value, or the spill slot once spilled. */
    std::vector<uint64_t> home_;
    std::vector<int> loc_; ///< phys register, -1 if not resident

    // Per physical register. A resident value's rank stays valid
    // until its next use, where it is pinned and re-ranked.
    std::vector<uint64_t> rank_; ///< eviction rank of the value held
    std::vector<Pos> pin_;       ///< stamp_ while holding an operand
    std::vector<uint64_t> free_; ///< bitmask of free registers
    std::size_t free_count_ = 0;

    Pos stamp_ = 0; ///< position of the current instruction + 1
    uint64_t spill_slots_ = 0;
    std::vector<Instruction> out_;
};

void
ChipAllocator::run()
{
    const std::vector<Instruction> &in = chip_.instrs;
    CINN_ASSERT(in.size() < kNever,
                "instruction stream too long to allocate");
    std::size_t vregs = 0;
    for (const Instruction &ins : in) {
        vregs = std::max<std::size_t>(vregs, ins.dst + 1);
        for (int s : chip_.srcs(ins))
            vregs = std::max<std::size_t>(vregs, s + 1);
    }

    // Use lists (CSR), per-vreg limb primes, and the addresses of
    // pre-allocation Loads: those read immutable program data, so
    // their values are rematerialized instead of spilled.
    use_begin_.assign(vregs + 1, 0);
    prime_.assign(vregs, 0);
    home_.assign(vregs, kNoHome);
    for (const Instruction &ins : in) {
        for (int s : chip_.srcs(ins)) {
            if (s >= 0)
                ++use_begin_[s + 1];
        }
        if (ins.dst >= 0) {
            prime_[ins.dst] = ins.prime;
            if (ins.op == Opcode::Load)
                home_[ins.dst] = ins.imm;
        }
    }
    for (std::size_t v = 0; v < vregs; ++v)
        use_begin_[v + 1] += use_begin_[v];
    use_pos_.resize(use_begin_[vregs]);
    cursor_.assign(use_begin_.begin(), use_begin_.end() - 1);
    for (std::size_t i = 0; i < in.size(); ++i) {
        for (int s : chip_.srcs(in[i])) {
            if (s >= 0)
                use_pos_[cursor_[s]++] = static_cast<Pos>(i);
        }
    }
    cursor_.assign(use_begin_.begin(), use_begin_.end() - 1);

    loc_.assign(vregs, -1);
    rank_.assign(phys_, 0);
    pin_.assign(phys_, 0);
    free_.assign((phys_ + 63) / 64, 0);
    for (std::size_t p = 0; p < phys_; ++p)
        freeReg(static_cast<int>(p));
    // Spill code adds well under a quarter; an untouched reserve
    // costs no resident memory, a regrowth copies every instruction.
    out_.reserve(in.size() + in.size() / 4);
    pool_.reserve(pool_.size() + in.size() / 4);

    std::size_t live = 0;
    for (Pos at = 0; at < in.size(); ++at) {
        Instruction ins = in[at];
        // Operands are read by pool index: a spill Store appended
        // while reloading may move the pool.
        const uint32_t first = ins.srcs.at;
        const uint32_t end = first + ins.srcs.size;

        // Sources first: reload any spilled operand, pinning the
        // instruction's own operands against eviction (the
        // destination is not resident yet, so needs no pin).
        stamp_ = at + 1;
        for (uint32_t k = first; k < end; ++k) {
            const int s = pool_[k];
            if (s >= 0 && loc_[s] >= 0)
                pin_[loc_[s]] = stamp_;
        }
        for (uint32_t k = first; k < end; ++k) {
            if (pool_[k] >= 0)
                ensureResident(pool_[k], at);
        }
        // Rewrite sources in the pool and free the ones that die
        // here (a dead value is never looked up again, so its loc_
        // may go stale; clearing the pin frees a repeated operand
        // only once).
        for (uint32_t k = first; k < end; ++k) {
            int &s = pool_[k];
            if (s < 0)
                continue;
            const int vreg = s;
            s = loc_[vreg];
            const Pos next = nextUse(vreg, at);
            if (next != kNever) {
                setRank(s, vreg, at, next);
            } else if (pin_[s] == stamp_) {
                pin_[s] = 0;
                freeReg(s);
            }
        }
        // Destination. Dead-on-arrival values (e.g. unused collective
        // copies) are freed immediately after definition.
        if (ins.dst >= 0) {
            const int vreg = ins.dst;
            const int p = acquire(at);
            ins.dst = p;
            if (use_begin_[vreg] == use_begin_[vreg + 1]) {
                freeReg(p);
            } else {
                loc_[vreg] = p;
                setRank(p, vreg, at, nextUse(vreg, at));
            }
        }
        live = std::max(live, phys_ - free_count_);
        out_.push_back(ins);
    }
    stats_.max_live = std::max(stats_.max_live, live);
    chip_.instrs = std::move(out_);
}

} // namespace

RegAllocStats
allocateRegisters(isa::MachineProgram &program, std::size_t phys_regs,
                  uint64_t spill_addr_base, EvictionPolicy policy,
                  std::size_t workers)
{
    CINN_FATAL_UNLESS(phys_regs >= 8,
                      "cannot allocate with fewer than 8 registers");
    // Chips allocate independently (per-chip register files and spill
    // memories), so run them on the task pool and merge the
    // deterministic per-chip stats afterwards.
    std::vector<RegAllocStats> per_chip(program.chips.size());
    auto allocateChip = [&](std::size_t c) {
        ChipAllocator alloc(program.chips[c], phys_regs,
                            spill_addr_base, per_chip[c], policy);
        alloc.run();
    };
    TaskPool::global().forEach(program.chips.size(), workers,
                               allocateChip);
    RegAllocStats stats;
    for (const auto &s : per_chip) {
        stats.spill_stores += s.spill_stores;
        stats.spill_loads += s.spill_loads;
        stats.max_live = std::max(stats.max_live, s.max_live);
    }
    program.allocated = true;
    return stats;
}

} // namespace cinnamon::compiler
