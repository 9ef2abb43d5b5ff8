/**
 * @file
 * Belady MIN register allocation for Cinnamon ISA streams
 * (Section 4.4: "lowers the limb level representation to the Cinnamon
 * ISA using Belady's min to allocate registers").
 *
 * Each chip's vector register file holds a fixed number of limb
 * registers (224 × 256 KB = 56 MB for the paper's chip). The lowering
 * produces SSA virtual registers; this pass maps them onto physical
 * registers, evicting — per Belady — the value whose next use is
 * farthest in the future, and inserting spill Stores/Loads to HBM.
 * Spill traffic is what makes register-file size matter in the cycle
 * simulator (Figures 6 and 16).
 */

#ifndef CINNAMON_COMPILER_REGALLOC_H_
#define CINNAMON_COMPILER_REGALLOC_H_

#include <cstdint>

#include "isa/isa.h"

namespace cinnamon::compiler {

/** Spill statistics from one allocation run. */
struct RegAllocStats
{
    std::size_t spill_stores = 0;
    std::size_t spill_loads = 0;
    std::size_t max_live = 0; ///< peak simultaneous live values
};

/**
 * Eviction policy. Belady's MIN (the paper's choice) evicts the value
 * whose next use is farthest away; LRU is provided as the ablation
 * baseline a hardware cache would implement.
 */
enum class EvictionPolicy { Belady, Lru };

/**
 * Allocate registers in-place for every chip of `program`.
 *
 * Chips are fully independent (separate streams, register files, and
 * spill memories), so they allocate concurrently on the shared
 * TaskPool; the result is identical for any worker count.
 *
 * @param phys_regs physical registers per chip.
 * @param spill_addr_base first memory address usable for spill slots
 *        (addresses below it belong to program data).
 * @param policy eviction policy (Belady unless ablating).
 * @param workers cap on the TaskPool's parallelism (0 = the whole
 *        pool, 1 = serial on the calling thread).
 * @return spill statistics: stores/loads summed over all chips,
 *         max_live the maximum over chips.
 */
RegAllocStats allocateRegisters(isa::MachineProgram &program,
                                std::size_t phys_regs,
                                uint64_t spill_addr_base,
                                EvictionPolicy policy =
                                    EvictionPolicy::Belady,
                                std::size_t workers = 1);

} // namespace cinnamon::compiler

#endif // CINNAMON_COMPILER_REGALLOC_H_
