/**
 * @file
 * The Cinnamon vector ISA (Section 4.6).
 *
 * Every register holds one limb: a vector of n coefficients under a
 * single prime modulus (28-bit datapath in hardware; 64-bit words in
 * the functional emulator). Instructions operate on whole limbs, which
 * standardizes register-file accesses to one uniform vector size.
 * Scalar-operand variants avoid materializing broadcast vectors, and
 * dedicated instructions cover inter-chip collectives.
 *
 * A MachineProgram is one instruction stream per chip. Collective
 * communication instructions carry a tag; all participating chips
 * execute the matching tag in the same order, which is how both the
 * emulator and the cycle simulator rendezvous them.
 *
 * An Instruction is a fixed-size, trivially copyable record: its
 * source registers and the source primes of BConv/Mod live in its
 * chip's pools (ChipProgram::operands / primes) and are read through
 * ChipProgram::srcs and aux, so emitting, allocating and freeing a
 * stream allocates nothing per instruction.
 */

#ifndef CINNAMON_ISA_ISA_H_
#define CINNAMON_ISA_ISA_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace cinnamon::isa {

/** Operation codes of the Cinnamon ISA. */
enum class Opcode {
    Nop,
    Load,      ///< dst ← memory[imm] (one limb from HBM)
    Store,     ///< memory[imm] ← src0
    Ntt,       ///< dst ← NTT(src0) under prime
    Intt,      ///< dst ← INTT(src0) under prime
    Add,       ///< dst ← src0 + src1 (mod prime)
    Sub,       ///< dst ← src0 - src1
    Mul,       ///< dst ← src0 * src1
    AddScalar, ///< dst ← src0 + imm
    SubScalar, ///< dst ← src0 - imm
    MulScalar, ///< dst ← src0 * imm
    Automorph, ///< dst ← σ_imm(src0) (coefficient permutation)
    BConv,     ///< dst ← Σ_i srcs[i] * f_i mod prime (base conversion
               ///  MAC across input limbs; aux = source prime indices)
    Mod,       ///< dst ← src0 mod prime (Barrett reduction of a limb
               ///  carried under a different prime; aux[0] = src prime)
    Bcast,     ///< collective: broadcast src0 (owner) → dst (everyone)
    Agg,       ///< collective: dst ← Σ over chips of src0
    Fence,     ///< order marker (no-op for the emulator)
    Halt,
};

/** Human-readable opcode name. */
const char *opcodeName(Opcode op);

/** True for instructions that move data between chips. */
bool isCollective(Opcode op);

/** A slice [at, at + size) of one of a ChipProgram's pools. */
struct OperandSpan
{
    uint32_t at = 0;
    uint32_t size = 0;
};

/**
 * A single Cinnamon ISA instruction. Its operand lists are spans into
 * the owning ChipProgram's pools; ChipProgram::toString prints it.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    int dst = -1;         ///< destination register (-1 if none)
    uint32_t prime = 0;   ///< modulus index the op runs under
    uint32_t part_lo = 0; ///< collective participants: chips
    uint32_t part_hi = 0; ///< [part_lo, part_hi)
    OperandSpan srcs;     ///< source registers (pool)
    OperandSpan aux;      ///< BConv / Mod source primes (pool)
    uint64_t imm = 0;     ///< scalar / Galois element / address
    uint64_t tag = 0;     ///< rendezvous tag for collectives
};

static_assert(std::is_trivially_copyable_v<Instruction>,
              "an instruction keeps its lists in its chip's pools");

/** One chip's instruction stream and the pools its records use. */
struct ChipProgram
{
    std::vector<Instruction> instrs;
    std::vector<int> operands;    ///< pool: source registers
    std::vector<uint32_t> primes; ///< pool: BConv / Mod source primes

    std::span<const int>
    srcs(const Instruction &ins) const
    {
        return {operands.data() + ins.srcs.at, ins.srcs.size};
    }

    std::span<const uint32_t>
    aux(const Instruction &ins) const
    {
        return {primes.data() + ins.aux.at, ins.aux.size};
    }

    /** Append registers to the operand pool; returns their span. */
    OperandSpan addSrcs(std::span<const int> regs);
    OperandSpan
    addSrcs(std::initializer_list<int> regs)
    {
        return addSrcs(std::span(regs.begin(), regs.size()));
    }

    /** Append primes to the prime pool; returns their span. */
    OperandSpan addAux(std::span<const uint32_t> ps);

    /** One-line text of `ins`, a record of this chip. */
    std::string toString(const Instruction &ins) const;
};

/** A compiled multi-chip program. */
struct MachineProgram
{
    std::vector<ChipProgram> chips;
    std::size_t num_virtual_regs = 0; ///< before register allocation
    bool allocated = false;           ///< after Belady allocation

    std::size_t numChips() const { return chips.size(); }

    std::size_t
    totalInstructions() const
    {
        std::size_t total = 0;
        for (const auto &c : chips)
            total += c.instrs.size();
        return total;
    }
};

} // namespace cinnamon::isa

#endif // CINNAMON_ISA_ISA_H_
