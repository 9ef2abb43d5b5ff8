/**
 * @file
 * The limb IR (Section 4.3) — the second materialized stage of the
 * pass pipeline, between the placement-free polynomial IR and the
 * Cinnamon ISA.
 *
 * Every polynomial op is expanded limb-by-limb under the modular
 * limb-to-chip placement: limb i of a stream-s polynomial lives on
 * chip s*g + (i mod g) with g = chips/num_streams. Values are SSA and
 * *placed*: each LimbValue names one limb residing on one chip.
 * Inter-chip communication is explicit — Bcast/Agg ops carry their
 * participant range and per-participant value lists, so the verifier
 * can check collective group scoping before any ISA exists. An op is
 * a fixed-size record: its value and prime lists are spans into the
 * unit's pools, so building the IR allocates nothing per op.
 *
 * The program is partitioned into LimbUnits: the connected components
 * of the streams-that-communicate graph, widened to contiguous stream
 * ranges (a limb transfer between groups traverses every chip in
 * between). Units share no chips and no values, which is what makes
 * them independently — and concurrently — lowerable; the ISA pass
 * walks them in stream order so serial and parallel compilation
 * produce identical output.
 *
 * Descriptors (inputs, plaintexts, evaluation keys, outputs) are
 * referenced by per-unit index; the ISA pass dedups them globally
 * into memory addresses by value (DescKey).
 */

#ifndef CINNAMON_COMPILER_LIMB_IR_H_
#define CINNAMON_COMPILER_LIMB_IR_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/compiled.h"
#include "compiler/poly_ir.h"
#include "isa/isa.h"

namespace cinnamon::compiler {

/** One limb (one prime's residue vector) resident on one chip. */
struct LimbValue
{
    int id = -1;
    uint32_t chip = 0;
    uint32_t prime = 0;
};

/** A slice [at, at + size) of one of a LimbUnit's pools. */
struct PoolSpan
{
    uint32_t at = 0;
    uint32_t size = 0;
};

/**
 * One placed limb operation: a fixed-size record whose value lists
 * live in its unit's pools (read them through LimbUnit::args, coll
 * and aux). Non-collective ops execute on `chip` and define `result`
 * from `args`. Collective ops (part_hi > part_lo) are executed by
 * every chip in [part_lo, part_hi):
 *
 *  - Bcast: `args[0]` is the source limb on chip `imm` (the owner);
 *    coll[c - part_lo] is the value received on chip c, or -1 for
 *    pass-through participants (point-to-point transfers).
 *  - Agg: coll[c - part_lo] is chip c's addend; `result` is the sum,
 *    landing on the owner `imm` only.
 *
 * Ops may share a span: every base conversion out of one digit on
 * one chip reads the same operand and prime slices.
 */
struct LimbOp
{
    isa::Opcode op = isa::Opcode::Nop;
    uint32_t chip = 0;
    int result = -1;
    uint32_t prime = 0;
    uint64_t imm = 0; ///< scalar / Galois element / owner chip
    int desc = -1;    ///< Load/Store: unit descriptor index

    uint32_t part_lo = 0; ///< collective participants [part_lo,
    uint32_t part_hi = 0; ///< part_hi); part_hi == 0 ⇒ not collective
    PoolSpan args;        ///< operands: source values
    PoolSpan coll;        ///< operands: per-participant values
    PoolSpan aux; ///< primes: BConv source basis / Mod source prime

    bool collective() const { return part_hi > part_lo; }
};

/** A program output, pending global address assignment. */
struct OutputSpec
{
    std::string name;
    std::size_t level = 0;
    double scale = 0.0;
    /** desc_idx[poly][limb] — unit descriptor index of each limb. */
    std::array<std::vector<int>, 2> desc_idx;
    std::vector<uint32_t> owners; ///< owner chip of each limb
};

/** One independently lowerable slice of the program. */
struct LimbUnit
{
    int stream_lo = 0; ///< streams [stream_lo, stream_hi)
    int stream_hi = 0;
    uint32_t chip_lo = 0; ///< chips [chip_lo, chip_hi) — disjoint
    uint32_t chip_hi = 0; ///< across units
    std::vector<LimbOp> ops;
    std::vector<LimbValue> values;
    std::vector<int> operands;    ///< pool: args and collective lists
    std::vector<uint32_t> primes; ///< pool: BConv / Mod source primes
    std::vector<DataDescriptor> descs; ///< distinct under DescKey
    std::vector<OutputSpec> outputs;
    CommSummary comm;

    int
    newValue(uint32_t chip, uint32_t prime)
    {
        LimbValue v;
        v.id = static_cast<int>(values.size());
        v.chip = chip;
        v.prime = prime;
        values.push_back(v);
        return v.id;
    }

    /** Append value ids to the operand pool; returns their span. */
    PoolSpan
    addOperands(std::initializer_list<int> ids)
    {
        return append(operands, ids.begin(), ids.end());
    }

    PoolSpan
    addOperands(std::span<const int> ids)
    {
        return append(operands, ids.begin(), ids.end());
    }

    /** Append prime indices to the prime pool; returns their span. */
    PoolSpan
    addPrimes(std::initializer_list<uint32_t> ps)
    {
        return append(primes, ps.begin(), ps.end());
    }

    PoolSpan
    addPrimes(std::span<const uint32_t> ps)
    {
        return append(primes, ps.begin(), ps.end());
    }

    // Span views of an op's lists; valid for ops whose spans lie
    // inside the pools, which verifyLimbProgram checks.
    std::span<const int>
    args(const LimbOp &op) const
    {
        return {operands.data() + op.args.at, op.args.size};
    }

    std::span<const int>
    coll(const LimbOp &op) const
    {
        return {operands.data() + op.coll.at, op.coll.size};
    }

    std::span<const uint32_t>
    aux(const LimbOp &op) const
    {
        return {primes.data() + op.aux.at, op.aux.size};
    }

  private:
    template <typename T, typename It>
    static PoolSpan
    append(std::vector<T> &pool, It first, It last)
    {
        PoolSpan s;
        s.at = static_cast<uint32_t>(pool.size());
        pool.insert(pool.end(), first, last);
        s.size = static_cast<uint32_t>(pool.size() - s.at);
        return s;
    }
};

/** The limb IR of one program. */
struct LimbProgram
{
    std::size_t chips = 0;
    std::vector<LimbUnit> units; ///< sorted by stream_lo

    std::size_t
    totalOps() const
    {
        std::size_t n = 0;
        for (const auto &u : units)
            n += u.ops.size();
        return n;
    }
};

/**
 * Descriptor identity for address dedup: hash and equality over
 * exactly the fields descKeyOf prints (scale is not one of them).
 */
struct DescKey
{
    std::size_t operator()(const DataDescriptor &d) const;
    bool operator()(const DataDescriptor &a,
                    const DataDescriptor &b) const;
};

/** Map keyed by descriptor identity (DescKey). */
template <typename T>
using DescMap =
    std::unordered_map<DataDescriptor, T, DescKey, DescKey>;

/** Printable descriptor key, for the --dump-ir=limb listing. */
std::string descKeyOf(const DataDescriptor &desc);

/**
 * Lower an annotated poly program to placed limb ops (pass
 * "lower-limb"). Units lower concurrently on
 * `cfg.compile_workers` threads; the result is identical for any
 * worker count.
 */
LimbProgram buildLimbProgram(const PolyProgram &poly,
                             const fhe::CkksContext &ctx,
                             const CompilerConfig &cfg);

/** Human-readable listing (--dump-ir=limb). */
std::string printLimbProgram(const LimbProgram &limb);

/**
 * Inter-pass verifier: SSA well-formedness, placement consistency
 * (an op's operands live on the chips that use them), and collective
 * group scoping (participant ranges inside the owning unit's chips,
 * per-participant values on the right chips). Throws VerifyError.
 */
void verifyLimbProgram(const LimbProgram &limb);

} // namespace cinnamon::compiler

#endif // CINNAMON_COMPILER_LIMB_IR_H_
