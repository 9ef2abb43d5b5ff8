#include "compiler/limb_ir.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/task_pool.h"
#include "common/trace.h"
#include "compiler/pass.h"

namespace cinnamon::compiler {

namespace {

using isa::Opcode;

/** A contiguous chip range hosting one stream. */
struct Group
{
    uint32_t lo = 0;
    uint32_t hi = 0;

    std::size_t size() const { return hi - lo; }
};

/** A digit basis D with (D/d_i)^{-1} mod d_i for each prime d_i. */
struct Digit
{
    rns::Basis primes;
    std::vector<uint64_t> shat_inv;
};

/**
 * The modular constants lowering emits, computed once per compile for
 * the levels the program's ops use and read by every unit.
 */
struct Scalars
{
    Digit special;                          ///< the extension basis
    std::vector<uint64_t> special_prod_inv; ///< [i] P^{-1} mod q_i
    std::vector<std::vector<Digit>> ks_digits; ///< [level] ctx.digits
    std::vector<std::vector<Digit>> oa_digits; ///< [level] chip digits
    /** [last][i] q_last^{-1} mod q_i, for a rescale dropping `last`. */
    std::vector<std::vector<uint64_t>> rescale_inv;
};

Scalars
buildScalars(const PolyProgram &poly, const fhe::CkksContext &ctx,
             std::size_t group)
{
    const rns::RnsContext &rns = ctx.rns();
    // Digits recur across levels (only the last one is trimmed), so
    // each distinct basis is inverted once.
    std::map<rns::Basis, std::vector<uint64_t>> memo;
    auto digitOf = [&](rns::Basis primes) {
        const auto [it, fresh] = memo.try_emplace(primes);
        for (std::size_t i = 0; fresh && i < primes.size(); ++i) {
            const rns::Modulus &di = rns.modulus(primes[i]);
            uint64_t prod = 1;
            for (std::size_t k = 0; k < primes.size(); ++k) {
                if (k != i)
                    prod = di.mul(prod, rns.modulus(primes[k]).value() %
                                            di.value());
            }
            it->second.push_back(di.inv(prod));
        }
        return Digit{std::move(primes), it->second};
    };

    Scalars s;
    const std::size_t levels = ctx.maxLevel() + 1;
    s.ks_digits.resize(levels);
    s.oa_digits.resize(levels);
    s.rescale_inv.resize(levels);
    std::size_t ks_levels = 0; // mod-downs reach q_0..q_{ks_levels-1}
    for (const PolyOp &op : poly.ops) {
        if (op.dead)
            continue;
        switch (op.kind) {
        case PolyOpKind::Rescale: {
            auto &inv = s.rescale_inv[op.level + 1];
            const uint64_t q_last = ctx.q(op.level + 1);
            for (std::size_t i = inv.size(); i <= op.level; ++i) {
                const rns::Modulus &qi = rns.modulus(i);
                inv.push_back(qi.inv(q_last % qi.value()));
            }
            break;
        }
        case PolyOpKind::KeySwitch:
            if (s.ks_digits[op.level].empty()) {
                for (auto &d : ctx.digits(op.level))
                    s.ks_digits[op.level].push_back(digitOf(std::move(d)));
            }
            ks_levels = std::max(ks_levels, op.level + 1);
            break;
        case PolyOpKind::OaBatch:
            if (s.oa_digits[op.level].empty()) {
                for (auto &d : chipDigitBases(op.level, group))
                    s.oa_digits[op.level].push_back(digitOf(std::move(d)));
            }
            ks_levels = std::max(ks_levels, op.level + 1);
            break;
        default:
            break;
        }
    }

    if (ks_levels > 0) {
        s.special = digitOf(ctx.specialBasis());
        for (std::size_t i = 0; i < ks_levels; ++i) {
            const rns::Modulus &qi = rns.modulus(i);
            uint64_t p = 1;
            for (uint32_t sp : s.special.primes)
                p = qi.mul(p, rns.modulus(sp).value() % qi.value());
            s.special_prod_inv.push_back(qi.inv(p));
        }
    }
    return s;
}

/** A placeholder for limb `limb` of a poly value an earlier segment
 *  defines; the merge resolves it to that segment's limb value. */
struct Import
{
    int value = -1; ///< the placeholder's value id in the segment
    int poly_value = -1;
    uint32_t limb = 0;
};

/**
 * One segment of a unit: a contiguous run of its poly ops, lowered by
 * its own UnitLowerer into `part` (a unit of its own, with its own
 * load cache, descriptor table and key tables), plus what the merge
 * needs to splice it after the segments before it.
 */
struct Segment
{
    LimbUnit part;
    /** [poly value id] → limb value ids; later segments import these. */
    std::vector<std::vector<int>> limbs;
    DescMap<int> desc_index; ///< descriptor → index in part.descs
    std::vector<uint32_t> loads; ///< index of every Load op, ascending
    std::vector<Import> imports; ///< ascending value id
    double ops_est = 0.0; ///< estimated limb ops (loweringCost)

    // Filled by the merge.
    std::vector<int> desc_of; ///< segment descriptor → unit descriptor
    /** (value, unit value id) of every import and repeated load,
     *  ascending value: the values that get no id of their own. */
    std::vector<std::pair<int, int>> aliases;
    std::vector<uint32_t> dropped; ///< repeated Load ops, ascending
    std::size_t op_at = 0, value_at = 0, operand_at = 0, prime_at = 0;
};

/**
 * Lowers the poly ops assigned to one LimbUnit, or to one segment of
 * it. This is the port of the pre-pipeline monolithic lowering,
 * emitting placed SSA limb ops instead of ISA instructions; the
 * emitted dataflow graph is identical op for op, which is what the
 * golden-equivalence suite pins down.
 *
 * A segment starts empty: a poly value an earlier segment defined is
 * an import (Import), and its loads are not cached against earlier
 * segments' loads. Otherwise it emits exactly what the serial walk
 * emits for those ops, which is what lets mergeSegments reproduce the
 * serial IR.
 *
 * Emission allocates nothing per op: operand lists go to the unit's
 * pools, and every lookup table is an array indexed by value id,
 * descriptor, chip or prime.
 */
class UnitLowerer
{
  public:
    /**
     * @param def_seg [poly value id] → index of the segment defining
     *        it; a value used before its segment is an import only if
     *        that index is below `segment`.
     */
    UnitLowerer(const fhe::CkksContext &ctx, const PolyProgram &poly,
                const CompilerConfig &cfg, const Scalars &scalars,
                std::span<const int> op_ids,
                const std::vector<int> &def_seg, int segment,
                Segment &seg)
        : ctx_(&ctx), poly_(&poly), cfg_(cfg), scalars_(&scalars),
          op_ids_(op_ids), def_seg_(&def_seg), segment_(segment),
          seg_(&seg), unit_(&seg.part),
          unit_chips_(seg.part.chip_hi - seg.part.chip_lo),
          key_primes_(ctx.keyBasis().size()), limbs_(seg.limbs),
          desc_index_(seg.desc_index)
    {
        limbs_.resize(poly.values.size());
        // Presize from the estimate (within ~25 % of the ops a unit
        // emits; operands run ~1.5 per op). Grown by doubling, these
        // arrays are copied and faulted in again at every step, which
        // costs about as much as the lowering itself; reserving
        // touches nothing the lowering does not write.
        const auto est = static_cast<std::size_t>(seg.ops_est * 1.25);
        unit_->ops.reserve(est);
        unit_->values.reserve(est);
        unit_->operands.reserve(2 * est);
    }

    void
    run()
    {
        for (int idx : op_ids_) {
            const PolyOp &op = poly_->ops[idx];
            switch (op.kind) {
            case PolyOpKind::Input:
                lowerInput(op);
                break;
            case PolyOpKind::Add:
            case PolyOpKind::Sub:
            case PolyOpKind::Mul:
                lowerBinary(op);
                break;
            case PolyOpKind::PlainMul:
            case PolyOpKind::PlainAdd:
                lowerPlain(op);
                break;
            case PolyOpKind::Rescale:
                lowerRescale(op);
                break;
            case PolyOpKind::Automorph:
                lowerAutomorph(op);
                break;
            case PolyOpKind::KeySwitch:
                lowerKeySwitch(op);
                break;
            case PolyOpKind::OaBatch:
                lowerOaBatch(op);
                break;
            case PolyOpKind::Output:
                lowerOutput(op);
                break;
            }
        }
    }

  private:
    /** One evaluation key's limb descriptors, resolved on first use. */
    struct KeyTable
    {
        DataDescriptor proto; ///< the key's identity fields
        /** Unit descriptor index at [(digit * primes + prime) * 2 +
         *  poly], -1 until that limb is first loaded. */
        std::vector<int> desc;
    };

    // ---- plumbing -------------------------------------------------
    Group
    groupOf(int stream) const
    {
        const uint32_t g =
            static_cast<uint32_t>(cfg_.chips / cfg_.num_streams);
        CINN_ASSERT(stream >= 0 && stream < cfg_.num_streams,
                    "op stream " << stream << " exceeds configured "
                                 << cfg_.num_streams << " streams");
        return Group{static_cast<uint32_t>(stream) * g,
                     static_cast<uint32_t>(stream + 1) * g};
    }

    uint32_t
    chipOfLimb(const Group &g, std::size_t limb) const
    {
        return g.lo + static_cast<uint32_t>(limb % g.size());
    }

    /** Append a non-collective op defining a fresh value. */
    int
    emitOp(uint32_t chip, Opcode opc, PoolSpan args, uint32_t prime,
           uint64_t imm = 0, PoolSpan aux = {})
    {
        LimbOp op;
        op.op = opc;
        op.chip = chip;
        op.args = args;
        op.prime = prime;
        op.imm = imm;
        op.aux = aux;
        op.result = unit_->newValue(chip, prime);
        unit_->ops.push_back(op);
        return op.result;
    }

    int
    emitUnary(uint32_t chip, Opcode opc, int src, uint32_t prime,
              uint64_t imm = 0)
    {
        return emitOp(chip, opc, unit_->addOperands({src}), prime, imm);
    }

    int
    emitBinary(uint32_t chip, Opcode opc, int a, int b, uint32_t prime)
    {
        return emitOp(chip, opc, unit_->addOperands({a, b}), prime);
    }

    /** Base-convert `srcs` (one value per prime of `basis`). */
    int
    emitBConv(uint32_t chip, PoolSpan srcs, PoolSpan basis,
              uint32_t prime)
    {
        return emitOp(chip, Opcode::BConv, srcs, prime, 0, basis);
    }

    int
    descIndex(const DataDescriptor &desc)
    {
        const auto [it, fresh] = desc_index_.try_emplace(
            desc, static_cast<int>(unit_->descs.size()));
        if (fresh) {
            unit_->descs.push_back(desc);
            load_cache_.resize(unit_->descs.size() * unit_chips_, -1);
        }
        return it->second;
    }

    int
    emitLoad(uint32_t chip, int d)
    {
        // Load CSE: repeated uses of the same read-only limb (inputs,
        // plaintexts, evaluation keys) share one SSA value. Belady
        // then decides whether the value stays resident; if it is
        // evicted, the allocator rematerializes it from its address
        // instead of spilling.
        int &cached = load_cache_[static_cast<std::size_t>(d) *
                                      unit_chips_ +
                                  (chip - unit_->chip_lo)];
        if (cached >= 0)
            return cached;
        LimbOp op;
        op.op = Opcode::Load;
        op.chip = chip;
        op.prime = unit_->descs[d].prime;
        op.desc = d;
        op.result = unit_->newValue(chip, op.prime);
        seg_->loads.push_back(static_cast<uint32_t>(unit_->ops.size()));
        unit_->ops.push_back(op);
        cached = op.result;
        return cached;
    }

    /**
     * The key table of one evaluation key, covering `digits` digits.
     * Looked up once per keyswitch; its limbs' descriptors are still
     * created on first load, so descriptor order is emission order.
     */
    KeyTable &
    keyTable(const std::string &name, uint64_t galois, bool chip_digits,
             uint32_t group_size, std::size_t digits)
    {
        const auto [it, fresh] =
            key_tables_.try_emplace({name, galois, chip_digits});
        KeyTable &key = it->second;
        if (fresh) {
            key.proto.kind = DataDescriptor::Kind::EvalKey;
            key.proto.name = name;
            key.proto.galois = galois;
            key.proto.chip_digits = chip_digits;
            key.proto.group_size = group_size;
        }
        if (key.desc.size() < digits * key_primes_ * 2)
            key.desc.resize(digits * key_primes_ * 2, -1);
        return key;
    }

    int
    emitKeyLoad(uint32_t chip, KeyTable &key, std::size_t digit,
                uint32_t prime, int poly)
    {
        int &d = key.desc[(digit * key_primes_ + prime) * 2 + poly];
        if (d < 0) {
            DataDescriptor desc = key.proto;
            desc.poly = poly;
            desc.prime = prime;
            desc.digit = digit;
            d = descIndex(desc);
        }
        return emitLoad(chip, d);
    }

    /** The keyswitch accumulator of (chip, poly) at prime `t`. */
    int &
    acc(const Group &g, uint32_t chip, int poly, uint32_t t)
    {
        return acc_[((chip - g.lo) * 2 + poly) * key_primes_ + t];
    }

    int
    accAt(const Group &g, uint32_t chip, int poly, uint32_t t)
    {
        const int v = acc(g, chip, poly, t);
        CINN_ASSERT(v >= 0, "no accumulator for prime " << t
                                << " on chip " << chip);
        return v;
    }

    void
    accumulate(const Group &g, uint32_t chip, int poly, uint32_t t,
               int prod)
    {
        int &sum = acc(g, chip, poly, t);
        sum = sum < 0 ? prod : emitBinary(chip, Opcode::Add, sum, prod, t);
    }

    // ---- collective emission --------------------------------------
    /**
     * Broadcast one limb (on `owner`) to every chip in `g`.
     * @return the copies' span: chip c's copy at offset c - g.lo.
     */
    PoolSpan
    emitBcast(const Group &g, uint32_t owner, int src, uint32_t prime)
    {
        LimbOp op;
        op.op = Opcode::Bcast;
        op.args = unit_->addOperands({src});
        op.prime = prime;
        op.imm = owner;
        op.part_lo = g.lo;
        op.part_hi = g.hi;
        op.coll.at = static_cast<uint32_t>(unit_->operands.size());
        op.coll.size = static_cast<uint32_t>(g.size());
        for (uint32_t c = g.lo; c < g.hi; ++c)
            unit_->operands.push_back(unit_->newValue(c, prime));
        unit_->ops.push_back(op);
        ++unit_->comm.broadcast_limbs;
        return op.coll;
    }

    /** Chip `chip`'s copy from a broadcast over `g`. */
    int
    copyOn(PoolSpan copies, const Group &g, uint32_t chip) const
    {
        return unit_->operands[copies.at + (chip - g.lo)];
    }

    /** Aggregate per-chip partials; result lands on `owner` only. */
    int
    emitAgg(const Group &g, uint32_t owner, PoolSpan srcs,
            uint32_t prime)
    {
        LimbOp op;
        op.op = Opcode::Agg;
        op.prime = prime;
        op.imm = owner;
        op.part_lo = g.lo;
        op.part_hi = g.hi;
        op.coll = srcs;
        op.result = unit_->newValue(owner, prime);
        op.chip = owner;
        unit_->ops.push_back(op);
        ++unit_->comm.aggregation_limbs;
        return op.result;
    }

    /** Move one limb from chip `from` to chip `to` (no-op if equal). */
    int
    emitTransfer(uint32_t from, uint32_t to, int src, uint32_t prime)
    {
        if (from == to)
            return src;
        const uint32_t lo = std::min(from, to);
        const uint32_t hi = std::max(from, to) + 1;
        LimbOp op;
        op.op = Opcode::Bcast;
        op.args = unit_->addOperands({src});
        op.prime = prime;
        op.imm = from;
        op.part_lo = lo;
        op.part_hi = hi;
        op.coll.at = static_cast<uint32_t>(unit_->operands.size());
        op.coll.size = hi - lo;
        unit_->operands.resize(unit_->operands.size() + (hi - lo), -1);
        const int v = unit_->newValue(to, prime);
        unit_->operands[op.coll.at + (to - lo)] = v;
        unit_->ops.push_back(op);
        ++unit_->comm.broadcast_limbs;
        return v;
    }

    /**
     * Fetch a poly value's limbs, migrating them to `stream`'s chip
     * group first if the value was produced by a different stream.
     */
    const std::vector<int> &
    limbsFor(int value_id, int stream)
    {
        auto &base = limbs_[value_id];
        if (base.empty())
            base = importLimbs(value_id);
        const int vs = poly_->values[value_id].stream;
        if (vs == stream)
            return base;
        const auto key = std::make_pair(value_id, stream);
        auto it = migrated_.find(key);
        if (it != migrated_.end())
            return it->second;
        const Group gf = groupOf(vs);
        const Group gt = groupOf(stream);
        std::vector<int> out(base.size());
        for (std::size_t i = 0; i < base.size(); ++i) {
            out[i] = emitTransfer(chipOfLimb(gf, i), chipOfLimb(gt, i),
                                  base[i], static_cast<uint32_t>(i));
        }
        return migrated_.emplace(key, std::move(out)).first->second;
    }

    /** Placeholders for the limbs of a value an earlier segment
     *  defined, placed where that segment left them. */
    std::vector<int>
    importLimbs(int value_id)
    {
        CINN_ASSERT((*def_seg_)[value_id] < segment_,
                    "poly value " << value_id << " not lowered yet");
        const PolyValue &pv = poly_->values[value_id];
        const Group g = groupOf(pv.stream);
        std::vector<int> out(pv.level + 1);
        for (std::size_t i = 0; i <= pv.level; ++i) {
            const uint32_t prime = static_cast<uint32_t>(i);
            out[i] = unit_->newValue(chipOfLimb(g, i), prime);
            seg_->imports.push_back({out[i], value_id, prime});
        }
        return out;
    }

    // ---- op lowering ----------------------------------------------
    void
    lowerInput(const PolyOp &op)
    {
        const Group g = groupOf(op.stream);
        DataDescriptor desc;
        desc.kind = DataDescriptor::Kind::InputCt;
        desc.name = op.name;
        desc.poly = op.poly;
        std::vector<int> limbs(op.level + 1);
        for (std::size_t i = 0; i <= op.level; ++i) {
            desc.prime = static_cast<uint32_t>(i);
            limbs[i] = emitLoad(chipOfLimb(g, i), descIndex(desc));
        }
        limbs_[op.results[0]] = std::move(limbs);
    }

    void
    lowerBinary(const PolyOp &op)
    {
        const Group g = groupOf(op.stream);
        const auto &a = limbsFor(op.args[0], op.stream);
        const auto &b = limbsFor(op.args[1], op.stream);
        const Opcode opc = op.kind == PolyOpKind::Add   ? Opcode::Add
                           : op.kind == PolyOpKind::Sub ? Opcode::Sub
                                                        : Opcode::Mul;
        std::vector<int> out(op.level + 1);
        for (std::size_t i = 0; i <= op.level; ++i) {
            out[i] = emitBinary(chipOfLimb(g, i), opc, a[i], b[i],
                                static_cast<uint32_t>(i));
        }
        limbs_[op.results[0]] = std::move(out);
    }

    void
    lowerPlain(const PolyOp &op)
    {
        const Group g = groupOf(op.stream);
        const auto &a = limbsFor(op.args[0], op.stream);
        const bool is_mul = op.kind == PolyOpKind::PlainMul;
        DataDescriptor desc;
        desc.kind = DataDescriptor::Kind::Plain;
        desc.name = op.name;
        desc.level = op.level;
        desc.scale = ctx_->params().scale;
        std::vector<int> out(op.level + 1);
        for (std::size_t i = 0; i <= op.level; ++i) {
            const uint32_t chip = chipOfLimb(g, i);
            desc.prime = static_cast<uint32_t>(i);
            const int p = emitLoad(chip, descIndex(desc));
            out[i] = emitBinary(chip, is_mul ? Opcode::Mul : Opcode::Add,
                                a[i], p, static_cast<uint32_t>(i));
        }
        limbs_[op.results[0]] = std::move(out);
    }

    void
    lowerRescale(const PolyOp &op)
    {
        const Group g = groupOf(op.stream);
        const auto &a = limbsFor(op.args[0], op.stream);
        const std::size_t last = a.size() - 1;
        const uint32_t last_owner = chipOfLimb(g, last);
        const std::vector<uint64_t> &inv = scalars_->rescale_inv[last];
        CINN_ASSERT(last == op.level + 1 && inv.size() == last,
                    "rescale must drop exactly its input's top limb");

        // INTT the dropped limb and broadcast it to the group.
        const int last_coeff =
            emitUnary(last_owner, Opcode::Intt, a[last],
                      static_cast<uint32_t>(last));
        const PoolSpan copies = emitBcast(g, last_owner, last_coeff,
                                          static_cast<uint32_t>(last));
        const PoolSpan last_prime =
            unit_->addPrimes({static_cast<uint32_t>(last)});

        std::vector<int> out(op.level + 1);
        for (std::size_t i = 0; i <= op.level; ++i) {
            const uint32_t chip = chipOfLimb(g, i);
            const uint32_t prime = static_cast<uint32_t>(i);
            const int xi = emitUnary(chip, Opcode::Intt, a[i], prime);
            // Reduce the dropped limb's residues into q_i.
            const int xl = emitOp(
                chip, Opcode::Mod,
                unit_->addOperands({copyOn(copies, g, chip)}), prime, 0,
                last_prime);
            const int diff = emitBinary(chip, Opcode::Sub, xi, xl, prime);
            const int scaled = emitUnary(chip, Opcode::MulScalar, diff,
                                         prime, inv[i]);
            out[i] = emitUnary(chip, Opcode::Ntt, scaled, prime);
        }
        limbs_[op.results[0]] = std::move(out);
    }

    void
    lowerAutomorph(const PolyOp &op)
    {
        const Group g = groupOf(op.stream);
        const auto &a = limbsFor(op.args[0], op.stream);
        std::vector<int> out(op.level + 1);
        for (std::size_t i = 0; i <= op.level; ++i) {
            const uint32_t chip = chipOfLimb(g, i);
            const uint32_t prime = static_cast<uint32_t>(i);
            const int coeff = emitUnary(chip, Opcode::Intt, a[i], prime);
            const int rot = emitUnary(chip, Opcode::Automorph, coeff,
                                      prime, op.galois);
            out[i] = emitUnary(chip, Opcode::Ntt, rot, prime);
        }
        limbs_[op.results[0]] = std::move(out);
    }

    /**
     * Broadcast all limbs of one polynomial (Eval domain, distributed)
     * so every chip in the group holds coefficient-domain copies.
     * @return bc[(chip - g.lo) * (level + 1) + limb] values.
     */
    std::vector<int>
    broadcastPolyCoeff(const Group &g, const std::vector<int> &limbs,
                       std::size_t level)
    {
        const std::size_t width = level + 1;
        std::vector<int> bc(g.size() * width, -1);
        for (std::size_t i = 0; i <= level; ++i) {
            const uint32_t owner = chipOfLimb(g, i);
            const uint32_t prime = static_cast<uint32_t>(i);
            const int coeff =
                emitUnary(owner, Opcode::Intt, limbs[i], prime);
            const PoolSpan copies = emitBcast(g, owner, coeff, prime);
            for (std::size_t p = 0; p < g.size(); ++p)
                bc[p * width + i] = unit_->operands[copies.at + p];
        }
        return bc;
    }

    /**
     * The per-chip keyswitch compute shared by input-broadcast and
     * CiFHER lowering: digits, mod-up, evalkey MACs, mod-down.
     */
    std::array<std::vector<int>, 2>
    lowerKsCompute(const Group &g, const std::vector<int> &bc,
                   std::size_t level, const std::string &key_name,
                   uint64_t galois, bool cifher)
    {
        const std::vector<Digit> &digits = scalars_->ks_digits[level];
        const Digit &special = scalars_->special;
        const std::size_t width = level + 1;
        KeyTable &key = keyTable(key_name, galois, false, 0,
                                 digits.size());

        std::array<std::vector<int>, 2> result;
        result[0].assign(width, -1);
        result[1].assign(width, -1);

        // Per-chip accumulators over the chip's mod-up output basis.
        acc_.assign(g.size() * 2 * key_primes_, -1);

        std::vector<int> limbs(width);
        std::vector<uint32_t> out_primes;
        for (uint32_t c = g.lo; c < g.hi; ++c) {
            // Apply the automorphism on-chip to the broadcast copies.
            std::copy_n(bc.begin() + (c - g.lo) * width, width,
                        limbs.begin());
            if (galois != 1) {
                for (std::size_t i = 0; i <= level; ++i) {
                    limbs[i] =
                        emitUnary(c, Opcode::Automorph, limbs[i],
                                  static_cast<uint32_t>(i), galois);
                }
            }

            // Output primes handled on this chip.
            out_primes.clear();
            for (std::size_t i = 0; i <= level; ++i) {
                if (chipOfLimb(g, i) == c)
                    out_primes.push_back(static_cast<uint32_t>(i));
            }
            for (uint32_t s : special.primes) {
                if (!cifher || chipOfLimb(g, s) == c)
                    out_primes.push_back(s);
            }

            for (std::size_t j = 0; j < digits.size(); ++j) {
                const Digit &digit = digits[j];
                // Stage 1 of the BCU: pre-scale the digit limbs. Every
                // base conversion out of this digit reads the same
                // operand and prime spans.
                gather_.clear();
                for (std::size_t d = 0; d < digit.primes.size(); ++d) {
                    const uint32_t p = digit.primes[d];
                    gather_.push_back(emitUnary(c, Opcode::MulScalar,
                                                 limbs[p], p,
                                                 digit.shat_inv[d]));
                }
                const PoolSpan srcs = unit_->addOperands(gather_);
                const PoolSpan basis = unit_->addPrimes(digit.primes);
                for (uint32_t t : out_primes) {
                    const bool in_digit =
                        std::find(digit.primes.begin(),
                                  digit.primes.end(),
                                  t) != digit.primes.end();
                    const int up =
                        in_digit ? limbs[t] : emitBConv(c, srcs, basis, t);
                    const int up_eval = emitUnary(c, Opcode::Ntt, up, t);
                    for (int poly = 0; poly < 2; ++poly) {
                        const int k = emitKeyLoad(c, key, j, t, poly);
                        accumulate(g, c, poly, t,
                                   emitBinary(c, Opcode::Mul, up_eval, k,
                                              t));
                    }
                }
            }
        }

        // Mod-down. Under CiFHER both the ciphertext and extension
        // limbs of each accumulator are partitioned, so the mod-down
        // needs the whole polynomial broadcast (the paper's "2
        // broadcasts in (6)"); these are the rounds the keyswitch pass
        // cannot hoist.
        const std::size_t K = special.primes.size();
        std::vector<int> ext(g.size() * K, -1);
        for (int poly = 0; poly < 2; ++poly) {
            if (cifher) {
                for (std::size_t i = 0; i <= level; ++i) {
                    const uint32_t owner = chipOfLimb(g, i);
                    const uint32_t prime = static_cast<uint32_t>(i);
                    (void)emitBcast(g, owner,
                                    accAt(g, owner, poly, prime), prime);
                }
            }
            // INTT the extension accumulators on their owners.
            for (std::size_t k = 0; k < K; ++k) {
                const uint32_t s = special.primes[k];
                if (cifher) {
                    const uint32_t owner = chipOfLimb(g, s);
                    const int coeff = emitUnary(
                        owner, Opcode::Intt, accAt(g, owner, poly, s), s);
                    const PoolSpan copies = emitBcast(g, owner, coeff, s);
                    for (uint32_t c = g.lo; c < g.hi; ++c)
                        ext[(c - g.lo) * K + k] = copyOn(copies, g, c);
                } else {
                    for (uint32_t c = g.lo; c < g.hi; ++c) {
                        ext[(c - g.lo) * K + k] = emitUnary(
                            c, Opcode::Intt, accAt(g, c, poly, s), s);
                    }
                }
            }

            for (uint32_t c = g.lo; c < g.hi; ++c) {
                // Pre-scale the extension limbs for the mod-down BConv.
                gather_.clear();
                for (std::size_t k = 0; k < K; ++k) {
                    gather_.push_back(emitUnary(
                        c, Opcode::MulScalar, ext[(c - g.lo) * K + k],
                        special.primes[k], special.shat_inv[k]));
                }
                const PoolSpan srcs = unit_->addOperands(gather_);
                const PoolSpan basis = unit_->addPrimes(special.primes);
                for (std::size_t i = 0; i <= level; ++i) {
                    if (chipOfLimb(g, i) != c)
                        continue;
                    const uint32_t prime = static_cast<uint32_t>(i);
                    const int xi = emitUnary(c, Opcode::Intt,
                                             accAt(g, c, poly, prime),
                                             prime);
                    const int conv = emitBConv(c, srcs, basis, prime);
                    const int diff =
                        emitBinary(c, Opcode::Sub, xi, conv, prime);
                    const int down = emitUnary(
                        c, Opcode::MulScalar, diff, prime,
                        scalars_->special_prod_inv[prime]);
                    result[poly][i] = emitUnary(c, Opcode::Ntt, down,
                                                prime);
                }
            }
        }
        return result;
    }

    void
    lowerKeySwitch(const PolyOp &op)
    {
        const Group g = groupOf(op.stream);
        const auto &c1 = limbsFor(op.args[0], op.stream);
        const bool cifher = op.algo == KsAlgo::Cifher;

        // Hoisted broadcast: rotations in one input-broadcast batch
        // reuse the batch's coefficient copies.
        std::vector<int> own;
        const std::vector<int> *bc = &own;
        if (op.batch >= 0 && !cifher && op.galois != 1) {
            auto it = ib_cache_.find(op.batch);
            if (it == ib_cache_.end()) {
                it = ib_cache_
                         .emplace(op.batch,
                                  broadcastPolyCoeff(g, c1, op.level))
                         .first;
            }
            bc = &it->second;
            CINN_ASSERT(bc->size() == g.size() * (op.level + 1),
                        "keyswitch batch " << op.batch
                                           << " mixes levels");
        } else {
            own = broadcastPolyCoeff(g, c1, op.level);
        }

        auto ks = lowerKsCompute(g, *bc, op.level, op.name, op.galois,
                                 cifher);
        limbs_[op.results[0]] = std::move(ks[0]);
        limbs_[op.results[1]] = std::move(ks[1]);
    }

    void
    lowerOaBatch(const PolyOp &op)
    {
        const Group g = groupOf(op.stream);
        const std::size_t level = op.level;
        const std::size_t width = level + 1;
        const std::size_t R = op.rotation_galois.size();
        const Digit &special = scalars_->special;
        const std::vector<Digit> &digits = scalars_->oa_digits[level];
        CINN_FATAL_UNLESS(digits.size() == g.size(),
                          "output aggregation requires level+1 >= group "
                          "size so every chip owns a digit");

        // Full output basis: all ciphertext limbs + all specials.
        std::vector<uint32_t> full;
        for (std::size_t i = 0; i <= level; ++i)
            full.push_back(static_cast<uint32_t>(i));
        full.insert(full.end(), special.primes.begin(),
                    special.primes.end());

        // Each rotation's key, looked up once for the batch.
        std::vector<KeyTable *> keys(R);
        for (std::size_t m = 0; m < R; ++m) {
            const uint64_t galois = op.rotation_galois[m];
            keys[m] = &keyTable("galois:" + std::to_string(galois),
                                galois, true,
                                static_cast<uint32_t>(g.size()),
                                digits.size());
        }

        // Per chip: accumulators over the full basis; per-limb c0 sums.
        acc_.assign(g.size() * 2 * key_primes_, -1);
        std::vector<int> c0sum(width, -1);
        std::vector<int> rotated;

        for (uint32_t c = g.lo; c < g.hi; ++c) {
            const std::size_t p = c - g.lo;
            const Digit &digit = digits[p];

            for (std::size_t m = 0; m < R; ++m) {
                const auto &a1 = limbsFor(op.args[2 * m], op.stream);
                const auto &a0 = limbsFor(op.args[2 * m + 1], op.stream);
                const uint64_t galois = op.rotation_galois[m];

                // Digit limbs: this chip's resident limbs of c1,
                // rotated.
                gather_.clear();
                rotated.clear();
                for (std::size_t d = 0; d < digit.primes.size(); ++d) {
                    const uint32_t prime = digit.primes[d];
                    const int coeff = emitUnary(c, Opcode::Intt,
                                                a1[prime], prime);
                    rotated.push_back(emitUnary(c, Opcode::Automorph,
                                                coeff, prime, galois));
                    gather_.push_back(
                        emitUnary(c, Opcode::MulScalar, rotated.back(),
                                  prime, digit.shat_inv[d]));
                }
                const PoolSpan srcs = unit_->addOperands(gather_);
                const PoolSpan basis = unit_->addPrimes(digit.primes);

                for (uint32_t t : full) {
                    const auto pos = std::find(digit.primes.begin(),
                                               digit.primes.end(), t);
                    const int up =
                        pos != digit.primes.end()
                            ? rotated[pos - digit.primes.begin()]
                            : emitBConv(c, srcs, basis, t);
                    const int up_eval = emitUnary(c, Opcode::Ntt, up, t);
                    for (int poly = 0; poly < 2; ++poly) {
                        const int k = emitKeyLoad(c, *keys[m], p, t, poly);
                        accumulate(g, c, poly, t,
                                   emitBinary(c, Opcode::Mul, up_eval, k,
                                              t));
                    }
                }

                // c0 part: owners accumulate Σ_r auto(c0_r) locally.
                for (uint32_t prime : digit.primes) {
                    const int c0 = emitUnary(c, Opcode::Intt, a0[prime],
                                             prime);
                    const int rc0 = emitUnary(c, Opcode::Automorph, c0,
                                              prime, galois);
                    const int ev = emitUnary(c, Opcode::Ntt, rc0, prime);
                    c0sum[prime] =
                        c0sum[prime] < 0
                            ? ev
                            : emitBinary(c, Opcode::Add, c0sum[prime], ev,
                                         prime);
                }
            }
        }

        // Local mod-down on every chip, then ONE batched
        // aggregate+scatter per output polynomial.
        std::array<std::vector<int>, 2> out;
        std::vector<int> partial(g.size() * width, -1);
        for (int poly = 0; poly < 2; ++poly) {
            for (uint32_t c = g.lo; c < g.hi; ++c) {
                gather_.clear();
                for (std::size_t k = 0; k < special.primes.size(); ++k) {
                    const uint32_t s = special.primes[k];
                    const int coeff = emitUnary(
                        c, Opcode::Intt, accAt(g, c, poly, s), s);
                    gather_.push_back(emitUnary(c, Opcode::MulScalar,
                                                 coeff, s,
                                                 special.shat_inv[k]));
                }
                const PoolSpan srcs = unit_->addOperands(gather_);
                const PoolSpan basis = unit_->addPrimes(special.primes);
                for (std::size_t i = 0; i <= level; ++i) {
                    const uint32_t prime = static_cast<uint32_t>(i);
                    const int xi = emitUnary(c, Opcode::Intt,
                                             accAt(g, c, poly, prime),
                                             prime);
                    const int conv = emitBConv(c, srcs, basis, prime);
                    const int diff =
                        emitBinary(c, Opcode::Sub, xi, conv, prime);
                    partial[(c - g.lo) * width + i] = emitUnary(
                        c, Opcode::MulScalar, diff, prime,
                        scalars_->special_prod_inv[prime]);
                }
            }

            out[poly].resize(width);
            for (std::size_t i = 0; i <= level; ++i) {
                const uint32_t owner = chipOfLimb(g, i);
                const uint32_t prime = static_cast<uint32_t>(i);
                gather_.clear();
                for (std::size_t q = 0; q < g.size(); ++q)
                    gather_.push_back(partial[q * width + i]);
                const int agg = emitAgg(
                    g, owner, unit_->addOperands(gather_), prime);
                int ev = emitUnary(owner, Opcode::Ntt, agg, prime);
                if (poly == 0)
                    ev = emitBinary(owner, Opcode::Add, ev, c0sum[i],
                                    prime);
                // Non-rotation leaves of the add tree join here.
                for (std::size_t e = 0; e < op.num_extras; ++e) {
                    const auto &ex = limbsFor(
                        op.args[2 * R + 2 * e + poly], op.stream);
                    ev = emitBinary(owner, Opcode::Add, ev, ex[i],
                                    prime);
                }
                out[poly][i] = ev;
            }
        }
        limbs_[op.results[0]] = std::move(out[0]);
        limbs_[op.results[1]] = std::move(out[1]);
    }

    void
    lowerOutput(const PolyOp &op)
    {
        // Outputs are stored wherever their c0 lives; c1 migrates
        // there if a plain-add alias left it on another stream.
        const PolyValue &v0 = poly_->values[op.args[0]];
        const Group g = groupOf(v0.stream);
        const auto &c0 = limbsFor(op.args[0], v0.stream);
        const auto &c1 = limbsFor(op.args[1], v0.stream);

        OutputSpec spec;
        spec.name = op.name;
        spec.level = v0.level;
        spec.scale = v0.scale;
        DataDescriptor desc;
        desc.kind = DataDescriptor::Kind::Output;
        desc.name = op.name;
        for (int poly = 0; poly < 2; ++poly) {
            const auto &regs = poly == 0 ? c0 : c1;
            desc.poly = poly;
            spec.desc_idx[poly].resize(v0.level + 1);
            for (std::size_t i = 0; i <= v0.level; ++i) {
                desc.prime = static_cast<uint32_t>(i);
                const int d = descIndex(desc);
                const uint32_t chip = chipOfLimb(g, i);
                LimbOp store;
                store.op = Opcode::Store;
                store.chip = chip;
                store.args = unit_->addOperands({regs[i]});
                store.prime = static_cast<uint32_t>(i);
                store.desc = d;
                unit_->ops.push_back(store);
                spec.desc_idx[poly][i] = d;
                if (poly == 0)
                    spec.owners.push_back(chip);
            }
        }
        unit_->outputs.push_back(std::move(spec));
    }

    const fhe::CkksContext *ctx_;
    const PolyProgram *poly_;
    CompilerConfig cfg_;
    const Scalars *scalars_;
    std::span<const int> op_ids_;
    const std::vector<int> *def_seg_;
    const int segment_;
    Segment *seg_;
    LimbUnit *unit_;
    const std::size_t unit_chips_;
    const std::size_t key_primes_; ///< |Q ∪ E|: accumulator stride

    /** [poly value id] → limb value ids (index = limb). */
    std::vector<std::vector<int>> &limbs_;
    /** (poly value id, stream) → cross-group migrated copies. */
    std::map<std::pair<int, int>, std::vector<int>> migrated_;
    /** [desc index * unit chips + chip - chip_lo] → loaded value. */
    std::vector<int> load_cache_;
    DescMap<int> &desc_index_; ///< descriptor → unit descriptor index
    /** (name, galois, chip digits) → that key's limb descriptors. */
    std::map<std::tuple<std::string, uint64_t, bool>, KeyTable>
        key_tables_;
    /** IB batch id → cached broadcast copies of the shared input. */
    std::map<int, std::vector<int>> ib_cache_;
    /** [((chip - g.lo) * 2 + poly) * key primes + prime] → running
     *  keyswitch sum, -1 while empty. */
    std::vector<int> acc_;
    std::vector<int> gather_; ///< value list being gathered for a span
};

/**
 * Estimated limb ops one poly op lowers to on a `group`-chip stream
 * (within ~25 % of the count on the Table 2 kernels). Keyswitches
 * dominate: every digit feeds every output prime of every chip (base
 * conversion, NTT, two key loads, two multiply-accumulates).
 */
double
loweringCost(const PolyOp &op, const Scalars &s, std::size_t group)
{
    const double w = static_cast<double>(op.level + 1);
    const double g = static_cast<double>(group);
    const double ext = static_cast<double>(s.special.primes.size());
    switch (op.kind) {
    case PolyOpKind::KeySwitch: {
        const double digits =
            static_cast<double>(s.ks_digits[op.level].size());
        return w * (g + 2.0) + digits * (w + g * ext) * 7.0;
    }
    case PolyOpKind::OaBatch:
        return static_cast<double>(op.rotation_galois.size()) * g *
                   (w + ext) * 7.0 +
               2.0 * g * (w * 6.0 + ext * 2.0);
    case PolyOpKind::Rescale:
        return 5.0 * w + g;
    case PolyOpKind::Automorph:
        return 3.0 * w;
    default:
        return w;
    }
}

/**
 * The least estimated cost (costPrefix) a segment may carry, so a
 * unit below twice this stays whole: there a segment's set-up and the
 * merge cost what lowering concurrently saves. EXPERIMENTS.md ("Cold
 * compile, round 3") measured kernels below ~50 k limb ops (every
 * Table 2 phase but bootstrap, the test-scale kernels) at 0.6-1.1x in
 * segments and the N = 64K bootstrap (352 k-880 k ops) at 1.2-1.8x;
 * the serve probe and the emulator's keyswitch kernel are smaller.
 */
constexpr double kMinSegmentCost = 40000.0;

/**
 * What one descriptor a lowerer creates costs, in limb ops: a
 * descriptor-table insert and a copy of the descriptor, measured at
 * 7-13 times an emitted op (EXPERIMENTS.md, "Cold compile, round 3").
 */
constexpr double kDescCost = 8.0;

/**
 * prefix[k]: the estimated cost of lowering ops [0, k) of one unit,
 * in limb ops: loweringCost plus kDescCost per descriptor the ops
 * create. A key's or plaintext's limb descriptors are counted at
 * their first use in the unit (a key's again for the primes a use at
 * a higher level adds); a segment re-creates the ones it shares with
 * earlier segments, which the estimate ignores.
 */
std::vector<double>
costPrefix(const PolyProgram &poly, std::span<const int> ops,
           const Scalars &scalars, std::size_t group)
{
    const std::size_t ext = scalars.special.primes.size();
    std::map<std::tuple<std::string, uint64_t, bool>, std::size_t>
        key_width;
    std::set<std::pair<std::string, std::size_t>> plains;
    // Limb descriptors of one key over primes [0, w) and the specials,
    // counting only the primes a use of that key adds.
    auto keyDescs = [&](const std::string &name, uint64_t galois,
                        bool chip_digits, std::size_t digits,
                        std::size_t w) {
        std::size_t &seen = key_width[{name, galois, chip_digits}];
        const std::size_t fresh = w > seen ? w - seen + (seen ? 0 : ext)
                                           : 0;
        seen = std::max(seen, w);
        return static_cast<double>(2 * digits * fresh);
    };

    std::vector<double> prefix(ops.size() + 1, 0.0);
    for (std::size_t k = 0; k < ops.size(); ++k) {
        const PolyOp &op = poly.ops[ops[k]];
        const std::size_t w = op.level + 1;
        double descs = 0.0;
        switch (op.kind) {
        case PolyOpKind::Input:
            descs = static_cast<double>(w);
            break;
        case PolyOpKind::PlainMul:
        case PolyOpKind::PlainAdd:
            if (plains.emplace(op.name, op.level).second)
                descs = static_cast<double>(w);
            break;
        case PolyOpKind::KeySwitch:
            descs = keyDescs(op.name, op.galois, false,
                             scalars.ks_digits[op.level].size(), w);
            break;
        case PolyOpKind::OaBatch:
            for (uint64_t galois : op.rotation_galois)
                descs += keyDescs("galois:" + std::to_string(galois),
                                  galois, true, group, w);
            break;
        case PolyOpKind::Output:
            descs = 2.0 * static_cast<double>(
                              poly.values[op.args[0]].level + 1);
            break;
        default:
            break;
        }
        prefix[k + 1] = prefix[k] +
                        loweringCost(op, scalars, group) +
                        kDescCost * descs;
    }
    return prefix;
}

/**
 * Where to cut one unit's op list into at most `want` segments of
 * about equal lowering cost (`prefix` from costPrefix): the returned
 * positions b_0 = 0 < b_1 < ... < b_S = ops.size() bound the segments
 * [b_k, b_k+1). A cut lies only between poly ops, and never inside a
 * batch: the members of one batch reuse its first member's broadcast
 * copies (ib_cache_), so they must meet in one lowerer.
 */
std::vector<std::size_t>
planCuts(const PolyProgram &poly, std::span<const int> ops,
         const std::vector<double> &prefix, std::size_t want)
{
    const std::size_t n = ops.size();
    want = std::min<std::size_t>(
        want, static_cast<std::size_t>(prefix[n] / kMinSegmentCost));
    std::vector<std::size_t> cuts = {0};
    if (want < 2) {
        cuts.push_back(n);
        return cuts;
    }

    // A cut at k (between ops k-1 and k) is legal unless some batch
    // has members on both sides: blocked[k] > 0.
    std::vector<std::array<std::size_t, 2>> span; // [batch] first, last
    for (std::size_t k = 0; k < n; ++k) {
        const int b = poly.ops[ops[k]].batch;
        if (b < 0)
            continue;
        if (span.size() <= static_cast<std::size_t>(b))
            span.resize(b + 1, {n, 0});
        span[b][0] = std::min(span[b][0], k);
        span[b][1] = k;
    }
    std::vector<int> blocked(n + 1, 0);
    for (const auto &[first, last] : span) {
        if (first < last) {
            ++blocked[first + 1];
            --blocked[last + 1];
        }
    }
    std::vector<std::size_t> legal;
    int open = 0;
    for (std::size_t k = 1; k < n; ++k) {
        open += blocked[k];
        if (open == 0)
            legal.push_back(k);
    }

    // The legal cut nearest each 1/want of the cost.
    for (std::size_t j = 1; j < want; ++j) {
        const double target = prefix[n] * static_cast<double>(j) /
                              static_cast<double>(want);
        auto it = std::lower_bound(
            legal.begin(), legal.end(), target,
            [&](std::size_t k, double t) { return prefix[k] < t; });
        if (it == legal.end() ||
            (it != legal.begin() &&
             target - prefix[*(it - 1)] < prefix[*it] - target))
            --it;
        if (it != legal.end() && *it > cuts.back())
            cuts.push_back(*it);
    }
    cuts.push_back(n);
    return cuts;
}

/**
 * Splice a unit's lowered segments, in order, into exactly the IR a
 * serial walk of the unit emits. That walk emits the same ops in the
 * same order except one kind: a Load of a (descriptor, chip) an
 * earlier segment already loaded, which its load cache catches. So
 * the merge
 *
 *  - numbers descriptors at first use (a segment's descriptors are
 *    already in its first-use order, and the first segment's are the
 *    unit's first ones);
 *  - drops those repeated Loads and points their uses at the first;
 *  - resolves imports to the exporting segment's limb values;
 *  - numbers the remaining values in creation order;
 *  - shifts every pool span by the pools of the segments before.
 *
 * A serial pass does the first three on the small tables (descriptors,
 * loads, imports) and sizes the unit's arrays, uninitialized; then
 * each segment writes its slice of them on the pool and frees its own.
 */
void
mergeSegments(std::vector<Segment> &segs, const std::vector<int> &def_seg,
              std::size_t workers, LimbUnit &unit)
{
    const std::size_t chips = unit.chip_hi - unit.chip_lo;
    TaskPool &pool = TaskPool::global();
    // Each later segment looks its descriptors up in the earlier
    // segments' tables, concurrently: the first (segment, index)
    // holding each, or (-1, -1). A serial pass then numbers them.
    std::vector<std::vector<std::pair<int, int>>> held(segs.size());
    pool.forEach(segs.size() - 1, workers, [&](std::size_t t) {
        const auto &descs = segs[t + 1].part.descs;
        auto &found = held[t + 1];
        found.assign(descs.size(), {-1, -1});
        for (std::size_t d = 0; d < descs.size(); ++d) {
            for (std::size_t e = 0; e <= t; ++e) {
                const auto it = segs[e].desc_index.find(descs[d]);
                if (it != segs[e].desc_index.end()) {
                    found[d] = {static_cast<int>(e), it->second};
                    break;
                }
            }
        }
    });
    unit.descs = std::move(segs[0].part.descs);
    segs[0].desc_of.resize(unit.descs.size());
    std::iota(segs[0].desc_of.begin(), segs[0].desc_of.end(), 0);
    for (std::size_t s = 1; s < segs.size(); ++s) {
        Segment &seg = segs[s];
        seg.desc_of.resize(held[s].size());
        for (std::size_t d = 0; d < held[s].size(); ++d) {
            const auto [e, at] = held[s][d];
            if (e >= 0) {
                seg.desc_of[d] = segs[e].desc_of[at];
                continue;
            }
            seg.desc_of[d] = static_cast<int>(unit.descs.size());
            unit.descs.push_back(std::move(seg.part.descs[d]));
        }
    }
    // [unit descriptor * chips + chip] → (segment, value) of its load.
    std::vector<std::pair<int, int>> first_load(unit.descs.size() * chips,
                                                {-1, -1});

    // The unit value id of segment e's value x; e's aliases are final.
    auto idOf = [&](std::size_t e, int x) {
        const auto &al = segs[e].aliases;
        const auto it = std::lower_bound(
            al.begin(), al.end(), std::make_pair(x, INT_MIN));
        if (it != al.end() && it->first == x)
            return it->second;
        return static_cast<int>(segs[e].value_at) + x -
               static_cast<int>(it - al.begin());
    };

    std::size_t ops = 0, values = 0, operands = 0, primes = 0;
    std::vector<std::pair<int, int>> imported, reloaded;
    for (std::size_t s = 0; s < segs.size(); ++s) {
        Segment &seg = segs[s];
        LimbUnit &part = seg.part;
        seg.op_at = ops;
        seg.value_at = values;
        seg.operand_at = operands;
        seg.prime_at = primes;

        imported.clear();
        for (const Import &imp : seg.imports) {
            const int e = def_seg[imp.poly_value];
            CINN_ASSERT(e < static_cast<int>(s) &&
                            imp.limb < segs[e].limbs[imp.poly_value].size(),
                        "segment " << s << " imports poly value "
                                   << imp.poly_value
                                   << " that no earlier segment defined");
            imported.emplace_back(
                imp.value,
                idOf(e, segs[e].limbs[imp.poly_value][imp.limb]));
        }
        reloaded.clear();
        for (uint32_t k : seg.loads) {
            const LimbOp &op = part.ops[k];
            auto &first = first_load[seg.desc_of[op.desc] * chips +
                                     (op.chip - unit.chip_lo)];
            if (first.first < 0) {
                first = {static_cast<int>(s), op.result};
                continue;
            }
            reloaded.emplace_back(op.result,
                                  idOf(first.first, first.second));
            seg.dropped.push_back(k);
        }
        seg.aliases.resize(imported.size() + reloaded.size());
        std::merge(imported.begin(), imported.end(), reloaded.begin(),
                   reloaded.end(), seg.aliases.begin());

        ops += part.ops.size() - seg.dropped.size();
        values += part.values.size() - seg.aliases.size();
        operands += part.operands.size();
        primes += part.primes.size();
        for (OutputSpec &spec : part.outputs) {
            for (auto &idx : spec.desc_idx)
                for (int &d : idx)
                    d = seg.desc_of[d];
            unit.outputs.push_back(std::move(spec));
        }
        unit.comm.broadcast_limbs += part.comm.broadcast_limbs;
        unit.comm.aggregation_limbs += part.comm.aggregation_limbs;
    }

    unit.ops.resize(ops);
    unit.values.resize(values);
    unit.operands.resize(operands);
    unit.primes.resize(primes);
    auto copySegment = [&](std::size_t s) {
        Segment &seg = segs[s];
        const LimbUnit &part = seg.part;
        std::vector<int> id(part.values.size());
        int next = static_cast<int>(seg.value_at);
        auto alias = seg.aliases.begin();
        for (std::size_t x = 0; x < part.values.size(); ++x) {
            if (alias != seg.aliases.end() &&
                alias->first == static_cast<int>(x)) {
                id[x] = (alias++)->second;
                continue;
            }
            LimbValue v = part.values[x];
            v.id = next;
            unit.values[next] = v;
            id[x] = next++;
        }

        auto dropped = seg.dropped.begin();
        LimbOp *out = unit.ops.data() + seg.op_at;
        for (std::size_t k = 0; k < part.ops.size(); ++k) {
            if (dropped != seg.dropped.end() && *dropped == k) {
                ++dropped;
                continue;
            }
            LimbOp op = part.ops[k];
            if (op.result >= 0)
                op.result = id[op.result];
            if (op.desc >= 0)
                op.desc = seg.desc_of[op.desc];
            op.args.at += static_cast<uint32_t>(seg.operand_at);
            op.coll.at += static_cast<uint32_t>(seg.operand_at);
            op.aux.at += static_cast<uint32_t>(seg.prime_at);
            *out++ = op;
        }
        std::transform(part.operands.begin(), part.operands.end(),
                       unit.operands.begin() + seg.operand_at,
                       [&](int v) { return v < 0 ? v : id[v]; });
        std::copy(part.primes.begin(), part.primes.end(),
                  unit.primes.begin() + seg.prime_at);
        seg = Segment{};
    };
    pool.forEach(segs.size(), workers, copySegment);
}

[[noreturn]] void
fail(const std::string &what)
{
    throw VerifyError("limb IR: " + what);
}

/** Ops (or values) the verifier checks per range on the pool. */
constexpr std::size_t kVerifyRange = 16384;

} // namespace

std::size_t
DescKey::operator()(const DataDescriptor &d) const
{
    // Name and limb coordinates spread the keys; equality decides.
    const std::size_t limb = std::size_t{d.prime} << 32 ^
                             d.digit << 16 ^ d.level << 1 ^
                             static_cast<std::size_t>(d.poly);
    return std::hash<std::string>{}(d.name) ^ limb;
}

bool
DescKey::operator()(const DataDescriptor &a,
                    const DataDescriptor &b) const
{
    return a.kind == b.kind && a.name == b.name && a.poly == b.poly &&
           a.prime == b.prime && a.digit == b.digit &&
           a.level == b.level && a.galois == b.galois &&
           a.chip_digits == b.chip_digits &&
           a.group_size == b.group_size;
}

std::string
descKeyOf(const DataDescriptor &desc)
{
    std::ostringstream key;
    key << static_cast<int>(desc.kind) << ':' << desc.name << ':'
        << desc.poly << ':' << desc.prime << ':' << desc.digit << ':'
        << desc.level << ':' << desc.galois << ':' << desc.chip_digits
        << ':' << desc.group_size;
    return key.str();
}

LimbProgram
buildLimbProgram(const PolyProgram &poly, const fhe::CkksContext &ctx,
                 const CompilerConfig &cfg, TraceRecorder *trace)
{
    const int S = poly.num_streams;
    const uint32_t g = static_cast<uint32_t>(cfg.chips / S);

    // Union streams that exchange values: any op consuming a value
    // produced under another stream couples the two chip groups.
    std::vector<int> parent(S);
    std::iota(parent.begin(), parent.end(), 0);
    std::function<int(int)> find = [&](int x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    auto unite = [&](int a, int b) {
        a = find(a);
        b = find(b);
        if (a != b)
            parent[std::max(a, b)] = std::min(a, b);
    };
    for (const auto &op : poly.ops) {
        if (op.dead)
            continue;
        if (op.kind == PolyOpKind::Output) {
            unite(poly.values[op.args[0]].stream,
                  poly.values[op.args[1]].stream);
            continue;
        }
        for (int a : op.args)
            unite(op.stream, poly.values[a].stream);
    }

    // Component stream intervals, widened to contiguous ranges: a
    // limb transfer between two groups traverses every chip in
    // between, so a unit must own the whole range.
    std::vector<std::array<int, 2>> iv(S, {S, -1});
    for (int s = 0; s < S; ++s) {
        const int r = find(s);
        iv[r][0] = std::min(iv[r][0], s);
        iv[r][1] = std::max(iv[r][1], s);
    }
    std::vector<std::array<int, 2>> intervals;
    for (int s = 0; s < S; ++s) {
        if (find(s) == s)
            intervals.push_back(iv[s]);
    }
    std::sort(intervals.begin(), intervals.end());
    std::vector<std::array<int, 2>> merged;
    for (const auto &i : intervals) {
        if (!merged.empty() && i[0] <= merged.back()[1])
            merged.back()[1] = std::max(merged.back()[1], i[1]);
        else
            merged.push_back(i);
    }

    LimbProgram limb;
    limb.chips = cfg.chips;
    std::vector<int> unit_of_stream(S, -1);
    for (const auto &m : merged) {
        LimbUnit unit;
        unit.stream_lo = m[0];
        unit.stream_hi = m[1] + 1;
        unit.chip_lo = static_cast<uint32_t>(m[0]) * g;
        unit.chip_hi = static_cast<uint32_t>(m[1] + 1) * g;
        const int idx = static_cast<int>(limb.units.size());
        for (int s = m[0]; s <= m[1]; ++s)
            unit_of_stream[s] = idx;
        limb.units.push_back(std::move(unit));
    }

    // Assign poly ops to units (program order preserved per unit).
    std::vector<std::vector<int>> op_ids(limb.units.size());
    for (const auto &op : poly.ops) {
        if (op.dead)
            continue;
        const int stream = op.kind == PolyOpKind::Output
                               ? poly.values[op.args[0]].stream
                               : op.stream;
        op_ids[unit_of_stream[stream]].push_back(op.id);
    }

    // Units share no chips and no values, and a single-stream unit is
    // cut into segments when the pool has room for more lowerers than
    // there are units. Every (unit, segment) lowers concurrently; the
    // output is identical for any worker count, only wall time
    // changes. Units whose streams exchange values stay whole: their
    // migration cache spans the whole unit.
    const Scalars scalars = buildScalars(poly, ctx, g);
    TaskPool &pool = TaskPool::global();
    const std::size_t par =
        cfg.compile_workers == 0
            ? pool.parallelism()
            : std::min(cfg.compile_workers, pool.parallelism());
    const std::size_t per_unit = std::max<std::size_t>(
        1, par / std::max<std::size_t>(1, limb.units.size()));
    std::vector<std::vector<std::size_t>> cuts(limb.units.size());
    std::vector<std::vector<Segment>> segs(limb.units.size());
    std::vector<int> def_seg(poly.values.size(), INT_MAX);
    std::vector<std::array<std::size_t, 2>> tasks; // (unit, segment)
    for (std::size_t u = 0; u < limb.units.size(); ++u) {
        const LimbUnit &unit = limb.units[u];
        const bool whole = unit.stream_hi - unit.stream_lo > 1;
        const auto prefix = costPrefix(poly, op_ids[u], scalars, g);
        cuts[u] = planCuts(poly, op_ids[u], prefix, whole ? 1 : per_unit);
        segs[u].resize(cuts[u].size() - 1);
        for (std::size_t k = 0; k + 1 < cuts[u].size(); ++k) {
            Segment &seg = segs[u][k];
            seg.part.stream_lo = unit.stream_lo;
            seg.part.stream_hi = unit.stream_hi;
            seg.part.chip_lo = unit.chip_lo;
            seg.part.chip_hi = unit.chip_hi;
            for (std::size_t i = cuts[u][k]; i < cuts[u][k + 1]; ++i) {
                const PolyOp &op = poly.ops[op_ids[u][i]];
                seg.ops_est += loweringCost(op, scalars, g);
                for (int r : op.results)
                    def_seg[r] = static_cast<int>(k);
            }
            tasks.push_back({u, k});
        }
    }
    MetricsRegistry::global()
        .counter("compiler.lower-limb.segments")
        .add(static_cast<double>(tasks.size()));

    auto lowerSegment = [&](std::size_t t) {
        const auto [u, k] = tasks[t];
        const std::span<const int> ops(op_ids[u].data() + cuts[u][k],
                                       cuts[u][k + 1] - cuts[u][k]);
        ScopedSpan span(trace, "compiler.lower-limb.segment", "compiler",
                        0, static_cast<uint32_t>(t));
        span.arg("poly_ops", static_cast<double>(ops.size()));
        UnitLowerer(ctx, poly, cfg, scalars, ops, def_seg,
                    static_cast<int>(k), segs[u][k])
            .run();
    };
    pool.forEach(tasks.size(), cfg.compile_workers, lowerSegment);

    for (std::size_t u = 0; u < limb.units.size(); ++u) {
        if (segs[u].size() == 1) {
            limb.units[u] = std::move(segs[u][0].part);
            continue;
        }
        ScopedSpan span(trace, "compiler.lower-limb.merge", "compiler",
                        0, 0);
        span.arg("segments", static_cast<double>(segs[u].size()));
        const auto start = std::chrono::steady_clock::now();
        mergeSegments(segs[u], def_seg, cfg.compile_workers,
                      limb.units[u]);
        MetricsRegistry::global()
            .histogram("compiler.lower-limb.merge.ms")
            .observe(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    }
    return limb;
}

std::string
printLimbProgram(const LimbProgram &limb)
{
    std::ostringstream os;
    os << "limb IR: " << limb.totalOps() << " ops, "
       << limb.units.size() << " unit(s), " << limb.chips
       << " chip(s)\n";
    for (std::size_t u = 0; u < limb.units.size(); ++u) {
        const LimbUnit &unit = limb.units[u];
        os << " unit " << u << ": streams [" << unit.stream_lo << ", "
           << unit.stream_hi << ") chips [" << unit.chip_lo << ", "
           << unit.chip_hi << ") ops=" << unit.ops.size()
           << " values=" << unit.values.size()
           << " bcast=" << unit.comm.broadcast_limbs
           << " agg=" << unit.comm.aggregation_limbs << "\n";
        for (std::size_t i = 0; i < unit.ops.size(); ++i) {
            const LimbOp &op = unit.ops[i];
            os << "  #" << i << " ";
            if (op.collective())
                os << "chips[" << op.part_lo << "," << op.part_hi
                   << ") ";
            else
                os << "c" << op.chip << " ";
            os << isa::opcodeName(op.op);
            if (op.result >= 0)
                os << " %" << op.result;
            for (int a : unit.args(op))
                os << " %" << a;
            os << " q" << op.prime;
            if (op.imm)
                os << " imm=" << op.imm;
            if (op.desc >= 0)
                os << " @" << descKeyOf(unit.descs[op.desc]);
            os << "\n";
        }
    }
    return os.str();
}

void
verifyLimbProgram(const LimbProgram &limb, std::size_t workers)
{
    auto str = [](auto v) { return std::to_string(v); };
    TaskPool &pool = TaskPool::global();
    // check(i) for every i in [0, n), in ranges on the pool. A range
    // stops at its first failure and the pool rethrows the lowest
    // range's, so the lowest failing index throws, as in a serial
    // walk.
    auto inRanges = [&](std::size_t n, const auto &check) {
        pool.forEach((n + kVerifyRange - 1) / kVerifyRange, workers,
                     [&](std::size_t r) {
                         const std::size_t hi =
                             std::min(n, (r + 1) * kVerifyRange);
                         for (std::size_t i = r * kVerifyRange; i < hi;
                              ++i)
                             check(i);
                     });
    };

    for (std::size_t u = 0; u < limb.units.size(); ++u) {
        const LimbUnit &unit = limb.units[u];
        const std::string where = "unit " + str(u) + ": ";
        if (unit.chip_hi > limb.chips || unit.chip_lo >= unit.chip_hi)
            fail(where + "chip range invalid");
        inRanges(unit.values.size(), [&](std::size_t x) {
            const LimbValue &v = unit.values[x];
            if (v.chip < unit.chip_lo || v.chip >= unit.chip_hi)
                fail(where + "value %" + str(v.id) + " placed on chip " +
                     str(v.chip) + " outside the unit");
        });

        // A span inside its pool: at + size cannot wrap in 64 bits.
        auto inPool = [](PoolSpan s, std::size_t pool_size) {
            return uint64_t{s.at} + s.size <= pool_size;
        };
        const int nvalues = static_cast<int>(unit.values.size());

        // Phase 1: the first op that defines each value. Only the
        // lowest failing op is reported, and every op below it passes
        // and so defines what it names: "defined before op i" is
        // exactly def_at[v] < i there.
        std::vector<uint32_t> def_at(unit.values.size(), UINT32_MAX);
        auto mark = [&](int v, std::size_t i) {
            if (v < 0 || v >= nvalues)
                return;
            // The lowest defining op wins; ranges race only on values
            // defined more than once.
            std::atomic_ref<uint32_t> at(def_at[v]);
            uint32_t seen = at.load(std::memory_order_relaxed);
            while (i < seen &&
                   !at.compare_exchange_weak(seen,
                                             static_cast<uint32_t>(i),
                                             std::memory_order_relaxed)) {
            }
        };
        inRanges(unit.ops.size(), [&](std::size_t i) {
            const LimbOp &op = unit.ops[i];
            if (!op.collective()) {
                mark(op.result, i);
            } else if (op.op == Opcode::Agg) {
                mark(op.result, i);
            } else if (op.op == Opcode::Bcast &&
                       inPool(op.coll, unit.operands.size())) {
                for (int v : unit.coll(op))
                    mark(v, i);
            }
        });

        // Phase 2: every op's checks, in ranges on the pool.
        auto use = [&](int v, std::size_t i) -> const LimbValue & {
            if (v < 0 || v >= nvalues)
                fail(where + "op #" + str(i) + " references value %" +
                     str(v) + " out of range");
            if (def_at[v] >= i)
                fail(where + "op #" + str(i) + " uses %" + str(v) +
                     " before its definition");
            return unit.values[v];
        };
        // `earlier` holds the values op i defined before this one.
        auto define = [&](int v, std::size_t i, uint32_t chip,
                          uint32_t prime, std::span<const int> earlier) {
            if (v < 0 || v >= nvalues)
                fail(where + "op #" + str(i) + " defines value %" +
                     str(v) + " out of range");
            if (def_at[v] < i ||
                std::find(earlier.begin(), earlier.end(), v) !=
                    earlier.end())
                fail(where + "value %" + str(v) +
                     " defined more than once");
            const LimbValue &val = unit.values[v];
            if (val.chip != chip)
                fail(where + "op #" + str(i) + " defines %" + str(v) +
                     " on chip " + str(chip) + " but the value lives on "
                     + str(val.chip));
            if (val.prime != prime)
                fail(where + "op #" + str(i) + " defines %" + str(v) +
                     " under the wrong prime");
        };

        inRanges(unit.ops.size(), [&](std::size_t i) {
            const LimbOp &op = unit.ops[i];
            if (!inPool(op.args, unit.operands.size()))
                fail(where + "op #" + str(i) +
                     " argument span runs past the operand pool");
            if (!inPool(op.coll, unit.operands.size()))
                fail(where + "op #" + str(i) +
                     " collective span runs past the operand pool");
            if (!inPool(op.aux, unit.primes.size()))
                fail(where + "op #" + str(i) +
                     " source-prime span runs past the prime pool");
            const auto args = unit.args(op);
            const auto coll = unit.coll(op);
            const auto aux = unit.aux(op);
            if (op.collective()) {
                // Collective group scoping: participants must be a
                // sub-range of the unit's chips, and every
                // per-participant value must live on its chip.
                if (op.part_lo < unit.chip_lo ||
                    op.part_hi > unit.chip_hi)
                    fail(where + "op #" + str(i) +
                         " collective spans chips [" + str(op.part_lo) +
                         ", " + str(op.part_hi) +
                         ") outside the unit's group");
                if (op.imm < op.part_lo || op.imm >= op.part_hi)
                    fail(where + "op #" + str(i) +
                         " collective owner outside participants");
                const std::size_t n = op.part_hi - op.part_lo;
                if (op.op == Opcode::Bcast) {
                    if (args.size() != 1 || coll.size() != n)
                        fail(where + "op #" + str(i) +
                             " broadcast malformed");
                    const LimbValue &src = use(args[0], i);
                    if (src.chip != op.imm)
                        fail(where + "op #" + str(i) +
                             " broadcast source not on the owner chip");
                    if (src.prime != op.prime)
                        fail(where + "op #" + str(i) +
                             " broadcast source prime mismatch");
                    for (std::size_t j = 0; j < n; ++j) {
                        if (coll[j] < 0)
                            continue;
                        define(coll[j], i,
                               op.part_lo + static_cast<uint32_t>(j),
                               op.prime, coll.first(j));
                    }
                } else if (op.op == Opcode::Agg) {
                    if (coll.size() != n || op.result < 0)
                        fail(where + "op #" + str(i) +
                             " aggregation malformed");
                    for (std::size_t j = 0; j < n; ++j) {
                        const LimbValue &src = use(coll[j], i);
                        if (src.chip !=
                            op.part_lo + static_cast<uint32_t>(j))
                            fail(where + "op #" + str(i) +
                                 " aggregation source on wrong chip");
                        if (src.prime != op.prime)
                            fail(where + "op #" + str(i) +
                                 " aggregation source prime mismatch");
                    }
                    define(op.result, i, static_cast<uint32_t>(op.imm),
                           op.prime, {});
                } else {
                    fail(where + "op #" + str(i) +
                         " non-collective opcode with participants");
                }
                return;
            }

            if (op.chip < unit.chip_lo || op.chip >= unit.chip_hi)
                fail(where + "op #" + str(i) + " runs on chip " +
                     str(op.chip) + " outside the unit");
            // Operand placement + prime discipline per opcode.
            if (op.op == Opcode::BConv) {
                if (args.size() != aux.size())
                    fail(where + "op #" + str(i) +
                         " base conversion arity mismatch");
                for (std::size_t k = 0; k < args.size(); ++k) {
                    const LimbValue &a = use(args[k], i);
                    if (a.chip != op.chip)
                        fail(where + "op #" + str(i) +
                             " operand on wrong chip");
                    if (a.prime != aux[k])
                        fail(where + "op #" + str(i) +
                             " base-conversion source prime mismatch");
                }
            } else if (op.op == Opcode::Mod) {
                if (args.size() != 1 || aux.size() != 1)
                    fail(where + "op #" + str(i) + " mod malformed");
                const LimbValue &a = use(args[0], i);
                if (a.chip != op.chip || a.prime != aux[0])
                    fail(where + "op #" + str(i) +
                         " mod source mismatch");
            } else {
                for (int arg : args) {
                    const LimbValue &a = use(arg, i);
                    if (a.chip != op.chip)
                        fail(where + "op #" + str(i) +
                             " operand on wrong chip");
                    if (a.prime != op.prime)
                        fail(where + "op #" + str(i) +
                             " operand prime mismatch");
                }
            }
            if (op.op == Opcode::Store || op.op == Opcode::Load) {
                if (op.desc < 0 ||
                    op.desc >= static_cast<int>(unit.descs.size()))
                    fail(where + "op #" + str(i) +
                         " descriptor out of range");
            }
            if (op.result >= 0)
                define(op.result, i, op.chip, op.prime, {});
        });

        for (const auto &spec : unit.outputs) {
            if (spec.owners.size() != spec.level + 1)
                fail(where + "output '" + spec.name +
                     "' owner list malformed");
            for (int poly = 0; poly < 2; ++poly) {
                if (spec.desc_idx[poly].size() != spec.level + 1)
                    fail(where + "output '" + spec.name +
                         "' descriptor list malformed");
                for (int d : spec.desc_idx[poly]) {
                    if (d < 0 ||
                        d >= static_cast<int>(unit.descs.size()))
                        fail(where + "output '" + spec.name +
                             "' descriptor out of range");
                }
            }
        }
    }
}

} // namespace cinnamon::compiler
