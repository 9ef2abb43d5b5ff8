#include "compiler/limb_ir.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/task_pool.h"
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

/**
 * Lowers the poly ops assigned to one LimbUnit. This is the port of
 * the pre-pipeline monolithic lowering, emitting placed SSA limb ops
 * instead of ISA instructions; the emitted dataflow graph is
 * identical op for op, which is what the golden-equivalence suite
 * pins down.
 */
class UnitLowerer
{
  public:
    UnitLowerer(const fhe::CkksContext &ctx, const PolyProgram &poly,
                const CompilerConfig &cfg,
                const std::vector<int> &op_ids, LimbUnit &unit)
        : ctx_(&ctx), poly_(&poly), cfg_(cfg), op_ids_(&op_ids),
          unit_(&unit)
    {
    }

    void
    run()
    {
        for (int idx : *op_ids_) {
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

    int
    emitUnary(uint32_t chip, Opcode opc, int src, uint32_t prime,
              uint64_t imm = 0)
    {
        LimbOp op;
        op.op = opc;
        op.chip = chip;
        op.args = {src};
        op.prime = prime;
        op.imm = imm;
        op.result = unit_->newValue(chip, prime);
        const int r = op.result;
        unit_->ops.push_back(std::move(op));
        return r;
    }

    int
    emitBinary(uint32_t chip, Opcode opc, int a, int b, uint32_t prime)
    {
        LimbOp op;
        op.op = opc;
        op.chip = chip;
        op.args = {a, b};
        op.prime = prime;
        op.result = unit_->newValue(chip, prime);
        const int r = op.result;
        unit_->ops.push_back(std::move(op));
        return r;
    }

    int
    emitBConv(uint32_t chip, const std::vector<int> &srcs,
              const rns::Basis &basis, uint32_t prime)
    {
        LimbOp op;
        op.op = Opcode::BConv;
        op.chip = chip;
        op.args = srcs;
        op.aux.assign(basis.begin(), basis.end());
        op.prime = prime;
        op.result = unit_->newValue(chip, prime);
        const int r = op.result;
        unit_->ops.push_back(std::move(op));
        return r;
    }

    int
    descIndex(const DataDescriptor &desc)
    {
        const auto [it, fresh] = desc_index_.try_emplace(
            desc, static_cast<int>(unit_->descs.size()));
        if (fresh)
            unit_->descs.push_back(desc);
        return it->second;
    }

    int
    emitLoad(uint32_t chip, const DataDescriptor &desc)
    {
        // Load CSE: repeated uses of the same read-only limb (inputs,
        // plaintexts, evaluation keys) share one SSA value. Belady
        // then decides whether the value stays resident; if it is
        // evicted, the allocator rematerializes it from its address
        // instead of spilling.
        const int d = descIndex(desc);
        const auto key = std::make_pair(chip, d);
        auto it = load_cache_.find(key);
        if (it != load_cache_.end())
            return it->second;
        LimbOp op;
        op.op = Opcode::Load;
        op.chip = chip;
        op.prime = desc.prime;
        op.desc = d;
        op.result = unit_->newValue(chip, desc.prime);
        const int r = op.result;
        unit_->ops.push_back(std::move(op));
        load_cache_.emplace(key, r);
        return r;
    }

    // ---- scalar precomputation ------------------------------------
    /** (D/d_i)^{-1} mod d_i for a digit basis D. */
    uint64_t
    digitShatInv(const rns::Basis &digit, std::size_t i) const
    {
        const rns::Modulus &di = ctx_->rns().modulus(digit[i]);
        uint64_t prod = 1;
        for (std::size_t k = 0; k < digit.size(); ++k) {
            if (k != i)
                prod = di.mul(prod,
                              ctx_->rns().modulus(digit[k]).value() %
                                  di.value());
        }
        return di.inv(prod);
    }

    /** P^{-1} mod q_i with P = product of the special primes. */
    uint64_t
    specialProdInv(uint32_t prime) const
    {
        const rns::Modulus &qi = ctx_->rns().modulus(prime);
        uint64_t p = 1;
        for (uint32_t s : ctx_->specialBasis())
            p = qi.mul(p, ctx_->rns().modulus(s).value() % qi.value());
        return qi.inv(p);
    }

    // ---- collective emission --------------------------------------
    /** Broadcast one limb (on `owner`) to every chip in `g`. */
    std::vector<int>
    emitBcast(const Group &g, uint32_t owner, int src, uint32_t prime)
    {
        LimbOp op;
        op.op = Opcode::Bcast;
        op.args = {src};
        op.prime = prime;
        op.imm = owner;
        op.part_lo = g.lo;
        op.part_hi = g.hi;
        op.coll_dsts.assign(g.size(), -1);
        std::vector<int> dsts(cfg_.chips, -1);
        for (uint32_t c = g.lo; c < g.hi; ++c) {
            const int v = unit_->newValue(c, prime);
            op.coll_dsts[c - g.lo] = v;
            dsts[c] = v;
        }
        unit_->ops.push_back(std::move(op));
        ++unit_->comm.broadcast_limbs;
        return dsts;
    }

    /** Aggregate per-chip partials; result lands on `owner` only. */
    int
    emitAgg(const Group &g, uint32_t owner,
            const std::vector<int> &srcs_per_chip, uint32_t prime)
    {
        LimbOp op;
        op.op = Opcode::Agg;
        op.prime = prime;
        op.imm = owner;
        op.part_lo = g.lo;
        op.part_hi = g.hi;
        op.coll_srcs.assign(g.size(), -1);
        for (uint32_t c = g.lo; c < g.hi; ++c)
            op.coll_srcs[c - g.lo] = srcs_per_chip[c];
        op.result = unit_->newValue(owner, prime);
        op.chip = owner;
        const int r = op.result;
        unit_->ops.push_back(std::move(op));
        ++unit_->comm.aggregation_limbs;
        return r;
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
        op.args = {src};
        op.prime = prime;
        op.imm = from;
        op.part_lo = lo;
        op.part_hi = hi;
        op.coll_dsts.assign(hi - lo, -1);
        op.result = -1;
        const int v = unit_->newValue(to, prime);
        op.coll_dsts[to - lo] = v;
        unit_->ops.push_back(std::move(op));
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
        const auto &base = limbs_.at(value_id);
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

    // ---- op lowering ----------------------------------------------
    void
    lowerInput(const PolyOp &op)
    {
        const Group g = groupOf(op.stream);
        std::vector<int> limbs(op.level + 1);
        for (std::size_t i = 0; i <= op.level; ++i) {
            DataDescriptor desc;
            desc.kind = DataDescriptor::Kind::InputCt;
            desc.name = op.name;
            desc.poly = op.poly;
            desc.prime = static_cast<uint32_t>(i);
            limbs[i] = emitLoad(chipOfLimb(g, i), desc);
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
        std::vector<int> out(op.level + 1);
        for (std::size_t i = 0; i <= op.level; ++i) {
            const uint32_t chip = chipOfLimb(g, i);
            DataDescriptor desc;
            desc.kind = DataDescriptor::Kind::Plain;
            desc.name = op.name;
            desc.prime = static_cast<uint32_t>(i);
            desc.level = op.level;
            desc.scale = ctx_->params().scale;
            const int p = emitLoad(chip, desc);
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
        const uint64_t q_last = ctx_->q(last);

        // INTT the dropped limb and broadcast it to the group.
        const int last_coeff =
            emitUnary(last_owner, Opcode::Intt, a[last],
                      static_cast<uint32_t>(last));
        auto copies = emitBcast(g, last_owner, last_coeff,
                                static_cast<uint32_t>(last));

        std::vector<int> out(op.level + 1);
        for (std::size_t i = 0; i <= op.level; ++i) {
            const uint32_t chip = chipOfLimb(g, i);
            const uint32_t prime = static_cast<uint32_t>(i);
            const rns::Modulus &qi = ctx_->rns().modulus(prime);
            const int xi = emitUnary(chip, Opcode::Intt, a[i], prime);
            // Reduce the dropped limb's residues into q_i.
            LimbOp red;
            red.op = Opcode::Mod;
            red.chip = chip;
            red.args = {copies[chip]};
            red.prime = prime;
            red.aux = {static_cast<uint32_t>(last)};
            red.result = unit_->newValue(chip, prime);
            const int xl = red.result;
            unit_->ops.push_back(std::move(red));
            const int diff = emitBinary(chip, Opcode::Sub, xi, xl, prime);
            const int scaled =
                emitUnary(chip, Opcode::MulScalar, diff, prime,
                          qi.inv(q_last % qi.value()));
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
     * @return bc[chip][limb] values (valid for chips in the group).
     */
    std::vector<std::vector<int>>
    broadcastPolyCoeff(const Group &g, const std::vector<int> &limbs,
                       std::size_t level)
    {
        std::vector<std::vector<int>> bc(cfg_.chips);
        for (auto &v : bc)
            v.assign(level + 1, -1);
        for (std::size_t i = 0; i <= level; ++i) {
            const uint32_t owner = chipOfLimb(g, i);
            const uint32_t prime = static_cast<uint32_t>(i);
            const int coeff =
                emitUnary(owner, Opcode::Intt, limbs[i], prime);
            auto copies = emitBcast(g, owner, coeff, prime);
            for (uint32_t c = g.lo; c < g.hi; ++c)
                bc[c][i] = copies[c];
        }
        return bc;
    }

    /**
     * The per-chip keyswitch compute shared by input-broadcast and
     * CiFHER lowering: digits, mod-up, evalkey MACs, mod-down.
     */
    std::array<std::vector<int>, 2>
    lowerKsCompute(const Group &g,
                   const std::vector<std::vector<int>> &bc,
                   std::size_t level, const std::string &key,
                   uint64_t galois, bool cifher)
    {
        const auto digits = ctx_->digits(level);
        const rns::Basis special = ctx_->specialBasis();

        std::array<std::vector<int>, 2> result;
        result[0].assign(level + 1, -1);
        result[1].assign(level + 1, -1);

        // Per-chip accumulators over the chip's mod-up output basis.
        std::vector<std::array<std::map<uint32_t, int>, 2>> acc(
            cfg_.chips);

        for (uint32_t c = g.lo; c < g.hi; ++c) {
            // Apply the automorphism on-chip to the broadcast copies.
            std::vector<int> limbs = bc[c];
            if (galois != 1) {
                for (std::size_t i = 0; i <= level; ++i) {
                    limbs[i] =
                        emitUnary(c, Opcode::Automorph, limbs[i],
                                  static_cast<uint32_t>(i), galois);
                }
            }

            // Output primes handled on this chip.
            std::vector<uint32_t> out_primes;
            for (std::size_t i = 0; i <= level; ++i) {
                if (chipOfLimb(g, i) == c)
                    out_primes.push_back(static_cast<uint32_t>(i));
            }
            for (std::size_t k = 0; k < special.size(); ++k) {
                if (!cifher || chipOfLimb(g, special[k]) == c)
                    out_primes.push_back(special[k]);
            }

            for (std::size_t j = 0; j < digits.size(); ++j) {
                const rns::Basis &digit = digits[j];
                // Stage 1 of the BCU: pre-scale the digit limbs.
                std::vector<int> scaled(digit.size());
                for (std::size_t d = 0; d < digit.size(); ++d) {
                    scaled[d] = emitUnary(c, Opcode::MulScalar,
                                          limbs[digit[d]], digit[d],
                                          digitShatInv(digit, d));
                }
                for (uint32_t t : out_primes) {
                    int up;
                    const bool in_digit =
                        std::find(digit.begin(), digit.end(), t) !=
                        digit.end();
                    if (in_digit)
                        up = limbs[t];
                    else
                        up = emitBConv(c, scaled, digit, t);
                    const int up_eval = emitUnary(c, Opcode::Ntt, up, t);
                    for (int poly = 0; poly < 2; ++poly) {
                        DataDescriptor desc;
                        desc.kind = DataDescriptor::Kind::EvalKey;
                        desc.name = key;
                        desc.poly = poly;
                        desc.prime = t;
                        desc.digit = j;
                        desc.galois = galois;
                        const int k = emitLoad(c, desc);
                        const int prod =
                            emitBinary(c, Opcode::Mul, up_eval, k, t);
                        auto it = acc[c][poly].find(t);
                        if (it == acc[c][poly].end()) {
                            acc[c][poly][t] = prod;
                        } else {
                            it->second = emitBinary(
                                c, Opcode::Add, it->second, prod, t);
                        }
                    }
                }
            }
        }

        // Mod-down. Under CiFHER both the ciphertext and extension
        // limbs of each accumulator are partitioned, so the mod-down
        // needs the whole polynomial broadcast (the paper's "2
        // broadcasts in (6)"); these are the rounds the keyswitch pass
        // cannot hoist.
        for (int poly = 0; poly < 2; ++poly) {
            if (cifher) {
                for (std::size_t i = 0; i <= level; ++i) {
                    const uint32_t owner = chipOfLimb(g, i);
                    const uint32_t prime = static_cast<uint32_t>(i);
                    (void)emitBcast(g, owner,
                                    acc[owner][poly].at(prime), prime);
                }
            }
            // INTT the extension accumulators on their owners.
            std::vector<std::vector<int>> ext(cfg_.chips);
            for (auto &v : ext)
                v.assign(special.size(), -1);
            for (std::size_t k = 0; k < special.size(); ++k) {
                const uint32_t s = special[k];
                if (cifher) {
                    const uint32_t owner = chipOfLimb(g, s);
                    const int coeff = emitUnary(
                        owner, Opcode::Intt, acc[owner][poly].at(s), s);
                    auto copies = emitBcast(g, owner, coeff, s);
                    for (uint32_t c = g.lo; c < g.hi; ++c)
                        ext[c][k] = copies[c];
                } else {
                    for (uint32_t c = g.lo; c < g.hi; ++c) {
                        ext[c][k] = emitUnary(c, Opcode::Intt,
                                              acc[c][poly].at(s), s);
                    }
                }
            }

            for (uint32_t c = g.lo; c < g.hi; ++c) {
                // Pre-scale the extension limbs for the mod-down BConv.
                std::vector<int> scaled(special.size());
                for (std::size_t k = 0; k < special.size(); ++k) {
                    scaled[k] =
                        emitUnary(c, Opcode::MulScalar, ext[c][k],
                                  special[k], digitShatInv(special, k));
                }
                for (std::size_t i = 0; i <= level; ++i) {
                    if (chipOfLimb(g, i) != c)
                        continue;
                    const uint32_t prime = static_cast<uint32_t>(i);
                    const int xi =
                        emitUnary(c, Opcode::Intt,
                                  acc[c][poly].at(prime), prime);
                    const int conv = emitBConv(c, scaled, special, prime);
                    const int diff =
                        emitBinary(c, Opcode::Sub, xi, conv, prime);
                    const int down =
                        emitUnary(c, Opcode::MulScalar, diff, prime,
                                  specialProdInv(prime));
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
        std::vector<std::vector<int>> bc;
        if (op.batch >= 0 && !cifher && op.galois != 1) {
            auto it = ib_cache_.find(op.batch);
            if (it != ib_cache_.end()) {
                bc = it->second;
            } else {
                bc = broadcastPolyCoeff(g, c1, op.level);
                ib_cache_.emplace(op.batch, bc);
            }
        } else {
            bc = broadcastPolyCoeff(g, c1, op.level);
        }

        auto ks = lowerKsCompute(g, bc, op.level, op.name, op.galois,
                                 cifher);
        limbs_[op.results[0]] = std::move(ks[0]);
        limbs_[op.results[1]] = std::move(ks[1]);
    }

    void
    lowerOaBatch(const PolyOp &op)
    {
        const Group g = groupOf(op.stream);
        const std::size_t level = op.level;
        const std::size_t R = op.rotation_galois.size();
        const rns::Basis special = ctx_->specialBasis();
        const auto digits = chipDigitBases(level, g.size());
        CINN_FATAL_UNLESS(digits.size() == g.size(),
                          "output aggregation requires level+1 >= group "
                          "size so every chip owns a digit");

        // Full output basis: all ciphertext limbs + all specials.
        std::vector<uint32_t> full;
        for (std::size_t i = 0; i <= level; ++i)
            full.push_back(static_cast<uint32_t>(i));
        for (uint32_t s : special)
            full.push_back(s);

        // Per chip: accumulators over the full basis; per-limb c0 sums.
        std::vector<std::array<std::map<uint32_t, int>, 2>> acc(
            cfg_.chips);
        std::vector<int> c0sum(level + 1, -1);

        for (uint32_t c = g.lo; c < g.hi; ++c) {
            const std::size_t p = c - g.lo;
            const rns::Basis &digit = digits[p];

            for (std::size_t m = 0; m < R; ++m) {
                const auto &a1 = limbsFor(op.args[2 * m], op.stream);
                const auto &a0 = limbsFor(op.args[2 * m + 1], op.stream);
                const uint64_t galois = op.rotation_galois[m];
                const std::string key =
                    "galois:" + std::to_string(galois);

                // Digit limbs: this chip's resident limbs of c1,
                // rotated.
                std::vector<int> scaled(digit.size());
                std::vector<int> rotated(digit.size());
                for (std::size_t d = 0; d < digit.size(); ++d) {
                    const uint32_t prime = digit[d];
                    const int coeff = emitUnary(c, Opcode::Intt,
                                                a1[prime], prime);
                    rotated[d] = emitUnary(c, Opcode::Automorph, coeff,
                                           prime, galois);
                    scaled[d] =
                        emitUnary(c, Opcode::MulScalar, rotated[d],
                                  prime, digitShatInv(digit, d));
                }

                for (uint32_t t : full) {
                    int up;
                    auto pos = std::find(digit.begin(), digit.end(), t);
                    if (pos != digit.end())
                        up = rotated[pos - digit.begin()];
                    else
                        up = emitBConv(c, scaled, digit, t);
                    const int up_eval = emitUnary(c, Opcode::Ntt, up, t);
                    for (int poly = 0; poly < 2; ++poly) {
                        DataDescriptor desc;
                        desc.kind = DataDescriptor::Kind::EvalKey;
                        desc.name = key;
                        desc.poly = poly;
                        desc.prime = t;
                        desc.digit = p;
                        desc.galois = galois;
                        desc.chip_digits = true;
                        desc.group_size =
                            static_cast<uint32_t>(g.size());
                        const int k = emitLoad(c, desc);
                        const int prod =
                            emitBinary(c, Opcode::Mul, up_eval, k, t);
                        auto it = acc[c][poly].find(t);
                        if (it == acc[c][poly].end()) {
                            acc[c][poly][t] = prod;
                        } else {
                            it->second = emitBinary(
                                c, Opcode::Add, it->second, prod, t);
                        }
                    }
                }

                // c0 part: owners accumulate Σ_r auto(c0_r) locally.
                for (std::size_t d = 0; d < digit.size(); ++d) {
                    const uint32_t prime = digit[d];
                    const int c0 = emitUnary(c, Opcode::Intt, a0[prime],
                                             prime);
                    const int rc0 = emitUnary(c, Opcode::Automorph, c0,
                                              prime, galois);
                    const int ev = emitUnary(c, Opcode::Ntt, rc0, prime);
                    if (c0sum[prime] < 0) {
                        c0sum[prime] = ev;
                    } else {
                        c0sum[prime] = emitBinary(
                            c, Opcode::Add, c0sum[prime], ev, prime);
                    }
                }
            }
        }

        // Local mod-down on every chip, then ONE batched
        // aggregate+scatter per output polynomial.
        std::array<std::vector<int>, 2> out;
        for (int poly = 0; poly < 2; ++poly) {
            std::vector<std::vector<int>> partial(cfg_.chips);
            for (auto &v : partial)
                v.assign(level + 1, -1);
            for (uint32_t c = g.lo; c < g.hi; ++c) {
                std::vector<int> scaled(special.size());
                for (std::size_t k = 0; k < special.size(); ++k) {
                    const int coeff =
                        emitUnary(c, Opcode::Intt,
                                  acc[c][poly].at(special[k]),
                                  special[k]);
                    scaled[k] =
                        emitUnary(c, Opcode::MulScalar, coeff,
                                  special[k], digitShatInv(special, k));
                }
                for (std::size_t i = 0; i <= level; ++i) {
                    const uint32_t prime = static_cast<uint32_t>(i);
                    const int xi =
                        emitUnary(c, Opcode::Intt,
                                  acc[c][poly].at(prime), prime);
                    const int conv = emitBConv(c, scaled, special, prime);
                    const int diff =
                        emitBinary(c, Opcode::Sub, xi, conv, prime);
                    partial[c][i] =
                        emitUnary(c, Opcode::MulScalar, diff, prime,
                                  specialProdInv(prime));
                }
            }

            out[poly].resize(level + 1);
            for (std::size_t i = 0; i <= level; ++i) {
                const uint32_t owner = chipOfLimb(g, i);
                const uint32_t prime = static_cast<uint32_t>(i);
                std::vector<int> srcs(cfg_.chips, -1);
                for (uint32_t c = g.lo; c < g.hi; ++c)
                    srcs[c] = partial[c][i];
                const int agg = emitAgg(g, owner, srcs, prime);
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
        for (int poly = 0; poly < 2; ++poly) {
            const auto &regs = poly == 0 ? c0 : c1;
            spec.desc_idx[poly].resize(v0.level + 1);
            for (std::size_t i = 0; i <= v0.level; ++i) {
                DataDescriptor desc;
                desc.kind = DataDescriptor::Kind::Output;
                desc.name = op.name;
                desc.poly = poly;
                desc.prime = static_cast<uint32_t>(i);
                const int d = descIndex(desc);
                const uint32_t chip = chipOfLimb(g, i);
                LimbOp store;
                store.op = Opcode::Store;
                store.chip = chip;
                store.args = {regs[i]};
                store.prime = static_cast<uint32_t>(i);
                store.desc = d;
                unit_->ops.push_back(std::move(store));
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
    const std::vector<int> *op_ids_;
    LimbUnit *unit_;

    /** poly value id → limb value ids (index = limb). */
    std::map<int, std::vector<int>> limbs_;
    /** (poly value id, stream) → cross-group migrated copies. */
    std::map<std::pair<int, int>, std::vector<int>> migrated_;
    /** (chip, desc index) → value holding that read-only limb. */
    std::map<std::pair<uint32_t, int>, int> load_cache_;
    DescMap<int> desc_index_; ///< descriptor → unit descriptor index
    /** IB batch id → cached broadcast copies of the shared input. */
    std::map<int, std::vector<std::vector<int>>> ib_cache_;
};

[[noreturn]] void
fail(const std::string &what)
{
    throw VerifyError("limb IR: " + what);
}

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
                 const CompilerConfig &cfg)
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

    // Units share no chips and no values — lower them concurrently.
    // The per-unit output is identical for any worker count; only
    // wall time changes.
    auto lowerUnit = [&](std::size_t i) {
        UnitLowerer(ctx, poly, cfg, op_ids[i], limb.units[i]).run();
    };
    TaskPool::global().forEach(limb.units.size(), cfg.compile_workers,
                               lowerUnit);
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
            for (int a : op.args)
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
verifyLimbProgram(const LimbProgram &limb)
{
    auto str = [](auto v) { return std::to_string(v); };
    for (std::size_t u = 0; u < limb.units.size(); ++u) {
        const LimbUnit &unit = limb.units[u];
        const std::string where = "unit " + str(u) + ": ";
        if (unit.chip_hi > limb.chips || unit.chip_lo >= unit.chip_hi)
            fail(where + "chip range invalid");
        for (const auto &v : unit.values) {
            if (v.chip < unit.chip_lo || v.chip >= unit.chip_hi)
                fail(where + "value %" + str(v.id) + " placed on chip " +
                     str(v.chip) + " outside the unit");
        }

        std::vector<char> defined(unit.values.size(), 0);
        auto use = [&](int v, std::size_t i) -> const LimbValue & {
            if (v < 0 || v >= static_cast<int>(unit.values.size()))
                fail(where + "op #" + str(i) + " references value %" +
                     str(v) + " out of range");
            if (!defined[v])
                fail(where + "op #" + str(i) + " uses %" + str(v) +
                     " before its definition");
            return unit.values[v];
        };
        auto define = [&](int v, std::size_t i, uint32_t chip,
                          uint32_t prime) {
            if (v < 0 || v >= static_cast<int>(unit.values.size()))
                fail(where + "op #" + str(i) + " defines value %" +
                     str(v) + " out of range");
            if (defined[v])
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
            defined[v] = 1;
        };

        for (std::size_t i = 0; i < unit.ops.size(); ++i) {
            const LimbOp &op = unit.ops[i];
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
                    if (op.args.size() != 1 || op.coll_dsts.size() != n)
                        fail(where + "op #" + str(i) +
                             " broadcast malformed");
                    const LimbValue &src = use(op.args[0], i);
                    if (src.chip != op.imm)
                        fail(where + "op #" + str(i) +
                             " broadcast source not on the owner chip");
                    if (src.prime != op.prime)
                        fail(where + "op #" + str(i) +
                             " broadcast source prime mismatch");
                    for (std::size_t j = 0; j < n; ++j) {
                        if (op.coll_dsts[j] < 0)
                            continue;
                        define(op.coll_dsts[j], i,
                               op.part_lo + static_cast<uint32_t>(j),
                               op.prime);
                    }
                } else if (op.op == Opcode::Agg) {
                    if (op.coll_srcs.size() != n || op.result < 0)
                        fail(where + "op #" + str(i) +
                             " aggregation malformed");
                    for (std::size_t j = 0; j < n; ++j) {
                        const LimbValue &src = use(op.coll_srcs[j], i);
                        if (src.chip !=
                            op.part_lo + static_cast<uint32_t>(j))
                            fail(where + "op #" + str(i) +
                                 " aggregation source on wrong chip");
                        if (src.prime != op.prime)
                            fail(where + "op #" + str(i) +
                                 " aggregation source prime mismatch");
                    }
                    define(op.result, i,
                           static_cast<uint32_t>(op.imm), op.prime);
                } else {
                    fail(where + "op #" + str(i) +
                         " non-collective opcode with participants");
                }
                continue;
            }

            if (op.chip < unit.chip_lo || op.chip >= unit.chip_hi)
                fail(where + "op #" + str(i) + " runs on chip " +
                     str(op.chip) + " outside the unit");
            // Operand placement + prime discipline per opcode.
            if (op.op == Opcode::BConv) {
                if (op.args.size() != op.aux.size())
                    fail(where + "op #" + str(i) +
                         " base conversion arity mismatch");
                for (std::size_t k = 0; k < op.args.size(); ++k) {
                    const LimbValue &a = use(op.args[k], i);
                    if (a.chip != op.chip)
                        fail(where + "op #" + str(i) +
                             " operand on wrong chip");
                    if (a.prime != op.aux[k])
                        fail(where + "op #" + str(i) +
                             " base-conversion source prime mismatch");
                }
            } else if (op.op == Opcode::Mod) {
                if (op.args.size() != 1 || op.aux.size() != 1)
                    fail(where + "op #" + str(i) + " mod malformed");
                const LimbValue &a = use(op.args[0], i);
                if (a.chip != op.chip || a.prime != op.aux[0])
                    fail(where + "op #" + str(i) +
                         " mod source mismatch");
            } else {
                for (int arg : op.args) {
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
                define(op.result, i, op.chip, op.prime);
        }

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
