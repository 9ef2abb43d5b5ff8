#include "compiler/lowering.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/task_pool.h"
#include "compiler/limb_ir.h"
#include "compiler/pass.h"
#include "compiler/poly_ir.h"
#include "compiler/regalloc.h"
#include "compiler/strategy.h"
#include "fhe/keys.h"

namespace cinnamon::compiler {

namespace {

using isa::Instruction;
using isa::Opcode;

/** One op of a chip's stream: its index in the unit, and its tag. */
struct ChipOp
{
    uint32_t op = 0;
    uint64_t tag = 0; ///< rendezvous tag of a collective, else 0
};

/**
 * Pass "lower-isa": one ISA instruction stream per chip.
 *
 * A serial pre-pass walks the limb units in stream order and fixes
 * everything global: memory addresses (descriptors dedup by value
 * across units), collective rendezvous tags in op order, and each
 * chip's list of the ops it executes (a collective is in the list of
 * every participant). Units share no chips, so the chips' streams
 * are then emitted independently on the TaskPool. Virtual registers
 * are numbered per chip in op order, so the machine program is
 * byte-identical at any worker count and to a serial walk of the
 * units. Each chip sizes its stream and operand pools once and
 * builds every record in place; nothing is allocated per
 * instruction.
 */
void
lowerIsaPass(PassContext &pcx)
{
    const LimbProgram &limb = pcx.limb;
    const CompilerConfig &cfg = pcx.cfg;

    CompiledProgram out;
    out.machine.chips.resize(cfg.chips);

    const std::size_t units = limb.units.size();
    std::vector<std::vector<uint64_t>> addr(units);
    std::vector<std::vector<int>> vreg(units);
    std::vector<std::vector<ChipOp>> chip_ops(cfg.chips);
    std::vector<uint32_t> unit_of(cfg.chips, 0);
    uint64_t next_tag = 1;
    uint64_t next_addr = 1;
    DescMap<uint64_t> addr_of;

    for (std::size_t u = 0; u < units; ++u) {
        const LimbUnit &unit = limb.units[u];
        const uint32_t chip_hi = std::min<uint32_t>(
            unit.chip_hi, static_cast<uint32_t>(cfg.chips));
        for (uint32_t c = unit.chip_lo; c < chip_hi; ++c)
            unit_of[c] = static_cast<uint32_t>(u);
        // Global addresses for this unit's descriptors. A unit's own
        // descriptors are distinct, so only earlier units' entries
        // are looked up, and only a later unit needs new ones.
        const bool later = u + 1 < units;
        addr[u].resize(unit.descs.size());
        for (std::size_t d = 0; d < unit.descs.size(); ++d) {
            const DataDescriptor &desc = unit.descs[d];
            const auto it =
                addr_of.empty() ? addr_of.end() : addr_of.find(desc);
            if (it != addr_of.end()) {
                addr[u][d] = it->second;
                continue;
            }
            addr[u][d] = next_addr;
            if (later)
                addr_of.emplace(desc, next_addr);
            out.data.emplace_hint(out.data.end(), next_addr++, desc);
        }

        for (std::size_t i = 0; i < unit.ops.size(); ++i) {
            const LimbOp &op = unit.ops[i];
            const uint32_t idx = static_cast<uint32_t>(i);
            if (!op.collective()) {
                chip_ops[op.chip].push_back({idx, 0});
                continue;
            }
            const uint64_t tag = next_tag++;
            for (uint32_t c = op.part_lo; c < op.part_hi; ++c)
                chip_ops[c].push_back({idx, tag});
        }
        vreg[u].assign(unit.values.size(), -1);

        for (const OutputSpec &spec : unit.outputs) {
            OutputInfo info;
            info.level = spec.level;
            info.scale = spec.scale;
            for (int poly = 0; poly < 2; ++poly) {
                info.addrs[poly].resize(spec.level + 1);
                for (std::size_t i = 0; i <= spec.level; ++i) {
                    info.addrs[poly][i] =
                        addr[u][spec.desc_idx[poly][i]];
                }
            }
            info.owners = spec.owners;
            out.outputs[spec.name] = std::move(info);
        }

        out.comm.broadcast_limbs += unit.comm.broadcast_limbs;
        out.comm.aggregation_limbs += unit.comm.aggregation_limbs;
    }

    // Per chip, on the pool. A chip reads and writes only the vreg
    // entries of values placed on it (regOf checks the placement), so
    // the chips share no mutable state.
    std::vector<int> nreg(cfg.chips, 0);
    auto emitChip = [&](std::size_t c) {
        const std::vector<ChipOp> &ops = chip_ops[c];
        if (ops.empty())
            return;
        const LimbUnit &unit = limb.units[unit_of[c]];
        const std::vector<uint64_t> &uaddr = addr[unit_of[c]];
        std::vector<int> &uvreg = vreg[unit_of[c]];
        isa::ChipProgram &chip = out.machine.chips[c];

        std::size_t nsrcs = 0, naux = 0;
        for (const ChipOp &e : ops) {
            const LimbOp &op = unit.ops[e.op];
            nsrcs += op.collective() ? 1 : op.args.size;
            if (op.op == Opcode::BConv || op.op == Opcode::Mod)
                naux += op.aux.size;
        }
        chip.instrs.reserve(ops.size());
        chip.operands.reserve(nsrcs);
        chip.primes.reserve(naux);

        auto regOf = [&](int value) {
            CINN_ASSERT(value >= 0 && unit.values[value].chip == c &&
                            uvreg[value] >= 0,
                        "limb value %" << value
                                       << " used before definition"
                                       << " on chip " << c);
            return uvreg[value];
        };
        int next_reg = 0;
        auto define = [&](Instruction &ins, int value) {
            ins.dst = next_reg++;
            uvreg[value] = ins.dst;
        };
        auto addSrc = [&](Instruction &ins, int value) {
            ins.srcs.size = 1;
            ins.srcs.at = static_cast<uint32_t>(chip.operands.size());
            chip.operands.push_back(regOf(value));
        };

        for (const ChipOp &e : ops) {
            const LimbOp &op = unit.ops[e.op];
            Instruction &ins = chip.instrs.emplace_back();
            ins.op = op.op;
            ins.prime = op.prime;
            if (op.collective()) {
                const uint32_t owner = static_cast<uint32_t>(op.imm);
                const int mine = unit.coll(op)[c - op.part_lo];
                ins.tag = e.tag;
                ins.part_lo = op.part_lo;
                ins.part_hi = op.part_hi;
                if (op.op == Opcode::Bcast) {
                    ins.imm = owner;
                    if (c == owner)
                        addSrc(ins, unit.args(op)[0]);
                    if (mine >= 0)
                        define(ins, mine);
                } else { // Agg
                    addSrc(ins, mine);
                    if (c == owner)
                        define(ins, op.result);
                }
                continue;
            }
            if (op.op == Opcode::BConv || op.op == Opcode::Mod)
                ins.aux = chip.addAux(unit.aux(op));
            ins.imm = op.desc >= 0 ? uaddr[op.desc] : op.imm;
            const auto args = unit.args(op);
            ins.srcs.at = static_cast<uint32_t>(chip.operands.size());
            ins.srcs.size = static_cast<uint32_t>(args.size());
            for (int a : args)
                chip.operands.push_back(regOf(a));
            if (op.result >= 0)
                define(ins, op.result);
        }
        nreg[c] = next_reg;
    };
    TaskPool::global().forEach(cfg.chips, cfg.compile_workers,
                               emitChip);

    std::size_t max_vregs = 0;
    for (std::size_t c = 0; c < cfg.chips; ++c) {
        max_vregs = std::max(max_vregs,
                             static_cast<std::size_t>(nreg[c]));
    }
    out.machine.num_virtual_regs = max_vregs;
    out.config = cfg;
    out.ks_pass = pcx.ks;

    pcx.next_addr = next_addr;
    pcx.out = std::move(out);
}

/**
 * The preload table (CompiledProgram::preload) of a finished program:
 * one pass over the descriptors names every source by index, then one
 * pass over each chip's final stream — the chips on the TaskPool —
 * records its first-use loads of program data, whether it also
 * Stores there, and its footprint. Program data occupies the dense
 * addresses [1, data.size()]; spill slots follow, so a flag array per
 * chip replaces every set. Each chip writes only its own entries; the
 * evaluation-key limbs the chips load are merged from their load
 * lists afterwards.
 */
PreloadTable
buildPreloadTable(const CompiledProgram &program,
                  const fhe::CkksContext &ctx)
{
    using Kind = DataDescriptor::Kind;
    PreloadTable table;
    const uint64_t data_end = program.data.size() + 1;
    CINN_ASSERT(program.data.empty() ||
                    program.data.rbegin()->first + 1 == data_end,
                "program data addresses must be dense from 1");

    // Source of every data address. Plains and keys are found by name
    // first, so a repeat lookup allocates nothing.
    std::vector<PreloadTable::Load> source(data_end);
    std::map<std::string, uint32_t> input_of;
    std::map<std::string, std::vector<uint32_t>> plains_named, keys_named;
    for (const auto &[addr, desc] : program.data) {
        PreloadTable::Load &src = source[addr];
        src.addr = addr;
        src.kind = desc.kind;
        src.poly = desc.poly;
        src.prime = desc.prime;
        switch (desc.kind) {
          case Kind::InputCt: {
            const auto [it, fresh] = input_of.try_emplace(
                desc.name, static_cast<uint32_t>(table.inputs.size()));
            if (fresh)
                table.inputs.push_back(desc.name);
            src.source = it->second;
            break;
          }
          case Kind::Plain: {
            auto &named = plains_named[desc.name];
            const auto it = std::find_if(
                named.begin(), named.end(), [&](uint32_t i) {
                    return table.plains[i].level == desc.level &&
                           table.plains[i].scale == desc.scale;
                });
            if (it != named.end()) {
                src.source = *it;
                break;
            }
            src.source = static_cast<uint32_t>(table.plains.size());
            named.push_back(src.source);
            table.plains.push_back({desc.name, desc.level, desc.scale});
            break;
          }
          case Kind::EvalKey: {
            auto &named = keys_named[desc.name];
            const auto it = std::find_if(
                named.begin(), named.end(), [&](uint32_t i) {
                    return table.keys[i].chip_digits == desc.chip_digits &&
                           table.keys[i].group_size == desc.group_size;
                });
            if (it != named.end()) {
                src.source = *it;
            } else {
                // The identity deliberately omits any batch copy: it
                // seeds the key's generator, and a batched member must
                // draw exactly the keys an unbatched run would.
                PreloadTable::Key key;
                key.identity = desc.name + ':' +
                               (desc.chip_digits ? '1' : '0') + ':' +
                               std::to_string(desc.group_size);
                key.galois = desc.name == "relin"
                                 ? fhe::KeyGenerator::kRelin
                                 : desc.galois;
                key.chip_digits = desc.chip_digits;
                key.group_size = desc.group_size;
                key.limbs.resize(keyDigitBases(ctx, key).size());
                src.source = static_cast<uint32_t>(table.keys.size());
                named.push_back(src.source);
                table.keys.push_back(std::move(key));
            }
            src.digit = static_cast<uint32_t>(desc.digit);
            CINN_ASSERT(desc.digit < table.keys[src.source].limbs.size(),
                        "evaluation key digit out of range");
            break;
          }
          case Kind::Output:
            break;
        }
    }

    // Per chip: first-use loads of program data, the addresses the chip
    // Stores to, and its footprint. A Load past the data is a spill
    // slot, produced by a Store at run time.
    enum : uint8_t { kTouched = 1, kLoaded = 2, kStored = 4 };
    const std::size_t chips = program.machine.numChips();
    table.chips.resize(chips);
    table.footprint.assign(chips, 0);
    auto scanChip = [&](std::size_t c) {
        std::vector<uint8_t> seen(data_end, 0);
        auto &loads = table.chips[c];
        std::size_t footprint = 0;
        for (const isa::Instruction &ins : program.machine.chips[c].instrs) {
            if (ins.op != isa::Opcode::Load && ins.op != isa::Opcode::Store)
                continue;
            if (ins.imm >= seen.size())
                seen.resize(ins.imm + 1, 0);
            uint8_t &mark = seen[ins.imm];
            if (mark == 0)
                ++footprint;
            mark |= kTouched;
            if (ins.op == isa::Opcode::Store) {
                mark |= kStored;
                continue;
            }
            if (ins.imm >= data_end || (mark & kLoaded))
                continue;
            mark |= kLoaded;
            const PreloadTable::Load &src = source[ins.imm];
            CINN_ASSERT(src.kind != Kind::Output,
                        "outputs are not materialized as inputs");
            loads.push_back(src);
        }
        for (PreloadTable::Load &load : loads)
            load.dirtied = (seen[load.addr] & kStored) != 0;
        table.footprint[c] = footprint;
    };
    TaskPool::global().forEach(chips, program.config.compile_workers,
                               scanChip);

    // key_slot[k][digit * key_primes + prime] is set once any chip
    // loads that limb of key k, and later becomes its position.
    const std::size_t key_primes = ctx.keyBasis().size();
    std::vector<std::vector<uint32_t>> key_slot(table.keys.size());
    for (std::size_t k = 0; k < table.keys.size(); ++k) {
        key_slot[k].assign(table.keys[k].limbs.size() * key_primes,
                           0);
    }
    for (const auto &loads : table.chips)
        for (const PreloadTable::Load &load : loads)
            if (load.kind == Kind::EvalKey)
                key_slot[load.source]
                        [load.digit * key_primes + load.prime] = 1;

    // Each key digit's loaded primes, ascending, and every key load's
    // position among them.
    for (std::size_t k = 0; k < table.keys.size(); ++k) {
        auto &key = table.keys[k];
        for (std::size_t d = 0; d < key.limbs.size(); ++d) {
            for (uint32_t p = 0; p < key_primes; ++p) {
                uint32_t &slot = key_slot[k][d * key_primes + p];
                if (slot == 0)
                    continue;
                slot = static_cast<uint32_t>(key.limbs[d].size());
                key.limbs[d].push_back(p);
            }
        }
    }
    for (auto &loads : table.chips)
        for (PreloadTable::Load &load : loads)
            if (load.kind == Kind::EvalKey)
                load.pos = key_slot[load.source]
                                   [load.digit * key_primes + load.prime];
    return table;
}

} // namespace

std::vector<rns::Basis>
keyDigitBases(const fhe::CkksContext &ctx, const PreloadTable::Key &key)
{
    return key.chip_digits ? chipDigitBases(ctx.maxLevel(), key.group_size)
                           : ctx.digits(ctx.maxLevel());
}

std::vector<rns::Basis>
chipDigitBases(std::size_t level, std::size_t group_size)
{
    std::vector<rns::Basis> out;
    for (std::size_t p = 0; p < group_size; ++p) {
        rns::Basis digit;
        for (std::size_t i = p; i <= level; i += group_size)
            digit.push_back(static_cast<uint32_t>(i));
        if (!digit.empty())
            out.push_back(std::move(digit));
    }
    return out;
}

std::string
cacheKeyOf(const CompilerConfig &config)
{
    std::ostringstream key;
    key << "chips=" << config.chips
        << ":streams=" << config.num_streams
        << ":ks=" << cacheKeyOf(config.ks)
        << ":strat=" << config.strategy
        << ":regs=" << config.phys_regs
        << ":alloc=" << config.allocate
        << ":policy=" << static_cast<int>(config.regalloc_policy);
    return key.str();
}

std::string
printIsaProgram(const CompiledProgram &program)
{
    std::ostringstream os;
    os << "isa: " << program.machine.totalInstructions()
       << " instructions, " << program.machine.numChips()
       << " chip(s), " << program.data.size()
       << " data addresses, bcast=" << program.comm.broadcast_limbs
       << " agg=" << program.comm.aggregation_limbs << "\n";
    for (std::size_t c = 0; c < program.machine.chips.size(); ++c) {
        const isa::ChipProgram &chip = program.machine.chips[c];
        os << " chip " << c << " (" << chip.instrs.size()
           << " instrs)\n";
        for (const auto &ins : chip.instrs)
            os << "  " << chip.toString(ins) << "\n";
    }
    return os.str();
}

void
buildCompilerPipeline(PassManager &pm)
{
    pm.add(Pass{
        "expand-poly",
        "",
        [](PassContext &p) {
            p.poly = buildPolyProgram(*p.prog, p.cfg.num_streams);
        },
        [](const PassContext &p) { verifyPolyProgram(p.poly); },
        nullptr,
        [](const PassContext &p) { return p.poly.liveOps(); },
    });
    pm.add(Pass{
        "keyswitch",
        "poly",
        [](PassContext &p) {
            p.ks = runKeyswitchPass(*p.prog, p.cfg.ks);
            applyKeyswitchResult(
                p.poly, *p.prog, p.ks,
                p.cfg.chips /
                    static_cast<std::size_t>(p.cfg.num_streams),
                p.ctx->specialBasis().size());
        },
        [](const PassContext &p) { verifyPolyProgram(p.poly); },
        [](const PassContext &p) { return printPolyProgram(p.poly); },
        [](const PassContext &p) { return p.poly.liveOps(); },
    });
    pm.add(Pass{
        "lower-limb",
        "limb",
        [](PassContext &p) {
            p.limb = buildLimbProgram(p.poly, *p.ctx, p.cfg);
        },
        [](const PassContext &p) { verifyLimbProgram(p.limb); },
        [](const PassContext &p) { return printLimbProgram(p.limb); },
        [](const PassContext &p) { return p.limb.totalOps(); },
    });
    pm.add(Pass{
        "lower-isa",
        "isa",
        lowerIsaPass,
        nullptr,
        [](const PassContext &p) { return printIsaProgram(p.out); },
        [](const PassContext &p) {
            return p.out.machine.totalInstructions();
        },
    });
    pm.add(Pass{
        "regalloc",
        "",
        [](PassContext &p) {
            if (p.cfg.allocate) {
                p.out.regalloc = allocateRegisters(
                    p.out.machine, p.cfg.phys_regs, p.next_addr,
                    p.cfg.regalloc_policy, p.cfg.compile_workers);
            }
        },
        nullptr,
        nullptr,
        [](const PassContext &p) {
            return p.out.machine.totalInstructions();
        },
    });
}

CompiledProgram
Compiler::compile(const Program &program)
{
    CINN_FATAL_UNLESS(config_.chips >= 1, "need at least one chip");
    CINN_FATAL_UNLESS(config_.num_streams >= 1 &&
                          config_.chips % config_.num_streams == 0,
                      "chips must divide evenly among streams");
    // A named strategy is resolved here, once, so every consumer —
    // benches, serving tier, distributed workers — compiles with the
    // registry entry's exact ks option bytes. Unknown names throw
    // with the registry's list.
    if (!config_.strategy.empty())
        config_.ks = StrategyRegistry::global().at(config_.strategy).ks;

    PassContext pcx;
    pcx.ctx = ctx_;
    pcx.prog = &program;
    pcx.cfg = config_;
    pcx.trace = trace_;

    PassManager pm;
    buildCompilerPipeline(pm);
    pm.run(pcx, dump_);
    {
        // The preload table runs outside every pass; book it apart.
        ScopedSpan span(trace_, "compiler.preload", "compiler", 0, 0);
        const auto start = std::chrono::steady_clock::now();
        pcx.out.preload = buildPreloadTable(pcx.out, *ctx_);
        MetricsRegistry::global()
            .histogram("compiler.preload.ms")
            .observe(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    }
    return std::move(pcx.out);
}

} // namespace cinnamon::compiler
