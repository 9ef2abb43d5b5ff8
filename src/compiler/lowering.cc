#include "compiler/lowering.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
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

/**
 * Pass "lower-isa": walk the limb units in stream order and emit one
 * ISA instruction stream per chip. This stage is serial and owns
 * everything global: memory-address assignment (descriptors dedup by
 * value across units), collective rendezvous tags, and per-chip
 * virtual register numbering — which is why serial and parallel limb
 * lowering produce byte-identical machine programs.
 *
 * Emission is presized: one counting pass reserves every chip's
 * stream, and each instruction is built in place with its sources
 * sized once.
 */
void
lowerIsaPass(PassContext &pcx)
{
    const LimbProgram &limb = pcx.limb;
    const CompilerConfig &cfg = pcx.cfg;

    CompiledProgram out;
    out.machine.chips.resize(cfg.chips);
    std::vector<std::size_t> count(cfg.chips, 0);
    for (const LimbUnit &unit : limb.units) {
        for (const LimbOp &op : unit.ops) {
            if (!op.collective()) {
                ++count[op.chip];
                continue;
            }
            for (uint32_t c = op.part_lo; c < op.part_hi; ++c)
                ++count[c];
        }
    }
    for (std::size_t c = 0; c < cfg.chips; ++c)
        out.machine.chips[c].instrs.reserve(count[c]);

    std::vector<int> nreg(cfg.chips, 0);
    uint64_t next_tag = 1;
    uint64_t next_addr = 1;
    DescMap<uint64_t> addr_of;

    auto newReg = [&](uint32_t chip) { return nreg[chip]++; };
    auto emit = [&](uint32_t chip) -> Instruction & {
        return out.machine.chips[chip].instrs.emplace_back();
    };

    for (std::size_t u = 0; u < limb.units.size(); ++u) {
        const LimbUnit &unit = limb.units[u];
        // Global addresses for this unit's descriptors. A unit's own
        // descriptors are distinct, so only earlier units' entries
        // are looked up, and only a later unit needs new ones.
        const bool later = u + 1 < limb.units.size();
        std::vector<uint64_t> addr(unit.descs.size());
        for (std::size_t d = 0; d < unit.descs.size(); ++d) {
            const DataDescriptor &desc = unit.descs[d];
            const auto it =
                addr_of.empty() ? addr_of.end() : addr_of.find(desc);
            if (it != addr_of.end()) {
                addr[d] = it->second;
                continue;
            }
            addr[d] = next_addr;
            if (later)
                addr_of.emplace(desc, next_addr);
            out.data.emplace_hint(out.data.end(), next_addr++, desc);
        }

        std::vector<int> vreg(unit.values.size(), -1);
        auto regOf = [&](int value) {
            CINN_ASSERT(value >= 0 && vreg[value] >= 0,
                        "limb value %" << value
                                       << " used before definition");
            return vreg[value];
        };

        for (const LimbOp &op : unit.ops) {
            if (op.collective()) {
                const uint64_t tag = next_tag++;
                const uint32_t owner = static_cast<uint32_t>(op.imm);
                const auto coll = unit.coll(op);
                for (uint32_t c = op.part_lo; c < op.part_hi; ++c) {
                    Instruction &ins = emit(c);
                    ins.op = op.op;
                    ins.prime = op.prime;
                    ins.tag = tag;
                    ins.part_lo = op.part_lo;
                    ins.part_hi = op.part_hi;
                    if (op.op == Opcode::Bcast) {
                        ins.imm = owner;
                        if (c == owner)
                            ins.srcs.assign(1, regOf(unit.args(op)[0]));
                        const int dv = coll[c - op.part_lo];
                        if (dv >= 0) {
                            ins.dst = newReg(c);
                            vreg[dv] = ins.dst;
                        }
                    } else { // Agg
                        ins.srcs.assign(1, regOf(coll[c - op.part_lo]));
                        if (c == owner) {
                            ins.dst = newReg(c);
                            vreg[op.result] = ins.dst;
                        }
                    }
                }
                continue;
            }

            Instruction &ins = emit(op.chip);
            ins.op = op.op;
            ins.prime = op.prime;
            if (op.op == Opcode::BConv || op.op == Opcode::Mod) {
                const auto aux = unit.aux(op);
                ins.aux.assign(aux.begin(), aux.end());
            }
            ins.imm = op.desc >= 0 ? addr[op.desc] : op.imm;
            const auto args = unit.args(op);
            ins.srcs.resize(args.size());
            for (std::size_t k = 0; k < args.size(); ++k)
                ins.srcs[k] = regOf(args[k]);
            if (op.result >= 0) {
                ins.dst = newReg(op.chip);
                vreg[op.result] = ins.dst;
            }
        }

        for (const OutputSpec &spec : unit.outputs) {
            OutputInfo info;
            info.level = spec.level;
            info.scale = spec.scale;
            for (int poly = 0; poly < 2; ++poly) {
                info.addrs[poly].resize(spec.level + 1);
                for (std::size_t i = 0; i <= spec.level; ++i)
                    info.addrs[poly][i] = addr[spec.desc_idx[poly][i]];
            }
            info.owners = spec.owners;
            out.outputs[spec.name] = std::move(info);
        }

        out.comm.broadcast_limbs += unit.comm.broadcast_limbs;
        out.comm.aggregation_limbs += unit.comm.aggregation_limbs;
    }

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
 * pass over each chip's final stream records its first-use loads of
 * program data, whether it also Stores there, and its footprint.
 * Program data occupies the dense addresses [1, data.size()]; spill
 * slots follow, so a flag array per chip replaces every set.
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

    // key_slot[k][digit * key_primes + prime] is set once any chip
    // loads that limb of key k, and later becomes its position.
    const std::size_t key_primes = ctx.keyBasis().size();
    std::vector<std::vector<uint32_t>> key_slot(table.keys.size());
    for (std::size_t k = 0; k < table.keys.size(); ++k)
        key_slot[k].assign(table.keys[k].limbs.size() * key_primes, 0);

    // Per chip: first-use loads of program data, the addresses the chip
    // Stores to, and its footprint. A Load past the data is a spill
    // slot, produced by a Store at run time.
    enum : uint8_t { kTouched = 1, kLoaded = 2, kStored = 4 };
    const std::size_t chips = program.machine.numChips();
    table.chips.resize(chips);
    table.footprint.assign(chips, 0);
    std::vector<uint8_t> seen;
    for (std::size_t c = 0; c < chips; ++c) {
        seen.assign(data_end, 0);
        auto &loads = table.chips[c];
        for (const isa::Instruction &ins : program.machine.chips[c].instrs) {
            if (ins.op != isa::Opcode::Load && ins.op != isa::Opcode::Store)
                continue;
            if (ins.imm >= seen.size())
                seen.resize(ins.imm + 1, 0);
            uint8_t &mark = seen[ins.imm];
            if (mark == 0)
                ++table.footprint[c];
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
            if (src.kind == Kind::EvalKey)
                key_slot[src.source][src.digit * key_primes + src.prime] =
                    1;
        }
        for (PreloadTable::Load &load : loads)
            load.dirtied = (seen[load.addr] & kStored) != 0;
    }

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
        const auto &instrs = program.machine.chips[c].instrs;
        os << " chip " << c << " (" << instrs.size() << " instrs)\n";
        for (const auto &ins : instrs)
            os << "  " << ins.toString() << "\n";
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
