/**
 * @file
 * Tests for Belady register allocation (src/compiler/regalloc):
 * correctness (bound respected, spills reload the right values),
 * rematerialization of read-only loads, the MIN-vs-LRU property that
 * motivates the paper's choice (Section 4.4), the allocator's exact
 * output on the golden kernels, and a semantic replay of allocated
 * random programs.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "compiler/regalloc.h"

#include "golden_util.h"

using namespace cinnamon;
using namespace cinnamon::compiler;
using isa::ChipProgram;
using isa::Instruction;
using isa::MachineProgram;
using isa::Opcode;

namespace {

/** An instruction with its operand lists, before it joins a chip. */
struct Spec
{
    Instruction ins;
    std::vector<int> srcs;
    std::vector<uint32_t> aux;
};

Spec
op(Opcode o, int dst, std::vector<int> srcs, uint64_t imm = 0)
{
    Spec spec;
    spec.ins.op = o;
    spec.ins.dst = dst;
    spec.ins.prime = 0;
    spec.ins.imm = imm;
    spec.srcs = std::move(srcs);
    return spec;
}

/** Append `spec` to `chip`, its lists to the chip's pools. */
void
add(ChipProgram &chip, const Spec &spec)
{
    Instruction ins = spec.ins;
    ins.srcs = chip.addSrcs(spec.srcs);
    ins.aux = chip.addAux(spec.aux);
    chip.instrs.push_back(ins);
}

/** v0..v{n-1} loaded from data, then pairwise-added in a chain that
 *  revisits early values late (forces evictions). */
MachineProgram
pressureProgram(int values)
{
    MachineProgram p;
    p.chips.resize(1);
    auto &chip = p.chips[0];
    for (int i = 0; i < values; ++i)
        add(chip, op(Opcode::Load, i, {}, 100 + i));
    int next = values;
    // Sum all values, then re-use value 0 at the very end.
    int acc = 0;
    for (int i = 1; i < values; ++i) {
        add(chip, op(Opcode::Add, next, {acc, i}));
        acc = next++;
    }
    add(chip, op(Opcode::Add, next, {acc, 0}));
    add(chip, op(Opcode::Store, -1, {next}, 999));
    return p;
}

std::size_t
maxRegUsed(const MachineProgram &p)
{
    int mx = -1;
    for (const auto &chip : p.chips) {
        for (const auto &ins : chip.instrs) {
            mx = std::max(mx, ins.dst);
            for (int s : chip.srcs(ins))
                mx = std::max(mx, s);
        }
    }
    return static_cast<std::size_t>(mx + 1);
}

} // namespace

TEST(RegAlloc, RespectsPhysicalBound)
{
    auto p = pressureProgram(40);
    auto stats = allocateRegisters(p, 8, 1000);
    EXPECT_LE(maxRegUsed(p), 8u);
    EXPECT_TRUE(p.allocated);
    EXPECT_GT(stats.spill_loads, 0u);
}

TEST(RegAlloc, NoSpillsWhenRegistersSuffice)
{
    auto p = pressureProgram(10);
    auto stats = allocateRegisters(p, 64, 1000);
    EXPECT_EQ(stats.spill_loads, 0u);
    EXPECT_EQ(stats.spill_stores, 0u);
}

TEST(RegAlloc, ReadOnlyLoadsRematerializeWithoutStores)
{
    // All values come from Loads, so eviction should never Store:
    // the allocator rematerializes from the original address.
    auto p = pressureProgram(40);
    auto stats = allocateRegisters(p, 8, 1000);
    EXPECT_EQ(stats.spill_stores, 0u);
    EXPECT_GT(stats.spill_loads, 0u);
    // Every load (original or reload) targets an original data
    // address, never a spill slot.
    for (const auto &ins : p.chips[0].instrs) {
        if (ins.op == Opcode::Load) {
            EXPECT_GE(ins.imm, 100u);
            EXPECT_LT(ins.imm, 140u);
        }
    }
}

TEST(RegAlloc, ComputedValuesSpillToSlots)
{
    // Interleave computed (non-rematerializable) long-lived values.
    MachineProgram p;
    p.chips.resize(1);
    auto &chip = p.chips[0];
    const int kVals = 24;
    for (int i = 0; i < kVals; ++i) {
        add(chip, op(Opcode::Load, 2 * i, {}, 100 + i));
        // A computed value derived from the load.
        add(chip, op(Opcode::AddScalar, 2 * i + 1, {2 * i}, 5));
    }
    // Use all computed values at the end (reverse order).
    int next = 2 * kVals;
    int acc = 1;
    for (int i = 1; i < kVals; ++i) {
        add(chip, op(Opcode::Add, next, {acc, 2 * i + 1}));
        acc = next++;
    }
    add(chip, op(Opcode::Store, -1, {acc}, 999));

    auto stats = allocateRegisters(p, 8, 5000);
    EXPECT_GT(stats.spill_stores, 0u);
    // Stores must target spill slots at/above the base.
    for (const auto &i2 : p.chips[0].instrs) {
        if (i2.op == Opcode::Store && i2.imm != 999)
            EXPECT_GE(i2.imm, 5000u);
    }
}

TEST(RegAlloc, BeladyNeverWorseThanLruHere)
{
    for (int values : {16, 24, 40, 64}) {
        auto pb = pressureProgram(values);
        auto pl = pressureProgram(values);
        auto sb = allocateRegisters(pb, 8, 1000,
                                    EvictionPolicy::Belady);
        auto sl = allocateRegisters(pl, 8, 1000, EvictionPolicy::Lru);
        EXPECT_LE(sb.spill_loads + sb.spill_stores,
                  sl.spill_loads + sl.spill_stores)
            << "values=" << values;
    }
}

TEST(RegAlloc, SemanticOrderPreserved)
{
    // After allocation, every source must have been defined (written
    // by an earlier instruction) before use — a dataflow validity
    // check on the rewritten stream.
    auto p = pressureProgram(32);
    allocateRegisters(p, 8, 1000);
    std::set<int> defined;
    const ChipProgram &chip = p.chips[0];
    for (const auto &ins : chip.instrs) {
        for (int s : chip.srcs(ins))
            EXPECT_TRUE(defined.count(s))
                << "use of undefined r" << s << " in "
                << chip.toString(ins);
        if (ins.dst >= 0)
            defined.insert(ins.dst);
    }
}

TEST(RegAlloc, RejectsTinyRegisterFiles)
{
    // The TaskPool's workers are alive by now; a plain fork of a
    // threaded process can hang under ThreadSanitizer, so the death
    // test re-executes the binary instead.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    auto p = pressureProgram(4);
    EXPECT_DEATH(allocateRegisters(p, 4, 1000), "fewer than 8");
}

TEST(RegAlloc, MaxLiveTracksPressure)
{
    auto p = pressureProgram(12);
    auto stats = allocateRegisters(p, 64, 1000);
    // 12 loads live simultaneously before the reduction starts.
    EXPECT_GE(stats.max_live, 12u);
}

namespace {

/** FNV-1a over every field the allocated program carries. */
uint64_t
allocationHash(const CompiledProgram &prog)
{
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](uint64_t v) {
        h = testutil::fnv1aBytes(&v, sizeof(v), h);
    };
    auto mixInt = [&mix](int64_t v) {
        mix(static_cast<uint64_t>(v));
    };
    for (const auto &chip : prog.machine.chips) {
        mix(chip.instrs.size());
        for (const Instruction &ins : chip.instrs) {
            mix(static_cast<uint64_t>(ins.op));
            mixInt(ins.dst);
            const auto srcs = chip.srcs(ins);
            mix(srcs.size());
            for (int s : srcs)
                mixInt(s);
            mix(ins.prime);
            mix(ins.imm);
            const auto aux = chip.aux(ins);
            mix(aux.size());
            for (uint32_t a : aux)
                mix(a);
            mix(ins.tag);
            mix(ins.part_lo);
            mix(ins.part_hi);
        }
    }
    for (const auto &[addr, d] : prog.data) {
        mix(addr);
        mix(static_cast<uint64_t>(d.kind));
        h = testutil::fnv1aString(d.name, h);
        mixInt(d.poly);
        mix(d.prime);
        mix(d.digit);
        mix(d.level);
        uint64_t scale_bits;
        std::memcpy(&scale_bits, &d.scale, sizeof(scale_bits));
        mix(scale_bits);
        mix(d.galois);
        mix(d.chip_digits);
        mix(d.group_size);
    }
    mix(prog.regalloc.spill_stores);
    mix(prog.regalloc.spill_loads);
    mix(prog.regalloc.max_live);
    return h;
}

struct AllocPin
{
    const char *kernel;
    std::size_t chips;
    std::size_t regs;
    EvictionPolicy policy;
    uint64_t hash;
};

constexpr auto kB = EvictionPolicy::Belady;
constexpr auto kL = EvictionPolicy::Lru;

/**
 * Recorded with the std::map/std::set allocator, before its rewrite
 * onto dense arrays: any change to victim choice, tie-breaking,
 * register order, spill-slot numbering or the stats moves a hash.
 */
constexpr AllocPin kAllocPins[] = {
    {"bootstrap", 1, 16, kB, 0x7f771d8613c04a8bull},
    {"bootstrap", 1, 16, kL, 0xf2f31c902040c3a1ull},
    {"bootstrap", 1, 64, kB, 0x6a278747ce10a9f0ull},
    {"bootstrap", 1, 64, kL, 0x0cae476bb129b4deull},
    {"bootstrap", 4, 16, kB, 0x9fdda574a238159cull},
    {"bootstrap", 4, 16, kL, 0x30f76b299c98f076ull},
    {"bootstrap", 4, 64, kB, 0x4e4aaa1308f90be1ull},
    {"bootstrap", 4, 64, kL, 0xa920772b8fa59c7aull},
    {"resnet_conv", 1, 16, kB, 0xfdaa58e4f4a75db7ull},
    {"resnet_conv", 1, 16, kL, 0xbdea503765605eefull},
    {"resnet_conv", 1, 64, kB, 0xde90c3ec1662f51aull},
    {"resnet_conv", 1, 64, kL, 0x30911168367544ffull},
    {"resnet_conv", 4, 16, kB, 0x775193d54e257cf2ull},
    {"resnet_conv", 4, 16, kL, 0xca2546e12a51af23ull},
    {"resnet_conv", 4, 64, kB, 0xff92d3e63c2f8f7bull},
    {"resnet_conv", 4, 64, kL, 0x1a05d788556aec83ull},
    {"helr_mv", 1, 16, kB, 0xfd3b32a76533fecbull},
    {"helr_mv", 1, 16, kL, 0xf417ed55aa5f2d7dull},
    {"helr_mv", 1, 64, kB, 0xa8039d440f0e29f7ull},
    {"helr_mv", 1, 64, kL, 0x1c02c1fad0e55ffcull},
    {"helr_mv", 4, 16, kB, 0x00c82d245cf3c8cfull},
    {"helr_mv", 4, 16, kL, 0xce08d439efea2c19ull},
    {"helr_mv", 4, 64, kB, 0xd9d151b15985b379ull},
    {"helr_mv", 4, 64, kL, 0xd9d151b15985b379ull},
    {"bert_gelu", 1, 16, kB, 0xcc680ee5e1f1f855ull},
    {"bert_gelu", 1, 16, kL, 0x72f4f53ea432d6e1ull},
    {"bert_gelu", 1, 64, kB, 0x2e7d75869c21fc5full},
    {"bert_gelu", 1, 64, kL, 0xcb16347d47f16e78ull},
    {"bert_gelu", 4, 16, kB, 0xa9d65eed82463383ull},
    {"bert_gelu", 4, 16, kL, 0x9a50cfbd994a9ab7ull},
    {"bert_gelu", 4, 64, kB, 0xac57da86cf32ee96ull},
    {"bert_gelu", 4, 64, kL, 0xac57da86cf32ee96ull},
};

} // namespace

TEST(RegAlloc, GoldenKernelAllocationsArePinned)
{
    fhe::CkksContext ctx(fhe::CkksParams::makeTest(1 << 10, 16, 4));
    std::map<std::string, compiler::Program> kernels;
    for (auto &c : testutil::goldenKernels(ctx))
        kernels.emplace(c.id, std::move(c.prog));

    std::size_t spilling = 0;
    for (const AllocPin &pin : kAllocPins) {
        SCOPED_TRACE(std::string(pin.kernel) + " chips=" +
                     std::to_string(pin.chips) + " regs=" +
                     std::to_string(pin.regs) +
                     (pin.policy == kB ? " belady" : " lru"));
        CompilerConfig cfg;
        cfg.chips = pin.chips;
        cfg.phys_regs = pin.regs;
        cfg.regalloc_policy = pin.policy;
        compiler::Compiler comp(ctx, cfg);
        const auto compiled = comp.compile(kernels.at(pin.kernel));
        spilling += compiled.regalloc.spill_loads > 0;
        EXPECT_EQ(allocationHash(compiled), pin.hash)
            << std::hex << "0x" << allocationHash(compiled);
    }
    EXPECT_GT(spilling, 0u);
}

namespace {

constexpr uint64_t kSpillBase = 1u << 20;
constexpr uint64_t kOutputBase = 1u << 16;

/**
 * A seeded random straight-line SSA program: read-only Loads (each
 * at its own address, so rematerializable), unary and binary ops
 * with duplicate sources, BConv with up to `max_fanin` distinct
 * sources, definitions never used, and computed values that stay
 * live to the closing output Stores, so they must spill.
 */
MachineProgram
randomProgram(uint64_t seed, std::size_t max_fanin)
{
    Rng rng(seed);
    MachineProgram p;
    p.chips.resize(1);
    auto &out = p.chips[0];
    std::vector<int> live; // defined values later ops may read
    int next = 0;
    uint64_t next_addr = 100;
    uint64_t next_output = kOutputBase;
    auto pick = [&] { return live[rng.uniformMod(live.size())]; };

    for (int k = 0; k < 400; ++k) {
        const uint64_t kind =
            live.size() < 2 ? 0 : rng.uniformMod(10);
        Spec spec;
        bool keep = true;
        if (kind <= 2) {
            spec = op(Opcode::Load, next, {}, next_addr++);
        } else if (kind <= 4) {
            const int a = pick();
            const int b = rng.uniformMod(3) == 0 ? a : pick();
            spec = op(kind == 3 ? Opcode::Add : Opcode::Mul, next,
                      {a, b});
        } else if (kind == 5) {
            spec = op(Opcode::AddScalar, next, {pick()}, 7);
        } else if (kind == 6) {
            std::vector<int> srcs = live;
            for (std::size_t i = 0; i < srcs.size(); ++i)
                std::swap(srcs[i],
                          srcs[i + rng.uniformMod(srcs.size() - i)]);
            const std::size_t fan =
                1 + rng.uniformMod(std::min(srcs.size(), max_fanin));
            srcs.resize(fan);
            spec = op(Opcode::BConv, next, std::move(srcs));
            spec.aux.assign(fan, 0);
        } else if (kind == 7) {
            spec = op(Opcode::Store, -1, {pick()}, next_output++);
        } else {
            // Defined, never read.
            spec = op(Opcode::MulScalar, next, {pick()}, 3);
            keep = false;
        }
        spec.ins.prime = static_cast<uint32_t>(rng.uniformMod(4));
        if (spec.ins.dst >= 0) {
            if (keep)
                live.push_back(next);
            ++next;
        }
        add(out, spec);
    }
    for (int v : live)
        add(out, op(Opcode::Store, -1, {v}, next_output++));
    return p;
}

/** Equal apart from register numbers (original vs allocated). */
bool
sameShape(const ChipProgram &ca, const Instruction &a,
          const ChipProgram &cb, const Instruction &b)
{
    return a.op == b.op && a.prime == b.prime && a.imm == b.imm &&
           std::ranges::equal(ca.aux(a), cb.aux(b)) &&
           a.srcs.size == b.srcs.size && (a.dst >= 0) == (b.dst >= 0);
}

/**
 * Replay `alloc` (the allocation of `orig`) tracking the virtual
 * register each physical register and spill slot holds; every
 * rewritten source must read the value the original named.
 */
void
replay(const MachineProgram &orig, const MachineProgram &alloc,
       std::size_t phys, const RegAllocStats &stats)
{
    const ChipProgram &oc = orig.chips[0];
    const ChipProgram &ac = alloc.chips[0];
    const auto &in = oc.instrs;
    std::map<uint64_t, int> load_at; // data address → Load's vreg
    std::set<int> loaded;            // Load-defined vregs
    std::map<int, uint32_t> prime_of;
    for (const auto &ins : in) {
        if (ins.dst >= 0)
            prime_of[ins.dst] = ins.prime;
        if (ins.op == Opcode::Load) {
            load_at[ins.imm] = ins.dst;
            loaded.insert(ins.dst);
        }
    }

    std::vector<int> reg(phys, -1);
    std::map<uint64_t, int> slot;
    std::set<int> defined;
    std::size_t i = 0, loads = 0, stores = 0;
    for (const Instruction &a : ac.instrs) {
        const auto asrcs = ac.srcs(a);
        for (int s : asrcs)
            ASSERT_TRUE(s >= 0 && static_cast<std::size_t>(s) < phys)
                << ac.toString(a);
        ASSERT_LT(a.dst, static_cast<int>(phys)) << ac.toString(a);
        if (i < in.size() && sameShape(oc, in[i], ac, a)) {
            const Instruction &o = in[i++];
            const auto osrcs = oc.srcs(o);
            for (std::size_t k = 0; k < osrcs.size(); ++k)
                ASSERT_EQ(reg[asrcs[k]], osrcs[k])
                    << "source " << k << " of #" << i - 1;
            if (o.dst >= 0) {
                reg[a.dst] = o.dst;
                defined.insert(o.dst);
            }
        } else if (a.op == Opcode::Store) {
            // Spill: a computed value (loads rematerialize) goes to
            // a slot at or above the spill base.
            ASSERT_GE(a.imm, kSpillBase);
            ASSERT_EQ(asrcs.size(), 1u) << ac.toString(a);
            const int v = reg[asrcs[0]];
            ASSERT_TRUE(defined.count(v)) << ac.toString(a);
            EXPECT_EQ(loaded.count(v), 0u)
                << "spilled the rematerializable v" << v;
            EXPECT_EQ(a.prime, prime_of.at(v));
            slot[a.imm] = v;
            ++stores;
        } else {
            ASSERT_EQ(a.op, Opcode::Load) << ac.toString(a);
            ASSERT_GE(a.dst, 0);
            int v = -1;
            if (a.imm >= kSpillBase) {
                // Reload: the slot must already hold a stored value.
                ASSERT_TRUE(slot.count(a.imm))
                    << "slot " << a.imm << " read before its Store";
                v = slot[a.imm];
            } else {
                // Rematerialization re-reads the original address.
                ASSERT_TRUE(load_at.count(a.imm)) << ac.toString(a);
                v = load_at[a.imm];
                ASSERT_TRUE(defined.count(v)) << ac.toString(a);
            }
            EXPECT_EQ(a.prime, prime_of.at(v));
            reg[a.dst] = v;
            ++loads;
        }
    }
    EXPECT_EQ(i, in.size()) << "original instructions lost";
    EXPECT_EQ(loads, stats.spill_loads);
    EXPECT_EQ(stores, stats.spill_stores);
}

} // namespace

TEST(RegAlloc, RandomProgramsReplaySemantically)
{
    std::size_t spill_stores = 0;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        for (std::size_t phys : {8u, 9u, 16u}) {
            for (EvictionPolicy policy : {kB, kL}) {
                SCOPED_TRACE("seed=" + std::to_string(seed) +
                             " phys=" + std::to_string(phys) +
                             (policy == kB ? " belady" : " lru"));
                const auto orig = randomProgram(seed, phys - 1);
                auto alloc = orig;
                const auto stats =
                    allocateRegisters(alloc, phys, kSpillBase, policy);
                replay(orig, alloc, phys, stats);
                spill_stores += stats.spill_stores;
            }
        }
    }
    EXPECT_GT(spill_stores, 0u);
}
