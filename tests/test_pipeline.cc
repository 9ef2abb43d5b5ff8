/**
 * @file
 * The staged pass pipeline's contract tests.
 *
 * 1. Golden equivalence: compiling and emulating the canonical kernel
 *    set must produce output ciphertexts bit-identical to the
 *    pre-refactor single-pass compiler. The hashes below were recorded
 *    by running tests/golden_util.h's compileRunHash against commit
 *    bc3eb2b (the last monolithic-lowering revision).
 * 2. Determinism: serial (compile_workers = 1) and parallel
 *    compilation emit byte-identical limb IR, machine programs and
 *    preload tables, including single-stream units that lower-limb
 *    cuts into segments and merges.
 * 3. The inter-pass verifiers reject malformed IR with VerifyError;
 *    the limb verifier reports the first fault a serial walk meets.
 * 4. The --dump-ir hook surfaces every materialized stage.
 * 5. Listing pins: the limb and lower-isa listings of the kernel set
 *    hash to values recorded before the limb IR's pooled layout.
 * 6. The compile ledger books one sample per pass, per verifier run
 *    and per preload table.
 */

#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/task_pool.h"
#include "compiler/limb_ir.h"
#include "compiler/lowering.h"
#include "compiler/pass.h"
#include "compiler/poly_ir.h"

#include "golden_util.h"

namespace cinnamon {
namespace {

using compiler::CompilerConfig;
using compiler::PolyOp;
using compiler::PolyOpKind;
using compiler::PolyProgram;
using compiler::VerifyError;
using testutil::CkksHarness;

/**
 * Gives the shared pool at least `n` participants for one scope, so
 * the parallel paths (lower-limb segments, verifier ranges) run even
 * on a one-CPU host or under CINNAMON_WORKERS=1.
 */
class PoolAtLeast
{
  public:
    explicit PoolAtLeast(std::size_t n)
        : restore_(TaskPool::global().parallelism())
    {
        if (restore_ < n)
            TaskPool::global().resize(n);
    }
    ~PoolAtLeast()
    {
        if (TaskPool::global().parallelism() != restore_)
            TaskPool::global().resize(restore_);
    }
    PoolAtLeast(const PoolAtLeast &) = delete;
    PoolAtLeast &operator=(const PoolAtLeast &) = delete;

  private:
    std::size_t restore_;
};

/** Recorded against the pre-refactor compiler (see file comment). */
struct GoldenRow
{
    const char *kernel;
    std::size_t chips;
    int streams;
    uint64_t hash;
};

constexpr GoldenRow kGolden[] = {
    {"bootstrap", 4, 1, 0x5b939375612e45a6ull},
    {"bootstrap", 4, 2, 0x6fbf69b73c38c6d9ull},
    {"bootstrap", 8, 1, 0x077983e2d1cf1aa2ull},
    {"bootstrap", 8, 2, 0x500263c99f24e26aull},
    {"resnet_conv", 4, 1, 0xae1ea0cc647c23c9ull},
    {"resnet_conv", 4, 2, 0x55872a61b5e2a90cull},
    {"resnet_conv", 8, 1, 0xe310638aaba75184ull},
    {"resnet_conv", 8, 2, 0xabb1ed9d17181e0eull},
    {"helr_mv", 4, 1, 0x6d037f09787750a0ull},
    {"helr_mv", 4, 2, 0xf62f12a319d8d9d9ull},
    {"helr_mv", 8, 1, 0x6d037f09787750a0ull},
    {"helr_mv", 8, 2, 0xf62f12a319d8d9d9ull},
    {"bert_gelu", 4, 1, 0x8a85691434bf4fa7ull},
    {"bert_gelu", 4, 2, 0x5204d7c49a5cb3a0ull},
    {"bert_gelu", 8, 1, 0x8a85691434bf4fa7ull},
    {"bert_gelu", 8, 2, 0x5204d7c49a5cb3a0ull},
};

TEST(Pipeline, GoldenEquivalence)
{
    CkksHarness h(1 << 10, 16, 4);
    std::map<std::string, const compiler::Program *> kernels;
    auto cases = testutil::goldenKernels(*h.ctx);
    for (const auto &c : cases)
        kernels[c.id] = &c.prog;

    for (const GoldenRow &row : kGolden) {
        SCOPED_TRACE(std::string(row.kernel) + " chips=" +
                     std::to_string(row.chips) + " streams=" +
                     std::to_string(row.streams));
        auto prog = compiler::replicateStreams(*kernels.at(row.kernel),
                                               row.streams);
        CompilerConfig cfg;
        cfg.chips = row.chips;
        cfg.num_streams = row.streams;
        cfg.phys_regs = 64;
        EXPECT_EQ(testutil::compileRunHash(h, prog, cfg), row.hash);
    }
}

/** FNV-1a of one lowering stage's listing, per kernel shape. */
struct ListingPin
{
    const char *kernel;
    std::size_t chips;
    int streams;
    uint64_t limb;
    uint64_t isa;
};

/**
 * Recorded before the limb IR moved its operand lists into per-unit
 * pools: the limb listing and the lower-isa listing (plus the BConv /
 * Mod source primes and collective ranges, which the listing does not
 * print) must stay identical op for op. The kGolden shapes, then
 * every kernel on one chip and on twelve chips in three streams.
 */
constexpr ListingPin kListingPins[] = {
    {"bootstrap", 4, 1,
     0x033ca5098ff7ad71ull, 0x848df01a53624a4full},
    {"bootstrap", 4, 2,
     0xfbbdc15e081245f8ull, 0xa68d2840bfb7a48cull},
    {"bootstrap", 8, 1,
     0x443f30b34dc25783ull, 0xcb9efe91cbf25e59ull},
    {"bootstrap", 8, 2,
     0xa338997def023444ull, 0x9143001727e9170cull},
    {"resnet_conv", 4, 1,
     0x2ada877dab1c6646ull, 0xcc152c0ec4d032d3ull},
    {"resnet_conv", 4, 2,
     0xaee37cc9162bcbafull, 0x2e013dd6547dd255ull},
    {"resnet_conv", 8, 1,
     0xfe0bf465fa5592b9ull, 0x91fd70b8e1690500ull},
    {"resnet_conv", 8, 2,
     0x8240efe6727cd43cull, 0x7019550b6f7c610full},
    {"helr_mv", 4, 1,
     0xf3c62301d728df81ull, 0xf85ec5840d0a8227ull},
    {"helr_mv", 4, 2,
     0x2813db6fb2e86287ull, 0x21c8d876bd245d0dull},
    {"helr_mv", 8, 1,
     0xbd0488dd8bc06e8eull, 0xbf1482f03f8c4ffcull},
    {"helr_mv", 8, 2,
     0xaefe3a88daeccccaull, 0x141aa13254bb5d1cull},
    {"bert_gelu", 4, 1,
     0x218da68665230121ull, 0xf90f80fae420b375ull},
    {"bert_gelu", 4, 2,
     0xfe0c26fa81dc3570ull, 0x6c604413c02d3fbaull},
    {"bert_gelu", 8, 1,
     0xecbb60cf8d84ed4cull, 0x1764a43cb699096eull},
    {"bert_gelu", 8, 2,
     0xa141e69a5b8e6e07ull, 0x9852ee3864af9caaull},
    {"bootstrap", 1, 1,
     0x0c35a2b44166c1e5ull, 0x2b7e9733625e6155ull},
    {"resnet_conv", 1, 1,
     0x733789d3596ca26eull, 0xef02a7de995eb223ull},
    {"helr_mv", 1, 1,
     0xb83072911c996619ull, 0x84b6f6e517c88b17ull},
    {"bert_gelu", 1, 1,
     0x3cf370d612c93d97ull, 0x0c4e1940aa4d6550ull},
    {"bootstrap", 12, 3,
     0x208b2f2df619f188ull, 0x3e7839446c61f6a4ull},
    {"resnet_conv", 12, 3,
     0x5ea1ea78baa27553ull, 0x2d84a3f85e637885ull},
    {"helr_mv", 12, 3,
     0x12c943775a5b348eull, 0x9d7c3bb680789538ull},
    {"bert_gelu", 12, 3,
     0x1902ca2232361a74ull, 0xe26f11ef4aeb587eull},
};

TEST(Pipeline, LoweringListingsPinned)
{
    CkksHarness h(1 << 10, 16, 4);
    std::map<std::string, const compiler::Program *> kernels;
    auto cases = testutil::goldenKernels(*h.ctx);
    for (const auto &c : cases)
        kernels[c.id] = &c.prog;

    for (const ListingPin &row : kListingPins) {
        const std::string shape = std::string(row.kernel) + " chips=" +
                                  std::to_string(row.chips) +
                                  " streams=" +
                                  std::to_string(row.streams);
        SCOPED_TRACE(shape);
        auto prog = compiler::replicateStreams(*kernels.at(row.kernel),
                                               row.streams);
        CompilerConfig cfg;
        cfg.chips = row.chips;
        cfg.num_streams = row.streams;
        cfg.allocate = false; // the program is lower-isa's output
        compiler::Compiler comp(*h.ctx, cfg);
        std::map<std::string, uint64_t> hashes;
        comp.setDumpHandler(
            [&](const std::string &stage, const std::string &text) {
                hashes[stage] = testutil::fnv1aString(text);
            });
        const auto out = comp.compile(prog);
        uint64_t isa = hashes["isa"];
        for (const auto &chip : out.machine.chips) {
            for (const isa::Instruction &ins : chip.instrs) {
                const auto aux = chip.aux(ins);
                for (uint64_t v : {uint64_t{ins.part_lo},
                                   uint64_t{ins.part_hi},
                                   uint64_t{aux.size()}})
                    isa = testutil::fnv1aBytes(&v, sizeof(v), isa);
                for (uint32_t a : aux)
                    isa = testutil::fnv1aBytes(&a, sizeof(a), isa);
            }
        }
        EXPECT_EQ(hashes["limb"], row.limb)
            << std::hex << "limb 0x" << hashes["limb"];
        EXPECT_EQ(isa, row.isa) << std::hex << "isa 0x" << isa;
    }
}

/** Every field of two preload tables, chip by chip, load by load. */
void
expectSamePreload(const compiler::PreloadTable &a,
                  const compiler::PreloadTable &b)
{
    ASSERT_EQ(a.chips.size(), b.chips.size());
    for (std::size_t c = 0; c < a.chips.size(); ++c) {
        ASSERT_EQ(a.chips[c].size(), b.chips[c].size()) << "chip " << c;
        for (std::size_t i = 0; i < a.chips[c].size(); ++i) {
            const auto &x = a.chips[c][i];
            const auto &y = b.chips[c][i];
            EXPECT_TRUE(x.addr == y.addr && x.kind == y.kind &&
                        x.dirtied == y.dirtied && x.poly == y.poly &&
                        x.prime == y.prime && x.source == y.source &&
                        x.digit == y.digit && x.pos == y.pos)
                << "chip " << c << " load " << i;
        }
    }
    EXPECT_EQ(a.footprint, b.footprint);
    EXPECT_EQ(a.inputs, b.inputs);
    ASSERT_EQ(a.plains.size(), b.plains.size());
    for (std::size_t i = 0; i < a.plains.size(); ++i) {
        EXPECT_EQ(a.plains[i].name, b.plains[i].name);
        EXPECT_EQ(a.plains[i].level, b.plains[i].level);
        EXPECT_EQ(a.plains[i].scale, b.plains[i].scale);
    }
    ASSERT_EQ(a.keys.size(), b.keys.size());
    for (std::size_t k = 0; k < a.keys.size(); ++k) {
        EXPECT_EQ(a.keys[k].identity, b.keys[k].identity);
        EXPECT_EQ(a.keys[k].galois, b.keys[k].galois);
        EXPECT_EQ(a.keys[k].chip_digits, b.keys[k].chip_digits);
        EXPECT_EQ(a.keys[k].group_size, b.keys[k].group_size);
        EXPECT_EQ(a.keys[k].limbs, b.keys[k].limbs) << "key " << k;
    }
}

TEST(Pipeline, ParallelMatchesSerial)
{
    CkksHarness h(1 << 10, 16, 4);
    auto cases = testutil::goldenKernels(*h.ctx);
    // A deeper chain makes single-stream units big enough for
    // lower-limb to cut them into segments (the golden kernels stay
    // whole); compiling never touches the ring dimension.
    fhe::CkksContext deep(fhe::CkksParams::makeTest(1 << 10, 32, 4));
    workloads::BootstrapShape shape;
    shape.start_level = deep.maxLevel();
    shape.c2s_stages = 3;
    shape.s2c_stages = 3;
    shape.bsgs_baby = 4;
    shape.bsgs_giant = 4;
    shape.evalmod_depth = 22;
    const auto boot = workloads::bootstrapKernel(deep, shape);
    // Eight hoisted rotations: one input-broadcast batch no cut may
    // split.
    const auto matvec =
        workloads::bsgsMatVecKernel(deep, deep.maxLevel(), 8, 6, "mv");
    // Segments need a pool with room for them.
    PoolAtLeast pool(4);

    struct Shape
    {
        const fhe::CkksContext *ctx;
        const compiler::Program *kernel;
        std::size_t chips;
        int streams;
        bool segments; ///< lower-limb cuts it at compile_workers 0
    };
    const Shape shapes[] = {
        {h.ctx.get(), &cases[2].prog, 8, 4, false},  // helr_mv
        {h.ctx.get(), &cases[0].prog, 12, 3, false}, // bootstrap, 3 x 4
        {&deep, &boot, 1, 1, true},
        {&deep, &boot, 12, 1, true},
        {&deep, &matvec, 12, 1, true},
    };
    auto &segments = MetricsRegistry::global().counter(
        "compiler.lower-limb.segments");
    for (const Shape &shape : shapes) {
        SCOPED_TRACE(shape.kernel->name() + " chips=" +
                     std::to_string(shape.chips) + " streams=" +
                     std::to_string(shape.streams));
        auto prog = compiler::replicateStreams(*shape.kernel,
                                               shape.streams);
        std::string limb;
        double lowered = 0.0; // segments lowered by the last compile
        auto compileWith = [&](std::size_t workers) {
            CompilerConfig cfg;
            cfg.chips = shape.chips;
            cfg.num_streams = shape.streams;
            cfg.phys_regs = 64;
            cfg.compile_workers = workers;
            compiler::Compiler comp(*shape.ctx, cfg);
            comp.setDumpHandler(
                [&](const std::string &stage, const std::string &text) {
                    if (stage == "limb")
                        limb = text;
                });
            const double before = segments.value();
            auto out = comp.compile(prog);
            lowered = segments.value() - before;
            return out;
        };
        const auto serial = compileWith(1);
        const std::string serial_limb = limb;
        const std::string serial_isa = compiler::printIsaProgram(serial);
        if (shape.streams == 1) {
            EXPECT_EQ(lowered, 1.0) << "compile_workers = 1 is one walk";
        }

        for (std::size_t workers : {2, 3, 0}) { // 0: the whole pool
            SCOPED_TRACE("compile_workers=" + std::to_string(workers));
            const auto parallel = compileWith(workers);
            if (shape.segments && workers == 0) {
                EXPECT_GE(lowered, 2.0) << "the merge did not run";
            }

            // Byte-identical limb IR and machine programs, not merely
            // equivalent ones, and the same preload table.
            EXPECT_TRUE(limb == serial_limb) << "limb IR differs";
            ASSERT_EQ(serial.machine.chips.size(),
                      parallel.machine.chips.size());
            EXPECT_TRUE(compiler::printIsaProgram(parallel) == serial_isa)
                << "ISA listing differs";
            EXPECT_EQ(serial.machine.num_virtual_regs,
                      parallel.machine.num_virtual_regs);
            EXPECT_EQ(serial.data.size(), parallel.data.size());
            EXPECT_EQ(serial.regalloc.spill_stores,
                      parallel.regalloc.spill_stores);
            EXPECT_EQ(serial.regalloc.spill_loads,
                      parallel.regalloc.spill_loads);
            EXPECT_EQ(serial.regalloc.max_live,
                      parallel.regalloc.max_live);
            expectSamePreload(serial.preload, parallel.preload);
        }
    }
}

TEST(Pipeline, PassNamesAndOrder)
{
    compiler::PassManager pm;
    compiler::buildCompilerPipeline(pm);
    ASSERT_EQ(pm.passes().size(), 5u);
    EXPECT_EQ(pm.passes()[0].name, "expand-poly");
    EXPECT_EQ(pm.passes()[1].name, "keyswitch");
    EXPECT_EQ(pm.passes()[2].name, "lower-limb");
    EXPECT_EQ(pm.passes()[3].name, "lower-isa");
    EXPECT_EQ(pm.passes()[4].name, "regalloc");
}

TEST(Pipeline, DumpHandlerSeesEveryStage)
{
    CkksHarness h(1 << 10, 6, 3);
    compiler::Program prog("dump_demo", *h.ctx);
    auto x = prog.input("x", 3);
    prog.output("y", prog.rescale(prog.mul(x, x)));

    CompilerConfig cfg;
    cfg.chips = 2;
    cfg.phys_regs = 64;
    compiler::Compiler comp(*h.ctx, cfg);
    std::map<std::string, std::size_t> seen;
    comp.setDumpHandler(
        [&](const std::string &stage, const std::string &text) {
            seen[stage] = text.size();
        });
    comp.compile(prog);
    ASSERT_EQ(seen.size(), 3u);
    for (const char *stage : {"poly", "limb", "isa"}) {
        ASSERT_TRUE(seen.count(stage)) << stage;
        EXPECT_GT(seen[stage], 0u) << stage;
    }
}

TEST(Pipeline, LedgerBooksVerifyAndPreloadOncePerCompile)
{
    CkksHarness h(1 << 10, 6, 3);
    compiler::Program prog("ledger_demo", *h.ctx);
    auto x = prog.input("x", 3);
    prog.output("y", prog.rescale(prog.mul(x, x)));

    auto &metrics = MetricsRegistry::global();
    auto samples = [&](const std::string &name) {
        return metrics.histogram(name).snapshot().count;
    };
    const std::set<std::string> verified = {"expand-poly", "keyswitch",
                                            "lower-limb"};
    compiler::PassManager pm;
    compiler::buildCompilerPipeline(pm);

    for (bool verify : {true, false}) {
        SCOPED_TRACE(verify ? "verify_ir on" : "verify_ir off");
        std::map<std::string, std::size_t> before;
        auto delta = [&](const std::string &name) {
            return samples(name) - before[name];
        };
        for (const auto &pass : pm.passes()) {
            for (const char *row : {"compiler.pass.", "compiler.verify."})
                before[row + pass.name + ".ms"] =
                    samples(row + pass.name + ".ms");
        }
        before["compiler.preload.ms"] = samples("compiler.preload.ms");

        CompilerConfig cfg;
        cfg.chips = 2;
        cfg.phys_regs = 64;
        cfg.verify_ir = verify;
        compiler::Compiler(*h.ctx, cfg).compile(prog);

        // One sample per row per compile; a verify row only where a
        // verifier ran. Counts, not timings.
        for (const auto &pass : pm.passes()) {
            SCOPED_TRACE(pass.name);
            EXPECT_EQ(delta("compiler.pass." + pass.name + ".ms"), 1u);
            const bool ran = verify && verified.count(pass.name) > 0;
            EXPECT_EQ(delta("compiler.verify." + pass.name + ".ms"),
                      ran ? 1u : 0u);
        }
        EXPECT_EQ(delta("compiler.preload.ms"), 1u);
    }
}

TEST(Verifier, RejectsUseBeforeDef)
{
    PolyProgram p;
    p.num_streams = 1;
    const double s = 1.0;
    const int a = p.newValue(2, 0, s);
    const int b = p.newValue(2, 0, s);
    const int c = p.newValue(2, 0, s);
    PolyOp add;
    add.id = 0;
    add.kind = PolyOpKind::Add;
    add.args = {a, b}; // never defined by any op
    add.results = {c};
    add.level = 2;
    add.scale = s;
    p.ops.push_back(add);
    EXPECT_THROW(compiler::verifyPolyProgram(p), VerifyError);
}

TEST(Verifier, RejectsMalformedRescaleLevel)
{
    PolyProgram p;
    p.num_streams = 1;
    const double s = 1.0;
    const int x = p.newValue(2, 0, s);
    PolyOp in;
    in.id = 0;
    in.kind = PolyOpKind::Input;
    in.results = {x};
    in.name = "x";
    in.level = 2;
    in.scale = s;
    p.ops.push_back(in);

    const int r = p.newValue(2, 0, s); // must be level 1
    PolyOp rs;
    rs.id = 1;
    rs.kind = PolyOpKind::Rescale;
    rs.args = {x};
    rs.results = {r};
    rs.level = 2; // rescale must drop exactly one level
    rs.scale = s;
    p.ops.push_back(rs);
    EXPECT_THROW(compiler::verifyPolyProgram(p), VerifyError);
}

TEST(Verifier, RejectsCrossGroupCollective)
{
    compiler::LimbProgram lp;
    lp.chips = 4;
    compiler::LimbUnit u;
    u.stream_lo = 0;
    u.stream_hi = 1;
    u.chip_lo = 0;
    u.chip_hi = 2;
    u.descs.push_back(compiler::DataDescriptor{});

    const int src = u.newValue(0, 0);
    compiler::LimbOp ld;
    ld.op = isa::Opcode::Load;
    ld.chip = 0;
    ld.result = src;
    ld.desc = 0;
    u.ops.push_back(ld);

    const int dst = u.newValue(1, 0);
    compiler::LimbOp bc;
    bc.op = isa::Opcode::Bcast;
    bc.args = u.addOperands({src});
    bc.imm = 0;          // owner chip 0
    bc.part_lo = 0;
    bc.part_hi = 4;      // spans chips the unit does not own
    bc.coll = u.addOperands({-1, dst, -1, -1});
    u.ops.push_back(bc);

    lp.units.push_back(std::move(u));
    EXPECT_THROW(compiler::verifyLimbProgram(lp), VerifyError);
}

TEST(Verifier, RejectsOperandSpanOutOfRange)
{
    // A well-formed two-chip unit: load on chip 0, broadcast to both
    // chips, add the copies on chip 1, base-convert the sum on chip 1.
    auto wellFormed = [] {
        compiler::LimbUnit u;
        u.chip_lo = 0;
        u.chip_hi = 2;
        u.descs.push_back(compiler::DataDescriptor{});
        compiler::LimbOp ld;
        ld.op = isa::Opcode::Load;
        ld.result = u.newValue(0, 0);
        ld.desc = 0;
        u.ops.push_back(ld);

        compiler::LimbOp bc;
        bc.op = isa::Opcode::Bcast;
        bc.args = u.addOperands({ld.result});
        bc.part_hi = 2;
        const int copy0 = u.newValue(0, 0);
        const int copy1 = u.newValue(1, 0);
        bc.coll = u.addOperands({copy0, copy1});
        u.ops.push_back(bc);

        compiler::LimbOp add;
        add.op = isa::Opcode::Add;
        add.chip = 1;
        add.args = u.addOperands({copy1, copy1});
        add.result = u.newValue(1, 0);
        u.ops.push_back(add);

        compiler::LimbOp conv;
        conv.op = isa::Opcode::BConv;
        conv.chip = 1;
        conv.prime = 1;
        conv.args = u.addOperands({add.result});
        conv.aux = u.addPrimes({0});
        conv.result = u.newValue(1, 1);
        u.ops.push_back(conv);

        compiler::LimbProgram lp;
        lp.chips = 2;
        lp.units.push_back(std::move(u));
        return lp;
    };
    ASSERT_NO_THROW(compiler::verifyLimbProgram(wellFormed()));

    // Each span in turn runs one slot past its pool; the verifier
    // must say so rather than read beyond it.
    auto spanRejected = [](const compiler::LimbProgram &lp) {
        try {
            compiler::verifyLimbProgram(lp);
        } catch (const VerifyError &e) {
            return std::string(e.what()).find("runs past the") !=
                   std::string::npos;
        }
        return false;
    };
    auto pastEnd = [](compiler::PoolSpan &s, std::size_t pool) {
        s.at = static_cast<uint32_t>(pool + 1 - s.size);
    };
    auto args = wellFormed();
    auto &au = args.units[0];
    pastEnd(au.ops[2].args, au.operands.size());
    EXPECT_TRUE(spanRejected(args));

    auto coll = wellFormed();
    auto &cu = coll.units[0];
    pastEnd(cu.ops[1].coll, cu.operands.size());
    EXPECT_TRUE(spanRejected(coll));

    auto aux = wellFormed();
    auto &xu = aux.units[0];
    pastEnd(xu.ops[3].aux, xu.primes.size());
    EXPECT_TRUE(spanRejected(aux));

    // An offset near 2^32 must not wrap past the bounds check.
    auto wrap = wellFormed();
    wrap.units[0].ops[2].args.at = ~uint32_t{0};
    EXPECT_TRUE(spanRejected(wrap));
}

/** The message verifyLimbProgram throws for `lp`, or "" if none. */
std::string
limbVerifyError(const compiler::LimbProgram &lp, std::size_t workers)
{
    try {
        compiler::verifyLimbProgram(lp, workers);
    } catch (const VerifyError &e) {
        return e.what();
    }
    return "";
}

TEST(Verifier, ReportsTheEarliestOfSeveralFaults)
{
    // One chip: a load, then a chain of adds each reading the value
    // before it, long enough for the verifier's ranges to run on
    // several workers.
    constexpr int kOps = 120000;
    auto chain = [] {
        compiler::LimbUnit u;
        u.chip_hi = 1;
        u.descs.push_back(compiler::DataDescriptor{});
        compiler::LimbOp ld;
        ld.op = isa::Opcode::Load;
        ld.result = u.newValue(0, 0);
        ld.desc = 0;
        u.ops.push_back(ld);
        for (int i = 1; i < kOps; ++i) {
            compiler::LimbOp add;
            add.op = isa::Opcode::Add;
            add.args = u.addOperands({i - 1, i - 1});
            add.result = u.newValue(0, 0);
            u.ops.push_back(add);
        }
        compiler::LimbProgram lp;
        lp.chips = 1;
        lp.units.push_back(std::move(u));
        return lp;
    };
    PoolAtLeast pool(4);
    ASSERT_EQ(limbVerifyError(chain(), 0), "");

    // Faults of two kinds far apart, in both orders: op 1000 reads a
    // value op 1005 defines, and op 100000's result has the wrong
    // prime. The earlier op is reported, at any worker count.
    auto useEarly = chain();
    auto &ue = useEarly.units[0];
    ue.operands[ue.ops[1000].args.at] = 1005;
    ue.values[100000].prime = 1;
    auto primeEarly = chain();
    auto &pe = primeEarly.units[0];
    pe.values[1000].prime = 1;
    pe.operands[pe.ops[100000].args.at] = 100005;
    for (std::size_t workers : {1, 0}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        EXPECT_EQ(limbVerifyError(useEarly, workers),
                  "limb IR: unit 0: op #1000 uses %1005 before its "
                  "definition");
        EXPECT_EQ(limbVerifyError(primeEarly, workers),
                  "limb IR: unit 0: op #1000 defines %1000 under the "
                  "wrong prime");
    }
}

TEST(Verifier, RejectsValuesDefinedTwiceWithinOneBroadcast)
{
    // Load on chip 0, then a broadcast over chips [0, 2) whose copies
    // are `first` and `second`.
    auto broadcast = [](bool same_copy, bool source_is_copy) {
        compiler::LimbUnit u;
        u.chip_hi = 2;
        u.descs.push_back(compiler::DataDescriptor{});
        compiler::LimbOp ld;
        ld.op = isa::Opcode::Load;
        ld.result = u.newValue(0, 0);
        ld.desc = 0;
        u.ops.push_back(ld);
        const int copy0 = u.newValue(0, 0);
        const int copy1 = same_copy ? copy0 : u.newValue(1, 0);
        compiler::LimbOp bc;
        bc.op = isa::Opcode::Bcast;
        bc.args = u.addOperands({source_is_copy ? copy0 : ld.result});
        bc.part_hi = 2;
        bc.coll = u.addOperands({copy0, copy1});
        u.ops.push_back(bc);
        compiler::LimbProgram lp;
        lp.chips = 2;
        lp.units.push_back(std::move(u));
        return lp;
    };
    for (std::size_t workers : {1, 0}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        EXPECT_EQ(limbVerifyError(broadcast(false, false), workers), "");
        // One value received on both chips.
        EXPECT_EQ(limbVerifyError(broadcast(true, false), workers),
                  "limb IR: unit 0: value %1 defined more than once");
        // A broadcast whose source is one of its own copies reads it
        // before anything defines it.
        EXPECT_EQ(limbVerifyError(broadcast(false, true), workers),
                  "limb IR: unit 0: op #1 uses %1 before its definition");
    }
}

TEST(Verifier, AcceptsEveryPipelineStageOfRealKernels)
{
    // The golden test compiles with verify_ir = true, so every pass
    // output is verified; this asserts the invariant holds even when
    // exercised directly on freshly built IR.
    CkksHarness h(1 << 10, 16, 4);
    auto cases = testutil::goldenKernels(*h.ctx);
    for (const auto &c : cases) {
        SCOPED_TRACE(c.id);
        auto poly = compiler::buildPolyProgram(c.prog, 1);
        EXPECT_NO_THROW(compiler::verifyPolyProgram(poly));
        CompilerConfig cfg;
        cfg.chips = 4;
        cfg.phys_regs = 64;
        auto ks = compiler::runKeyswitchPass(c.prog, cfg.ks);
        compiler::applyKeyswitchResult(poly, c.prog, ks, 4,
                                       h.ctx->specialBasis().size());
        EXPECT_NO_THROW(compiler::verifyPolyProgram(poly));
        auto limb = compiler::buildLimbProgram(poly, *h.ctx, cfg);
        EXPECT_NO_THROW(compiler::verifyLimbProgram(limb));
    }
}

} // namespace
} // namespace cinnamon
