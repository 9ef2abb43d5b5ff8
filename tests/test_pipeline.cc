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
 *    compilation emit byte-identical machine programs.
 * 3. The inter-pass verifiers reject malformed IR with VerifyError.
 * 4. The --dump-ir hook surfaces every materialized stage.
 */

#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

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

TEST(Pipeline, ParallelMatchesSerial)
{
    CkksHarness h(1 << 10, 16, 4);
    auto cases = testutil::goldenKernels(*h.ctx);
    const auto &kernel = cases[2].prog; // helr_mv
    auto prog = compiler::replicateStreams(kernel, 4);

    auto compileWith = [&](std::size_t workers) {
        CompilerConfig cfg;
        cfg.chips = 8;
        cfg.num_streams = 4;
        cfg.phys_regs = 64;
        cfg.compile_workers = workers;
        compiler::Compiler comp(*h.ctx, cfg);
        return comp.compile(prog);
    };
    const auto serial = compileWith(1);
    const auto parallel = compileWith(4);

    // Byte-identical machine programs, not merely equivalent ones.
    ASSERT_EQ(serial.machine.chips.size(),
              parallel.machine.chips.size());
    EXPECT_EQ(compiler::printIsaProgram(serial),
              compiler::printIsaProgram(parallel));
    EXPECT_EQ(serial.machine.num_virtual_regs,
              parallel.machine.num_virtual_regs);
    EXPECT_EQ(serial.data.size(), parallel.data.size());
    EXPECT_EQ(serial.regalloc.spill_stores,
              parallel.regalloc.spill_stores);
    EXPECT_EQ(serial.regalloc.spill_loads,
              parallel.regalloc.spill_loads);
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
    bc.args = {src};
    bc.imm = 0;          // owner chip 0
    bc.part_lo = 0;
    bc.part_hi = 4;      // spans chips the unit does not own
    bc.coll_dsts = {-1, dst, -1, -1};
    u.ops.push_back(bc);

    lp.units.push_back(std::move(u));
    EXPECT_THROW(compiler::verifyLimbProgram(lp), VerifyError);
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
