/**
 * @file
 * The Cinnamon compiler: a pass pipeline from the ciphertext DSL to
 * allocated multi-chip ISA streams.
 *
 * Compiler::compile is a PassManager run over materialized IRs
 * (Section 4.2):
 *
 *   expand-poly — ciphertext ops → polynomial IR (poly_ir.h),
 *                 placement-free SSA over whole RNS polynomials;
 *   keyswitch   — the keyswitch analysis (ks_pass.h) annotates every
 *                 KeySwitch with its algorithm/batch and folds
 *                 eligible rotate-and-aggregate trees into OaBatch
 *                 macro ops;
 *   lower-limb  — polynomial ops → limb IR (limb_ir.h) under the
 *                 modular limb-to-chip placement, collectives as
 *                 explicit IR nodes; independent stream units lower
 *                 concurrently;
 *   lower-isa   — placed limb ops → Cinnamon ISA (Section 4.6): a
 *                 serial pre-pass assigns global addresses and
 *                 collective tags, then every chip's stream is
 *                 emitted concurrently;
 *   regalloc    — per-chip Belady register allocation (Section 4.4),
 *                 chips allocated concurrently.
 *
 * After the passes, the preload table scans the chips concurrently
 * too. Every concurrent step is capped by CompilerConfig::
 * compile_workers and emits the same program at any worker count.
 *
 * Streams (program-level parallelism) map to disjoint chip groups:
 * stream s runs on chips [s*g, (s+1)*g) where g = chips/num_streams.
 * All collectives are scoped to the owning group.
 *
 * Each pass books compiler.pass.<name>.{ms,ops_in,ops_out} metrics,
 * emits a trace span when a TraceRecorder is attached, and — when
 * CompilerConfig::verify_ir is set — runs an inter-pass verifier that
 * throws VerifyError on malformed IR. setDumpHandler taps the printed
 * poly/limb/isa IRs (--dump-ir in examples/compile_and_simulate).
 */

#ifndef CINNAMON_COMPILER_LOWERING_H_
#define CINNAMON_COMPILER_LOWERING_H_

#include <functional>
#include <string>

#include "common/trace.h"
#include "compiler/compiled.h"
#include "compiler/dsl.h"
#include "fhe/params.h"

namespace cinnamon::compiler {

class PassManager;
struct PassContext;

/** The Cinnamon compiler backend. */
class Compiler
{
  public:
    /** Receives (stage, printed IR); stage ∈ {"poly", "limb", "isa"}. */
    using DumpHandler =
        std::function<void(const std::string &, const std::string &)>;

    Compiler(const fhe::CkksContext &ctx, CompilerConfig config)
        : ctx_(&ctx), config_(config)
    {
    }

    /**
     * Compile a DSL program to a multi-chip ISA program by running
     * the pass pipeline described in the file comment.
     */
    CompiledProgram compile(const Program &program);

    /** Attach a trace recorder for per-pass spans (null to detach). */
    void setTrace(TraceRecorder *trace) { trace_ = trace; }

    /** Attach an IR dump tap (--dump-ir); null to detach. */
    void setDumpHandler(DumpHandler handler)
    {
        dump_ = std::move(handler);
    }

  private:
    const fhe::CkksContext *ctx_;
    CompilerConfig config_;
    TraceRecorder *trace_ = nullptr;
    DumpHandler dump_;
};

/**
 * Build the standard pipeline into `pm` (exposed for tests that run
 * or inspect individual passes).
 */
void buildCompilerPipeline(PassManager &pm);

/** Print a compiled machine program (--dump-ir=isa). */
std::string printIsaProgram(const CompiledProgram &program);

} // namespace cinnamon::compiler

#endif // CINNAMON_COMPILER_LOWERING_H_
