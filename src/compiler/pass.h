/**
 * @file
 * The compiler pass pipeline (Section 4.2): a PassManager runs named
 * passes over materialized IRs, with per-pass tracing, metrics, an
 * inter-pass verifier, and optional IR dumps.
 *
 * The pipeline owns one PassContext — the blackboard every pass reads
 * from and writes to: the source ciphertext program, the keyswitch
 * analysis, the polynomial IR, the limb IR, and finally the compiled
 * ISA program. Each Pass declares
 *
 *  - `run`:    the transformation itself;
 *  - `verify`: an invariant check over the pass's output IR, executed
 *              when CompilerConfig::verify_ir is set; violations throw
 *              VerifyError (never abort), so both the serving runtime
 *              and the negative tests can catch them;
 *  - `dump`:   a printer for the output IR, routed to the manager's
 *              dump handler (--dump-ir=<stage>);
 *  - `count`:  the op count of the output IR, booked as
 *              compiler.pass.<name>.ops_out (and the next pass's
 *              ops_in) so per-pass expansion ratios are observable.
 *
 * Every pass additionally books a compiler.pass.<name>.ms histogram
 * (run + verify) and, when a TraceRecorder is attached, a
 * "compiler.<name>" span. A pass whose verifier runs also books the
 * verifier's share alone: compiler.verify.<name>.ms and a
 * "compiler.verify.<name>" span.
 */

#ifndef CINNAMON_COMPILER_PASS_H_
#define CINNAMON_COMPILER_PASS_H_

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/trace.h"
#include "compiler/compiled.h"
#include "compiler/dsl.h"
#include "compiler/ks_pass.h"
#include "compiler/limb_ir.h"
#include "compiler/poly_ir.h"

namespace cinnamon::compiler {

/** An IR invariant violation found by an inter-pass verifier. */
class VerifyError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The shared state the pipeline threads through its passes. */
struct PassContext
{
    const fhe::CkksContext *ctx = nullptr;
    const Program *prog = nullptr;
    CompilerConfig cfg;

    KsPassResult ks;     ///< after "keyswitch"
    PolyProgram poly;    ///< after "expand-poly" (annotated in place)
    LimbProgram limb;    ///< after "lower-limb"
    CompiledProgram out; ///< after "lower-isa" / "regalloc"
    /** First address past program data (spill slots start here). */
    uint64_t next_addr = 1;

    TraceRecorder *trace = nullptr; ///< null = no tracing
};

/** One named pipeline stage. Only `run` is mandatory. */
struct Pass
{
    std::string name;       ///< metric/trace suffix ("expand-poly", …)
    std::string dump_stage; ///< --dump-ir stage name ("" = not dumpable)
    std::function<void(PassContext &)> run;
    std::function<void(const PassContext &)> verify;
    std::function<std::string(const PassContext &)> dump;
    std::function<std::size_t(const PassContext &)> count;
};

/** Runs passes in order with observability around each one. */
class PassManager
{
  public:
    /** Receives (dump_stage, printed IR) after the matching pass. */
    using DumpHandler =
        std::function<void(const std::string &, const std::string &)>;

    void add(Pass pass) { passes_.push_back(std::move(pass)); }

    const std::vector<Pass> &passes() const { return passes_; }

    /**
     * Run every pass over `pcx`. Verifiers run when
     * pcx.cfg.verify_ir is set; `dump` (may be null) is invoked for
     * passes that declare a dump stage.
     */
    void run(PassContext &pcx, const DumpHandler &dump = nullptr) const;

  private:
    std::vector<Pass> passes_;
};

} // namespace cinnamon::compiler

#endif // CINNAMON_COMPILER_PASS_H_
