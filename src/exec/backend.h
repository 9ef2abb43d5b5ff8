/**
 * @file
 * ExecutionBackend: the one seam through which compiled programs run.
 *
 * Three call sites used to hand-roll execution — the serving worker
 * (probe emulation), the benchmark runner (timing simulation), and
 * the examples — each wiring simulator or emulator plumbing slightly
 * differently. This interface unifies them: a backend consumes a
 * CompiledProgram and returns an ExecutionReport; SimulateBackend
 * wraps the src/sim timing model, EmulateBackend wraps the bit-exact
 * isa::Emulator (including the request-seeded determinism discipline
 * the serving path pins with FNV output digests).
 */

#ifndef CINNAMON_EXEC_BACKEND_H_
#define CINNAMON_EXEC_BACKEND_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/dsl.h"
#include "compiler/runtime.h"
#include "faults/fault_plan.h"
#include "fhe/evaluator.h"
#include "sim/simulator.h"

namespace cinnamon::exec {

/**
 * FNV-1a digest over name-ordered output ciphertexts (name bytes,
 * level, c0 limbs, c1 limbs). This is the serving Response digest —
 * bit-identical emulation across refactors is pinned against it.
 */
uint64_t
hashOutputs(const std::map<std::string, fhe::Ciphertext> &outputs);

/** What one backend execution produced. */
struct ExecutionReport
{
    /** Timing-model results (filled by SimulateBackend). */
    bool has_sim = false;
    sim::SimResult sim;

    /** Functional results (filled by EmulateBackend). */
    bool has_outputs = false;
    std::map<std::string, fhe::Ciphertext> outputs;
    isa::EmulatorStats emu_stats;
    /** hashOutputs(outputs) when has_outputs. */
    uint64_t digest = 0;
};

/** A way to execute a compiled program. */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    virtual const char *name() const = 0;

    virtual ExecutionReport
    execute(const compiler::CompiledProgram &program) = 0;
};

/** Timing-model execution on the src/sim hardware model. */
class SimulateBackend final : public ExecutionBackend
{
  public:
    explicit SimulateBackend(sim::HardwareConfig hw,
                             TraceRecorder *trace = nullptr)
        : hw_(hw), trace_(trace)
    {
    }

    const char *name() const override { return "simulate"; }

    const sim::HardwareConfig &hardware() const { return hw_; }

    ExecutionReport
    execute(const compiler::CompiledProgram &program) override;

  private:
    sim::HardwareConfig hw_;
    TraceRecorder *trace_;
};

/**
 * Bit-exact functional execution on the ISA emulator.
 *
 * Wraps a ProgramRuntime whose inputs the caller has bound; the
 * worker count only affects wall time, never results (chips advance
 * independently between collectives).
 */
class EmulateBackend final : public ExecutionBackend
{
  public:
    explicit EmulateBackend(compiler::ProgramRuntime &runtime,
                            std::size_t workers = 1)
        : runtime_(&runtime), workers_(workers)
    {
    }

    const char *name() const override { return "emulate"; }

    ExecutionReport
    execute(const compiler::CompiledProgram &program) override;

    /**
     * The reference recipe of request-seeded emulation: derives every
     * key and input from `seed` (KeyGenerator at the seed; inputs
     * drawn real-only from Rng(seed ^ golden-ratio) in the source
     * program's input order), runs serially, and digests. The digest
     * is a pure function of (seed, program, parameters). Serving runs
     * executeSeededBatch, even for a lone request; this independent
     * single-member run is what each batch member's digest is checked
     * against.
     */
    static ExecutionReport
    executeSeeded(const fhe::CkksContext &ctx,
                  const fhe::Encoder &encoder,
                  const compiler::Program &source,
                  const compiler::CompiledProgram &program,
                  uint64_t seed);

    /**
     * Batched request-seeded emulation — the serving path, where a
     * lone request is a batch of one: `program` is the compilation
     * of replicateStreams(source, seeds.size()), one batch member per
     * copy on its own span of chips. Each member draws its keys and
     * inputs from its *own* seed exactly like executeSeeded — member
     * k's outputs (names stripped of the "@k" replica suffix) hash to
     * the same digest an unbatched run of `source` under seeds[k]
     * would produce, bit for bit. Returns one report per member, in
     * seed order. Chips advance on the whole shared TaskPool, which
     * never changes a digest.
     *
     * When `fault` carries a chip failure it is mapped into member
     * `fault_member`'s chip span; the victim chip then throws
     * isa::EmulatorError mid-program, failing the whole batch attempt
     * (the server requeues every member). Transient faults are NOT
     * applied here — they are per-member and the caller drops the
     * affected members' results after execution.
     */
    static std::vector<ExecutionReport>
    executeSeededBatch(const fhe::CkksContext &ctx,
                       const fhe::Encoder &encoder,
                       const compiler::Program &source,
                       const compiler::CompiledProgram &program,
                       const std::vector<uint64_t> &seeds,
                       const faults::FaultDecision *fault = nullptr,
                       std::size_t fault_member = 0,
                       isa::EmulatorCache *cache = nullptr);

  private:
    compiler::ProgramRuntime *runtime_;
    std::size_t workers_;
};

} // namespace cinnamon::exec

#endif // CINNAMON_EXEC_BACKEND_H_
