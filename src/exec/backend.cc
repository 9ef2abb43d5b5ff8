#include "exec/backend.h"

#include <memory>

#include "common/random.h"

namespace cinnamon::exec {
namespace {

uint64_t
fnv1a(uint64_t h, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * FNV-1a folding one 64-bit word per step. Limb planes are megabytes
 * per output; the byte-wise loop's serial multiply chain made the
 * digest a measurable slice of every execute, so bulk data hashes
 * word-at-a-time. The digest is only ever compared against digests
 * from the same code (serial vs pooled, local vs remote), never
 * persisted across versions, so the constant's interpretation is free
 * to differ from byte-wise FNV.
 */
uint64_t
fnv1aWords(uint64_t h, const uint64_t *words, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        h ^= words[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
hashPoly(uint64_t h, const rns::RnsPoly &poly)
{
    for (std::size_t i = 0; i < poly.numLimbs(); ++i) {
        const auto limb = poly.limb(i);
        h = fnv1aWords(h, limb.data(), limb.size());
    }
    return h;
}

} // namespace

uint64_t
hashOutputs(const std::map<std::string, fhe::Ciphertext> &outputs)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &[name, ct] : outputs) {
        h = fnv1a(h, name.data(), name.size());
        const uint64_t level = ct.level;
        h = fnv1a(h, &level, sizeof(level));
        h = hashPoly(h, ct.c0);
        h = hashPoly(h, ct.c1);
    }
    return h;
}

ExecutionReport
SimulateBackend::execute(const compiler::CompiledProgram &program)
{
    ExecutionReport report;
    report.has_sim = true;
    report.sim = sim::simulate(program.machine, hw_, trace_);
    return report;
}

ExecutionReport
EmulateBackend::execute(const compiler::CompiledProgram &program)
{
    runtime_->setEmulatorWorkers(workers_);
    ExecutionReport report;
    report.has_outputs = true;
    report.outputs = runtime_->run(program);
    report.emu_stats = runtime_->lastStats();
    report.digest = hashOutputs(report.outputs);
    return report;
}

ExecutionReport
EmulateBackend::executeSeeded(const fhe::CkksContext &ctx,
                              const fhe::Encoder &encoder,
                              const compiler::Program &source,
                              const compiler::CompiledProgram &program,
                              uint64_t seed)
{
    // All randomness is derived from the request seed, so the output
    // digest is a pure function of (seed, program, parameters) —
    // never of worker count or scheduling order.
    fhe::KeyGenerator keygen(ctx, seed);
    auto sk = keygen.secretKey();
    fhe::Evaluator eval(ctx);
    Rng data_rng(seed ^ 0x9e3779b97f4a7c15ull);

    compiler::ProgramRuntime runtime(ctx, encoder, keygen, sk);
    for (const compiler::CtOp &op : source.ops()) {
        if (op.kind != compiler::CtOpKind::Input)
            continue;
        std::vector<fhe::Cplx> values(ctx.slots());
        for (auto &v : values)
            v = fhe::Cplx(data_rng.uniformReal(-1.0, 1.0), 0.0);
        auto plain = encoder.encode(values, op.level);
        auto ct = eval.encrypt(plain, ctx.params().scale, sk, data_rng);
        runtime.bindInput(op.name, ct);
    }

    EmulateBackend backend(runtime);
    return backend.execute(program);
}

std::vector<ExecutionReport>
EmulateBackend::executeSeededBatch(
    const fhe::CkksContext &ctx, const fhe::Encoder &encoder,
    const compiler::Program &source,
    const compiler::CompiledProgram &program,
    const std::vector<uint64_t> &seeds,
    const faults::FaultDecision *fault, std::size_t fault_member,
    isa::EmulatorCache *cache)
{
    const std::size_t members = seeds.size();
    CINN_FATAL_UNLESS(members >= 1, "batch needs at least one member");
    const std::size_t chips = program.machine.numChips();
    CINN_FATAL_UNLESS(chips % members == 0,
                      "batched program chips must split over members");
    const std::size_t chips_per_member = chips / members;

    // One generator/key per member: every member's randomness is its
    // own request's, exactly as executeSeeded would derive it.
    std::vector<std::unique_ptr<fhe::KeyGenerator>> keygens;
    std::vector<std::unique_ptr<fhe::SecretKey>> sks;
    keygens.reserve(members);
    sks.reserve(members);
    for (const uint64_t seed : seeds) {
        keygens.push_back(
            std::make_unique<fhe::KeyGenerator>(ctx, seed));
        sks.push_back(std::make_unique<fhe::SecretKey>(
            keygens.back()->secretKey()));
    }

    fhe::Evaluator eval(ctx);
    compiler::ProgramRuntime runtime(ctx, encoder, *keygens[0],
                                     *sks[0]);
    if (cache != nullptr)
        runtime.setEmulatorCache(cache);
    std::vector<compiler::ProgramRuntime::CopyKeys> copies(members);
    for (std::size_t k = 0; k < members; ++k)
        copies[k] = {keygens[k].get(), sks[k].get()};
    runtime.setCopyKeys(std::move(copies));

    for (std::size_t k = 0; k < members; ++k) {
        const std::string suffix =
            k == 0 ? std::string() : "@" + std::to_string(k);
        Rng data_rng(seeds[k] ^ 0x9e3779b97f4a7c15ull);
        // Inputs are drawn in the *source* program's input order from
        // the member's own rng — the same draws, encodes, and
        // encryption randomness an unbatched run would make.
        for (const compiler::CtOp &op : source.ops()) {
            if (op.kind != compiler::CtOpKind::Input)
                continue;
            std::vector<fhe::Cplx> values(ctx.slots());
            for (auto &v : values)
                v = fhe::Cplx(data_rng.uniformReal(-1.0, 1.0), 0.0);
            auto plain = encoder.encode(values, op.level);
            auto ct = eval.encrypt(plain, ctx.params().scale,
                                   *sks[k], data_rng);
            runtime.bindInput(op.name + suffix, ct);
        }
    }

    if (fault != nullptr && fault->chip_fails) {
        CINN_ASSERT(fault_member < members,
                    "fault member outside the batch");
        const std::size_t victim =
            fault_member * chips_per_member +
            fault->chip_offset % chips_per_member;
        runtime.armFault(victim, fault->at_fraction);
    }

    EmulateBackend backend(runtime, /*workers=*/0);
    auto batched = backend.execute(program);

    // Fan the shared output map back out per member, stripping the
    // replica suffix so each member's names — and therefore its
    // digest — match an unbatched run exactly.
    std::vector<ExecutionReport> reports(members);
    for (std::size_t k = 0; k < members; ++k) {
        const std::string suffix =
            k == 0 ? std::string() : "@" + std::to_string(k);
        ExecutionReport &r = reports[k];
        r.has_outputs = true;
        r.emu_stats = batched.emu_stats;
        for (const compiler::CtOp &op : source.ops()) {
            if (op.kind != compiler::CtOpKind::Output)
                continue;
            auto it = batched.outputs.find(op.name + suffix);
            CINN_ASSERT(it != batched.outputs.end(),
                        "batched output '" << op.name << suffix
                                           << "' missing");
            r.outputs.emplace(op.name, std::move(it->second));
        }
        r.digest = hashOutputs(r.outputs);
    }
    return reports;
}

} // namespace cinnamon::exec
