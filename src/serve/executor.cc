#include "serve/executor.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "compiler/strategy.h"
#include "exec/backend.h"

namespace cinnamon::serve {

RequestExecutor::RequestExecutor(const fhe::CkksContext &ctx,
                                 Config config)
    : ctx_(&ctx), config_(std::move(config)), catalog_(ctx),
      runner_(ctx), plans_(ctx), tuner_(runner_), encoder_(ctx),
      emu_cache_(ctx)
{
    config_.hw.n = ctx.n();
    if (config_.faults.enabled())
        fault_plan_.emplace(config_.faults);
}

faults::FaultDecision
RequestExecutor::decide(uint64_t seed, std::size_t attempt) const
{
    return fault_plan_ ? fault_plan_->decide(seed, attempt)
                       : faults::FaultDecision{};
}

RequestExecutor::PlanChoice
RequestExecutor::planFor(Workload workload)
{
    PlanChoice choice;
    choice.sim_group = config_.group_size;
    std::string name = config_.strategy;
    if (name.empty() && config_.autotune) {
        const TunedPlan &plan =
            tuner_.plan(catalog_.benchmark(workload),
                        config_.group_size, config_.hw);
        name = plan.strategy;
        choice.sim_group = plan.group;
    }
    if (!name.empty()) {
        const auto &strat =
            compiler::StrategyRegistry::global().at(name);
        choice.strategy = strat.name;
        choice.ks = strat.ks;
    }
    return choice;
}

std::vector<workloads::BenchTiming>
RequestExecutor::simulate(
    Workload workload, const PlanChoice &plan,
    const std::vector<faults::FaultDecision> &fates)
{
    const auto &bench = catalog_.benchmark(workload);
    std::vector<workloads::BenchTiming> timings;
    timings.reserve(fates.size());
    for (const auto &fate : fates) {
        sim::HardwareConfig hw = config_.hw;
        if (fate.link_dilation > 1.0)
            hw.link_dilation = fate.link_dilation;
        timings.push_back(runner_.run(bench, config_.group_size, hw,
                                      plan.sim_group, plan.ks));
    }
    return timings;
}

bool
RequestExecutor::emulates() const
{
    return config_.emulate && ctx_->n() <= config_.emulate_max_n;
}

RequestExecutor::ProbeResult
RequestExecutor::execute(
    const PlanChoice &plan, const std::vector<uint64_t> &seeds,
    const std::vector<faults::FaultDecision> &fates)
{
    const std::size_t k = seeds.size();
    CINN_ASSERT(k >= 1 && fates.size() == k,
                "a batch needs one fate per member");
    // The emulator arms one victim chip per run: the first
    // chip-fault member supplies it (the whole attempt aborts either
    // way).
    auto &metrics = MetricsRegistry::global();
    std::size_t fault_member = k; // k = no chip fault in the batch
    for (std::size_t i = 0; i < k; ++i) {
        if (fates[i].chip_fails) {
            metrics.counter("faults.injected.chip").add();
            if (fault_member == k)
                fault_member = i;
        }
        if (fates[i].transient)
            metrics.counter("faults.injected.transient").add();
        if (fates[i].link_dilation > 1.0)
            metrics.counter("faults.injected.link").add();
    }
    const faults::FaultDecision *chip_fault =
        fault_member < k ? &fates[fault_member] : nullptr;

    ProbeResult out;
    out.digests.assign(k, 0);
    if (!emulates()) {
        // No emulated run to kill: the chip fault surfaces as a
        // sim-side abort naming the same victim the emulator would.
        if (chip_fault != nullptr) {
            const std::size_t victim =
                fault_member * config_.group_size +
                chip_fault->chip_offset % config_.group_size;
            const std::string what = "injected chip failure: chip " +
                                     std::to_string(victim) +
                                     " lost mid-run (sim abort)";
            throw faults::ChipFailedError(victim, what);
        }
        return out;
    }

    compiler::CompilerConfig cfg;
    cfg.chips = k * config_.group_size;
    cfg.num_streams = static_cast<int>(k);
    cfg.phys_regs = config_.hw.phys_regs;
    cfg.strategy = plan.strategy;
    const auto &program =
        plans_.get(catalog_.batchedProbe(k), cfg, &out.compile_ms);
    // workers=0: take the shared pool's full parallelism — idle
    // capacity slices limb planes, results unchanged.
    const auto reports = exec::EmulateBackend::executeSeededBatch(
        *ctx_, encoder_, catalog_.probe(), program, seeds, 0,
        chip_fault, fault_member, &emu_cache_);
    for (std::size_t i = 0; i < k; ++i)
        out.digests[i] = reports[i].digest;
    return out;
}

} // namespace cinnamon::serve
