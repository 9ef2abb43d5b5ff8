#include "serve/executor.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
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

std::vector<RequestExecutor::Outcome>
RequestExecutor::run(Workload workload,
                     const std::vector<uint64_t> &seeds,
                     const std::vector<faults::FaultDecision> &fates,
                     const SpanFn &span)
{
    const auto open = [&](const char *name, bool on = true) {
        if (span && on)
            return span(name);
        return ScopedSpan(nullptr, "", "", 0, 0);
    };
    std::vector<Outcome> out(seeds.size());
    try {
        // One plan for the whole batch: compatible members share a
        // workload, so every member gets the same choice.
        const auto plan = planFor(workload);
        {
            auto s = open("simulate");
            simulate(workload, plan, fates, out);
        }
        {
            auto s = open("probe", emulates());
            probe(plan, seeds, fates, out);
        }
        // Model device occupancy once for the whole batch: every
        // member's group runs concurrently, so the host dwells for
        // the slowest member only.
        if (config_.time_dilation > 0.0) {
            auto s = open("dwell");
            double dwell_s = 0.0;
            for (const auto &o : out)
                dwell_s = std::max(dwell_s, o.sim_seconds);
            dwell_s *= config_.time_dilation;
            const std::chrono::duration<double> dwell(dwell_s);
            std::this_thread::sleep_for(dwell);
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (!fates[i].transient)
                continue;
            out[i].kind = Outcome::Lost;
            out[i].digest = 0;
            out[i].error = "injected transient execution fault";
            out[i].retryable = true;
        }
    } catch (const std::exception &e) {
        // Injected chip death unwinding out of the emulator (or the
        // sim-side abort), or a program error. An injected fault in
        // any member is a transient infrastructure condition, hence
        // retryable; anything else is permanent. Every member shares
        // the abort.
        bool any_fault = false;
        bool any_chip = false;
        for (const auto &fate : fates) {
            any_fault = any_fault || fate.any();
            any_chip = any_chip || fate.chip_fails;
        }
        for (auto &o : out) {
            o.kind = Outcome::Aborted;
            o.digest = 0;
            o.error = e.what();
            o.retryable = any_fault;
            o.chip_failed = any_chip;
        }
    }
    return out;
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

void
RequestExecutor::simulate(
    Workload workload, const PlanChoice &plan,
    const std::vector<faults::FaultDecision> &fates,
    std::vector<Outcome> &out)
{
    const auto &bench = catalog_.benchmark(workload);
    for (std::size_t i = 0; i < out.size(); ++i) {
        sim::HardwareConfig hw = config_.hw;
        if (fates[i].link_dilation > 1.0)
            hw.link_dilation = fates[i].link_dilation;
        const auto timing = runner_.run(bench, config_.group_size, hw,
                                        plan.sim_group, plan.ks);
        out[i].sim_seconds = timing.seconds;
        out[i].compile_ms = timing.compile_ms;
    }
}

bool
RequestExecutor::emulates() const
{
    return config_.emulate && ctx_->n() <= config_.emulate_max_n;
}

void
RequestExecutor::probe(
    const PlanChoice &plan, const std::vector<uint64_t> &seeds,
    const std::vector<faults::FaultDecision> &fates,
    std::vector<Outcome> &out)
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
        return;
    }

    compiler::CompilerConfig cfg;
    cfg.chips = k * config_.group_size;
    cfg.num_streams = static_cast<int>(k);
    cfg.phys_regs = config_.hw.phys_regs;
    cfg.strategy = plan.strategy;
    double compile_ms = 0.0;
    const auto &program =
        plans_.get(catalog_.batchedProbe(k), cfg, &compile_ms);
    // The members' chips advance together on the shared pool between
    // collectives; no digest depends on how many run at once.
    const auto reports = exec::EmulateBackend::executeSeededBatch(
        *ctx_, encoder_, catalog_.probe(), program, seeds, chip_fault,
        fault_member, &emu_cache_);
    for (std::size_t i = 0; i < k; ++i) {
        out[i].digest = reports[i].digest;
        out[i].compile_ms += compile_ms;
    }
}

} // namespace cinnamon::serve
