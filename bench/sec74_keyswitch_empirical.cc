/**
 * @file
 * Reproduces the Section 7.4 empirical analysis: Cinnamon's batched
 * keyswitching vs CiFHER's with batching enabled, on the bootstrap
 * workload over Cinnamon-4 — inter-chip traffic reduction and the
 * resulting speedup — plus the analytic collective counts of the two
 * batched patterns (Figure 8).
 */

#include <cstdio>

#include "bench_util.h"
#include "sim/simulator.h"
#include "workloads/kernels.h"

using namespace cinnamon;
using namespace cinnamon::workloads;

int
main()
{
    auto ctx = bench::makePaperContext();
    const auto shape = BootstrapShape::bootstrap13();
    auto kernel = bootstrapKernel(*ctx, shape);

    // Both sides of the comparison are registry strategies: the full
    // Cinnamon pass vs the CiFHER decomposition with the same
    // batching pass enabled.
    const auto &registry = compiler::StrategyRegistry::global();
    auto cinnamon_prog = bench::compileWith(
        *ctx, kernel,
        bench::strategyConfig(registry.at("cinnamon-ks"), 4));
    auto cifher_prog = bench::compileWith(
        *ctx, kernel,
        bench::strategyConfig(registry.at("cifher-pass"), 4));

    sim::HardwareConfig hw = bench::cinnamonHw(4);
    auto cinn = sim::simulate(cinnamon_prog.machine, hw);
    auto cif = sim::simulate(cifher_prog.machine, hw);

    bench::printHeader("Section 7.4: Cinnamon vs CiFHER keyswitching "
                       "(bootstrap on Cinnamon-4, batching on)");
    std::printf("%-28s %14s %14s %10s\n", "", "Cinnamon", "CiFHER",
                "ratio");
    std::printf("%-28s %14zu %14zu %9.2fx\n",
                "inter-chip limb transfers",
                cinnamon_prog.comm.total(), cifher_prog.comm.total(),
                static_cast<double>(cifher_prog.comm.total()) /
                    cinnamon_prog.comm.total());
    std::printf("%-28s %14.3f %14.3f %9.2fx\n", "execution time (ms)",
                cinn.seconds * 1e3, cif.seconds * 1e3,
                cif.seconds / cinn.seconds);
    std::printf("(paper: 2.25x less traffic, 1.94x speedup)\n");

    // Analytic counts of whole-polynomial collectives per batched
    // pattern. The CiFHER row assumes a hoisted input broadcast
    // (1 + 2r); compiled CiFHER + Pass forms no batch and pays 3r.
    // tests/test_keyswitch_strategies.cc checks the compiled limb
    // counts.
    bench::printHeader("Collective counts for r rotations (analytic, "
                       "level 51, 4 chips)");
    std::printf("%-36s %12s %12s\n", "pattern", "broadcasts",
                "aggregations");
    const int r = 8;
    const std::size_t level = 51;
    const std::size_t special = ctx->specialBasis().size();
    std::printf("%-36s %12zu %12d   (Cinnamon IB, batched)\n",
                "r rotations of one ct", std::size_t(1), 0);
    std::printf("%-36s %12d %12d   (Cinnamon OA, batched)\n",
                "r rotations + aggregation", 0, 2);
    std::printf("%-36s %12zu %12d   (CiFHER: 1 + 2r ext rounds)\n",
                "CiFHER, either pattern",
                std::size_t(1) + 2 * static_cast<std::size_t>(r), 0);
    std::printf("(extension basis: %zu limbs; chain: %zu limbs)\n",
                special, level + 1);
    return 0;
}
