/**
 * @file
 * compile_paper: closed-loop cold compile + simulate of the paper's
 * Table 2 (benchmark, machine) pairs at paper parameters (N = 64K):
 * bootstrap / ResNet-20 / HELR / BERT on Cinnamon-M/4/8/12. Each op
 * runs one pair on a fresh BenchmarkRunner, so every op pays its
 * full compile; a pass is all sixteen pairs in a seed-shuffled order,
 * and a run measures whole passes until --seconds have passed.
 *
 * Compiler passes and the simulator do all the work here; serving,
 * fhe arithmetic and the emulator do none. Correctness: every op's
 * simulated seconds must equal the pinned Table 2 figure, and the
 * simulator must have run its conservation check on every op (a
 * violation aborts the process inside the simulator, so the run then
 * fails without a result).
 */

#include <cmath>

#include "bench_util.h"
#include "common/random.h"
#include "harness.h"
#include "workloads/benchmarks.h"

namespace perfbench {

using namespace cinnamon;

namespace {

/** Latency limit of one (benchmark, machine) op, for slo_met_ratio. */
constexpr double kSloMs = 8000.0;

/**
 * Simulated seconds of each Table 2 pair, rows bootstrap / ResNet /
 * HELR / BERT, columns Cinnamon-M/4/8/12. A change to the simulator or
 * the compiler's output re-records them, as a change to the emulator
 * re-records emulate_n15's pinned digest.
 */
constexpr double kPinnedSimSeconds[4][4] = {
    {0.008976434, 0.00828837, 0.008842469, 0.01054857},
    {0.474119383, 0.435329425, 0.469795867, 0.563654413},
    {0.164075324, 0.14999055, 0.074995275, 0.074995275},
    {12.76306336, 11.777436336, 6.637082484, 4.93468236},
};
/** Relative tolerance of the pin: the ninth significant digit. */
constexpr double kPinTolerance = 1e-9;

struct Machine
{
    const char *name;
    std::size_t chips;
    std::size_t group;
    sim::HardwareConfig hw;
};

struct Pair
{
    std::size_t bench = 0, machine = 0;
};

struct Loop
{
    std::vector<double> latency_ms, compile_ms, simulate_ms;
    std::size_t ops = 0, passes = 0, mismatched = 0;
    double wall_s = 0.0;
};

} // namespace

Result
runCompilePaper(const Options &opt, RunClock &clock)
{
    Result r;
    CommonLayers common;
    common.process_base = RegistrySnapshot::take();
    BenchTrace trace(opt.trace);

    const auto paper_ctx = bench::makePaperContext();
    const fhe::CkksContext &ctx = *paper_ctx;
    const std::vector<workloads::Benchmark> suite = {
        workloads::bootstrapBenchmark(ctx),
        workloads::resnetBenchmark(ctx),
        workloads::helrBenchmark(ctx),
        workloads::bertBenchmark(ctx),
    };
    const std::vector<Machine> machines = {
        {"Cinnamon-M", 1, 1, sim::HardwareConfig::monolithicChip()},
        {"Cinnamon-4", 4, 4, bench::cinnamonHw(4)},
        {"Cinnamon-8", 8, 4, bench::cinnamonHw(8)},
        {"Cinnamon-12", 12, 4, bench::cinnamonHw(12)},
    };
    std::vector<Pair> pairs;
    for (std::size_t b = 0; b < suite.size(); ++b)
        for (std::size_t m = 0; m < machines.size(); ++m)
            pairs.push_back({b, m});

    Rng order_rng(splitmix(opt.seed));
    double sim_seconds[4][4] = {};
    const auto checks_base =
        RegistrySnapshot::take().counter("sim.conservation.checks");

    auto runPasses = [&](double seconds, BenchTrace &tr) {
        Loop out;
        const auto start = Clock::now();
        do {
            for (std::size_t i = pairs.size(); i > 1; --i)
                std::swap(pairs[i - 1], pairs[order_rng.uniformMod(i)]);
            const auto pass = tr.span("pass", 0, 0);
            for (const Pair &p : pairs) {
                const auto &bench = suite[p.bench];
                const auto &m = machines[p.machine];
                // Single-ciphertext benchmarks use the whole machine as
                // one group; wide ones deploy groups of four chips.
                const bool narrow =
                    bench.name == "bootstrap" || bench.name == "resnet";
                const std::size_t group =
                    narrow ? m.chips : std::min(m.group, m.chips);
                const auto t0 = Clock::now();
                workloads::BenchTiming timing;
                {
                    auto s = tr.span(bench.name + "@" + m.name, 0,
                                     pass.id,
                                     static_cast<double>(out.ops));
                    workloads::BenchmarkRunner runner(ctx);
                    timing = runner.run(bench, m.chips, m.hw, group);
                }
                const double ms = msBetween(t0, Clock::now());
                out.latency_ms.push_back(ms);
                out.compile_ms.push_back(timing.compile_ms);
                out.simulate_ms.push_back(ms - timing.compile_ms);
                const double pin = kPinnedSimSeconds[p.bench][p.machine];
                sim_seconds[p.bench][p.machine] = timing.seconds;
                out.mismatched +=
                    !(std::abs(timing.seconds - pin) <= kPinTolerance * pin);
                ++out.ops;
            }
            ++out.passes;
        } while (msBetween(start, Clock::now()) < seconds * 1e3);
        out.wall_s = msBetween(start, Clock::now()) / 1e3;
        return out;
    };

    if (!clock.beginTimed())
        return r;
    // Traced runs measure an untraced half first, for the overhead.
    BenchTrace off(false);
    Loop plain = runPasses(opt.trace ? opt.seconds / 2 : opt.seconds, off);
    Loop traced;
    if (opt.trace) {
        common.beginPhase();
        traced = runPasses(opt.seconds / 2, trace);
        common.endPhase();
    }
    const Loop &main = opt.trace ? traced : plain;

    const double checks =
        RegistrySnapshot::take().counter("sim.conservation.checks") -
        checks_base;
    const std::size_t ops = plain.ops + traced.ops;
    r.check(checks >= static_cast<double>(ops),
            std::to_string(static_cast<long long>(checks)) +
                " simulator conservation checks for " +
                std::to_string(ops) + " ops");
    r.check(plain.mismatched + traced.mismatched == 0,
            std::to_string(plain.mismatched + traced.mismatched) +
                " ops simulated a different time than the pinned one");

    r.attempted = main.ops;
    r.failed = main.mismatched;
    const auto lat = summarize(main.latency_ms);
    std::size_t slo_met = 0;
    for (double ms : main.latency_ms)
        slo_met += ms <= kSloMs;
    char line[120];
    std::snprintf(line, sizeof(line),
                  " (%zu passes); SLO %.0f ms met by %zu; error_rate %.4f",
                  main.passes, kSloMs, slo_met,
                  static_cast<double>(main.mismatched) /
                      static_cast<double>(main.ops));
    r.note("latency: " + describe(lat, "ops") + line);
    for (std::size_t b = 0; b < suite.size(); ++b) {
        std::string row = "  simulated s " + suite[b].name + ":";
        for (std::size_t m = 0; m < machines.size(); ++m) {
            char cell[48];
            std::snprintf(cell, sizeof(cell), " %s %.10g",
                          machines[m].name, sim_seconds[b][m]);
            row += cell;
        }
        r.note(row);
    }

    if (!opt.trace) {
        addEndToEnd(r, main.ops, main.wall_s, lat, slo_met, main.ops,
                    main.mismatched);
        return r;
    }

    const auto plain_lat = summarize(plain.latency_ms);
    common.report(r, main.ops, main.compile_ms, main.simulate_ms,
                  plain_lat.p50 > 0 ? lat.p50 / plain_lat.p50 : 0.0);
    r.note("trace: " + std::to_string(trace.size()) + " events -> " +
           opt.trace_out);
    r.check(opt.trace_out.empty() || trace.write(opt.trace_out),
            "writing the trace to " + opt.trace_out);
    return r;
}

} // namespace perfbench
