/**
 * @file
 * Benchmark entry point: one process runs one workload.
 *
 *   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
 *             [--trace-out FILE] [--setup-only] [--spawn-ns NS]
 *
 * perfbench/run.py builds and invokes this binary; see README.md in
 * this directory for the workloads and metrics.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "serve_open|serve_burst|emulate_n15|compile_paper "
                 "--seed N [--seconds S] [--trace 0|1] "
                 "[--trace-out FILE] [--setup-only] [--spawn-ns NS]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.spawn_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now().time_since_epoch())
                       .count();
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (std::strcmp(flag, "--workload") == 0)
            opt.workload = value();
        else if (std::strcmp(flag, "--seed") == 0)
            opt.seed = std::strtoull(value(), nullptr, 10);
        else if (std::strcmp(flag, "--seconds") == 0)
            opt.seconds = std::atof(value());
        else if (std::strcmp(flag, "--trace") == 0)
            opt.trace = std::atoi(value()) != 0;
        else if (std::strcmp(flag, "--trace-out") == 0)
            opt.trace_out = value();
        else if (std::strcmp(flag, "--spawn-ns") == 0)
            opt.spawn_ns = std::strtoll(value(), nullptr, 10);
        else if (std::strcmp(flag, "--setup-only") == 0)
            opt.setup_only = true;
        else
            usage("unknown argument");
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Result (*workload)(const Options &, RunClock &) = nullptr;
    if (opt.workload == "serve_open")
        workload = runServeOpen;
    else if (opt.workload == "serve_burst")
        workload = runServeBurst;
    else if (opt.workload == "emulate_n15")
        workload = runEmulateN15;
    else if (opt.workload == "compile_paper")
        workload = runCompilePaper;
    else
        usage("unknown workload");

    RunClock clock(opt);
    Result result;
    try {
        result = workload(opt, clock);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    if (opt.setup_only) {
        std::printf("{\"setup_s\": %.17g}\n", clock.setupSeconds());
        return 0;
    }
    std::printf("workload: %s seed %llu, %.3g s%s\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? " (traced)" : "");
    std::printf("machine: %s\n", machineShapeJson().c_str());
    if (!opt.trace) {
        result.add("setup_s", clock.setupSeconds(), "s");
        result.add("peak_rss_mb", peakRssMb(), "MB");
    }
    printResult(result);
    return 0;
}
