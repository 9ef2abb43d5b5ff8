/**
 * @file
 * The serving runtime end to end: a mixed bootstrap/ResNet/HELR
 * request trace is admitted through the bounded queue, scheduled onto
 * the chip groups of a simulated Cinnamon-8 (two 4-chip groups), and
 * executed by a pool of worker threads — each request is compiled and
 * simulated through the shared thread-safe cache, functionally
 * executed on the ISA emulator with request-seeded keys, and held on
 * its group for the (scaled) simulated duration to model accelerator
 * occupancy. The demo runs the same trace with one worker and with
 * the requested pool and prints both ServeStats reports plus the
 * wall-clock speedup and an output-equivalence check.
 *
 *   build/examples/serve_demo [--requests N] [--workers W]
 *       [--chips C] [--group G] [--queue Q] [--dilation D]
 *       [--batch-max-streams K] [--batch-linger-ms MS]
 *       [--autotune] [--strategy NAME] [--tuner-json FILE]
 *       [--trace FILE.trace.json] [--bench-json FILE]
 *       [--fault-seed S] [--chip-mtbf M] [--transient-p P]
 *       [--link-p P] [--link-dilation X] [--repair-ms MS]
 *       [--min-completion R]
 *
 * --autotune lets the PlanTuner pick the compile strategy and stream
 * split per workload (both runs tune identically, so the
 * bit-identity gate also checks the tuner's determinism);
 * --strategy forces one named StrategyRegistry entry instead
 * (unknown names are rejected with the registry's list).
 * --tuner-json writes every catalog workload's tuned-vs-default
 * simulated seconds for scripts/check_bench.py --tuner.
 *
 * --batch-max-streams K > 1 turns on continuous cross-request
 * batching for the pooled run: compatible queued requests coalesce
 * into one multi-stream program spread across the chip groups, with
 * --batch-linger-ms bounding how long a short batch waits for late
 * compatible arrivals. The serial baseline stays unbatched, so the
 * output-equivalence check doubles as the batched-vs-unbatched
 * bit-identity gate. --bench-json writes the pooled run's
 * steady-state p50 compile_ms and plan-cache hit rate as JSON for
 * scripts/check_bench.py.
 *
 * With --trace, the pooled run's per-request spans (queue → acquire →
 * simulate → probe → dwell, plus backoff/quarantine/readmit fault
 * spans) are written as Chrome trace-event JSON — open the file in
 * Perfetto or about://tracing.
 *
 * The fault flags drive the deterministic fault-injection subsystem
 * (DESIGN.md §5c): --chip-mtbf M kills a chip of the serving group
 * every ~M attempts (quarantine + requeue onto healthy groups),
 * --transient-p injects spurious execution errors (retried with
 * backoff), --link-p/--link-dilation degrade the network PHY in the
 * timing model. The same --fault-seed reproduces the same failure
 * schedule bit for bit. --min-completion R exits non-zero if fewer
 * than R of the admitted requests complete — the CI fault matrix
 * gates on it.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "compiler/strategy.h"
#include "serve/server.h"
#include "serve/tuner.h"

using namespace cinnamon;
using namespace cinnamon::serve;

namespace {

struct DemoConfig
{
    std::size_t requests = 24;
    std::size_t workers = 4;
    std::size_t chips = 8;
    std::size_t group = 4;
    std::size_t queue = 64;
    double dilation = 300.0; ///< wall s per simulated s (device dwell)
    std::size_t batch_max_streams = 1; ///< 1 = unbatched serving
    double batch_linger_ms = 2.0;
    std::string trace_path;  ///< empty = no trace dump
    std::string bench_json_path; ///< empty = no bench dump
    bool autotune = false;       ///< PlanTuner picks the plan
    std::string strategy;        ///< forced strategy ("" = default)
    std::string tuner_json_path; ///< empty = no tuner dump
    /** Restrict the trace to one workload ("" = mixed trace). */
    std::string workload;
    Workload only_workload = Workload::Keyswitch;

    // Fault injection (all layers disabled by default).
    uint64_t fault_seed = 0;
    double chip_mtbf = 0.0;    ///< requests between chip deaths
    double transient_p = 0.0;  ///< spurious-error probability
    double link_p = 0.0;       ///< degraded-PHY probability
    double link_dilation = 4.0;
    double repair_ms = 50.0;   ///< quarantine → readmission time
    /** Minimum completed/admitted ratio; 0 disables the gate. */
    double min_completion = 0.0;
};

DemoConfig
parseArgs(int argc, char **argv)
{
    DemoConfig cfg;
    for (int i = 1; i < argc; ++i) {
        auto num = [&](const char *flag) -> double {
            if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc)
                return -1.0;
            return std::atof(argv[++i]);
        };
        double v;
        if ((v = num("--requests")) >= 0)
            cfg.requests = static_cast<std::size_t>(v);
        else if ((v = num("--workers")) >= 0)
            cfg.workers = static_cast<std::size_t>(v);
        else if ((v = num("--chips")) >= 0)
            cfg.chips = static_cast<std::size_t>(v);
        else if ((v = num("--group")) >= 0)
            cfg.group = static_cast<std::size_t>(v);
        else if ((v = num("--queue")) >= 0)
            cfg.queue = static_cast<std::size_t>(v);
        else if ((v = num("--dilation")) >= 0)
            cfg.dilation = v;
        else if ((v = num("--fault-seed")) >= 0)
            cfg.fault_seed = static_cast<uint64_t>(v);
        else if ((v = num("--chip-mtbf")) >= 0)
            cfg.chip_mtbf = v;
        else if ((v = num("--transient-p")) >= 0)
            cfg.transient_p = v;
        else if ((v = num("--link-p")) >= 0)
            cfg.link_p = v;
        else if ((v = num("--link-dilation")) >= 0)
            cfg.link_dilation = v;
        else if ((v = num("--repair-ms")) >= 0)
            cfg.repair_ms = v;
        else if ((v = num("--min-completion")) >= 0)
            cfg.min_completion = v;
        else if ((v = num("--batch-max-streams")) >= 0)
            cfg.batch_max_streams = static_cast<std::size_t>(v);
        else if ((v = num("--batch-linger-ms")) >= 0)
            cfg.batch_linger_ms = v;
        else if (std::strcmp(argv[i], "--trace") == 0 &&
                 i + 1 < argc)
            cfg.trace_path = argv[++i];
        else if (std::strcmp(argv[i], "--bench-json") == 0 &&
                 i + 1 < argc)
            cfg.bench_json_path = argv[++i];
        else if (std::strcmp(argv[i], "--autotune") == 0)
            cfg.autotune = true;
        else if (std::strcmp(argv[i], "--strategy") == 0 &&
                 i + 1 < argc) {
            cfg.strategy = argv[++i];
            const auto &registry =
                compiler::StrategyRegistry::global();
            if (registry.find(cfg.strategy) == nullptr) {
                std::fprintf(stderr,
                             "unknown strategy '%s'; valid:",
                             cfg.strategy.c_str());
                for (const auto &name : registry.names())
                    std::fprintf(stderr, " %s", name.c_str());
                std::fprintf(stderr, "\n");
                std::exit(2);
            }
        } else if (std::strcmp(argv[i], "--tuner-json") == 0 &&
                   i + 1 < argc)
            cfg.tuner_json_path = argv[++i];
        else if (std::strcmp(argv[i], "--workload") == 0 &&
                 i + 1 < argc) {
            cfg.workload = argv[++i];
            if (!workloadFromName(cfg.workload,
                                  &cfg.only_workload)) {
                std::fprintf(stderr,
                             "unknown workload '%s'; valid:",
                             cfg.workload.c_str());
                for (Workload w :
                     {Workload::Bootstrap, Workload::ResNet,
                      Workload::Helr, Workload::Bert,
                      Workload::Keyswitch,
                      Workload::ObliviousJoin})
                    std::fprintf(stderr, " %s", workloadName(w));
                std::fprintf(stderr, "\n");
                std::exit(2);
            }
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            std::exit(2);
        }
    }
    if (cfg.requests == 0) {
        std::fprintf(stderr, "--requests must be at least 1\n");
        std::exit(2);
    }
    return cfg;
}

/** The mixed tenant trace: request i's workload and seed. */
Workload
traceWorkload(const DemoConfig &cfg, std::size_t i)
{
    if (!cfg.workload.empty())
        return cfg.only_workload;
    switch (i % 6) {
    case 0: return Workload::Bootstrap;
    case 1: return Workload::ResNet;
    case 2: return Workload::Helr;
    case 3: return Workload::Bert;
    case 4: return Workload::ObliviousJoin;
    default: return Workload::Keyswitch;
    }
}

/** Run the whole trace on a fresh server; returns per-id hashes. */
std::map<uint64_t, uint64_t>
runTrace(const fhe::CkksContext &ctx, const DemoConfig &cfg,
         std::size_t workers, ServeStats *stats_out,
         const std::string &trace_path = "", bool batched = false,
         std::vector<Response> *responses_out = nullptr)
{
    ServeOptions opt;
    opt.chips = cfg.chips;
    opt.group_size = cfg.group;
    opt.workers = workers;
    opt.queue_capacity = cfg.queue;
    opt.time_dilation = cfg.dilation;
    if (batched) {
        opt.batch_max_streams = cfg.batch_max_streams;
        opt.batch_linger_ms = cfg.batch_linger_ms;
    }
    // Both the serial baseline and the pooled run share the plan
    // settings: a strategy changes output ciphertext bits (different
    // digit decompositions), so the bit-identity gate is only
    // meaningful when both sides compile the same plans.
    opt.autotune = cfg.autotune;
    opt.strategy = cfg.strategy;
    opt.trace = !trace_path.empty();
    opt.faults.seed = cfg.fault_seed;
    opt.faults.chip_mtbf_requests = cfg.chip_mtbf;
    opt.faults.transient_p = cfg.transient_p;
    opt.faults.link_degrade_p = cfg.link_p;
    opt.faults.link_dilation = cfg.link_dilation;
    opt.faults.chip_repair_ms = cfg.repair_ms;

    Server server(ctx, opt);
    server.start();
    std::size_t shed = 0;
    for (std::size_t i = 0; i < cfg.requests; ++i) {
        // Seed identifies the tenant's data; derive it from i so the
        // serial and concurrent runs see identical requests.
        if (!server.submit(traceWorkload(cfg, i), 1000 + i))
            ++shed;
    }
    server.drainAndStop();
    if (shed > 0)
        std::printf("  (%zu requests shed by admission control)\n",
                    shed);
    *stats_out = server.stats();
    if (opt.trace) {
        if (server.trace().writeFile(trace_path))
            std::printf("  (wrote %zu trace events to %s)\n",
                        server.trace().size(), trace_path.c_str());
        else
            std::fprintf(stderr, "failed to write trace to %s\n",
                         trace_path.c_str());
    }

    std::map<uint64_t, uint64_t> hashes;
    for (const auto &r : server.responses())
        if (r.status == RequestStatus::Completed)
            hashes[r.id] = r.output_hash;
    if (responses_out)
        *responses_out = server.responses();
    return hashes;
}

/**
 * Serving-tier bench dump for scripts/check_bench.py: the pooled
 * run's steady-state p50 compile_ms over completed requests (the
 * plan cache should make most compiles free) and the plan-cache hit
 * rate.
 */
bool
writeBenchJson(const std::string &path, const ServeStats &stats,
               const std::vector<Response> &responses)
{
    std::vector<double> compile_ms;
    for (const auto &r : responses)
        if (r.status == RequestStatus::Completed)
            compile_ms.push_back(r.compile_ms);
    double p50 = 0.0;
    if (!compile_ms.empty()) {
        std::sort(compile_ms.begin(), compile_ms.end());
        p50 = compile_ms[compile_ms.size() / 2];
    }
    const std::size_t lookups = stats.plan_cache.lookups();
    const double hit_rate =
        lookups > 0 ? static_cast<double>(stats.plan_cache.hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "{\n"
                 "  \"serve_plan_cache\": {\n"
                 "    \"steady_compile_ms_p50\": %.6f,\n"
                 "    \"plan_cache_hit_rate\": %.6f,\n"
                 "    \"plan_cache_hits\": %zu,\n"
                 "    \"plan_cache_lookups\": %zu,\n"
                 "    \"completed\": %zu\n"
                 "  }\n"
                 "}\n",
                 p50, hit_rate, stats.plan_cache.hits, lookups,
                 stats.completed);
    std::fclose(f);
    std::printf("  (wrote serving bench numbers to %s)\n",
                path.c_str());
    return true;
}

/**
 * Tuner dump for scripts/check_bench.py --tuner: every catalog
 * workload's tuned decision vs the default plan, computed through a
 * fresh PlanTuner on the exact (group chips, hardware) point the
 * server tunes on. Simulated seconds are deterministic, so the gate
 * can pin exact strategies, and tuned <= default holds by
 * construction (the default plan is itself a candidate).
 */
bool
writeTunerJson(const std::string &path, const fhe::CkksContext &ctx,
               const DemoConfig &cfg)
{
    WorkloadCatalog catalog(ctx);
    workloads::BenchmarkRunner runner(ctx);
    PlanTuner tuner(runner);
    sim::HardwareConfig hw = ServeOptions().hw;
    hw.n = ctx.n();

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n  \"tuner\": [\n");
    const Workload workloads[] = {
        Workload::Bootstrap,     Workload::ResNet,
        Workload::Helr,          Workload::Bert,
        Workload::Keyswitch,     Workload::ObliviousJoin};
    bool first = true;
    for (Workload w : workloads) {
        const TunedPlan &plan =
            tuner.plan(catalog.benchmark(w), cfg.group, hw);
        std::fprintf(f,
                     "%s    {\"workload\": \"%s\", "
                     "\"strategy\": \"%s\", \"group\": %zu, "
                     "\"streams\": %zu, \"tuned_seconds\": %.9f, "
                     "\"default_seconds\": %.9f, "
                     "\"candidates\": %zu}",
                     first ? "" : ",\n", workloadName(w),
                     plan.strategy.c_str(), plan.group, plan.streams,
                     plan.tuned_seconds, plan.default_seconds,
                     plan.candidates);
        first = false;
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("  (wrote tuner decisions to %s)\n", path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const DemoConfig cfg = parseArgs(argc, argv);
    std::printf("serve_demo: %zu-request mixed trace on a simulated "
                "Cinnamon-%zu (%zu groups of %zu chips)\n\n",
                cfg.requests, cfg.chips, cfg.chips / cfg.group,
                cfg.group);

    auto params = fhe::CkksParams::makeTest(1 << 8, 16, 4);
    fhe::CkksContext ctx(params);

    ServeStats serial_stats, pool_stats;
    std::printf("--- serial baseline (--workers 1, unbatched) ---\n");
    auto serial = runTrace(ctx, cfg, 1, &serial_stats);
    std::printf("%s\n", serial_stats.report().c_str());

    if (cfg.batch_max_streams > 1)
        std::printf("--- worker pool (--workers %zu, batching up to "
                    "%zu streams, linger %.1f ms) ---\n",
                    cfg.workers, cfg.batch_max_streams,
                    cfg.batch_linger_ms);
    else
        std::printf("--- worker pool (--workers %zu) ---\n",
                    cfg.workers);
    std::vector<Response> pooled_responses;
    auto pooled =
        runTrace(ctx, cfg, cfg.workers, &pool_stats, cfg.trace_path,
                 /*batched=*/true, &pooled_responses);
    std::printf("%s\n", pool_stats.report().c_str());

    if (!cfg.bench_json_path.empty() &&
        !writeBenchJson(cfg.bench_json_path, pool_stats,
                        pooled_responses)) {
        std::fprintf(stderr, "failed to write bench json to %s\n",
                     cfg.bench_json_path.c_str());
        return 1;
    }
    if (!cfg.tuner_json_path.empty() &&
        !writeTunerJson(cfg.tuner_json_path, ctx, cfg)) {
        std::fprintf(stderr, "failed to write tuner json to %s\n",
                     cfg.tuner_json_path.c_str());
        return 1;
    }

    // Bit-identity is a per-request contract: under saturation the two
    // runs may admit different subsets (admission timing, not
    // nondeterminism), so compare hashes on commonly-completed ids.
    std::size_t common = 0, mismatched = 0;
    for (const auto &[id, hash] : serial) {
        auto it = pooled.find(id);
        if (it == pooled.end())
            continue;
        ++common;
        if (it->second != hash)
            ++mismatched;
    }
    const bool identical = common > 0 && mismatched == 0;
    const double speedup =
        pool_stats.wall_seconds > 0
            ? serial_stats.wall_seconds / pool_stats.wall_seconds
            : 0.0;
    std::printf("outputs bit-identical to serial execution "
                "(%zu commonly-completed requests): %s\n",
                common, identical ? "yes" : "NO");
    std::printf("wall-clock speedup over --workers 1: %.2fx\n",
                speedup);

    // No request is ever lost: the final fates partition the
    // submitted set exactly (Retried rows are intermediate).
    const std::size_t accounted =
        pool_stats.completed + pool_stats.rejected +
        pool_stats.expired + pool_stats.failed;
    const bool conserved = accounted == pool_stats.submitted;
    std::printf("request conservation: %zu completed + %zu rejected "
                "+ %zu expired + %zu failed == %zu submitted: %s\n",
                pool_stats.completed, pool_stats.rejected,
                pool_stats.expired, pool_stats.failed,
                pool_stats.submitted, conserved ? "yes" : "NO");

    const std::size_t admitted =
        pool_stats.submitted - pool_stats.rejected;
    const double completion_rate =
        admitted > 0 ? static_cast<double>(pool_stats.completed) /
                           static_cast<double>(admitted)
                     : 1.0;
    if (cfg.min_completion > 0.0) {
        std::printf("completion rate: %.1f%% of %zu admitted "
                    "(gate: %.1f%%)\n",
                    100.0 * completion_rate, admitted,
                    100.0 * cfg.min_completion);
        if (completion_rate < cfg.min_completion) {
            std::fprintf(stderr,
                         "completion rate below --min-completion\n");
            return 1;
        }
    }
    if (!identical || !conserved)
        return 1;
    return 0;
}
