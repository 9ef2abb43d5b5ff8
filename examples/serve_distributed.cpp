/**
 * @file
 * Distributed serving end to end (DESIGN.md §5d): one front-end
 * process owns admission, dispatch order, and placement; N spawned
 * worker processes each own one chip group and execute requests over
 * a loopback TCP wire protocol. The same binary is both roles —
 * the front-end re-executes itself with `--role worker`.
 *
 *   build/examples/serve_distributed [--requests N] [--workers W]
 *       [--group G] [--queue Q] [--dilation D] [--port P]
 *       [--batch-max-streams K] [--batch-linger-ms MS]
 *       [--autotune] [--strategy NAME]
 *       [--kill-worker-after K] [--respawn]
 *       [--fault-seed S] [--chip-mtbf M] [--transient-p P]
 *       [--conn-drop-p P] [--min-completion R]
 *
 * --autotune turns on the PlanTuner in the in-process baseline AND
 * in every worker process: the decision is a pure function of
 * (workload, hardware), both sides log the same `[tuner]` lines, and
 * digest gate 1 below verifies the tuned plans produce bit-identical
 * outputs across process boundaries. --strategy forces one named
 * registry strategy on both sides instead.
 *
 * --batch-max-streams K > 1 turns on continuous cross-request
 * batching at the front-end: compatible queued requests ride one
 * wire-v2 Submit and execute as a single multi-stream program on one
 * worker. Digest gate 1 below is unchanged — batched distributed
 * digests must still match the unbatched in-process baseline bit for
 * bit.
 *
 * The demo first serves the whole trace in-process (the single-process
 * Server) to establish baseline output digests, then serves the same
 * trace through the distributed tier and checks three gates:
 *
 *   1. determinism — every commonly-completed request's output digest
 *      is bit-identical between the in-process and distributed runs
 *      (a digest is a pure function of the request seed, so placement,
 *      worker count, and even mid-run worker death cannot change it);
 *   2. conservation — completed + rejected + expired + failed equals
 *      submitted: no request is ever silently lost;
 *   3. completion — at least --min-completion of the admitted
 *      requests completed (the CI resilience gate).
 *
 * --kill-worker-after K SIGKILLs one worker after K requests have
 * completed: the front-end sees the missed heartbeats / EOF,
 * quarantines the dead worker's chip group, requeues its in-flight
 * request, and finishes the trace on the surviving workers — the
 * kill drill passes only if all three gates still hold.
 * --conn-drop-p injects deterministic connection drops *inside* the
 * workers (the fault subsystem's CONN layer): the worker severs its
 * socket mid-request and exits, exercising the same recovery path.
 * --respawn starts a replacement worker for each dead one; the
 * replacement reclaims (and un-quarantines) the dead worker's group.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "compiler/strategy.h"
#include "serve/remote/frontend.h"
#include "serve/remote/supervisor.h"
#include "serve/remote/worker.h"
#include "serve/server.h"

using namespace cinnamon;
using namespace cinnamon::serve;

namespace {

struct DemoConfig
{
    std::size_t requests = 10;
    std::size_t workers = 2;
    std::size_t group = 4;
    std::size_t queue = 64;
    double dilation = 40.0; ///< wall s per simulated s (device dwell)
    uint16_t port = 0;      ///< 0 = OS-assigned
    std::size_t batch_max_streams = 1; ///< 1 = unbatched dispatch
    double batch_linger_ms = 2.0;
    bool autotune = false; ///< PlanTuner on both sides
    std::string strategy;  ///< forced strategy ("" = default)

    /** SIGKILL one worker after this many completions; 0 = never. */
    std::size_t kill_after = 0;
    bool respawn = false;

    // Deterministic fault injection inside the workers.
    uint64_t fault_seed = 0;
    double chip_mtbf = 0.0;
    double transient_p = 0.0;
    double conn_drop_p = 0.0;

    /** Minimum completed/admitted ratio; 0 disables the gate. */
    double min_completion = 0.0;

    // Worker-role plumbing (set via hidden flags on re-exec).
    bool worker_role = false;
    uint64_t worker_id = 0;
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
        else if ((v = num("--group")) >= 0)
            cfg.group = static_cast<std::size_t>(v);
        else if ((v = num("--queue")) >= 0)
            cfg.queue = static_cast<std::size_t>(v);
        else if ((v = num("--dilation")) >= 0)
            cfg.dilation = v;
        else if ((v = num("--port")) >= 0)
            cfg.port = static_cast<uint16_t>(v);
        else if ((v = num("--batch-max-streams")) >= 0)
            cfg.batch_max_streams = static_cast<std::size_t>(v);
        else if ((v = num("--batch-linger-ms")) >= 0)
            cfg.batch_linger_ms = v;
        else if ((v = num("--kill-worker-after")) >= 0)
            cfg.kill_after = static_cast<std::size_t>(v);
        else if ((v = num("--fault-seed")) >= 0)
            cfg.fault_seed = static_cast<uint64_t>(v);
        else if ((v = num("--chip-mtbf")) >= 0)
            cfg.chip_mtbf = v;
        else if ((v = num("--transient-p")) >= 0)
            cfg.transient_p = v;
        else if ((v = num("--conn-drop-p")) >= 0)
            cfg.conn_drop_p = v;
        else if ((v = num("--min-completion")) >= 0)
            cfg.min_completion = v;
        else if ((v = num("--id")) >= 0)
            cfg.worker_id = static_cast<uint64_t>(v);
        else if (std::strcmp(argv[i], "--respawn") == 0)
            cfg.respawn = true;
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
        } else if (std::strcmp(argv[i], "--role") == 0 &&
                 i + 1 < argc) {
            cfg.worker_role = std::strcmp(argv[++i], "worker") == 0;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            std::exit(2);
        }
    }
    if (!cfg.worker_role && cfg.requests == 0) {
        std::fprintf(stderr, "--requests must be at least 1\n");
        std::exit(2);
    }
    if (!cfg.worker_role && cfg.workers == 0) {
        std::fprintf(stderr, "--workers must be at least 1\n");
        std::exit(2);
    }
    return cfg;
}

/** The same mixed tenant trace as serve_demo: workload and seed of
    request i. Identical traces are what make the two runs'
    digests comparable id by id. */
Workload
traceWorkload(std::size_t i)
{
    switch (i % 6) {
    case 0: return Workload::Bootstrap;
    case 1: return Workload::ResNet;
    case 2: return Workload::Helr;
    case 3: return Workload::Bert;
    case 4: return Workload::ObliviousJoin;
    default: return Workload::Keyswitch;
    }
}

faults::FaultConfig
faultConfig(const DemoConfig &cfg)
{
    faults::FaultConfig f;
    f.seed = cfg.fault_seed;
    f.chip_mtbf_requests = cfg.chip_mtbf;
    f.transient_p = cfg.transient_p;
    f.conn_drop_p = cfg.conn_drop_p;
    return f;
}

/** Worker role: connect to the front-end and serve until drained. */
int
runWorkerRole(const DemoConfig &cfg)
{
    auto params = fhe::CkksParams::makeTest(1 << 8, 16, 4);
    fhe::CkksContext ctx(params);
    remote::WorkerOptions opt;
    opt.port = cfg.port;
    opt.worker_id = cfg.worker_id;
    opt.group_size = cfg.group;
    opt.time_dilation = cfg.dilation;
    opt.faults = faultConfig(cfg);
    opt.autotune = cfg.autotune;
    opt.strategy = cfg.strategy;
    return remote::runWorker(ctx, opt);
}

/** The in-process baseline: same trace, single process. */
std::map<uint64_t, uint64_t>
runBaseline(const fhe::CkksContext &ctx, const DemoConfig &cfg)
{
    ServeOptions opt;
    opt.chips = cfg.workers * cfg.group;
    opt.group_size = cfg.group;
    opt.workers = cfg.workers;
    opt.queue_capacity = cfg.queue;
    opt.time_dilation = cfg.dilation;
    opt.autotune = cfg.autotune;
    opt.strategy = cfg.strategy;
    Server server(ctx, opt);
    server.start();
    for (std::size_t i = 0; i < cfg.requests; ++i)
        server.submit(traceWorkload(i), 1000 + i);
    server.drainAndStop();
    std::map<uint64_t, uint64_t> hashes;
    for (const auto &r : server.responses())
        if (r.status == RequestStatus::Completed)
            hashes[r.id] = r.output_hash;
    return hashes;
}

std::vector<std::string>
workerArgv(const DemoConfig &cfg, uint16_t port, uint64_t worker_id)
{
    auto s = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        return std::string(buf);
    };
    std::vector<std::string> args = {
        "/proc/self/exe",
        "--role", "worker",
        "--port", std::to_string(port),
        "--id", std::to_string(worker_id),
        "--group", std::to_string(cfg.group),
        "--dilation", s(cfg.dilation),
        "--fault-seed", std::to_string(cfg.fault_seed),
        "--chip-mtbf", s(cfg.chip_mtbf),
        "--transient-p", s(cfg.transient_p),
        "--conn-drop-p", s(cfg.conn_drop_p),
    };
    if (cfg.autotune)
        args.push_back("--autotune");
    if (!cfg.strategy.empty()) {
        args.push_back("--strategy");
        args.push_back(cfg.strategy);
    }
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const DemoConfig cfg = parseArgs(argc, argv);
    if (cfg.worker_role)
        return runWorkerRole(cfg);

    std::printf("serve_distributed: %zu-request trace, 1 front-end + "
                "%zu worker processes (one %zu-chip group each) over "
                "loopback TCP\n\n",
                cfg.requests, cfg.workers, cfg.group);

    auto params = fhe::CkksParams::makeTest(1 << 8, 16, 4);
    fhe::CkksContext ctx(params);

    std::printf("--- in-process baseline (digest reference) ---\n");
    const auto baseline = runBaseline(ctx, cfg);
    std::printf("  %zu/%zu requests completed in-process\n\n",
                baseline.size(), cfg.requests);

    std::printf("--- distributed run ---\n");
    remote::FrontEndOptions fe_opt;
    fe_opt.workers = cfg.workers;
    fe_opt.group_size = cfg.group;
    fe_opt.queue_capacity = cfg.queue;
    fe_opt.port = cfg.port;
    fe_opt.batch_max_streams = cfg.batch_max_streams;
    fe_opt.batch_linger_ms = cfg.batch_linger_ms;
    if (cfg.batch_max_streams > 1)
        std::printf("  continuous batching: up to %zu streams per "
                    "Submit, linger %.1f ms\n",
                    cfg.batch_max_streams, cfg.batch_linger_ms);
    remote::RemoteFrontEnd frontend(fe_opt);
    if (!frontend.start()) {
        std::fprintf(stderr, "cannot bind loopback port %u\n",
                     cfg.port);
        return 1;
    }
    std::printf("  front-end listening on 127.0.0.1:%u\n",
                frontend.port());

    remote::ProcessSupervisor supervisor;
    std::vector<pid_t> worker_pids;
    for (std::size_t w = 0; w < cfg.workers; ++w) {
        const pid_t pid = supervisor.spawn(
            workerArgv(cfg, frontend.port(), w));
        if (pid < 0) {
            std::fprintf(stderr, "cannot spawn worker %zu\n", w);
            return 1;
        }
        worker_pids.push_back(pid);
        std::printf("  spawned worker %zu (pid %d)\n", w, pid);
    }
    if (!frontend.waitForWorkers(cfg.workers)) {
        std::fprintf(stderr, "workers did not connect in time\n");
        return 1;
    }
    std::printf("  %zu workers connected\n", cfg.workers);

    for (std::size_t i = 0; i < cfg.requests; ++i)
        frontend.submit(traceWorkload(i), 1000 + i);

    // The resilience drill: once the trace is partially served,
    // SIGKILL a worker mid-run. Its group must be quarantined, its
    // in-flight request requeued, and every remaining request served
    // by the survivors — zero loss, identical digests.
    bool killed = false;
    std::size_t respawned_id = cfg.workers;
    while (true) {
        const auto stats = frontend.stats();
        const std::size_t done =
            stats.completed + stats.expired + stats.failed;
        if (done >= cfg.requests - stats.rejected)
            break;
        if (!killed && cfg.kill_after > 0 &&
            stats.completed >= cfg.kill_after) {
            killed = true;
            std::printf("  [drill] SIGKILL worker 0 (pid %d) after "
                        "%zu completions\n",
                        worker_pids[0], stats.completed);
            supervisor.kill(worker_pids[0], SIGKILL);
        }
        if (cfg.respawn) {
            for (std::size_t w = 0; w < worker_pids.size(); ++w) {
                if (supervisor.alive(worker_pids[w]))
                    continue;
                // Replacement ids keep the slot: id ≡ w (mod workers).
                const uint64_t id = respawned_id + w;
                respawned_id += cfg.workers;
                const pid_t pid = supervisor.spawn(
                    workerArgv(cfg, frontend.port(), id));
                if (pid >= 0) {
                    std::printf("  [respawn] worker slot %zu -> "
                                "pid %d\n",
                                w, pid);
                    worker_pids[w] = pid;
                }
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    frontend.drainAndStop();
    const auto stats = frontend.stats();
    std::printf("%s\n", stats.report().c_str());

    // Gate 1: determinism. Every commonly-completed request must have
    // the exact digest the in-process run produced.
    std::map<uint64_t, uint64_t> distributed;
    for (const auto &r : frontend.responses())
        if (r.status == RequestStatus::Completed)
            distributed[r.id] = r.output_hash;
    std::size_t common = 0, mismatched = 0;
    for (const auto &[id, hash] : baseline) {
        auto it = distributed.find(id);
        if (it == distributed.end())
            continue;
        ++common;
        if (it->second != hash)
            ++mismatched;
    }
    const bool identical = common > 0 && mismatched == 0;
    std::printf("digests bit-identical to in-process execution "
                "(%zu commonly-completed requests): %s\n",
                common, identical ? "yes" : "NO");

    // Gate 2: conservation — no request is ever lost, even across a
    // SIGKILL with a request in flight.
    const std::size_t accounted = stats.completed + stats.rejected +
                                  stats.expired + stats.failed;
    const bool conserved = accounted == stats.submitted;
    std::printf("request conservation: %zu completed + %zu rejected "
                "+ %zu expired + %zu failed == %zu submitted: %s\n",
                stats.completed, stats.rejected, stats.expired,
                stats.failed, stats.submitted,
                conserved ? "yes" : "NO");

    // Gate 3: completion rate (the CI resilience gate).
    const std::size_t admitted = stats.submitted - stats.rejected;
    const double completion_rate =
        admitted > 0 ? static_cast<double>(stats.completed) /
                           static_cast<double>(admitted)
                     : 1.0;
    bool completion_ok = true;
    if (cfg.min_completion > 0.0) {
        completion_ok = completion_rate >= cfg.min_completion;
        std::printf("completion rate: %.1f%% of %zu admitted "
                    "(gate: %.1f%%): %s\n",
                    100.0 * completion_rate, admitted,
                    100.0 * cfg.min_completion,
                    completion_ok ? "ok" : "BELOW GATE");
    }
    if (killed)
        std::printf("kill drill: worker death mapped onto group "
                    "quarantine; %zu attempts requeued onto "
                    "surviving hardware\n",
                    stats.requeued);

    // Orderly shutdown of surviving workers (Drain already sent by
    // drainAndStop; collect their exit codes).
    for (std::size_t w = 0; w < worker_pids.size(); ++w) {
        const int code = supervisor.wait(worker_pids[w]);
        std::printf("  worker slot %zu exit status: %d\n", w, code);
    }

    if (!identical || !conserved || !completion_ok) {
        std::fprintf(stderr, "serve_distributed: GATE FAILURE\n");
        return 1;
    }
    std::printf("\nserve_distributed: all gates passed\n");
    return 0;
}
