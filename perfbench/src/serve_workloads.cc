/**
 * @file
 * serve_open and serve_burst: open-loop traffic against an in-process
 * serve::Server (the demo deployment: n = 2^8 test parameters, 8
 * chips in 2 groups of 4, one host worker per group).
 *
 * serve_open sends Poisson arrivals, one request at a time, to the
 * unbatched path with no device dwell, so every request pays the host
 * request path: key generation, encryption, key materialization and a
 * small emulation. serve_burst sends bursts from a skewed tag mix to
 * the batched path (processBatch / executeSeededBatch) with a device
 * dwell of the same order as the host service time.
 *
 * Every request is timed from its scheduled send. After the run the
 * benchmark replays each tenant seed through public calls, following
 * EmulateBackend::executeSeeded's recipe step by step, and checks
 * each completed digest against that replay; the replay's step times
 * are the fhe / compiler / isa / exec layer figures of the request
 * path.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "common/metrics.h"
#include "common/random.h"
#include "compiler/runtime.h"
#include "exec/backend.h"
#include "fhe/evaluator.h"
#include "harness.h"
#include "serve/plan_cache.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using namespace cinnamon;
using serve::RequestStatus;
using serve::Workload;

constexpr Workload kTags[] = {Workload::Bootstrap, Workload::ResNet,
                              Workload::Helr,      Workload::Bert,
                              Workload::Keyswitch,
                              Workload::ObliviousJoin};
constexpr std::size_t kNumTags = sizeof(kTags) / sizeof(kTags[0]);

/**
 * A run whose generator sent its requests later, on average, than this
 * share of the mean inter-arrival gap is invalid: the offered load was
 * not the one stated. The mean, not the p99, decides: a host stall of a
 * few tens of ms delays every send behind it and moves the p99 past a
 * whole gap, yet the run still offered the stated load, and each
 * request is timed from its scheduled send either way.
 */
constexpr double kMaxLagShare = 0.25;

/**
 * Extra warm-up requests sent as one backlog before timing: the first
 * few hundred requests of a fresh process run at about half speed
 * while its heap first touches memory, which would otherwise land in
 * the timed phase as a queueing stall.
 */
constexpr std::size_t kWarmRequests = 384;

/** The seed the executeSeeded recipe draws input values from. */
constexpr uint64_t kDataSeedMix = 0x9e3779b97f4a7c15ull;

struct ServeShape
{
    const char *name;
    double rate_rps;        ///< mean offered load
    bool bursty;            ///< bursts instead of single arrivals
    std::size_t batch_max_streams;
    double batch_linger_ms;
    double time_dilation;   ///< device dwell per simulated second
    double slo_ms;          ///< latency limit from scheduled send
    double tag_weights[kNumTags];
    /** Tenant seeds requests draw from; 0 = a fresh seed per request. */
    std::size_t tenants;
};

// On a 4-core host serve_open saturates near 560 req/s and serve_burst
// near 140 req/s. serve_burst runs at half that; serve_open at about a
// quarter, where its tail stays steady from run to run (README.md).
// Each SLO sits at 2-5x the healthy tail. The tag weights, the tenant
// counts and the burst sizes are assumed traffic, not measured: each
// serving path gets one tenant regime, so a per-tenant key cache sees
// its best case (serve_open, 32 tenants) and its worst (serve_burst,
// no tenant repeats).
const ServeShape kOpen = {"serve_open", 150.0, false, 1, 0.0, 0.0,
                          40.0, {1, 1, 1, 1, 1, 1}, 32};
const ServeShape kBurst = {"serve_burst", 70.0, true, 2, 2.0, 125.0,
                           150.0, {10, 1, 1, 1, 1, 1}, 0};

struct Arrival
{
    double at_s = 0.0;
    Workload tag = Workload::Keyswitch;
    uint64_t seed = 0;
};

/**
 * The arrival schedule: a fixed request count spread over `seconds`
 * as sorted uniform times (a Poisson process conditioned on its
 * count), so the offered load is the same on every seed. Bursty
 * schedules send groups of 1-6 requests at one instant, one group per
 * time slot.
 */
std::vector<Arrival>
makeSchedule(const ServeShape &shape, uint64_t seed, double seconds)
{
    Rng rng(splitmix(seed));
    const auto n = static_cast<std::size_t>(
        std::max(1.0, std::round(shape.rate_rps * seconds)));
    std::vector<double> times;
    times.reserve(n);
    if (!shape.bursty) {
        for (std::size_t i = 0; i < n; ++i)
            times.push_back(rng.uniformReal(0.0, seconds));
    } else {
        // Burst sizes cycle through shuffled copies of {1,2,3,4,6}
        // (mean 3.2); burst k lands uniformly inside the k-th of
        // equal slots, so bursts never pile onto each other the way
        // unconstrained uniform times would.
        const std::size_t bursts = (n * 5 + 15) / 16;
        const double slot = seconds / static_cast<double>(bursts);
        std::vector<std::size_t> sizes = {1, 2, 3, 4, 6};
        for (std::size_t b = 0; times.size() < n; ++b) {
            if (b % sizes.size() == 0)
                for (std::size_t i = sizes.size(); i > 1; --i)
                    std::swap(sizes[i - 1], sizes[rng.uniformMod(i)]);
            const double at =
                (static_cast<double>(b % bursts) +
                 rng.uniformReal(0.0, 1.0)) * slot;
            for (std::size_t k = 0;
                 k < sizes[b % sizes.size()] && times.size() < n; ++k)
                times.push_back(at);
        }
    }
    std::sort(times.begin(), times.end());

    // Tenant seeds: a pool of shape.tenants, or one per request.
    const std::size_t pool = shape.tenants > 0 ? shape.tenants : n;
    std::vector<uint64_t> tenants(pool);
    for (std::size_t i = 0; i < pool; ++i)
        tenants[i] = splitmix(seed * pool + i + 1) >> 16;

    double weight_sum = 0.0;
    for (double w : shape.tag_weights)
        weight_sum += w;
    std::vector<Arrival> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].at_s = times[i];
        double u = rng.uniformReal(0.0, weight_sum);
        std::size_t t = 0;
        while (t + 1 < kNumTags && u >= shape.tag_weights[t])
            u -= shape.tag_weights[t++];
        out[i].tag = kTags[t];
        out[i].seed = shape.tenants > 0 ? tenants[rng.uniformMod(pool)]
                                        : tenants[i];
    }
    return out;
}

/** Share of arrivals whose tenant seed an earlier arrival used. */
double
repeatTenantRatio(const std::vector<Arrival> &arrivals)
{
    std::set<uint64_t> seen;
    std::size_t repeats = 0;
    for (const auto &a : arrivals)
        repeats += !seen.insert(a.seed).second;
    return static_cast<double>(repeats) /
           static_cast<double>(arrivals.size());
}

serve::ServeOptions
serveOptions(const ServeShape &shape, bool traced)
{
    serve::ServeOptions opt;
    opt.chips = 8;
    opt.group_size = 4;
    opt.workers = 2; // one host worker per chip group
    opt.queue_capacity = 1 << 16;
    opt.emulate = true;
    opt.time_dilation = shape.time_dilation;
    opt.batch_max_streams = shape.batch_max_streams;
    opt.batch_linger_ms = shape.batch_linger_ms;
    opt.trace = traced;
    return opt;
}

std::size_t
finalResponses(const serve::Server &server)
{
    std::size_t n = 0;
    for (const auto &r : server.responses())
        n += r.status != RequestStatus::Retried;
    return n;
}

/**
 * Fill the server's compile, simulation and plan caches: one lone
 * request (the single-stream plan), then two back-to-back requests
 * of every tag (each tag's simulation; the two-stream plan when
 * batching). Returns the requests submitted.
 */
std::size_t
warmUp(serve::Server &server, uint64_t seed)
{
    std::size_t submitted = 0;
    auto settle = [&] {
        while (finalResponses(server) < submitted)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    server.submit(kTags[0], seed);
    ++submitted;
    settle();
    for (Workload tag : kTags) {
        server.submit(tag, seed);
        server.submit(tag, seed + 1);
        submitted += 2;
    }
    settle();
    // Keyswitch simulates shortest, so the backlog dwells least.
    for (std::size_t i = 0; i < kWarmRequests; ++i)
        server.submit(Workload::Keyswitch, seed + i);
    submitted += kWarmRequests;
    settle();
    return submitted;
}

/**
 * Timestamps completions from outside the server. The registry's
 * serve.requests.completed counter is bumped right before each
 * Completed response is appended, so its k-th tick is the k-th
 * Completed row of Server::responses(). Response::total_ms cannot
 * stand in: a batch member handed back to the queue (its lease got
 * fewer groups than members) restarts its admission stamp.
 */
class CompletionWatcher
{
  public:
    CompletionWatcher()
        : counter_(MetricsRegistry::global().counter(
              "serve.requests.completed")),
          base_(counter_.value()), thread_([this] { loop(); })
    {
    }

    ~CompletionWatcher()
    {
        if (thread_.joinable())
            stop();
    }

    CompletionWatcher(const CompletionWatcher &) = delete;
    CompletionWatcher &operator=(const CompletionWatcher &) = delete;

    /** Stop watching; the completion times in tick order. */
    std::vector<Clock::time_point>
    stop()
    {
        stop_ = true;
        thread_.join();
        sweep();
        return std::move(times_);
    }

  private:
    void
    sweep()
    {
        const double seen = counter_.value() - base_;
        const auto now = Clock::now();
        while (static_cast<double>(times_.size()) < seen)
            times_.push_back(now);
    }

    void
    loop()
    {
        while (!stop_) {
            sweep();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    Counter &counter_;
    const double base_;
    std::atomic<bool> stop_{false};
    std::vector<Clock::time_point> times_; ///< written by thread_ only
    std::thread thread_;
};

/** What one timed serving phase measured. */
struct Phase
{
    std::size_t submitted = 0, completed = 0, rejected = 0,
                expired = 0, failed = 0, slo_met = 0;
    double wall_s = 0.0;
    double mean_gap_ms = 0.0;
    std::vector<double> latency_ms, lag_ms;
    std::vector<double> queue_ms, service_ms, sim_s, batch_streams;
    std::vector<double> acquire_ms, simulate_ms;
    std::vector<double> warm_compile_ms;
    /** Completed request id -> (seed, digest). */
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> digests;
    RegistrySnapshot delta;
    CacheStats plan_cache;
    double group_busy_ratio = 0.0;
    double slice_occupancy = 0.0;
    std::size_t registry_completed = 0;
};

/**
 * Build a server (traced when `trace` is enabled), warm it, then send
 * `arrivals` open loop and drain. `clock` (may be null) marks the end
 * of set-up; returns false when the run is set-up only.
 */
bool
runPhase(const fhe::CkksContext &ctx, const ServeShape &shape,
         const std::vector<Arrival> &arrivals, double seconds,
         BenchTrace &trace, RunClock *clock, CommonLayers *common,
         Phase &out)
{
    const bool traced = trace.enabled();
    const auto epoch = Clock::now();
    serve::Server server(ctx, serveOptions(shape, traced));
    server.start();
    const std::size_t warm = warmUp(server, arrivals.front().seed);
    for (const auto &r : server.responses())
        if (r.compile_ms > 0.0)
            out.warm_compile_ms.push_back(r.compile_ms);
    if (clock != nullptr && !clock->beginTimed()) {
        server.drainAndStop();
        return false;
    }

    if (common != nullptr)
        common->beginPhase();
    const auto base = RegistrySnapshot::take();
    const auto plan_base = server.planCache().stats();
    const auto busy_base = server.scheduler().busySeconds();

    // ids are assigned in submit order, and only this thread submits.
    const uint64_t first_id = warm + 1;
    std::vector<Clock::time_point> scheduled(arrivals.size()),
        sent(arrivals.size());
    CompletionWatcher watcher;
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        scheduled[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    arrivals[i].at_s));
        std::this_thread::sleep_until(scheduled[i]);
        sent[i] = Clock::now();
        auto s = trace.span("submit", 0, 0,
                            static_cast<double>(first_id + i));
        server.submit(arrivals[i].tag, arrivals[i].seed);
    }
    server.drainAndStop();
    const auto completions = watcher.stop();
    if (common != nullptr)
        common->endPhase();

    out.submitted = arrivals.size();
    out.mean_gap_ms = seconds * 1e3 / static_cast<double>(out.submitted);
    for (std::size_t i = 0; i < arrivals.size(); ++i)
        out.lag_ms.push_back(msBetween(scheduled[i], sent[i]));

    Clock::time_point last_done = t0;
    for (const auto &r : server.responses()) {
        if (r.id < first_id || r.status == RequestStatus::Retried)
            continue;
        const std::size_t i = r.id - first_id;
        switch (r.status) {
        case RequestStatus::Completed: break;
        case RequestStatus::Rejected: ++out.rejected; continue;
        case RequestStatus::Expired: ++out.expired; continue;
        default: ++out.failed; continue;
        }
        const auto done = completions.at(out.completed++);
        last_done = std::max(last_done, done);
        const double latency = msBetween(scheduled[i], done);
        out.latency_ms.push_back(latency);
        out.slo_met += latency <= shape.slo_ms;
        out.queue_ms.push_back(r.queue_ms);
        out.service_ms.push_back(r.service_ms);
        out.sim_s.push_back(r.sim_seconds);
        out.batch_streams.push_back(static_cast<double>(r.batch_streams));
        out.digests[r.id] = {arrivals[i].seed, r.output_hash};
        trace.interval("request", 1, scheduled[i], done, 0,
                       static_cast<double>(r.id));
    }
    out.wall_s = msBetween(t0, last_done) / 1e3;

    out.delta = RegistrySnapshot::take().minus(base);
    out.registry_completed = static_cast<std::size_t>(
        out.delta.counter("serve.requests.completed"));
    const auto plan_now = server.planCache().stats();
    out.plan_cache.hits = plan_now.hits - plan_base.hits;
    out.plan_cache.misses = plan_now.misses - plan_base.misses;
    const auto busy_now = server.scheduler().busySeconds();
    double busy = 0.0;
    for (std::size_t g = 0; g < busy_now.size(); ++g)
        busy += busy_now[g] - busy_base[g];
    out.group_busy_ratio =
        out.wall_s > 0 ? busy / (out.wall_s *
                                 static_cast<double>(busy_now.size()))
                       : 0.0;
    out.slice_occupancy = MetricsRegistry::global()
                              .gauge("emulator.slice.occupancy")
                              .value();

    if (traced) {
        const auto events = server.trace().events();
        for (const auto &e : events) {
            if (e.name == "acquire")
                out.acquire_ms.push_back(e.dur_us / 1e3);
            else if (e.name == "simulate")
                out.simulate_ms.push_back(e.dur_us / 1e3);
        }
        trace.merge(server.trace(), epoch);
    }
    return true;
}

/** The request path of one tenant seed, re-executed step by step. */
struct Replay
{
    std::map<uint64_t, uint64_t> digest; ///< seed -> digest
    std::vector<double> keygen_ms, encrypt_ms, materialize_ms,
        emulate_ms, digest_ms, limb_ops_per_s;
    double compile_ms = 0.0;
};

Replay
replaySeeds(const fhe::CkksContext &ctx, const compiler::Program &probe,
            const std::set<uint64_t> &seeds, BenchTrace &trace)
{
    Replay out;
    // The serving tier's single-stream probe plan on one 4-chip group.
    compiler::CompilerConfig cfg;
    cfg.chips = 4;
    cfg.num_streams = 1;
    cfg.phys_regs = serve::ServeOptions().hw.phys_regs;
    serve::PlanCache plans(ctx);
    const auto &plan = plans.get(probe, cfg, &out.compile_ms);
    fhe::Encoder encoder(ctx);
    isa::EmulatorCache emu_cache(ctx);
    auto &emu_run_ms = MetricsRegistry::global().histogram(
        "emulator.run_ms");

    for (const uint64_t seed : seeds) {
        const auto root = trace.span("replay", 2, 0);
        auto t = Clock::now();
        auto lap = [&t] {
            const auto now = Clock::now();
            const double ms = msBetween(t, now);
            t = now;
            return ms;
        };

        std::optional<fhe::KeyGenerator> keygen;
        std::optional<fhe::SecretKey> sk;
        {
            auto s = trace.span("fhe.keygen", 2, root.id);
            keygen.emplace(ctx, seed);
            sk.emplace(keygen->secretKey());
        }
        out.keygen_ms.push_back(lap());

        fhe::Evaluator eval(ctx);
        Rng data_rng(seed ^ kDataSeedMix);
        compiler::ProgramRuntime runtime(ctx, encoder, *keygen, *sk);
        runtime.setEmulatorCache(&emu_cache);
        {
            auto s = trace.span("fhe.encrypt", 2, root.id);
            for (const compiler::CtOp &op : probe.ops()) {
                if (op.kind != compiler::CtOpKind::Input)
                    continue;
                std::vector<fhe::Cplx> values(ctx.slots());
                for (auto &v : values)
                    v = fhe::Cplx(data_rng.uniformReal(-1.0, 1.0), 0.0);
                auto plain = encoder.encode(values, op.level);
                auto ct = eval.encrypt(plain, ctx.params().scale, *sk,
                                       data_rng);
                runtime.bindInput(op.name, ct);
            }
        }
        out.encrypt_ms.push_back(lap());

        // EmulateBackend::execute: pooled run, then the digest.
        std::map<std::string, fhe::Ciphertext> outputs;
        const double emu_before = emu_run_ms.snapshot().sum;
        {
            auto s = trace.span("compiler.run", 2, root.id);
            runtime.setEmulatorWorkers(0);
            outputs = runtime.run(plan);
        }
        const double run_ms = lap();
        const double emu_ms = emu_run_ms.snapshot().sum - emu_before;
        out.emulate_ms.push_back(emu_ms);
        out.materialize_ms.push_back(run_ms - emu_ms);
        out.limb_ops_per_s.push_back(
            static_cast<double>(runtime.lastStats().total()) /
            (emu_ms / 1e3));
        {
            auto s = trace.span("exec.digest", 2, root.id);
            out.digest[seed] = exec::hashOutputs(outputs);
        }
        out.digest_ms.push_back(lap());
    }
    return out;
}

/** Correctness and accounting checks shared by both trace modes. */
std::size_t
checkPhase(const Phase &p, const Replay &replay, Result &r,
           const char *label)
{
    std::size_t mismatched = 0;
    for (const auto &[id, sd] : p.digests) {
        auto it = replay.digest.find(sd.first);
        if (it == replay.digest.end() || it->second != sd.second)
            ++mismatched;
    }
    const std::string tag = std::string(label) + ": ";
    r.check(mismatched == 0,
            tag + std::to_string(mismatched) +
                " completed digests differ from the replay");
    r.check(p.completed + p.rejected + p.expired + p.failed ==
                p.submitted,
            tag + "completed + rejected + expired + failed != submitted");
    r.check(p.registry_completed == p.completed,
            tag + "registry completed delta " +
                std::to_string(p.registry_completed) +
                " != benchmark count " + std::to_string(p.completed));
    const double lag_mean = mean(p.lag_ms);
    r.check(lag_mean <= kMaxLagShare * p.mean_gap_ms,
            tag + "generator fell behind: mean lag " +
                std::to_string(lag_mean) + " ms > " +
                std::to_string(kMaxLagShare) +
                " x mean gap " + std::to_string(p.mean_gap_ms) + " ms");
    char line[288];
    std::snprintf(line, sizeof(line),
                  "%s: %zu submitted = %zu completed + %zu rejected + "
                  "%zu expired + %zu failed; %zu digest mismatches; "
                  "generator lag mean %.3f ms (limit %.3f ms), p99 %.3f ms",
                  label, p.submitted, p.completed, p.rejected, p.expired,
                  p.failed, mismatched, lag_mean,
                  kMaxLagShare * p.mean_gap_ms,
                  serve::percentile(p.lag_ms, 99.0));
    r.note(line);
    return mismatched;
}

Result
runServe(const ServeShape &shape, const Options &opt, RunClock &clock)
{
    Result r;
    CommonLayers common;
    common.process_base = RegistrySnapshot::take();
    BenchTrace trace(opt.trace);

    fhe::CkksContext ctx(fhe::CkksParams::makeTest(1 << 8, 16, 4));
    const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    const auto arrivals = makeSchedule(shape, opt.seed, phase_s);

    // Traced runs measure an untraced half first, for the overhead.
    BenchTrace off(false);
    Phase plain, traced;
    if (!runPhase(ctx, shape, arrivals, phase_s, off, &clock, nullptr,
                  plain))
        return r;
    if (opt.trace)
        runPhase(ctx, shape, arrivals, phase_s, trace, nullptr, &common,
                 traced);
    const Phase &main = opt.trace ? traced : plain;

    std::set<uint64_t> seeds;
    for (const auto &a : arrivals)
        seeds.insert(a.seed);
    const serve::WorkloadCatalog catalog(ctx);
    const Replay replay = replaySeeds(ctx, catalog.probe(), seeds, trace);

    std::size_t mismatched = checkPhase(plain, replay, r, "untraced");
    if (opt.trace)
        mismatched = checkPhase(traced, replay, r, "traced");

    const std::size_t errors =
        main.failed + main.expired + main.rejected + mismatched;
    r.attempted = main.submitted;
    r.failed = errors;
    const auto lat = summarize(main.latency_ms);
    char line[224];
    std::snprintf(line, sizeof(line),
                  "; SLO %.0f ms met by %zu/%zu; error_rate %.4f; offered "
                  "%.0f req/s for %.3g s; %zu tenant seeds, repeat-tenant "
                  "share %.3f",
                  shape.slo_ms, main.slo_met, main.submitted,
                  static_cast<double>(errors) /
                      static_cast<double>(main.submitted),
                  shape.rate_rps, phase_s, seeds.size(),
                  repeatTenantRatio(arrivals));
    r.note("latency: " + describe(lat, "requests") + line);
    // Served capacity from the groups' busy share: unlike
    // throughput_ops_s, which the open-loop schedule fixes, it follows
    // the host service time (and, on serve_burst, the dwell).
    r.note("served capacity (completed / (wall x group busy share)): " +
           std::to_string(main.group_busy_ratio > 0
                              ? static_cast<double>(main.completed) /
                                    (main.wall_s * main.group_busy_ratio)
                              : 0.0) +
           " req/s");

    if (!opt.trace) {
        addEndToEnd(r, main.completed, main.wall_s, lat, main.slo_met,
                    main.submitted, errors);
        return r;
    }

    // Per-layer figures of the traced half.
    const auto &d = main.delta;
    r.layer("serve.queue_ms.p50", median(main.queue_ms), "ms");
    r.layer("serve.queue_ms.p99", serve::percentile(main.queue_ms, 99),
            "ms");
    r.layer("serve.service_ms.p50", median(main.service_ms), "ms");
    r.layer("serve.acquire_ms.p99",
            serve::percentile(main.acquire_ms, 99), "ms");
    r.layer("serve.plan_cache.hit_ratio", main.plan_cache.hitRate(),
            "ratio");
    r.layer("serve.plan_cache.lookups",
            static_cast<double>(main.plan_cache.lookups()), "count");
    r.layer("serve.batch.occupancy_mean", mean(main.batch_streams),
            "count");
    const double lingers = d.histCount("serve.batch.linger_wait_ms");
    r.layer("serve.batch.linger_ms.mean",
            lingers > 0 ? d.histSum("serve.batch.linger_wait_ms") / lingers
                        : 0.0,
            "ms");
    r.layer("serve.group_busy_ratio", main.group_busy_ratio, "ratio");
    r.layer("serve.sim_s.p50", median(main.sim_s), "s");
    r.layer("fhe.keygen_ms.p50", median(replay.keygen_ms), "ms");
    r.layer("fhe.encrypt_ms.p50", median(replay.encrypt_ms), "ms");
    r.layer("compiler.materialize_ms.p50", median(replay.materialize_ms),
            "ms");
    r.layer("isa.run_ms.p50", median(replay.emulate_ms), "ms");
    const double limb_ops_per_s = median(replay.limb_ops_per_s);
    r.layer("isa.limb_ops_per_s", limb_ops_per_s, "1/s");
    const double limbs = d.counter("emulator.limbs_executed");
    r.layer("isa.sliced_ops_ratio",
            limbs > 0 ? d.counter("emulator.slice.sliced_ops") / limbs
                      : 0.0,
            "ratio");
    r.layer("isa.slice.occupancy", main.slice_occupancy, "ratio");
    const double reuse = d.counter("emulator.cache.reuse");
    const double fresh = d.counter("emulator.cache.create");
    r.layer("isa.cache.reuse_ratio",
            reuse + fresh > 0 ? reuse / (reuse + fresh) : 0.0, "ratio");
    r.layer("exec.digest_ms.p50", median(replay.digest_ms), "ms");
    r.layer("bench.gen_lag_ms.p99", serve::percentile(main.lag_ms, 99),
            "ms");
    r.layer("bench.repeat_tenant_ratio", repeatTenantRatio(arrivals),
            "ratio");

    std::vector<double> compile_ms = main.warm_compile_ms;
    compile_ms.push_back(replay.compile_ms);
    const auto plain_lat = summarize(plain.latency_ms);
    common.report(r, main.completed, compile_ms, main.simulate_ms,
                  plain_lat.p50 > 0 ? lat.p50 / plain_lat.p50 : 0.0);
    r.note("trace: " + std::to_string(trace.size()) + " events -> " +
           opt.trace_out);
    r.check(opt.trace_out.empty() || trace.write(opt.trace_out),
            "writing the trace to " + opt.trace_out);
    return r;
}

} // namespace

Result
runServeOpen(const Options &opt, RunClock &clock)
{
    return runServe(kOpen, opt, clock);
}

Result
runServeBurst(const Options &opt, RunClock &clock)
{
    return runServe(kBurst, opt, clock);
}

} // namespace perfbench
