#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/metrics.h"
#include "common/task_pool.h"
#include "rns/kernels.h"
#include "rns/ntt.h"
#include "rns/prime_gen.h"
#include "serve/stats.h"

namespace perfbench {

using cinnamon::MetricsRegistry;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

uint64_t
splitmix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

void
Result::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    note("CHECK FAILED: " + what);
}

RunClock::RunClock(const Options &opt) : opt_(&opt) {}

bool
RunClock::beginTimed()
{
    const int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count();
    setup_s_ = static_cast<double>(now_ns - opt_->spawn_ns) / 1e9;
    return !opt_->setup_only;
}

double
median(std::vector<double> samples)
{
    return cinnamon::serve::percentile(std::move(samples), 50.0);
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

LatencySummary
summarize(const std::vector<double> &samples)
{
    LatencySummary s;
    s.count = samples.size();
    s.p50 = median(samples);
    s.windows = std::clamp<std::size_t>(samples.size() / kWindowSamples,
                                        1, kMaxTailWindows);
    const std::size_t len = samples.size() / s.windows;
    // Highest percentile with >= 10 samples beyond it in a window.
    const double n = static_cast<double>(len);
    s.tail_pct = n >= 20.0 ? 100.0 * (1.0 - 10.0 / n) : 100.0;
    std::vector<double> tails;
    for (std::size_t w = 0; w < s.windows; ++w) {
        const auto first = samples.begin() + static_cast<long>(w * len);
        const auto last = w + 1 == s.windows
                              ? samples.end()
                              : first + static_cast<long>(len);
        tails.push_back(cinnamon::serve::percentile(
            std::vector<double>(first, last), s.tail_pct));
    }
    s.tail = median(tails);
    return s;
}

std::string
describe(const LatencySummary &s, const char *what)
{
    char windows[48] = "";
    if (s.windows > 1)
        std::snprintf(windows, sizeof(windows), " (median of %zu windows)",
                      s.windows);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "p50 %.3f ms, tail p%.2f %.3f ms%s over %zu %s", s.p50,
                  s.tail_pct, s.tail, windows, s.count, what);
    return line;
}

double
cpuSeconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) / 1e6;
    };
    return sec(u.ru_utime) + sec(u.ru_stime);
}

double
peakRssMb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // KiB on Linux
}

std::size_t
poolParallelism()
{
    return cinnamon::TaskPool::global().parallelism();
}

const std::vector<std::string> &
compilerPasses()
{
    static const std::vector<std::string> passes = {
        "expand-poly", "keyswitch", "lower-limb", "lower-isa",
        "regalloc"};
    return passes;
}

namespace {

const std::vector<std::string> &
counterNames()
{
    static const std::vector<std::string> names = {
        "serve.requests.completed",
        "serve.plan_cache.hit",
        "serve.plan_cache.miss",
        "sim.simulations",
        "sim.instructions",
        "sim.conservation.checks",
        "emulator.runs",
        "emulator.limbs_executed",
        "emulator.slice.sliced_ops",
        "emulator.cache.reuse",
        "emulator.cache.create",
        "pool.jobs",
        "pool.chunks",
        "pool.chunks_stolen",
        "compiler.pass.regalloc.ops_out",
    };
    return names;
}

std::vector<std::string>
histogramNames()
{
    std::vector<std::string> names = {
        "emulator.run_ms",
        "serve.batch.linger_wait_ms",
    };
    for (const auto &p : compilerPasses())
        names.push_back("compiler.pass." + p + ".ms");
    return names;
}

} // namespace

RegistrySnapshot
RegistrySnapshot::take()
{
    auto &reg = MetricsRegistry::global();
    RegistrySnapshot s;
    for (const auto &name : counterNames())
        s.counters[name] = reg.counter(name).value();
    for (const auto &name : histogramNames()) {
        const auto h = reg.histogram(name).snapshot();
        s.histograms[name] = {static_cast<double>(h.count), h.sum};
    }
    return s;
}

RegistrySnapshot
RegistrySnapshot::minus(const RegistrySnapshot &base) const
{
    RegistrySnapshot d = *this;
    for (auto &[name, v] : d.counters)
        v -= base.counter(name);
    for (auto &[name, v] : d.histograms) {
        v.first -= base.histCount(name);
        v.second -= base.histSum(name);
    }
    return d;
}

double
RegistrySnapshot::counter(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
}

double
RegistrySnapshot::histCount(const std::string &name) const
{
    auto it = histograms.find(name);
    return it == histograms.end() ? 0.0 : it->second.first;
}

double
RegistrySnapshot::histSum(const std::string &name) const
{
    auto it = histograms.find(name);
    return it == histograms.end() ? 0.0 : it->second.second;
}

BenchTrace::BenchTrace(bool enabled) : enabled_(enabled)
{
    if (!enabled_)
        return;
    recorder_.setProcessName(kBenchPid, "perfbench");
    recorder_.setProcessName(kServerPid, "cinnamon-serve");
}

BenchTrace::Span
BenchTrace::span(const std::string &name, uint32_t tid, uint64_t parent,
                 double rid)
{
    if (!enabled_)
        return {cinnamon::ScopedSpan(nullptr, "", "", 0, 0), 0};
    const uint64_t id = next_id_++;
    cinnamon::ScopedSpan s(&recorder_, name, "perfbench", kBenchPid,
                           tid);
    s.arg("sid", static_cast<double>(id));
    s.arg("parent", static_cast<double>(parent));
    if (rid >= 0.0)
        s.arg("rid", rid);
    return {std::move(s), id};
}

uint64_t
BenchTrace::interval(const std::string &name, uint32_t tid,
                     Clock::time_point start, Clock::time_point end,
                     uint64_t parent, double rid)
{
    if (!enabled_)
        return 0;
    cinnamon::TraceEvent e;
    e.name = name;
    e.category = "perfbench";
    e.pid = kBenchPid;
    e.tid = tid;
    e.ts_us = recorder_.toUs(start);
    e.dur_us = recorder_.toUs(end) - e.ts_us;
    const uint64_t id = next_id_++;
    e.num_args.emplace_back("sid", static_cast<double>(id));
    e.num_args.emplace_back("parent", static_cast<double>(parent));
    if (rid >= 0.0)
        e.num_args.emplace_back("rid", rid);
    recorder_.complete(std::move(e));
    return id;
}

void
BenchTrace::merge(const cinnamon::TraceRecorder &other,
                  Clock::time_point other_epoch)
{
    if (!enabled_)
        return;
    const double shift = recorder_.toUs(other_epoch);
    for (auto e : other.events()) {
        e.pid = kServerPid;
        e.ts_us += shift;
        recorder_.complete(std::move(e));
    }
}

bool
BenchTrace::write(const std::string &path) const
{
    return enabled_ && recorder_.writeFile(path);
}

void
addEndToEnd(Result &r, std::size_t completed, double wall_s,
            const LatencySummary &lat, std::size_t slo_met,
            std::size_t attempted, std::size_t errors)
{
    const auto share = [attempted](std::size_t k) {
        return static_cast<double>(k) / static_cast<double>(attempted);
    };
    r.add("throughput_ops_s", static_cast<double>(completed) / wall_s,
          "1/s");
    r.add("latency_p50_ms", lat.p50, "ms");
    r.add("latency_tail_ms", lat.tail, "ms");
    r.add("slo_met_ratio", share(slo_met), "ratio");
    r.add("success_ratio", 1.0 - share(errors), "ratio");
}

std::string
machineShapeJson()
{
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"pool_parallelism\": " << poolParallelism()
       << ", \"avx512_ifma\": "
       << (cinnamon::rns::avx512KernelTable() != nullptr ? "true"
                                                           : "false")
       << ", \"kernel_backend\": \""
       << cinnamon::rns::kernelBackendName() << "\""
       << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
       << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\"}";
    return os.str();
}

void
printResult(const Result &result)
{
    for (const auto &line : result.notes)
        std::printf("%s\n", line.c_str());
    auto table = [](const char *title, const std::vector<Metric> &ms) {
        if (ms.empty())
            return;
        std::printf("%s\n", title);
        for (const auto &m : ms)
            std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    };
    table("workload layers:", result.layers);
    table("metrics:", result.metrics);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                result.correct ? "true" : "false", result.attempted,
                result.failed);
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const auto &m = result.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
nttMicros()
{
    constexpr std::size_t n = 1u << 15;
    const uint64_t q = cinnamon::rns::generateNttPrimes(n, 50, 1).front();
    const cinnamon::rns::NttTable table(n, q);
    std::vector<uint64_t> a(n);
    for (std::size_t i = 0; i < n; ++i)
        a[i] = (i * 0x9e3779b97f4a7c15ull) % q;
    table.forward(a.data()); // warm the tables and the cache
    std::vector<double> us;
    for (int r = 0; r < 31; ++r) {
        const auto t0 = Clock::now();
        table.forward(a.data());
        us.push_back(msBetween(t0, Clock::now()) * 1e3);
    }
    return median(us);
}

void
CommonLayers::beginPhase()
{
    phase = RegistrySnapshot::take();
    cpu_s = cpuSeconds();
    wall_base = Clock::now();
}

void
CommonLayers::endPhase()
{
    wall_s = msBetween(wall_base, Clock::now()) / 1e3;
    cpu_s = cpuSeconds() - cpu_s;
    phase = RegistrySnapshot::take().minus(phase);
}

void
CommonLayers::report(Result &r, std::size_t ops,
                     const std::vector<double> &compile_ms,
                     const std::vector<double> &simulate_ms,
                     double trace_overhead)
{
    const auto process = RegistrySnapshot::take().minus(process_base);

    const double chunks = phase.counter("pool.chunks");
    r.add("common.pool.steal_ratio",
          chunks > 0 ? phase.counter("pool.chunks_stolen") / chunks : 0.0,
          "ratio");
    r.note("  common.pool.steal_ratio base: " +
           std::to_string(static_cast<long long>(chunks)) + " chunks");
    r.add("common.pool.jobs_per_op",
          ops > 0 ? phase.counter("pool.jobs") / static_cast<double>(ops)
                  : 0.0,
          "count");
    r.add("common.cpu_util",
          wall_s > 0 ? cpu_s / (wall_s *
                                static_cast<double>(poolParallelism()))
                     : 0.0,
          "ratio");

    r.add("compiler.compile_ms.p50", median(compile_ms), "ms");
    for (const auto &p : compilerPasses())
        r.add("compiler.pass." + p + ".ms",
              process.histSum("compiler.pass." + p + ".ms"), "ms");
    r.add("compiler.instructions",
          process.counter("compiler.pass.regalloc.ops_out"), "count");
    r.add("sim.simulate_ms.p50", median(simulate_ms), "ms");
    r.add("sim.instructions", process.counter("sim.instructions"),
          "count");
    ntt_us = nttMicros();
    r.add("rns.ntt_us", ntt_us, "us");
    r.add("bench.trace_overhead_ratio", trace_overhead, "ratio");
}

} // namespace perfbench
