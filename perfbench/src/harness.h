/**
 * @file
 * Shared plumbing of the benchmark: options, latency
 * summaries, phase-scoped registry deltas, CPU/RSS probes, the
 * benchmark's own span recorder, and the result line.
 *
 * The benchmark sees every layer from outside only: it times calls into
 * public functions, reads the serving tier's own stats and trace, and
 * takes deltas of the process-wide MetricsRegistry around each phase
 * (the registry is cumulative, so an absolute reading would mix the
 * set-up and warm-up phases into the timed one).
 */

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b);

/** SplitMix64 finalizer: derives independent sub-seeds from --seed. */
uint64_t splitmix(uint64_t x);

/** Command line of one benchmark process. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Stop right after set-up and report only setup_s. */
    bool setup_only = false;
    /** CLOCK_MONOTONIC ns at which the parent spawned this process. */
    int64_t spawn_ns = 0;
    std::string trace_out;
};

/** One named metric of the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main(). */
struct Result
{
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    /**
     * Per-layer metrics of layers only this workload exercises:
     * printed in the report, left out of the result line (whose
     * per-layer set is the one every workload measures).
     */
    std::vector<Metric> layers;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void layer(std::string name, double value, std::string unit)
    {
        layers.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string line) { notes.push_back(std::move(line)); }
    /** Record a failed check; the run is then not correct. */
    void check(bool ok, const std::string &what);
};

/**
 * Set-up clock: set-up ends right before the first timed op, measured
 * from the moment the parent spawned this process.
 */
class RunClock
{
  public:
    explicit RunClock(const Options &opt);

    /**
     * Mark the end of set-up. Returns false for a set-up-only run
     * (the caller returns without measuring).
     */
    bool beginTimed();

    double setupSeconds() const { return setup_s_; }

  private:
    const Options *opt_;
    double setup_s_ = -1.0;
};

/**
 * Median and tail of a latency sample (in time order). The sample is
 * cut into consecutive windows of at least kWindowSamples (at most
 * kMaxTailWindows windows); each window's tail is its highest
 * percentile with at least ten samples beyond it (about p95), and the
 * reported tail is the median of the windows' tails, so one stall of
 * the host moves one window, not the run's figure. A sample of fewer
 * than 20 values reports its maximum.
 */
struct LatencySummary
{
    std::size_t count = 0;
    double p50 = 0.0;
    double tail = 0.0;
    double tail_pct = 100.0;
    std::size_t windows = 1;
};

constexpr std::size_t kWindowSamples = 200;
constexpr std::size_t kMaxTailWindows = 10;

LatencySummary summarize(const std::vector<double> &samples);

/** One line: "p50 … ms, tail p… … ms (…) over N <what>". */
std::string describe(const LatencySummary &s, const char *what);

double median(std::vector<double> samples);
double mean(const std::vector<double> &samples);

/** Process CPU seconds (user + system) so far. */
double cpuSeconds();

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Size of the shared execution pool (worker threads + submitter). */
std::size_t poolParallelism();

/**
 * Cumulative readings of the registry instruments the benchmark uses.
 * `b.minus(a)` is the phase delta between two snapshots.
 */
struct RegistrySnapshot
{
    std::map<std::string, double> counters;
    /** name -> {count, sum} */
    std::map<std::string, std::pair<double, double>> histograms;

    static RegistrySnapshot take();
    RegistrySnapshot minus(const RegistrySnapshot &base) const;

    double counter(const std::string &name) const;
    double histCount(const std::string &name) const;
    double histSum(const std::string &name) const;
};

/** The compiler passes whose time the benchmark books per phase. */
const std::vector<std::string> &compilerPasses();

/**
 * The benchmark's own spans. Each span carries an id (`sid`), its
 * parent's id (`parent`, 0 = root) and the request id (`rid`) when it
 * belongs to one; the serving tier's spans are merged in under their
 * own process track. Spans stay in memory until write().
 */
class BenchTrace
{
  public:
    static constexpr uint32_t kBenchPid = 0;
    static constexpr uint32_t kServerPid = 1;

    explicit BenchTrace(bool enabled);

    bool enabled() const { return enabled_; }

    struct Span
    {
        cinnamon::ScopedSpan scope;
        uint64_t id;
    };

    /** Open a span on row `tid`; a no-op span when disabled. */
    Span span(const std::string &name, uint32_t tid, uint64_t parent,
              double rid = -1.0);

    /** Record a span over an interval measured elsewhere; its id. */
    uint64_t interval(const std::string &name, uint32_t tid,
                      Clock::time_point start, Clock::time_point end,
                      uint64_t parent, double rid = -1.0);

    /**
     * Append `other`'s events under pid kServerPid, shifting them by
     * the time `other` started recording (its epoch, taken on this
     * recorder's clock).
     */
    void merge(const cinnamon::TraceRecorder &other,
               Clock::time_point other_epoch);

    bool write(const std::string &path) const;
    std::size_t size() const { return recorder_.size(); }

  private:
    bool enabled_;
    cinnamon::TraceRecorder recorder_;
    uint64_t next_id_ = 1;
};

/**
 * The end-to-end metrics a workload computes itself (main() adds
 * setup_s and peak_rss_mb): `completed` ops in `wall_s`, their latency,
 * `slo_met` of `attempted` ops within the limit, and `errors` of them
 * failed, expired, rejected or wrong.
 */
void addEndToEnd(Result &r, std::size_t completed, double wall_s,
                 const LatencySummary &lat, std::size_t slo_met,
                 std::size_t attempted, std::size_t errors);

/** The machine shape every result is recorded with. */
std::string machineShapeJson();

/** Print the notes, then the result as the last stdout line. */
void printResult(const Result &result);

// Workloads (one translation unit each).
Result runServeOpen(const Options &opt, RunClock &clock);
Result runServeBurst(const Options &opt, RunClock &clock);
Result runEmulateN15(const Options &opt, RunClock &clock);
Result runCompilePaper(const Options &opt, RunClock &clock);

/**
 * Wall time of one forward NTT at n = 2^15 (median of repeated
 * transforms on one 50-bit prime), microseconds.
 */
double nttMicros();

/**
 * Per-layer metrics every workload reports from its traced phase:
 * pool work stealing and jobs per op, CPU use against the pool, and
 * the compiler/sim totals of the whole process (set-up included,
 * because that is where the serving and emulation workloads compile).
 */
struct CommonLayers
{
    RegistrySnapshot process_base; ///< at process start
    RegistrySnapshot phase;        ///< traced phase: base, then delta
    double cpu_s = 0.0;            ///< traced phase: base, then delta
    double wall_s = 0.0;
    Clock::time_point wall_base{};
    double ntt_us = 0.0; ///< set by report()

    /** Bracket the traced phase. */
    void beginPhase();
    void endPhase();
    /**
     * Add the common metrics. `ops` completed in the traced phase;
     * `compile_ms` and `simulate_ms` are per-op (or per-call) samples
     * the workload timed itself.
     */
    void report(Result &r, std::size_t ops,
                const std::vector<double> &compile_ms,
                const std::vector<double> &simulate_ms,
                double trace_overhead);
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H_
