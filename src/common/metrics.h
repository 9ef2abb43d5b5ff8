/**
 * @file
 * Process-wide metrics registry: counters, gauges, and histograms
 * shared by the simulator, the serving runtime, and the bench
 * binaries.
 *
 * The registry is the one place the system's self-accounting lands:
 * the simulator books instruction/byte totals and conservation-check
 * results, the server books request outcomes and latency histograms,
 * and bench binaries book the figures they print. Snapshots export as
 * plain text (one metric per line, for reports and logs) or JSON (for
 * dashboards and CI artifacts).
 *
 * All instruments are thread-safe. Counters and gauges are lock-free;
 * histograms keep their raw samples under a mutex (serving runs are
 * thousands of observations, not millions). References returned by
 * the registry remain valid for the registry's lifetime.
 */

#ifndef CINNAMON_COMMON_METRICS_H_
#define CINNAMON_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cinnamon {

/** Monotonically increasing value (events, bytes, violations). */
class Counter
{
  public:
    void
    add(double delta = 1.0)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(
            cur, cur + delta, std::memory_order_relaxed)) {
        }
    }

    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Last-write-wins value (a utilization, a queue depth). */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Sample distribution with count/sum/min/max and percentiles. */
class Histogram
{
  public:
    void observe(double sample);

    struct Snapshot
    {
        std::size_t count = 0;
        double sum = 0.0;
        double min = 0.0;
        double max = 0.0;
        double mean = 0.0;
        double p50 = 0.0;
        double p95 = 0.0;
        double p99 = 0.0;
    };

    Snapshot snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::vector<double> samples_;
};

/**
 * Named instruments. `global()` is the process-wide registry every
 * subsystem shares; independent instances exist only for tests.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    static MetricsRegistry &global();

    /** Find-or-create; one instrument per name, stable address. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * One metric per line ("name value", histograms as "name
     * count=… mean=… p50=… p95=… p99=…"), sorted by name, limited to
     * names starting with `prefix` ("" = everything).
     */
    std::string textSnapshot(const std::string &prefix = "") const;

    /** {"counters":{…},"gauges":{…},"histograms":{…}}. */
    std::string jsonSnapshot(const std::string &prefix = "") const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace cinnamon

#endif // CINNAMON_COMMON_METRICS_H_
