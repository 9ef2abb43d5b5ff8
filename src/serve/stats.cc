#include "serve/stats.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "common/metrics.h"

namespace cinnamon::serve {

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    if (values.size() == 1)
        return values[0];
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 *
        static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

ServeStats
ServeStats::fromResponses(const std::vector<Response> &responses,
                          std::size_t submitted, std::size_t rejected,
                          double wall_seconds, const CacheStats &cache,
                          const std::vector<double> &group_busy_seconds,
                          const std::vector<uint8_t> &group_quarantined)
{
    ServeStats s;
    s.submitted = submitted;
    s.rejected = rejected;
    s.wall_seconds = wall_seconds;
    s.cache = cache;
    s.group_quarantined = group_quarantined;
    s.group_completed.assign(group_busy_seconds.size(), 0);
    s.group_retried.assign(group_busy_seconds.size(), 0);
    auto bump = [](std::vector<std::size_t> &v, std::size_t g) {
        if (g >= v.size())
            v.resize(g + 1, 0); // responses may know more groups
        ++v[g];
    };

    std::vector<double> lat_ms, sim_s, queue_ms;
    double occupancy_sum = 0.0;
    const auto no_group = static_cast<std::size_t>(-1);
    for (const auto &r : responses) {
        switch (r.status) {
        case RequestStatus::Completed:
            ++s.completed;
            lat_ms.push_back(r.total_ms);
            queue_ms.push_back(r.queue_ms);
            sim_s.push_back(r.sim_seconds);
            s.sim_seconds_total += r.sim_seconds;
            occupancy_sum += static_cast<double>(r.batch_streams);
            if (r.batch_streams > 1)
                ++s.batched_completed;
            s.batch_occupancy_max =
                std::max(s.batch_occupancy_max, r.batch_streams);
            if (r.group != no_group)
                bump(s.group_completed, r.group);
            break;
        case RequestStatus::Expired: ++s.expired; break;
        case RequestStatus::Failed:
            ++s.failed;
            if (r.retryable)
                ++s.failed_retryable;
            break;
        case RequestStatus::Rejected:
            // Counted via `rejected`; the row only adds the signal.
            if (r.retryable)
                ++s.rejected_retryable;
            break;
        case RequestStatus::Retried:
            ++s.retried;
            if (r.requeued)
                ++s.requeued;
            if (r.group != no_group)
                bump(s.group_retried, r.group);
            break;
        }
    }
    if (wall_seconds > 0)
        s.throughput_rps =
            static_cast<double>(s.completed) / wall_seconds;
    if (!queue_ms.empty())
        s.queue_ms_mean =
            std::accumulate(queue_ms.begin(), queue_ms.end(), 0.0) /
            static_cast<double>(queue_ms.size());
    if (s.completed > 0)
        s.batch_occupancy_mean =
            occupancy_sum / static_cast<double>(s.completed);
    s.latency_ms_p50 = percentile(lat_ms, 50);
    s.latency_ms_p95 = percentile(lat_ms, 95);
    s.latency_ms_p99 = percentile(lat_ms, 99);
    s.sim_seconds_p50 = percentile(sim_s, 50);
    s.sim_seconds_p99 = percentile(sim_s, 99);

    s.group_utilization.reserve(group_busy_seconds.size());
    for (double busy : group_busy_seconds)
        s.group_utilization.push_back(
            wall_seconds > 0 ? busy / wall_seconds : 0.0);
    return s;
}

std::string
ServeStats::report() const
{
    char buf[256];
    std::string out;
    auto line = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        out += buf;
        out += '\n';
    };
    line("requests: %zu submitted, %zu completed, %zu rejected "
         "(backpressure), %zu expired, %zu failed",
         submitted, completed, rejected, expired, failed);
    if (rejected_full > 0 || rejected_closed > 0)
        line("rejections: %zu queue-full (retryable), "
             "%zu after shutdown",
             rejected_full, rejected_closed);
    if (retried > 0 || rejected_retryable > 0 || failed_retryable > 0)
        line("resilience: %zu retried (%zu requeued after chip loss), "
             "%zu retryable rejections, %zu retryable failures",
             retried, requeued, rejected_retryable, failed_retryable);
    line("wall time: %.3f s   throughput: %.2f req/s", wall_seconds,
         throughput_rps);
    line("latency (wall ms): p50 %.2f  p95 %.2f  p99 %.2f   "
         "queue wait mean %.2f",
         latency_ms_p50, latency_ms_p95, latency_ms_p99,
         queue_ms_mean);
    line("simulated seconds: p50 %.6f  p99 %.6f  total %.6f",
         sim_seconds_p50, sim_seconds_p99, sim_seconds_total);
    line("cache: %zu hits / %zu lookups (%.1f%% hit rate)",
         cache.hits, cache.lookups(), 100.0 * cache.hitRate());
    if (plan_cache.lookups() > 0)
        line("plan cache: %zu hits / %zu lookups (%.1f%% hit rate)",
             plan_cache.hits, plan_cache.lookups(),
             100.0 * plan_cache.hitRate());
    if (tuner_cache.lookups() > 0)
        line("plan tuner: %zu decisions memoized, %zu hits / "
             "%zu lookups (%.1f%% hit rate)",
             tuner_cache.misses, tuner_cache.hits,
             tuner_cache.lookups(), 100.0 * tuner_cache.hitRate());
    if (batched_completed > 0)
        line("batching: %zu of %zu completed rode a shared batch  "
             "occupancy mean %.2f / max %zu streams",
             batched_completed, completed, batch_occupancy_mean,
             batch_occupancy_max);
    // Per-group placement: utilization, request counts, and live
    // quarantine state on one line per group, so placement skew and
    // parked hardware are visible at a glance.
    out += "groups (busy% / completed / retried-on):\n";
    for (std::size_t g = 0; g < group_utilization.size(); ++g) {
        const std::size_t done =
            g < group_completed.size() ? group_completed[g] : 0;
        const std::size_t retr =
            g < group_retried.size() ? group_retried[g] : 0;
        const bool quarantined =
            g < group_quarantined.size() && group_quarantined[g] != 0;
        std::snprintf(buf, sizeof(buf),
                      "  g%zu: %5.1f%%  %4zu req  %3zu retried%s\n",
                      g, 100.0 * group_utilization[g], done, retr,
                      quarantined ? "  [QUARANTINED]" : "");
        out += buf;
    }

    // The process-wide registry: request outcome counters and latency
    // histograms booked by every server in this process.
    std::string metrics =
        MetricsRegistry::global().textSnapshot("serve.");
    metrics += MetricsRegistry::global().textSnapshot("faults.");
    metrics += MetricsRegistry::global().textSnapshot("emulator.");
    metrics += MetricsRegistry::global().textSnapshot("runtime.");
    metrics += MetricsRegistry::global().textSnapshot("pool.");
    if (!metrics.empty()) {
        out += "metrics (process-wide):\n";
        std::istringstream lines(metrics);
        std::string metric_line;
        while (std::getline(lines, metric_line)) {
            out += "  ";
            out += metric_line;
            out += '\n';
        }
    }
    return out;
}

} // namespace cinnamon::serve
