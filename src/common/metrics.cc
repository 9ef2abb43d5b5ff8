#include "common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace cinnamon {

namespace {

/** Linear-interpolated percentile of a sorted sample. */
double
percentileSorted(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    if (sorted.size() == 1)
        return sorted[0];
    const double rank =
        p / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::string
formatNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

bool
hasPrefix(const std::string &name, const std::string &prefix)
{
    return name.compare(0, prefix.size(), prefix) == 0;
}

} // namespace

void
Histogram::observe(double sample)
{
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.push_back(sample);
}

Histogram::Snapshot
Histogram::snapshot() const
{
    std::vector<double> sorted;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sorted = samples_;
    }
    Snapshot s;
    if (sorted.empty())
        return s;
    std::sort(sorted.begin(), sorted.end());
    s.count = sorted.size();
    s.min = sorted.front();
    s.max = sorted.back();
    for (double v : sorted)
        s.sum += v;
    s.mean = s.sum / static_cast<double>(s.count);
    s.p50 = percentileSorted(sorted, 50);
    s.p95 = percentileSorted(sorted, 95);
    s.p99 = percentileSorted(sorted, 99);
    return s;
}

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::string
MetricsRegistry::textSnapshot(const std::string &prefix) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    for (const auto &[name, c] : counters_) {
        if (!hasPrefix(name, prefix))
            continue;
        out << name << ' ' << formatNumber(c->value()) << '\n';
    }
    for (const auto &[name, g] : gauges_) {
        if (!hasPrefix(name, prefix))
            continue;
        out << name << ' ' << formatNumber(g->value()) << '\n';
    }
    for (const auto &[name, h] : histograms_) {
        if (!hasPrefix(name, prefix))
            continue;
        const auto s = h->snapshot();
        out << name << " count=" << s.count << " mean="
            << formatNumber(s.mean) << " p50=" << formatNumber(s.p50)
            << " p95=" << formatNumber(s.p95)
            << " p99=" << formatNumber(s.p99) << '\n';
    }
    return out.str();
}

std::string
MetricsRegistry::jsonSnapshot(const std::string &prefix) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    auto emitScalar = [&](const auto &map, bool &first) {
        for (const auto &[name, m] : map) {
            if (!hasPrefix(name, prefix))
                continue;
            if (!first)
                out << ',';
            first = false;
            out << '"' << name << "\":" << formatNumber(m->value());
        }
    };
    out << "{\"counters\":{";
    bool first = true;
    emitScalar(counters_, first);
    out << "},\"gauges\":{";
    first = true;
    emitScalar(gauges_, first);
    out << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms_) {
        if (!hasPrefix(name, prefix))
            continue;
        if (!first)
            out << ',';
        first = false;
        const auto s = h->snapshot();
        out << '"' << name << "\":{\"count\":" << s.count
            << ",\"sum\":" << formatNumber(s.sum)
            << ",\"min\":" << formatNumber(s.min)
            << ",\"max\":" << formatNumber(s.max)
            << ",\"mean\":" << formatNumber(s.mean)
            << ",\"p50\":" << formatNumber(s.p50)
            << ",\"p95\":" << formatNumber(s.p95)
            << ",\"p99\":" << formatNumber(s.p99) << '}';
    }
    out << "}}";
    return out.str();
}

} // namespace cinnamon
