#include "serve/server.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace cinnamon::serve {

namespace {

/** pid of the server's track in the request trace. */
constexpr uint32_t kServerPid = 0;

RequestExecutor::Config
executorConfig(const ServeOptions &o)
{
    return {.group_size = o.group_size,
            .emulate = o.emulate,
            .emulate_max_n = o.emulate_max_n,
            .time_dilation = o.time_dilation,
            .hw = o.hw,
            .faults = o.faults,
            .autotune = o.autotune,
            .strategy = o.strategy};
}

/**
 * A span the `members` of one attempt share. It carries the member
 * count plus the lead member's rid and workload, so a batch of one
 * traces exactly like a lone request. A null recorder records
 * nothing.
 */
ScopedSpan
batchSpan(TraceRecorder *trace, const char *name, uint32_t tid,
          std::size_t members, const Request &lead)
{
    ScopedSpan s(trace, name, "serve", kServerPid, tid);
    s.arg("members", static_cast<double>(members));
    s.arg("rid", static_cast<double>(lead.id));
    s.arg("workload", workloadName(lead.workload));
    return s;
}

} // namespace

Server::Server(const fhe::CkksContext &ctx, ServeOptions options)
    : options_(options), executor_(ctx, executorConfig(options)),
      settlement_(options.queue_capacity, options.retry)
{
    CINN_FATAL_UNLESS(options_.workers >= 1,
                      "the worker pool needs at least one thread");
    scheduler_ = std::make_unique<ChipGroupScheduler>(
        options_.chips, options_.group_size);
    // A batch cannot span more chip groups than the machine has.
    options_.batch_max_streams =
        std::max<std::size_t>(1, std::min(options_.batch_max_streams,
                                          scheduler_->numGroups()));
    batcher_ = std::make_unique<BatchFormer>(settlement_.queue(),
                                             options_.batch_linger_ms);
    if (options_.trace) {
        trace_.setProcessName(kServerPid, "cinnamon-serve");
        for (std::size_t w = 0; w < options_.workers; ++w)
            trace_.setThreadName(kServerPid, static_cast<uint32_t>(w),
                                 "worker " + std::to_string(w));
        if (options_.faults.enabled())
            trace_.setThreadName(
                kServerPid, static_cast<uint32_t>(options_.workers),
                "health-probe");
    }
}

Server::~Server()
{
    if (settlement_.running())
        drainAndStop();
}

void
Server::start()
{
    settlement_.startClock();
    workers_.reserve(options_.workers);
    for (std::size_t w = 0; w < options_.workers; ++w)
        workers_.emplace_back([this, w] { batchedWorkerLoop(w); });
    if (options_.faults.enabled()) {
        {
            std::lock_guard<std::mutex> lock(probe_mutex_);
            probe_stop_ = false;
        }
        health_probe_ = std::thread([this] { healthProbeLoop(); });
    }
}

bool
Server::submit(Workload workload, uint64_t seed,
               std::chrono::milliseconds deadline)
{
    return settlement_.submit(workload, seed, deadline);
}

void
Server::drainAndStop()
{
    CINN_ASSERT(settlement_.running(), "server not started");
    auto &queue = settlement_.queue();
    queue.close();
    for (auto &t : workers_)
        t.join();
    workers_.clear();
    // The consumers are gone: seal the queue so any straggling
    // requeue attempt (e.g. from a caller holding a stale handle)
    // fails loudly instead of stranding a request nobody will drain.
    queue.seal();
    // Stop the health probe only after the workers are gone: a drain
    // stuck on an all-quarantined machine needs the probe to re-admit
    // repaired groups for the final retries to complete.
    if (health_probe_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(probe_mutex_);
            probe_stop_ = true;
        }
        probe_cv_.notify_all();
        health_probe_.join();
    }
    settlement_.stopClock();
}

void
Server::batchedWorkerLoop(std::size_t worker)
{
    while (true) {
        auto batch = batcher_->next(options_.batch_max_streams);
        if (batch.empty())
            return; // closed and drained
        processBatch(std::move(batch), worker);
    }
}

void
Server::processBatch(std::vector<Request> batch, std::size_t worker)
{
    auto &metrics = MetricsRegistry::global();
    TraceRecorder *trace = options_.trace ? &trace_ : nullptr;
    const auto tid = static_cast<uint32_t>(worker);

    std::vector<Attempt> members = settlement_.begin(std::move(batch));
    if (members.empty())
        return;

    BatchLease lease;
    try {
        auto s = batchSpan(trace, "acquire", tid, members.size(),
                           members.front().request);
        lease = scheduler_->acquireUpTo(members.size());
    } catch (const NoHealthyGroupsError &e) {
        // Every group is quarantined. A full outage clears no sooner
        // than the repair time: wait at least one repair + probe
        // window before retrying.
        const double floor_ms = options_.faults.chip_repair_ms +
                                options_.health_probe_interval_ms;
        std::vector<Retry> retries;
        for (auto &m : members)
            if (auto r = settlement_.lose(std::move(m), e.what(),
                                          /*retryable=*/true,
                                          /*requeued=*/true, floor_ms))
                retries.push_back(std::move(*r));
        backOff(std::move(retries), worker);
        return;
    }

    // Surplus members beyond the lease go back to the queue with
    // their admission stamp — not a new attempt, so no response row;
    // a later batch serves them.
    while (members.size() > lease.size()) {
        settlement_.handBack(std::move(members.back()));
        members.pop_back();
    }
    // A member's queue span is recorded once it holds a group, so a
    // handed-back member has one queue span, covering all its wait.
    if (trace != nullptr) {
        for (const auto &m : members) {
            TraceEvent e;
            e.name = "queue";
            e.category = "serve";
            e.pid = kServerPid;
            e.tid = tid;
            e.ts_us = trace->toUs(m.request.admitted);
            e.dur_us = m.response.queue_ms * 1e3;
            e.num_args.emplace_back("rid",
                                    static_cast<double>(m.request.id));
            e.str_args.emplace_back(
                "workload", workloadName(m.request.workload));
            trace->complete(std::move(e));
        }
    }

    // Re-check deadlines after the (possibly long) wait for hardware:
    // a member whose budget lapsed while other tenants held the
    // machine is shed, not run; its group goes back.
    settlement_.shed(members);
    if (members.empty())
        return; // the lease destructor releases everything
    lease.shrinkTo(members.size());

    const std::size_t k = members.size();
    std::vector<uint64_t> seeds;
    std::vector<faults::FaultDecision> fates;
    for (std::size_t i = 0; i < k; ++i) {
        members[i].response.group = lease.group(i);
        members[i].response.batch_streams = k;
        seeds.push_back(members[i].request.seed);
        fates.push_back(executor_.decide(members[i].request.seed,
                                         members[i].request.attempt));
    }

    // Quarantine every chip-fault victim's group *before* executing:
    // release() must already know those groups are poisoned so it
    // parks them instead of freeing them.
    for (std::size_t i = 0; i < k; ++i) {
        if (!fates[i].chip_fails)
            continue;
        const std::size_t victim =
            scheduler_->chipsOf(lease.group(i)).first +
            fates[i].chip_offset % options_.group_size;
        metrics.counter("serve.quarantines").add();
        scheduler_->markChipFailed(victim);
        if (trace != nullptr) {
            TraceEvent e;
            e.name = "quarantine";
            e.category = "faults";
            e.pid = kServerPid;
            e.tid = tid;
            e.ts_us = trace->nowUs();
            e.num_args.emplace_back("chip",
                                    static_cast<double>(victim));
            e.num_args.emplace_back(
                "group", static_cast<double>(lease.group(i)));
            e.num_args.emplace_back(
                "rid", static_cast<double>(members[i].request.id));
            trace->complete(std::move(e));
        }
    }

    // Member i's stream runs on the chips of lease.group(i); its
    // digest equals the member's run alone.
    const auto outcomes = executor_.run(
        members.front().request.workload, seeds, fates,
        [&](const char *name) {
            return batchSpan(trace, name, tid, k,
                             members.front().request);
        });

    std::vector<Retry> retries;
    for (std::size_t i = 0; i < k; ++i) {
        const auto &o = outcomes[i];
        Response &resp = members[i].response;
        resp.sim_seconds = o.sim_seconds;
        resp.compile_ms = o.compile_ms;
        resp.output_hash = o.digest;
        if (o.kind == RequestExecutor::Outcome::Completed)
            settlement_.complete(std::move(members[i]));
        else if (auto r = settlement_.lose(std::move(members[i]),
                                           o.error, o.retryable,
                                           o.chip_failed))
            retries.push_back(std::move(*r));
    }
    lease.release(); // don't hold hardware through the backoff
    backOff(std::move(retries), worker);
}

void
Server::backOff(std::vector<Retry> retries, std::size_t worker)
{
    if (retries.empty())
        return;
    double delay_ms = 0.0;
    for (const auto &r : retries)
        delay_ms = std::max(delay_ms, r.delay_ms);
    {
        auto s = batchSpan(options_.trace ? &trace_ : nullptr,
                           "backoff", static_cast<uint32_t>(worker),
                           retries.size(),
                           retries.front().attempt.request);
        s.arg("delay_ms", delay_ms);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
    }
    for (auto &r : retries)
        settlement_.retry(std::move(r));
}

void
Server::healthProbeLoop()
{
    auto &metrics = MetricsRegistry::global();
    const auto interval = std::chrono::duration<double, std::milli>(
        options_.health_probe_interval_ms);
    std::unique_lock<std::mutex> lock(probe_mutex_);
    while (!probe_stop_) {
        probe_cv_.wait_for(lock, interval,
                           [&] { return probe_stop_; });
        if (probe_stop_)
            return;
        lock.unlock();
        const auto readmitted = scheduler_->readmitRecovered(
            options_.faults.chip_repair_ms);
        for (const std::size_t group : readmitted) {
            metrics.counter("serve.readmissions").add();
            if (options_.trace) {
                TraceEvent e;
                e.name = "readmit";
                e.category = "faults";
                e.pid = kServerPid;
                e.tid = static_cast<uint32_t>(options_.workers);
                e.ts_us = trace_.nowUs();
                e.num_args.emplace_back(
                    "group", static_cast<double>(group));
                trace_.complete(std::move(e));
            }
        }
        lock.lock();
    }
}

std::vector<Response>
Server::responses() const
{
    return settlement_.responses();
}

ServeStats
Server::stats() const
{
    auto s = settlement_.stats(executor_.runnerStats(),
                               scheduler_->busySeconds(),
                               scheduler_->quarantinedMask());
    s.plan_cache = executor_.planCache().stats();
    s.tuner_cache = executor_.tunerStats();
    return s;
}

} // namespace cinnamon::serve
