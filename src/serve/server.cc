#include "serve/server.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace cinnamon::serve {

namespace {

/** pid of the server's track in the request trace. */
constexpr uint32_t kServerPid = 0;

double
msSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t)
        .count();
}

RequestExecutor::Config
executorConfig(const ServeOptions &o)
{
    return {.group_size = o.group_size,
            .emulate = o.emulate,
            .emulate_max_n = o.emulate_max_n,
            .hw = o.hw,
            .faults = o.faults,
            .autotune = o.autotune,
            .strategy = o.strategy};
}

} // namespace

Server::Server(const fhe::CkksContext &ctx, ServeOptions options)
    : options_(options), executor_(ctx, executorConfig(options))
{
    CINN_FATAL_UNLESS(options_.workers >= 1,
                      "the worker pool needs at least one thread");
    queue_ = std::make_unique<RequestQueue>(options_.queue_capacity);
    scheduler_ = std::make_unique<ChipGroupScheduler>(
        options_.chips, options_.group_size);
    // A batch cannot span more chip groups than the machine has.
    options_.batch_max_streams =
        std::max<std::size_t>(1, std::min(options_.batch_max_streams,
                                          scheduler_->numGroups()));
    batcher_ = std::make_unique<BatchFormer>(*queue_,
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
    bool started;
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        started = started_;
    }
    if (started)
        drainAndStop();
}

void
Server::start()
{
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        CINN_ASSERT(!started_, "server already started");
        started_ = true;
        start_time_ = Clock::now();
    }
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
    Request r;
    r.workload = workload;
    r.seed = seed;
    r.deadline = deadline;
    r.born = Clock::now();
    {
        std::lock_guard<std::mutex> lock(responses_mutex_);
        r.id = next_id_++;
        ++submitted_;
    }
    auto &metrics = MetricsRegistry::global();
    metrics.counter("serve.requests.submitted").add();
    const uint64_t id = r.id;
    const bool admitted = queue_->submit(std::move(r));
    if (!admitted) {
        metrics.counter("serve.requests.rejected").add();
        // Tell the caller whether this rejection is worth retrying:
        // a queue-full bounce clears as the queue drains; a submit
        // after shutdown began never will.
        Response resp;
        resp.id = id;
        resp.workload = workload;
        resp.status = RequestStatus::Rejected;
        resp.retryable = !queue_->closed();
        resp.error = resp.retryable
                         ? "queue full (backpressure): retry later"
                         : "server draining: submit elsewhere";
        if (resp.retryable)
            metrics.counter("serve.requests.rejected_retryable")
                .add();
        std::lock_guard<std::mutex> lock(responses_mutex_);
        responses_.push_back(std::move(resp));
    }
    return admitted;
}

void
Server::drainAndStop()
{
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        CINN_ASSERT(started_, "server not started");
    }
    queue_->close();
    for (auto &t : workers_)
        t.join();
    workers_.clear();
    // The consumers are gone: seal the queue so any straggling
    // requeue attempt (e.g. from a caller holding a stale handle)
    // fails loudly instead of stranding a request nobody will drain.
    queue_->seal();
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
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        wall_seconds_ =
            std::chrono::duration<double>(Clock::now() - start_time_)
                .count();
        started_ = false;
    }
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

    // Per-member state: the request, its response under construction,
    // and its fault decision (pure in (fault seed, request seed,
    // attempt), so batching never changes a request's fate schedule).
    struct Member
    {
        Request req;
        Response resp;
        faults::FaultDecision fault;
    };
    std::vector<Member> members;
    members.reserve(batch.size());
    for (auto &req : batch) {
        Member m;
        m.resp.id = req.id;
        m.resp.workload = req.workload;
        m.resp.attempt = req.attempt;
        m.resp.queue_ms = msSince(req.admitted);
        m.fault = executor_.decide(req.seed, req.attempt);
        if (trace != nullptr) {
            TraceEvent e;
            e.name = "queue";
            e.category = "serve";
            e.pid = kServerPid;
            e.tid = tid;
            e.ts_us = trace->toUs(req.admitted);
            e.dur_us = m.resp.queue_ms * 1e3;
            e.num_args.emplace_back("rid", static_cast<double>(req.id));
            e.str_args.emplace_back("workload",
                                    workloadName(req.workload));
            trace->complete(std::move(e));
        }
        m.req = std::move(req);
        members.push_back(std::move(m));
    }

    // A span the members share carries the batch size plus the lead
    // member's rid and workload, so a batch of one traces exactly
    // like a lone request. `on` = false records nothing.
    auto span = [&](const char *name, const std::vector<Member> &of,
                    bool on = true) {
        ScopedSpan s(on ? trace : nullptr, name, "serve", kServerPid,
                     tid);
        s.arg("members", static_cast<double>(of.size()));
        s.arg("rid", static_cast<double>(of.front().req.id));
        s.arg("workload", workloadName(of.front().req.workload));
        return s;
    };

    // Every response leaves through here, so total_ms is always
    // queue_ms + service_ms, whatever the fate.
    auto finish = [&](Member &m, RequestStatus status) {
        m.resp.status = status;
        m.resp.total_ms = m.resp.queue_ms + m.resp.service_ms;
        switch (status) {
        case RequestStatus::Completed:
            metrics.counter("serve.requests.completed").add();
            metrics.histogram("serve.queue_ms")
                .observe(m.resp.queue_ms);
            metrics.histogram("serve.service_ms")
                .observe(m.resp.service_ms);
            metrics.histogram("serve.total_ms")
                .observe(m.resp.total_ms);
            metrics.histogram("serve.compile_ms")
                .observe(m.resp.compile_ms);
            break;
        case RequestStatus::Expired:
            metrics.counter("serve.requests.expired").add();
            break;
        case RequestStatus::Failed:
            metrics.counter("serve.requests.failed").add();
            break;
        case RequestStatus::Retried:
            metrics.counter("serve.retries").add();
            if (m.resp.requeued)
                metrics.counter("serve.requeued").add();
            break;
        case RequestStatus::Rejected: break;
        }
        std::lock_guard<std::mutex> lock(responses_mutex_);
        responses_.push_back(std::move(m.resp));
    };

    // The deadline budget is measured from first admission (`born`),
    // so a retried attempt inherits whatever its earlier attempts
    // already spent — retries never reset the clock.
    const auto deadline_ms = [](const Request &r) {
        return static_cast<double>(r.deadline.count());
    };
    const auto over_deadline = [&](const Request &r) {
        return r.deadline.count() > 0 &&
               msSince(r.born) > deadline_ms(r);
    };
    auto expire = [&](Member &m, bool after_lease) {
        if (after_lease)
            metrics.counter("serve.requests.expired_after_lease")
                .add();
        finish(m, RequestStatus::Expired);
    };

    // Shed members whose latency budget was spent in the queue:
    // running them would only push the requests behind them past
    // their own deadlines.
    {
        std::vector<Member> live;
        live.reserve(members.size());
        for (auto &m : members) {
            if (over_deadline(m.req))
                expire(m, /*after_lease=*/false);
            else
                live.push_back(std::move(m));
        }
        members = std::move(live);
    }
    if (members.empty())
        return;

    const auto service_start = Clock::now();

    // Retry-or-finalize for members whose attempt aborted, each under
    // its own backoff and deadline math, but sleeping once for the
    // whole set — the members shared one attempt, they share one
    // backoff.
    auto settle_aborted = [&](std::vector<Member> aborted,
                              const std::string &error, bool retryable,
                              bool requeued_flag,
                              double delay_floor_ms) {
        double max_delay_ms = 0.0;
        std::vector<Member> retries;
        for (auto &m : aborted) {
            m.resp.service_ms = msSince(service_start);
            m.resp.retryable = retryable;
            m.resp.error = error;
            if (!retryable) {
                finish(m, RequestStatus::Failed);
                continue;
            }
            const bool attempts_left =
                m.req.attempt + 1 < options_.retry.max_attempts;
            double delay_ms = faults::backoffMs(
                m.req.seed, m.req.attempt,
                options_.retry.backoff_base_ms,
                options_.retry.backoff_mult,
                options_.retry.backoff_max_ms,
                options_.retry.backoff_jitter);
            delay_ms = std::max(delay_ms, delay_floor_ms);
            // Deadline-aware: a retry is scheduled only if its backoff
            // still fits inside the budget.
            const bool deadline_allows =
                m.req.deadline.count() == 0 ||
                msSince(m.req.born) + delay_ms <= deadline_ms(m.req);
            if (attempts_left && deadline_allows) {
                max_delay_ms = std::max(max_delay_ms, delay_ms);
                retries.push_back(std::move(m));
            } else if (!deadline_allows) {
                // The fault burned the rest of the budget: shed, not
                // lost.
                expire(m, /*after_lease=*/false);
            } else {
                finish(m, RequestStatus::Failed);
            }
        }
        if (retries.empty())
            return;
        {
            auto s = span("backoff", retries);
            s.arg("delay_ms", max_delay_ms);
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    max_delay_ms));
        }
        for (auto &m : retries) {
            Request next = m.req;
            ++next.attempt;
            if (!queue_->requeue(std::move(next))) {
                // The queue was sealed while we backed off: nothing
                // will ever drain the retry. Finalize as Failed —
                // request conservation over a silent loss.
                m.resp.error += " (retry refused: queue sealed)";
                metrics.counter("serve.requeue_refused").add();
                finish(m, RequestStatus::Failed);
                continue;
            }
            m.resp.requeued = requeued_flag;
            finish(m, RequestStatus::Retried);
        }
    };

    try {
        BatchLease lease;
        {
            auto s = span("acquire", members);
            lease = scheduler_->acquireUpTo(members.size());
        }

        // Surplus members beyond the lease go back to the queue —
        // not a retry, so the attempt counter is untouched and no
        // response row is emitted; they will be served by a later
        // batch.
        while (members.size() > lease.size()) {
            Member m = std::move(members.back());
            members.pop_back();
            if (!queue_->requeue(std::move(m.req))) {
                m.resp.service_ms = msSince(service_start);
                m.resp.error = "batch overflow: queue sealed";
                metrics.counter("serve.requeue_refused").add();
                finish(m, RequestStatus::Failed);
            }
        }

        // Re-check deadlines after the (possibly long) wait for
        // hardware — a member whose budget lapsed while other tenants
        // held the machine is shed, not run — then return any groups
        // the shed members held.
        {
            std::vector<Member> live;
            live.reserve(members.size());
            for (auto &m : members) {
                if (over_deadline(m.req)) {
                    m.resp.service_ms = msSince(service_start);
                    expire(m, /*after_lease=*/true);
                } else {
                    live.push_back(std::move(m));
                }
            }
            members = std::move(live);
            if (members.empty())
                return; // lease destructor releases everything
            lease.shrinkTo(members.size());
        }

        const std::size_t k = members.size();
        std::vector<uint64_t> seeds;
        std::vector<faults::FaultDecision> fates;
        for (std::size_t i = 0; i < k; ++i) {
            members[i].resp.group = lease.group(i);
            members[i].resp.batch_streams = k;
            seeds.push_back(members[i].req.seed);
            fates.push_back(members[i].fault);
        }

        // Quarantine every chip-fault victim's group *before*
        // executing: the injected EmulatorError unwinds through the
        // lease destructor, and release() must already know those
        // groups are poisoned so it parks them instead of freeing
        // them.
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
                    "rid", static_cast<double>(members[i].req.id));
                trace->complete(std::move(e));
            }
        }

        // One plan for the whole batch: compatible members share a
        // workload, so every member gets the same choice.
        const Workload workload = members.front().req.workload;
        const auto plan = executor_.planFor(workload);
        {
            auto s = span("simulate", members);
            const auto timings =
                executor_.simulate(workload, plan, fates);
            for (std::size_t i = 0; i < k; ++i) {
                members[i].resp.sim_seconds = timings[i].seconds;
                members[i].resp.compile_ms = timings[i].compile_ms;
            }
        }
        {
            // Member i's stream runs on the chips of lease.group(i);
            // its digest equals the member's run alone.
            auto s = span("probe", members, executor_.emulates());
            const auto probe = executor_.execute(plan, seeds, fates);
            for (std::size_t i = 0; i < k; ++i) {
                members[i].resp.output_hash = probe.digests[i];
                members[i].resp.compile_ms += probe.compile_ms;
            }
        }

        // Model device occupancy once for the whole batch: every
        // leased group runs concurrently, so the host thread dwells
        // for the slowest member only.
        if (options_.time_dilation > 0.0) {
            auto s = span("dwell", members);
            double max_sim = 0.0;
            for (const auto &m : members)
                max_sim = std::max(max_sim, m.resp.sim_seconds);
            std::this_thread::sleep_for(std::chrono::duration<double>(
                max_sim * options_.time_dilation));
        }

        // Transient faults are per-member and land after the run: the
        // device did the work, but a transient member's result is
        // spuriously lost and the member retries alone.
        std::vector<Member> transients;
        for (auto &m : members) {
            if (m.fault.transient) {
                m.resp.output_hash = 0; // the result was lost
                transients.push_back(std::move(m));
            } else {
                m.resp.service_ms = msSince(service_start);
                finish(m, RequestStatus::Completed);
            }
        }
        members.clear();

        if (!transients.empty()) {
            lease.release(); // don't hold hardware through backoff
            settle_aborted(std::move(transients),
                           "injected transient execution fault",
                           /*retryable=*/true, /*requeued_flag=*/false,
                           /*delay_floor_ms=*/0.0);
        }
    } catch (const std::exception &e) {
        // The whole attempt aborted — injected chip death unwinding
        // out of the emulator (or the sim-side abort), or a
        // fully-quarantined machine. Injected faults and a
        // fully-quarantined machine are transient infrastructure
        // conditions, hence retryable; anything else is a permanent
        // program error. Every member shares the abort.
        const bool no_healthy =
            dynamic_cast<const NoHealthyGroupsError *>(&e) != nullptr;
        bool any_fault = false;
        bool any_chip = false;
        for (const auto &m : members) {
            any_fault = any_fault || m.fault.any();
            any_chip = any_chip || m.fault.chip_fails;
        }
        const bool retryable = no_healthy || any_fault;
        // A full outage clears no sooner than the repair time; wait
        // at least one repair + probe window before retrying.
        const double delay_floor_ms =
            no_healthy ? options_.faults.chip_repair_ms +
                             options_.health_probe_interval_ms
                       : 0.0;
        settle_aborted(std::move(members), e.what(), retryable,
                       /*requeued_flag=*/any_chip || no_healthy,
                       delay_floor_ms);
    }
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
    std::lock_guard<std::mutex> lock(responses_mutex_);
    return responses_;
}

ServeStats
Server::stats() const
{
    std::vector<Response> resp;
    std::size_t submitted;
    {
        std::lock_guard<std::mutex> lock(responses_mutex_);
        resp = responses_;
        submitted = submitted_;
    }
    double wall;
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        wall = started_
                   ? std::chrono::duration<double>(Clock::now() -
                                                   start_time_)
                         .count()
                   : wall_seconds_;
    }
    auto s = ServeStats::fromResponses(resp, submitted,
                                       queue_->rejected(), wall,
                                       executor_.runnerStats(),
                                       scheduler_->busySeconds(),
                                       scheduler_->quarantinedMask());
    s.plan_cache = executor_.planCache().stats();
    s.tuner_cache = executor_.tunerStats();
    s.rejected_full = queue_->rejectedFull();
    s.rejected_closed = queue_->rejectedClosed();
    return s;
}

} // namespace cinnamon::serve
