#include "serve/remote/frontend.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/metrics.h"

namespace cinnamon::serve::remote {

bool
RemoteFrontEnd::Conn::send(net::MsgType type,
                           const std::vector<uint8_t> &payload)
{
    const auto bytes = net::encodeFrame(type, payload);
    std::lock_guard<std::mutex> lock(send_mutex);
    return sock.sendAll(bytes.data(), bytes.size());
}

RemoteFrontEnd::RemoteFrontEnd(FrontEndOptions options)
    : options_(options),
      settlement_(options.queue_capacity, options.retry)
{
    CINN_FATAL_UNLESS(options_.workers >= 1,
                      "the distributed tier needs at least one worker");
    options_.batch_max_streams =
        std::max<std::size_t>(1, options_.batch_max_streams);
    batcher_ = std::make_unique<BatchFormer>(settlement_.queue(),
                                             options_.batch_linger_ms);
    // Each worker process owns one chip group: the scheduler that
    // expressed intra-process placement now expresses inter-process
    // placement, and its quarantine machinery maps worker death.
    scheduler_ = std::make_unique<ChipGroupScheduler>(
        options_.workers * options_.group_size, options_.group_size);
    group_conns_.resize(options_.workers);
}

RemoteFrontEnd::~RemoteFrontEnd()
{
    if (settlement_.running())
        drainAndStop();
}

bool
RemoteFrontEnd::start()
{
    listener_ = net::Socket::listenLoopback(options_.port, &port_);
    if (!listener_.valid())
        return false;
    settlement_.startClock();
    loop_.add(listener_.fd(), POLLIN,
              [this](int, short) { onAccept(); });
    io_thread_ = std::thread(
        [this] { loop_.run(options_.tick_ms, [this] { tick(); }); });
    dispatch_thread_ = std::thread([this] { dispatchLoop(); });
    return true;
}

bool
RemoteFrontEnd::waitForWorkers(std::size_t n, double timeout_ms)
{
    std::unique_lock<std::mutex> lock(net_mutex_);
    const auto ready = [&] {
        std::size_t count = 0;
        for (const auto &conn : group_conns_)
            if (conn && conn->ready)
                ++count;
        return count >= n;
    };
    return workers_cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(timeout_ms),
        ready);
}

std::size_t
RemoteFrontEnd::connectedWorkers() const
{
    std::lock_guard<std::mutex> lock(net_mutex_);
    std::size_t count = 0;
    for (const auto &conn : group_conns_)
        if (conn && conn->ready)
            ++count;
    return count;
}

bool
RemoteFrontEnd::submit(Workload workload, uint64_t seed,
                       std::chrono::milliseconds deadline)
{
    return settlement_.submit(workload, seed, deadline);
}

void
RemoteFrontEnd::dispatchLoop()
{
    // Width 1 is a batch of one, exactly as in Server.
    while (!stop_dispatch_.load()) {
        auto batch = batcher_->next(options_.batch_max_streams);
        if (batch.empty()) {
            // Closed and drained — but requeues may still arrive until
            // stop_dispatch_ flips, so idle one tick instead of
            // spinning on the empty queue.
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    options_.tick_ms));
            continue;
        }
        dispatch(std::move(batch));
    }
}

void
RemoteFrontEnd::dispatch(std::vector<Request> batch)
{
    auto &metrics = MetricsRegistry::global();
    std::vector<Attempt> members = settlement_.begin(std::move(batch));
    if (members.empty())
        return;

    // Startup grace: while no worker has connected yet and admission
    // is still open, hand the batch back instead of burning its retry
    // budget against empty group slots. Once the drain begins (queue
    // closed) attempts do burn, so a drain with zero workers still
    // terminates.
    bool any_ready;
    {
        std::lock_guard<std::mutex> lock(net_mutex_);
        any_ready = std::any_of(
            group_conns_.begin(), group_conns_.end(),
            [](const std::shared_ptr<Conn> &c) {
                return c && c->ready;
            });
    }
    if (!any_ready && !settlement_.queue().closed()) {
        for (auto &m : members)
            settlement_.handBack(std::move(m));
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(
                options_.tick_ms));
        return;
    }
    for (auto &m : members)
        m.response.batch_streams = members.size();

    // Placement: one group for the whole batch — the worker behind it
    // executes the members as one multi-stream program. Prefer the
    // group the lead seed hashes to (reproducible run to run), fall
    // back to whichever group frees up first.
    GroupLease lease;
    try {
        if (options_.seed_routing)
            lease = scheduler_->tryAcquireGroup(
                members.front().request.seed % scheduler_->numGroups());
        if (!lease.held())
            lease = scheduler_->acquire();
    } catch (const NoHealthyGroupsError &e) {
        // Every group is quarantined: on this dispatcher thread, wait
        // out one repair window, then burn an attempt per member.
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(
                options_.repair_ms + options_.tick_ms));
        for (auto &m : members)
            requeueOrSettle(std::move(m), e.what(), /*retryable=*/true,
                            /*chip_failed=*/true);
        return;
    }
    const std::size_t group = lease.group();
    for (auto &m : members)
        m.response.group = group;

    // One Submit carries the whole batch: the lead request in the
    // flat fields, co-members in `extras` (wire v2). The worker
    // answers one Result per member.
    const Request &lead = members.front().request;
    net::SubmitMsg submit;
    submit.request_id = lead.id;
    submit.workload = static_cast<uint16_t>(lead.workload);
    submit.seed = lead.seed;
    submit.attempt = lead.attempt;
    submit.deadline_budget_ms =
        lead.deadline.count() > 0
            ? static_cast<uint64_t>(std::max(
                  0.0, static_cast<double>(lead.deadline.count()) -
                           msSince(lead.born)))
            : 0;
    for (std::size_t i = 1; i < members.size(); ++i) {
        net::SubmitMsg::Member member;
        member.request_id = members[i].request.id;
        member.seed = members[i].request.seed;
        member.attempt = members[i].request.attempt;
        submit.extras.push_back(member);
    }

    std::shared_ptr<Conn> conn;
    {
        std::lock_guard<std::mutex> lock(net_mutex_);
        if (group_conns_[group] && group_conns_[group]->ready &&
            inflight_.count(group) == 0) {
            conn = group_conns_[group];
            // Register before sending: if the worker dies the instant
            // the Submit lands, the EOF handler must already see every
            // member in flight to requeue it.
            GroupWork work;
            work.lease = std::move(lease);
            for (auto &m : members) {
                const uint64_t id = m.request.id;
                work.members.emplace(id, std::move(m));
            }
            inflight_.emplace(group, std::move(work));
        }
    }
    if (!conn) {
        // The leased group has no live worker (its connection died
        // between quarantine bookkeeping and this dispatch, or no
        // worker ever claimed the slot). Treat it like a lost attempt
        // for every member.
        scheduler_->markChipFailed(scheduler_->chipsOf(group).first);
        for (auto &m : members)
            requeueOrSettle(std::move(m), "no live worker for group",
                            /*retryable=*/true, /*chip_failed=*/true);
        lease.release(); // after markChipFailed: parks, not frees
        return;
    }
    metrics.counter("serve.remote.dispatched").add();
    if (!submit.extras.empty())
        metrics.counter("serve.remote.batched_dispatches").add();
    if (!conn->send(net::MsgType::Submit, submit.encode()))
        // The connection is dead; the I/O thread's EOF handling (or
        // this call) tears it down and requeues the in-flight batch.
        dropConn(conn, "send failed");
}

void
RemoteFrontEnd::onAccept()
{
    net::Socket sock = listener_.accept();
    if (!sock.valid())
        return;
    auto conn = std::make_shared<Conn>();
    conn->sock = std::move(sock);
    conn->last_heartbeat = Clock::now();
    const int fd = conn->sock.fd();
    {
        std::lock_guard<std::mutex> lock(net_mutex_);
        conns_.emplace(fd, conn);
    }
    loop_.add(fd, POLLIN, [this, conn](int, short revents) {
        if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
            (revents & POLLIN) == 0) {
            dropConn(conn, "socket error");
            return;
        }
        onReadable(conn);
    });
}

void
RemoteFrontEnd::onReadable(const std::shared_ptr<Conn> &conn)
{
    uint8_t buf[64 * 1024];
    const ssize_t n = conn->sock.recvSome(buf, sizeof(buf));
    if (n <= 0) {
        dropConn(conn, n == 0 ? "connection closed" : "read error");
        return;
    }
    conn->decoder.feed(buf, static_cast<std::size_t>(n));
    for (;;) {
        net::Frame frame;
        const auto status = conn->decoder.next(&frame);
        if (status == net::DecodeStatus::NeedMore)
            return;
        if (status != net::DecodeStatus::Ok) {
            dropConn(conn, net::decodeStatusName(status));
            return;
        }
        handleFrame(conn, frame);
    }
}

void
RemoteFrontEnd::handleFrame(const std::shared_ptr<Conn> &conn,
                            const net::Frame &frame)
{
    // Any well-formed frame proves the peer alive.
    {
        std::lock_guard<std::mutex> lock(net_mutex_);
        conn->last_heartbeat = Clock::now();
    }
    switch (frame.type) {
    case net::MsgType::Hello: {
        net::HelloMsg hello;
        if (!hello.decode(frame.payload)) {
            dropConn(conn, "malformed Hello");
            return;
        }
        handleHello(conn, hello);
        return;
    }
    case net::MsgType::Heartbeat:
        return; // the timestamp update above is the whole effect
    case net::MsgType::Result: {
        net::ResultMsg result;
        if (!result.decode(frame.payload)) {
            dropConn(conn, "malformed Result");
            return;
        }
        handleResult(conn, result);
        return;
    }
    case net::MsgType::DrainAck: {
        std::lock_guard<std::mutex> lock(net_mutex_);
        ++drain_acks_;
        workers_cv_.notify_all();
        return;
    }
    default:
        return; // forward compatibility within a wire version
    }
}

void
RemoteFrontEnd::handleHello(const std::shared_ptr<Conn> &conn,
                            const net::HelloMsg &hello)
{
    net::HelloAckMsg ack;
    const std::string reason =
        net::checkHello(hello, options_.group_size);
    if (!reason.empty()) {
        ack.accepted = 0;
        ack.reason = reason;
        conn->send(net::MsgType::HelloAck, ack.encode());
        dropConn(conn, reason.c_str());
        return;
    }

    std::size_t group = static_cast<std::size_t>(-1);
    bool readmitted = false;
    {
        std::lock_guard<std::mutex> lock(net_mutex_);
        // Prefer the slot the worker id hashes to, then any slot with
        // no live worker — a replacement for a dead one reclaims (and
        // un-quarantines) the dead worker's group.
        const std::size_t preferred = hello.worker_id % options_.workers;
        if (!group_conns_[preferred]) {
            group = preferred;
        } else {
            for (std::size_t g = 0; g < group_conns_.size(); ++g) {
                if (!group_conns_[g]) {
                    group = g;
                    break;
                }
            }
        }
        if (group != static_cast<std::size_t>(-1)) {
            conn->worker_id = hello.worker_id;
            conn->group = group;
            conn->ready = true;
            conn->last_heartbeat = Clock::now();
            group_conns_[group] = conn;
            // A conn-loss quarantine heals the moment a replacement
            // worker owns the group again (chip-fault quarantines
            // heal on the repair timer in tick() instead).
            readmitted = repairable_since_.count(group) == 0 &&
                         scheduler_->isQuarantined(group);
        }
    }
    if (group == static_cast<std::size_t>(-1)) {
        ack.accepted = 0;
        ack.reason = "no free group slot: all workers connected";
        conn->send(net::MsgType::HelloAck, ack.encode());
        dropConn(conn, ack.reason.c_str());
        return;
    }
    if (readmitted) {
        scheduler_->readmit(group);
        MetricsRegistry::global().counter("serve.readmissions").add();
    }
    ack.accepted = 1;
    ack.assigned_group = group;
    conn->send(net::MsgType::HelloAck, ack.encode());
    {
        std::lock_guard<std::mutex> lock(net_mutex_);
        workers_cv_.notify_all();
    }
}

void
RemoteFrontEnd::handleResult(const std::shared_ptr<Conn> &conn,
                             const net::ResultMsg &result)
{
    Attempt attempt;
    const bool chip_failed = result.chip_failed != 0;
    {
        std::lock_guard<std::mutex> lock(net_mutex_);
        if (conn->group == static_cast<std::size_t>(-1))
            return; // result before Hello: protocol violation, ignore
        const std::size_t group = conn->group;
        auto it = inflight_.find(group);
        if (it == inflight_.end())
            return; // stale result for a superseded attempt
        auto member = it->second.members.find(result.request_id);
        if (member == it->second.members.end() ||
            member->second.request.attempt != result.attempt)
            return; // not a member of the batch this group is running
        if (chip_failed) {
            // Park the group before the lease releases (below), so
            // release() quarantines instead of freeing — the same
            // ordering contract as the in-process server. The repair
            // timer may heal it: the worker process is still alive.
            // A batched chip fault reports once per member;
            // markChipFailed is idempotent, but only the first report
            // books the quarantine.
            scheduler_->markChipFailed(
                scheduler_->chipsOf(group).first);
            if (repairable_since_.count(group) == 0) {
                repairable_since_[group] = Clock::now();
                MetricsRegistry::global()
                    .counter("serve.quarantines")
                    .add();
            }
        }
        attempt = std::move(member->second);
        it->second.members.erase(member);
        // The last member to resolve releases the lease — after any
        // markChipFailed above, so a faulted group parks.
        if (it->second.members.empty())
            inflight_.erase(it);
    }

    attempt.response.sim_seconds = result.sim_seconds;
    attempt.response.compile_ms = result.compile_ms;
    attempt.response.output_hash = result.digest;
    if (result.status ==
        static_cast<uint16_t>(net::WireStatus::Completed)) {
        settlement_.complete(std::move(attempt));
        return;
    }
    requeueOrSettle(std::move(attempt), result.error,
                    result.retryable != 0, chip_failed);
}

void
RemoteFrontEnd::requeueOrSettle(Attempt attempt, std::string error,
                                bool retryable, bool chip_failed)
{
    // Distributed retries requeue at once: the victim hardware is
    // quarantined, so a backoff dwell would only delay the reroute
    // (and the I/O thread must not sleep). The deadline check still
    // counts the seeded backoff, so a request that could not have
    // been retried in time in-process is not retried here either.
    if (auto r = settlement_.lose(std::move(attempt), std::move(error),
                                  retryable, chip_failed))
        settlement_.retry(std::move(*r));
}

void
RemoteFrontEnd::dropConn(const std::shared_ptr<Conn> &conn,
                         const char *why)
{
    GroupWork work;
    bool had_inflight = false;
    bool quarantine = false;
    std::size_t group = static_cast<std::size_t>(-1);
    {
        std::lock_guard<std::mutex> lock(net_mutex_);
        const int fd = conn->sock.fd();
        if (fd < 0 || conns_.erase(fd) == 0)
            return; // already torn down (idempotent)
        loop_.remove(fd);
        group = conn->group;
        if (group != static_cast<std::size_t>(-1) &&
            group_conns_[group] == conn) {
            group_conns_[group].reset();
            if (!draining_) {
                // The worker process behind this group is gone: park
                // the group so no later request is placed on it. It
                // recovers only when a replacement worker says Hello —
                // deliberately NOT on the repair timer, so erase any
                // pending chip-repair entry.
                quarantine = !scheduler_->isQuarantined(group);
                repairable_since_.erase(group);
                auto it = inflight_.find(group);
                if (it != inflight_.end()) {
                    // Pull the whole batch out, lease included, so it
                    // releases *after* markChipFailed below (parks,
                    // not frees).
                    work = std::move(it->second);
                    inflight_.erase(it);
                    had_inflight = true;
                }
            }
        }
        conn->ready = false;
        conn->sock.close();
        workers_cv_.notify_all();
    }
    if (quarantine) {
        scheduler_->markChipFailed(scheduler_->chipsOf(group).first);
        MetricsRegistry::global().counter("serve.quarantines").add();
        MetricsRegistry::global()
            .counter("serve.remote.conn_lost")
            .add();
        warn("front-end: worker for group " + std::to_string(group) +
             " lost (" + why + "); group quarantined");
    }
    if (had_inflight)
        // Lossless: every member of the dead worker's batch reroutes
        // to surviving hardware with its deadline budget intact.
        for (auto &[id, member] : work.members) {
            (void)id;
            requeueOrSettle(std::move(member),
                            std::string("worker connection lost: ") +
                                why,
                            /*retryable=*/true, /*chip_failed=*/true);
        }
}

void
RemoteFrontEnd::tick()
{
    // Heartbeat sweep: a worker that went silent past the timeout is
    // dead or partitioned — same observable either way.
    std::vector<std::shared_ptr<Conn>> dead;
    {
        std::lock_guard<std::mutex> lock(net_mutex_);
        for (const auto &[fd, conn] : conns_) {
            (void)fd;
            if (conn->ready &&
                msSince(conn->last_heartbeat) >
                    options_.heartbeat_timeout_ms)
                dead.push_back(conn);
        }
    }
    for (const auto &conn : dead)
        dropConn(conn, "heartbeat timeout");

    // Repair readmissions: heal chip-fault quarantines whose repair
    // time elapsed and whose worker process is still connected.
    std::vector<std::size_t> healed;
    {
        std::lock_guard<std::mutex> lock(net_mutex_);
        for (auto it = repairable_since_.begin();
             it != repairable_since_.end();) {
            const std::size_t group = it->first;
            if (msSince(it->second) >= options_.repair_ms &&
                group_conns_[group] && group_conns_[group]->ready) {
                healed.push_back(group);
                it = repairable_since_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const std::size_t group : healed) {
        scheduler_->readmit(group);
        MetricsRegistry::global().counter("serve.readmissions").add();
    }
}

void
RemoteFrontEnd::drainAndStop()
{
    CINN_ASSERT(settlement_.running(), "front-end not started");
    auto &queue = settlement_.queue();
    queue.close();
    // Every admitted request must reach a final state — completed,
    // expired, or failed — before the workers may be drained. Worker
    // deaths during this wait still requeue losslessly; the retry
    // bound guarantees termination even with zero live workers.
    settlement_.waitSettled();
    stop_dispatch_.store(true);
    dispatch_thread_.join();
    // Everything admitted is finalized and the dispatcher is gone:
    // a straggling requeue now would vanish silently, so seal the
    // queue — any late requeue fails loudly and finalizes as Failed.
    queue.seal();

    // Orderly worker shutdown: Drain → DrainAck → worker exits. The
    // EOFs that follow must not read as failures.
    std::size_t drains_sent = 0;
    {
        std::lock_guard<std::mutex> lock(net_mutex_);
        draining_ = true;
        for (const auto &conn : group_conns_)
            if (conn && conn->ready &&
                conn->send(net::MsgType::Drain, net::DrainMsg{}.encode()))
                ++drains_sent;
    }
    {
        std::unique_lock<std::mutex> lock(net_mutex_);
        workers_cv_.wait_for(
            lock, std::chrono::milliseconds(2000),
            [&] { return drain_acks_ >= drains_sent; });
    }

    loop_.stop();
    io_thread_.join();
    {
        std::lock_guard<std::mutex> lock(net_mutex_);
        conns_.clear();
        for (auto &conn : group_conns_)
            conn.reset();
    }
    listener_.close();
    settlement_.stopClock();
}

std::vector<Response>
RemoteFrontEnd::responses() const
{
    return settlement_.responses();
}

ServeStats
RemoteFrontEnd::stats() const
{
    // The compile/sim caches live in the worker processes; the
    // front-end has none, so cache stats are empty here.
    return settlement_.stats(CacheStats{}, scheduler_->busySeconds(),
                             scheduler_->quarantinedMask());
}

} // namespace cinnamon::serve::remote
