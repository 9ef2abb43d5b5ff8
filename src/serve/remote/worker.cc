#include "serve/remote/worker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "common/metrics.h"
#include "net/message.h"
#include "net/socket.h"
#include "serve/executor.h"
#include "serve/request.h"

namespace cinnamon::serve::remote {

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t)
        .count();
}

/**
 * Everything one worker needs: the same RequestExecutor the
 * in-process server runs, so results are bit-identical to in-process
 * serving, plus the connection state.
 */
struct WorkerState
{
    WorkerOptions opt;
    RequestExecutor executor;

    net::Socket sock;
    /** Serializes frame writes: heartbeat thread vs request loop. */
    std::mutex send_mutex;
    std::atomic<uint64_t> inflight{0};
    uint64_t completed = 0;

    WorkerState(const fhe::CkksContext &c, const WorkerOptions &o)
        : opt(o), executor(c, {.group_size = o.group_size,
                               .emulate = o.emulate,
                               .emulate_max_n = o.emulate_max_n,
                               .hw = o.hw,
                               .faults = o.faults,
                               .autotune = o.autotune,
                               .strategy = o.strategy})
    {
    }

    bool
    sendFrame(net::MsgType type, const std::vector<uint8_t> &payload)
    {
        const auto bytes = net::encodeFrame(type, payload);
        std::lock_guard<std::mutex> lock(send_mutex);
        return sock.sendAll(bytes.data(), bytes.size());
    }
};

/**
 * Execute one Submit as a batch: the lead request rides the flat
 * fields, co-members (wire v2) the `extras`, and a lone request is a
 * batch of one. The worker's group hosts every member's stream of one
 * replicateStreams() program (the physical machine behind one worker
 * emulates the multi-group layout), so one execution serves the whole
 * batch and each member's digest is bit-identical to a solo run.
 * Returns one Result per member, lead request first. Sets *drop_conn
 * when any member drew a conn-drop fault (the whole batch is lost
 * with the connection, exactly like a real crash).
 */
std::vector<net::ResultMsg>
executeSubmitBatch(WorkerState &state, const net::SubmitMsg &submit,
                   bool *drop_conn)
{
    const auto start = Clock::now();
    auto &executor = state.executor;

    std::vector<net::ResultMsg> results;
    std::vector<uint64_t> seeds;
    std::vector<faults::FaultDecision> fates;
    auto add = [&](uint64_t request_id, uint64_t seed,
                   uint64_t attempt) {
        net::ResultMsg r;
        r.request_id = request_id;
        r.attempt = attempt;
        results.push_back(r);
        seeds.push_back(seed);
        fates.push_back(executor.decide(
            seed, static_cast<std::size_t>(attempt)));
    };
    add(submit.request_id, submit.seed, submit.attempt);
    for (const auto &e : submit.extras)
        add(e.request_id, e.seed, e.attempt);

    bool chip_fault = false;
    for (const auto &fate : fates) {
        // An injected connection drop severs the link mid-request:
        // the front-end sees EOF with this batch in flight,
        // quarantines the group, and requeues — the same observable
        // as a real crash.
        if (fate.conn_drops) {
            *drop_conn = true;
            MetricsRegistry::global()
                .counter("faults.injected.conn")
                .add();
            return results;
        }
        chip_fault = chip_fault || fate.chip_fails;
    }

    const auto workload = static_cast<Workload>(submit.workload);
    const auto set_status = [](net::ResultMsg &r, net::WireStatus s) {
        r.status = static_cast<uint16_t>(s);
    };
    try {
        // One plan for the whole batch (members share a workload).
        const auto plan = executor.planFor(workload);
        const auto timings = executor.simulate(workload, plan, fates);
        const auto probe = executor.execute(plan, seeds, fates);
        double max_sim = 0.0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            results[i].sim_seconds = timings[i].seconds;
            results[i].compile_ms =
                timings[i].compile_ms + probe.compile_ms;
            results[i].digest = probe.digests[i];
            max_sim = std::max(max_sim, timings[i].seconds);
        }

        if (state.opt.time_dilation > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double>(
                max_sim * state.opt.time_dilation));

        for (std::size_t i = 0; i < results.size(); ++i) {
            if (fates[i].transient) {
                // Per-member loss after the run: the device did the
                // work, this member's result is spuriously gone. It
                // retries alone.
                set_status(results[i], net::WireStatus::Failed);
                results[i].error =
                    "injected transient execution fault";
                results[i].retryable = 1;
                results[i].digest = 0;
            } else {
                set_status(results[i], net::WireStatus::Completed);
            }
        }
    } catch (const std::exception &e) {
        // Whole-batch abort (chip death mid-program): every member's
        // attempt is lost together. chip_failed routes the group
        // quarantine on the front-end (idempotent per group).
        for (std::size_t i = 0; i < results.size(); ++i) {
            set_status(results[i], net::WireStatus::Failed);
            results[i].error = e.what();
            results[i].retryable =
                (chip_fault || fates[i].any()) ? 1 : 0;
            results[i].chip_failed = chip_fault ? 1 : 0;
            results[i].digest = 0;
        }
    }
    const double service_ms = msSince(start);
    for (auto &r : results)
        r.service_ms = service_ms;
    return results;
}

} // namespace

int
runWorker(const fhe::CkksContext &ctx, const WorkerOptions &options)
{
    WorkerState state(ctx, options);

    state.sock = net::Socket::connectLoopback(
        options.port, options.connect_timeout_ms);
    if (!state.sock.valid()) {
        std::fprintf(stderr,
                     "worker %llu: cannot reach front-end on port %u\n",
                     static_cast<unsigned long long>(options.worker_id),
                     options.port);
        return 1;
    }

    net::HelloMsg hello;
    hello.worker_id = options.worker_id;
    hello.chips = options.group_size;
    hello.group_size = options.group_size;
    hello.pid = static_cast<uint64_t>(::getpid());
    if (!state.sendFrame(net::MsgType::Hello, hello.encode()))
        return 1;

    // Frame reader over the blocking socket.
    net::FrameDecoder decoder;
    auto readFrame = [&](net::Frame *frame) -> bool {
        for (;;) {
            const auto status = decoder.next(frame);
            if (status == net::DecodeStatus::Ok)
                return true;
            if (status != net::DecodeStatus::NeedMore)
                return false; // poisoned stream: hang up
            uint8_t buf[64 * 1024];
            const ssize_t n =
                state.sock.recvSome(buf, sizeof(buf));
            if (n <= 0)
                return false;
            decoder.feed(buf, static_cast<std::size_t>(n));
        }
    };

    net::Frame frame;
    if (!readFrame(&frame) || frame.type != net::MsgType::HelloAck)
        return 1;
    net::HelloAckMsg ack;
    if (!ack.decode(frame.payload) || ack.accepted == 0) {
        std::fprintf(stderr, "worker %llu: rejected by front-end: %s\n",
                     static_cast<unsigned long long>(options.worker_id),
                     ack.reason.c_str());
        return 1;
    }

    // Liveness beacon, decoupled from request execution: beats even
    // while a long request runs, so slow ≠ dead.
    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::thread heartbeat([&] {
        uint64_t seq = 0;
        std::unique_lock<std::mutex> lock(hb_mutex);
        while (!hb_stop) {
            hb_cv.wait_for(
                lock,
                std::chrono::duration<double, std::milli>(
                    options.heartbeat_interval_ms),
                [&] { return hb_stop; });
            if (hb_stop)
                return;
            lock.unlock();
            net::HeartbeatMsg beat;
            beat.worker_id = options.worker_id;
            beat.seq = seq++;
            beat.inflight = state.inflight.load();
            state.sendFrame(net::MsgType::Heartbeat, beat.encode());
            lock.lock();
        }
    });
    auto stopHeartbeat = [&] {
        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            hb_stop = true;
        }
        hb_cv.notify_all();
        heartbeat.join();
    };

    int exit_code = 0;
    for (;;) {
        if (!readFrame(&frame)) {
            exit_code = 1; // front-end gone
            break;
        }
        if (frame.type == net::MsgType::Submit) {
            net::SubmitMsg submit;
            if (!submit.decode(frame.payload)) {
                exit_code = 1;
                break;
            }
            state.inflight.store(1 + submit.extras.size());
            bool drop_conn = false;
            const auto results =
                executeSubmitBatch(state, submit, &drop_conn);
            state.inflight.store(0);
            if (drop_conn) {
                // Injected crash: sever without replying.
                stopHeartbeat();
                state.sock.close();
                return kConnDropExit;
            }
            bool send_failed = false;
            for (const auto &result : results) {
                if (result.status ==
                    static_cast<uint16_t>(net::WireStatus::Completed))
                    ++state.completed;
                if (!state.sendFrame(net::MsgType::Result,
                                     result.encode())) {
                    send_failed = true;
                    break;
                }
            }
            if (send_failed) {
                exit_code = 1;
                break;
            }
        } else if (frame.type == net::MsgType::Drain) {
            net::DrainAckMsg drained;
            drained.worker_id = options.worker_id;
            drained.completed = state.completed;
            state.sendFrame(net::MsgType::DrainAck, drained.encode());
            break;
        }
        // Unknown types are ignored: forward compatibility within a
        // wire version.
    }

    stopHeartbeat();
    return exit_code;
}

} // namespace cinnamon::serve::remote
