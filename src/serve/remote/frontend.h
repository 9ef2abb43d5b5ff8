/**
 * @file
 * The orchestrating front-end of the distributed serving tier
 * (DESIGN.md §5d).
 *
 * The front-end owns everything a request needs before and after it
 * touches hardware — admission and settlement (the same Settlement
 * module as the in-process server: bounded queue, deadlines, retry
 * policy, response rows), dispatch order (FIFO with seed-keyed group
 * preference), and placement (one chip group per connected worker
 * process, leased through the existing ChipGroupScheduler; a batch
 * rides one worker) — while the compile → simulate → emulate
 * pipeline itself runs in worker processes across standing TCP
 * connections.
 *
 * Failure mapping (the shared settlement module): a worker that
 * misses heartbeats, drops its connection, or reports a chip fault is
 * a quarantined group — markChipFailed parks it, its in-flight
 * requests are requeued losslessly with their original deadline
 * budget (born is never restamped), and each completes on a
 * surviving worker. Retries requeue at once: the victim hardware is
 * quarantined, and the I/O thread must not sleep. Because a
 * request's output digest is a pure function of its seed, the
 * rerouted request produces the exact bytes the dead worker would
 * have — distributed results are bit-identical to single-process
 * runs, kill or no kill.
 *
 * Threads: the caller's (submit/drainAndStop), an I/O thread running
 * the poll event loop (accepts, frame reads, heartbeat timeouts,
 * repair readmissions), and a dispatcher thread that pairs queued
 * requests with idle workers. Worker connections are shared_ptr'd:
 * the I/O thread may tear one down while the dispatcher holds it.
 */

#ifndef CINNAMON_SERVE_REMOTE_FRONTEND_H_
#define CINNAMON_SERVE_REMOTE_FRONTEND_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "net/message.h"
#include "net/socket.h"
#include "serve/batcher.h"
#include "serve/scheduler.h"
#include "serve/settlement.h"
#include "serve/stats.h"

namespace cinnamon::serve::remote {

/** Deployment shape of the front-end. */
struct FrontEndOptions
{
    std::size_t workers = 2;    ///< chip groups = worker slots
    std::size_t group_size = 4; ///< chips per worker's group
    std::size_t queue_capacity = 64;
    uint16_t port = 0; ///< loopback listen port (0 = OS-assigned)
    /** Missed-heartbeat window before a worker is declared dead. */
    double heartbeat_timeout_ms = 1000.0;
    /** Event-loop tick: heartbeat sweep + repair readmissions. */
    double tick_ms = 20.0;
    /**
     * Quarantine age after which a chip-fault-quarantined group with
     * a live worker is re-admitted (repair time). Groups whose worker
     * died stay parked until a replacement reconnects.
     */
    double repair_ms = 50.0;
    /** Retry policy for faulted/lost attempts (shared semantics). */
    RetryPolicy retry;
    /**
     * Route each request to group (seed % groups) when that worker is
     * idle (falls back to any idle worker). Placement never affects
     * results — digests depend only on the seed — but keyed routing
     * keeps placement reproducible run to run.
     */
    bool seed_routing = true;
    /**
     * Continuous cross-request batching (wire v2): coalesce up to
     * this many compatible queued requests into one Submit — the
     * worker executes them as a single multi-stream program. 1 (the
     * default) dispatches every request alone; digests are
     * bit-identical either way.
     */
    std::size_t batch_max_streams = 1;
    /**
     * How long a short batch lingers for compatible arrivals before
     * dispatching anyway (only with batch_max_streams > 1).
     */
    double batch_linger_ms = 2.0;
};

/**
 * The front-end process. Lifecycle: construct → start() →
 * waitForWorkers() → submit()× → drainAndStop() → stats().
 */
class RemoteFrontEnd
{
  public:
    explicit RemoteFrontEnd(FrontEndOptions options);
    ~RemoteFrontEnd();

    RemoteFrontEnd(const RemoteFrontEnd &) = delete;
    RemoteFrontEnd &operator=(const RemoteFrontEnd &) = delete;

    /**
     * Bind the loopback listener and start the I/O + dispatcher
     * threads.
     *
     * @return false when the port cannot be bound.
     */
    bool start();

    /** The bound listen port (valid after start()). */
    uint16_t port() const { return port_; }

    /** Block until `n` workers completed the Hello handshake. */
    bool waitForWorkers(std::size_t n, double timeout_ms = 10000.0);

    /** Admit a request (same contract as Server::submit). */
    bool submit(Workload workload, uint64_t seed,
                std::chrono::milliseconds deadline =
                    std::chrono::milliseconds(0));

    /**
     * Stop admitting, wait until every admitted request reached a
     * final state (completed / expired / failed — lossless even
     * across worker deaths), drain the workers, and join.
     */
    void drainAndStop();

    /** Responses recorded so far (complete after drainAndStop). */
    std::vector<Response> responses() const;

    /** Aggregate statistics, including per-group placement. */
    ServeStats stats() const;

    const ChipGroupScheduler &scheduler() const { return *scheduler_; }

    /** Workers currently connected and ready. */
    std::size_t connectedWorkers() const;

  private:
    /** One worker connection (shared between I/O and dispatcher). */
    struct Conn
    {
        net::Socket sock;
        net::FrameDecoder decoder;
        std::mutex send_mutex;
        uint64_t worker_id = 0;
        std::size_t group = static_cast<std::size_t>(-1);
        bool ready = false; ///< Hello handshake completed
        Clock::time_point last_heartbeat{};

        bool send(net::MsgType type,
                  const std::vector<uint8_t> &payload);
    };

    /**
     * Everything one leased group is executing: the lease plus the
     * batch members' attempts (by request id). The lease releases
     * when the last member resolves — after any markChipFailed, so a
     * faulted group parks instead of freeing.
     */
    struct GroupWork
    {
        GroupLease lease;
        std::map<uint64_t, Attempt> members;
    };

    // I/O thread.
    void onAccept();
    void onReadable(const std::shared_ptr<Conn> &conn);
    void handleFrame(const std::shared_ptr<Conn> &conn,
                     const net::Frame &frame);
    void handleHello(const std::shared_ptr<Conn> &conn,
                     const net::HelloMsg &hello);
    void handleResult(const std::shared_ptr<Conn> &conn,
                      const net::ResultMsg &result);
    /** Heartbeat sweep + repair readmissions. */
    void tick();
    /** Connection death: quarantine the group, requeue in-flight. */
    void dropConn(const std::shared_ptr<Conn> &conn,
                  const char *why);

    // Dispatcher thread.
    void dispatchLoop();
    /**
     * Place a batch of compatible requests (size 1 = the unbatched
     * path) on one worker as a single multi-stream Submit.
     */
    void dispatch(std::vector<Request> batch);

    /**
     * Settle an attempt that lost its result: retry it at once when
     * the settlement policy allows, else its final row.
     */
    void requeueOrSettle(Attempt attempt, std::string error,
                         bool retryable, bool chip_failed);

    FrontEndOptions options_;
    /** Admission, the queue, and every response row. */
    Settlement settlement_;
    std::unique_ptr<BatchFormer> batcher_;
    std::unique_ptr<ChipGroupScheduler> scheduler_;
    net::EventLoop loop_;
    net::Socket listener_;
    uint16_t port_ = 0;

    std::thread io_thread_;
    std::thread dispatch_thread_;

    /** Guards the connection and placement state below. */
    mutable std::mutex net_mutex_;
    std::map<int, std::shared_ptr<Conn>> conns_; ///< by fd
    std::vector<std::shared_ptr<Conn>> group_conns_; ///< by group
    std::map<std::size_t, GroupWork> inflight_;      ///< by group
    /** Groups quarantined by a *reported chip fault* (repairable
        in place); connection-loss quarantines are absent here — they
        recover only via a replacement Hello. */
    std::map<std::size_t, Clock::time_point> repairable_since_;
    std::condition_variable workers_cv_;
    std::size_t drain_acks_ = 0;
    /** Set during drainAndStop: worker EOFs are orderly, not faults. */
    bool draining_ = false;

    std::atomic<bool> stop_dispatch_{false};
};

} // namespace cinnamon::serve::remote

#endif // CINNAMON_SERVE_REMOTE_FRONTEND_H_
