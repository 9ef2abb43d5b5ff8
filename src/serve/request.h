/**
 * @file
 * Request/response types for the multi-tenant serving runtime.
 *
 * A request names an encrypted-inference workload (one of the paper's
 * Section 6.2 benchmarks, or the small end-to-end probe program), a
 * seed that determines its key material and input ciphertexts, and an
 * optional deadline. The runtime answers with a response carrying the
 * request's fate, its latency decomposition (queue wait, service,
 * total — wall-clock), the simulated on-accelerator seconds, and a
 * hash of the decrypted-able output ciphertexts so that concurrent
 * and serial executions can be compared bit-for-bit.
 */

#ifndef CINNAMON_SERVE_REQUEST_H_
#define CINNAMON_SERVE_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace cinnamon::serve {

using Clock = std::chrono::steady_clock;

/** Wall-clock milliseconds elapsed since `t`. */
inline double
msSince(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t)
        .count();
}

/**
 * The workload a request asks the runtime to execute.
 *
 * Serialized as a uint16 on the wire (src/net/message.h), so new
 * workloads are appended at the end — reordering would silently remap
 * requests between mixed-version peers.
 */
enum class Workload {
    Bootstrap,     ///< one full CKKS bootstrap
    ResNet,        ///< ResNet-20 CIFAR-10 inference
    Helr,          ///< HELR logistic-regression training
    Bert,          ///< BERT-base 128-token inference (S16, DESIGN §3)
    Keyswitch,     ///< a single rotation (smallest kernel)
    ObliviousJoin, ///< oblivious equi-join (bitonic sort + merge)
};

const char *workloadName(Workload w);

/** Parse a workloadName() string; false if unknown. */
bool workloadFromName(const std::string &name, Workload *out);

/** One encrypted-inference request. */
struct Request
{
    uint64_t id = 0;
    Workload workload = Workload::Keyswitch;
    /** Determines the request's keys and input ciphertexts. */
    uint64_t seed = 0;
    /** Wall-clock deadline measured from first admission; 0 = none. */
    std::chrono::milliseconds deadline{0};
    /**
     * When the current attempt was scheduled: stamped at submit and
     * at each retry, kept when a request is handed back to the queue
     * without a new attempt. queue_ms counts from here.
     */
    Clock::time_point admitted{};
    /**
     * First admission; the deadline budget spans every attempt, so
     * retries never reset it. Stamped once at submit.
     */
    Clock::time_point born{};
    /** Execution attempt, 0-based; bumped on each retry. */
    std::size_t attempt = 0;
};

/** How a request left the system. */
enum class RequestStatus {
    Completed, ///< executed end-to-end
    Rejected,  ///< bounced at admission (queue full — backpressure)
    Expired,   ///< deadline passed while queued
    Failed,    ///< execution raised an error
    Retried,   ///< attempt faulted; requeued for another attempt
};

const char *statusName(RequestStatus s);

/** The runtime's answer to one request. */
struct Response
{
    uint64_t id = 0;
    Workload workload = Workload::Keyswitch;
    RequestStatus status = RequestStatus::Completed;

    double queue_ms = 0.0;   ///< attempt admitted → dequeue
    double service_ms = 0.0; ///< dequeue → completion (incl. group wait)
    double total_ms = 0.0;   ///< admission → completion
    double sim_seconds = 0.0; ///< simulated on-accelerator time
    /** Host wall-clock ms compiling for this request (0 = all hits). */
    double compile_ms = 0.0;

    /** FNV-1a over the output ciphertext limbs (0 if not emulated). */
    uint64_t output_hash = 0;
    /** Chip group that served the request (size_t(-1) if none). */
    std::size_t group = static_cast<std::size_t>(-1);
    std::string error; ///< for Failed / Retried
    /** Execution attempt this response describes (0-based). */
    std::size_t attempt = 0;
    /**
     * True when the condition behind a non-Completed status is
     * transient: a Rejected submit may be retried once the queue
     * drains, and a Failed/Retried attempt hit an injected or
     * infrastructure fault rather than a permanent program error.
     */
    bool retryable = false;
    /**
     * For Retried: the attempt was requeued onto different hardware
     * because its group lost a chip (or the machine was fully
     * quarantined), not merely because of a transient error.
     */
    bool requeued = false;
    /**
     * How many requests shared the multi-stream program this attempt
     * executed in (1 = served alone; >1 = continuous batching).
     */
    std::size_t batch_streams = 1;
};

} // namespace cinnamon::serve

#endif // CINNAMON_SERVE_REQUEST_H_
