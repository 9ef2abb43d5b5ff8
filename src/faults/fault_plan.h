/**
 * @file
 * Deterministic fault injection for the serving stack.
 *
 * A FaultPlan is the failure schedule of one run: given a fault seed
 * and per-layer rates it decides, for every (request seed, attempt)
 * pair, whether that execution attempt suffers a chip failure (the
 * chip dies mid-program), a transient execution error (spurious,
 * succeeds on retry), or degraded network PHYs (collective latency
 * dilated in the simulator). Decisions are pure functions of
 * (plan seed, request seed, attempt) — never of wall clock, thread
 * identity, or scheduling order — so a concurrent serving run draws
 * exactly the same faults as a serial one, and the same --fault-seed
 * reproduces the same failure schedule bit for bit.
 *
 * The plan is stateless and therefore trivially thread-safe: workers
 * share one const instance without locks.
 */

#ifndef CINNAMON_FAULTS_FAULT_PLAN_H_
#define CINNAMON_FAULTS_FAULT_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace cinnamon::faults {

/** The layers the plan can break (DESIGN.md §5c taxonomy). */
enum class FaultKind {
    None,
    ChipFailure,
    ConnDrop, ///< worker's connection lost mid-request (§5d)
    Transient,
    LinkDegrade,
};

const char *faultKindName(FaultKind k);

/** Failure rates and recovery knobs of one fault schedule. */
struct FaultConfig
{
    /** Schedule seed; two runs with equal seeds draw equal faults. */
    uint64_t seed = 0;
    /**
     * Mean requests between chip failures (a request-count MTBF, the
     * serving-side face of the Table 3 yield model). Each attempt
     * kills a chip of its serving group with probability
     * 1 / chip_mtbf_requests; 0 disables chip faults.
     */
    double chip_mtbf_requests = 0.0;
    /** Per-attempt probability of a spurious execution error. */
    double transient_p = 0.0;
    /**
     * Per-attempt probability the serving worker's TCP connection
     * drops mid-request (distributed serving, DESIGN.md §5d). A
     * remote worker that draws this fault dies without replying; the
     * front-end maps the loss onto the §5c quarantine path and
     * requeues the in-flight request. Meaningless (ignored) for the
     * in-process server, which has no connections to lose.
     */
    double conn_drop_p = 0.0;
    /** Per-attempt probability a group's network PHY is degraded. */
    double link_degrade_p = 0.0;
    /** Collective latency multiplier while a link is degraded. */
    double link_dilation = 4.0;
    /**
     * Wall-clock ms until a failed chip's group may be re-admitted by
     * the health probe (repair / hot-spare swap time).
     */
    double chip_repair_ms = 50.0;

    /** True when any layer can actually fire. */
    bool enabled() const
    {
        return chip_mtbf_requests > 0.0 || transient_p > 0.0 ||
               conn_drop_p > 0.0 || link_degrade_p > 0.0;
    }
};

/** What the plan injects into one execution attempt. */
struct FaultDecision
{
    /** The chip dies mid-program (EmulatorError / sim abort). */
    bool chip_fails = false;
    /**
     * Victim chip as an offset; the injector reduces it modulo the
     * serving group's size (the schedule cannot know which group the
     * scheduler will lease, only which member of it dies).
     */
    std::size_t chip_offset = 0;
    /** Fraction of the victim's stream executed before it dies. */
    double at_fraction = 0.5;
    /** Spurious execution error after the program ran. */
    bool transient = false;
    /** Worker connection lost mid-request (remote serving only). */
    bool conn_drops = false;
    /** Collective latency multiplier this attempt (1 = healthy). */
    double link_dilation = 1.0;

    bool any() const
    {
        return chip_fails || conn_drops || transient ||
               link_dilation > 1.0;
    }

    /** The most severe layer that fired (for logging and metrics). */
    FaultKind primary() const;
};

/**
 * The deterministic failure schedule. decide() may be called from any
 * thread, in any order, any number of times; equal arguments always
 * return equal decisions.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(FaultConfig config) : config_(config) {}

    const FaultConfig &config() const { return config_; }

    /** The faults injected into attempt `attempt` of a request. */
    FaultDecision decide(uint64_t request_seed,
                         std::size_t attempt) const;

    /**
     * One stable text line per decision ("seed=… attempt=… kind=…"),
     * the unit the determinism tests compare bit for bit.
     */
    static std::string traceLine(uint64_t request_seed,
                                 std::size_t attempt,
                                 const FaultDecision &d);

    /**
     * The full failure trace of a request set: one traceLine per
     * (request seed, attempt < attempts) pair, in argument order.
     */
    std::vector<std::string>
    schedule(const std::vector<uint64_t> &request_seeds,
             std::size_t attempts) const;

  private:
    FaultConfig config_;
};

/**
 * Deterministic backoff with seeded jitter: attempt k waits
 * base * mult^k ms, capped at max_ms, scaled by a jitter factor in
 * [1 - jitter/2, 1 + jitter/2) drawn from (seed, attempt) — a pure
 * function, so retry timing is reproducible run to run.
 */
double backoffMs(uint64_t seed, std::size_t attempt, double base_ms,
                 double mult, double max_ms, double jitter);

/** An injected whole-chip loss observed outside the emulator. */
class ChipFailedError : public std::runtime_error
{
  public:
    ChipFailedError(std::size_t chip, const std::string &what)
        : std::runtime_error(what), chip_(chip)
    {
    }

    std::size_t chip() const { return chip_; }

  private:
    std::size_t chip_;
};

} // namespace cinnamon::faults

#endif // CINNAMON_FAULTS_FAULT_PLAN_H_
