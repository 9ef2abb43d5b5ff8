#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"

namespace cinnamon::sim {

namespace {

using isa::Instruction;
using isa::Opcode;

FuType
fuOf(Opcode op)
{
    switch (op) {
      case Opcode::Ntt:
      case Opcode::Intt:
        return FuType::Ntt;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::AddScalar:
      case Opcode::SubScalar:
        return FuType::Add;
      case Opcode::Mul:
      case Opcode::MulScalar:
        return FuType::Mul;
      case Opcode::Automorph:
        return FuType::Auto;
      case Opcode::BConv:
        return FuType::BConv;
      case Opcode::Mod:
        return FuType::ModRed;
      default:
        return FuType::None;
    }
}

constexpr double kHbmLatency = 200.0;

/** Timing state for one chip. */
struct ChipState
{
    double now = 0.0;
    double finish = 0.0;
    double hbm_free = 0.0;
    std::vector<double> reg_ready;
    std::map<FuType, std::vector<double>> fu_free;
    std::size_t pc = 0;

    double
    ready(int reg) const
    {
        if (reg < 0 || static_cast<std::size_t>(reg) >= reg_ready.size())
            return 0.0;
        return reg_ready[reg];
    }

    void
    setReady(int reg, double t)
    {
        if (reg < 0)
            return;
        if (static_cast<std::size_t>(reg) >= reg_ready.size())
            reg_ready.resize(reg + 1, 0.0);
        reg_ready[reg] = t;
    }
};

/** Area weights for utilization reporting (Table 1, mm^2). */
const std::map<FuType, double> kAreaWeights = {
    {FuType::Ntt, 34.08}, {FuType::Add, 0.4},
    {FuType::Mul, 2.55},  {FuType::Auto, 6.04},
    {FuType::BConv, 14.12}, {FuType::ModRed, 2.37},
};

/** Stable trace track (tid) per chip resource. */
enum TraceTrack : uint32_t {
    kTrackHbm = 0,
    kTrackNtt = 1,
    kTrackAdd = 2,
    kTrackMul = 3,
    kTrackAuto = 4,
    kTrackBConv = 5,
    kTrackModRed = 6,
    kTrackNet = 7,
};

uint32_t
trackOf(FuType ft)
{
    switch (ft) {
      case FuType::Ntt: return kTrackNtt;
      case FuType::Add: return kTrackAdd;
      case FuType::Mul: return kTrackMul;
      case FuType::Auto: return kTrackAuto;
      case FuType::BConv: return kTrackBConv;
      case FuType::ModRed: return kTrackModRed;
      default: return kTrackHbm;
    }
}

/** Names the per-chip processes and per-resource tracks up front. */
void
labelTrace(TraceRecorder &trace, std::size_t chips,
           const HardwareConfig &hw)
{
    for (std::size_t c = 0; c < chips; ++c) {
        const auto pid = static_cast<uint32_t>(c);
        trace.setProcessName(pid, "chip " + std::to_string(c));
        trace.setThreadName(pid, kTrackHbm, "hbm");
        for (const auto &[ft, count] : hw.fu_count) {
            (void)count;
            trace.setThreadName(pid, trackOf(ft), fuName(ft));
        }
        trace.setThreadName(pid, kTrackNet, "net");
    }
}

} // namespace

double
SimResult::computeUtilization(const HardwareConfig &hw) const
{
    if (cycles <= 0.0)
        return 0.0;
    double weighted = 0.0;
    double total_weight = 0.0;
    for (const auto &[ft, weight] : kAreaWeights) {
        auto cit = hw.fu_count.find(ft);
        const double count =
            cit == hw.fu_count.end() ? 1.0
                                     : static_cast<double>(cit->second);
        const double capacity =
            count * static_cast<double>(chips) * cycles;
        auto bit = fu_busy.find(ft);
        const double busy = bit == fu_busy.end() ? 0.0 : bit->second;
        weighted += weight * std::min(1.0, busy / capacity);
        total_weight += weight;
    }
    return weighted / total_weight;
}

double
SimResult::memoryUtilization(const HardwareConfig &hw) const
{
    (void)hw;
    if (cycles <= 0.0)
        return 0.0;
    return std::min(1.0, hbm_busy / (static_cast<double>(chips) * cycles));
}

double
SimResult::networkUtilization(const HardwareConfig &hw) const
{
    if (cycles <= 0.0)
        return 0.0;
    // Each chip contributes `net_links` PHYs (two 256 GB/s links on
    // the paper's chip); normalizing by chips alone would make C-4
    // and C-8 utilizations incomparable.
    const double links =
        static_cast<double>(chips) *
        static_cast<double>(std::max<std::size_t>(1, hw.net_links));
    return std::min(1.0, net_busy / (links * cycles));
}

std::vector<std::string>
SimResult::checkConservation(const HardwareConfig &hw) const
{
    std::vector<std::string> violations;
    auto violate = [&](const std::string &what) {
        violations.push_back(what);
    };
    std::ostringstream oss;
    auto msg = [&oss]() {
        std::string s = oss.str();
        oss.str("");
        return s;
    };

    // Instructions: every issued instruction retires, per chip, and
    // the per-chip books sum to the aggregate count.
    if (issued_per_chip.size() != chips ||
        retired_per_chip.size() != chips) {
        oss << "per-chip books cover " << issued_per_chip.size()
            << " chips, machine has " << chips;
        violate(msg());
    }
    std::size_t retired_total = 0;
    for (std::size_t c = 0;
         c < std::min(issued_per_chip.size(), retired_per_chip.size());
         ++c) {
        retired_total += retired_per_chip[c];
        if (issued_per_chip[c] != retired_per_chip[c]) {
            oss << "chip " << c << ": issued " << issued_per_chip[c]
                << " != retired " << retired_per_chip[c];
            violate(msg());
        }
    }
    if (retired_total != instructions) {
        oss << "retired " << retired_total << " != program's "
            << instructions << " instructions";
        violate(msg());
    }

    // Bytes booked equal the per-op sums.
    if (bytes_moved_hbm != (loads + stores) * hw.limbBytes()) {
        oss << "HBM bytes " << bytes_moved_hbm << " != (" << loads
            << " loads + " << stores << " stores) x " << hw.limbBytes()
            << " limb bytes";
        violate(msg());
    }
    if (bytes_moved_net != net_transfers * hw.limbBytes()) {
        oss << "net bytes " << bytes_moved_net << " != "
            << net_transfers << " limb transfers x " << hw.limbBytes()
            << " limb bytes";
        violate(msg());
    }

    // No resource can be busier than its capacity.
    const double chipsd = static_cast<double>(chips);
    const double eps = 1e-6 + 1e-9 * cycles * chipsd;
    for (const auto &[ft, busy] : fu_busy) {
        auto cit = hw.fu_count.find(ft);
        const double count =
            cit == hw.fu_count.end() ? 1.0
                                     : static_cast<double>(cit->second);
        if (busy > count * chipsd * cycles + eps) {
            oss << fuName(ft) << " busy " << busy << " > capacity "
                << count * chipsd * cycles;
            violate(msg());
        }
    }
    if (hbm_busy > chipsd * cycles + eps) {
        oss << "HBM busy " << hbm_busy << " > capacity "
            << chipsd * cycles;
        violate(msg());
    }
    const double links =
        chipsd *
        static_cast<double>(std::max<std::size_t>(1, hw.net_links));
    if (net_busy > links * cycles + eps) {
        oss << "net busy " << net_busy << " > capacity "
            << links * cycles;
        violate(msg());
    }
    return violations;
}

SimResult
simulate(const isa::MachineProgram &program, const HardwareConfig &hw,
         TraceRecorder *trace)
{
    const std::size_t chips = program.numChips();
    std::vector<ChipState> state(chips);
    for (auto &s : state) {
        for (const auto &[ft, count] : hw.fu_count)
            s.fu_free[ft].assign(count, 0.0);
    }

    SimResult result;
    result.chips = chips;
    result.instructions = program.totalInstructions();
    result.issued_per_chip.assign(chips, 0);
    result.retired_per_chip.assign(chips, 0);

    const double limb_bytes = static_cast<double>(hw.limbBytes());
    const double elem_occ =
        static_cast<double>(hw.n) / static_cast<double>(hw.lanes);
    const double bconv_occ =
        static_cast<double>(hw.n) / static_cast<double>(hw.bconv_lanes);
    const double hbm_xfer = limb_bytes / hw.hbmBytesPerCycle();
    // Degraded PHYs (fault injection) stretch every collective: the
    // link occupies more cycles for the same bytes, and hop latency
    // dilates with it. Conservation still holds — capacity checks are
    // in cycles, and the byte books are occupancy-independent.
    const double link_dil = std::max(1.0, hw.link_dilation);
    const double link_xfer =
        limb_bytes / hw.linkBytesPerCycle() * link_dil;
    const double hop_cycles = hw.hop_latency_cycles * link_dil;

    // Simulated cycles -> trace-event microseconds.
    const double us_per_cycle = 1.0 / (hw.clock_ghz * 1e3);
    if (trace != nullptr)
        labelTrace(*trace, chips, hw);
    auto record = [&](std::size_t chip, uint32_t track,
                      const Instruction &ins, double issue,
                      double busy_cycles) {
        if (trace == nullptr)
            return;
        TraceEvent e;
        e.name = isa::opcodeName(ins.op);
        e.category = "sim";
        e.pid = static_cast<uint32_t>(chip);
        e.tid = track;
        e.ts_us = issue * us_per_cycle;
        e.dur_us = busy_cycles * us_per_cycle;
        trace->complete(std::move(e));
    };

    std::map<uint32_t, double> link_free; ///< per group (part_lo)

    // Execute one non-collective instruction's timing on chip c.
    auto step = [&](std::size_t c, const Instruction &ins) {
        ChipState &s = state[c];
        ++result.issued_per_chip[c];
        double src_ready = 0.0;
        for (int r : program.chips[c].srcs(ins))
            src_ready = std::max(src_ready, s.ready(r));

        // Decoupled issue: the front end dispatches one instruction
        // per cycle into per-FU queues; execution begins when the
        // operands and a unit are ready. This models the statically
        // scheduled machine the compiler targets (Section 4.4 hoists
        // loads "as early as possible"), so a long-latency load does
        // not stall independent work behind it.
        if (ins.op == Opcode::Load || ins.op == Opcode::Store) {
            const double issue =
                std::max({s.now, src_ready, s.hbm_free});
            s.hbm_free = issue + hbm_xfer;
            result.hbm_busy += hbm_xfer;
            result.bytes_moved_hbm += hw.limbBytes();
            if (ins.op == Opcode::Load) {
                ++result.loads;
                s.setReady(ins.dst, issue + hbm_xfer + kHbmLatency);
            } else {
                ++result.stores;
            }
            record(c, kTrackHbm, ins, issue, hbm_xfer);
            s.now += 1.0;
            s.finish = std::max(s.finish, issue + hbm_xfer + kHbmLatency);
            return;
        }

        const FuType ft = fuOf(ins.op);
        if (ft == FuType::None) { // Fence/Nop/Halt
            s.now += 1.0;
            return;
        }
        auto &insts = s.fu_free[ft];
        CINN_ASSERT(!insts.empty(), "no functional unit instance for "
                                        << fuName(ft));
        auto best = std::min_element(insts.begin(), insts.end());
        const double occ = ft == FuType::BConv ? bconv_occ : elem_occ;
        const double lat = hw.fu_latency.at(ft);
        const double issue = std::max({s.now, src_ready, *best});
        *best = issue + occ;
        result.fu_busy[ft] += occ;
        record(c, trackOf(ft), ins, issue, occ);
        s.setReady(ins.dst, issue + occ + lat);
        s.now += 1.0;
        s.finish = std::max(s.finish, issue + occ + lat);
    };

    while (true) {
        bool all_done = true;
        for (std::size_t c = 0; c < chips; ++c) {
            const auto &instrs = program.chips[c].instrs;
            while (state[c].pc < instrs.size() &&
                   !isCollective(instrs[state[c].pc].op)) {
                step(c, instrs[state[c].pc]);
                ++state[c].pc;
            }
            if (state[c].pc < instrs.size())
                all_done = false;
        }
        if (all_done)
            break;

        bool progressed = false;
        for (std::size_t c = 0; c < chips && !progressed; ++c) {
            const auto &instrs = program.chips[c].instrs;
            if (state[c].pc >= instrs.size())
                continue;
            const Instruction &ins = instrs[state[c].pc];
            const uint32_t lo = ins.part_lo;
            const uint32_t hi =
                ins.part_hi == 0 ? static_cast<uint32_t>(chips)
                                 : ins.part_hi;
            bool ready = true;
            for (uint32_t p = lo; p < hi && ready; ++p) {
                const auto &pin = program.chips[p].instrs;
                ready = state[p].pc < pin.size() &&
                        isCollective(pin[state[p].pc].op) &&
                        pin[state[p].pc].tag == ins.tag;
            }
            if (!ready)
                continue;

            // Arrival: every participant's front end plus its source.
            double arrival = link_free[lo];
            for (uint32_t p = lo; p < hi; ++p) {
                const Instruction &pi =
                    program.chips[p].instrs[state[p].pc];
                double sr = state[p].now;
                for (int r : program.chips[p].srcs(pi))
                    sr = std::max(sr, state[p].ready(r));
                arrival = std::max(arrival, sr);
            }
            const std::size_t participants = hi - lo;
            double duration = 0.0;
            if (participants > 1) {
                const double hops =
                    hw.topology == Topology::Ring
                        ? std::max<double>(
                              1.0, std::ceil((participants - 1) / 2.0))
                        : 2.0;
                // A k-chip collective moves (k-1) limb transfers, not
                // one: an aggregation combines partial sums hop by
                // hop, so its transfers serialize on the group's link
                // resource; a broadcast is cut-through pipelined, so
                // the source link is occupied for a single transfer
                // while each of the (k-1) links still carries the
                // limb once.
                const std::size_t transfers = participants - 1;
                const double serialized =
                    ins.op == Opcode::Agg
                        ? static_cast<double>(transfers) * link_xfer
                        : link_xfer;
                duration = serialized + hops * hop_cycles;
                link_free[lo] = arrival + serialized;
                result.net_busy +=
                    static_cast<double>(transfers) * link_xfer;
                result.bytes_moved_net += transfers * hw.limbBytes();
                result.net_transfers += transfers;
                record(lo, kTrackNet, ins, arrival, serialized);
            }
            ++result.collectives;

            const double done = arrival + duration;
            for (uint32_t p = lo; p < hi; ++p) {
                const Instruction &pi =
                    program.chips[p].instrs[state[p].pc];
                ++result.issued_per_chip[p];
                state[p].setReady(pi.dst, done);
                state[p].now = std::max(state[p].now, arrival + 1.0);
                state[p].finish = std::max(state[p].finish, done);
                ++state[p].pc;
            }
            progressed = true;
        }
        CINN_ASSERT(progressed, "simulator collective deadlock");
    }

    for (std::size_t c = 0; c < chips; ++c) {
        result.retired_per_chip[c] = state[c].pc;
        result.cycles = std::max(result.cycles, state[c].finish);
    }
    result.seconds = result.cycles / (hw.clock_ghz * 1e9);

    // Self-check the books and publish them as metrics: an accounting
    // bug shows up as a violated invariant here, not as a silently
    // skewed figure downstream.
    const auto violations = result.checkConservation(hw);
    auto &metrics = MetricsRegistry::global();
    metrics.counter("sim.simulations").add();
    metrics.counter("sim.instructions")
        .add(static_cast<double>(result.instructions));
    metrics.counter("sim.bytes.hbm")
        .add(static_cast<double>(result.bytes_moved_hbm));
    metrics.counter("sim.bytes.net")
        .add(static_cast<double>(result.bytes_moved_net));
    metrics.counter("sim.collectives")
        .add(static_cast<double>(result.collectives));
    metrics.counter("sim.conservation.checks").add();
    metrics.counter("sim.conservation.violations")
        .add(static_cast<double>(violations.size()));
    CINN_ASSERT(violations.empty(),
                "conservation violated: " << violations.front()
                                          << " (and "
                                          << violations.size() - 1
                                          << " more)");
    return result;
}

} // namespace cinnamon::sim
