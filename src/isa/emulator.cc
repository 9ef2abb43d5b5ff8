#include "isa/emulator.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/task_pool.h"
#include "rns/kernels.h"

namespace cinnamon::isa {
namespace {

/**
 * Minimum elements per limb slice: below this the nested-job overhead
 * beats the win, so small rings stay unsliced.
 */
constexpr std::size_t kSliceGrain = 4096;

} // namespace

void
ChipMemory::reserve(std::size_t limbs)
{
    if (limbs <= primes_.size())
        return;
    arena_.reserve(limbs * n_);
    primes_.reserve(limbs);
    slots_.reserve(limbs);
}

void
ChipMemory::clear()
{
    // clear() keeps capacity on vectors (and on libstdc++'s
    // unordered_map buckets), which is the point: the next program
    // reuses the allocation.
    arena_.clear();
    primes_.clear();
    slots_.clear();
}

uint64_t *
ChipMemory::slotFor(uint64_t addr, uint32_t prime)
{
    auto it = slots_.find(addr);
    uint32_t slot;
    if (it == slots_.end()) {
        slot = static_cast<uint32_t>(primes_.size());
        primes_.push_back(prime);
        arena_.resize(arena_.size() + n_);
        slots_.emplace(addr, slot);
    } else {
        slot = it->second;
        primes_[slot] = prime;
    }
    return arena_.data() + static_cast<std::size_t>(slot) * n_;
}

void
ChipMemory::store(uint64_t addr, uint32_t prime, rns::ConstLimbSpan data)
{
    CINN_ASSERT(data.size() == n_, "store: limb length mismatch");
    std::memcpy(slotFor(addr, prime), data.data(),
                n_ * sizeof(uint64_t));
}

LimbRef
ChipMemory::at(uint64_t addr) const
{
    auto it = slots_.find(addr);
    CINN_ASSERT(it != slots_.end(), "no limb mapped at address " << addr);
    const std::size_t slot = it->second;
    return {primes_[slot],
            rns::ConstLimbSpan(arena_.data() + slot * n_, n_)};
}

uint64_t *
Emulator::RegFile::ensure(int index)
{
    const auto want = static_cast<std::size_t>(index);
    if (want >= size()) {
        primes.resize(want + 1, 0);
        defined.resize(want + 1, 0);
        data.resize((want + 1) * n, 0);
    }
    return plane(index);
}

void
Emulator::RegFile::clearDefined()
{
    std::fill(defined.begin(), defined.end(), 0);
}

Emulator::Emulator(const fhe::CkksContext &ctx, std::size_t chips)
    : ctx_(&ctx), chips_(chips)
{
    regs_.resize(chips);
    for (auto &rf : regs_)
        rf.n = ctx.n();
    mem_.assign(chips, ChipMemory(ctx.n()));
    scratch_.resize(chips);
    chip_stats_.resize(chips);
}

ChipMemory &
Emulator::memory(std::size_t chip)
{
    CINN_ASSERT(chip < chips_, "chip index out of range");
    return mem_[chip];
}

void
Emulator::resetMemory()
{
    for (ChipMemory &m : mem_)
        m.clear();
    for (RegFile &rf : regs_)
        rf.clearDefined();
    clearFault();
}

/**
 * Partition [0, n) into slices_ contiguous ranges and run them as a
 * nested pool job. Boundaries are the pool's static-partition formula,
 * so they depend only on (n, slices_) — never on timing.
 */
template <typename Fn>
void
Emulator::sliceFor(std::size_t n, Fn &&fn)
{
    if (slices_ <= 1 || n < 2 * kSliceGrain) {
        fn(0, n);
        return;
    }
    sliced_ops_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t slices = slices_;
    TaskPool::global().forEach(slices, [&](std::size_t s) {
        const std::size_t lo = s * n / slices;
        const std::size_t hi = (s + 1) * n / slices;
        if (lo < hi)
            fn(lo, hi);
    });
}

LimbRef
Emulator::reg(std::size_t chip, int index) const
{
    CINN_ASSERT(chip < chips_ && index >= 0 &&
                    static_cast<std::size_t>(index) < regs_[chip].size(),
                "register access out of range");
    const RegFile &rf = regs_[chip];
    return {rf.primes[index],
            rns::ConstLimbSpan(rf.plane(index), rf.n)};
}

std::size_t
Emulator::arenaBytes() const
{
    std::size_t bytes = 0;
    for (const ChipMemory &m : mem_)
        bytes += m.arenaBytes();
    for (const RegFile &rf : regs_)
        bytes += rf.data.capacity() * sizeof(uint64_t);
    return bytes;
}

const uint64_t *
Emulator::srcPlane(std::size_t chip, const ChipProgram &prog,
                   std::size_t pc, std::size_t operand) const
{
    const Instruction &ins = prog.instrs[pc];
    const auto srcs = prog.srcs(ins);
    CINN_ASSERT(operand < srcs.size() && srcs[operand] >= 0,
                "missing source operand: " << prog.toString(ins));
    const RegFile &rf = regs_[chip];
    const int r = srcs[operand];
    if (static_cast<std::size_t>(r) >= rf.size() || !rf.defined[r]) {
        std::ostringstream msg;
        msg << opcodeName(ins.op) << " reads undefined register r" << r
            << " on chip " << chip << " at pc " << pc << " ("
            << prog.toString(ins) << ")";
        throw EmulatorError(msg.str(), ins.op, chip, pc);
    }
    return rf.plane(r);
}

void
Emulator::execute(std::size_t chip, const ChipProgram &prog,
                  std::size_t pc)
{
    const Instruction &ins = prog.instrs[pc];
    const auto srcs = prog.srcs(ins);
    const auto aux = prog.aux(ins);
    // The armed fault point fires at-or-after its pc so a fraction
    // that lands on a collective still kills the chip at its next
    // owned instruction.
    if (fault_armed_ && chip == fault_chip_ && pc >= fault_pc_) {
        std::ostringstream msg;
        msg << "injected chip failure: chip " << chip
            << " died mid-program at pc " << pc;
        throw EmulatorError(msg.str(), ins.op, chip, pc);
    }
    RegFile &rf = regs_[chip];
    const rns::Modulus &mod = ctx_->rns().modulus(ins.prime);
    const uint64_t q = mod.value();
    const std::size_t n = ctx_->n();
    const rns::KernelTable &kt = rns::kernels();
    ++chip_stats_[chip].executed[ins.op];

    // ensure() may reallocate the register file, so the destination
    // plane is always claimed before source planes are resolved.
    auto dstPlane = [&]() -> uint64_t * {
        CINN_ASSERT(ins.dst >= 0,
                    "missing destination: " << prog.toString(ins));
        return rf.ensure(ins.dst);
    };
    auto commitDst = [&](uint32_t prime) {
        rf.primes[ins.dst] = prime;
        rf.defined[ins.dst] = 1;
    };
    auto srcPrime = [&](std::size_t i) { return rf.primes[srcs[i]]; };

    switch (ins.op) {
      case Opcode::Nop:
      case Opcode::Fence:
      case Opcode::Halt:
        break;
      case Opcode::Load: {
        if (!mem_[chip].contains(ins.imm)) {
            std::ostringstream msg;
            msg << "Load from unmapped address " << ins.imm
                << " on chip " << chip << " at pc " << pc << " ("
                << prog.toString(ins) << ")";
            throw EmulatorError(msg.str(), ins.op, chip, pc);
        }
        uint64_t *d = dstPlane();
        const LimbRef m = mem_[chip].at(ins.imm);
        const uint64_t *a = m.data.data();
        sliceFor(n, [&](std::size_t lo, std::size_t hi) {
            std::memcpy(d + lo, a + lo, (hi - lo) * sizeof(uint64_t));
        });
        commitDst(m.prime);
        break;
      }
      case Opcode::Store: {
        const uint64_t *a = srcPlane(chip, prog, pc, 0);
        uint64_t *d = mem_[chip].slotFor(ins.imm, srcPrime(0));
        sliceFor(n, [&](std::size_t lo, std::size_t hi) {
            std::memcpy(d + lo, a + lo, (hi - lo) * sizeof(uint64_t));
        });
        break;
      }
      case Opcode::Ntt:
      case Opcode::Intt: {
        uint64_t *d = dstPlane();
        const uint64_t *a = srcPlane(chip, prog, pc, 0);
        CINN_ASSERT(srcPrime(0) == ins.prime,
                    (ins.op == Opcode::Ntt ? "ntt" : "intt")
                        << " prime mismatch");
        if (d != a) {
            sliceFor(n, [&](std::size_t lo, std::size_t hi) {
                std::memcpy(d + lo, a + lo,
                            (hi - lo) * sizeof(uint64_t));
            });
        }
        if (ins.op == Opcode::Ntt)
            ctx_->rns().ntt(ins.prime).forward(d);
        else
            ctx_->rns().ntt(ins.prime).inverse(d);
        commitDst(ins.prime);
        break;
      }
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul: {
        uint64_t *d = dstPlane();
        const uint64_t *a = srcPlane(chip, prog, pc, 0);
        const uint64_t *b = srcPlane(chip, prog, pc, 1);
        CINN_ASSERT(srcPrime(0) == ins.prime &&
                        srcPrime(1) == ins.prime,
                    "binary op prime mismatch: "
                        << prog.toString(ins));
        sliceFor(n, [&](std::size_t lo, std::size_t hi) {
            if (ins.op == Opcode::Add)
                kt.add(d + lo, a + lo, b + lo, hi - lo, q);
            else if (ins.op == Opcode::Sub)
                kt.sub(d + lo, a + lo, b + lo, hi - lo, q);
            else
                kt.mul(d + lo, a + lo, b + lo, hi - lo, mod);
        });
        commitDst(ins.prime);
        break;
      }
      case Opcode::AddScalar:
      case Opcode::SubScalar:
      case Opcode::MulScalar: {
        uint64_t *d = dstPlane();
        const uint64_t *a = srcPlane(chip, prog, pc, 0);
        CINN_ASSERT(srcPrime(0) == ins.prime,
                    "scalar op prime mismatch");
        const uint64_t s = ins.imm % q;
        const uint64_t s_shoup = ins.op == Opcode::MulScalar
            ? rns::shoupPrecompute(s, q)
            : 0;
        sliceFor(n, [&](std::size_t lo, std::size_t hi) {
            if (ins.op == Opcode::MulScalar) {
                kt.mulScalarShoup(d + lo, a + lo, hi - lo, s, s_shoup,
                                  q);
            } else {
                for (std::size_t j = lo; j < hi; ++j) {
                    d[j] = ins.op == Opcode::AddScalar
                        ? rns::addMod(a[j], s, q)
                        : rns::subMod(a[j], s, q);
                }
            }
        });
        commitDst(ins.prime);
        break;
      }
      case Opcode::Automorph: {
        uint64_t *d = dstPlane();
        const uint64_t *a = srcPlane(chip, prog, pc, 0);
        CINN_ASSERT(srcPrime(0) == ins.prime,
                    "automorph prime mismatch");
        if (d == a) {
            auto &tmp = scratch_[chip];
            tmp.assign(a, a + n);
            kt.automorph(d, tmp.data(), n, ins.imm, q);
        } else {
            kt.automorph(d, a, n, ins.imm, q);
        }
        commitDst(ins.prime);
        break;
      }
      case Opcode::BConv: {
        // dst_j = Σ_i src_i[j] * ((S / s_i) mod q); sources must be
        // pre-scaled by (S/s_i)^{-1} mod s_i (the compiler emits
        // MulScalar first — this mirrors the two-stage BCU).
        CINN_ASSERT(aux.size() == srcs.size(),
                    "bconv needs one source prime per operand");
        const std::size_t fan = srcs.size();
        CINN_ASSERT(fan <= 64, "bconv fan-in too large");
        bool aliases = false;
        for (int s : srcs)
            aliases = aliases || s == ins.dst;
        uint64_t *d = dstPlane();
        const uint64_t *sp[64];
        uint64_t fs[64];
        uint64_t src_bound = 0;
        for (std::size_t i = 0; i < fan; ++i) {
            sp[i] = srcPlane(chip, prog, pc, i);
            CINN_ASSERT(srcPrime(i) == aux[i],
                        "bconv source prime mismatch");
            const uint64_t sv = ctx_->rns().modulus(aux[i]).value();
            src_bound = sv > src_bound ? sv : src_bound;
            uint64_t f = 1;
            for (std::size_t k = 0; k < aux.size(); ++k) {
                if (k == i)
                    continue;
                f = mod.mul(f,
                            ctx_->rns().modulus(aux[k]).value() % q);
            }
            fs[i] = f;
        }
        uint64_t *acc = d;
        if (aliases) {
            scratch_[chip].resize(n);
            acc = scratch_[chip].data();
        }
        sliceFor(n, [&](std::size_t lo, std::size_t hi) {
            std::memset(acc + lo, 0, (hi - lo) * sizeof(uint64_t));
            const uint64_t *sp_lo[64];
            for (std::size_t i = 0; i < fan; ++i)
                sp_lo[i] = sp[i] + lo;
            kt.macMulti(acc + lo, sp_lo, fs, fan, hi - lo, mod,
                        src_bound);
        });
        if (aliases) {
            sliceFor(n, [&](std::size_t lo, std::size_t hi) {
                std::memcpy(d + lo, acc + lo,
                            (hi - lo) * sizeof(uint64_t));
            });
        }
        commitDst(ins.prime);
        break;
      }
      case Opcode::Mod: {
        CINN_ASSERT(aux.size() == 1, "mod needs the source prime");
        uint64_t *d = dstPlane();
        const uint64_t *a = srcPlane(chip, prog, pc, 0);
        CINN_ASSERT(srcPrime(0) == aux[0],
                    "mod source prime mismatch");
        sliceFor(n, [&](std::size_t lo, std::size_t hi) {
            kt.modReduce(d + lo, a + lo, hi - lo, q);
        });
        commitDst(ins.prime);
        break;
      }
      case Opcode::Bcast:
      case Opcode::Agg:
        panic("collective reached scalar executor");
    }
}

void
Emulator::executeCollective(const MachineProgram &program,
                            const std::vector<std::size_t> &pcs,
                            uint32_t lo, uint32_t hi)
{
    const std::size_t n = ctx_->n();
    const ChipProgram &lead = program.chips[lo];
    const Instruction &first = lead.instrs[pcs[lo]];
    for (std::size_t c = lo + 1; c < hi; ++c) {
        const ChipProgram &prog = program.chips[c];
        const Instruction &ins = prog.instrs[pcs[c]];
        CINN_ASSERT(ins.op == first.op && ins.tag == first.tag,
                    "collective mismatch across chips: "
                        << lead.toString(first) << " vs "
                        << prog.toString(ins));
    }
    ++chip_stats_[lo].executed[first.op];

    // Collectives resolve serially between the parallel chip phases,
    // staged through a scratch limb so destination claims can't
    // invalidate the still-needed source planes.
    auto &value = scratch_[lo];
    uint32_t value_prime = first.prime;
    if (first.op == Opcode::Bcast) {
        // imm = owner chip; owner's src0 is copied to every dst.
        const std::size_t owner = first.imm;
        CINN_ASSERT(owner >= lo && owner < hi,
                    "broadcast owner outside participant group");
        const ChipProgram &oprog = program.chips[owner];
        const uint64_t *a = srcPlane(owner, oprog, pcs[owner], 0);
        value.assign(a, a + n);
        const int r = oprog.srcs(oprog.instrs[pcs[owner]])[0];
        value_prime = regs_[owner].primes[r];
    } else { // Agg
        const rns::Modulus &mod = ctx_->rns().modulus(first.prime);
        const rns::KernelTable &kt = rns::kernels();
        value.resize(n);
        // Resolve (and fault-check) every participant's source before
        // slicing; the accumulation itself is elementwise, so each
        // slice runs the full chip chain over its own range — the
        // per-index arithmetic order matches the serial path exactly.
        std::vector<const uint64_t *> srcs;
        srcs.reserve(hi - lo);
        for (std::size_t c = lo; c < hi; ++c) {
            const ChipProgram &prog = program.chips[c];
            srcs.push_back(srcPlane(c, prog, pcs[c], 0));
            const int r = prog.srcs(prog.instrs[pcs[c]])[0];
            CINN_ASSERT(regs_[c].primes[r] == first.prime,
                        "aggregation prime mismatch");
        }
        uint64_t *v = value.data();
        sliceFor(n, [&](std::size_t slo, std::size_t shi) {
            std::memset(v + slo, 0, (shi - slo) * sizeof(uint64_t));
            for (const uint64_t *a : srcs)
                kt.add(v + slo, v + slo, a + slo, shi - slo,
                       mod.value());
        });
    }
    for (std::size_t c = lo; c < hi; ++c) {
        const Instruction &ins = program.chips[c].instrs[pcs[c]];
        if (ins.dst >= 0) {
            uint64_t *d = regs_[c].ensure(ins.dst);
            const uint64_t *v = value.data();
            sliceFor(n, [&](std::size_t slo, std::size_t shi) {
                std::memcpy(d + slo, v + slo,
                            (shi - slo) * sizeof(uint64_t));
            });
            regs_[c].primes[ins.dst] = value_prime;
            regs_[c].defined[ins.dst] = 1;
        }
    }
}

void
Emulator::run(const MachineProgram &program)
{
    CINN_ASSERT(program.numChips() == chips_,
                "program chip count mismatch");
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::size_t> pcs(chips_, 0);

    // Effective parallelism budget: workers_ capped by the shared
    // pool (0 = take the pool's size). Chips consume the budget
    // first; what is left over slices limb planes. slices_ is a pure
    // function of (workers_, pool size, chips_, n) — never of timing
    // — and slicing never changes results, only wall clock.
    const std::size_t pool_par = TaskPool::global().parallelism();
    std::size_t budget =
        workers_ == 0 ? pool_par : std::min(workers_, pool_par);
    if (budget == 0)
        budget = 1;
    slices_ = 1;
    if (budget > chips_ && ctx_->n() >= 2 * kSliceGrain) {
        slices_ = (budget + chips_ - 1) / chips_;
        const std::size_t max_slices =
            std::max<std::size_t>(1, ctx_->n() / kSliceGrain);
        slices_ = std::min(slices_, max_slices);
    }
    sliced_ops_.store(0, std::memory_order_relaxed);

    // Pre-size each chip's register file to the stream's highest
    // destination register: one allocation up front instead of many
    // exact-fit regrowths on the execution path.
    for (std::size_t c = 0; c < chips_; ++c) {
        int max_dst = -1;
        for (const Instruction &ins : program.chips[c].instrs)
            max_dst = std::max(max_dst, ins.dst);
        if (max_dst >= 0)
            regs_[c].ensure(max_dst);
    }

    while (true) {
        // Advance every chip to its next collective (or the end);
        // chips share no mutable state here, so the advance runs on
        // the worker pool when workers_ > 1 with identical results.
        TaskPool::global().forEach(chips_, workers_, [&](auto c) {
            const auto &instrs = program.chips[c].instrs;
            while (pcs[c] < instrs.size() &&
                   !isCollective(instrs[pcs[c]].op)) {
                execute(c, program.chips[c], pcs[c]);
                ++pcs[c];
            }
        });
        bool all_done = true;
        for (std::size_t c = 0; c < chips_; ++c) {
            if (pcs[c] < program.chips[c].instrs.size())
                all_done = false;
        }
        if (all_done)
            break;
        // Find a collective whose participant group is fully parked
        // on the same tag. Groups (streams) progress independently.
        bool progressed = false;
        for (std::size_t c = 0; c < chips_ && !progressed; ++c) {
            const auto &instrs = program.chips[c].instrs;
            if (pcs[c] >= instrs.size())
                continue;
            const Instruction &ins = instrs[pcs[c]];
            const uint32_t lo = ins.part_lo;
            const uint32_t hi = ins.part_hi == 0
                ? static_cast<uint32_t>(chips_)
                : ins.part_hi;
            bool ready = true;
            for (uint32_t p = lo; p < hi; ++p) {
                const auto &pin = program.chips[p].instrs;
                if (pcs[p] >= pin.size() ||
                    !isCollective(pin[pcs[p]].op) ||
                    pin[pcs[p]].tag != ins.tag) {
                    ready = false;
                    break;
                }
            }
            if (!ready)
                continue;
            executeCollective(program, pcs, lo, hi);
            for (uint32_t p = lo; p < hi; ++p)
                ++pcs[p];
            progressed = true;
        }
        CINN_ASSERT(progressed,
                    "collective deadlock: no participant group is "
                    "fully assembled");
    }

    std::size_t run_total = 0;
    last_run_.executed.clear();
    for (EmulatorStats &cs : chip_stats_) {
        for (const auto &[op, cnt] : cs.executed) {
            stats_.executed[op] += cnt;
            last_run_.executed[op] += cnt;
            run_total += cnt;
        }
        cs.executed.clear();
    }

    const double run_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    auto &reg = MetricsRegistry::global();
    reg.counter("emulator.runs").add(1);
    reg.counter("emulator.limbs_executed").add(
        static_cast<double>(run_total));
    reg.gauge("emulator.arena_bytes").set(
        static_cast<double>(arenaBytes()));
    reg.gauge("emulator.workers").set(static_cast<double>(workers_));
    reg.histogram("emulator.run_ms").observe(run_ms);
    const std::size_t sliced =
        sliced_ops_.load(std::memory_order_relaxed);
    reg.gauge("emulator.slice.slices").set(
        static_cast<double>(slices_));
    reg.counter("emulator.slice.sliced_ops").add(
        static_cast<double>(sliced));
    // Occupancy: fraction of this run's instructions that fanned out.
    if (run_total > 0) {
        reg.gauge("emulator.slice.occupancy")
            .set(static_cast<double>(sliced) /
                 static_cast<double>(run_total));
    }
}

std::unique_ptr<Emulator>
EmulatorCache::acquire(std::size_t chips)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = idle_.begin(); it != idle_.end(); ++it) {
            if ((*it)->chips() == chips) {
                std::unique_ptr<Emulator> emu = std::move(*it);
                idle_.erase(it);
                MetricsRegistry::global()
                    .counter("emulator.cache.reuse")
                    .add(1);
                emu->resetMemory();
                return emu;
            }
        }
    }
    MetricsRegistry::global().counter("emulator.cache.create").add(1);
    return std::make_unique<Emulator>(*ctx_, chips);
}

void
EmulatorCache::release(std::unique_ptr<Emulator> emu)
{
    if (!emu)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(emu));
}

} // namespace cinnamon::isa
