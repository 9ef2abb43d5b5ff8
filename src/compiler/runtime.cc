#include "compiler/runtime.h"

#include <chrono>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/task_pool.h"

namespace cinnamon::compiler {

namespace {
using Clock = std::chrono::steady_clock;
} // namespace

void
ProgramRuntime::bindInput(const std::string &name,
                          const fhe::Ciphertext &ct)
{
    inputs_[name] = ct;
    ++bindings_version_;
}

void
ProgramRuntime::bindPlain(const std::string &name,
                          std::vector<fhe::Cplx> values)
{
    plains_[name] = std::move(values);
    // Drop the old values' encodings.
    for (auto it = plain_cache_.begin(); it != plain_cache_.end();)
        it = std::get<0>(it->first) == name ? plain_cache_.erase(it)
                                            : std::next(it);
    ++bindings_version_;
}

std::vector<const fhe::EvalKey *>
ProgramRuntime::keysFor(const PreloadTable &table, std::size_t copies)
{
    const std::size_t nkeys = table.keys.size();
    std::vector<const fhe::EvalKey *> keys(copies * nkeys, nullptr);
    std::vector<std::size_t> missing; // indices into `keys`
    for (std::size_t copy = 0; copy < copies; ++copy) {
        for (std::size_t k = 0; k < nkeys; ++k) {
            const auto it =
                key_cache_.find({copy, table.keys[k].identity});
            if (it != key_cache_.end() &&
                it->second.limbs == table.keys[k].limbs)
                keys[copy * nkeys + k] = &it->second.key;
            else
                missing.push_back(copy * nkeys + k);
        }
    }
    if (missing.empty())
        return keys;

    // Each key comes from a generator derived from (its copy's master
    // seed, key identity), so the bits depend neither on the order
    // the program loads keys in nor on which worker draws them.
    std::vector<fhe::EvalKey> fresh(missing.size());
    TaskPool::global().forEach(missing.size(), [&](std::size_t i) {
        const std::size_t copy = missing[i] / nkeys;
        const PreloadTable::Key &key = table.keys[missing[i] % nkeys];
        fhe::KeyGenerator *keygen = keygen_;
        const fhe::SecretKey *sk = sk_;
        if (!copy_keys_.empty()) {
            keygen = copy_keys_[copy].keygen;
            sk = copy_keys_[copy].sk;
        }
        fhe::KeyGenerator kg = keygen->derived(key.identity);
        fresh[i] = kg.keyLimbs(*sk, key.galois,
                               keyDigitBases(*ctx_, key), key.limbs);
    });

    double limbs = 0.0, full = 0.0;
    for (std::size_t i = 0; i < missing.size(); ++i) {
        const std::size_t copy = missing[i] / nkeys;
        const PreloadTable::Key &key = table.keys[missing[i] % nkeys];
        for (const rns::Basis &primes : key.limbs)
            limbs += 2.0 * static_cast<double>(primes.size());
        full += 2.0 * static_cast<double>(key.limbs.size() *
                                          ctx_->keyBasis().size());
        CachedKey &slot = key_cache_[{copy, key.identity}];
        slot.limbs = key.limbs;
        slot.key = std::move(fresh[i]);
        keys[missing[i]] = &slot.key;
    }
    auto &metrics = MetricsRegistry::global();
    metrics.counter("runtime.keys.generated")
        .add(static_cast<double>(missing.size()));
    metrics.counter("runtime.key_limbs.generated").add(limbs);
    metrics.counter("runtime.key_limbs.full").add(full);
    return keys;
}

std::vector<const rns::RnsPoly *>
ProgramRuntime::plainsFor(const PreloadTable &table)
{
    std::vector<const rns::RnsPoly *> plains;
    plains.reserve(table.plains.size());
    for (const PreloadTable::Plain &plain : table.plains) {
        auto cached =
            plain_cache_.find({plain.name, plain.level, plain.scale});
        if (cached == plain_cache_.end()) {
            auto it = plains_.find(plain.name);
            CINN_FATAL_UNLESS(it != plains_.end(),
                              "unbound plaintext '" << plain.name << "'");
            auto poly =
                encoder_->encode(it->second, plain.level, plain.scale);
            poly.toEval();
            cached = plain_cache_
                         .emplace(std::make_tuple(plain.name, plain.level,
                                                  plain.scale),
                                  std::move(poly))
                         .first;
        }
        plains.push_back(&cached->second);
    }
    return plains;
}

std::map<std::string, fhe::Ciphertext>
ProgramRuntime::run(const CompiledProgram &program)
{
    const auto run_start = Clock::now();
    const std::size_t chips = program.machine.numChips();
    if (emu_ && emu_chips_ != chips) {
        if (emu_cache_)
            emu_cache_->release(std::move(emu_));
        emu_.reset();
    }
    if (!emu_) {
        // acquire() hands back a resetMemory()'d instance with warm
        // capacity; a fresh build needs no reset.
        emu_ = emu_cache_
            ? emu_cache_->acquire(chips)
            : std::make_unique<isa::Emulator>(*ctx_, chips);
        emu_chips_ = chips;
        last_program_ = nullptr;
        prestored_program_ = nullptr;
    } else if (last_program_ != &program) {
        // Same chips, different program: drop the old program's
        // mappings and register definitions (capacity stays) so they
        // cannot mask this program's data-dependent faults.
        emu_->resetMemory();
        prestored_program_ = nullptr;
    }
    last_program_ = &program;
    isa::Emulator &emu = *emu_;
    emu.setWorkers(emu_workers_);

    // Apply (and consume) an armed fault: translate the stream
    // fraction into a concrete pc on the victim chip so the failure
    // point is a pure function of (program, fraction), never timing.
    if (fault_armed_) {
        fault_armed_ = false;
        const std::size_t victim = fault_chip_ % chips;
        const auto &instrs = program.machine.chips[victim].instrs;
        const auto pc = static_cast<std::size_t>(
            fault_at_ * static_cast<double>(instrs.size()));
        emu.injectChipFailure(victim,
                              std::min(pc, instrs.size() - 1));
    } else {
        emu.clearFault();
    }

    // Store exactly the limbs each chip loads, as the program's
    // preload table lists them. Every address is (re-)stored each run
    // — stores to mapped addresses overwrite in place — so reusing the
    // emulator never leaks data from a prior run or a prior input
    // binding into this one. With batched key material (setCopyKeys)
    // the chips partition evenly into copies, and each chip's
    // evaluation keys come from its copy's generator.
    const PreloadTable &table = program.preload;
    CINN_FATAL_UNLESS(table.chips.size() == chips,
                      "program has no preload table for its " << chips
                          << " chips (build it with Compiler::compile)");
    const std::size_t copies =
        copy_keys_.empty() ? 1 : copy_keys_.size();
    CINN_FATAL_UNLESS(chips % copies == 0,
                      "batched program chips (" << chips
                          << ") must split evenly over " << copies
                          << " copies");
    const std::size_t chips_per_copy = chips / copies;
    std::vector<const fhe::Ciphertext *> inputs;
    inputs.reserve(table.inputs.size());
    for (const std::string &name : table.inputs) {
        auto it = inputs_.find(name);
        CINN_FATAL_UNLESS(it != inputs_.end(),
                          "unbound program input '" << name << "'");
        inputs.push_back(&it->second);
    }
    const auto plains = plainsFor(table);
    const auto keys = keysFor(table, copies);
    // Re-running the identical program on the same emulator with no
    // binding changed in between: any pre-loaded address the program
    // never Stores to still holds exactly the limb the previous run
    // stored there (only Store instructions and this loop ever write
    // chip memory), so its copy is skipped. A partial previous run
    // (injected fault) is covered too — `dirtied` comes from the
    // program text, not from what executed.
    const bool reuse_clean = prestored_program_ == &program &&
                             prestored_version_ == bindings_version_;
    for (std::size_t c = 0; c < chips; ++c) {
        const std::size_t copy = c / chips_per_copy;
        // Pre-size the chip's arena/tables to the stream's footprint
        // so the store hot path never reallocates or rehashes mid-run.
        emu.memory(c).reserve(table.footprint[c]);
        for (const PreloadTable::Load &load : table.chips[c]) {
            if (reuse_clean && !load.dirtied)
                continue; // still holds last run's identical limb
            rns::ConstLimbSpan limb;
            switch (load.kind) {
              case DataDescriptor::Kind::InputCt: {
                const fhe::Ciphertext &ct = *inputs[load.source];
                const rns::RnsPoly &p = load.poly == 0 ? ct.c0 : ct.c1;
                const int pos = p.findPrime(load.prime);
                CINN_FATAL_UNLESS(pos >= 0,
                                  "input '" << table.inputs[load.source]
                                            << "' lacks limb "
                                            << load.prime);
                limb = p.limb(pos);
                break;
              }
              case DataDescriptor::Kind::Plain: {
                const rns::RnsPoly &p = *plains[load.source];
                const int pos = p.findPrime(load.prime);
                CINN_ASSERT(pos >= 0, "plaintext limb missing");
                limb = p.limb(pos);
                break;
              }
              case DataDescriptor::Kind::EvalKey: {
                const fhe::EvalKey &evk =
                    *keys[copy * table.keys.size() + load.source];
                const auto &part = evk.parts[load.digit];
                limb = (load.poly == 0 ? part.first : part.second)
                           .limb(load.pos);
                break;
              }
              case DataDescriptor::Kind::Output:
                panic("outputs are not materialized as inputs");
            }
            emu.memory(c).store(load.addr, load.prime, limb);
        }
    }
    prestored_program_ = &program;
    prestored_version_ = bindings_version_;

    const auto emulate_start = Clock::now();
    emu.run(program.machine);
    const auto emulate_end = Clock::now();
    last_stats_ = emu.lastRunStats();

    // Collect outputs from the owner chips' memories.
    std::map<std::string, fhe::Ciphertext> outputs;
    for (const auto &[name, info] : program.outputs) {
        const rns::Basis basis = ctx_->ciphertextBasis(info.level);
        fhe::Ciphertext ct;
        ct.level = info.level;
        ct.scale = info.scale;
        for (int poly = 0; poly < 2; ++poly) {
            rns::RnsPoly p(ctx_->rns(), basis, rns::Domain::Eval);
            for (std::size_t i = 0; i <= info.level; ++i) {
                const uint32_t chip = info.owners[i];
                CINN_ASSERT(
                    emu.memory(chip).contains(info.addrs[poly][i]),
                    "output limb was never stored");
                p.setLimb(i,
                          emu.memory(chip).at(info.addrs[poly][i]).data);
            }
            (poly == 0 ? ct.c0 : ct.c1) = std::move(p);
        }
        outputs.emplace(name, std::move(ct));
    }
    const auto ms = [](Clock::duration d) {
        return std::chrono::duration<double, std::milli>(d).count();
    };
    MetricsRegistry::global()
        .histogram("runtime.materialize_ms")
        .observe(ms(Clock::now() - run_start) -
                 ms(emulate_end - emulate_start));
    return outputs;
}

} // namespace cinnamon::compiler
