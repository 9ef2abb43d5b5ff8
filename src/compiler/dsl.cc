#include "compiler/dsl.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.h"

namespace cinnamon::compiler {

std::size_t
CtHandle::level() const
{
    CINN_ASSERT(program_ != nullptr, "invalid ciphertext handle");
    return program_->op(id_).level;
}

double
CtHandle::scale() const
{
    CINN_ASSERT(program_ != nullptr, "invalid ciphertext handle");
    return program_->op(id_).scale;
}

int
Program::append(CtOp op)
{
    op.id = static_cast<int>(ops_.size());
    op.stream = current_stream_;
    ops_.push_back(std::move(op));
    return ops_.back().id;
}

const CtOp &
Program::checkHandle(CtHandle h) const
{
    CINN_ASSERT(h.valid(), "operation on an invalid handle");
    CINN_ASSERT(h.id() >= 0 && h.id() < static_cast<int>(ops_.size()),
                "handle out of range");
    return ops_[h.id()];
}

CtHandle
Program::input(const std::string &name, std::size_t level)
{
    CINN_FATAL_UNLESS(level <= ctx_->maxLevel(),
                      "input level exceeds the parameter chain");
    CtOp op;
    op.kind = CtOpKind::Input;
    op.name = name;
    op.level = level;
    op.scale = ctx_->params().scale;
    return CtHandle(this, append(std::move(op)));
}

CtHandle
Program::add(CtHandle a, CtHandle b)
{
    const CtOp &oa = checkHandle(a);
    const CtOp &ob = checkHandle(b);
    CINN_FATAL_UNLESS(oa.level == ob.level,
                      "add: operand levels differ (" << oa.level << " vs "
                                                     << ob.level << ")");
    CINN_FATAL_UNLESS(std::abs(oa.scale - ob.scale) <
                          1e-6 * std::max(oa.scale, ob.scale),
                      "add: operand scales differ");
    CtOp op;
    op.kind = CtOpKind::Add;
    op.args = {a.id(), b.id()};
    op.level = oa.level;
    op.scale = oa.scale;
    return CtHandle(this, append(std::move(op)));
}

CtHandle
Program::sub(CtHandle a, CtHandle b)
{
    CtHandle h = add(a, b); // same checks and shape
    ops_.back().kind = CtOpKind::Sub;
    return h;
}

CtHandle
Program::mul(CtHandle a, CtHandle b)
{
    const CtOp &oa = checkHandle(a);
    const CtOp &ob = checkHandle(b);
    CINN_FATAL_UNLESS(oa.level == ob.level, "mul: operand levels differ");
    CtOp op;
    op.kind = CtOpKind::Mul;
    op.args = {a.id(), b.id()};
    op.level = oa.level;
    op.scale = oa.scale * ob.scale;
    return CtHandle(this, append(std::move(op)));
}

CtHandle
Program::mulPlain(CtHandle a, const std::string &plain)
{
    const CtOp &oa = checkHandle(a);
    CtOp op;
    op.kind = CtOpKind::MulPlain;
    op.args = {a.id()};
    op.name = plain;
    op.level = oa.level;
    op.scale = oa.scale * ctx_->params().scale;
    return CtHandle(this, append(std::move(op)));
}

CtHandle
Program::addPlain(CtHandle a, const std::string &plain)
{
    const CtOp &oa = checkHandle(a);
    CtOp op;
    op.kind = CtOpKind::AddPlain;
    op.args = {a.id()};
    op.name = plain;
    op.level = oa.level;
    op.scale = oa.scale;
    return CtHandle(this, append(std::move(op)));
}

CtHandle
Program::rescale(CtHandle a)
{
    const CtOp &oa = checkHandle(a);
    CINN_FATAL_UNLESS(oa.level >= 1, "rescale at level 0");
    CtOp op;
    op.kind = CtOpKind::Rescale;
    op.args = {a.id()};
    op.level = oa.level - 1;
    // EVA-style waterline scale management: the exact post-rescale
    // scale is s/q_level ≈ Δ (each chain prime sits near the
    // waterline); tracking it exactly would let the per-prime drift
    // compound double-exponentially through squaring chains, so —
    // like the paper's EVA-derived frontend — we pin the result to
    // the waterline. The ≲2^-28 relative value error this introduces
    // per rescale is far below the CKKS noise floor.
    op.scale = oa.scale /
               static_cast<double>(ctx_->q(oa.level)) /
               ctx_->params().scale;
    op.scale = ctx_->params().scale *
               (op.scale > 0.5 && op.scale < 2.0 ? 1.0 : op.scale);
    return CtHandle(this, append(std::move(op)));
}

CtHandle
Program::rotate(CtHandle a, int steps)
{
    const CtOp &oa = checkHandle(a);
    CtOp op;
    op.kind = CtOpKind::Rotate;
    op.args = {a.id()};
    op.rotation = steps;
    op.level = oa.level;
    op.scale = oa.scale;
    return CtHandle(this, append(std::move(op)));
}

CtHandle
Program::conjugate(CtHandle a)
{
    const CtOp &oa = checkHandle(a);
    CtOp op;
    op.kind = CtOpKind::Conjugate;
    op.args = {a.id()};
    op.level = oa.level;
    op.scale = oa.scale;
    return CtHandle(this, append(std::move(op)));
}

void
Program::output(const std::string &name, CtHandle a)
{
    const CtOp &oa = checkHandle(a);
    CtOp op;
    op.kind = CtOpKind::Output;
    op.args = {a.id()};
    op.name = name;
    op.level = oa.level;
    op.scale = oa.scale;
    append(std::move(op));
}

void
Program::beginStream(int stream_id)
{
    CINN_ASSERT(stream_id >= 0, "stream ids must be non-negative");
    current_stream_ = stream_id;
}

void
Program::endStream()
{
    current_stream_ = 0;
}

int
Program::numStreams() const
{
    int max_stream = 0;
    for (const auto &op : ops_)
        max_stream = std::max(max_stream, op.stream);
    return max_stream + 1;
}

std::vector<int>
Program::rotationSteps() const
{
    std::set<int> steps;
    for (const auto &op : ops_) {
        if (op.kind == CtOpKind::Rotate && op.rotation != 0)
            steps.insert(op.rotation);
    }
    return std::vector<int>(steps.begin(), steps.end());
}

Program
replicateStreams(const Program &prog, int copies)
{
    CINN_ASSERT(copies >= 1, "replicateStreams needs at least one copy");
    const int base_streams = prog.numStreams();
    Program out(prog.name() +
                    (copies > 1 ? "x" + std::to_string(copies) : ""),
                prog.context());
    for (int k = 0; k < copies; ++k) {
        const std::string suffix =
            k == 0 ? std::string() : "@" + std::to_string(k);
        std::vector<CtHandle> cloned(prog.ops().size());
        for (const CtOp &op : prog.ops()) {
            out.beginStream(k * base_streams + op.stream);
            switch (op.kind) {
            case CtOpKind::Input:
                cloned[op.id] = out.input(op.name + suffix, op.level);
                break;
            case CtOpKind::Add:
                cloned[op.id] =
                    out.add(cloned[op.args[0]], cloned[op.args[1]]);
                break;
            case CtOpKind::Sub:
                cloned[op.id] =
                    out.sub(cloned[op.args[0]], cloned[op.args[1]]);
                break;
            case CtOpKind::Mul:
                cloned[op.id] =
                    out.mul(cloned[op.args[0]], cloned[op.args[1]]);
                break;
            case CtOpKind::MulPlain:
                cloned[op.id] = out.mulPlain(cloned[op.args[0]], op.name);
                break;
            case CtOpKind::AddPlain:
                cloned[op.id] = out.addPlain(cloned[op.args[0]], op.name);
                break;
            case CtOpKind::Rescale:
                cloned[op.id] = out.rescale(cloned[op.args[0]]);
                break;
            case CtOpKind::Rotate:
                cloned[op.id] =
                    out.rotate(cloned[op.args[0]], op.rotation);
                break;
            case CtOpKind::Conjugate:
                cloned[op.id] = out.conjugate(cloned[op.args[0]]);
                break;
            case CtOpKind::Output:
                out.output(op.name + suffix, cloned[op.args[0]]);
                break;
            }
        }
    }
    out.endStream();
    return out;
}

namespace {

inline void
fnv1a(uint64_t *h, const void *data, std::size_t len)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        *h ^= bytes[i];
        *h *= 0x100000001b3ull;
    }
}

template <typename T>
inline void
fnv1aPod(uint64_t *h, const T &v)
{
    fnv1a(h, &v, sizeof(v));
}

} // namespace

uint64_t
fingerprintOf(const Program &prog)
{
    uint64_t h = 0xcbf29ce484222325ull;
    fnv1a(&h, prog.name().data(), prog.name().size());
    for (const CtOp &op : prog.ops()) {
        fnv1aPod(&h, static_cast<uint32_t>(op.kind));
        for (const int arg : op.args)
            fnv1aPod(&h, static_cast<int64_t>(arg));
        // Separate the variable-length arg list from the fixed tail so
        // shifting a value between fields cannot collide.
        fnv1aPod(&h, static_cast<uint64_t>(op.args.size()));
        fnv1aPod(&h, static_cast<int64_t>(op.rotation));
        fnv1a(&h, op.name.data(), op.name.size());
        fnv1aPod(&h, static_cast<uint64_t>(op.name.size()));
        fnv1aPod(&h, static_cast<int64_t>(op.stream));
        fnv1aPod(&h, static_cast<uint64_t>(op.level));
        fnv1aPod(&h, op.scale);
    }
    return h;
}

} // namespace cinnamon::compiler
