#include "isa/isa.h"

#include <sstream>

namespace cinnamon::isa {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Nop:
        return "nop";
      case Opcode::Load:
        return "ld";
      case Opcode::Store:
        return "st";
      case Opcode::Ntt:
        return "ntt";
      case Opcode::Intt:
        return "intt";
      case Opcode::Add:
        return "add";
      case Opcode::Sub:
        return "sub";
      case Opcode::Mul:
        return "mul";
      case Opcode::AddScalar:
        return "adds";
      case Opcode::SubScalar:
        return "subs";
      case Opcode::MulScalar:
        return "muls";
      case Opcode::Automorph:
        return "auto";
      case Opcode::BConv:
        return "bcv";
      case Opcode::Mod:
        return "mod";
      case Opcode::Bcast:
        return "bcast";
      case Opcode::Agg:
        return "agg";
      case Opcode::Fence:
        return "fence";
      case Opcode::Halt:
        return "halt";
    }
    return "?";
}

bool
isCollective(Opcode op)
{
    return op == Opcode::Bcast || op == Opcode::Agg;
}

namespace {

template <typename T>
OperandSpan
append(std::vector<T> &pool, std::span<const T> items)
{
    OperandSpan s;
    s.at = static_cast<uint32_t>(pool.size());
    s.size = static_cast<uint32_t>(items.size());
    pool.insert(pool.end(), items.begin(), items.end());
    return s;
}

} // namespace

OperandSpan
ChipProgram::addSrcs(std::span<const int> regs)
{
    return append(operands, regs);
}

OperandSpan
ChipProgram::addAux(std::span<const uint32_t> ps)
{
    return append(primes, ps);
}

std::string
ChipProgram::toString(const Instruction &ins) const
{
    std::ostringstream oss;
    oss << opcodeName(ins.op);
    if (ins.dst >= 0)
        oss << " r" << ins.dst;
    for (int s : srcs(ins))
        oss << ", r" << s;
    oss << " [q" << ins.prime << "]";
    if (ins.imm != 0)
        oss << " imm=" << ins.imm;
    if (ins.tag != 0)
        oss << " tag=" << ins.tag;
    return oss.str();
}

} // namespace cinnamon::isa
