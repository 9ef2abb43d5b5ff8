/**
 * @file
 * The Cinnamon DSL (Section 4.2).
 *
 * The paper embeds the DSL in Python; this library embeds the same
 * constructs in C++. A Program is a builder over ciphertext handles:
 * FHE operations are language constructs, and concurrent execution
 * streams — the unit of program-level parallelism — are expressed by
 * wrapping code in beginStream()/endStream() regions (the analog of
 * the paper's CinnamonStreamPool). The compiler later places each
 * stream on its own group of chips.
 *
 * The builder performs level and scale inference as ops are created,
 * so malformed programs (level underflow, scale mismatches) fail at
 * construction time rather than at compile or run time.
 */

#ifndef CINNAMON_COMPILER_DSL_H_
#define CINNAMON_COMPILER_DSL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fhe/params.h"

namespace cinnamon::compiler {

/** Ciphertext-level operation kinds. */
enum class CtOpKind {
    Input,     ///< named external ciphertext
    Add,       ///< ct + ct
    Sub,       ///< ct - ct
    Mul,       ///< ct * ct with relinearization (no rescale)
    MulPlain,  ///< ct * named plaintext
    AddPlain,  ///< ct + named plaintext
    Rescale,   ///< drop one level, divide by the dropped prime
    Rotate,    ///< slot rotation (automorphism + keyswitch)
    Conjugate, ///< slot conjugation
    Output,    ///< named external result
};

/** One node of the ciphertext-level dataflow graph. */
struct CtOp
{
    int id = -1;
    CtOpKind kind = CtOpKind::Input;
    std::vector<int> args;   ///< operand op ids
    int rotation = 0;        ///< for Rotate
    std::string name;        ///< for Input / Output / *Plain
    int stream = 0;          ///< program-level stream id
    std::size_t level = 0;   ///< inferred level of the result
    double scale = 0.0;      ///< inferred scale of the result
};

class Program;

/** A lightweight reference to a ciphertext value in a Program. */
class CtHandle
{
  public:
    CtHandle() = default;
    CtHandle(Program *p, int id) : program_(p), id_(id) {}

    int id() const { return id_; }
    bool valid() const { return program_ != nullptr; }
    std::size_t level() const;
    double scale() const;

  private:
    Program *program_ = nullptr;
    int id_ = -1;
};

/**
 * A ciphertext program under construction.
 *
 * The graph is append-only; handles index into it.
 */
class Program
{
  public:
    Program(std::string name, const fhe::CkksContext &ctx)
        : name_(std::move(name)), ctx_(&ctx)
    {
    }

    const std::string &name() const { return name_; }
    const fhe::CkksContext &context() const { return *ctx_; }

    /** Declare an encrypted input at a level. */
    CtHandle input(const std::string &name, std::size_t level);

    CtHandle add(CtHandle a, CtHandle b);
    CtHandle sub(CtHandle a, CtHandle b);

    /** Ciphertext multiply (relinearized, not rescaled). */
    CtHandle mul(CtHandle a, CtHandle b);

    /** Multiply by a named plaintext (bound at run time). */
    CtHandle mulPlain(CtHandle a, const std::string &plain);

    /** Add a named plaintext. */
    CtHandle addPlain(CtHandle a, const std::string &plain);

    /** Rescale: divide by the last prime, dropping a level. */
    CtHandle rescale(CtHandle a);

    /** Rotate slots left by `steps`. */
    CtHandle rotate(CtHandle a, int steps);

    /** Conjugate all slots. */
    CtHandle conjugate(CtHandle a);

    /** Mark a value as a named output. */
    void output(const std::string &name, CtHandle a);

    /**
     * Enter a concurrent stream region: ops created until endStream()
     * belong to stream `stream_id` (the paper's StreamFn body).
     */
    void beginStream(int stream_id);
    void endStream();

    /** Number of distinct streams used (at least 1). */
    int numStreams() const;

    const std::vector<CtOp> &ops() const { return ops_; }
    const CtOp &op(int id) const { return ops_.at(id); }

    /** Every rotation step used (for key pre-generation). */
    std::vector<int> rotationSteps() const;

  private:
    int append(CtOp op);
    const CtOp &checkHandle(CtHandle h) const;

    std::string name_;
    const fhe::CkksContext *ctx_;
    std::vector<CtOp> ops_;
    int current_stream_ = 0;
};

/**
 * Clone a program into `copies` data-parallel instances running in
 * disjoint stream ranges (copy k occupies streams [k*S, (k+1)*S) where
 * S is the source program's stream count). Inputs and outputs of copy
 * k > 0 are renamed with an "@k" suffix; plaintext names are shared —
 * every copy multiplies by the same weights, the serving-style batch
 * shape. Copy 0 is unchanged, so replicateStreams(p, 1) == p.
 */
Program replicateStreams(const Program &prog, int copies);

/**
 * Content fingerprint of a program: FNV-1a over the name and every
 * op's kind/args/rotation/name/stream/level/scale. Two programs that
 * share a name and op count but differ anywhere in the graph hash
 * differently, so caches keyed on the fingerprint never alias.
 */
uint64_t fingerprintOf(const Program &prog);

} // namespace cinnamon::compiler

#endif // CINNAMON_COMPILER_DSL_H_
