#ifndef HFPU_FP_PRECISION_H
#define HFPU_FP_PRECISION_H

/**
 * @file
 * The dynamic precision-reduction plumbing. All floating-point
 * arithmetic in the physics engine goes through the scalar functions
 * declared here (fadd/fsub/fmul/fdiv/fsqrt); they consult a thread-local
 * PrecisionContext that carries the current pipeline phase, the
 * per-phase mantissa width, the rounding mode, and an optional recorder
 * that observes every dynamic FP operation (used to gather triviality /
 * memoization statistics and to build traces for the cycle simulator).
 *
 * This mirrors the paper's SESC modification: a reduced operation is
 * modeled as round(operands) -> execute -> round(result). Following the
 * paper, only add, subtract, and multiply are precision reduced; divide
 * (and sqrt) always run at full precision.
 *
 * Dispatch is two-tier. The context caches an execution-mode descriptor
 * that is refreshed on every mutation (setPhase / setMantissaBits /
 * setRecorder / ...), so the scalar entry points below compile down to
 * one predictable branch on a cached "plain mode" flag plus native FP
 * and a counter bump whenever the current phase runs at full precision
 * on the host FPU with no recorder attached — the common case for every
 * Release bench and the paper's baseline configurations. Reduction,
 * soft-float execution, and recording live in the out-of-line slow path
 * (detail::executeScalarSlow), which reads the same packed descriptor
 * in a single load. Calling setForceSlowPath(true) routes every op
 * through the slow path; results and statistics are bit-identical
 * either way, which the tests assert.
 */

#include <array>
#include <cmath>
#include <cstdint>

#include "rounding.h"
#include "types.h"

namespace hfpu {
namespace fp {

/** One dynamic FP operation as seen by the execution substrate. */
struct OpRecord {
    Opcode op;          //!< operation kind
    Phase phase;        //!< pipeline phase it executed in
    uint8_t mantissaBits; //!< active precision (23 = full)
    uint32_t a;         //!< first operand, post-reduction bit pattern
    uint32_t b;         //!< second operand, post-reduction bit pattern
    uint32_t result;    //!< result, post-reduction bit pattern
};

/**
 * Observer of dynamic FP operations. Implementations must be cheap:
 * the recorder sits on the hot path of the physics engine.
 */
class OpRecorder
{
  public:
    virtual ~OpRecorder() = default;

    /** Called once per dynamic FP operation. */
    virtual void record(const OpRecord &rec) = 0;
};

/**
 * Mutator of scalar FP results, consulted by the out-of-line slow path
 * after reduction and before recording. This is the fault-injection
 * seam (src/fault): the hook may flip mantissa bits or substitute
 * NaN/Inf to exercise the believability guard. Like the recorder, an
 * installed hook disqualifies the inline plain-mode fast path, so a
 * null hook costs nothing beyond the already-cached mode flags.
 */
class ScalarFaultHook
{
  public:
    virtual ~ScalarFaultHook() = default;

    /** Return the (possibly mutated) result bit pattern. */
    virtual uint32_t mutateScalarResult(Opcode op, uint32_t resultBits) = 0;
};

namespace detail {

/** constexpr-fill helper so the context can be constant-initialized. */
constexpr std::array<int, kNumPhases>
filledBits(int value)
{
    std::array<int, kNumPhases> bits{};
    for (int &b : bits)
        b = value;
    return bits;
}

} // namespace detail

/**
 * Thread-local floating-point execution state.
 *
 * The software side of the paper's HW/SW co-design: the application
 * sets the minimum mantissa width per instruction region (here: per
 * phase) in a control register; the hardware applies it. The dynamic
 * precision controller (phys::PrecisionController) adjusts the active
 * width between the programmed minimum and full precision based on the
 * simulation-energy rule.
 */
class PrecisionContext
{
  public:
    constexpr PrecisionContext() = default;

    /** The calling thread's context. */
    static PrecisionContext &current();

    /** Active mantissa width for @p phase. */
    int mantissaBits(Phase phase) const
    {
        return mantissaBits_[static_cast<int>(phase)];
    }

    /** Set the mantissa width for one phase. */
    void setMantissaBits(Phase phase, int bits);

    /** Set the mantissa width for every phase. */
    void setAllMantissaBits(int bits);

    /** Active rounding mode for reductions. */
    RoundingMode roundingMode() const { return roundingMode_; }
    void
    setRoundingMode(RoundingMode mode)
    {
        roundingMode_ = mode;
        refreshMode();
    }

    /** Current pipeline phase. */
    Phase phase() const { return phase_; }
    void
    setPhase(Phase phase)
    {
        phase_ = phase;
        refreshMode();
    }

    /** Optional dynamic-op observer (nullptr = none). */
    OpRecorder *recorder() const { return recorder_; }
    void
    setRecorder(OpRecorder *recorder)
    {
        recorder_ = recorder;
        refreshMode();
    }

    /** Optional scalar-result fault hook (nullptr = none). */
    ScalarFaultHook *faultHook() const { return faultHook_; }
    void
    setFaultHook(ScalarFaultHook *hook)
    {
        faultHook_ = hook;
        refreshMode();
    }

    /**
     * When set, exact execution uses the project's soft-float instead of
     * the host FPU (they are tested to agree bit-exactly; the switch
     * exists for cross-checking).
     */
    bool useSoftFloat() const { return useSoftFloat_; }
    void
    setUseSoftFloat(bool use)
    {
        useSoftFloat_ = use;
        refreshMode();
    }

    /**
     * Runtime escape hatch: route every scalar op through the
     * out-of-line modeled path even when plain-mode execution would be
     * legal. Results and
     * statistics are bit-identical; this exists so one binary can
     * cross-check the two dispatch tiers against each other.
     */
    bool forceSlowPath() const { return forceSlowPath_; }
    void
    setForceSlowPath(bool force)
    {
        forceSlowPath_ = force;
        refreshMode();
    }

    /** Dynamic FP operation counts by opcode (since last reset). */
    uint64_t opCount(Opcode op) const
    {
        return opCounts_[static_cast<int>(op)];
    }
    uint64_t totalOpCount() const;
    void resetCounts();

    /** Restore defaults: full precision, jamming, no recorder. */
    void reset();

    /** @name Packed execution-mode descriptor.
     * Active mantissa bits, rounding mode, and the soft-float /
     * recorder flags folded into one word so the slow path needs a
     * single load where it used to chase five fields.
     */
    /** @{ */
    static constexpr uint32_t kModeBitsMask = 0x1fu;  //!< active bits
    static constexpr int kModeRoundShift = 5;         //!< rounding mode
    static constexpr uint32_t kModeRoundMask = 0x3u;
    static constexpr uint32_t kModeSoftFloat = 1u << 7;
    static constexpr uint32_t kModeRecorder = 1u << 8;
    static constexpr uint32_t kModeFaultHook = 1u << 9;

    static constexpr uint32_t
    packMode(int bits, RoundingMode mode, bool soft, bool rec)
    {
        return static_cast<uint32_t>(bits) |
            (static_cast<uint32_t>(mode) << kModeRoundShift) |
            (soft ? kModeSoftFloat : 0u) | (rec ? kModeRecorder : 0u);
    }
    /** @} */

    /** @name Hot-path helpers used by the scalar ops. */
    /** @{ */
    int activeBits() const
    {
        return static_cast<int>(mode_ & kModeBitsMask);
    }
    /**
     * Cached: the current phase runs at full precision on the host FPU
     * with no recorder — add/sub/mul may execute natively inline.
     */
    bool plainMode() const { return plain_; }
    /**
     * Cached: execution is exact host arithmetic with no recorder
     * (active width ignored) — div/sqrt, which the paper never
     * reduces, may execute natively inline.
     */
    bool plainExact() const { return plainExact_; }
    /** The packed descriptor consumed by the slow path. */
    uint32_t execMode() const { return mode_; }
    void
    countOp(Opcode op)
    {
        ++opCounts_[static_cast<int>(op)];
    }
    /** Count @p n plain-mode ops at once (the LCP lane kernel). */
    void
    countOps(Opcode op, uint64_t n)
    {
        opCounts_[static_cast<int>(op)] += n;
    }
    /** @} */

  private:
    /** Re-derive the cached descriptor after any mutation. */
    void
    refreshMode()
    {
        const int bits = mantissaBits_[static_cast<int>(phase_)];
        mode_ = packMode(bits, roundingMode_, useSoftFloat_,
                         recorder_ != nullptr) |
            (faultHook_ != nullptr ? kModeFaultHook : 0u);
        plainExact_ = !forceSlowPath_ && !useSoftFloat_ &&
            recorder_ == nullptr && faultHook_ == nullptr;
        plain_ = plainExact_ && bits == kFullMantissaBits;
    }

    std::array<int, kNumPhases> mantissaBits_ =
        detail::filledBits(kFullMantissaBits);
    std::array<uint64_t, kNumOpcodes> opCounts_{};
    RoundingMode roundingMode_ = RoundingMode::Jamming;
    Phase phase_ = Phase::Other;
    OpRecorder *recorder_ = nullptr;
    ScalarFaultHook *faultHook_ = nullptr;
    bool useSoftFloat_ = false;
    bool forceSlowPath_ = false;
    bool plain_ = true;
    bool plainExact_ = true;
    uint32_t mode_ =
        packMode(kFullMantissaBits, RoundingMode::Jamming, false, false);
};

namespace detail {

/**
 * The calling thread's context. Constant-initialized (constexpr
 * constructor + constinit) so access from the inline scalar ops is a
 * plain TLS load with no initialization guard.
 */
extern constinit thread_local PrecisionContext g_ctx;

/**
 * Out-of-line modeled path: reduce -> execute -> reduce, soft-float
 * substrate, and op recording. Entered only when the cached plain-mode
 * flags rule out native inline execution (or when forced).
 */
float executeScalarSlow(Opcode op, float a, float b);

} // namespace detail

inline PrecisionContext &
PrecisionContext::current()
{
    return detail::g_ctx;
}

/**
 * RAII phase scope: tags all FP ops inside the scope with @p phase.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(Phase phase)
        : ctx_(PrecisionContext::current()), saved_(ctx_.phase())
    {
        ctx_.setPhase(phase);
    }
    ~ScopedPhase() { ctx_.setPhase(saved_); }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    PrecisionContext &ctx_;
    Phase saved_;
};

/**
 * RAII full-precision scope: forces 23-bit execution inside the scope
 * (used e.g. by the energy monitor, which must not be degraded by the
 * precision it is guarding).
 */
class ScopedFullPrecision
{
  public:
    ScopedFullPrecision();
    ~ScopedFullPrecision();

    ScopedFullPrecision(const ScopedFullPrecision &) = delete;
    ScopedFullPrecision &operator=(const ScopedFullPrecision &) = delete;

  private:
    PrecisionContext &ctx_;
    std::array<int, kNumPhases> saved_;
};

/** @name Precision-aware scalar operations.
 * The only arithmetic entry points the engine uses. In plain mode they
 * compile to native FP plus a counter bump; everything modeled goes
 * through the out-of-line slow path.
 */
/** @{ */
inline float
fadd(float a, float b)
{
    PrecisionContext &ctx = PrecisionContext::current();
    if (ctx.plainMode()) [[likely]] {
        ctx.countOp(Opcode::Add);
        return a + b;
    }
    return detail::executeScalarSlow(Opcode::Add, a, b);
}

inline float
fsub(float a, float b)
{
    PrecisionContext &ctx = PrecisionContext::current();
    if (ctx.plainMode()) [[likely]] {
        ctx.countOp(Opcode::Sub);
        return a - b;
    }
    return detail::executeScalarSlow(Opcode::Sub, a, b);
}

inline float
fmul(float a, float b)
{
    PrecisionContext &ctx = PrecisionContext::current();
    if (ctx.plainMode()) [[likely]] {
        ctx.countOp(Opcode::Mul);
        return a * b;
    }
    return detail::executeScalarSlow(Opcode::Mul, a, b);
}

inline float
fdiv(float a, float b)
{
    // Divide is never reduced, so the inline path only needs exact
    // host execution and no recorder — the active width is irrelevant.
    PrecisionContext &ctx = PrecisionContext::current();
    if (ctx.plainExact()) [[likely]] {
        ctx.countOp(Opcode::Div);
        return a / b;
    }
    return detail::executeScalarSlow(Opcode::Div, a, b);
}

inline float
fsqrt(float a)
{
    PrecisionContext &ctx = PrecisionContext::current();
    if (ctx.plainExact()) [[likely]] {
        ctx.countOp(Opcode::Sqrt);
        return std::sqrt(a);
    }
    return detail::executeScalarSlow(Opcode::Sqrt, a, 0.0f);
}
/** @} */

} // namespace fp
} // namespace hfpu

#endif // HFPU_FP_PRECISION_H
