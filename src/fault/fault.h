#ifndef HFPU_FAULT_FAULT_H
#define HFPU_FAULT_FAULT_H

/**
 * @file
 * Deterministic fault injection for the reduced-precision stack. The
 * paper's bet is that aggressive precision reduction is safe *because*
 * the believability guard (Section 4.1-4.2) catches trouble and
 * recovers; following Reduced Precision Checking, injected numerical
 * faults are how that guard/recovery machinery is validated rather
 * than hoped about.
 *
 * An Injector is armed on the simulating thread and consulted from
 * fixed *sites* in the stack:
 *
 *  - scalar FP results (fp::executeScalarSlow, via fp::ScalarFaultHook):
 *    mantissa bit-flips and NaN/Inf substitution — a mis-rounding or
 *    broken reduced datapath;
 *  - solver islands (phys::World): a thrown InjectedFault, modeling a
 *    non-numeric failure inside one island's LCP solve.
 *
 * Determinism contract: every decision is a pure function of
 * (spec.seed, stream, epoch, step, kind, per-kind draw ordinal)
 * through a splitmix64-style mixer, so a campaign replays bitwise from
 * its seed. The epoch increments whenever beginStep() observes a step
 * rewind (re-execution or rollback), which makes faults *transient*:
 * a retried step draws fresh faults instead of deterministically
 * re-hitting the same one, while the full run — including its
 * recoveries — stays replayable.
 *
 * Zero-cost when disabled: with no injector armed the fp fast path is
 * untouched (the hook folds into the cached plain-mode flags exactly
 * like setForceSlowPath), and every other site is a thread-local
 * pointer test against null. Golden-trace tests pin that an armed
 * injector whose rates are all zero is still bit-identical.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "fp/precision.h"
#include "fp/types.h"

namespace hfpu {
namespace fault {

/** The injectable fault kinds, one deterministic stream each. */
enum class FaultKind : uint8_t {
    BitFlip,      //!< flip one mantissa bit of a scalar FP result
    MakeNaN,      //!< replace a scalar FP result with a quiet NaN
    MakeInf,      //!< replace a scalar FP result with +/-infinity
    IslandThrow,  //!< throw InjectedFault from a solver island
};
constexpr int kNumFaultKinds = 4;

/** Stable lowercase name ("bitflip", "nan", ...). */
const char *faultKindName(FaultKind kind);

/**
 * A parsed fault campaign spec. The string form (used by
 * `sim_server --fault-spec` and stored in campaign artifacts) is a
 * ','/';'-separated key=value list:
 *
 *   seed=<u64>            stream seed (default 1)
 *   bitflip=<rate>        per-draw probability in [0,1], per kind:
 *   nan=<rate>            bitflip | nan | inf | throw
 *   inf=<rate>
 *   throw=<rate>
 *   steps=<a>..<b>        only inject in step window [a,b] (default all)
 *   max=<n>               total injection budget (default unlimited)
 *
 * Example: "seed=7,bitflip=2e-4,throw=0.01,steps=5..60,max=4".
 */
struct FaultSpec {
    uint64_t seed = 1;
    /** Per-kind draw probability, indexed by FaultKind. */
    std::array<double, kNumFaultKinds> rate{};
    int firstStep = 0;
    int lastStep = std::numeric_limits<int>::max();
    /** Total injections allowed across all kinds (< 0 = unlimited). */
    long maxInjections = -1;

    double rateOf(FaultKind kind) const
    {
        return rate[static_cast<int>(kind)];
    }
    /**
     * Any kind has a positive rate. Every kind can change simulation
     * state, so an enabled spec forces the world's phases serial and
     * its FP-op draw ordinals stay deterministic, mirroring how
     * recorders and listeners already serialize the engine.
     */
    bool anyEnabled() const;
    /** Scalar-result kinds (BitFlip/MakeNaN/MakeInf) enabled. */
    bool scalarEnabled() const;

    /**
     * Parse the string form. On failure returns a spec with all rates
     * zero and, when @p error is non-null, stores a one-line message.
     */
    static FaultSpec parse(const std::string &text,
                           std::string *error = nullptr);
    /** Canonical string form (round-trips through parse()). */
    std::string describe() const;
};

/** Per-kind injection counts of one Injector. */
struct FaultStats {
    std::array<uint64_t, kNumFaultKinds> injected{};

    uint64_t
    total() const
    {
        uint64_t t = 0;
        for (uint64_t c : injected)
            t += c;
        return t;
    }
};

/** Thrown by an IslandThrow fault out of a solver island. */
class InjectedFault : public std::runtime_error
{
  public:
    InjectedFault(int step, int island);

    int step() const { return step_; }
    int island() const { return island_; }

  private:
    int step_;
    int island_;
};

/**
 * A seeded fault source for one world. Armed on the simulating thread
 * (RAII: ScopedInjection); the injection sites consult
 * Injector::current() — null means every site is a no-op.
 *
 * Thread notes: beginStep() and every site hook run on the simulating
 * thread. An enabled injector serializes the world's phases, so it
 * never reaches a pool worker; that is what makes its draw sequence —
 * and therefore the whole campaign — deterministic.
 */
class Injector final : public fp::ScalarFaultHook
{
  public:
    /**
     * @param spec   the campaign spec (copied).
     * @param stream extra stream key so several worlds of one campaign
     *               draw independent sequences from one seed (the
     *               batch scheduler passes the world index).
     */
    explicit Injector(const FaultSpec &spec, uint64_t stream = 0);
    ~Injector() override;

    Injector(const Injector &) = delete;
    Injector &operator=(const Injector &) = delete;

    /** Arm on the calling thread (installs the fp hook if needed). */
    void arm();
    /** Disarm from the calling thread. */
    void disarm();
    /** The calling thread's armed injector (null = none). */
    static Injector *current();

    /**
     * Note that the world is about to simulate @p step. A step number
     * at or below the last one begun is a rewind (re-execution or
     * rollback); it bumps the epoch so the retry draws fresh faults.
     */
    void beginStep(int step);

    /** @name Injection sites. */
    /** @{ */
    /** Scalar FP result (fp::ScalarFaultHook). */
    uint32_t mutateScalarResult(fp::Opcode op, uint32_t resultBits) override;
    /** Solver island entry; throws InjectedFault when a fault fires. */
    void maybeThrowIsland(int island);
    /** @} */

    const FaultSpec &spec() const { return spec_; }
    int epoch() const { return epoch_.load(std::memory_order_relaxed); }
    FaultStats stats() const;

  private:
    /** Install @p injector (may be null) into the calling thread. */
    static void install(Injector *injector);
    /**
     * One deterministic draw from @p kind's stream. True when a fault
     * fires; @p payload then holds mixer bits for the fault payload
     * (e.g. which mantissa bit to flip).
     */
    bool roll(FaultKind kind, uint64_t *payload);

    FaultSpec spec_;
    uint64_t streamSeed_;
    bool scalarEnabled_;
    std::atomic<int> step_{std::numeric_limits<int>::min()};
    std::atomic<int> lastBegunStep_{std::numeric_limits<int>::min()};
    std::atomic<int> epoch_{0};
    std::array<std::atomic<uint64_t>, kNumFaultKinds> ordinal_{};
    std::array<std::atomic<uint64_t>, kNumFaultKinds> injected_{};
    std::atomic<long> totalInjected_{0};
};

/** RAII arm/disarm of one injector (tolerates null). */
class ScopedInjection
{
  public:
    explicit ScopedInjection(Injector *injector) : injector_(injector)
    {
        if (injector_)
            injector_->arm();
    }
    ~ScopedInjection()
    {
        if (injector_)
            injector_->disarm();
    }

    ScopedInjection(const ScopedInjection &) = delete;
    ScopedInjection &operator=(const ScopedInjection &) = delete;

  private:
    Injector *injector_;
};

} // namespace fault
} // namespace hfpu

#endif // HFPU_FAULT_FAULT_H
