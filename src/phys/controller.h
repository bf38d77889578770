#ifndef HFPU_PHYS_CONTROLLER_H
#define HFPU_PHYS_CONTROLLER_H

/**
 * @file
 * The dynamic precision controller (Section 4.2): the software half of
 * the paper's HW/SW co-design. The developer programs a per-phase
 * minimum mantissa width (the "control register"); at runtime the
 * controller throttles precision up to full on an energy violation and
 * decays it back down by one bit per quiet step. A blow-up re-executes
 * the previous step at full precision (the fail-safe).
 */

#include "fp/precision.h"
#include "phys/energy.h"

namespace hfpu {
namespace phys {

/**
 * Overload-degradation rung. Under deadline pressure a supervisor
 * (the batch scheduler) walks the controller down this ladder: shed
 * *precision* first, then solver *iterations*, before it ever sheds
 * *work* (quarantine). Ordered — a higher value is a deeper cut.
 */
enum class DegradationLevel : uint8_t {
    None = 0,          //!< normal operation
    DownshiftBits = 1, //!< degraded mantissa minimums in force
    CapIterations = 2, //!< + LCP iteration cap in force
};
constexpr int kNumDegradationLevels = 3;

/** Stable lowercase name ("none", "downshift", "cap-iterations"). */
const char *degradationLevelName(DegradationLevel level);

/** Developer-programmed precision policy. */
struct PrecisionPolicy {
    /** Minimum mantissa bits for the narrow phase (23 = never reduce). */
    int minNarrowBits = fp::kFullMantissaBits;
    /** Minimum mantissa bits for the LCP phase. */
    int minLcpBits = fp::kFullMantissaBits;
    fp::RoundingMode roundingMode = fp::RoundingMode::Jamming;
    /** Relative net energy gain triggering a throttle-up. */
    double energyThreshold = 0.10;
    /** Gain (in units of the threshold) treated as a blow-up. */
    double blowupFactor = 10.0;
    /** @name Overload degradation (deadline pressure only).
     * In force only while the supervisor has raised the degradation
     * level; the believability guard stays armed throughout and still
     * throttles precision back up on a violation.
     */
    /** @{ */
    /** Narrow-phase mantissa floor at DownshiftBits and deeper. */
    int degradedNarrowBits = 12;
    /** LCP mantissa floor at DownshiftBits and deeper. */
    int degradedLcpBits = 10;
    /** LCP iteration cap at CapIterations (>= 1). */
    int degradedLcpIterations = 8;
    /** @} */
};

/**
 * Validate a developer-provided policy: mantissa widths are clamped
 * into [0, 23] (a negative width or one past full precision is a
 * programming slip with an obvious intent), while a non-positive or
 * non-finite energyThreshold/blowupFactor would silently disable the
 * believability guard and throws std::invalid_argument instead.
 * PrecisionController applies this at construction; returns the
 * sanitized policy.
 */
PrecisionPolicy validatedPolicy(const PrecisionPolicy &policy);

/**
 * Runtime precision state machine. The world calls beginStep() before
 * simulating and endStep() after computing the step's energy; a
 * RequestReexecute result means the world should restore its snapshot
 * and redo the step at full precision.
 */
class PrecisionController
{
  public:
    enum class Action { Continue, RequestReexecute };

    /**
     * Adaptive is the Section 4.2 loop. Fixed is guard-only: widths sit
     * at the floors in force, violations are ignored, and a blow-up is
     * left to the supervisor (blowUpPending()) instead of re-executed.
     */
    enum class Mode { Adaptive, Fixed };

    explicit PrecisionController(const PrecisionPolicy &policy,
                                 Mode mode = Mode::Adaptive);
    Mode mode() const { return mode_; }

    /** Install the current widths/mode into the thread's context. */
    void beginStep();

    /**
     * Digest the step's energy reading and update the widths.
     *
     * @param energy   post-step total energy
     * @param injected externally injected energy during the step
     * @param finite   whether the world state is finite
     */
    Action endStep(double energy, double injected, bool finite);

    /**
     * Fixed mode: the last endStep() saw a blow-up on a finite state
     * (the supervisor checks stateFinite() itself).
     */
    bool blowUpPending() const { return blowUpPending_; }

    /** Arm one full-precision step (used for re-execution). */
    void forceFullPrecisionStep();

    /**
     * Precision backoff after a rollback: force full precision now and
     * suppress the quiet-step decay for the next @p steps steps, so a
     * replayed window runs conservatively before precision is allowed
     * to creep back down. In Fixed mode the next @p steps steps run at
     * full precision, replacing any hold in force.
     */
    void holdFullPrecision(int steps);
    int fullPrecisionHoldRemaining() const { return holdSteps_; }

    /** Reset history after the world restored a snapshot. */
    void restartEnergyHistory(double energy);

    /** @name Overload degradation ladder.
     * Driven by a deadline-pressure supervisor; orthogonal to the
     * believability guard. Raising the level immediately sheds
     * precision down to the degraded floors (and, at CapIterations,
     * caps the LCP passes the world runs); a guard violation still
     * throttles precision back up to full, after which the quiet-step
     * decay settles onto the degraded floors instead of the
     * policy minimums. Lowering the level restores the normal floors
     * and lets precision decay as usual.
     */
    /** @{ */
    void setDegradationLevel(DegradationLevel level);
    DegradationLevel degradationLevel() const { return degradation_; }
    /** LCP iteration cap in force (0 = uncapped). */
    int lcpIterationCap() const;
    /** Mantissa floor for the narrow phase at the current level. */
    int effectiveMinNarrowBits() const;
    /** Mantissa floor for the LCP phase at the current level. */
    int effectiveMinLcpBits() const;
    /** @} */

    const PrecisionPolicy &policy() const { return policy_; }
    int currentNarrowBits() const { return narrowBits_; }
    int currentLcpBits() const { return lcpBits_; }
    const EnergyMonitor &monitor() const { return monitor_; }

    /** @name Event counters. */
    /** @{ */
    int violations() const { return violations_; }
    int reexecutions() const { return reexecutions_; }
    /** @} */

  private:
    PrecisionPolicy policy_;
    Mode mode_;
    EnergyMonitor monitor_;
    int narrowBits_;
    int lcpBits_;
    int violations_ = 0;
    int reexecutions_ = 0;
    int holdSteps_ = 0;
    bool blowUpPending_ = false;
    DegradationLevel degradation_ = DegradationLevel::None;
};

} // namespace phys
} // namespace hfpu

#endif // HFPU_PHYS_CONTROLLER_H
