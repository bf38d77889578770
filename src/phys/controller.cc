#include "phys/controller.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace hfpu {
namespace phys {

const char *
degradationLevelName(DegradationLevel level)
{
    switch (level) {
      case DegradationLevel::None:          return "none";
      case DegradationLevel::DownshiftBits: return "downshift";
      case DegradationLevel::CapIterations: return "cap-iterations";
    }
    return "?";
}

PrecisionPolicy
validatedPolicy(const PrecisionPolicy &policy)
{
    PrecisionPolicy p = policy;
    p.minNarrowBits =
        std::clamp(p.minNarrowBits, 0, fp::kFullMantissaBits);
    p.minLcpBits = std::clamp(p.minLcpBits, 0, fp::kFullMantissaBits);
    p.degradedNarrowBits =
        std::clamp(p.degradedNarrowBits, 0, fp::kFullMantissaBits);
    p.degradedLcpBits =
        std::clamp(p.degradedLcpBits, 0, fp::kFullMantissaBits);
    // A cap below one iteration would skip the solve outright; like
    // the width clamps, treat it as a slip with an obvious intent.
    p.degradedLcpIterations = std::max(p.degradedLcpIterations, 1);
    if (!(p.energyThreshold > 0.0) || !std::isfinite(p.energyThreshold)) {
        throw std::invalid_argument(
            "PrecisionPolicy.energyThreshold must be positive, got " +
            std::to_string(policy.energyThreshold));
    }
    if (!(p.blowupFactor > 0.0) || !std::isfinite(p.blowupFactor)) {
        throw std::invalid_argument(
            "PrecisionPolicy.blowupFactor must be positive, got " +
            std::to_string(policy.blowupFactor));
    }
    return p;
}

PrecisionController::PrecisionController(const PrecisionPolicy &policy,
                                         Mode mode)
    : policy_(validatedPolicy(policy)), mode_(mode),
      monitor_(policy_.energyThreshold, policy_.blowupFactor),
      narrowBits_(policy_.minNarrowBits), lcpBits_(policy_.minLcpBits)
{
}

void
PrecisionController::beginStep()
{
    if (mode_ == Mode::Fixed) {
        const bool hold = holdSteps_ > 0;
        narrowBits_ = hold ? fp::kFullMantissaBits : effectiveMinNarrowBits();
        lcpBits_ = hold ? fp::kFullMantissaBits : effectiveMinLcpBits();
    }
    auto &ctx = fp::PrecisionContext::current();
    ctx.setRoundingMode(policy_.roundingMode);
    ctx.setMantissaBits(fp::Phase::Narrow, narrowBits_);
    ctx.setMantissaBits(fp::Phase::Lcp, lcpBits_);
}

PrecisionController::Action
PrecisionController::endStep(double energy, double injected, bool finite)
{
    if (mode_ == Mode::Fixed) {
        if (holdSteps_ > 0)
            --holdSteps_;
        blowUpPending_ = finite &&
            monitor_.observe(energy, injected, true) ==
                EnergyMonitor::Verdict::BlowUp;
        return Action::Continue;
    }
    switch (monitor_.observe(energy, injected, finite)) {
      case EnergyMonitor::Verdict::BlowUp:
        ++reexecutions_;
        forceFullPrecisionStep();
        return Action::RequestReexecute;
      case EnergyMonitor::Verdict::Violation:
        // Throttle up to full precision to head off instability.
        ++violations_;
        narrowBits_ = fp::kFullMantissaBits;
        lcpBits_ = fp::kFullMantissaBits;
        return Action::Continue;
      case EnergyMonitor::Verdict::Ok:
        if (holdSteps_ > 0) {
            // Post-rollback backoff: stay at full precision until the
            // hold drains, then resume the normal decay.
            --holdSteps_;
            forceFullPrecisionStep();
            return Action::Continue;
        }
        // Decay back toward the floor in force: the programmed
        // minimums normally, the degraded floors under deadline
        // pressure — and decay twice as fast there, since the point
        // of degradation is to shed work *now*.
        {
            const int step =
                degradation_ >= DegradationLevel::DownshiftBits ? 2 : 1;
            narrowBits_ =
                std::max(narrowBits_ - step, effectiveMinNarrowBits());
            lcpBits_ = std::max(lcpBits_ - step, effectiveMinLcpBits());
        }
        return Action::Continue;
    }
    return Action::Continue;
}

int
PrecisionController::effectiveMinNarrowBits() const
{
    if (degradation_ >= DegradationLevel::DownshiftBits)
        return std::min(policy_.minNarrowBits, policy_.degradedNarrowBits);
    return policy_.minNarrowBits;
}

int
PrecisionController::effectiveMinLcpBits() const
{
    if (degradation_ >= DegradationLevel::DownshiftBits)
        return std::min(policy_.minLcpBits, policy_.degradedLcpBits);
    return policy_.minLcpBits;
}

int
PrecisionController::lcpIterationCap() const
{
    return degradation_ >= DegradationLevel::CapIterations
        ? policy_.degradedLcpIterations
        : 0;
}

void
PrecisionController::setDegradationLevel(DegradationLevel level)
{
    const bool deepened = level > degradation_;
    degradation_ = level;
    if (deepened && holdSteps_ == 0) {
        // Escalation sheds precision immediately (no waiting for the
        // decay) — unless a post-rollback full-precision hold is in
        // force, which the believability machinery wins.
        narrowBits_ = std::min(narrowBits_, effectiveMinNarrowBits());
        lcpBits_ = std::min(lcpBits_, effectiveMinLcpBits());
    }
    if (level == DegradationLevel::None) {
        // Relaxation restores the normal floors; current widths rise
        // only via the guard, so no snap here.
        narrowBits_ = std::max(narrowBits_, policy_.minNarrowBits);
        lcpBits_ = std::max(lcpBits_, policy_.minLcpBits);
    }
}

void
PrecisionController::forceFullPrecisionStep()
{
    narrowBits_ = fp::kFullMantissaBits;
    lcpBits_ = fp::kFullMantissaBits;
}

void
PrecisionController::holdFullPrecision(int steps)
{
    holdSteps_ = mode_ == Mode::Fixed ? steps : std::max(holdSteps_, steps);
    forceFullPrecisionStep();
}

void
PrecisionController::restartEnergyHistory(double energy)
{
    monitor_.restart(energy);
}

} // namespace phys
} // namespace hfpu
