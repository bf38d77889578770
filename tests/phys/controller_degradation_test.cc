/**
 * @file
 * Unit tests for the controller half of the overload-degradation
 * ladder (DESIGN.md §9c): escalation sheds precision immediately,
 * the believability guard outranks degradation, relaxation restores
 * the normal floors, and the degraded floors/caps come from the
 * validated policy; the guard-only Fixed mode holds its floors. The
 * scheduler-driven end-to-end ladder lives in
 * tests/srv/overload_test.cc; this file pins the state machine alone.
 */

#include <gtest/gtest.h>

#include <utility>

#include "fp/precision.h"
#include "phys/controller.h"

using namespace hfpu;
using phys::DegradationLevel;

namespace {

phys::PrecisionPolicy
guardedPolicy()
{
    phys::PrecisionPolicy policy;
    policy.minNarrowBits = 16;
    policy.minLcpBits = 14;
    policy.degradedNarrowBits = 12;
    policy.degradedLcpBits = 10;
    policy.degradedLcpIterations = 8;
    return policy;
}

/** Feed calm, identical-energy steps so the quiet decay runs. */
void
calmSteps(phys::PrecisionController &ctrl, int n)
{
    for (int i = 0; i < n; ++i)
        ASSERT_EQ(ctrl.endStep(100.0, 0.0, true),
                  phys::PrecisionController::Action::Continue);
}

} // namespace

TEST(DegradationLevelName, StableStrings)
{
    EXPECT_STREQ(phys::degradationLevelName(DegradationLevel::None),
                 "none");
    EXPECT_STREQ(
        phys::degradationLevelName(DegradationLevel::DownshiftBits),
        "downshift");
    EXPECT_STREQ(
        phys::degradationLevelName(DegradationLevel::CapIterations),
        "cap-iterations");
}

TEST(ControllerDegradation, EscalationShedsPrecisionImmediately)
{
    phys::PrecisionController ctrl(guardedPolicy());
    ctrl.restartEnergyHistory(100.0);
    EXPECT_EQ(ctrl.currentNarrowBits(), 16);
    EXPECT_EQ(ctrl.currentLcpBits(), 14);
    EXPECT_EQ(ctrl.lcpIterationCap(), 0);

    ctrl.setDegradationLevel(DegradationLevel::DownshiftBits);
    // No waiting for the quiet-step decay: the cut is instantaneous.
    EXPECT_EQ(ctrl.currentNarrowBits(), 12);
    EXPECT_EQ(ctrl.currentLcpBits(), 10);
    EXPECT_EQ(ctrl.lcpIterationCap(), 0) << "cap only at level 2";

    ctrl.setDegradationLevel(DegradationLevel::CapIterations);
    EXPECT_EQ(ctrl.lcpIterationCap(), 8);
}

TEST(ControllerDegradation, GuardOutranksDegradation)
{
    phys::PrecisionController ctrl(guardedPolicy());
    ctrl.restartEnergyHistory(100.0);
    ctrl.setDegradationLevel(DegradationLevel::DownshiftBits);
    ASSERT_EQ(ctrl.currentNarrowBits(), 12);

    // An energy violation throttles clear back to full precision even
    // while degraded — believability always wins.
    EXPECT_EQ(ctrl.endStep(150.0, 0.0, true),
              phys::PrecisionController::Action::Continue);
    EXPECT_EQ(ctrl.violations(), 1);
    EXPECT_EQ(ctrl.currentNarrowBits(), fp::kFullMantissaBits);
    EXPECT_EQ(ctrl.currentLcpBits(), fp::kFullMantissaBits);

    // The quiet decay then settles on the *degraded* floors (and runs
    // two bits per step under degradation, not one).
    const int before = ctrl.currentNarrowBits();
    calmSteps(ctrl, 1);
    EXPECT_EQ(ctrl.currentNarrowBits(), before - 2);
    calmSteps(ctrl, 32);
    EXPECT_EQ(ctrl.currentNarrowBits(), 12);
    EXPECT_EQ(ctrl.currentLcpBits(), 10);
}

TEST(ControllerDegradation, RollbackHoldBlocksEscalationCut)
{
    phys::PrecisionController ctrl(guardedPolicy());
    ctrl.restartEnergyHistory(100.0);
    ctrl.holdFullPrecision(3);
    // The post-rollback full-precision hold is the believability
    // fail-safe; deadline pressure must not undercut it.
    ctrl.setDegradationLevel(DegradationLevel::DownshiftBits);
    EXPECT_EQ(ctrl.currentNarrowBits(), fp::kFullMantissaBits);
    EXPECT_EQ(ctrl.currentLcpBits(), fp::kFullMantissaBits);
    // Once the hold drains, the decay heads for the degraded floors.
    calmSteps(ctrl, 32);
    EXPECT_EQ(ctrl.currentNarrowBits(), 12);
    EXPECT_EQ(ctrl.currentLcpBits(), 10);
}

TEST(ControllerDegradation, RelaxationRestoresNormalFloors)
{
    phys::PrecisionController ctrl(guardedPolicy());
    ctrl.restartEnergyHistory(100.0);
    ctrl.setDegradationLevel(DegradationLevel::CapIterations);
    calmSteps(ctrl, 8);
    ASSERT_EQ(ctrl.currentNarrowBits(), 12);
    ASSERT_EQ(ctrl.lcpIterationCap(), 8);

    ctrl.setDegradationLevel(DegradationLevel::None);
    // Back to the programmed minimums, cap lifted.
    EXPECT_EQ(ctrl.lcpIterationCap(), 0);
    EXPECT_EQ(ctrl.currentNarrowBits(), 16);
    EXPECT_EQ(ctrl.currentLcpBits(), 14);
    EXPECT_EQ(ctrl.degradationLevel(), DegradationLevel::None);
}

TEST(ControllerDegradation, DegradedFloorsNeverRaiseTighterMinimums)
{
    // A policy whose programmed minimums are already below the
    // degraded floors: degradation must not *raise* precision.
    phys::PrecisionPolicy policy = guardedPolicy();
    policy.minNarrowBits = 8;
    policy.minLcpBits = 6;
    phys::PrecisionController ctrl(policy);
    ctrl.restartEnergyHistory(100.0);
    calmSteps(ctrl, 32);
    ASSERT_EQ(ctrl.currentNarrowBits(), 8);
    ctrl.setDegradationLevel(DegradationLevel::DownshiftBits);
    EXPECT_EQ(ctrl.currentNarrowBits(), 8);
    EXPECT_EQ(ctrl.currentLcpBits(), 6);
    EXPECT_EQ(ctrl.effectiveMinNarrowBits(), 8);
    EXPECT_EQ(ctrl.effectiveMinLcpBits(), 6);
}

TEST(ControllerDegradation, ValidatedPolicyClampsDegradedKnobs)
{
    phys::PrecisionPolicy policy = guardedPolicy();
    policy.degradedNarrowBits = -3;
    policy.degradedLcpBits = 99;
    policy.degradedLcpIterations = 0; // would skip the solve outright
    const phys::PrecisionPolicy p = phys::validatedPolicy(policy);
    EXPECT_EQ(p.degradedNarrowBits, 0);
    EXPECT_EQ(p.degradedLcpBits, fp::kFullMantissaBits);
    EXPECT_EQ(p.degradedLcpIterations, 1);
}

namespace {

using Mode = phys::PrecisionController::Mode;

/** Run one fixed-mode step; returns the widths it was programmed at. */
std::pair<int, int>
fixedStep(phys::PrecisionController &ctrl, double energy)
{
    ctrl.beginStep();
    const auto &ctx = fp::PrecisionContext::current();
    const std::pair<int, int> bits{ctx.mantissaBits(fp::Phase::Narrow),
                                   ctx.mantissaBits(fp::Phase::Lcp)};
    EXPECT_EQ(ctrl.endStep(energy, 0.0, true),
              phys::PrecisionController::Action::Continue);
    return bits;
}

/** Leaves the thread context at full precision for the next test. */
class ControllerFixedMode : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        fp::PrecisionContext::current().setAllMantissaBits(
            fp::kFullMantissaBits);
    }
};

} // namespace

TEST_F(ControllerFixedMode, ViolationsChangeNothing)
{
    phys::PrecisionController ctrl(guardedPolicy(), Mode::Fixed);
    ctrl.restartEnergyHistory(100.0);
    EXPECT_EQ(fixedStep(ctrl, 100.0), std::make_pair(16, 14));
    // +20% is a violation: the adaptive loop would throttle up.
    EXPECT_EQ(fixedStep(ctrl, 120.0), std::make_pair(16, 14));
    EXPECT_EQ(fixedStep(ctrl, 120.0), std::make_pair(16, 14));
    EXPECT_EQ(ctrl.violations(), 0);
    EXPECT_FALSE(ctrl.blowUpPending());
}

TEST_F(ControllerFixedMode, BlowUpIsLeftToTheSupervisor)
{
    phys::PrecisionController ctrl(guardedPolicy(), Mode::Fixed);
    ctrl.restartEnergyHistory(100.0);
    fixedStep(ctrl, 300.0); // +200%: past threshold x blowupFactor
    EXPECT_TRUE(ctrl.blowUpPending());
    EXPECT_EQ(ctrl.reexecutions(), 0);
    EXPECT_DOUBLE_EQ(ctrl.monitor().lastRelativeDelta(), 2.0);
    fixedStep(ctrl, 300.0);
    EXPECT_FALSE(ctrl.blowUpPending());
    // A non-finite state is the supervisor's own check; the monitor
    // keeps its last finite reading.
    ctrl.beginStep();
    ctrl.endStep(300.0, 0.0, /*finite=*/false);
    EXPECT_FALSE(ctrl.blowUpPending());
    EXPECT_DOUBLE_EQ(ctrl.monitor().lastRelativeDelta(), 0.0);
}

TEST_F(ControllerFixedMode, HoldReplaysExactlyTheStepsAskedFor)
{
    constexpr int kFull = fp::kFullMantissaBits;
    phys::PrecisionController ctrl(guardedPolicy(), Mode::Fixed);
    ctrl.restartEnergyHistory(100.0);
    ctrl.holdFullPrecision(3);
    // Counted in steps whatever the verdict, unlike the adaptive hold.
    EXPECT_EQ(fixedStep(ctrl, 120.0), std::make_pair(kFull, kFull));
    EXPECT_EQ(fixedStep(ctrl, 400.0), std::make_pair(kFull, kFull));
    EXPECT_EQ(fixedStep(ctrl, 400.0), std::make_pair(kFull, kFull));
    EXPECT_EQ(fixedStep(ctrl, 400.0), std::make_pair(16, 14));
    // A new hold replaces the one in force instead of extending it.
    ctrl.holdFullPrecision(3);
    fixedStep(ctrl, 400.0);
    ctrl.holdFullPrecision(1);
    EXPECT_EQ(fixedStep(ctrl, 400.0), std::make_pair(kFull, kFull));
    EXPECT_EQ(fixedStep(ctrl, 400.0), std::make_pair(16, 14));
}

TEST_F(ControllerFixedMode, DegradationMovesTheFloors)
{
    phys::PrecisionController ctrl(guardedPolicy(), Mode::Fixed);
    ctrl.restartEnergyHistory(100.0);
    ctrl.setDegradationLevel(DegradationLevel::CapIterations);
    EXPECT_EQ(fixedStep(ctrl, 100.0), std::make_pair(12, 10));
    EXPECT_EQ(ctrl.lcpIterationCap(), 8);
    ctrl.setDegradationLevel(DegradationLevel::None);
    EXPECT_EQ(fixedStep(ctrl, 100.0), std::make_pair(16, 14));
    EXPECT_EQ(ctrl.lcpIterationCap(), 0);
}
