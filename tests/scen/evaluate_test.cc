/**
 * @file
 * Tests for the believability evaluator: the per-step energy rule, the
 * trajectory/aggregate deviation metrics, injected-energy discounting,
 * and the minimum-precision search.
 */

#include <gtest/gtest.h>

#include "fp/precision.h"
#include "scen/evaluate.h"
#include "scen/scenario.h"

namespace {

using namespace hfpu;
using namespace hfpu::scen;

class EvaluateTest : public ::testing::Test
{
  protected:
    void SetUp() override { fp::PrecisionContext::current().reset(); }
    void TearDown() override { fp::PrecisionContext::current().reset(); }

    EvalConfig
    quick() const
    {
        EvalConfig c;
        c.steps = 100;
        return c;
    }
};

TEST_F(EvaluateTest, FullPrecisionIsAlwaysBelievable)
{
    for (const auto &name : {"Explosions", "Ragdoll", "Periodic"}) {
        const auto r = evaluateBelievability(
            name, ReducedPhases::Both, 23, 23,
            fp::RoundingMode::Jamming, quick());
        EXPECT_TRUE(r.believable) << name;
        EXPECT_EQ(r.gainViolations, 0) << name;
        EXPECT_NEAR(r.maxDeviation, 0.0, 1e-12) << name;
    }
}

TEST_F(EvaluateTest, DeviationGrowsAsPrecisionDrops)
{
    // Coarse monotonicity of the deviation metric for a gentle scene.
    const auto high = evaluateBelievability(
        "Periodic", ReducedPhases::LcpOnly, 23, 16,
        fp::RoundingMode::Jamming, quick());
    const auto low = evaluateBelievability(
        "Periodic", ReducedPhases::LcpOnly, 23, 2,
        fp::RoundingMode::Jamming, quick());
    EXPECT_LT(high.maxDeviation, low.maxDeviation);
}

TEST_F(EvaluateTest, PhaseSelectionReducesOnlyThatPhase)
{
    // Reducing the narrow phase of a contact-free scene (Periodic is
    // joint-driven, nearly no contacts early) barely matters, while
    // the LCP dominates it.
    const auto narrow_only = evaluateBelievability(
        "Periodic", ReducedPhases::NarrowOnly, 3, 3,
        fp::RoundingMode::Jamming, quick());
    EXPECT_TRUE(narrow_only.believable);
}

TEST_F(EvaluateTest, MinimumPrecisionConsistentWithDirectEvaluation)
{
    const int min_bits = minimumPrecision(
        "Explosions", ReducedPhases::LcpOnly, fp::RoundingMode::Jamming,
        23, quick());
    ASSERT_GE(min_bits, 1);
    ASSERT_LE(min_bits, 23);
    const auto at_min = evaluateBelievability(
        "Explosions", ReducedPhases::LcpOnly, 23, min_bits,
        fp::RoundingMode::Jamming, quick());
    EXPECT_TRUE(at_min.believable);
}

TEST_F(EvaluateTest, TruncationDeviatesMoreThanRoundToNearest)
{
    // The Table 1 headline property (truncation's biased error needs
    // more bits), checked as a direct deviation comparison on the two
    // scenarios where it is robust. (Deformable is a genuine
    // exception in our engine: truncation's damping bias stabilizes
    // cloth — recorded in EXPERIMENTS.md.)
    const auto cfg = quick();
    for (const char *name : {"Periodic", "Ragdoll"}) {
        for (int bits : {6, 8}) {
            const auto rn = evaluateBelievability(
                name, ReducedPhases::LcpOnly, 23, bits,
                fp::RoundingMode::RoundToNearest, cfg);
            const auto tr = evaluateBelievability(
                name, ReducedPhases::LcpOnly, 23, bits,
                fp::RoundingMode::Truncation, cfg);
            EXPECT_LT(rn.maxDeviation, tr.maxDeviation)
                << name << " bits=" << bits;
        }
    }
}

TEST_F(EvaluateTest, ReferenceCacheKeysOnTheDeviationWindow)
{
    // A reference recorded for a 3-step window must not serve a later
    // 61-step window, which would then compare only 3 steps. The
    // expected value comes from a run whose reference has its own
    // cache entry (one more step, same window, same trajectory).
    EvalConfig short_window;
    short_window.steps = 61;
    short_window.deviationWindow = 3;
    EvalConfig long_window = short_window;
    long_window.deviationWindow = 61;
    EvalConfig uncached = long_window;
    uncached.steps = 62;
    const auto eval = [](const EvalConfig &config) {
        return evaluateBelievability("Explosions", ReducedPhases::LcpOnly,
                                     23, 6, fp::RoundingMode::Jamming,
                                     config);
    };
    const auto first = eval(short_window);
    const auto later = eval(long_window);
    const auto expected = eval(uncached);
    ASSERT_NE(first.maxDeviation, expected.maxDeviation);
    EXPECT_EQ(later.maxDeviation, expected.maxDeviation);
}

TEST_F(EvaluateTest, ResultsCarryReferenceEnergy)
{
    const auto r = evaluateBelievability(
        "Continuous", ReducedPhases::LcpOnly, 23, 8,
        fp::RoundingMode::Jamming, quick());
    EXPECT_GT(r.referenceFinalEnergy, 0.0);
    EXPECT_TRUE(r.finite);
}

} // namespace
