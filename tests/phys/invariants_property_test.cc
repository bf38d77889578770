/**
 * @file
 * Physical-invariant property tests: rather than pinning exact values,
 * these assert relations that must hold after *every* step of any
 * scenario, full precision or reduced:
 *
 *  - every body field stays finite (no NaN/Inf ever escapes a step),
 *  - accumulated normal impulses are non-negative (contacts push,
 *    never pull),
 *  - accumulated friction impulses stay inside the friction cone
 *    |f| <= mu * n, up to the one-ulp slack of the reduced-precision
 *    clamp product,
 *  - with the precision controller attached, the believability
 *    monitor's net energy gain never silently reaches the blow-up
 *    regime: a blown-up step is re-executed at full precision before
 *    it is observable.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/approx.h"
#include "common/rng.h"
#include "fp/precision.h"
#include "phys/controller.h"
#include "phys/energy.h"
#include "scen/scenario.h"

using namespace hfpu;

namespace {

// gtest names each instance's ctest after this struct's raw bytes, so
// it holds no pointer (a std::string's moves with ASLR) and no padding:
// the name buffer is zero-filled and the name is the same in every
// build.
struct PropertyCase {
    char scenario[36];
    int bits;
};

std::vector<PropertyCase>
propertyCases()
{
    std::vector<PropertyCase> cases = {
        {"Explosions", 23}, {"Explosions", 14}, {"Ragdoll", 14},
        {"Everything", 14}, {"Highspeed", 16},
    };
    // Two seeded debris worlds so the sweep is not limited to the
    // hand-built scenarios; HFPU_SEED re-seeds them suite-wide.
    std::mt19937 rng = test::seededRng(/*salt=*/101);
    for (int i = 0; i < 2; ++i) {
        PropertyCase c{};
        std::string name = "Random#" + std::to_string(rng());
        name.copy(c.scenario, sizeof c.scenario - 1);
        c.bits = i == 0 ? 23 : 14;
        cases.push_back(c);
    }
    return cases;
}

class Invariants : public ::testing::TestWithParam<PropertyCase>
{
  protected:
    void SetUp() override
    {
        auto &ctx = fp::PrecisionContext::current();
        ctx.setAllMantissaBits(fp::kFullMantissaBits);
        ctx.setRoundingMode(fp::RoundingMode::Jamming);
        ctx.setPhase(fp::Phase::Other);
    }

    void TearDown() override
    {
        fp::PrecisionContext::current().setAllMantissaBits(
            fp::kFullMantissaBits);
    }
};

bool
finiteVec(const phys::Vec3 &v)
{
    return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

} // namespace

TEST_P(Invariants, StateStaysFiniteEveryStep)
{
    const PropertyCase &c = GetParam();
    phys::PrecisionPolicy policy;
    policy.minNarrowBits = c.bits;
    policy.minLcpBits = c.bits;
    // Declared before the scenario so it outlives the world that points
    // at it, also when an ASSERT returns early. Held on the heap: gcc's
    // -Wdangling-pointer flags a stack address stored into the world.
    auto controller = std::make_unique<phys::PrecisionController>(policy);
    scen::Scenario scenario = scen::makeScenario(c.scenario);
    scenario.world->setController(controller.get());

    for (int step = 0; step < 80; ++step) {
        scenario.step();
        ASSERT_TRUE(scenario.world->stateFinite())
            << c.scenario << " step " << step;
        for (size_t b = 0; b < scenario.world->bodyCount(); ++b) {
            const phys::RigidBody &body =
                scenario.world->body(static_cast<phys::BodyId>(b));
            ASSERT_TRUE(finiteVec(body.pos) && finiteVec(body.linVel) &&
                        finiteVec(body.angVel) &&
                        std::isfinite(body.orient.w) &&
                        std::isfinite(body.orient.x) &&
                        std::isfinite(body.orient.y) &&
                        std::isfinite(body.orient.z))
                << c.scenario << " body " << b << " step " << step;
        }
    }
}

TEST_P(Invariants, ContactImpulsesRespectConeAndSign)
{
    const PropertyCase &c = GetParam();
    phys::PrecisionPolicy policy;
    policy.minNarrowBits = c.bits;
    policy.minLcpBits = c.bits;
    phys::PrecisionController controller(policy);
    scen::Scenario scenario = scen::makeScenario(c.scenario);
    scenario.world->setCaptureImpulses(true);
    scenario.world->setController(&controller);

    // One k-bit rounding of the clamp product mu * lambda_n, plus
    // absolute slack for impulses at the bottom of the float range.
    const float coneSlack = 1.0f + test::mantissaRelTol(c.bits);

    long normals = 0, frictions = 0;
    for (int step = 0; step < 80; ++step) {
        scenario.step();
        const auto &impulses = scenario.world->lastImpulses();
        for (const phys::SolverImpulse &imp : impulses) {
            if (!imp.contact)
                continue; // joint rows are unbounded
            if (imp.normalRow < 0) {
                ++normals;
                ASSERT_GE(imp.lambda, 0.0f)
                    << c.scenario << " step " << step
                    << ": attracting normal impulse";
                continue;
            }
            ++frictions;
            // Locate this friction row's normal accumulator.
            const phys::SolverImpulse *normal = nullptr;
            for (const phys::SolverImpulse &n : impulses) {
                if (n.island == imp.island && n.row == imp.normalRow) {
                    normal = &n;
                    break;
                }
            }
            ASSERT_NE(normal, nullptr)
                << c.scenario << " step " << step << ": orphan friction row";
            const float bound =
                imp.mu * normal->lambda * coneSlack + 1e-6f;
            ASSERT_LE(std::fabs(imp.lambda), bound)
                << c.scenario << " step " << step << ": friction "
                << imp.lambda << " outside cone mu=" << imp.mu
                << " n=" << normal->lambda;
        }
    }
    // The property must not pass vacuously: every scenario in the
    // sweep produces resting or colliding contacts within 80 steps.
    EXPECT_GT(normals, 0) << c.scenario;
    EXPECT_GT(frictions, 0) << c.scenario;
}

TEST_P(Invariants, EnergyGuardNeverSilentlyBlowsUp)
{
    const PropertyCase &c = GetParam();
    phys::PrecisionPolicy policy;
    policy.minNarrowBits = c.bits;
    policy.minLcpBits = c.bits;
    phys::PrecisionController controller(policy);
    scen::Scenario scenario = scen::makeScenario(c.scenario);
    scenario.world->setController(&controller);

    // Shadow monitor with the controller's own thresholds: whatever it
    // would classify as a blow-up must never be visible after a step,
    // because the controller re-executes such steps at full precision.
    phys::EnergyMonitor shadow(policy.energyThreshold,
                               policy.blowupFactor);
    int shadowViolations = 0;
    for (int step = 0; step < 80; ++step) {
        scenario.step();
        const auto verdict =
            shadow.observe(scenario.world->lastEnergy().total(),
                           scenario.world->lastInjectedEnergy(),
                           scenario.world->stateFinite());
        ASSERT_NE(verdict, phys::EnergyMonitor::Verdict::BlowUp)
            << c.scenario << " step " << step << ": relative gain "
            << shadow.lastRelativeDelta() << " escaped the guard";
        if (verdict == phys::EnergyMonitor::Verdict::Violation)
            ++shadowViolations;
    }
    // Reacting means counting: any energy excursion the shadow saw
    // must have registered with the controller too.
    if (shadowViolations > 0) {
        EXPECT_GT(controller.violations() + controller.reexecutions(), 0)
            << c.scenario << ": monitor flagged " << shadowViolations
            << " violations the controller never saw";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, Invariants, ::testing::ValuesIn(propertyCases()),
    [](const ::testing::TestParamInfo<PropertyCase> &info) {
        std::string name = std::string(info.param.scenario) + "_" +
                           std::to_string(info.param.bits) + "bit";
        for (char &ch : name)
            if (ch == '#')
                ch = 'x';
        return name;
    });
