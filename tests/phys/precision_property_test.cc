/**
 * @file
 * Parameterized property tests of the engine under precision
 * reduction: physical invariants that must survive every rounding
 * mode and a range of mantissa widths (the believable operating
 * region), plus graceful-degradation properties below it.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>

#include "fp/precision.h"
#include "phys/world.h"

namespace {

using namespace hfpu;
using namespace hfpu::phys;

// gtest names each instance's ctest after this struct's raw bytes, so
// it has no padding: every byte is set and the name is the same in
// every build.
struct Param {
    int lcpBits;
    fp::RoundingMode mode;
    std::uint8_t unused[3] = {};
};

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    std::string name = fp::roundingModeName(info.param.mode);
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name + "_" + std::to_string(info.param.lcpBits) + "bits";
}

class PrecisionPropertyTest : public ::testing::TestWithParam<Param>
{
  protected:
    void
    SetUp() override
    {
        auto &ctx = fp::PrecisionContext::current();
        ctx.reset();
        ctx.setRoundingMode(GetParam().mode);
        ctx.setMantissaBits(fp::Phase::Lcp, GetParam().lcpBits);
        ctx.setMantissaBits(fp::Phase::Narrow,
                            std::min(23, GetParam().lcpBits + 4));
    }
    void TearDown() override { fp::PrecisionContext::current().reset(); }
};

TEST_P(PrecisionPropertyTest, MomentumConservedInFreeSpaceCollision)
{
    // Conservation holds through the solver at any precision: impulses
    // are applied equal-and-opposite, so reduced arithmetic cannot
    // create net momentum beyond rounding noise.
    WorldConfig cfg;
    cfg.gravity = {};
    World world(cfg);
    RigidBody a(Shape::sphere(0.4f), 2.0f, {-1.5f, 0.0f, 0.0f});
    RigidBody b(Shape::sphere(0.4f), 1.0f, {1.5f, 0.05f, 0.0f});
    a.linVel = {3.0f, 0.0f, 0.0f};
    b.linVel = {-1.0f, 0.0f, 0.0f};
    const BodyId ia = world.addBody(a);
    const BodyId ib = world.addBody(b);
    const float px0 = 2.0f * 3.0f + 1.0f * -1.0f;
    for (int i = 0; i < 150; ++i)
        world.step();
    const float px = 2.0f * world.body(ia).linVel.x +
        1.0f * world.body(ib).linVel.x;
    // Tolerance scales with the operating precision.
    const float tol =
        0.2f + 20.0f * std::ldexp(1.0f, -GetParam().lcpBits);
    EXPECT_NEAR(px, px0, tol);
    EXPECT_TRUE(world.stateFinite());
}

TEST_P(PrecisionPropertyTest, RestingBodyStaysPut)
{
    World world;
    world.addBody(RigidBody::makeStatic(
        Shape::plane({0.0f, 1.0f, 0.0f}, 0.0f), {}));
    const BodyId id = world.addBody(RigidBody(
        Shape::box({0.4f, 0.4f, 0.4f}), 1.0f, {0.0f, 0.4f, 0.0f}));
    for (int i = 0; i < 200; ++i)
        world.step();
    EXPECT_TRUE(world.stateFinite());
    EXPECT_NEAR(world.body(id).pos.y, 0.4f, 0.05f);
    EXPECT_NEAR(world.body(id).pos.x, 0.0f, 0.05f);
}

TEST_P(PrecisionPropertyTest, EnergyNeverExplodesUnderGuard)
{
    // With the controller attached, total energy stays bounded for a
    // busy scene at ANY programmed minimum (the guard throttles up).
    World world;
    world.addBody(RigidBody::makeStatic(
        Shape::plane({0.0f, 1.0f, 0.0f}, 0.0f), {}));
    for (int i = 0; i < 6; ++i) {
        world.addBody(RigidBody(Shape::box({0.25f, 0.25f, 0.25f}), 1.0f,
                                {0.5f * (i % 3) - 0.5f,
                                 0.26f + 0.52f * (i / 3), 0.0f}));
    }
    PrecisionPolicy policy;
    policy.minLcpBits = GetParam().lcpBits;
    policy.minNarrowBits = std::min(23, GetParam().lcpBits + 4);
    policy.roundingMode = GetParam().mode;
    PrecisionController controller(policy);
    world.setController(&controller);
    const double e0 = world.computeCurrentEnergy().total();
    double max_e = e0;
    for (int i = 0; i < 250; ++i) {
        world.step();
        max_e = std::max(max_e, world.lastEnergy().total());
    }
    EXPECT_TRUE(world.stateFinite());
    EXPECT_LT(max_e, 3.0 * std::max(e0, 1.0));
}

TEST_P(PrecisionPropertyTest, SolverImpulsesRemainNonNegativeOnContacts)
{
    // The unilateral structure (lambda >= 0 on contacts) must hold at
    // every precision: a resting sphere is pushed up, never sucked
    // down.
    World world;
    world.addBody(RigidBody::makeStatic(
        Shape::plane({0.0f, 1.0f, 0.0f}, 0.0f), {}));
    const BodyId id = world.addBody(RigidBody(
        Shape::sphere(0.3f), 1.0f, {0.0f, 0.295f, 0.0f}));
    for (int i = 0; i < 100; ++i) {
        world.step();
        // Never accelerates downward beyond gravity's reach.
        EXPECT_GT(world.body(id).pos.y, 0.2f) << "step " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrecisionPropertyTest,
    ::testing::Values(
        Param{23, fp::RoundingMode::RoundToNearest},
        Param{10, fp::RoundingMode::RoundToNearest},
        Param{6, fp::RoundingMode::RoundToNearest},
        Param{12, fp::RoundingMode::Jamming},
        Param{8, fp::RoundingMode::Jamming},
        Param{5, fp::RoundingMode::Jamming},
        Param{12, fp::RoundingMode::Truncation},
        Param{8, fp::RoundingMode::Truncation}),
    paramName);

} // namespace
