/**
 * @file
 * Integration tests of the full engine: free fall, bouncing,
 * stacking, momentum conservation, pendulum energy, sleeping,
 * islands, joint behavior and breakage, cloth, and the dynamic
 * precision controller's throttle/re-execute loop.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "fp/precision.h"
#include "phys/cloth.h"
#include "phys/world.h"

namespace {

using namespace hfpu::phys;
using hfpu::fp::PrecisionContext;

class WorldTest : public ::testing::Test
{
  protected:
    void SetUp() override { PrecisionContext::current().reset(); }
    void TearDown() override { PrecisionContext::current().reset(); }

    static BodyId
    addGround(World &world)
    {
        return world.addBody(RigidBody::makeStatic(
            Shape::plane({0.0f, 1.0f, 0.0f}, 0.0f), {}));
    }
};

TEST_F(WorldTest, FreeFallMatchesKinematics)
{
    World world;
    const BodyId id =
        world.addBody(RigidBody(Shape::sphere(0.1f), 1.0f,
                                {0.0f, 100.0f, 0.0f}));
    for (int i = 0; i < 100; ++i)
        world.step();
    // Semi-implicit Euler: y = y0 - g*dt^2*(n(n+1)/2).
    const float g = 9.81f, dt = 0.01f;
    const float expect = 100.0f - g * dt * dt * (100.0f * 101.0f / 2.0f);
    EXPECT_NEAR(world.body(id).pos.y, expect, 0.01f);
    EXPECT_NEAR(world.body(id).linVel.y, -g * 1.0f, 0.01f);
}

TEST_F(WorldTest, SphereRestsOnGround)
{
    World world;
    addGround(world);
    const BodyId id = world.addBody(
        RigidBody(Shape::sphere(0.5f), 1.0f, {0.0f, 0.6f, 0.0f}));
    for (int i = 0; i < 300; ++i)
        world.step();
    // Sits at about its radius above the plane and stops moving.
    EXPECT_NEAR(world.body(id).pos.y, 0.5f, 0.02f);
    EXPECT_LT(world.body(id).linVel.length(), 0.05f);
}

TEST_F(WorldTest, RestitutionBouncesButLosesEnergy)
{
    World world;
    addGround(world);
    RigidBody ball(Shape::sphere(0.2f), 1.0f, {0.0f, 2.0f, 0.0f});
    ball.restitution = 0.8f;
    const BodyId id = world.addBody(ball);
    float max_rebound = 0.0f;
    bool hit = false;
    for (int i = 0; i < 400; ++i) {
        world.step();
        if (world.body(id).linVel.y > 0.0f)
            hit = true;
        if (hit)
            max_rebound = std::max(max_rebound, world.body(id).pos.y);
    }
    EXPECT_TRUE(hit);
    EXPECT_GT(max_rebound, 0.5f); // bounces meaningfully
    EXPECT_LT(max_rebound, 2.0f); // but below the drop height
}

TEST_F(WorldTest, HeadOnElasticishCollisionConservesMomentum)
{
    World world;
    world.bodies().reserve(8);
    WorldConfig cfg;
    cfg.gravity = {};
    World space(cfg);
    RigidBody a(Shape::sphere(0.5f), 1.0f, {-2.0f, 0.0f, 0.0f});
    RigidBody b(Shape::sphere(0.5f), 1.0f, {2.0f, 0.0f, 0.0f});
    a.linVel = {2.0f, 0.0f, 0.0f};
    b.linVel = {-2.0f, 0.0f, 0.0f};
    a.friction = b.friction = 0.0f;
    const BodyId ia = space.addBody(a);
    const BodyId ib = space.addBody(b);
    for (int i = 0; i < 200; ++i)
        space.step();
    const float px =
        space.body(ia).linVel.x + space.body(ib).linVel.x;
    EXPECT_NEAR(px, 0.0f, 1e-3f); // momentum conserved
    // They must have separated again, moving apart.
    EXPECT_LT(space.body(ia).linVel.x, 0.01f);
    EXPECT_GT(space.body(ib).linVel.x, -0.01f);
}

TEST_F(WorldTest, BoxStackRemainsStanding)
{
    World world;
    addGround(world);
    std::vector<BodyId> stack;
    for (int i = 0; i < 5; ++i) {
        stack.push_back(world.addBody(RigidBody(
            Shape::box({0.5f, 0.25f, 0.5f}), 2.0f,
            {0.0f, 0.25f + 0.5f * i + 0.002f * i, 0.0f})));
    }
    for (int i = 0; i < 300; ++i)
        world.step();
    for (int i = 0; i < 5; ++i) {
        const RigidBody &b = world.body(stack[i]);
        EXPECT_NEAR(b.pos.y, 0.25f + 0.5f * i, 0.08f) << "level " << i;
        EXPECT_NEAR(b.pos.x, 0.0f, 0.1f);
        EXPECT_NEAR(b.pos.z, 0.0f, 0.1f);
    }
}

TEST_F(WorldTest, PendulumApproximatelyConservesEnergy)
{
    WorldConfig cfg;
    World world(cfg);
    const BodyId anchor = world.addBody(RigidBody::makeStatic(
        Shape::sphere(0.1f), {0.0f, 2.0f, 0.0f}));
    RigidBody bob(Shape::sphere(0.1f), 1.0f, {1.0f, 2.0f, 0.0f});
    const BodyId bob_id = world.addBody(bob);
    world.addJoint(std::make_unique<BallJoint>(
        world.bodies(), anchor, bob_id, Vec3{0.0f, 2.0f, 0.0f}));
    const double e0 = world.computeCurrentEnergy().total();
    double max_dev = 0.0;
    for (int i = 0; i < 300; ++i) {
        world.step();
        max_dev = std::max(
            max_dev,
            std::fabs(world.lastEnergy().total() - e0) /
                std::max(std::fabs(e0), 1.0));
    }
    // Constraint solving dissipates slightly; energy must not grow nor
    // collapse over 3 seconds.
    EXPECT_LT(max_dev, 0.12);
    // The pendulum keeps swinging (has not frozen).
    EXPECT_GT(world.body(bob_id).linVel.length() +
                  std::fabs(world.body(bob_id).pos.x),
              0.1f);
}

TEST_F(WorldTest, BallJointHoldsAnchor)
{
    World world;
    const BodyId anchor = world.addBody(RigidBody::makeStatic(
        Shape::sphere(0.1f), {0.0f, 2.0f, 0.0f}));
    const BodyId bob = world.addBody(
        RigidBody(Shape::sphere(0.1f), 1.0f, {0.6f, 2.0f, 0.0f}));
    world.addJoint(std::make_unique<BallJoint>(
        world.bodies(), anchor, bob, Vec3{0.0f, 2.0f, 0.0f}));
    for (int i = 0; i < 500; ++i)
        world.step();
    // The bob stays on the sphere of radius 0.6 around the anchor.
    const float d = distance(world.body(bob).pos, {0.0f, 2.0f, 0.0f});
    EXPECT_NEAR(d, 0.6f, 0.05f);
}

TEST_F(WorldTest, HingeConstrainsRotationAxis)
{
    World world;
    const BodyId anchor = world.addBody(RigidBody::makeStatic(
        Shape::sphere(0.05f), {0.0f, 2.0f, 0.0f}));
    RigidBody rod(Shape::box({0.5f, 0.05f, 0.05f}), 1.0f,
                  {0.5f, 2.0f, 0.0f});
    const BodyId rod_id = world.addBody(rod);
    world.addJoint(std::make_unique<HingeJoint>(
        world.bodies(), anchor, rod_id, Vec3{0.0f, 2.0f, 0.0f},
        Vec3{0.0f, 0.0f, 1.0f}));
    for (int i = 0; i < 300; ++i)
        world.step();
    // Motion must stay in the x-y plane (hinge axis is z).
    EXPECT_NEAR(world.body(rod_id).pos.z, 0.0f, 0.02f);
    EXPECT_LT(std::fabs(world.body(rod_id).angVel.x), 0.2f);
    EXPECT_LT(std::fabs(world.body(rod_id).angVel.y), 0.2f);
}

TEST_F(WorldTest, FixedJointActsRigid)
{
    World world;
    addGround(world);
    RigidBody a(Shape::box({0.25f, 0.25f, 0.25f}), 1.0f,
                {0.0f, 3.0f, 0.0f});
    RigidBody b(Shape::box({0.25f, 0.25f, 0.25f}), 1.0f,
                {0.5f, 3.0f, 0.0f});
    const BodyId ia = world.addBody(a);
    const BodyId ib = world.addBody(b);
    world.addJoint(std::make_unique<FixedJoint>(
        world.bodies(), ia, ib, Vec3{0.25f, 3.0f, 0.0f}));
    for (int i = 0; i < 200; ++i)
        world.step();
    // Falls and lands as one piece; separation preserved.
    EXPECT_NEAR(
        distance(world.body(ia).pos, world.body(ib).pos), 0.5f, 0.03f);
}

TEST_F(WorldTest, BreakableJointSnapsUnderImpact)
{
    World world;
    addGround(world);
    RigidBody a(Shape::box({0.25f, 0.25f, 0.25f}), 1.0f,
                {0.0f, 0.25f, 0.0f});
    RigidBody b(Shape::box({0.25f, 0.25f, 0.25f}), 1.0f,
                {0.0f, 0.75f, 0.0f});
    const BodyId ia = world.addBody(a);
    const BodyId ib = world.addBody(b);
    auto joint = std::make_unique<FixedJoint>(
        world.bodies(), ia, ib, Vec3{0.0f, 0.5f, 0.0f});
    joint->breakImpulse = 2.0f;
    Joint *weld = world.addJoint(std::move(joint));
    for (int i = 0; i < 50; ++i)
        world.step();
    EXPECT_FALSE(weld->broken());
    // Slam a heavy fast projectile into the top box.
    world.spawnProjectile(Shape::sphere(0.3f), 10.0f,
                          {-3.0f, 0.75f, 0.0f}, {30.0f, 0.0f, 0.0f});
    for (int i = 0; i < 60; ++i)
        world.step();
    EXPECT_TRUE(weld->broken());
}

TEST_F(WorldTest, SleepingBodiesDisableAndWakeOnContact)
{
    WorldConfig cfg;
    cfg.sleepSteps = 10;
    World world(cfg);
    addGround(world);
    const BodyId box = world.addBody(RigidBody(
        Shape::box({0.5f, 0.5f, 0.5f}), 1.0f, {0.0f, 0.5f, 0.0f}));
    for (int i = 0; i < 200; ++i)
        world.step();
    EXPECT_TRUE(world.body(box).asleep());
    // A projectile wakes it.
    world.spawnProjectile(Shape::sphere(0.2f), 1.0f,
                          {-3.0f, 0.6f, 0.0f}, {20.0f, 0.0f, 0.0f});
    bool woke = false;
    for (int i = 0; i < 60 && !woke; ++i) {
        world.step();
        woke = !world.body(box).asleep();
    }
    EXPECT_TRUE(woke);
}

TEST_F(WorldTest, IslandsPartitionIndependentGroups)
{
    World world;
    addGround(world);
    // Two separated stacks of two boxes each.
    for (float x : {-5.0f, 5.0f}) {
        world.addBody(RigidBody(Shape::box({0.5f, 0.5f, 0.5f}), 1.0f,
                                {x, 0.5f, 0.0f}));
        world.addBody(RigidBody(Shape::box({0.5f, 0.5f, 0.5f}), 1.0f,
                                {x, 1.45f, 0.0f}));
    }
    world.step();
    EXPECT_EQ(world.lastIslands().size(), 2u);
    for (const Island &island : world.lastIslands())
        EXPECT_EQ(island.bodies.size(), 2u);
}

TEST_F(WorldTest, ExplosionInjectsTrackedEnergy)
{
    World world;
    addGround(world);
    for (int i = 0; i < 4; ++i) {
        world.addBody(RigidBody(Shape::box({0.2f, 0.2f, 0.2f}), 1.0f,
                                {0.6f * i - 0.9f, 0.2f, 0.0f}));
    }
    for (int i = 0; i < 50; ++i)
        world.step();
    PrecisionPolicy policy; // full precision; monitor only
    PrecisionController controller(policy);
    world.setController(&controller);
    world.step(); // establish energy history
    world.applyExplosion({0.0f, 0.0f, 0.0f}, 10.0f, 5.0f);
    world.step();
    // Injection accounting keeps the monitor quiet despite the jump.
    EXPECT_EQ(controller.violations(), 0);
    EXPECT_EQ(controller.reexecutions(), 0);
}

TEST_F(WorldTest, ClothDrapesOverBoxWithoutExploding)
{
    World world;
    addGround(world);
    world.addBody(RigidBody::makeStatic(Shape::box({0.5f, 0.5f, 0.5f}),
                                        {0.875f, 0.5f, 0.875f}));
    ClothParams params;
    params.nx = 6;
    params.nz = 6;
    Cloth cloth = buildCloth(world, {0.25f, 1.4f, 0.25f}, params);
    for (int i = 0; i < 200; ++i)
        world.step();
    EXPECT_TRUE(world.stateFinite());
    // The cloth stays connected: all links near rest length.
    for (int iz = 0; iz < params.nz; ++iz) {
        for (int ix = 0; ix + 1 < params.nx; ++ix) {
            const float d = distance(world.body(cloth.at(ix, iz)).pos,
                                     world.body(cloth.at(ix + 1, iz)).pos);
            EXPECT_LT(d, params.spacing * 2.0f);
        }
    }
    // And it has fallen from its spawn height.
    EXPECT_LT(world.body(cloth.at(0, 0)).pos.y, 1.3f);
}

TEST_F(WorldTest, ControllerThrottlesUpOnViolation)
{
    World world;
    addGround(world);
    const BodyId box = world.addBody(RigidBody(
        Shape::box({0.5f, 0.5f, 0.5f}), 1.0f, {0.0f, 0.5f, 0.0f}));
    PrecisionPolicy policy;
    policy.minLcpBits = 3;
    policy.minNarrowBits = 3;
    PrecisionController controller(policy);
    world.setController(&controller);
    world.step();
    EXPECT_EQ(controller.currentLcpBits(), 3);
    // Inject an untracked energy spike: the monitor must flag it and
    // the controller must throttle to full precision.
    world.body(box).linVel = {0.0f, 50.0f, 0.0f};
    world.body(box).wake();
    world.step();
    EXPECT_GE(controller.violations() + controller.reexecutions(), 1);
    EXPECT_EQ(controller.currentLcpBits(), 23);
    // Quiet steps decay precision back toward the minimum.
    const int before = controller.currentLcpBits();
    world.step();
    world.step();
    EXPECT_LT(controller.currentLcpBits(), before);
}

TEST_F(WorldTest, ReducedPrecisionRunStaysBelievable)
{
    // The headline property: a stack simulated at the paper-selected
    // LCP precision stays believable under the energy rule.
    World world;
    addGround(world);
    for (int i = 0; i < 3; ++i) {
        world.addBody(RigidBody(Shape::box({0.5f, 0.25f, 0.5f}), 2.0f,
                                {0.0f, 0.25f + 0.52f * i, 0.0f}));
    }
    PrecisionPolicy policy;
    policy.minLcpBits = 10;
    policy.minNarrowBits = 17;
    policy.roundingMode = hfpu::fp::RoundingMode::Jamming;
    PrecisionController controller(policy);
    world.setController(&controller);
    for (int i = 0; i < 200; ++i)
        world.step();
    EXPECT_TRUE(world.stateFinite());
    EXPECT_EQ(controller.reexecutions(), 0);
    // The stack still stands.
    EXPECT_NEAR(world.body(3).pos.y, 0.25f + 2 * 0.52f, 0.15f);
}

TEST_F(WorldTest, BlowUpTriggersFullPrecisionReexecution)
{
    World world;
    addGround(world);
    const BodyId box = world.addBody(RigidBody(
        Shape::box({0.5f, 0.5f, 0.5f}), 1.0f, {0.0f, 2.0f, 0.0f}));
    PrecisionPolicy policy;
    policy.minLcpBits = 3;
    policy.minNarrowBits = 3;
    PrecisionController controller(policy);
    world.setController(&controller);
    world.step();
    // An untracked runaway energy spike (way past blowupFactor x
    // threshold) must trigger the fail-safe: restore the snapshot,
    // re-execute at full precision, and restart the energy history.
    world.body(box).linVel = {0.0f, 300.0f, 0.0f};
    world.body(box).wake();
    world.step();
    EXPECT_EQ(controller.reexecutions(), 1);
    EXPECT_EQ(controller.currentLcpBits(), 23);
    EXPECT_TRUE(world.stateFinite());
    // History was restarted: the following step is quiet again.
    world.step();
    EXPECT_EQ(controller.reexecutions(), 1);
    EXPECT_EQ(controller.violations(), 0);
}

TEST_F(WorldTest, StepDeterminism)
{
    auto run = [&](int steps) {
        World world;
        addGround(world);
        for (int i = 0; i < 4; ++i) {
            world.addBody(RigidBody(Shape::box({0.3f, 0.3f, 0.3f}), 1.0f,
                                    {0.1f * i, 0.4f + 0.7f * i, 0.0f}));
        }
        for (int i = 0; i < steps; ++i)
            world.step();
        return world.body(4).pos;
    };
    const Vec3 a = run(150);
    const Vec3 b = run(150);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.y, b.y);
    EXPECT_EQ(a.z, b.z);
}

TEST(WorldValidation, StepRejectsNonPositiveOrNonFiniteDt)
{
    for (const float dt :
         {0.0f, -0.01f, std::numeric_limits<float>::quiet_NaN(),
          std::numeric_limits<float>::infinity()}) {
        WorldConfig config;
        config.dt = dt;
        World world(config);
        world.addBody(
            RigidBody(Shape::sphere(0.1f), 1.0f, {0.0f, 5.0f, 0.0f}));
        EXPECT_THROW(world.step(), std::invalid_argument)
            << "dt=" << dt;
        EXPECT_EQ(world.stepCount(), 0);
    }
    // A valid dt still steps (the guard is not over-eager).
    World world;
    world.step();
    EXPECT_EQ(world.stepCount(), 1);
}

} // namespace
