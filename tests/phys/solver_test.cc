/**
 * @file
 * Tests for the ODE-style constraint-row machinery: Jacobian padding
 * structure (the unit/zero entries Section 4.3.2 relies on), effective
 * masses, PGS convergence on analytically solvable problems, friction
 * clamping, and hinge joint limits; the lane kernel's grouping rule
 * and its bitwise agreement with the per-island solver at the edges
 * (zero-row islands, a lone big island, a static body shared by
 * several lanes, padded rows).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "fp/precision.h"
#include "phys/row.h"
#include "phys/solver.h"
#include "phys/world.h"

namespace {

using namespace hfpu::phys;
using hfpu::math::Vec3;

class SolverTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        hfpu::fp::PrecisionContext::current().reset();
    }
};

TEST_F(SolverTest, FinishRowComputesEffectiveMassForPointMasses)
{
    std::vector<RigidBody> bodies;
    bodies.push_back(RigidBody(Shape::sphere(0.5f), 2.0f, {}));
    bodies.push_back(RigidBody(Shape::sphere(0.5f), 4.0f,
                               {2.0f, 0.0f, 0.0f}));
    SolverRow row;
    row.a = 0;
    row.b = 1;
    row.ja.lin = {-1.0f, 0.0f, 0.0f};
    row.jb.lin = {1.0f, 0.0f, 0.0f};
    finishRow(row, bodies);
    // K = 1/2 + 1/4 = 0.75; effective mass = 4/3.
    EXPECT_NEAR(row.invEffMass, 1.0f / 0.75f, 1e-5f);
    // B = M^-1 J^T.
    EXPECT_NEAR(row.ba.lin.x, -0.5f, 1e-6f);
    EXPECT_NEAR(row.bb.lin.x, 0.25f, 1e-6f);
    EXPECT_EQ(row.ba.ang.x, 0.0f); // no angular part
}

TEST_F(SolverTest, StaticBodyContributesNothingToEffectiveMass)
{
    std::vector<RigidBody> bodies;
    bodies.push_back(RigidBody::makeStatic(
        Shape::plane({0.0f, 1.0f, 0.0f}, 0.0f), {}));
    bodies.push_back(RigidBody(Shape::sphere(0.5f), 2.0f,
                               {0.0f, 0.5f, 0.0f}));
    SolverRow row;
    row.a = 0;
    row.b = 1;
    row.ja.lin = {0.0f, -1.0f, 0.0f};
    row.jb.lin = {0.0f, 1.0f, 0.0f};
    finishRow(row, bodies);
    EXPECT_NEAR(row.invEffMass, 2.0f, 1e-5f); // only the sphere's 1/m
    EXPECT_EQ(row.ba.lin.y, 0.0f);            // static: B = 0
}

TEST_F(SolverTest, BallJointRowsHaveUnitBasisLinearBlocks)
{
    // The articulation op mix of Section 4.3.2: ball-joint rows carry
    // +/- basis vectors in their linear blocks.
    std::vector<RigidBody> bodies;
    bodies.push_back(RigidBody(Shape::sphere(0.2f), 1.0f, {}));
    bodies.push_back(RigidBody(Shape::sphere(0.2f), 1.0f,
                               {1.0f, 0.0f, 0.0f}));
    BallJoint joint(bodies, 0, 1, {0.5f, 0.0f, 0.0f});
    std::vector<SolverRow> rows;
    joint.appendRows(bodies, 0.01f, 0.2f, rows);
    ASSERT_EQ(rows.size(), 3u);
    for (int k = 0; k < 3; ++k) {
        int nonzero = 0;
        const Vec3 &lin = rows[k].jb.lin;
        for (float c : {lin.x, lin.y, lin.z}) {
            if (c != 0.0f) {
                EXPECT_EQ(std::fabs(c), 1.0f);
                ++nonzero;
            }
        }
        EXPECT_EQ(nonzero, 1); // exactly one unit entry per row
        EXPECT_EQ(rows[k].ja.lin.x, -rows[k].jb.lin.x);
        EXPECT_EQ(rows[k].owner, &joint);
    }
}

TEST_F(SolverTest, DistanceJointRowHasZeroAngularBlocks)
{
    std::vector<RigidBody> bodies;
    bodies.push_back(RigidBody(Shape::sphere(0.1f), 1.0f, {}));
    bodies.push_back(RigidBody(Shape::sphere(0.1f), 1.0f,
                               {0.0f, -1.0f, 0.0f}));
    DistanceJoint joint(0, 1, 1.0f);
    std::vector<SolverRow> rows;
    joint.appendRows(bodies, 0.01f, 0.2f, rows);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].ja.ang, Vec3::zero());
    EXPECT_EQ(rows[0].jb.ang, Vec3::zero());
    EXPECT_NEAR(rows[0].jb.lin.y, -1.0f, 1e-6f);
}

TEST_F(SolverTest, HingeAngularRowsHaveZeroLinearBlocks)
{
    std::vector<RigidBody> bodies;
    bodies.push_back(RigidBody(Shape::box({0.2f, 0.2f, 0.2f}), 1.0f, {}));
    bodies.push_back(RigidBody(Shape::box({0.2f, 0.2f, 0.2f}), 1.0f,
                               {1.0f, 0.0f, 0.0f}));
    HingeJoint joint(bodies, 0, 1, {0.5f, 0.0f, 0.0f},
                     {0.0f, 0.0f, 1.0f});
    std::vector<SolverRow> rows;
    joint.appendRows(bodies, 0.01f, 0.2f, rows);
    ASSERT_EQ(rows.size(), 5u); // 3 point + 2 angular
    EXPECT_EQ(rows[3].ja.lin, Vec3::zero());
    EXPECT_EQ(rows[4].jb.lin, Vec3::zero());
}

TEST_F(SolverTest, PgsConvergesToAnalyticContactImpulse)
{
    // A unit-mass sphere falling at 1 m/s onto a static plane: the
    // normal row must absorb exactly the approach velocity (no bias:
    // zero penetration).
    std::vector<RigidBody> bodies;
    bodies.push_back(RigidBody::makeStatic(
        Shape::plane({0.0f, 1.0f, 0.0f}, 0.0f), {}));
    RigidBody ball(Shape::sphere(0.5f), 1.0f, {0.0f, 0.5f, 0.0f});
    ball.linVel = {0.0f, -1.0f, 0.0f};
    ball.friction = 0.0f;
    bodies.push_back(ball);

    ContactList contacts;
    Contact c;
    c.a = 1;
    c.b = 0;
    c.pos = {0.0f, 0.0f, 0.0f};
    c.normal = {0.0f, -1.0f, 0.0f}; // from ball toward plane
    c.depth = 0.0f;
    contacts.push_back(c);

    std::vector<std::unique_ptr<Joint>> joints;
    Island island;
    island.bodies = {1};
    island.contactIndices = {0};
    SolverConfig config;
    IslandSolver solver(bodies, contacts, joints, island, config, 0.01f);
    EXPECT_EQ(solver.rowCount(), 3u); // normal + 2 friction
    solver.solve(0, nullptr);
    EXPECT_NEAR(bodies[1].linVel.y, 0.0f, 1e-4f);
    EXPECT_NEAR(bodies[1].linVel.x, 0.0f, 1e-5f);
}

TEST_F(SolverTest, FrictionImpulseBoundedByMuTimesNormal)
{
    // A box sliding fast on the ground: one step's tangential impulse
    // cannot exceed mu * normal impulse.
    World world;
    world.addBody(RigidBody::makeStatic(
        Shape::plane({0.0f, 1.0f, 0.0f}, 0.0f), {}));
    RigidBody box(Shape::box({0.3f, 0.3f, 0.3f}), 1.0f,
                  {0.0f, 0.292f, 0.0f}); // slightly penetrating
    box.linVel = {8.0f, 0.0f, 0.0f};
    box.friction = 0.4f;
    const BodyId id = world.addBody(box);
    const float before = world.body(id).linVel.x;
    world.step();
    // Normal impulse per step ~= m*g*dt (plus the Baumgarte push);
    // friction dv <= mu * normal dv with solver slack.
    const float dvx = before - world.body(id).linVel.x;
    EXPECT_GT(dvx, 0.0f);
    EXPECT_LT(dvx, 0.4f * 9.81f * 0.01f * 3.0f);
}

TEST_F(SolverTest, HingeLimitStopsThePendulum)
{
    // A hinge pendulum limited to +/-0.35 rad must not swing past the
    // stop (plus solver slack), while an unlimited one swings through.
    auto swingRange = [&](bool limited) {
        World world;
        const BodyId anchor = world.addBody(RigidBody::makeStatic(
            Shape::sphere(0.05f), {0.0f, 2.0f, 0.0f}));
        RigidBody bob(Shape::sphere(0.1f), 1.0f, {0.8f, 2.0f, 0.0f});
        const BodyId bob_id = world.addBody(bob);
        auto joint = std::make_unique<HingeJoint>(
            world.bodies(), anchor, bob_id, Vec3{0.0f, 2.0f, 0.0f},
            Vec3{0.0f, 0.0f, 1.0f});
        HingeJoint *hinge = joint.get();
        if (limited)
            hinge->setLimits(-0.35f, 0.35f);
        world.addJoint(std::move(joint));
        float max_angle = 0.0f;
        for (int i = 0; i < 300; ++i) {
            world.step();
            max_angle = std::max(
                max_angle, std::fabs(hinge->angle(world.bodies())));
        }
        return max_angle;
    };
    EXPECT_LT(swingRange(true), 0.55f);
    EXPECT_GT(swingRange(false), 1.0f);
}

TEST_F(SolverTest, HingeAngleMeasuresRotationAboutAxis)
{
    std::vector<RigidBody> bodies;
    bodies.push_back(RigidBody(Shape::box({0.2f, 0.2f, 0.2f}), 1.0f, {}));
    bodies.push_back(RigidBody(Shape::box({0.2f, 0.2f, 0.2f}), 1.0f,
                               {1.0f, 0.0f, 0.0f}));
    HingeJoint joint(bodies, 0, 1, {0.5f, 0.0f, 0.0f},
                     {0.0f, 0.0f, 1.0f});
    EXPECT_NEAR(joint.angle(bodies), 0.0f, 1e-6f);
    bodies[1].orient =
        hfpu::math::Quat::fromAxisAngle({0.0f, 0.0f, 1.0f}, 0.7f);
    bodies[1].updateDerived();
    EXPECT_NEAR(joint.angle(bodies), 0.7f, 1e-4f);
    bodies[1].orient =
        hfpu::math::Quat::fromAxisAngle({0.0f, 0.0f, 1.0f}, -1.2f);
    bodies[1].updateDerived();
    EXPECT_NEAR(joint.angle(bodies), -1.2f, 1e-4f);
}

TEST_F(SolverTest, BreakageAccumulatesRowImpulses)
{
    std::vector<RigidBody> bodies;
    bodies.push_back(RigidBody(Shape::sphere(0.2f), 1.0f, {}));
    bodies.push_back(RigidBody(Shape::sphere(0.2f), 1.0f,
                               {1.0f, 0.0f, 0.0f}));
    // Pull the bodies apart hard; the distance joint must resist with
    // a large accumulated impulse and then break.
    bodies[0].linVel = {-50.0f, 0.0f, 0.0f};
    bodies[1].linVel = {50.0f, 0.0f, 0.0f};
    std::vector<std::unique_ptr<Joint>> joints;
    auto dist = std::make_unique<DistanceJoint>(0, 1, 1.0f);
    dist->breakImpulse = 1.0f;
    Joint *handle = dist.get();
    joints.push_back(std::move(dist));
    ContactList contacts;
    Island island;
    island.bodies = {0, 1};
    island.jointIndices = {0};
    SolverConfig config;
    IslandSolver solver(bodies, contacts, joints, island, config, 0.01f);
    solver.solve(0, nullptr);
    EXPECT_TRUE(handle->broken());
}

TEST_F(SolverTest, JointRejectsOneBodyOnBothSides)
{
    // The lane kernel reads both sides of a row before writing either,
    // which matches the per-island order only for two distinct bodies.
    EXPECT_THROW(DistanceJoint(3, 3, 1.0f), std::invalid_argument);
    EXPECT_NO_THROW(DistanceJoint(2, 3, 1.0f));
}

TEST_F(SolverTest, GroupingSortsByRowsAndCutsAtHalfTheFirst)
{
    std::vector<int> order, starts;
    groupIslands({0, 12, 6, 5, 12, 0, 24}, order, starts);
    // Zero-row islands 0 and 5 join no group; 6 < 24 / 2 opens the
    // second group; equal counts keep island order.
    EXPECT_EQ(order, (std::vector<int>{6, 1, 4, 2, 3}));
    EXPECT_EQ(starts, (std::vector<int>{0, 3, 5}));
}

TEST_F(SolverTest, GroupingCapsGroupsAtEightIslands)
{
    std::vector<int> order, starts;
    groupIslands(std::vector<int>(10, 9), order, starts);
    EXPECT_EQ(starts, (std::vector<int>{0, kLaneGroupIslands, 10}));
    groupIslands({}, order, starts);
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(starts, (std::vector<int>{0}));
}

TEST_F(SolverTest, GroupingLeavesALoneBigIslandAlone)
{
    std::vector<int> order, starts;
    groupIslands({3, 30, 3}, order, starts);
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
    EXPECT_EQ(starts, (std::vector<int>{0, 1, 3}));
}

/**
 * One dynamic sphere per island, each touching one shared static body
 * through its own number of contacts (3 rows per contact). The static
 * body moves, so every lane must read its real velocity. The last
 * island's sphere falls infinitely fast, which turns its impulses to
 * NaN: had its lane (which stores last) written the static body's
 * slot, or a padding row written a body, the other islands would show
 * it.
 */
struct LaneFixture {
    std::vector<RigidBody> bodies;
    ContactList contacts;
    std::vector<std::unique_ptr<Joint>> joints;
    std::vector<Island> islands;
};

LaneFixture
makeLaneFixture(const std::vector<int> &contactsPerIsland)
{
    LaneFixture f;
    f.bodies.push_back(RigidBody::makeStatic(
        Shape::plane({0.0f, 1.0f, 0.0f}, 0.0f), {}));
    f.bodies[0].linVel = {0.25f, 0.0f, -0.5f};
    for (size_t i = 0; i < contactsPerIsland.size(); ++i) {
        const float x = 2.0f * static_cast<float>(i);
        RigidBody ball(Shape::sphere(0.5f), 1.0f + 0.1f * i,
                       {x, 0.49f, 0.0f});
        ball.linVel = {0.3f - 0.1f * i, -1.0f - 0.05f * i, 0.2f};
        ball.angVel = {0.1f * i, 0.5f, -0.3f};
        const BodyId id = static_cast<BodyId>(f.bodies.size());
        f.bodies.push_back(ball);
        Island island;
        island.bodies = {id};
        for (int c = 0; c < contactsPerIsland[i]; ++c) {
            Contact contact;
            contact.a = id;
            contact.b = 0;
            contact.pos = {x + 0.05f * c, 0.0f, 0.03f * c};
            contact.normal = Vec3{0.02f * c, -1.0f, 0.01f}.normalized();
            contact.depth = 0.004f * (c + 1);
            island.contactIndices.push_back(
                static_cast<int>(f.contacts.size()));
            f.contacts.push_back(contact);
        }
        f.islands.push_back(island);
    }
    f.bodies.back().linVel.y = -std::numeric_limits<float>::infinity();
    return f;
}

/** Bodies' velocities, row impulses and op counts of one solve. */
struct LaneOutcome {
    std::vector<uint32_t> bits;
    std::array<uint64_t, hfpu::fp::kNumOpcodes> ops{};
};

uint32_t
canonicalBits(float v)
{
    // NaN payloads are not part of the contract; their presence is.
    return std::isnan(v) ? 0x7fc00000u : hfpu::fp::floatBits(v);
}

LaneOutcome
outcome(const LaneFixture &f, const std::vector<SolverImpulse> &impulses)
{
    LaneOutcome out;
    for (const RigidBody &b : f.bodies) {
        for (float v : {b.linVel.x, b.linVel.y, b.linVel.z, b.angVel.x,
                        b.angVel.y, b.angVel.z})
            out.bits.push_back(canonicalBits(v));
    }
    for (const SolverImpulse &imp : impulses) {
        out.bits.push_back(static_cast<uint32_t>(imp.island));
        out.bits.push_back(static_cast<uint32_t>(imp.row));
        out.bits.push_back(static_cast<uint32_t>(imp.normalRow));
        out.bits.push_back(imp.contact ? 1u : 0u);
        out.bits.push_back(canonicalBits(imp.lambda));
        out.bits.push_back(canonicalBits(imp.mu));
    }
    const auto &ctx = hfpu::fp::PrecisionContext::current();
    for (int op = 0; op < hfpu::fp::kNumOpcodes; ++op)
        out.ops[op] = ctx.opCount(static_cast<hfpu::fp::Opcode>(op));
    return out;
}

/** IslandSolver::solve() on every island, in island order. */
LaneOutcome
solveEachIsland(LaneFixture f)
{
    hfpu::fp::PrecisionContext::current().resetCounts();
    std::vector<SolverImpulse> impulses;
    for (size_t i = 0; i < f.islands.size(); ++i) {
        IslandSolver solver(f.bodies, f.contacts, f.joints, f.islands[i],
                            SolverConfig{}, 0.01f);
        solver.solve(static_cast<int>(i), nullptr);
        for (size_t r = 0; r < solver.rows().size(); ++r) {
            const SolverRow &row = solver.rows()[r];
            impulses.push_back({static_cast<int>(i), static_cast<int>(r),
                                row.normalRow, r >= solver.jointRowCount(),
                                row.lambda, row.mu});
        }
    }
    return outcome(f, impulses);
}

/** The lane kernel on the same islands; returns its group count. */
LaneOutcome
solveInLanes(LaneFixture f, int *groups = nullptr)
{
    hfpu::fp::PrecisionContext::current().resetCounts();
    std::vector<std::vector<SolverImpulse>> captured(f.islands.size());
    LaneSolver lanes(f.bodies, f.contacts, f.joints, f.islands,
                     std::vector<bool>(f.islands.size(), true),
                     SolverConfig{}, 0.01f);
    for (int g = 0; g < lanes.groupCount(); ++g)
        lanes.solveGroup(g, &captured);
    if (groups != nullptr)
        *groups = lanes.groupCount();
    std::vector<SolverImpulse> impulses;
    for (const auto &island : captured)
        impulses.insert(impulses.end(), island.begin(), island.end());
    return outcome(f, impulses);
}

void
expectSameOutcome(const LaneOutcome &lanes, const LaneOutcome &each)
{
    ASSERT_EQ(lanes.bits.size(), each.bits.size());
    for (size_t i = 0; i < lanes.bits.size(); ++i)
        ASSERT_EQ(lanes.bits[i], each.bits[i]) << "word " << i;
    EXPECT_EQ(lanes.ops, each.ops);
}

TEST_F(SolverTest, LanesMatchPerIslandSolveWithPaddedRows)
{
    // 12, 9 and 6 rows in one group of seven: two SSE halves whose
    // shorter lanes run padding rows.
    const std::vector<int> contacts{4, 3, 2, 4, 3, 2, 4};
    int groups = 0;
    const LaneOutcome lanes =
        solveInLanes(makeLaneFixture(contacts), &groups);
    EXPECT_EQ(groups, 1);
    expectSameOutcome(lanes, solveEachIsland(makeLaneFixture(contacts)));
}

TEST_F(SolverTest, LanesNeverWriteASharedStaticBody)
{
    // Four SSE lanes share the static body; the NaN of the last one
    // must not reach the other three.
    int groups = 0;
    const LaneOutcome lanes =
        solveInLanes(makeLaneFixture({2, 2, 2, 2}), &groups);
    EXPECT_EQ(groups, 1);
    expectSameOutcome(lanes, solveEachIsland(makeLaneFixture({2, 2, 2, 2})));
    // Bodies 1-3 (islands 0-2) stayed finite.
    for (int c = 6; c < 24; ++c)
        EXPECT_NE(lanes.bits[c], 0x7fc00000u) << "component " << c;
}

TEST_F(SolverTest, LanesMatchPerIslandSolveForALoneBigIsland)
{
    // 24 rows alone in the scalar lane, then 6, 6 and 3 rows padded to
    // 6 in three SSE lanes.
    const std::vector<int> contacts{2, 8, 1, 2};
    int groups = 0;
    const LaneOutcome lanes =
        solveInLanes(makeLaneFixture(contacts), &groups);
    EXPECT_EQ(groups, 2);
    expectSameOutcome(lanes, solveEachIsland(makeLaneFixture(contacts)));
}

TEST_F(SolverTest, LanesSkipZeroRowIslands)
{
    // Islands 0 and 2 have no contacts: no group, no ops, no impulses,
    // bodies untouched; the rest share one padded group.
    const std::vector<int> contacts{0, 2, 0, 2, 1};
    int groups = 0;
    const LaneOutcome lanes =
        solveInLanes(makeLaneFixture(contacts), &groups);
    EXPECT_EQ(groups, 1);
    expectSameOutcome(lanes, solveEachIsland(makeLaneFixture(contacts)));
}

} // namespace
