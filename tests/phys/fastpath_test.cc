/**
 * @file
 * Bit-exactness of the two-tier FP dispatch: multi-step scenarios must
 * produce bit-identical trajectories and identical per-opcode dynamic
 * op counts whether scalar ops take the inline plain-mode fast path or
 * are routed through the out-of-line modeled slow path (the
 * setForceSlowPath escape hatch), and
 * whether the world steps serially or on a worker pool. The fast path
 * includes the LCP lane kernel (phys::LaneSolver), and the forced slow
 * path the per-island IslandSolver, so these runs are also the
 * kernel's differential tests: equal bodies, op counts and impulses.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fp/precision.h"
#include "fp/types.h"
#include "scen/random.h"
#include "scen/scenario.h"

namespace {

using namespace hfpu;

/** Trajectory snapshot plus dynamic-op statistics from one run. */
struct RunResult {
    std::vector<uint32_t> stateBits;
    std::array<uint64_t, fp::kNumOpcodes> opCounts{};
    /** Every step's captured impulses, flattened field by field. */
    std::vector<uint32_t> impulseBits;
    size_t maxIslands = 0;
};

void
captureBody(const phys::RigidBody &b, std::vector<uint32_t> *out)
{
    for (float v : {b.pos.x, b.pos.y, b.pos.z, b.linVel.x, b.linVel.y,
                    b.linVel.z, b.angVel.x, b.angVel.y, b.angVel.z,
                    b.orient.w, b.orient.x, b.orient.y, b.orient.z}) {
        out->push_back(fp::floatBits(v));
    }
}

/**
 * A seeded debris field after perfbench's: six piles of 36 boxes and
 * spheres on a static ground, one explosion every 12 steps, which
 * scatters them into many islands of every size.
 */
scen::Scenario
makeDebris(uint64_t seed)
{
    scen::SplitMix64 rng(seed);
    scen::Scenario s;
    s.name = "Debris";
    s.world = std::make_unique<phys::World>();
    s.world->addBody(phys::RigidBody::makeStatic(
        phys::Shape::plane({0.0f, 1.0f, 0.0f}, 0.0f), {}));
    std::vector<phys::Vec3> centers;
    for (int p = 0; p < 6; ++p) {
        const phys::Vec3 c{(p % 3 - 1) * 3.0f + rng.uniform(-0.3f, 0.3f),
                           0.0f,
                           (p / 3 - 0.5f) * 3.0f + rng.uniform(-0.3f, 0.3f)};
        centers.push_back(c);
        for (int i = 0; i < 36; ++i) {
            const int column = i % 9;
            const phys::Vec3 pos{
                c.x + (column % 3 - 1) * 0.5f + rng.uniform(-0.03f, 0.03f),
                0.25f + 0.5f * (i / 9) + rng.uniform(0.0f, 0.02f),
                c.z + (column / 3 - 1) * 0.5f + rng.uniform(-0.03f, 0.03f)};
            const float half = rng.uniform(0.18f, 0.23f);
            const float mass = rng.uniform(0.5f, 2.0f);
            const phys::Shape shape = rng.below(3) == 0
                ? phys::Shape::sphere(half)
                : phys::Shape::box({half, half * rng.uniform(0.8f, 1.0f),
                                    half});
            s.world->addBody(phys::RigidBody(shape, mass, pos));
        }
    }
    std::vector<std::pair<phys::Vec3, float>> booms;
    for (int b = 0; b < 8; ++b) {
        const phys::Vec3 &c = centers[rng.below(centers.size())];
        booms.push_back({{c.x + rng.uniform(-0.4f, 0.4f), 0.1f,
                          c.z + rng.uniform(-0.4f, 0.4f)},
                         rng.uniform(2.5f, 5.0f)});
    }
    s.driver = [booms](phys::World &world, int step) {
        if (step >= 8 && (step - 8) % 12 == 0) {
            const auto &boom = booms[((step - 8) / 12) % booms.size()];
            world.applyExplosion(boom.first, boom.second, 1.6f);
        }
    };
    return s;
}

void
captureImpulses(const phys::World &world, RunResult *out)
{
    for (const phys::SolverImpulse &imp : world.lastImpulses()) {
        for (uint32_t v : {static_cast<uint32_t>(imp.island),
                           static_cast<uint32_t>(imp.row),
                           static_cast<uint32_t>(imp.normalRow),
                           static_cast<uint32_t>(imp.contact),
                           fp::floatBits(imp.lambda), fp::floatBits(imp.mu)})
            out->impulseBits.push_back(v);
    }
}

RunResult
runWorld(scen::Scenario s, int steps, bool forceSlow, int threads)
{
    auto &ctx = fp::PrecisionContext::current();
    ctx.reset();
    ctx.setForceSlowPath(forceSlow);
    ctx.resetCounts();

    RunResult result;
    s.world->setThreads(threads);
    s.world->setCaptureImpulses(true);
    for (int i = 0; i < steps; ++i) {
        s.step();
        captureImpulses(*s.world, &result);
        result.maxIslands =
            std::max(result.maxIslands, s.world->lastIslands().size());
    }

    for (const auto &b : s.world->bodies())
        captureBody(b, &result.stateBits);
    for (int op = 0; op < fp::kNumOpcodes; ++op) {
        result.opCounts[op] =
            ctx.opCount(static_cast<fp::Opcode>(op));
    }
    ctx.reset();
    return result;
}

RunResult
runScenario(const std::string &name, int steps, bool forceSlow,
            int threads)
{
    return runWorld(scen::makeScenario(name), steps, forceSlow, threads);
}

void
expectIdenticalState(const RunResult &a, const RunResult &b)
{
    ASSERT_EQ(a.stateBits.size(), b.stateBits.size());
    for (size_t i = 0; i < a.stateBits.size(); ++i)
        ASSERT_EQ(a.stateBits[i], b.stateBits[i]) << "component " << i;
    ASSERT_EQ(a.impulseBits.size(), b.impulseBits.size());
    for (size_t i = 0; i < a.impulseBits.size(); ++i)
        ASSERT_EQ(a.impulseBits[i], b.impulseBits[i]) << "impulse word " << i;
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    expectIdenticalState(a, b);
    // Op counts live in the submitting thread's context, so they are
    // only comparable between runs with the same thread count (worker
    // ops land in worker-local counters).
    for (int op = 0; op < fp::kNumOpcodes; ++op)
        EXPECT_EQ(a.opCounts[op], b.opCounts[op])
            << "opcode " << op;
}

TEST(FastPath, BitExactVsForcedSlowOnBreakable)
{
    const auto fast = runScenario("Breakable", 90, false, 1);
    const auto slow = runScenario("Breakable", 90, true, 1);
    EXPECT_GT(fast.opCounts[static_cast<int>(fp::Opcode::Add)], 1000u);
    expectIdentical(fast, slow);
}

TEST(FastPath, BitExactVsForcedSlowOnExplosions)
{
    const auto fast = runScenario("Explosions", 90, false, 1);
    const auto slow = runScenario("Explosions", 90, true, 1);
    expectIdentical(fast, slow);
}

TEST(FastPath, BitExactAcrossThreadCountsOnBreakable)
{
    const auto serial = runScenario("Breakable", 90, false, 1);
    const auto threaded = runScenario("Breakable", 90, false, 4);
    expectIdenticalState(serial, threaded);
}

TEST(FastPath, BitExactAcrossThreadCountsOnExplosions)
{
    const auto serial = runScenario("Explosions", 90, false, 1);
    const auto threaded = runScenario("Explosions", 90, false, 4);
    expectIdenticalState(serial, threaded);
}

TEST(FastPath, ThreadedForcedSlowMatchesSerialFast)
{
    // Cross product of both escape hatches at once.
    const auto fast = runScenario("Breakable", 60, false, 1);
    const auto slow = runScenario("Breakable", 60, true, 4);
    expectIdenticalState(fast, slow);
}

TEST(FastPath, LaneKernelMatchesModeledOnDebrisField)
{
    const auto lanes = runWorld(makeDebris(7), 60, false, 1);
    const auto modeled = runWorld(makeDebris(7), 60, true, 1);
    EXPECT_GE(lanes.maxIslands, 50u);
    EXPECT_FALSE(lanes.impulseBits.empty());
    expectIdentical(lanes, modeled);
}

TEST(FastPath, LaneKernelMatchesModeledOnEverything)
{
    // One big island: a group of one, the kernel's scalar lanes.
    const auto lanes = runScenario("Everything", 60, false, 1);
    const auto modeled = runScenario("Everything", 60, true, 1);
    expectIdentical(lanes, modeled);
}

TEST(FastPath, LaneKernelMatchesModeledOnRagdoll)
{
    // Joint rows: breakage feed and joint-row impulses per island.
    const auto lanes = runScenario("Ragdoll", 90, false, 1);
    const auto modeled = runScenario("Ragdoll", 90, true, 1);
    expectIdentical(lanes, modeled);
}

TEST(FastPath, LaneKernelMatchesAcrossThreadCountsOnDebrisField)
{
    const auto serial = runWorld(makeDebris(11), 60, false, 1);
    const auto threaded = runWorld(makeDebris(11), 60, false, 4);
    expectIdenticalState(serial, threaded);
}

TEST(FastPath, ForceFlagRestoredByReset)
{
    auto &ctx = fp::PrecisionContext::current();
    ctx.reset();
    ctx.setForceSlowPath(true);
    EXPECT_TRUE(ctx.forceSlowPath());
    EXPECT_FALSE(ctx.plainMode());
    ctx.reset();
    EXPECT_FALSE(ctx.forceSlowPath());
    EXPECT_TRUE(ctx.plainMode());
}

} // namespace
