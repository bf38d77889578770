/**
 * @file
 * Bit-exactness of the two-tier FP dispatch: multi-step scenarios must
 * produce bit-identical trajectories and identical per-opcode dynamic
 * op counts whether scalar ops take the inline plain-mode fast path or
 * are routed through the out-of-line modeled slow path (the
 * setForceSlowPath escape hatch), and
 * whether the world steps serially or on a worker pool.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fp/precision.h"
#include "fp/types.h"
#include "scen/scenario.h"

namespace {

using namespace hfpu;

/** Trajectory snapshot plus dynamic-op statistics from one run. */
struct RunResult {
    std::vector<uint32_t> stateBits;
    std::array<uint64_t, fp::kNumOpcodes> opCounts{};
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

RunResult
runScenario(const std::string &name, int steps, bool forceSlow,
            int threads)
{
    auto &ctx = fp::PrecisionContext::current();
    ctx.reset();
    ctx.setForceSlowPath(forceSlow);
    ctx.resetCounts();

    scen::Scenario s = scen::makeScenario(name);
    s.world->setThreads(threads);
    s.run(steps);

    RunResult result;
    for (const auto &b : s.world->bodies())
        captureBody(b, &result.stateBits);
    for (int op = 0; op < fp::kNumOpcodes; ++op) {
        result.opCounts[op] =
            ctx.opCount(static_cast<fp::Opcode>(op));
    }
    ctx.reset();
    return result;
}

void
expectIdenticalState(const RunResult &a, const RunResult &b)
{
    ASSERT_EQ(a.stateBits.size(), b.stateBits.size());
    for (size_t i = 0; i < a.stateBits.size(); ++i)
        ASSERT_EQ(a.stateBits[i], b.stateBits[i]) << "component " << i;
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
