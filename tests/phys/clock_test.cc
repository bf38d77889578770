/**
 * @file
 * Clock abstraction tests: the steady clock charges elapsed wall time,
 * and the virtual clock — the determinism backbone of the overload
 * ladder — charges per-(stream, step) costs that are a pure function
 * of the seed, independent of call order, thread count, or wall time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "phys/clock.h"

using namespace hfpu;

TEST(SteadyClockTest, StepChargeMeasuresElapsedTime)
{
    phys::Clock &clock = phys::Clock::steady();
    const int64_t token = clock.stepBegin();
    std::this_thread::sleep_for(std::chrono::microseconds(1500));
    const int64_t cost = clock.stepEnd(/*stream=*/0, /*step=*/0, token);
    EXPECT_GE(cost, 1500);
}

TEST(VirtualClockTest, ZeroJitterChargesExactlyBase)
{
    phys::VirtualClock clock(700, /*seed=*/1, /*jitterFrac=*/0.0);
    for (int step = 0; step < 10; ++step)
        EXPECT_EQ(clock.stepCost(/*stream=*/3, step), 700);
}

TEST(VirtualClockTest, JitterBoundedAndSeedDeterministic)
{
    phys::VirtualClock a(1000, /*seed=*/42, /*jitterFrac=*/0.5);
    phys::VirtualClock b(1000, /*seed=*/42, /*jitterFrac=*/0.5);
    phys::VirtualClock c(1000, /*seed=*/43, /*jitterFrac=*/0.5);
    bool anyDiffersFromOtherSeed = false;
    for (uint64_t stream = 0; stream < 4; ++stream) {
        for (int step = 0; step < 64; ++step) {
            const int64_t cost = a.stepCost(stream, step);
            // Jitter is symmetric: base * (1 +/- jitterFrac).
            EXPECT_GE(cost, 500);
            EXPECT_LE(cost, 1500);
            // Same seed: identical. Different seed: a different shape.
            EXPECT_EQ(cost, b.stepCost(stream, step));
            anyDiffersFromOtherSeed |= cost != c.stepCost(stream, step);
        }
    }
    EXPECT_TRUE(anyDiffersFromOtherSeed);
}

TEST(VirtualClockTest, CostIsPureFunctionNotCallOrder)
{
    phys::VirtualClock clock(500, /*seed=*/7, /*jitterFrac=*/0.3);
    // Query in one order, charge in another: identical values.
    std::vector<int64_t> expected;
    for (int step = 9; step >= 0; --step)
        expected.push_back(clock.stepCost(/*stream=*/1, step));
    std::reverse(expected.begin(), expected.end());
    for (int step = 0; step < 10; ++step) {
        const int64_t token = clock.stepBegin();
        EXPECT_EQ(clock.stepEnd(/*stream=*/1, step, token),
                  expected[static_cast<size_t>(step)]);
    }
}

TEST(VirtualClockTest, CostModelOverridesJitter)
{
    phys::VirtualClock clock(1000, /*seed=*/9, /*jitterFrac=*/0.5);
    clock.setCostModel([](uint64_t stream, int step) {
        return stream == 2 && step >= 5 ? 9000 : 100;
    });
    EXPECT_EQ(clock.stepCost(0, 50), 100);
    EXPECT_EQ(clock.stepCost(2, 4), 100);
    EXPECT_EQ(clock.stepCost(2, 5), 9000);
}
