/**
 * @file
 * Self-test of the benchmark's own pieces (harness.h): the world_step
 * world is a pure function of its seed, its threaded run matches the
 * serial one (the check every world_step run makes), and the
 * tail-percentile rule. Exits 1 after reporting every failed check.
 * perfbench/test_perfbench.py runs it.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <vector>

#include "fp/types.h"
#include "harness.h"
#include "phys/world.h"
#include "srv/statehash.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                         \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,     \
                         __LINE__, #cond);                                  \
            ++g_failures;                                                   \
        }                                                                   \
    } while (0)

using hfpu::srv::stateHash;
using perfbench::makeDebrisField;
using perfbench::tailPercentile;

/**
 * Hash of what a world is built from (shapes, masses) on top of its
 * dynamic state (stateHash: poses, velocities, sleep state).
 */
uint64_t
buildHash(const hfpu::phys::World &world)
{
    hfpu::srv::Fnv1a h;
    for (const hfpu::phys::RigidBody &b : world.bodies()) {
        const hfpu::phys::Shape &s = b.shape();
        h.mix(static_cast<uint64_t>(s.type));
        for (float v : {s.radius, s.halfLength, s.halfExtents.x,
                        s.halfExtents.y, s.halfExtents.z, s.offset,
                        b.mass()})
            h.mix32(hfpu::fp::floatBits(v));
    }
    h.mix(stateHash(world));
    return h.value();
}

void
sameSeedBuildsTheSameWorld()
{
    hfpu::scen::Scenario a = makeDebrisField(7, 1);
    hfpu::scen::Scenario b = makeDebrisField(7, 1);
    CHECK(a.world->bodyCount() ==
          1 + perfbench::kDebrisPiles * perfbench::kDebrisPerPile);
    CHECK(buildHash(*a.world) == buildHash(*b.world));
    // The explosion schedule is part of the world: step past several.
    a.run(40);
    b.run(40);
    CHECK(stateHash(*a.world) == stateHash(*b.world));
}

void
otherSeedBuildsAnotherWorld()
{
    hfpu::scen::Scenario a = makeDebrisField(7, 1);
    hfpu::scen::Scenario b = makeDebrisField(8, 1);
    CHECK(a.world->bodyCount() == b.world->bodyCount());
    CHECK(buildHash(*a.world) != buildHash(*b.world));
}

void
threadedWorldMatchesSerial()
{
    hfpu::scen::Scenario serial = makeDebrisField(7, 1);
    hfpu::scen::Scenario threaded = makeDebrisField(7, 4);
    for (int k = 0; k < 30; ++k) {
        serial.step();
        threaded.step();
    }
    CHECK(stateHash(*serial.world) == stateHash(*threaded.world));
}

std::vector<double>
shuffledOneTo(int n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    std::shuffle(v.begin(), v.end(), std::mt19937(12345));
    return v;
}

void
p99NeedsTenSamplesBeyondIt()
{
    // 1000 samples: p99 is the 990th; 991..1000 are the ten beyond it.
    const auto p1000 = tailPercentile(shuffledOneTo(1000), 0.99);
    CHECK(p1000.has_value() && *p1000 == 990.0);
    // 999 samples: the 990th leaves only nine beyond it.
    CHECK(!tailPercentile(shuffledOneTo(999), 0.99).has_value());
    const auto nine = tailPercentile(shuffledOneTo(999), 0.99, 9);
    CHECK(nine.has_value() && *nine == 990.0);
    const auto p2000 = tailPercentile(shuffledOneTo(2000), 0.99);
    CHECK(p2000.has_value() && *p2000 == 1980.0);
    // Ties: the value at the rank, whatever its neighbours are.
    CHECK(tailPercentile(std::vector<double>(1000, 2.5), 0.99) == 2.5);
    CHECK(!tailPercentile({}, 0.99).has_value());
}

void
medianOfOddAndEvenCounts()
{
    CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(perfbench::median({4.0, 1.0, 3.0, 2.0}) == 2.5);
    CHECK(perfbench::median({}) == 0.0);
}

} // namespace

int
main()
{
    sameSeedBuildsTheSameWorld();
    otherSeedBuildsAnotherWorld();
    threadedWorldMatchesSerial();
    p99NeedsTenSamplesBeyondIt();
    medianOfOddAndEvenCounts();
    if (g_failures != 0) {
        std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n",
                     g_failures);
        return 1;
    }
    std::printf("perfbench selftest: ok\n");
    return 0;
}
