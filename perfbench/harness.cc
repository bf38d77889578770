#include "harness.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "phys/world.h"
#include "scen/random.h"

namespace perfbench {

using hfpu::phys::RigidBody;
using hfpu::phys::Shape;
using hfpu::phys::Vec3;
using hfpu::phys::World;

namespace {

/** Steps before the first explosion, and between two explosions. */
constexpr int kFirstBoom = 8;
constexpr int kBoomPeriod = 12;
/** Distinct explosions in the schedule; it repeats after that. */
constexpr int kBooms = 64;

struct Boom {
    Vec3 center;
    float speed = 0.0f;
};

} // namespace

hfpu::scen::Scenario
makeDebrisField(uint64_t seed, int threads)
{
    hfpu::scen::SplitMix64 rng(seed);
    hfpu::phys::WorldConfig config;
    config.threads = threads;

    hfpu::scen::Scenario s;
    s.name = "Debris#" + std::to_string(seed);
    s.world = std::make_unique<World>(config);
    s.world->addBody(
        RigidBody::makeStatic(Shape::plane({0.0f, 1.0f, 0.0f}, 0.0f), {}));

    // Piles on a 3 x 2 grid, 3 m apart: far enough that one explosion
    // stirs one pile, close enough that debris from neighbours meets.
    Vec3 centers[kDebrisPiles];
    for (int p = 0; p < kDebrisPiles; ++p) {
        centers[p] = {(p % 3 - 1) * 3.0f + rng.uniform(-0.3f, 0.3f), 0.0f,
                      (p / 3 - 0.5f) * 3.0f + rng.uniform(-0.3f, 0.3f)};
        // A third of each pile is spheres, at seeded places: a box meets
        // its neighbours in more contact points than a sphere does, so a
        // fixed shape mix keeps the per-step cost about the same for
        // every seed.
        bool sphere[kDebrisPerPile] = {};
        std::fill(sphere, sphere + kDebrisPerPile / 3, true);
        for (int i = kDebrisPerPile - 1; i > 0; --i)
            std::swap(sphere[i], sphere[rng.below(i + 1)]);
        for (int i = 0; i < kDebrisPerPile; ++i) {
            const int column = i % 9;
            const int layer = i / 9;
            const Vec3 pos{
                centers[p].x + (column % 3 - 1) * 0.5f +
                    rng.uniform(-0.03f, 0.03f),
                0.25f + 0.5f * layer + rng.uniform(0.0f, 0.02f),
                centers[p].z + (column / 3 - 1) * 0.5f +
                    rng.uniform(-0.03f, 0.03f)};
            const float half = rng.uniform(0.18f, 0.23f);
            const float mass = rng.uniform(0.5f, 2.0f);
            const Shape shape = sphere[i]
                ? Shape::sphere(half)
                : Shape::box({half, half * rng.uniform(0.8f, 1.0f), half});
            s.world->addBody(RigidBody(shape, mass, pos));
        }
    }

    std::vector<Boom> booms(kBooms);
    for (Boom &boom : booms) {
        const Vec3 &c = centers[rng.below(kDebrisPiles)];
        boom.center = {c.x + rng.uniform(-0.4f, 0.4f), 0.1f,
                       c.z + rng.uniform(-0.4f, 0.4f)};
        boom.speed = rng.uniform(2.5f, 5.0f);
    }
    s.driver = [booms](World &world, int step) {
        if (step < kFirstBoom || (step - kFirstBoom) % kBoomPeriod != 0)
            return;
        const Boom &boom = booms[((step - kFirstBoom) / kBoomPeriod) % kBooms];
        world.applyExplosion(boom.center, boom.speed, 1.6f);
    };
    return s;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    const size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
    const double upper = samples[mid];
    if (samples.size() % 2 == 1)
        return upper;
    const double lower =
        *std::max_element(samples.begin(), samples.begin() + mid);
    return 0.5 * (lower + upper);
}

std::optional<double>
tailPercentile(std::vector<double> samples, double q, size_t minBeyond)
{
    const size_t n = samples.size();
    if (n == 0 || !(q > 0.0 && q < 1.0))
        return std::nullopt;
    // Nearest rank: the smallest sample with at least q * n samples at
    // or below it; everything after that rank lies beyond it.
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    if (n - rank < minBeyond)
        return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

} // namespace perfbench
