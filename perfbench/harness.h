#ifndef HFPU_PERFBENCH_HARNESS_H
#define HFPU_PERFBENCH_HARNESS_H

/**
 * @file
 * The parts of the repository benchmark that its self-test checks as
 * well as the benchmark itself: the seeded world_step debris field and
 * the sample statistics, including the tail-percentile rule.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "scen/scenario.h"

namespace perfbench {

/** Piles in the world_step debris field. */
constexpr int kDebrisPiles = 6;
/** Bodies per pile: 3 x 3 columns, 4 layers high. */
constexpr int kDebrisPerPile = 36;

/**
 * Build the world_step world for @p seed through the public phys API: a
 * ground plane and kDebrisPiles piles of boxes and spheres (216 bodies),
 * with a seeded explosion at one of the piles every few steps so the
 * field never settles to sleep and the per-step cost stays steady. A
 * third of each pile is spheres, the rest boxes. Sizes, masses, which
 * bodies are spheres, jitter and the explosion schedule come from the
 * seed; the same seed always builds the bit-identical world.
 *
 * @param threads WorldConfig::threads of the world (1 = serial).
 */
hfpu::scen::Scenario makeDebrisField(uint64_t seed, int threads);

/** Median (mean of the middle two for an even count); 0 when empty. */
double median(std::vector<double> samples);

/**
 * Nearest-rank @p q quantile of @p samples, but only when at least
 * @p minBeyond samples lie above its rank; std::nullopt otherwise. With
 * q = 0.99 and the default this needs 1000 samples or more.
 */
std::optional<double> tailPercentile(std::vector<double> samples, double q,
                                     size_t minBeyond = 10);

} // namespace perfbench

#endif // HFPU_PERFBENCH_HARNESS_H
