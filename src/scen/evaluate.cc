#include "scen/evaluate.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>

#include "fp/precision.h"
#include "scen/scenario.h"

namespace hfpu {
namespace scen {

namespace {

/** Result of a run plus its early-horizon trajectory fingerprint. */
struct RunResult {
    BelievabilityResult result;
    /** Per-step body positions within the deviation window. */
    std::vector<std::vector<phys::Vec3>> trajectory;
    /** Per-step kinetic+rotational energy within the window. */
    std::vector<double> kinetic;
    /** Per-step center of mass of dynamic bodies within the window. */
    std::vector<phys::Vec3> com;
};

/** Run a scenario at the given per-phase widths. */
RunResult
runOnce(const std::string &scenario_name, int narrow_bits, int lcp_bits,
        fp::RoundingMode mode, const EvalConfig &config)
{
    auto &ctx = fp::PrecisionContext::current();
    ctx.reset();
    ctx.setRoundingMode(mode);
    ctx.setMantissaBits(fp::Phase::Narrow, narrow_bits);
    ctx.setMantissaBits(fp::Phase::Lcp, lcp_bits);

    Scenario scenario = makeScenario(scenario_name);
    RunResult run;
    BelievabilityResult &result = run.result;
    double prev_energy = scenario.world->computeCurrentEnergy().total();
    for (int i = 0; i < config.steps; ++i) {
        scenario.step();
        if (!scenario.world->stateFinite()) {
            result.finite = false;
            break;
        }
        const double energy = scenario.world->lastEnergy().total();
        const double injected = scenario.world->lastInjectedEnergy();
        const double floor_e = std::max(std::fabs(prev_energy), 1.0);
        const double gain = (energy - prev_energy - injected) / floor_e;
        result.maxNetGain = std::max(result.maxNetGain, gain);
        if (gain > config.energyThreshold)
            ++result.gainViolations;
        prev_energy = energy;
        if (i < config.deviationWindow) {
            std::vector<phys::Vec3> positions;
            positions.reserve(scenario.world->bodyCount());
            double mass = 0.0;
            double cx = 0.0, cy = 0.0, cz = 0.0;
            for (const auto &body : scenario.world->bodies()) {
                positions.push_back(body.pos);
                if (!body.isStatic()) {
                    mass += body.mass();
                    cx += body.mass() * body.pos.x;
                    cy += body.mass() * body.pos.y;
                    cz += body.mass() * body.pos.z;
                }
            }
            run.trajectory.push_back(std::move(positions));
            run.kinetic.push_back(scenario.world->lastEnergy().kinetic +
                                  scenario.world->lastEnergy().rotational);
            if (mass > 0.0) {
                run.com.push_back({static_cast<float>(cx / mass),
                                   static_cast<float>(cy / mass),
                                   static_cast<float>(cz / mass)});
            } else {
                run.com.push_back({});
            }
        }
    }
    result.finalEnergy = prev_energy;
    ctx.reset();
    return run;
}

/**
 * Normalized per-object trajectory deviation, judged at the 90th
 * percentile across objects: each object's worst deviation from the
 * reference is divided by its budget (an absolute floor for
 * near-stationary objects, a fraction of the reference path length
 * for moving ones — perceptual tolerance grows with motion). The
 * percentile makes the metric robust to single-object chaotic event
 * flips (a brick tumbling left instead of right is believable either
 * way); a return value <= 1 means at least 90% of objects stayed
 * within budget.
 */
double
trajectoryDeviationP90(const RunResult &run, const RunResult &ref,
                       const EvalConfig &config)
{
    const size_t steps = std::min(run.trajectory.size(),
                                  ref.trajectory.size());
    if (steps == 0)
        return 0.0;
    std::vector<double> path_len;
    std::vector<double> worst; // per-object normalized deviation
    for (size_t t = 0; t < steps; ++t) {
        const auto &pa = run.trajectory[t];
        const auto &pb = ref.trajectory[t];
        const size_t n = std::min(pa.size(), pb.size());
        if (path_len.size() < n) {
            path_len.resize(n, 0.0);
            worst.resize(n, 0.0);
        }
        for (size_t i = 0; i < n; ++i) {
            if (t > 0 && i < ref.trajectory[t - 1].size()) {
                const auto &prev = ref.trajectory[t - 1][i];
                const double sx = pb[i].x - prev.x;
                const double sy = pb[i].y - prev.y;
                const double sz = pb[i].z - prev.z;
                path_len[i] += std::sqrt(sx * sx + sy * sy + sz * sz);
            }
            const double dx = pa[i].x - pb[i].x;
            const double dy = pa[i].y - pb[i].y;
            const double dz = pa[i].z - pb[i].z;
            const double dev = std::sqrt(dx * dx + dy * dy + dz * dz);
            const double budget = std::max(
                config.deviationTolerance,
                config.relativeDeviationTolerance * path_len[i]);
            worst[i] = std::max(worst[i], dev / budget);
        }
    }
    if (worst.empty())
        return 0.0;
    std::sort(worst.begin(), worst.end());
    const size_t idx = static_cast<size_t>(0.9 * (worst.size() - 1));
    return worst[idx];
}

/**
 * Aggregate-statistics deviation: how far the run's kinetic-energy
 * trajectory and center of mass stray from the reference, normalized
 * so <= 1 passes. For violently chaotic scenes (a loose wall hit at
 * 60 m/s) individual debris trajectories flip at any precision while
 * the debris field as a whole — which is what a viewer perceives —
 * stays faithful; this is the [34]-style whole-scene check.
 */
double
aggregateDeviation(const RunResult &run, const RunResult &ref,
                   const EvalConfig &config)
{
    const size_t steps =
        std::min({run.kinetic.size(), ref.kinetic.size(),
                  run.com.size(), ref.com.size()});
    double worst = 0.0;
    double com_path = 0.0;
    for (size_t t = 0; t < steps; ++t) {
        // Kinetic-energy envelope: 35% relative with a 5 J floor.
        const double ke_budget = std::max(0.35 * ref.kinetic[t], 5.0);
        worst = std::max(
            worst, std::fabs(run.kinetic[t] - ref.kinetic[t]) / ke_budget);
        // Center-of-mass deviation relative to how far it traveled.
        if (t > 0) {
            const auto &p = ref.com[t];
            const auto &q = ref.com[t - 1];
            const double sx = p.x - q.x, sy = p.y - q.y, sz = p.z - q.z;
            com_path += std::sqrt(sx * sx + sy * sy + sz * sz);
        }
        const double dx = run.com[t].x - ref.com[t].x;
        const double dy = run.com[t].y - ref.com[t].y;
        const double dz = run.com[t].z - ref.com[t].z;
        const double com_budget = std::max(
            config.deviationTolerance,
            config.relativeDeviationTolerance * com_path);
        worst = std::max(
            worst, std::sqrt(dx * dx + dy * dy + dz * dz) / com_budget);
    }
    return worst;
}

} // namespace

BelievabilityResult
evaluateBelievability(const std::string &scenario, ReducedPhases phases,
                      int narrow_bits, int lcp_bits,
                      fp::RoundingMode mode, const EvalConfig &config)
{
    const int nb =
        phases == ReducedPhases::LcpOnly ? fp::kFullMantissaBits
                                         : narrow_bits;
    const int lb =
        phases == ReducedPhases::NarrowOnly ? fp::kFullMantissaBits
                                            : lcp_bits;

    // Reference run at full precision (the rounding mode is moot at 23
    // bits). Cached: sweeps re-evaluate the same scenario many times.
    // The key holds every EvalConfig field runOnce() reads, so a
    // reference recorded for a shorter window never serves a longer
    // one. Map nodes are stable, so the reference outlives the lock.
    using Key = std::tuple<std::string, int, double, int>;
    static std::mutex cache_mutex;
    static std::map<Key, RunResult> reference_cache;
    const Key key{scenario, config.steps, config.energyThreshold,
                  config.deviationWindow};
    const RunResult *cached = nullptr;
    {
        std::lock_guard<std::mutex> lock(cache_mutex);
        auto it = reference_cache.find(key);
        if (it != reference_cache.end())
            cached = &it->second;
    }
    if (cached == nullptr) {
        RunResult fresh = runOnce(scenario, fp::kFullMantissaBits,
                                  fp::kFullMantissaBits, mode, config);
        std::lock_guard<std::mutex> lock(cache_mutex);
        cached = &reference_cache.emplace(key, std::move(fresh))
                      .first->second;
    }
    const RunResult &reference = *cached;
    RunResult run = runOnce(scenario, nb, lb, mode, config);
    BelievabilityResult result = run.result;
    result.referenceFinalEnergy = reference.result.finalEnergy;
    // A run passes the reference comparison if the typical object
    // tracks its reference trajectory OR the scene's aggregate motion
    // statistics track (chaotic scatter scenes).
    result.maxDeviation =
        std::min(trajectoryDeviationP90(run, reference, config),
                 aggregateDeviation(run, reference, config));

    result.believable = result.finite && result.gainViolations == 0 &&
        result.maxDeviation <= 1.0;
    return result;
}

int
minimumPrecision(const std::string &scenario, ReducedPhases phases,
                 fp::RoundingMode mode, int fixed_bits,
                 const EvalConfig &config)
{
    auto believable_at = [&](int bits) {
        int narrow = fp::kFullMantissaBits;
        int lcp = fp::kFullMantissaBits;
        switch (phases) {
          case ReducedPhases::LcpOnly:
            lcp = bits;
            break;
          case ReducedPhases::NarrowOnly:
            narrow = bits;
            break;
          case ReducedPhases::Both:
            // Co-tuning (Table 1 parentheses): search the narrow-phase
            // width while LCP runs at its own, already-found minimum.
            narrow = bits;
            lcp = fixed_bits;
            break;
        }
        return evaluateBelievability(scenario, ReducedPhases::Both,
                                     narrow, lcp, mode, config)
            .believable;
    };

    // Binary search for the believability boundary (error injection
    // shrinks monotonically with width; rare non-monotone blips land
    // on a conservative boundary).
    if (!believable_at(fp::kFullMantissaBits))
        return fp::kFullMantissaBits + 1;
    int lo = 1, hi = fp::kFullMantissaBits; // hi is always believable
    while (lo < hi) {
        const int mid = (lo + hi) / 2;
        if (believable_at(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return hi;
}

} // namespace scen
} // namespace hfpu
