#ifndef HFPU_PHYS_CLOCK_H
#define HFPU_PHYS_CLOCK_H

/**
 * @file
 * Time source abstraction for every latency-sensitive decision in the
 * stack: the batch scheduler's per-step/per-world deadline budgets read
 * time through a Clock, never through std::chrono directly. Two
 * implementations:
 *
 *  - SteadyClock: the monotonic wall clock, for production service
 *    runs where deadlines mean real milliseconds.
 *  - VirtualClock: a deterministic simulated clock whose per-step cost
 *    is a pure function of (seed, stream, step) through the same
 *    splitmix64-style mixer the fault injector uses. Under a virtual
 *    clock, "time" advances only when the simulation charges it, so
 *    every overload behavior — deadline misses, degradation ladder
 *    transitions, DeadlineExceeded quarantines — replays bitwise from
 *    the seed regardless of machine load or thread count.
 *
 * The determinism contract of the overload layer rests on one rule:
 * decisions are driven by *per-stream accounting* (the sum of a
 * world's own stepEnd() charges). The API enforces it: a Clock has no
 * global reading to compare across worlds, and a VirtualClock holds no
 * shared state at all — its charge is a pure function of
 * (seed, stream, step).
 */

#include <cstdint>
#include <functional>

namespace hfpu {
namespace phys {

/** Abstract monotonic time source. Durations are in microseconds. */
class Clock
{
  public:
    virtual ~Clock() = default;

    /**
     * Begin timing one world step; pass the returned token to
     * stepEnd(). Steady clocks return the current steady time;
     * virtual clocks need no token and return 0.
     */
    virtual int64_t stepBegin() = 0;

    /**
     * Cost, in microseconds, of the step begun at @p token. Steady
     * clocks return measured wall time; virtual clocks return the
     * deterministic cost of (stream, step) — independent of which
     * thread ran it or what else was running.
     *
     * @param stream per-world stream key (the batch scheduler passes
     *               the world's global batch index)
     * @param step   the world step that was simulated
     */
    virtual int64_t stepEnd(uint64_t stream, int step, int64_t token) = 0;

    /** Process-wide steady clock (the default everywhere). */
    static Clock &steady();
};

/** Monotonic wall clock backed by std::chrono::steady_clock. */
class SteadyClock final : public Clock
{
  public:
    int64_t stepBegin() override;
    int64_t stepEnd(uint64_t stream, int step, int64_t token) override;
};

/**
 * Deterministic simulated clock with no state shared between worlds.
 * stepEnd() charges a step's cost,
 *
 *   cost(stream, step) = base * (1 + jitter * u)   u in [-1, 1)
 *
 * where u is a splitmix64 mix of (seed, stream, step) — so replicas
 * get distinct but replayable load shapes, and a saturation campaign
 * produces the same mix of on-time, degraded, and quarantined worlds
 * on every run and every thread count. Tests can override the cost
 * model wholesale with setCostModel().
 */
class VirtualClock final : public Clock
{
  public:
    /**
     * @param stepCostMicros base cost charged per world step (>= 0)
     * @param seed           jitter stream seed
     * @param jitterFrac     relative cost spread in [0, 1]; 0 = every
     *                       step costs exactly the base
     */
    explicit VirtualClock(int64_t stepCostMicros = 1000,
                          uint64_t seed = 1, double jitterFrac = 0.0);

    int64_t stepBegin() override { return 0; }
    int64_t stepEnd(uint64_t stream, int step, int64_t token) override;

    /**
     * Deterministic cost of one (stream, step) under the configured
     * model — what stepEnd() charges.
     */
    int64_t stepCost(uint64_t stream, int step) const;

    /**
     * Replace the cost model (e.g. "stream 3 is pathologically slow
     * after step 40"). Must be set before the clock is shared with a
     * running scheduler; the function must be pure.
     */
    void setCostModel(std::function<int64_t(uint64_t stream, int step)> fn)
    {
        model_ = std::move(fn);
    }

  private:
    int64_t base_;
    uint64_t seed_;
    double jitter_;
    std::function<int64_t(uint64_t, int)> model_;
};

} // namespace phys
} // namespace hfpu

#endif // HFPU_PHYS_CLOCK_H
