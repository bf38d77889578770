#include "phys/clock.h"

#include <algorithm>
#include <chrono>

namespace hfpu {
namespace phys {

namespace {

/** splitmix64 finalizer: the project's standard bit mixer. */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Fold @p v into the running hash @p h (order-sensitive). */
uint64_t
mixInto(uint64_t h, uint64_t v)
{
    return mix64(h + 0x9e3779b97f4a7c15ull + v);
}

/** Uniform double in [0, 1) from the top 53 bits. */
double
uniform01(uint64_t x)
{
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

} // namespace

Clock &
Clock::steady()
{
    static SteadyClock clock;
    return clock;
}

int64_t
SteadyClock::stepBegin()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
SteadyClock::stepEnd(uint64_t stream, int step, int64_t token)
{
    (void)stream;
    (void)step;
    return std::max<int64_t>(0, stepBegin() - token); // now - start
}

VirtualClock::VirtualClock(int64_t stepCostMicros, uint64_t seed,
                           double jitterFrac)
    : base_(std::max<int64_t>(0, stepCostMicros)), seed_(seed),
      jitter_(std::clamp(jitterFrac, 0.0, 1.0))
{
}

int64_t
VirtualClock::stepCost(uint64_t stream, int step) const
{
    if (model_)
        return std::max<int64_t>(0, model_(stream, step));
    if (jitter_ <= 0.0)
        return base_;
    uint64_t h = mix64(seed_);
    h = mixInto(h, stream);
    h = mixInto(h, static_cast<uint64_t>(static_cast<int64_t>(step)));
    const double u = uniform01(h) * 2.0 - 1.0; // [-1, 1)
    const double cost = static_cast<double>(base_) * (1.0 + jitter_ * u);
    return std::max<int64_t>(0, static_cast<int64_t>(cost));
}

int64_t
VirtualClock::stepEnd(uint64_t stream, int step, int64_t token)
{
    (void)token;
    return stepCost(stream, step);
}

} // namespace phys
} // namespace hfpu
