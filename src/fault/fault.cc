#include "fault/fault.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace hfpu {
namespace fault {

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

const char *const kKindNames[kNumFaultKinds] = {
    "bitflip", "nan", "inf", "throw",
};

/**
 * Each kind's key in the draw hash. 3 belonged to the deleted
 * table-corruption kind; skipping it keeps every remaining stream, and
 * so every recorded campaign, where it was.
 */
constexpr uint64_t kDrawKey[kNumFaultKinds] = {0, 1, 2, 4};

/** Strip leading/trailing spaces and tabs in place. */
std::string
trimmed(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    size_t e = s.find_last_not_of(" \t");
    if (b == std::string::npos)
        return "";
    return s.substr(b, e - b + 1);
}

bool
parseU64(const std::string &s, uint64_t *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end == s.c_str() || *end != '\0' || s[0] == '-')
        return false;
    *out = static_cast<uint64_t>(v);
    return true;
}

bool
parseLong(const std::string &s, long *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (errno != 0 || end == s.c_str() || *end != '\0')
        return false;
    *out = v;
    return true;
}

bool
parseRate(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end == s.c_str() || *end != '\0')
        return false;
    if (!(v >= 0.0 && v <= 1.0)) // also rejects NaN
        return false;
    *out = v;
    return true;
}

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/** Parse one key=value token into @p spec. */
bool
parseToken(const std::string &token, FaultSpec &spec, std::string *error)
{
    const size_t eq = token.find('=');
    if (eq == std::string::npos)
        return fail(error, "expected key=value, got '" + token + "'");
    const std::string key = trimmed(token.substr(0, eq));
    const std::string value = trimmed(token.substr(eq + 1));

    for (int k = 0; k < kNumFaultKinds; ++k) {
        if (key == kKindNames[k]) {
            if (!parseRate(value, &spec.rate[k])) {
                return fail(error, "bad rate for '" + key + "': '" +
                                       value + "' (want [0,1])");
            }
            return true;
        }
    }
    if (key == "seed") {
        if (!parseU64(value, &spec.seed))
            return fail(error, "bad seed: '" + value + "'");
        return true;
    }
    if (key == "steps") {
        const size_t dots = value.find("..");
        long a = 0, b = 0;
        if (dots == std::string::npos ||
            !parseLong(trimmed(value.substr(0, dots)), &a) ||
            !parseLong(trimmed(value.substr(dots + 2)), &b) || a < 0 ||
            b < a) {
            return fail(error, "bad steps window: '" + value +
                                   "' (want a..b with 0 <= a <= b)");
        }
        spec.firstStep = static_cast<int>(a);
        spec.lastStep = static_cast<int>(b);
        return true;
    }
    if (key == "max") {
        long v = 0;
        if (!parseLong(value, &v) || v < 0)
            return fail(error, "bad max: '" + value + "'");
        spec.maxInjections = v;
        return true;
    }
    return fail(error, "unknown fault-spec key: '" + key + "'");
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    return kKindNames[static_cast<int>(kind)];
}

bool
FaultSpec::anyEnabled() const
{
    for (double r : rate) {
        if (r > 0.0)
            return true;
    }
    return false;
}

bool
FaultSpec::scalarEnabled() const
{
    return rateOf(FaultKind::BitFlip) > 0.0 ||
        rateOf(FaultKind::MakeNaN) > 0.0 ||
        rateOf(FaultKind::MakeInf) > 0.0;
}

FaultSpec
FaultSpec::parse(const std::string &text, std::string *error)
{
    FaultSpec spec;
    if (error)
        error->clear();
    size_t pos = 0;
    while (pos <= text.size()) {
        const size_t sep = text.find_first_of(",;", pos);
        const size_t end = sep == std::string::npos ? text.size() : sep;
        const std::string token = trimmed(text.substr(pos, end - pos));
        if (!token.empty() && !parseToken(token, spec, error))
            return FaultSpec{}; // all rates zero: nothing armed
        if (sep == std::string::npos)
            break;
        pos = sep + 1;
    }
    return spec;
}

std::string
FaultSpec::describe() const
{
    char buf[64];
    std::string out = "seed=" + std::to_string(seed);
    for (int k = 0; k < kNumFaultKinds; ++k) {
        if (rate[k] <= 0.0)
            continue;
        std::snprintf(buf, sizeof buf, "%.17g", rate[k]);
        out += std::string(",") + kKindNames[k] + "=" + buf;
    }
    if (firstStep != 0 || lastStep != std::numeric_limits<int>::max()) {
        out += ",steps=" + std::to_string(firstStep) + ".." +
            std::to_string(lastStep);
    }
    if (maxInjections >= 0)
        out += ",max=" + std::to_string(maxInjections);
    return out;
}

InjectedFault::InjectedFault(int step, int island)
    : std::runtime_error("injected fault: solver island " +
                         std::to_string(island) + " failed at step " +
                         std::to_string(step)),
      step_(step), island_(island)
{
}

namespace {

/** The calling thread's armed injector (null = none). */
thread_local Injector *t_current = nullptr;

} // namespace

Injector::Injector(const FaultSpec &spec, uint64_t stream)
    : spec_(spec), streamSeed_(mixInto(spec.seed, stream)),
      scalarEnabled_(spec.scalarEnabled())
{
}

Injector::~Injector()
{
    // Safety net: never leave a dangling armed pointer behind.
    if (t_current == this)
        disarm();
}

void
Injector::arm()
{
    install(this);
}

void
Injector::disarm()
{
    install(nullptr);
}

Injector *
Injector::current()
{
    return t_current;
}

void
Injector::install(Injector *injector)
{
    t_current = injector;
    // The fp hook pushes every scalar op onto the slow path, so it is
    // only installed when a scalar-result kind can actually fire;
    // throw-only campaigns keep the inline fast path.
    fp::PrecisionContext::current().setFaultHook(
        injector != nullptr && injector->scalarEnabled_ ? injector
                                                        : nullptr);
}

void
Injector::beginStep(int step)
{
    const int last = lastBegunStep_.load(std::memory_order_relaxed);
    if (last != std::numeric_limits<int>::min() && step <= last) {
        // Rewind (re-execution or rollback): new epoch, fresh draws —
        // injected faults are transient, so retrying can succeed.
        epoch_.fetch_add(1, std::memory_order_relaxed);
    }
    lastBegunStep_.store(step, std::memory_order_relaxed);
    step_.store(step, std::memory_order_relaxed);
    // Per-step draw ordinals: the draw sequence of a step is a pure
    // function of (seed, stream, epoch, step), independent of how many
    // draws earlier steps consumed.
    for (auto &o : ordinal_)
        o.store(0, std::memory_order_relaxed);
}

bool
Injector::roll(FaultKind kind, uint64_t *payload)
{
    const int k = static_cast<int>(kind);
    const double rate = spec_.rate[k];
    if (rate <= 0.0)
        return false;
    const int step = step_.load(std::memory_order_relaxed);
    if (step < spec_.firstStep || step > spec_.lastStep)
        return false;
    if (spec_.maxInjections >= 0 &&
        totalInjected_.load(std::memory_order_relaxed) >=
            spec_.maxInjections)
        return false;
    const uint64_t ordinal =
        ordinal_[k].fetch_add(1, std::memory_order_relaxed);
    uint64_t h = streamSeed_;
    h = mixInto(h, static_cast<uint64_t>(
                       epoch_.load(std::memory_order_relaxed)));
    h = mixInto(h, static_cast<uint64_t>(step));
    h = mixInto(h, kDrawKey[k]);
    h = mixInto(h, ordinal);
    if (uniform01(h) >= rate)
        return false;
    totalInjected_.fetch_add(1, std::memory_order_relaxed);
    injected_[k].fetch_add(1, std::memory_order_relaxed);
    *payload = mix64(h);
    return true;
}

uint32_t
Injector::mutateScalarResult(fp::Opcode op, uint32_t resultBits)
{
    (void)op;
    uint64_t payload;
    const uint32_t sign = resultBits & 0x80000000u;
    if (roll(FaultKind::MakeNaN, &payload))
        return sign | 0x7fc00000u; // quiet NaN
    if (roll(FaultKind::MakeInf, &payload))
        return sign | 0x7f800000u;
    if (roll(FaultKind::BitFlip, &payload))
        return resultBits ^ (1u << (payload % fp::kFullMantissaBits));
    return resultBits;
}

void
Injector::maybeThrowIsland(int island)
{
    uint64_t payload;
    if (roll(FaultKind::IslandThrow, &payload)) {
        throw InjectedFault(step_.load(std::memory_order_relaxed),
                            island);
    }
}

FaultStats
Injector::stats() const
{
    FaultStats s;
    for (int k = 0; k < kNumFaultKinds; ++k)
        s.injected[k] = injected_[k].load(std::memory_order_relaxed);
    return s;
}

} // namespace fault
} // namespace hfpu
