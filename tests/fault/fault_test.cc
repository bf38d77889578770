/**
 * @file
 * Unit tests for the deterministic fault-injection framework: spec
 * parsing and round-tripping, the per-kind fault behaviors, the
 * determinism/replay contract (same seed, same draws — bitwise), the
 * epoch mechanism that makes faults transient across rollbacks, and
 * the zero-cost/zero-effect guarantees when injection is disabled or
 * armed with all-zero rates.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "fp/precision.h"
#include "fp/types.h"

using namespace hfpu;
using fault::FaultKind;
using fault::FaultSpec;
using fault::Injector;

namespace {

/** Popcount for locating which bit a flip touched. */
int
bitsDiffering(uint32_t a, uint32_t b)
{
    uint32_t x = a ^ b;
    int n = 0;
    while (x) {
        n += static_cast<int>(x & 1u);
        x >>= 1;
    }
    return n;
}

FaultSpec
specWithRate(FaultKind kind, double rate, uint64_t seed = 9)
{
    FaultSpec spec;
    spec.seed = seed;
    spec.rate[static_cast<int>(kind)] = rate;
    return spec;
}

/** Drain @p n scalar draws and return the mutated results. */
std::vector<uint32_t>
drawScalars(Injector &inj, int n, uint32_t input = 0x40490fdb /* pi */)
{
    std::vector<uint32_t> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i)
        out.push_back(inj.mutateScalarResult(fp::Opcode::Add, input));
    return out;
}

} // namespace

TEST(FaultSpecParse, RoundTripsThroughDescribe)
{
    std::string error;
    const FaultSpec spec = FaultSpec::parse(
        "seed=7,bitflip=0.25,throw=0.5,steps=5..60,max=4", &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_DOUBLE_EQ(spec.rateOf(FaultKind::BitFlip), 0.25);
    EXPECT_DOUBLE_EQ(spec.rateOf(FaultKind::IslandThrow), 0.5);
    EXPECT_EQ(spec.firstStep, 5);
    EXPECT_EQ(spec.lastStep, 60);
    EXPECT_EQ(spec.maxInjections, 4);

    const FaultSpec again = FaultSpec::parse(spec.describe(), &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(again.seed, spec.seed);
    EXPECT_EQ(again.rate, spec.rate);
    EXPECT_EQ(again.firstStep, spec.firstStep);
    EXPECT_EQ(again.lastStep, spec.lastStep);
    EXPECT_EQ(again.maxInjections, spec.maxInjections);
}

TEST(FaultSpecParse, SemicolonSeparatorAndWhitespace)
{
    std::string error;
    const FaultSpec spec =
        FaultSpec::parse(" nan=1 ; inf=0.5 ", &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_DOUBLE_EQ(spec.rateOf(FaultKind::MakeNaN), 1.0);
    EXPECT_DOUBLE_EQ(spec.rateOf(FaultKind::MakeInf), 0.5);
    EXPECT_TRUE(spec.anyEnabled());
}

TEST(FaultSpecParse, RejectsBadInput)
{
    const char *bad[] = {
        "bogus=1",       // unknown key
        "bitflip",       // missing value
        "bitflip=2",     // rate out of [0,1]
        "bitflip=-0.5",  // negative rate
        "bitflip=x",     // non-numeric
        "seed=abc",      // non-numeric seed
        "steps=9",       // malformed window
        "steps=a..b",    // non-numeric window
    };
    for (const char *text : bad) {
        std::string error;
        const FaultSpec spec = FaultSpec::parse(text, &error);
        EXPECT_FALSE(error.empty()) << "accepted: " << text;
        EXPECT_FALSE(spec.anyEnabled()) << text;
    }
}

TEST(FaultSpecParse, RejectsStallKeys)
{
    // No kind stalls pool chunks: both keys are unknown, and the error
    // names the key.
    const std::pair<const char *, const char *> stallKeys[] = {
        {"stall=0.1", "'stall'"}, {"stall-us=5", "'stall-us'"}};
    for (const auto &[text, key] : stallKeys) {
        std::string error;
        const FaultSpec spec = FaultSpec::parse(text, &error);
        EXPECT_NE(error.find(key), std::string::npos) << text << ": " << error;
        EXPECT_FALSE(spec.anyEnabled()) << text;
    }
}

TEST(FaultSpecParse, RejectsTableKey)
{
    // No kind corrupts memo/LUT hits any more: table= is an unknown
    // key, and the error names it.
    std::string error;
    const FaultSpec spec = FaultSpec::parse("table=0.00005", &error);
    EXPECT_NE(error.find("'table'"), std::string::npos) << error;
    EXPECT_FALSE(spec.anyEnabled());
}

TEST(FaultSpecParse, EmptyMeansDisabled)
{
    std::string error;
    const FaultSpec spec = FaultSpec::parse("", &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_FALSE(spec.anyEnabled());
    EXPECT_FALSE(spec.scalarEnabled());
}

TEST(FaultSpecParse, KindClassification)
{
    EXPECT_TRUE(specWithRate(FaultKind::BitFlip, 0.1).scalarEnabled());
    EXPECT_TRUE(specWithRate(FaultKind::MakeNaN, 0.1).anyEnabled());
    EXPECT_TRUE(specWithRate(FaultKind::IslandThrow, 0.1).anyEnabled());
    EXPECT_FALSE(
        specWithRate(FaultKind::IslandThrow, 0.1).scalarEnabled());
}

TEST(FaultInjector, NaNAndInfPreserveSign)
{
    Injector nan(specWithRate(FaultKind::MakeNaN, 1.0));
    nan.beginStep(0);
    const uint32_t neg = fp::floatBits(-2.5f);
    const uint32_t mutated = nan.mutateScalarResult(fp::Opcode::Mul, neg);
    EXPECT_TRUE(std::isnan(fp::floatFromBits(mutated)));
    EXPECT_EQ(mutated >> 31, 1u);

    Injector inf(specWithRate(FaultKind::MakeInf, 1.0));
    inf.beginStep(0);
    const uint32_t pos = fp::floatBits(2.5f);
    const uint32_t blown = inf.mutateScalarResult(fp::Opcode::Mul, pos);
    EXPECT_TRUE(std::isinf(fp::floatFromBits(blown)));
    EXPECT_EQ(blown >> 31, 0u);
}

TEST(FaultInjector, BitFlipTouchesExactlyOneMantissaBit)
{
    Injector inj(specWithRate(FaultKind::BitFlip, 1.0));
    inj.beginStep(0);
    const uint32_t input = fp::floatBits(3.14159f);
    for (const uint32_t out : drawScalars(inj, 64, input)) {
        EXPECT_EQ(bitsDiffering(input, out), 1);
        // The flip stays inside the 23-bit fraction field.
        EXPECT_EQ(input >> 23, out >> 23);
    }
    EXPECT_EQ(inj.stats().injected[static_cast<int>(FaultKind::BitFlip)],
              64u);
}

TEST(FaultInjector, IslandThrowCarriesContext)
{
    Injector inj(specWithRate(FaultKind::IslandThrow, 1.0));
    inj.beginStep(17);
    try {
        inj.maybeThrowIsland(3);
        FAIL() << "expected InjectedFault";
    } catch (const fault::InjectedFault &e) {
        EXPECT_EQ(e.step(), 17);
        EXPECT_EQ(e.island(), 3);
        EXPECT_NE(std::string(e.what()).find("injected"),
                  std::string::npos);
    }
}

TEST(FaultInjector, ReplaysBitwiseFromSeed)
{
    const FaultSpec spec =
        FaultSpec::parse("seed=42,bitflip=0.3,nan=0.05", nullptr);
    Injector a(spec, /*stream=*/5);
    Injector b(spec, /*stream=*/5);
    for (int step = 0; step < 4; ++step) {
        a.beginStep(step);
        b.beginStep(step);
        EXPECT_EQ(drawScalars(a, 100), drawScalars(b, 100))
            << "diverged at step " << step;
    }
    EXPECT_EQ(a.stats().total(), b.stats().total());
    EXPECT_GT(a.stats().total(), 0u);
}

TEST(FaultInjector, StreamsAreIndependent)
{
    const FaultSpec spec = specWithRate(FaultKind::BitFlip, 0.5);
    Injector a(spec, /*stream=*/0);
    Injector b(spec, /*stream=*/1);
    a.beginStep(0);
    b.beginStep(0);
    EXPECT_NE(drawScalars(a, 200), drawScalars(b, 200));
}

TEST(FaultInjector, StepWindowGatesInjection)
{
    FaultSpec spec = specWithRate(FaultKind::BitFlip, 1.0);
    spec.firstStep = 10;
    spec.lastStep = 11;
    Injector inj(spec);
    const uint32_t input = fp::floatBits(1.0f);

    inj.beginStep(9);
    EXPECT_EQ(inj.mutateScalarResult(fp::Opcode::Add, input), input);
    inj.beginStep(10);
    EXPECT_NE(inj.mutateScalarResult(fp::Opcode::Add, input), input);
    inj.beginStep(11);
    EXPECT_NE(inj.mutateScalarResult(fp::Opcode::Add, input), input);
    inj.beginStep(12);
    EXPECT_EQ(inj.mutateScalarResult(fp::Opcode::Add, input), input);
    EXPECT_EQ(inj.stats().total(), 2u);
}

TEST(FaultInjector, MaxBudgetCapsTotalInjections)
{
    FaultSpec spec = specWithRate(FaultKind::BitFlip, 1.0);
    spec.maxInjections = 3;
    Injector inj(spec);
    inj.beginStep(0);
    drawScalars(inj, 50);
    EXPECT_EQ(inj.stats().total(), 3u);
}

TEST(FaultInjector, RewindBumpsEpochSoRetriesDrawFresh)
{
    // A moderate rate makes each step's 200-draw fire pattern a
    // fingerprint of its (epoch, step) stream.
    const FaultSpec spec = specWithRate(FaultKind::BitFlip, 0.5);
    Injector inj(spec);
    inj.beginStep(5);
    const std::vector<uint32_t> first = drawScalars(inj, 200);
    EXPECT_EQ(inj.epoch(), 0);

    // Rollback to step 3, replay forward to 5: the epoch bump gives
    // the retried step a different draw sequence — the fault is
    // transient, not a deterministic wall.
    inj.beginStep(3);
    EXPECT_EQ(inj.epoch(), 1);
    inj.beginStep(4);
    inj.beginStep(5);
    EXPECT_NE(drawScalars(inj, 200), first);

    // A replay of the whole campaign reproduces both sequences.
    Injector replay(spec);
    replay.beginStep(5);
    EXPECT_EQ(drawScalars(replay, 200), first);
}

TEST(FaultInjector, ZeroRateArmedIsIdentity)
{
    FaultSpec spec;
    spec.seed = 3;
    Injector inj(spec);
    inj.beginStep(0);
    const uint32_t input = fp::floatBits(0.1f);
    EXPECT_EQ(inj.mutateScalarResult(fp::Opcode::Add, input), input);
    EXPECT_NO_THROW(inj.maybeThrowIsland(0));
    EXPECT_EQ(inj.stats().total(), 0u);
}

TEST(FaultScoped, ArmsAndDisarmsCurrentInjector)
{
    EXPECT_EQ(Injector::current(), nullptr);
    Injector inj(specWithRate(FaultKind::BitFlip, 1.0));
    {
        fault::ScopedInjection arm(&inj);
        EXPECT_EQ(Injector::current(), &inj);
    }
    EXPECT_EQ(Injector::current(), nullptr);
    // Null is tolerated (worlds without a campaign).
    fault::ScopedInjection noop(nullptr);
    EXPECT_EQ(Injector::current(), nullptr);
}

TEST(FaultScalarPath, NaNInjectionReachesFpOps)
{
    auto &ctx = fp::PrecisionContext::current();
    ctx.setAllMantissaBits(fp::kFullMantissaBits);
    Injector inj(specWithRate(FaultKind::MakeNaN, 1.0));
    inj.beginStep(0);
    {
        fault::ScopedInjection arm(&inj);
        EXPECT_TRUE(std::isnan(fp::fadd(1.0f, 2.0f)));
    }
    EXPECT_EQ(fp::fadd(1.0f, 2.0f), 3.0f);
}

TEST(FaultScalarPath, ArmedZeroRateInjectorIsBitwiseTransparent)
{
    // The injector hook forces the out-of-line FP path; at zero rates
    // the results must still be bit-identical to the inline fast path
    // (same guarantee the setForceSlowPath cross-check pins).
    auto &ctx = fp::PrecisionContext::current();
    ctx.setAllMantissaBits(fp::kFullMantissaBits);

    FaultSpec scalarButZero;
    scalarButZero.rate[static_cast<int>(FaultKind::BitFlip)] = 0.0;
    Injector inj(scalarButZero);
    inj.beginStep(0);

    const float xs[] = {1.1f, -0.375f, 3.0e8f, 7.25e-3f};
    for (float a : xs) {
        for (float b : xs) {
            const float plainAdd = fp::fadd(a, b);
            const float plainDiv = fp::fdiv(a, b);
            fault::ScopedInjection arm(&inj);
            EXPECT_EQ(fp::floatBits(fp::fadd(a, b)),
                      fp::floatBits(plainAdd));
            EXPECT_EQ(fp::floatBits(fp::fdiv(a, b)),
                      fp::floatBits(plainDiv));
        }
    }
}

TEST(FaultScalarPath, NonScalarCampaignLeavesFastPathInstalled)
{
    // A throw-only campaign must not install the fp hook: the
    // inline fast path stays live (zero scalar overhead).
    auto &ctx = fp::PrecisionContext::current();
    FaultSpec spec = specWithRate(FaultKind::IslandThrow, 1.0);
    Injector inj(spec);
    inj.beginStep(0);
    {
        fault::ScopedInjection arm(&inj);
        EXPECT_EQ(ctx.faultHook(), nullptr);
        EXPECT_EQ(Injector::current(), &inj);
    }
    Injector scalar(specWithRate(FaultKind::BitFlip, 0.5));
    scalar.beginStep(0);
    {
        fault::ScopedInjection arm(&scalar);
        EXPECT_EQ(ctx.faultHook(), &scalar);
    }
    EXPECT_EQ(ctx.faultHook(), nullptr);
}
