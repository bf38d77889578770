/**
 * @file
 * Recovery-ladder tests for the batch scheduler: transient failures
 * healed in place by checkpoint rollback, persistent failures walked
 * down the ladder to a structured quarantine, the end-of-batch
 * rehabilitation pass, and the chaos-campaign acceptance bar — a
 * seeded multi-kind fault campaign across dozens of worlds that must
 * replay bitwise from its seed, across thread counts, with every
 * world either completed (finite state) or quarantined with a
 * structured reason.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "csim/metrics.h"
#include "fault/fault.h"
#include "fp/precision.h"
#include "scen/scenario.h"
#include "srv/batch.h"

using namespace hfpu;

namespace {

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

/** A scenario whose driver throws at @p step, @p times times total. */
scen::Scenario
throwingScenario(int atStep, int times, const char *name = "Boom")
{
    scen::Scenario s = scen::makeScenario("Periodic");
    s.name = name;
    auto inner = std::move(s.driver);
    auto remaining = std::make_shared<int>(times);
    s.driver = [inner, atStep, remaining](phys::World &world, int step) {
        if (step >= atStep && *remaining > 0) {
            --*remaining;
            throw std::runtime_error("scripted driver failure");
        }
        if (inner)
            inner(world, step);
    };
    return s;
}

void
expectSameOutcomes(const std::vector<srv::WorldResult> &a,
                   const std::vector<srv::WorldResult> &b,
                   const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].status, b[i].status) << what << " world " << i;
        EXPECT_EQ(a[i].stepsDone, b[i].stepsDone) << what << " world " << i;
        EXPECT_EQ(a[i].rollbacks, b[i].rollbacks) << what << " world " << i;
        EXPECT_EQ(a[i].rehabilitated, b[i].rehabilitated)
            << what << " world " << i;
        EXPECT_EQ(a[i].quarantineReason, b[i].quarantineReason)
            << what << " world " << i;
        EXPECT_EQ(a[i].faultStats.total(), b[i].faultStats.total())
            << what << " world " << i;
        ASSERT_EQ(a[i].stepHashes.size(), b[i].stepHashes.size())
            << what << " world " << i;
        for (size_t s = 0; s < a[i].stepHashes.size(); ++s)
            ASSERT_EQ(a[i].stepHashes[s], b[i].stepHashes[s])
                << what << " world " << i << " step " << s;
    }
}

/** Every world either completed finite or quarantined with a reason. */
void
expectStructuredOutcomes(const std::vector<srv::WorldResult> &results)
{
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        if (r.status == srv::WorldStatus::Completed) {
            EXPECT_TRUE(std::isfinite(r.finalEnergy))
                << "world " << i << " completed with non-finite energy";
            EXPECT_TRUE(r.quarantineReason.empty()) << "world " << i;
        } else {
            EXPECT_FALSE(r.quarantineReason.empty())
                << "world " << i << " quarantined without a reason";
            EXPECT_NE(r.quarantineReason.find("step"), std::string::npos)
                << "world " << i << " reason lacks a step index: "
                << r.quarantineReason;
            EXPECT_FALSE(r.recoveryEvents.empty()) << "world " << i;
        }
    }
}

} // namespace

TEST(RecoveryLadder, TransientFaultHealsViaRollback)
{
    metrics::Registry::global().reset();
    srv::BatchConfig config; // ladder on by default
    srv::BatchScheduler scheduler(config);

    srv::JobSpec spec;
    spec.steps = 20;
    spec.factory = [] { return throwingScenario(8, /*times=*/1); };
    auto results = scheduler.run({spec});

    ASSERT_EQ(results.size(), 1u);
    const auto &r = results[0];
    EXPECT_EQ(r.status, srv::WorldStatus::Completed);
    EXPECT_EQ(r.stepsDone, 20);
    EXPECT_FALSE(r.rehabilitated);
    EXPECT_EQ(r.rollbacks, 1);
    ASSERT_EQ(r.recoveryEvents.size(), 1u);
    EXPECT_EQ(r.recoveryEvents[0].action, "rollback");
    EXPECT_NE(r.recoveryEvents[0].cause.find("scripted driver failure"),
              std::string::npos);
    EXPECT_EQ(r.recoveryEvents[0].budgetLeft, config.recoveryBudget - 1);
    EXPECT_TRUE(r.quarantineReason.empty());
    // The recovery counter lands in the world's metric namespace.
    EXPECT_EQ(metrics::Registry::global().counter(
                  "srv/Boom@0/recovery/rollback"),
              1u);
}

TEST(RecoveryLadder, PersistentFaultWalksDownToQuarantine)
{
    srv::BatchConfig config;
    srv::BatchScheduler scheduler(config);

    srv::JobSpec spec;
    spec.steps = 20;
    spec.factory = [] {
        return throwingScenario(5, std::numeric_limits<int>::max());
    };
    auto results = scheduler.run({spec});

    ASSERT_EQ(results.size(), 1u);
    const auto &r = results[0];
    EXPECT_EQ(r.status, srv::WorldStatus::Quarantined);
    EXPECT_EQ(r.rollbacks, config.recoveryBudget);
    // Structured reason: cause, step index, ladder disposition, and
    // the failed rehabilitation.
    EXPECT_NE(r.quarantineReason.find("scripted driver failure"),
              std::string::npos);
    EXPECT_NE(r.quarantineReason.find("step"), std::string::npos);
    EXPECT_NE(r.quarantineReason.find("retry budget exhausted"),
              std::string::npos);
    EXPECT_NE(r.quarantineReason.find("rehabilitation failed"),
              std::string::npos);
    // Ladder history: budgeted rollbacks, quarantine, failed rehab.
    ASSERT_EQ(r.recoveryEvents.size(),
              static_cast<size_t>(config.recoveryBudget) + 2);
    for (int i = 0; i < config.recoveryBudget; ++i)
        EXPECT_EQ(r.recoveryEvents[i].action, "rollback");
    EXPECT_EQ(r.recoveryEvents[config.recoveryBudget].action,
              "quarantine");
    EXPECT_EQ(r.recoveryEvents.back().action, "rehab-failed");
}

TEST(RecoveryLadder, CapacityZeroQuarantinesImmediately)
{
    srv::BatchConfig config;
    config.checkpointCapacity = 0; // pre-ladder behavior
    config.rehabAttempts = 0;
    srv::BatchScheduler scheduler(config);

    srv::JobSpec spec;
    spec.steps = 20;
    spec.factory = [] {
        return throwingScenario(5, std::numeric_limits<int>::max());
    };
    auto results = scheduler.run({spec});

    ASSERT_EQ(results.size(), 1u);
    const auto &r = results[0];
    EXPECT_EQ(r.status, srv::WorldStatus::Quarantined);
    EXPECT_EQ(r.rollbacks, 0);
    EXPECT_NE(r.quarantineReason.find("no checkpoint available"),
              std::string::npos);
    EXPECT_EQ(r.quarantineReason.find("rehabilitation"),
              std::string::npos);
    ASSERT_EQ(r.recoveryEvents.size(), 1u);
    EXPECT_EQ(r.recoveryEvents[0].action, "quarantine");
}

TEST(RecoveryLadder, EventsCarryTheControllersEnergyDelta)
{
    // At full precision a guarded and an unguarded world step alike,
    // so both record the same nonzero last delta when the ladder
    // fires; it comes from the world's own controller either way.
    auto firstEvent = [](bool useController) {
        srv::BatchScheduler scheduler({});
        srv::JobSpec spec;
        spec.steps = 20;
        spec.useController = useController;
        spec.factory = [] { return throwingScenario(10, 1); };
        const auto results = scheduler.run({spec});
        EXPECT_EQ(results[0].status, srv::WorldStatus::Completed);
        EXPECT_FALSE(results[0].recoveryEvents.empty());
        return results[0].recoveryEvents.empty()
            ? srv::RecoveryEvent{}
            : results[0].recoveryEvents[0];
    };
    const srv::RecoveryEvent guarded = firstEvent(true);
    const srv::RecoveryEvent unguarded = firstEvent(false);
    EXPECT_EQ(guarded.action, "rollback");
    EXPECT_NE(guarded.relDelta, 0.0);
    EXPECT_EQ(guarded.relDelta, unguarded.relDelta);
}

TEST(RecoveryLadder, RehabilitationCuresPrecisionSensitiveWorld)
{
    // This driver only survives at full mantissa width, so every
    // reduced-precision attempt fails: rollbacks replay cleanly inside
    // their full-precision backoff window but the budget drains as
    // soon as reduced stepping resumes. The rehabilitation rerun —
    // forced to full precision — is what cures it.
    auto factory = [] {
        scen::Scenario s = scen::makeScenario("Periodic");
        s.name = "NeedsFullPrecision";
        auto inner = std::move(s.driver);
        s.driver = [inner](phys::World &world, int step) {
            const auto &ctx = fp::PrecisionContext::current();
            if (ctx.mantissaBits(fp::Phase::Narrow) !=
                fp::kFullMantissaBits)
                throw std::runtime_error("needs full precision");
            if (inner)
                inner(world, step);
        };
        return s;
    };

    srv::BatchConfig config;
    srv::BatchScheduler scheduler(config);
    srv::JobSpec spec;
    spec.steps = 12;
    spec.useController = false;
    spec.policy.minNarrowBits = 10;
    spec.policy.minLcpBits = 10;
    spec.factory = factory;
    auto results = scheduler.run({spec});

    ASSERT_EQ(results.size(), 1u);
    const auto &r = results[0];
    EXPECT_EQ(r.status, srv::WorldStatus::Completed);
    EXPECT_TRUE(r.rehabilitated);
    EXPECT_EQ(r.stepsDone, 12);
    EXPECT_TRUE(r.quarantineReason.empty());
    EXPECT_EQ(r.rollbacks, config.recoveryBudget);
    ASSERT_FALSE(r.recoveryEvents.empty());
    EXPECT_EQ(r.recoveryEvents.back().action, "rehabilitated");
    EXPECT_NE(r.recoveryEvents.back().cause.find("needs full precision"),
              std::string::npos);
}

TEST(RecoveryLadder, ArmedOutOfWindowInjectorIsBitwiseTransparent)
{
    // Scalar rates force the slow FP path, but with the step window
    // past the end of the run nothing ever fires: the trace must be
    // bit-identical to a run with no injector at all (the golden-trace
    // guarantee, exercised through the batch layer).
    auto runOnce = [](bool armed) {
        srv::BatchConfig config;
        srv::BatchScheduler scheduler(config);
        std::vector<srv::JobSpec> jobs;
        for (const char *name : {"Breakable", "Ragdoll"}) {
            srv::JobSpec spec;
            spec.scenario = name;
            spec.steps = 25;
            spec.hashTrace = true;
            spec.policy.minNarrowBits = 14;
            spec.policy.minLcpBits = 14;
            if (armed) {
                spec.faults = fault::FaultSpec::parse(
                    "seed=11,bitflip=1,nan=1,throw=1,"
                    "steps=1000..2000",
                    nullptr);
                EXPECT_TRUE(spec.faults.anyEnabled());
            }
            jobs.push_back(std::move(spec));
        }
        return scheduler.run(jobs);
    };

    const auto plain = runOnce(false);
    const auto armed = runOnce(true);
    ASSERT_EQ(plain.size(), armed.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(armed[i].status, srv::WorldStatus::Completed);
        EXPECT_EQ(armed[i].faultStats.total(), 0u);
        EXPECT_EQ(armed[i].rollbacks, 0);
        ASSERT_EQ(plain[i].stepHashes.size(), armed[i].stepHashes.size());
        for (size_t s = 0; s < plain[i].stepHashes.size(); ++s)
            ASSERT_EQ(plain[i].stepHashes[s], armed[i].stepHashes[s])
                << "world " << i << " diverged at step " << s;
        EXPECT_EQ(plain[i].finalHash, armed[i].finalHash);
    }
}

TEST(ChaosCampaign, FiftyWorldsAllKindsReplayBitwise)
{
    // The acceptance campaign: >= 50 worlds, every fault kind armed,
    // run twice — once on 4 threads, once serial. Outcomes — including
    // per-step hashes, rollback counts, and quarantine reasons — must
    // be identical (which is both the replay-from-seed and the
    // thread-count-independence guarantee), and every world must end
    // in a structured state.
    const int steps = sanitizedBuild() ? 8 : 15;
    const std::string specText =
        "seed=2026,bitflip=0.000002,nan=0.0000005,inf=0.0000005,"
        "throw=0.001,steps=2..999";

    auto runCampaign = [&](int threads) {
        srv::BatchConfig config;
        config.threads = threads;
        srv::BatchScheduler scheduler(config);
        std::vector<srv::JobSpec> jobs;
        for (const char *name :
             {"Periodic", "Breakable", "Explosions", "Ragdoll"}) {
            srv::JobSpec spec;
            spec.scenario = name;
            spec.steps = steps;
            spec.replicas = 13; // 4 x 13 = 52 worlds
            spec.hashTrace = true;
            spec.policy.minNarrowBits = 14;
            spec.policy.minLcpBits = 14;
            std::string error;
            spec.faults = fault::FaultSpec::parse(specText, &error);
            EXPECT_TRUE(error.empty()) << error;
            jobs.push_back(std::move(spec));
        }
        return scheduler.run(jobs);
    };

    const auto first = runCampaign(4);
    ASSERT_EQ(first.size(), 52u);
    expectStructuredOutcomes(first);

    // At these per-op rates across 52 worlds the campaign reliably
    // injects; if the spec ever parses to a no-op this canary trips.
    uint64_t injected = 0;
    for (const auto &r : first)
        injected += r.faultStats.total();
    EXPECT_GT(injected, 0u);

    expectSameOutcomes(first, runCampaign(1), "serial vs 4 threads");
}

TEST(ChaosCampaign, SaturatedNaNInjectionNeverLeaksNonFiniteState)
{
    // Property: even a campaign hot enough to kill most worlds must
    // never let a non-finite state through as "completed" — the
    // no-silent-corruption half of the acceptance criteria.
    srv::BatchConfig config;
    config.threads = 2;
    srv::BatchScheduler scheduler(config);
    srv::JobSpec spec;
    spec.scenario = "Periodic";
    spec.steps = 15;
    spec.replicas = 8;
    std::string error;
    spec.faults =
        fault::FaultSpec::parse("seed=5,nan=0.001,inf=0.0005", &error);
    ASSERT_TRUE(error.empty()) << error;
    auto results = scheduler.run({spec});

    ASSERT_EQ(results.size(), 8u);
    expectStructuredOutcomes(results);
    int quarantined = 0;
    for (const auto &r : results)
        quarantined += r.status == srv::WorldStatus::Quarantined ? 1 : 0;
    // The campaign is hot enough that at least one world dies — the
    // property above is only meaningful if the ladder actually ran.
    EXPECT_GT(quarantined, 0);
}
