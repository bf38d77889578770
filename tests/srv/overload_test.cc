/**
 * @file
 * Overload-resilience tests for the batch scheduler: the degradation
 * ladder (downshift -> cap iterations -> DeadlineExceeded quarantine)
 * under a deterministic virtual clock, relaxation after recovery,
 * admission control / backpressure with structured retry hints, and
 * the determinism gate — identical seeds plus the virtual clock must
 * produce bitwise-identical degradation event streams and state
 * hashes on one thread and on four.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "csim/metrics.h"
#include "phys/clock.h"
#include "srv/batch.h"

using namespace hfpu;

namespace {

srv::JobSpec
explosionJob(int steps, int replicas)
{
    srv::JobSpec spec;
    spec.scenario = "Explosions";
    spec.steps = steps;
    spec.replicas = replicas;
    spec.hashTrace = true;
    return spec;
}

int
countAction(const srv::WorldResult &res, const std::string &action)
{
    int n = 0;
    for (const auto &ev : res.degradationEvents)
        n += ev.action == action ? 1 : 0;
    return n;
}

} // namespace

TEST(OverloadLadder, MissStreakEscalatesThenCompletes)
{
    // Every step costs 900 us against an 800 us deadline: the miss
    // streak walks the ladder to its deepest non-fatal rung, but with
    // no world budget the world still completes every step.
    phys::VirtualClock clock(900, /*seed=*/5, /*jitterFrac=*/0.0);
    srv::BatchConfig config;
    config.threads = 1;
    config.clock = &clock;
    config.stepDeadlineMicros = 800;
    config.degradeAfterMisses = 2;
    srv::BatchScheduler scheduler(config);
    const auto results = scheduler.run({explosionJob(30, 1)});
    ASSERT_EQ(results.size(), 1u);
    const srv::WorldResult &res = results[0];
    EXPECT_EQ(res.status, srv::WorldStatus::Completed);
    EXPECT_EQ(res.stepsDone, 30);
    EXPECT_EQ(res.deadlineMisses, 30);
    EXPECT_FALSE(res.deadlineExceeded);
    // Two escalations (step 2 and step 4), then the ladder is pinned
    // at its deepest rung with nothing left to shed.
    ASSERT_EQ(res.degradationEvents.size(), 2u);
    EXPECT_EQ(res.degradationEvents[0].action, "downshift");
    EXPECT_EQ(res.degradationEvents[0].cause, "step-deadline");
    EXPECT_EQ(res.degradationEvents[0].step, 2);
    EXPECT_EQ(res.degradationEvents[0].level,
              phys::DegradationLevel::DownshiftBits);
    EXPECT_EQ(res.degradationEvents[1].action, "cap-iterations");
    EXPECT_EQ(res.degradationEvents[1].step, 4);
    EXPECT_EQ(res.degradationEvents[1].level,
              phys::DegradationLevel::CapIterations);
    EXPECT_GT(res.degradationEvents[1].iterationCap, 0);
    // Degraded floors are below the full-precision defaults.
    EXPECT_LT(res.degradationEvents[0].narrowBits, 23);
    EXPECT_LT(res.degradationEvents[0].lcpBits, 23);
    EXPECT_EQ(res.budgetUsedMicros, 30 * 900);
}

TEST(OverloadLadder, SustainedCalmRelaxesOneRungAtATime)
{
    phys::VirtualClock clock(100, /*seed=*/5, /*jitterFrac=*/0.0);
    // Pathological opening: the first 6 steps cost 1500 us, the rest
    // 100 us, against a 1000 us deadline.
    clock.setCostModel(
        [](uint64_t, int step) { return step < 6 ? 1500 : 100; });
    srv::BatchConfig config;
    config.threads = 1;
    config.clock = &clock;
    config.stepDeadlineMicros = 1000;
    config.degradeAfterMisses = 2;
    config.relaxAfterSteps = 4;
    srv::BatchScheduler scheduler(config);
    const auto results = scheduler.run({explosionJob(40, 1)});
    ASSERT_EQ(results.size(), 1u);
    const srv::WorldResult &res = results[0];
    EXPECT_EQ(res.status, srv::WorldStatus::Completed);
    EXPECT_EQ(res.deadlineMisses, 6);
    EXPECT_EQ(countAction(res, "downshift"), 1);
    EXPECT_EQ(countAction(res, "cap-iterations"), 1);
    // Calm steps relax the ladder back down to None, one rung per
    // relaxAfterSteps window.
    ASSERT_EQ(countAction(res, "relax"), 2);
    const auto &last = res.degradationEvents.back();
    EXPECT_EQ(last.action, "relax");
    EXPECT_EQ(last.cause, "recovered");
    EXPECT_EQ(last.level, phys::DegradationLevel::None);
}

TEST(OverloadLadder, BudgetExhaustionQuarantinesAsDeadlineExceeded)
{
    metrics::Registry::global().reset();
    phys::VirtualClock clock(900, /*seed=*/5, /*jitterFrac=*/0.0);
    srv::BatchConfig config;
    config.threads = 1;
    config.clock = &clock;
    config.worldBudgetMicros = 10'000; // exhausted after ~11 steps
    config.rehabAttempts = 2;          // must NOT rehabilitate
    srv::BatchScheduler scheduler(config);
    const auto results = scheduler.run({explosionJob(40, 1)});
    ASSERT_EQ(results.size(), 1u);
    const srv::WorldResult &res = results[0];
    EXPECT_EQ(res.status, srv::WorldStatus::Quarantined);
    EXPECT_TRUE(res.deadlineExceeded);
    EXPECT_FALSE(res.rehabilitated);
    EXPECT_LT(res.stepsDone, 40);
    EXPECT_GE(res.budgetUsedMicros, 10'000);
    EXPECT_NE(res.quarantineReason.find("DeadlineExceeded"),
              std::string::npos)
        << res.quarantineReason;
    ASSERT_FALSE(res.degradationEvents.empty());
    EXPECT_EQ(res.degradationEvents.back().action, "quarantine");
    EXPECT_EQ(res.degradationEvents.back().cause, "world-budget");
    // Counted inside the world's metric namespace.
    EXPECT_GE(metrics::Registry::global().counter(
                  "srv/Explosions@0/degradation/deadline_quarantine"),
              1u);
}

TEST(OverloadLadder, BudgetPressureEscalatesBeforeAnyMiss)
{
    // Per-step costs never miss the (absent) step deadline, but the
    // pro-rata budget projection sees the overrun coming and degrades
    // early enough to matter.
    phys::VirtualClock clock(900, /*seed=*/5, /*jitterFrac=*/0.0);
    srv::BatchConfig config;
    config.threads = 1;
    config.clock = &clock;
    config.worldBudgetMicros = 20 * 500; // half of what 900/step needs
    srv::BatchScheduler scheduler(config);
    const auto results = scheduler.run({explosionJob(20, 1)});
    const srv::WorldResult &res = results[0];
    EXPECT_EQ(res.deadlineMisses, 0);
    EXPECT_GE(countAction(res, "downshift"), 1);
    for (const auto &ev : res.degradationEvents) {
        if (ev.action == "downshift" || ev.action == "cap-iterations") {
            EXPECT_EQ(ev.cause, "budget-pressure");
        }
    }
}

TEST(OverloadLadder, UnguardedWorldsDegradeViaIterationCap)
{
    // A guard-only (Fixed) controller still walks the ladder: the
    // degraded mantissa floors and the LCP iteration cap both come
    // from PrecisionController::setDegradationLevel.
    metrics::Registry::global().reset();
    phys::VirtualClock clock(900, /*seed=*/5, /*jitterFrac=*/0.0);
    srv::BatchConfig config;
    config.threads = 1;
    config.clock = &clock;
    config.stepDeadlineMicros = 800;
    config.degradeAfterMisses = 1;
    srv::BatchScheduler scheduler(config);
    srv::JobSpec job = explosionJob(20, 1);
    job.useController = false;
    const auto results = scheduler.run({job});
    const srv::WorldResult &res = results[0];
    EXPECT_EQ(res.status, srv::WorldStatus::Completed);
    EXPECT_EQ(countAction(res, "cap-iterations"), 1);
    // The capped solve is observable in the metrics registry, under
    // the world's namespace.
    EXPECT_GE(metrics::Registry::global().counter(
                  "srv/Explosions@0/phys/lcp_iteration_capped"),
              1u);
}

TEST(OverloadDeterminism, EventStreamsBitwiseIdenticalAcrossThreads)
{
    // The acceptance gate: a saturating campaign (jittered costs, step
    // deadlines, world budgets) must produce identical outcomes,
    // hashes, and degradation event streams serially and on four
    // threads. Every overload decision is keyed off per-world virtual
    // charges, never shared wall time.
    auto campaign = [](int threads) {
        phys::VirtualClock clock(900, /*seed=*/77, /*jitterFrac=*/0.6);
        srv::BatchConfig config;
        config.threads = threads;
        config.clock = &clock;
        config.stepDeadlineMicros = 1100;
        // Mean total cost is ~54'000us (60 steps at base 900), so a
        // 50'000us budget reliably exhausts some worlds mid-run.
        config.worldBudgetMicros = 50'000;
        config.degradeAfterMisses = 2;
        config.relaxAfterSteps = 6;
        srv::BatchScheduler scheduler(config);
        srv::JobSpec random;
        random.scenario = "Random";
        random.steps = 60;
        random.replicas = 6;
        random.seed = 21;
        random.hashTrace = true;
        return scheduler.run({explosionJob(60, 2), random});
    };
    const auto serial = campaign(1);
    const auto parallel = campaign(4);
    ASSERT_EQ(serial.size(), parallel.size());
    bool anyDegraded = false, anyExceeded = false;
    for (size_t i = 0; i < serial.size(); ++i) {
        const auto &a = serial[i];
        const auto &b = parallel[i];
        SCOPED_TRACE("world " + std::to_string(i));
        EXPECT_EQ(a.status, b.status);
        EXPECT_EQ(a.stepsDone, b.stepsDone);
        EXPECT_EQ(a.finalHash, b.finalHash);
        EXPECT_EQ(a.stepHashes, b.stepHashes);
        EXPECT_EQ(a.deadlineMisses, b.deadlineMisses);
        EXPECT_EQ(a.budgetUsedMicros, b.budgetUsedMicros);
        EXPECT_EQ(a.deadlineExceeded, b.deadlineExceeded);
        EXPECT_EQ(a.quarantineReason, b.quarantineReason);
        ASSERT_EQ(a.degradationEvents.size(), b.degradationEvents.size());
        for (size_t e = 0; e < a.degradationEvents.size(); ++e) {
            const auto &ea = a.degradationEvents[e];
            const auto &eb = b.degradationEvents[e];
            EXPECT_EQ(ea.step, eb.step);
            EXPECT_EQ(ea.action, eb.action);
            EXPECT_EQ(ea.cause, eb.cause);
            EXPECT_EQ(ea.level, eb.level);
            EXPECT_EQ(ea.narrowBits, eb.narrowBits);
            EXPECT_EQ(ea.lcpBits, eb.lcpBits);
            EXPECT_EQ(ea.iterationCap, eb.iterationCap);
            EXPECT_EQ(ea.stepCostMicros, eb.stepCostMicros);
            EXPECT_EQ(ea.budgetUsedMicros, eb.budgetUsedMicros);
        }
        anyDegraded |= !a.degradationEvents.empty();
        anyExceeded |= a.deadlineExceeded;
    }
    // The campaign must actually exercise the ladder, or the gate
    // proves nothing.
    EXPECT_TRUE(anyDegraded);
    EXPECT_TRUE(anyExceeded);
}

TEST(OverloadDeterminism, SaturationCampaignNeverHangsOrLosesAWorld)
{
    // Zero-hang acceptance: under heavy saturation every world ends in
    // a terminal state — completed (possibly degraded) or quarantined
    // as DeadlineExceeded — and none is silently dropped.
    phys::VirtualClock clock(1200, /*seed=*/3, /*jitterFrac=*/0.8);
    srv::BatchConfig config;
    config.threads = 4;
    config.clock = &clock;
    config.stepDeadlineMicros = 1000;
    config.worldBudgetMicros = 30'000;
    config.degradeAfterMisses = 1;
    srv::BatchScheduler scheduler(config);
    srv::JobSpec random;
    random.scenario = "Random";
    random.steps = 50;
    random.replicas = 12;
    random.seed = 9;
    const auto results = scheduler.run({random});
    ASSERT_EQ(results.size(), 12u);
    for (const auto &res : results) {
        if (res.status == srv::WorldStatus::Completed) {
            EXPECT_EQ(res.stepsDone, 50);
        } else {
            ASSERT_EQ(res.status, srv::WorldStatus::Quarantined);
            EXPECT_TRUE(res.deadlineExceeded);
            EXPECT_FALSE(res.quarantineReason.empty());
        }
    }
}

TEST(OverloadAdmission, PendingBoundRejectsExpansionTail)
{
    metrics::Registry::global().reset();
    srv::BatchConfig config;
    config.threads = 2;
    config.maxPendingWorlds = 3;
    srv::BatchScheduler scheduler(config);
    // The bound is per run() call: a second call on the same scheduler
    // admits the same three worlds and rejects the same tail.
    for (int call = 0; call < 2; ++call) {
        SCOPED_TRACE(call);
        const auto results = scheduler.run({explosionJob(5, 6)});
        ASSERT_EQ(results.size(), 6u);
        for (size_t i = 0; i < 3; ++i) {
            EXPECT_EQ(results[i].status, srv::WorldStatus::Completed);
            EXPECT_EQ(results[i].stepsDone, 5);
        }
        for (size_t i = 3; i < 6; ++i) {
            const auto &res = results[i];
            EXPECT_EQ(res.status, srv::WorldStatus::Rejected);
            EXPECT_EQ(res.stepsDone, 0);     // never simulated
            EXPECT_GT(res.retryAfterMicros, 0);
            EXPECT_EQ(res.quarantineReason,
                      "Rejected (overload: pending 3 of max 3, retry "
                      "after 20000us)");
            EXPECT_FALSE(res.rehabilitated); // rehab skips rejected worlds
        }
    }
    EXPECT_EQ(metrics::Registry::global().counter("srv/rejected"), 6u);
}

TEST(OverloadAdmission, RetryHintScalesWithQueueDepth)
{
    srv::BatchConfig config;
    config.threads = 2;
    config.maxPendingWorlds = 4;
    config.worldBudgetMicros = 10'000;
    config.clock = nullptr; // steady clock; budget only sizes the hint
    srv::BatchScheduler scheduler(config);
    const auto results = scheduler.run({explosionJob(5, 6)});
    ASSERT_EQ(results.size(), 6u);
    // hint = one world budget + the 4 admitted worlds queued ahead.
    // Thread count never enters: hints must not vary with pool size.
    const int64_t expected = 10'000 + 10'000 * 4;
    EXPECT_EQ(results[4].retryAfterMicros, expected);
    EXPECT_EQ(results[5].retryAfterMicros, expected);
}
