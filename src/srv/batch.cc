#include "srv/batch.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "csim/metrics.h"
#include "fp/precision.h"
#include "srv/statehash.h"

namespace hfpu {
namespace srv {

namespace {

/**
 * Saves the calling thread's precision settings and restores them on
 * scope exit, so a scheduler thread leaves a world job with the same
 * context it entered with. The slow-path/soft-float escape hatches are
 * deliberately left alone: they are ambient cross-check switches, not
 * per-world configuration.
 */
class FpContextSaver
{
  public:
    FpContextSaver() : ctx_(fp::PrecisionContext::current())
    {
        for (int p = 0; p < fp::kNumPhases; ++p)
            bits_[p] = ctx_.mantissaBits(static_cast<fp::Phase>(p));
        mode_ = ctx_.roundingMode();
        phase_ = ctx_.phase();
    }

    ~FpContextSaver()
    {
        for (int p = 0; p < fp::kNumPhases; ++p)
            ctx_.setMantissaBits(static_cast<fp::Phase>(p), bits_[p]);
        ctx_.setRoundingMode(mode_);
        ctx_.setPhase(phase_);
    }

    FpContextSaver(const FpContextSaver &) = delete;
    FpContextSaver &operator=(const FpContextSaver &) = delete;

  private:
    fp::PrecisionContext &ctx_;
    int bits_[fp::kNumPhases];
    fp::RoundingMode mode_;
    fp::Phase phase_;
};

/**
 * Install one world's precision configuration into the thread context.
 * Called at every slice boundary: a worker may have run a different
 * world (different widths, different rounding mode) in between, so
 * the install is unconditional and complete. Every world starts at
 * full precision here; its controller programs the narrow/LCP widths
 * at each beginStep().
 */
void
installWorldContext(const phys::PrecisionPolicy &policy)
{
    auto &ctx = fp::PrecisionContext::current();
    ctx.setAllMantissaBits(fp::kFullMantissaBits);
    ctx.setRoundingMode(policy.roundingMode);
    ctx.setPhase(fp::Phase::Other);
}

} // namespace

/** One expanded world job (spec x replica). */
struct BatchScheduler::WorldTask {
    const JobSpec *spec = nullptr;
    std::string scenario; //!< resolved name ("Random" gets its seed)
    int replica = 0;
    int index = 0;        //!< global index in the batch
    WorldResult result;
};

BatchScheduler::BatchScheduler(const BatchConfig &config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock
                                     : &phys::Clock::steady()),
      pool_(std::make_unique<phys::WorkerPool>(
          std::max(1, config.threads)))
{
}

BatchScheduler::~BatchScheduler() = default;

int
BatchScheduler::threads() const
{
    return pool_->threads();
}

void
BatchScheduler::runWorld(WorldTask &task, int rehabAttempt)
{
    const auto start = std::chrono::steady_clock::now();
    const JobSpec &spec = *task.spec;
    WorldResult &res = task.result;
    res.scenario = task.scenario;
    res.replica = task.replica;

    FpContextSaver saved;
    try {
        // Rehabilitation reruns exist to prove the world is healthy,
        // not to re-exercise the reduced path: force full precision.
        phys::PrecisionPolicy policy = phys::validatedPolicy(spec.policy);
        if (rehabAttempt > 0) {
            policy.minNarrowBits = fp::kFullMantissaBits;
            policy.minLcpBits = fp::kFullMantissaBits;
        }
        // Unguarded worlds get a guard-only controller: fixed widths,
        // and a blow-up is left to the recovery ladder below. It
        // outlives the world it is attached to.
        phys::PrecisionController controller(
            policy, spec.useController
                        ? phys::PrecisionController::Mode::Adaptive
                        : phys::PrecisionController::Mode::Fixed);

        // Each world draws its own deterministic fault stream; a rehab
        // rerun draws a fresh one so deterministic transients (which
        // are keyed by step) do not simply recur.
        std::optional<fault::Injector> injector;
        if (spec.faults.anyEnabled())
            injector.emplace(
                spec.faults,
                (static_cast<uint64_t>(rehabAttempt) << 32) |
                    static_cast<uint32_t>(task.index));

        scen::Scenario scenario =
            spec.factory ? spec.factory() : scen::makeScenario(task.scenario);
        if (spec.factory)
            res.scenario = scenario.name;
        phys::World &world = *scenario.world;
        world.setCaptureImpulses(config_.captureImpulses);
        world.setCheckpointCapacity(config_.checkpointCapacity);
        if (config_.innerParallel && pool_->threads() > 1)
            world.setSharedPool(pool_.get());
        world.setController(&controller);

        // ---- Overload / deadline state ------------------------------
        // Accounting uses only this world's own clock charges (keyed
        // by its global batch index), never global readings — that is
        // what makes the whole ladder replay bitwise across thread
        // counts under a virtual clock. Rehabilitation reruns are
        // exempt: they exist to prove health, not meet deadlines.
        const int64_t stepDeadline =
            std::max<int64_t>(0, config_.stepDeadlineMicros);
        const int64_t worldBudget =
            std::max<int64_t>(0, config_.worldBudgetMicros);
        const bool deadlines =
            (stepDeadline > 0 || worldBudget > 0) && rehabAttempt == 0;
        const uint64_t clockStream = static_cast<uint64_t>(task.index);
        const int escalateAfter = std::max(1, config_.degradeAfterMisses);
        const int relaxAfter = std::max(1, config_.relaxAfterSteps);
        int missStreak = 0;      // consecutive step-deadline misses
        int calmStreak = 0;      // consecutive on-time steps
        int sinceEscalation = 0; // steps since the last rung change

        auto emitDegradation = [&](const char *action, const char *cause,
                                   int64_t stepCost) {
            DegradationEvent ev;
            ev.step = res.stepsDone;
            ev.action = action;
            ev.cause = cause;
            ev.level = controller.degradationLevel();
            ev.narrowBits = controller.effectiveMinNarrowBits();
            ev.lcpBits = controller.effectiveMinLcpBits();
            ev.iterationCap = controller.lcpIterationCap();
            ev.stepCostMicros = stepCost;
            ev.budgetUsedMicros = res.budgetUsedMicros;
            res.degradationEvents.push_back(std::move(ev));
            metrics::Registry::global().count(
                std::string("degradation/") + action);
        };

        const std::string metricsKey =
            "srv/" + res.scenario + "@" + std::to_string(task.index) +
            (rehabAttempt > 0 ? "/rehab" : "");
        const int total = std::max(0, spec.steps);
        const int slice =
            config_.sliceSteps > 0 ? config_.sliceSteps : std::max(1, total);
        if (spec.hashTrace)
            res.stepHashes.reserve(total);

        const int base = world.stepCount();
        int budget = std::max(0, config_.recoveryBudget);

        // The recovery ladder: roll back and replay at full precision
        // while the retry budget lasts, then quarantine with a
        // structured reason. Returns false when the world is dead.
        // Must run inside the slice's metric namespace so the recovery
        // counters land with the world's other metrics.
        auto recover = [&](const std::string &cause) {
            RecoveryEvent ev;
            ev.step = world.stepCount() - base;
            ev.cause = cause;
            ev.relDelta = controller.monitor().lastRelativeDelta();
            const int avail = world.rollbackAvailable();
            const int depth =
                std::min(config_.rollbackSteps, std::max(avail, 0));
            if (budget > 0 && avail >= 0 && world.rollbackSteps(depth)) {
                --budget;
                ++res.rollbacks;
                ev.action = "rollback";
                ev.rollbackSteps = depth;
                ev.budgetLeft = budget;
                res.recoveryEvents.push_back(ev);
                metrics::Registry::global().count("recovery/rollback");
                res.stepsDone = world.stepCount() - base;
                if (spec.hashTrace)
                    res.stepHashes.resize(
                        static_cast<size_t>(res.stepsDone));
                controller.holdFullPrecision(depth + 1);
                controller.restartEnergyHistory(world.lastEnergy().total());
                return true;
            }
            res.status = WorldStatus::Quarantined;
            ev.action = "quarantine";
            ev.budgetLeft = budget;
            res.recoveryEvents.push_back(ev);
            metrics::Registry::global().count("recovery/quarantine");
            std::string reason = cause + " (step " +
                std::to_string(ev.step) +
                ", relDelta=" + std::to_string(ev.relDelta);
            if (controller.mode() == phys::PrecisionController::Mode::Adaptive)
                reason += ", narrowBits=" +
                    std::to_string(controller.currentNarrowBits()) +
                    ", lcpBits=" +
                    std::to_string(controller.currentLcpBits());
            reason += ", rollbacks=" + std::to_string(res.rollbacks);
            reason += budget > 0 ? ", no checkpoint available)"
                                 : ", retry budget exhausted)";
            res.quarantineReason = reason;
            return false;
        };

        while (res.stepsDone < total &&
               res.status == WorldStatus::Completed) {
            const int sliceEnd = std::min(total, res.stepsDone + slice);
            {
                metrics::ScopedNamespace ns(metricsKey);
                installWorldContext(policy);
                while (res.stepsDone < sliceEnd) {
                    world.pushCheckpoint();
                    if (injector)
                        injector->beginStep(world.stepCount());
                    // World::step programs the widths again; doing it
                    // here too lets the scenario's pre-step callback
                    // read the widths its step runs at.
                    controller.beginStep();
                    // Every attempt is charged to the clock — retried
                    // steps cost time too. Virtual clocks charge a
                    // deterministic cost keyed by (world, step).
                    const int stepNo = world.stepCount();
                    const int64_t token =
                        deadlines ? clock_->stepBegin() : 0;
                    std::string cause;
                    try {
                        fault::ScopedInjection arm(
                            injector ? &*injector : nullptr);
                        scenario.step();
                    } catch (const std::exception &e) {
                        cause = std::string("exception: ") + e.what();
                    }
                    int64_t stepCost = 0;
                    if (deadlines) {
                        stepCost =
                            clock_->stepEnd(clockStream, stepNo, token);
                        res.budgetUsedMicros += stepCost;
                    }
                    if (cause.empty()) {
                        ++res.stepsDone;
                        if (spec.hashTrace)
                            res.stepHashes.push_back(stateHash(world));
                        if (!world.stateFinite())
                            cause = "non-finite state";
                        else if (controller.blowUpPending())
                            cause = "energy blow-up";
                        if (!cause.empty())
                            cause += " after step " +
                                std::to_string(res.stepsDone);
                    }
                    if (!cause.empty()) {
                        if (!recover(cause))
                            break;
                        continue;
                    }
                    if (!deadlines)
                        continue;
                    // ---- Degradation ladder -------------------------
                    const bool miss =
                        stepDeadline > 0 && stepCost > stepDeadline;
                    if (miss) {
                        ++res.deadlineMisses;
                        ++missStreak;
                        calmStreak = 0;
                        metrics::Registry::global().count(
                            "srv/deadline_miss");
                    } else {
                        missStreak = 0;
                        ++calmStreak;
                    }
                    ++sinceEscalation;
                    // Last rung: the budget is gone with steps still
                    // to run. Shedding work is now the only move left,
                    // and it is structured, not a hang.
                    if (worldBudget > 0 &&
                        res.budgetUsedMicros >= worldBudget &&
                        res.stepsDone < total) {
                        res.status = WorldStatus::Quarantined;
                        res.deadlineExceeded = true;
                        emitDegradation("quarantine", "world-budget",
                                        stepCost);
                        metrics::Registry::global().count(
                            "degradation/deadline_quarantine");
                        res.quarantineReason =
                            "DeadlineExceeded (step " +
                            std::to_string(res.stepsDone) + "/" +
                            std::to_string(total) + ", used " +
                            std::to_string(res.budgetUsedMicros) +
                            "us of " + std::to_string(worldBudget) +
                            "us budget, level=" +
                            phys::degradationLevelName(
                                controller.degradationLevel()) +
                            ", misses=" +
                            std::to_string(res.deadlineMisses) + ")";
                        break;
                    }
                    // Pro-rata budget projection: spending faster than
                    // budget/steps is pressure even without a single
                    // step-deadline miss.
                    const bool projectedOver = worldBudget > 0 &&
                        static_cast<double>(res.budgetUsedMicros) *
                                static_cast<double>(total) >
                            static_cast<double>(worldBudget) *
                                static_cast<double>(res.stepsDone);
                    const phys::DegradationLevel level =
                        controller.degradationLevel();
                    if (level < phys::DegradationLevel::CapIterations &&
                        (missStreak >= escalateAfter ||
                         (projectedOver &&
                          sinceEscalation >= escalateAfter))) {
                        const char *cause = missStreak >= escalateAfter
                            ? "step-deadline"
                            : "budget-pressure";
                        missStreak = 0;
                        calmStreak = 0;
                        sinceEscalation = 0;
                        controller.setDegradationLevel(
                            level == phys::DegradationLevel::None
                                ? phys::DegradationLevel::DownshiftBits
                                : phys::DegradationLevel::CapIterations);
                        emitDegradation(phys::degradationLevelName(
                                            controller.degradationLevel()),
                                        cause, stepCost);
                    } else if (level > phys::DegradationLevel::None &&
                               calmStreak >= relaxAfter &&
                               !projectedOver) {
                        calmStreak = 0;
                        sinceEscalation = 0;
                        controller.setDegradationLevel(
                            level == phys::DegradationLevel::CapIterations
                                ? phys::DegradationLevel::DownshiftBits
                                : phys::DegradationLevel::None);
                        emitDegradation("relax", "recovered", stepCost);
                    }
                }
            }
            if (config_.onProgress) {
                WorldProgress progress;
                progress.world = task.index;
                progress.scenario = res.scenario;
                progress.replica = task.replica;
                progress.stepsDone = res.stepsDone;
                progress.stepsTotal = total;
                progress.energy = world.lastEnergy().total();
                progress.quarantined =
                    res.status == WorldStatus::Quarantined;
                std::lock_guard<std::mutex> lock(progressMutex_);
                config_.onProgress(progress);
            }
        }

        res.finalEnergy = world.lastEnergy().total();
        res.finalHash = stateHash(world);
        if (injector)
            res.faultStats = injector->stats();
        res.violations = controller.violations();
        res.reexecutions = controller.reexecutions();
    } catch (const std::exception &e) {
        // Failures outside the step loop (scenario construction, an
        // invalid policy) have no checkpoint to return to.
        res.status = WorldStatus::Quarantined;
        res.quarantineReason = std::string("exception: ") + e.what();
    }
    res.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
}

std::vector<WorldResult>
BatchScheduler::run(const std::vector<JobSpec> &jobs)
{
    // Deterministic expansion order: spec order, then replica order.
    std::vector<WorldTask> tasks;
    for (const JobSpec &spec : jobs) {
        for (int r = 0; r < std::max(1, spec.replicas); ++r) {
            WorldTask task;
            task.spec = &spec;
            task.replica = r;
            task.index = static_cast<int>(tasks.size());
            // "Random" fans replicas out over consecutive seeds.
            task.scenario = spec.scenario == "Random"
                ? "Random#" + std::to_string(spec.seed + r)
                : spec.scenario;
            tasks.push_back(std::move(task));
        }
    }

    // ---- Admission control (backpressure) ----------------------
    // Decide what to even attempt *before* simulating anything.
    // Rejection is deterministic — always the expansion-order tail —
    // and structured: status, reason, and a retry-after hint.
    const int wanted = static_cast<int>(tasks.size());
    const int admitted = config_.maxPendingWorlds > 0
        ? std::min(wanted, config_.maxPendingWorlds)
        : wanted;
    for (int i = admitted; i < wanted; ++i) {
        WorldTask &task = tasks[i];
        WorldResult &res = task.result;
        res.scenario = task.scenario;
        res.replica = task.replica;
        res.status = WorldStatus::Rejected;
        // Retry hint: one world's worth of time, plus the admitted
        // queue ahead of the caller. Deliberately coarse — a pacing
        // hint for the client, not a promise — and deliberately a
        // function of queue depth only, never thread count, so the
        // whole result stream stays bitwise identical across pool
        // sizes (the determinism gate diffs rejection lines too).
        const int64_t perWorld = config_.worldBudgetMicros > 0
            ? config_.worldBudgetMicros
            : static_cast<int64_t>(std::max(1, task.spec->steps)) * 1000;
        res.retryAfterMicros = perWorld +
            perWorld * static_cast<int64_t>(admitted);
        res.quarantineReason = "Rejected (overload: pending " +
            std::to_string(admitted) + " of max " +
            std::to_string(config_.maxPendingWorlds) + ", retry after " +
            std::to_string(res.retryAfterMicros) + "us)";
        metrics::Registry::global().count("srv/rejected");
    }

    pool_->parallelFor(
        admitted, [&](int i) { runWorld(tasks[i]); }, /*grain=*/1);

    // Rehabilitation pass: every quarantined world gets full-precision
    // from-scratch reruns (each on a fresh fault stream). Serial and
    // in task order, so batch results stay deterministic across thread
    // counts. A cured world's result replaces the quarantined one,
    // with the combined ladder history; a failed rehab keeps the
    // original structured reason.
    if (config_.rehabAttempts > 0) {
        for (WorldTask &task : tasks) {
            // Rejected worlds never ran; deadline-exceeded worlds are
            // too slow, and a full-precision rerun would only amplify
            // the overload that quarantined them.
            if (task.result.status != WorldStatus::Quarantined ||
                task.result.deadlineExceeded)
                continue;
            WorldResult original = std::move(task.result);
            bool cured = false;
            for (int attempt = 1;
                 attempt <= config_.rehabAttempts && !cured; ++attempt) {
                task.result = WorldResult{};
                runWorld(task, attempt);
                cured = task.result.status == WorldStatus::Completed;
            }
            if (cured) {
                WorldResult &res = task.result;
                res.rehabilitated = true;
                res.rollbacks += original.rollbacks;
                RecoveryEvent ev;
                ev.step = res.stepsDone;
                ev.action = "rehabilitated";
                ev.cause = original.quarantineReason;
                std::vector<RecoveryEvent> events =
                    std::move(original.recoveryEvents);
                events.insert(events.end(), res.recoveryEvents.begin(),
                              res.recoveryEvents.end());
                events.push_back(std::move(ev));
                res.recoveryEvents = std::move(events);
                metrics::Registry::global().count(
                    "srv/recovery/rehabilitated");
            } else {
                task.result = std::move(original);
                task.result.quarantineReason += "; rehabilitation failed";
                RecoveryEvent ev;
                ev.step = task.result.stepsDone;
                ev.action = "rehab-failed";
                ev.cause = task.result.quarantineReason;
                task.result.recoveryEvents.push_back(std::move(ev));
                metrics::Registry::global().count(
                    "srv/recovery/rehab_failed");
            }
        }
    }

    std::vector<WorldResult> results;
    results.reserve(tasks.size());
    for (WorldTask &task : tasks)
        results.push_back(std::move(task.result));
    return results;
}

} // namespace srv
} // namespace hfpu
