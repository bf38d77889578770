#ifndef HFPU_SRV_BATCH_H
#define HFPU_SRV_BATCH_H

/**
 * @file
 * The batch multi-world simulation service: run N independent
 * scenario worlds — each with its own precision policy, controller,
 * and metric namespace — concurrently over one shared WorkerPool.
 * This is the cluster-of-cores usage model of the paper's Figure 6
 * sweep: the batch layer is a pure throughput multiplier, never a
 * behavior change.
 *
 * Parallelism is two-level. Worlds are handed out one at a time by
 * the pool's work queue (WorkerPool::parallelFor with a grain of one
 * world, so an idle thread claims the next unstarted world), and inside
 * a world the engine's island/narrow-phase parallelFor submits nested
 * batches to the same pool, so leftover threads help the worlds still
 * running. Per-world thread-local state (precision context, metric
 * namespace) is installed at every job-slice boundary, which is what
 * makes a worker safe to interleave chunks of different worlds.
 *
 * The determinism contract — enforced by the golden-trace and
 * scheduler test suites — is that a world's step-by-step state is a
 * pure function of its scenario and precision config: bitwise
 * identical run serially, batched on 1 thread, or batched on 16.
 *
 * Failure isolation is a recovery *ladder*, not a single trapdoor.
 * When a step fails — non-finite state, a blow-up a Fixed-mode
 * controller reports, or a thrown exception (including injected
 * faults, src/fault) — the scheduler rolls the world back K steps to a
 * checkpoint from the world's ring (World::pushCheckpoint is called
 * before every step), replays the window at full precision through
 * PrecisionController::holdFullPrecision (precision backoff), and only
 * after the per-world retry budget is exhausted quarantines the world
 * with a structured reason — without taking down the rest of the
 * batch. Quarantined worlds get a rehabilitation pass at the end of
 * the batch: a from-scratch rerun at full precision that replaces the
 * quarantined result when it completes. Every recovery action is
 * recorded in WorldResult::recoveryEvents and counted in the metrics
 * registry, so a chaos campaign is diagnosable from the JSON artifact
 * alone.
 *
 * Overload resilience is the service-side mirror of that fault
 * ladder: when the system cannot serve every world within its time
 * budget, it sheds *precision* before it sheds *work*.
 *
 *  - Deadline budgets. Every step is charged to a Clock
 *    (phys/clock.h); per-step deadlines and a per-world budget are
 *    accounted from the world's own charges only, so under the
 *    deterministic virtual clock the entire overload behavior —
 *    misses, ladder transitions, quarantines — replays bitwise from
 *    the seed at any thread count.
 *  - Graceful degradation. Deadline pressure walks the world down a
 *    ladder (phys::DegradationLevel): downshift mantissa widths
 *    within the believability guard, then cap LCP iterations, and
 *    only when the world budget is truly exhausted quarantine it
 *    with a structured DeadlineExceeded reason. Sustained on-time
 *    steps relax the ladder one rung at a time. Every transition is
 *    a DegradationEvent in the result, a metrics counter, and a row
 *    in the sim_server JSON artifact.
 *  - Admission control. A per-run cap on admitted worlds rejects
 *    excess load *before* simulating it, with a structured
 *    retry-after hint instead of silent queue growth.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "phys/clock.h"
#include "phys/controller.h"
#include "phys/parallel.h"
#include "scen/scenario.h"

namespace hfpu {
namespace srv {

/** One job: a scenario, a precision config, and a replication count. */
struct JobSpec {
    /**
     * Scenario name (scen::makeScenario), including the seeded
     * "Random#<seed>" form. Ignored when @p factory is set.
     */
    std::string scenario = "Everything";
    int steps = 100;
    /** Independent copies of this job (distinct worlds, same config). */
    int replicas = 1;
    /**
     * Base seed for "Random" scenarios: replica r of a "Random" job
     * simulates "Random#<seed + r>" so replicas explore distinct
     * worlds deterministically.
     */
    uint64_t seed = 0;
    /** Per-world precision policy. */
    phys::PrecisionPolicy policy;
    /**
     * Adapt precision with the controller's Section 4.2 loop; false
     * runs its guard-only Fixed mode at the policy floors.
     */
    bool useController = true;
    /** Record a per-step state-hash trace in the result. */
    bool hashTrace = false;
    /**
     * Fault-injection campaign for this job (all rates zero = none).
     * Each world draws an independent deterministic stream keyed by
     * its global batch index.
     */
    fault::FaultSpec faults;
    /** Test hook: build the scenario directly, overriding @p scenario. */
    std::function<scen::Scenario()> factory;
};

/** Terminal state of one world of a batch. */
enum class WorldStatus {
    Completed,   //!< ran all requested steps
    Quarantined, //!< isolated after a blow-up or an exception
    Rejected,    //!< never admitted (backpressure); retry later
};

/**
 * One transition of the overload-degradation ladder, in the order it
 * happened. `action` is "downshift", "cap-iterations", "relax", or
 * "quarantine"; `cause` is what drove it ("step-deadline",
 * "budget-pressure", "world-budget", or "recovered").
 */
struct DegradationEvent {
    int step = 0;          //!< world step count at the transition
    std::string action;
    std::string cause;
    /** Ladder level after the transition. */
    phys::DegradationLevel level = phys::DegradationLevel::None;
    int narrowBits = 0;    //!< narrow-phase mantissa floor in force
    int lcpBits = 0;       //!< LCP mantissa floor in force
    int iterationCap = 0;  //!< LCP iteration cap in force (0 = none)
    int64_t stepCostMicros = 0;   //!< cost of the step that tripped it
    int64_t budgetUsedMicros = 0; //!< cumulative world budget consumed
};

/** One action of the recovery ladder, in the order it happened. */
struct RecoveryEvent {
    int step = 0;            //!< world step count at detection
    /** "rollback", "quarantine", "rehabilitated", or "rehab-failed". */
    std::string action;
    /** What tripped the ladder ("non-finite state", "exception: ..."). */
    std::string cause;
    int rollbackSteps = 0;   //!< rollback depth (rollback events)
    double relDelta = 0.0;   //!< controller's last relative energy delta
    int budgetLeft = 0;      //!< retry budget remaining afterwards
};

/** Outcome of one world, in deterministic job-expansion order. */
struct WorldResult {
    std::string scenario; //!< resolved name (e.g. "Random#42")
    int replica = 0;
    WorldStatus status = WorldStatus::Completed;
    int stepsDone = 0;
    uint64_t finalHash = 0;   //!< stateHash after the last step
    std::vector<uint64_t> stepHashes; //!< per-step, when hashTrace
    double finalEnergy = 0.0;
    int violations = 0;       //!< controller throttle-ups
    int reexecutions = 0;     //!< controller full-precision redos
    int rollbacks = 0;        //!< recovery-ladder rollbacks taken
    bool rehabilitated = false; //!< completed only via the rehab pass
    std::vector<RecoveryEvent> recoveryEvents; //!< ladder history
    fault::FaultStats faultStats; //!< injections, when faults armed
    std::string quarantineReason; //!< empty unless quarantined/rejected
    double wallMs = 0.0;      //!< this world's own wall-clock time
    /** @name Overload accounting (zero unless deadlines configured). */
    /** @{ */
    std::vector<DegradationEvent> degradationEvents; //!< ladder history
    int deadlineMisses = 0;   //!< steps that exceeded the step deadline
    int64_t budgetUsedMicros = 0; //!< clock charge across all steps
    /** Quarantined specifically for exhausting its deadline budget. */
    bool deadlineExceeded = false;
    /** Rejected worlds: suggested wait before resubmitting (hint). */
    int64_t retryAfterMicros = 0;
    /** @} */
};

/** Streamed progress report (one per completed slice of a world). */
struct WorldProgress {
    int world = 0;            //!< global world index in the batch
    std::string scenario;
    int replica = 0;
    int stepsDone = 0;
    int stepsTotal = 0;
    double energy = 0.0;
    bool quarantined = false;
};

/** Scheduler tunables. */
struct BatchConfig {
    /** Pool size shared by both parallelism levels (>= 1). */
    int threads = 1;
    /**
     * Steps per job slice. Progress is streamed and per-world thread
     * state reinstalled at slice boundaries; 0 runs each world in one
     * slice.
     */
    int sliceSteps = 25;
    /**
     * Let worlds submit their island/narrow-phase batches to the
     * shared pool (two-level parallelism). Off = worlds run their
     * phases serially; results are bit-identical either way.
     */
    bool innerParallel = true;
    /** Capture solver impulses so state hashes cover them. */
    bool captureImpulses = true;
    /** @name Recovery ladder. */
    /** @{ */
    /**
     * Per-world checkpoint ring size (0 disables rollback; failures
     * then quarantine immediately, the pre-ladder behavior).
     */
    int checkpointCapacity = 4;
    /** Rollback depth per recovery (clamped to what the ring holds). */
    int rollbackSteps = 3;
    /** Recoveries allowed per world before it is quarantined. */
    int recoveryBudget = 3;
    /**
     * Full-precision from-scratch reruns granted to each quarantined
     * world at the end of the batch (0 disables rehabilitation).
     * Deadline-exceeded worlds are never rehabilitated — a
     * full-precision rerun of a world that was too slow is overload
     * amplification, not recovery.
     */
    int rehabAttempts = 1;
    /** @} */
    /** @name Deadline budgets and the degradation ladder. */
    /** @{ */
    /**
     * Time source for every latency decision (null = the process
     * steady clock). Point this at a phys::VirtualClock to make every
     * overload behavior deterministic and wall-time free. Not owned;
     * must outlive the scheduler.
     */
    phys::Clock *clock = nullptr;
    /**
     * Per-step deadline in microseconds (0 = off). A streak of
     * misses escalates the world one ladder rung.
     */
    int64_t stepDeadlineMicros = 0;
    /**
     * Total per-world time budget in microseconds (0 = off).
     * Projected overrun escalates the ladder; actual exhaustion
     * before the last step quarantines the world as DeadlineExceeded.
     */
    int64_t worldBudgetMicros = 0;
    /** Consecutive step-deadline misses before escalating one rung. */
    int degradeAfterMisses = 2;
    /** Consecutive on-time steps before relaxing one rung. */
    int relaxAfterSteps = 8;
    /** @} */
    /** @name Admission control / backpressure. */
    /** @{ */
    /**
     * Worlds admitted per run() call (0 = unbounded). Expansion-order
     * tail worlds beyond the bound are Rejected with a retry-after
     * hint instead of queued.
     */
    int maxPendingWorlds = 0;
    /** @} */
    /**
     * Progress sink, invoked under the scheduler's mutex (thread-safe
     * for the callee) after every slice. May be empty.
     */
    std::function<void(const WorldProgress &)> onProgress;
};

/**
 * Runs batches of simulation jobs over one shared worker pool. The
 * pool persists across run() calls, so a long-lived server pays
 * thread creation once.
 */
class BatchScheduler
{
  public:
    explicit BatchScheduler(const BatchConfig &config);
    ~BatchScheduler();

    BatchScheduler(const BatchScheduler &) = delete;
    BatchScheduler &operator=(const BatchScheduler &) = delete;

    /**
     * Expand every spec's replicas into worlds, simulate them all, and
     * return one result per world in expansion order (spec order, then
     * replica order) regardless of which thread ran what. Blocks until
     * the batch completes; quarantined worlds do not abort the batch.
     */
    std::vector<WorldResult> run(const std::vector<JobSpec> &jobs);

    int threads() const;

  private:
    struct WorldTask;

    /**
     * Simulate one world. @p rehabAttempt 0 is the primary run;
     * N > 0 is the Nth rehabilitation rerun (full precision, and a
     * distinct fault stream so injected transients do not recur).
     */
    void runWorld(WorldTask &task, int rehabAttempt = 0);

    BatchConfig config_;
    phys::Clock *clock_;
    std::unique_ptr<phys::WorkerPool> pool_;
    std::mutex progressMutex_;
};

} // namespace srv
} // namespace hfpu

#endif // HFPU_SRV_BATCH_H
