#ifndef HFPU_PHYS_WORLD_H
#define HFPU_PHYS_WORLD_H

/**
 * @file
 * The simulation world: owns bodies and joints and drives the paper's
 * phase pipeline (Figure 1) each step -- force application, broad
 * phase, narrow phase, island partitioning, per-island LCP solve, and
 * integration -- with phase tags on all floating-point work so
 * precision reduction, instrumentation, and tracing apply per phase.
 *
 * The optional PrecisionController implements the dynamic adaptation
 * loop of Section 4.2 including full-precision re-execution of a step
 * that blew up. The optional WorkUnitListener sees the boundaries of
 * the narrow phase's pair work units and the LCP's island-iteration
 * work units, which is how the cycle simulator's traces are segmented.
 */

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "fp/types.h"
#include "phys/body.h"
#include "phys/broadphase.h"
#include "phys/contact.h"
#include "phys/controller.h"
#include "phys/energy.h"
#include "phys/island.h"
#include "phys/joint.h"
#include "phys/parallel.h"
#include "phys/solver.h"

namespace hfpu {
namespace phys {

/** World-level tunables (defaults follow the paper's methodology). */
struct WorldConfig {
    Vec3 gravity{0.0f, -9.81f, 0.0f};
    float dt = 0.01f;           //!< paper: 0.01 s, 3 steps per frame
    SolverConfig solver;        //!< 20 LCP iterations by default
    bool sleepingEnabled = true;
    float sleepLinVelSq = 1e-4f;
    float sleepAngVelSq = 1e-4f;
    int sleepSteps = 20;        //!< quiet steps before disabling
    /**
     * Worker threads for the two massively parallel phases (the
     * paper's pthreads work-queue model; 1 = serial). Results are
     * bit-exact regardless. When a WorkUnitListener or an op recorder
     * is attached the engine runs those phases serially so the
     * observation stream stays ordered.
     */
    int threads = 1;
};

/** Observer of per-phase work-unit boundaries (for trace capture). */
class WorkUnitListener
{
  public:
    virtual ~WorkUnitListener() = default;
    /** A narrow-phase pair or an LCP island-iteration begins. */
    virtual void beginUnit(fp::Phase phase, int index) = 0;
    virtual void endUnit() = 0;
    virtual void beginStep(int step) { (void)step; }
    virtual void endStep() {}
};

/** The simulation world. */
class World
{
  public:
    explicit World(const WorldConfig &config = {});

    /** @name Construction. */
    /** @{ */
    BodyId addBody(const RigidBody &body);
    Joint *addJoint(std::unique_ptr<Joint> joint);
    /** @} */

    /** @name Access. */
    /** @{ */
    RigidBody &body(BodyId id) { return bodies_[id]; }
    const RigidBody &body(BodyId id) const { return bodies_[id]; }
    std::vector<RigidBody> &bodies() { return bodies_; }
    const std::vector<RigidBody> &bodies() const { return bodies_; }
    size_t bodyCount() const { return bodies_.size(); }
    const std::vector<std::unique_ptr<Joint>> &joints() const
    {
        return joints_;
    }
    const WorldConfig &config() const { return config_; }
    /** @} */

    /**
     * Attach the dynamic precision controller (may be null to run at
     * whatever precision the thread context is set to). Not owned.
     */
    void setController(PrecisionController *controller)
    {
        controller_ = controller;
    }
    PrecisionController *controller() const { return controller_; }

    /** Attach the work-unit listener (not owned; may be null). */
    void setWorkUnitListener(WorkUnitListener *listener)
    {
        listener_ = listener;
    }

    /**
     * Reconfigure the worker pool after construction (values below 1
     * are clamped to 1 = serial). Must not be called mid-step.
     * Drops any shared pool installed via setSharedPool().
     */
    void
    setThreads(int threads)
    {
        if (threads < 1)
            threads = 1;
        config_.threads = threads;
        sharedPool_ = nullptr;
        pool_ = threads > 1 ? std::make_unique<WorkerPool>(threads)
                            : nullptr;
    }

    /**
     * Use an externally owned pool for the parallel phases instead of
     * a private one (nullptr reverts to serial). The batch simulation
     * service points every world at one shared pool, so island-level
     * parallelism inside a world composes with across-world
     * parallelism; WorkerPool::parallelFor is reentrant, which makes
     * the nested submission safe. Results are bit-exact regardless of
     * pool ownership or thread count.
     */
    void
    setSharedPool(WorkerPool *pool)
    {
        sharedPool_ = pool;
        pool_.reset();
        config_.threads = pool != nullptr ? pool->threads() : 1;
    }

    /**
     * Advance the simulation by one dt step.
     *
     * @throws std::invalid_argument when the configured dt is
     *         non-finite or non-positive — garbage dt would otherwise
     *         propagate silently through the integrator into every
     *         body's state.
     */
    void step();

    int stepCount() const { return step_; }

    /** @name Checkpoint ring (recovery ladder).
     * The controller's single-snapshot re-execute (Section 4.2)
     * handles one bad step; the ring generalizes it so a supervisor
     * (the batch scheduler) can roll back K steps when a fault is only
     * detected after the fact. A checkpoint captures everything a
     * step can mutate: body state incl. pending force/torque and the
     * body count (projectile spawns append bodies), joint breakage,
     * and pending injected energy. The broadphase needs no capture —
     * its pair set is a pure function of body state.
     */
    /** @{ */
    /** Ring size; 0 (the default) disables checkpointing entirely. */
    void setCheckpointCapacity(int capacity);
    int checkpointCapacity() const { return checkpointCapacity_; }
    /**
     * Capture the current (pre-step) state. Call before each step;
     * re-pushing at an already-checkpointed step count replaces that
     * entry (happens when a step is retried after a rollback).
     */
    void pushCheckpoint();
    /** Deepest rollback depth available (-1 = no checkpoints). */
    int rollbackAvailable() const;
    /**
     * Restore the checkpoint taken at stepCount() - k, rewinding the
     * step counter; k = 0 retries the current step from its own
     * pre-step checkpoint. Checkpoints at or past the target are
     * consumed. Returns false (world untouched) when no checkpoint
     * exists at that depth.
     */
    bool rollbackSteps(int k);
    /** @} */

    /** @name Energy accounting. */
    /** @{ */
    /** Full-precision total energy of the current state. */
    EnergyBreakdown computeCurrentEnergy() const;
    /** Energy measured at the end of the last step. */
    const EnergyBreakdown &lastEnergy() const { return lastEnergy_; }
    /**
     * Register externally injected energy (explosions, spawns, player
     * impulses); counted against the next step's energy delta.
     */
    void noteInjectedEnergy(double joules)
    {
        injectedEnergy_ += joules;
    }
    /** Injected energy consumed by the most recent step. */
    double lastInjectedEnergy() const { return lastInjected_; }
    /** @} */

    /** @name Scenario helpers (with injection accounting). */
    /** @{ */
    /**
     * Radial impulse field: each dynamic body within @p radius gets an
     * outward velocity kick of up to @p speed (linear falloff).
     */
    void applyExplosion(const Vec3 &center, float speed, float radius);

    /** Spawn a moving body, accounting for its injected energy. */
    BodyId spawnProjectile(const Shape &shape, float mass,
                           const Vec3 &pos, const Vec3 &vel);

    /** Impulse at a point, with injection accounting. */
    void kick(BodyId id, const Vec3 &impulse, const Vec3 &point);
    /** @} */

    /** @name Last-step introspection (tests, stats). */
    /** @{ */
    const ContactList &lastContacts() const { return contacts_; }
    const std::vector<Island> &lastIslands() const { return islands_; }
    int lastPairCount() const { return lastPairCount_; }
    bool stateFinite() const;

    /**
     * Record the solver's accumulated impulses each step (off by
     * default; golden traces and the believability property tests turn
     * it on). Adds no FP ops through the precision layer, so op-count
     * statistics are unaffected.
     */
    void setCaptureImpulses(bool capture) { captureImpulses_ = capture; }
    bool captureImpulses() const { return captureImpulses_; }
    /**
     * Last step's impulses in deterministic (island, row) order;
     * empty unless capture is enabled. Identical across thread counts.
     */
    const std::vector<SolverImpulse> &lastImpulses() const
    {
        return lastImpulses_;
    }
    /** @} */

  private:
    struct BodyState {
        Vec3 pos, linVel, angVel;
        Quat orient;
        bool asleep;
        int sleepFrames;
    };

    /** One entry of the checkpoint ring (full pre-step state). */
    struct Checkpoint {
        int step = 0;
        double injectedEnergy = 0.0;
        std::vector<BodyState> bodies;
        std::vector<Vec3> forces;  //!< pending per-body force
        std::vector<Vec3> torques; //!< pending per-body torque
        /** Per-joint (broken, accumulated impulse), joint order. */
        std::vector<std::pair<bool, float>> joints;
    };

    void runPhases();
    void applyForces();
    void integrate();
    void updateSleeping();
    std::vector<BodyState> saveState() const;
    void restoreState(const std::vector<BodyState> &state);

    /** True when this step's parallel phases may use the pool. */
    bool parallelAllowed() const;

    /** The pool the parallel phases submit to (may be null = serial). */
    WorkerPool *
    activePool() const
    {
        return sharedPool_ != nullptr ? sharedPool_ : pool_.get();
    }

    WorldConfig config_;
    std::unique_ptr<WorkerPool> pool_;
    WorkerPool *sharedPool_ = nullptr; //!< not owned (batch service)
    SweepAndPrune broadphase_;
    std::vector<RigidBody> bodies_;
    std::vector<std::unique_ptr<Joint>> joints_;
    PrecisionController *controller_ = nullptr;
    WorkUnitListener *listener_ = nullptr;

    ContactList contacts_;
    std::vector<Island> islands_;
    bool captureImpulses_ = false;
    std::vector<SolverImpulse> lastImpulses_;
    int lastPairCount_ = 0;
    int step_ = 0;
    std::deque<Checkpoint> checkpoints_;
    int checkpointCapacity_ = 0;
    double injectedEnergy_ = 0.0;
    double lastInjected_ = 0.0;
    EnergyBreakdown lastEnergy_;
};

} // namespace phys
} // namespace hfpu

#endif // HFPU_PHYS_WORLD_H
