#include "phys/world.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "csim/metrics.h"
#include "fault/fault.h"
#include "fp/precision.h"
#include "phys/narrowphase.h"

namespace hfpu {
namespace phys {

using fp::Phase;
using fp::ScopedPhase;

namespace {

/** Adapter forwarding LCP iteration boundaries to the world listener. */
class IterationForwarder : public SolveObserver
{
  public:
    explicit IterationForwarder(WorkUnitListener *listener)
        : listener_(listener)
    {}

    void
    beginIteration(int island, int iteration) override
    {
        if (listener_)
            listener_->beginUnit(Phase::Lcp, island * 1000 + iteration);
    }

    void
    endIteration() override
    {
        if (listener_)
            listener_->endUnit();
    }

  private:
    WorkUnitListener *listener_;
};

} // namespace

World::World(const WorldConfig &config) : config_(config)
{
    if (config_.threads < 1)
        config_.threads = 1; // clamp to serial
    if (config_.threads > 1)
        pool_ = std::make_unique<WorkerPool>(config_.threads);
}

bool
World::parallelAllowed() const
{
    // An enabled fault injector serializes the phases (like a recorder
    // or listener) so its per-step draw sequence — and hence the whole
    // campaign — is deterministic, and its sites only ever run on the
    // thread that armed it.
    const fault::Injector *injector = fault::Injector::current();
    return activePool() != nullptr && listener_ == nullptr &&
        fp::PrecisionContext::current().recorder() == nullptr &&
        (injector == nullptr || !injector->spec().anyEnabled());
}

BodyId
World::addBody(const RigidBody &body)
{
    bodies_.push_back(body);
    return static_cast<BodyId>(bodies_.size() - 1);
}

Joint *
World::addJoint(std::unique_ptr<Joint> joint)
{
    joints_.push_back(std::move(joint));
    return joints_.back().get();
}

void
World::applyForces()
{
    // Gravity and accumulated forces enter the velocities before the
    // LCP solve (ODE's order), so contacts can cancel them this step.
    const float dt = config_.dt;
    for (RigidBody &body : bodies_) {
        if (body.isStatic() || body.asleep())
            continue;
        body.linVel += (config_.gravity + body.force * body.invMass()) * dt;
        body.angVel += (body.invInertiaWorld() * body.torque) * dt;
        body.force = {};
        body.torque = {};
    }
}

void
World::runPhases()
{
    auto &registry = metrics::Registry::global();
    {
        ScopedPhase other(Phase::Other);
        applyForces();
    }

    const std::vector<BodyPair> *pairs_ptr = nullptr;
    {
        ScopedPhase broad(Phase::Broad);
        metrics::ScopedTimer timer(registry, "phys/broad");
        pairs_ptr = &broadphase_.computePairs(bodies_);
    }
    const std::vector<BodyPair> &pairs = *pairs_ptr;
    lastPairCount_ = static_cast<int>(pairs.size());
    registry.count("phys/pairs", pairs.size());

    contacts_.clear();
    {
        ScopedPhase narrow(Phase::Narrow);
        metrics::ScopedTimer timer(registry, "phys/narrow");
        if (parallelAllowed()) {
            // Work-queue over independent pairs; per-pair buffers are
            // merged in pair order so results match the serial engine
            // bit for bit.
            std::vector<ContactList> per_pair(pairs.size());
            activePool()->parallelFor(
                static_cast<int>(pairs.size()), [&](int i) {
                    const BodyPair &p = pairs[i];
                    collide(bodies_[p.a], p.a, bodies_[p.b], p.b,
                            per_pair[i]);
                });
            for (size_t i = 0; i < pairs.size(); ++i) {
                contacts_.insert(contacts_.end(), per_pair[i].begin(),
                                 per_pair[i].end());
                if (!per_pair[i].empty()) {
                    RigidBody &a = bodies_[pairs[i].a];
                    RigidBody &b = bodies_[pairs[i].b];
                    if (a.asleep() && !b.isStatic() && !b.asleep())
                        a.wake();
                    if (b.asleep() && !a.isStatic() && !a.asleep())
                        b.wake();
                }
            }
        } else {
            for (int i = 0; i < static_cast<int>(pairs.size()); ++i) {
                if (listener_)
                    listener_->beginUnit(Phase::Narrow, i);
                const BodyPair &p = pairs[i];
                const size_t before = contacts_.size();
                collide(bodies_[p.a], p.a, bodies_[p.b], p.b, contacts_);
                if (listener_)
                    listener_->endUnit();
                if (contacts_.size() > before) {
                    // Contact with an active body wakes a sleeper.
                    RigidBody &a = bodies_[p.a];
                    RigidBody &b = bodies_[p.b];
                    if (a.asleep() && !b.isStatic() && !b.asleep())
                        a.wake();
                    if (b.asleep() && !a.isStatic() && !a.asleep())
                        b.wake();
                }
            }
        }
    }

    registry.count("phys/contacts", contacts_.size());

    {
        ScopedPhase island_phase(Phase::Island);
        metrics::ScopedTimer timer(registry, "phys/island");
        islands_ = buildIslands(bodies_, contacts_, joints_);
        // Wake whole islands that contain any awake member: a
        // half-asleep island cannot be solved consistently.
        for (const Island &island : islands_) {
            bool any_awake = false;
            for (BodyId id : island.bodies) {
                if (!bodies_[id].asleep()) {
                    any_awake = true;
                    break;
                }
            }
            if (any_awake) {
                for (BodyId id : island.bodies) {
                    if (bodies_[id].asleep())
                        bodies_[id].wake();
                }
            }
        }
    }

    registry.count("phys/islands", islands_.size());

    {
        ScopedPhase lcp(Phase::Lcp);
        metrics::ScopedTimer timer(registry, "phys/lcp");
        IterationForwarder forwarder(listener_);
        // Overload degradation: an attached controller's cap bounds the
        // relaxation passes.
        SolverConfig solverConfig = config_.solver;
        const int cap =
            controller_ != nullptr ? controller_->lcpIterationCap() : 0;
        if (cap > 0 && cap < solverConfig.iterations) {
            solverConfig.iterations = cap;
            registry.count("phys/lcp_iteration_capped");
        }
        // Per-island capture slots, flattened in island order below so
        // the record is deterministic under parallel solving.
        std::vector<std::vector<SolverImpulse>> captured(
            captureImpulses_ ? islands_.size() : 0);
        // Fully sleeping islands are skipped ("object disabling").
        auto asleep = [&](const Island &island) {
            for (BodyId id : island.bodies) {
                if (!bodies_[id].asleep())
                    return false;
            }
            return true;
        };
        const fault::Injector *injector = fault::Injector::current();
        const bool lanes = fp::PrecisionContext::current().plainMode() &&
            listener_ == nullptr &&
            (injector == nullptr || !injector->spec().anyEnabled());
        if (lanes) {
            // Full precision on the host FPU: similar-sized islands
            // relax together in SIMD lanes, bit-identical to the
            // per-island path below.
            std::vector<bool> awake(islands_.size());
            for (size_t i = 0; i < islands_.size(); ++i)
                awake[i] = !asleep(islands_[i]);
            LaneSolver solver(bodies_, contacts_, joints_, islands_, awake,
                              solverConfig, config_.dt);
            auto *out = captureImpulses_ ? &captured : nullptr;
            auto solveGroup = [&](int g) { solver.solveGroup(g, out); };
            if (parallelAllowed()) {
                activePool()->parallelFor(solver.groupCount(), solveGroup);
            } else {
                for (int g = 0; g < solver.groupCount(); ++g)
                    solveGroup(g);
            }
        } else {
            auto solveIsland = [&](int i) {
                // Fault seam: a non-numeric failure inside one island's
                // solve. Throws InjectedFault (state-affecting, so the
                // phases run serially and the throw unwinds out of
                // step() into the supervisor's recovery ladder).
                if (fault::Injector *inj = fault::Injector::current())
                    inj->maybeThrowIsland(i);
                const Island &island = islands_[i];
                if (asleep(island))
                    return;
                IslandSolver solver(bodies_, contacts_, joints_, island,
                                    solverConfig, config_.dt);
                solver.solve(i, listener_ ? &forwarder : nullptr);
                if (captureImpulses_) {
                    const auto &rows = solver.rows();
                    auto &out = captured[i];
                    out.reserve(rows.size());
                    for (size_t r = 0; r < rows.size(); ++r) {
                        SolverImpulse imp;
                        imp.island = i;
                        imp.row = static_cast<int>(r);
                        imp.normalRow = rows[r].normalRow;
                        imp.contact = r >= solver.jointRowCount();
                        imp.lambda = rows[r].lambda;
                        imp.mu = rows[r].mu;
                        out.push_back(imp);
                    }
                }
            };
            if (parallelAllowed()) {
                // Islands are independent LCPs (the paper's coarse-grain
                // LCP parallelism).
                activePool()->parallelFor(
                    static_cast<int>(islands_.size()), solveIsland);
            } else {
                for (int i = 0; i < static_cast<int>(islands_.size()); ++i)
                    solveIsland(i);
            }
        }
        lastImpulses_.clear();
        for (auto &island_rows : captured) {
            lastImpulses_.insert(lastImpulses_.end(),
                                 island_rows.begin(), island_rows.end());
        }
    }

    {
        ScopedPhase integ(Phase::Integrate);
        metrics::ScopedTimer timer(registry, "phys/integrate");
        integrate();
    }
    registry.count("phys/steps");

    if (config_.sleepingEnabled)
        updateSleeping();
}

void
World::integrate()
{
    const float dt = config_.dt;
    for (RigidBody &body : bodies_) {
        if (body.isStatic() || body.asleep())
            continue;
        body.pos += body.linVel * dt;
        body.orient = body.orient.integrated(body.angVel, dt);
        body.updateDerived();
    }
}

void
World::updateSleeping()
{
    for (RigidBody &body : bodies_) {
        if (body.isStatic() || body.asleep())
            continue;
        const bool quiet =
            body.linVel.lengthSq() < config_.sleepLinVelSq &&
            body.angVel.lengthSq() < config_.sleepAngVelSq;
        if (quiet) {
            if (++body.sleepFrames >= config_.sleepSteps)
                body.sleep();
        } else {
            body.sleepFrames = 0;
        }
    }
}

void
World::step()
{
    // Input validation: a non-finite or non-positive dt would not fail
    // here — it would quietly poison every velocity and position in
    // the integrator and surface steps later as a believability
    // violation. Fail fast with the actual value instead.
    if (!std::isfinite(config_.dt) || config_.dt <= 0.0f)
        throw std::invalid_argument(
            "World::step: config dt must be positive and finite, got " +
            std::to_string(config_.dt));

    if (listener_)
        listener_->beginStep(step_);

    // Only the adaptive loop re-executes, so only it needs a snapshot.
    std::vector<BodyState> snapshot;
    if (controller_) {
        if (controller_->mode() == PrecisionController::Mode::Adaptive)
            snapshot = saveState();
        controller_->beginStep();
    }

    runPhases();

    const double injected = injectedEnergy_;
    injectedEnergy_ = 0.0;
    lastInjected_ = injected;
    lastEnergy_ = computeCurrentEnergy();

    if (controller_) {
        const auto action = controller_->endStep(
            lastEnergy_.total(), injected, stateFinite());
        if (action == PrecisionController::Action::RequestReexecute) {
            // Fail-safe of Section 4.2: restore and redo the step at
            // full precision.
            restoreState(snapshot);
            controller_->beginStep(); // now at full precision
            runPhases();
            lastEnergy_ = computeCurrentEnergy();
            controller_->restartEnergyHistory(lastEnergy_.total());
        }
    }

    ++step_;
    if (listener_)
        listener_->endStep();
}

EnergyBreakdown
World::computeCurrentEnergy() const
{
    return computeEnergy(bodies_, config_.gravity);
}

void
World::applyExplosion(const Vec3 &center, float speed, float radius)
{
    const EnergyBreakdown before = computeCurrentEnergy();
    for (RigidBody &body : bodies_) {
        if (body.isStatic())
            continue;
        const Vec3 d = body.pos - center;
        const float dist = d.length();
        if (dist >= radius)
            continue;
        const Vec3 dir = dist > 1e-6f ? d * (1.0f / dist)
                                      : Vec3{0.0f, 1.0f, 0.0f};
        const float falloff = 1.0f - dist / radius;
        body.wake();
        body.linVel += dir * (speed * falloff);
    }
    const EnergyBreakdown after = computeCurrentEnergy();
    noteInjectedEnergy(after.total() - before.total());
}

BodyId
World::spawnProjectile(const Shape &shape, float mass, const Vec3 &pos,
                       const Vec3 &vel)
{
    RigidBody body(shape, mass, pos);
    body.linVel = vel;
    const BodyId id = addBody(body);
    // The new body's entire energy is external input.
    std::vector<RigidBody> single{bodies_[id]};
    noteInjectedEnergy(computeEnergy(single, config_.gravity).total());
    return id;
}

void
World::kick(BodyId id, const Vec3 &impulse, const Vec3 &point)
{
    const EnergyBreakdown before = computeCurrentEnergy();
    bodies_[id].applyImpulse(impulse, point);
    const EnergyBreakdown after = computeCurrentEnergy();
    noteInjectedEnergy(after.total() - before.total());
}

bool
World::stateFinite() const
{
    for (const RigidBody &body : bodies_) {
        if (!body.stateFinite())
            return false;
    }
    return true;
}

void
World::setCheckpointCapacity(int capacity)
{
    checkpointCapacity_ = std::max(0, capacity);
    while (static_cast<int>(checkpoints_.size()) > checkpointCapacity_)
        checkpoints_.pop_front();
}

void
World::pushCheckpoint()
{
    if (checkpointCapacity_ <= 0)
        return;
    if (!checkpoints_.empty() && checkpoints_.back().step == step_)
        checkpoints_.pop_back(); // retry of this step: replace
    Checkpoint cp;
    cp.step = step_;
    cp.injectedEnergy = injectedEnergy_;
    cp.bodies = saveState();
    cp.forces.reserve(bodies_.size());
    cp.torques.reserve(bodies_.size());
    for (const RigidBody &body : bodies_) {
        cp.forces.push_back(body.force);
        cp.torques.push_back(body.torque);
    }
    cp.joints.reserve(joints_.size());
    for (const auto &joint : joints_)
        cp.joints.emplace_back(joint->broken(),
                               joint->accumulatedImpulse());
    checkpoints_.push_back(std::move(cp));
    while (static_cast<int>(checkpoints_.size()) > checkpointCapacity_)
        checkpoints_.pop_front();
}

int
World::rollbackAvailable() const
{
    return checkpoints_.empty() ? -1
                                : step_ - checkpoints_.front().step;
}

bool
World::rollbackSteps(int k)
{
    if (k < 0)
        return false;
    const int target = step_ - k;
    auto it = checkpoints_.begin();
    while (it != checkpoints_.end() && it->step != target)
        ++it;
    if (it == checkpoints_.end())
        return false;
    const Checkpoint cp = std::move(*it);
    // Consume the target and everything after it: their state is
    // about to be rewritten, and the retry re-pushes as it replays.
    checkpoints_.erase(it, checkpoints_.end());

    // Steps may have appended bodies (projectile spawns) and never
    // remove them, so truncating restores the checkpointed set; same
    // for joints (only ever added at scenario build time).
    if (bodies_.size() > cp.bodies.size()) {
        bodies_.erase(bodies_.begin() +
                          static_cast<ptrdiff_t>(cp.bodies.size()),
                      bodies_.end());
    }
    if (joints_.size() > cp.joints.size()) {
        joints_.erase(joints_.begin() +
                          static_cast<ptrdiff_t>(cp.joints.size()),
                      joints_.end());
    }
    restoreState(cp.bodies);
    for (size_t i = 0; i < bodies_.size(); ++i) {
        bodies_[i].force = cp.forces[i];
        bodies_[i].torque = cp.torques[i];
    }
    for (size_t i = 0; i < joints_.size(); ++i)
        joints_[i]->restoreBreakage(cp.joints[i].first,
                                    cp.joints[i].second);
    step_ = cp.step;
    injectedEnergy_ = cp.injectedEnergy;
    lastInjected_ = 0.0;
    // Anything derived from the unwound steps is stale; recompute the
    // energy reading supervisors re-baseline their monitors from.
    contacts_.clear();
    islands_.clear();
    lastImpulses_.clear();
    lastPairCount_ = 0;
    lastEnergy_ = computeCurrentEnergy();
    return true;
}

std::vector<World::BodyState>
World::saveState() const
{
    std::vector<BodyState> state;
    state.reserve(bodies_.size());
    for (const RigidBody &body : bodies_) {
        state.push_back({body.pos, body.linVel, body.angVel, body.orient,
                         body.asleep(), body.sleepFrames});
    }
    return state;
}

void
World::restoreState(const std::vector<BodyState> &state)
{
    for (size_t i = 0; i < state.size(); ++i) {
        RigidBody &body = bodies_[i];
        body.pos = state[i].pos;
        body.linVel = state[i].linVel;
        body.angVel = state[i].angVel;
        body.orient = state[i].orient;
        body.sleepFrames = state[i].sleepFrames;
        if (state[i].asleep)
            body.sleep();
        else
            body.wake();
        body.updateDerived();
    }
}

} // namespace phys
} // namespace hfpu
