#ifndef HFPU_PHYS_JOINT_H
#define HFPU_PHYS_JOINT_H

/**
 * @file
 * Constraint joints solved by the LCP phase alongside contacts:
 * ball-and-socket (ragdoll shoulders/hips), hinge (elbows/knees,
 * pendula), fixed (welds; breakable for pre-fractured structures), and
 * distance (cloth/rope links between particle bodies).
 *
 * Each joint contributes ODE-style padded Jacobian rows (see row.h) to
 * its island's projected-Gauss-Seidel solve. A ball joint, for
 * example, is three rows whose linear blocks are +/- basis vectors —
 * the structural units and zeros that make the LCP phase so amenable
 * to trivialization under precision reduction.
 */

#include <limits>
#include <memory>
#include <vector>

#include "math/quat.h"
#include "math/vec3.h"
#include "phys/body.h"
#include "phys/row.h"

namespace hfpu {
namespace phys {

/** Base class of all joints. */
class Joint
{
  public:
    enum class Type : uint8_t { Ball, Hinge, Fixed, Distance };

    /** @throws std::invalid_argument when @p a == @p b. */
    Joint(Type type, BodyId a, BodyId b);
    virtual ~Joint() = default;

    Type type() const { return type_; }
    BodyId bodyA() const { return a_; }
    BodyId bodyB() const { return b_; }

    /**
     * Emit this joint's constraint rows for the current step. Resets
     * the per-step impulse accumulator.
     */
    virtual void appendRows(std::vector<RigidBody> &bodies, float dt,
                            float erp,
                            std::vector<SolverRow> &rows) = 0;

    /**
     * Most rows appendRows() can emit (a hinge's stop row only while
     * a limit is violated); the solver's lane grouping key.
     */
    virtual int maxRows() const = 0;

    /** @name Breakage. */
    /** @{ */
    /** Impulse magnitude above which the joint breaks (inf = never). */
    float breakImpulse = std::numeric_limits<float>::infinity();
    bool broken() const { return broken_; }
    /** Solver feedback: total |lambda| of this joint's rows. */
    void
    noteImpulse(float magnitude)
    {
        accumulatedImpulse_ += magnitude;
    }
    void resetImpulse() { accumulatedImpulse_ = 0.0f; }
    /** Called by the world after solving; applies the break rule. */
    void
    updateBreakage()
    {
        if (accumulatedImpulse_ > breakImpulse)
            broken_ = true;
    }
    float accumulatedImpulse() const { return accumulatedImpulse_; }
    /**
     * Checkpoint restore (recovery ladder): breakage is the only
     * mutable per-joint simulation state, so rolling a world back must
     * be able to un-break a joint that broke after the checkpoint.
     */
    void
    restoreBreakage(bool broken, float accumulated)
    {
        broken_ = broken;
        accumulatedImpulse_ = accumulated;
    }
    /** @} */

  protected:
    Type type_;
    BodyId a_;
    BodyId b_;
    float accumulatedImpulse_ = 0.0f;
    bool broken_ = false;
};

/** Point-to-point (ball-and-socket) joint: three linear rows. */
class BallJoint : public Joint
{
  public:
    /**
     * @param anchor world-space anchor at creation time; converted to
     *               each body's local frame.
     */
    BallJoint(std::vector<RigidBody> &bodies, BodyId a, BodyId b,
              const Vec3 &anchor);

    void appendRows(std::vector<RigidBody> &bodies, float dt, float erp,
                    std::vector<SolverRow> &rows) override;
    int maxRows() const override { return 3; }

  protected:
    /** Emit only the three point-constraint rows (reused by Hinge and
     *  Fixed). */
    void appendPointRows(std::vector<RigidBody> &bodies, float dt,
                         float erp, std::vector<SolverRow> &rows);

    Vec3 localA_, localB_; // anchor in each body frame
};

/** Hinge: ball rows plus two angular rows orthogonal to the axis,
 *  with optional rotation limits (joint stops). */
class HingeJoint : public BallJoint
{
  public:
    HingeJoint(std::vector<RigidBody> &bodies, BodyId a, BodyId b,
               const Vec3 &anchor, const Vec3 &axis);

    /**
     * Constrain the hinge angle to [lo, hi] radians (measured from the
     * relative orientation at joint creation). Limit rows are
     * unilateral, like contact rows.
     */
    void setLimits(float lo, float hi);
    bool hasLimits() const { return hasLimits_; }

    /** Current hinge angle relative to the creation pose (radians). */
    float angle(const std::vector<RigidBody> &bodies) const;

    void appendRows(std::vector<RigidBody> &bodies, float dt, float erp,
                    std::vector<SolverRow> &rows) override;
    int maxRows() const override { return hasLimits_ ? 6 : 5; }

  private:
    Vec3 localAxisA_, localAxisB_;
    /** Reference directions perpendicular to the axis, for angle
     *  measurement (one per body frame). */
    Vec3 localRefA_, localRefB_;
    bool hasLimits_ = false;
    float loLimit_ = 0.0f, hiLimit_ = 0.0f;
};

/** Weld joint: ball rows plus three angular lock rows; breakable. */
class FixedJoint : public BallJoint
{
  public:
    FixedJoint(std::vector<RigidBody> &bodies, BodyId a, BodyId b,
               const Vec3 &anchor);

    void appendRows(std::vector<RigidBody> &bodies, float dt, float erp,
                    std::vector<SolverRow> &rows) override;
    int maxRows() const override { return 6; }

  private:
    math::Quat relOrient0_; // initial qA^-1 * qB
};

/** Distance constraint between body centers: one linear row. */
class DistanceJoint : public Joint
{
  public:
    DistanceJoint(std::vector<RigidBody> &bodies, BodyId a, BodyId b);
    DistanceJoint(BodyId a, BodyId b, float rest_length);

    void appendRows(std::vector<RigidBody> &bodies, float dt, float erp,
                    std::vector<SolverRow> &rows) override;
    int maxRows() const override { return 1; }

    float restLength() const { return restLength_; }

  private:
    float restLength_;
};

} // namespace phys
} // namespace hfpu

#endif // HFPU_PHYS_JOINT_H
