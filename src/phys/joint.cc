#include "phys/joint.h"

#include <cmath>
#include <stdexcept>

#include "fp/precision.h"

namespace hfpu {
namespace phys {

using math::Quat;

namespace {

using fp::fdiv;
using fp::fmul;
using fp::fsub;

constexpr float kInf = std::numeric_limits<float>::infinity();

const Vec3 kBasis[3] = {
    {1.0f, 0.0f, 0.0f}, {0.0f, 1.0f, 0.0f}, {0.0f, 0.0f, 1.0f}};

/** World anchor offset from a body-local anchor. */
Vec3
worldAnchorOffset(const RigidBody &body, const Vec3 &local)
{
    return body.orient.rotate(local);
}

/** A bilateral row with no friction coupling. */
SolverRow
bilateralRow(BodyId a, BodyId b, Joint *owner)
{
    SolverRow row;
    row.a = a;
    row.b = b;
    row.lo = -kInf;
    row.hi = kInf;
    row.owner = owner;
    return row;
}

} // namespace

// --------------------------------------------------------------- Joint

Joint::Joint(Type type, BodyId a, BodyId b) : type_(type), a_(a), b_(b)
{
    // A row's two sides must be two bodies: the LCP lane kernel reads
    // both velocities before it writes either.
    if (a == b)
        throw std::invalid_argument("Joint: a joint needs two bodies");
}

// ----------------------------------------------------------- BallJoint

BallJoint::BallJoint(std::vector<RigidBody> &bodies, BodyId a, BodyId b,
                     const Vec3 &anchor)
    : Joint(Type::Ball, a, b)
{
    const RigidBody &ba = bodies[a];
    const RigidBody &bb = bodies[b];
    localA_ = ba.orient.conjugate().rotate(anchor - ba.pos);
    localB_ = bb.orient.conjugate().rotate(anchor - bb.pos);
}

void
BallJoint::appendPointRows(std::vector<RigidBody> &bodies, float dt,
                           float erp, std::vector<SolverRow> &rows)
{
    RigidBody &a = bodies[a_];
    RigidBody &b = bodies[b_];
    const Vec3 r_a = worldAnchorOffset(a, localA_);
    const Vec3 r_b = worldAnchorOffset(b, localB_);
    const Vec3 error = (b.pos + r_b) - (a.pos + r_a);
    const float gain = fdiv(erp, dt);
    // One row per world axis: the linear Jacobian blocks are the
    // +/- basis vectors (unit and zero entries).
    for (int k = 0; k < 3; ++k) {
        SolverRow row = bilateralRow(a_, b_, this);
        row.ja.lin = -kBasis[k];
        row.ja.ang = -(r_a.cross(kBasis[k]));
        row.jb.lin = kBasis[k];
        row.jb.ang = r_b.cross(kBasis[k]);
        row.rhs = -fmul(error.dot(kBasis[k]), gain);
        finishRow(row, bodies);
        rows.push_back(row);
    }
}

void
BallJoint::appendRows(std::vector<RigidBody> &bodies, float dt, float erp,
                      std::vector<SolverRow> &rows)
{
    resetImpulse();
    appendPointRows(bodies, dt, erp, rows);
}

// ---------------------------------------------------------- HingeJoint

HingeJoint::HingeJoint(std::vector<RigidBody> &bodies, BodyId a, BodyId b,
                       const Vec3 &anchor, const Vec3 &axis)
    : BallJoint(bodies, a, b, anchor)
{
    type_ = Type::Hinge;
    const Vec3 n = axis.normalized();
    localAxisA_ = bodies[a].orient.conjugate().rotate(n);
    localAxisB_ = bodies[b].orient.conjugate().rotate(n);
    // A perpendicular reference pair for measuring the hinge angle.
    const Vec3 perp_seed = std::fabs(n.x) < 0.9f
        ? Vec3{1.0f, 0.0f, 0.0f} : Vec3{0.0f, 1.0f, 0.0f};
    const Vec3 perp = n.cross(perp_seed).normalized();
    localRefA_ = bodies[a].orient.conjugate().rotate(perp);
    localRefB_ = bodies[b].orient.conjugate().rotate(perp);
}

void
HingeJoint::setLimits(float lo, float hi)
{
    hasLimits_ = true;
    loLimit_ = lo;
    hiLimit_ = hi;
}

float
HingeJoint::angle(const std::vector<RigidBody> &bodies) const
{
    // Angle of B's reference around the hinge axis relative to A's.
    const RigidBody &a = bodies[a_];
    const RigidBody &b = bodies[b_];
    const Vec3 axis = a.orient.rotate(localAxisA_);
    const Vec3 ref_a = a.orient.rotate(localRefA_);
    const Vec3 ref_b = b.orient.rotate(localRefB_);
    // Host trig: angle measurement is bookkeeping, like the energy
    // monitor.
    const float cos_t = ref_a.dot(ref_b);
    const float sin_t = axis.dot(ref_a.cross(ref_b));
    return std::atan2(sin_t, cos_t);
}

void
HingeJoint::appendRows(std::vector<RigidBody> &bodies, float dt, float erp,
                       std::vector<SolverRow> &rows)
{
    resetImpulse();
    appendPointRows(bodies, dt, erp, rows);

    RigidBody &a = bodies[a_];
    RigidBody &b = bodies[b_];
    const Vec3 axis_a = a.orient.rotate(localAxisA_);
    const Vec3 axis_b = b.orient.rotate(localAxisB_);

    // Two constraint directions orthogonal to the hinge axis.
    const Vec3 ref = std::fabs(axis_a.x) < 0.9f
        ? Vec3{1.0f, 0.0f, 0.0f} : Vec3{0.0f, 1.0f, 0.0f};
    const Vec3 u1 = axis_a.cross(ref).normalized();
    const Vec3 u2 = axis_a.cross(u1);

    // Axis misalignment enters as a rotation-vector error.
    const Vec3 error = axis_a.cross(axis_b);
    const float gain = fdiv(erp, dt);
    for (const Vec3 &u : {u1, u2}) {
        SolverRow row = bilateralRow(a_, b_, this);
        row.ja.ang = -u; // purely angular: linear blocks stay zero
        row.jb.ang = u;
        row.rhs = -fmul(error.dot(u), gain);
        finishRow(row, bodies);
        rows.push_back(row);
    }

    // Joint stops: a unilateral angular row along the axis when the
    // angle exceeds a limit (same shape as a contact's
    // non-penetration row).
    if (hasLimits_) {
        const float theta = angle(bodies);
        const bool below = theta < loLimit_;
        const bool above = theta > hiLimit_;
        if (below || above) {
            SolverRow row = bilateralRow(a_, b_, this);
            // Positive lambda pushes the angle back into range.
            const float sign = below ? 1.0f : -1.0f;
            row.ja.ang = axis_a * -sign;
            row.jb.ang = axis_a * sign;
            const float violation =
                below ? loLimit_ - theta : theta - hiLimit_;
            row.rhs = fmul(violation, gain);
            row.lo = 0.0f;
            row.hi = std::numeric_limits<float>::infinity();
            finishRow(row, bodies);
            rows.push_back(row);
        }
    }
}

// ---------------------------------------------------------- FixedJoint

FixedJoint::FixedJoint(std::vector<RigidBody> &bodies, BodyId a, BodyId b,
                       const Vec3 &anchor)
    : BallJoint(bodies, a, b, anchor)
{
    type_ = Type::Fixed;
    relOrient0_ = bodies[a].orient.conjugate() * bodies[b].orient;
}

void
FixedJoint::appendRows(std::vector<RigidBody> &bodies, float dt, float erp,
                       std::vector<SolverRow> &rows)
{
    resetImpulse();
    appendPointRows(bodies, dt, erp, rows);

    RigidBody &a = bodies[a_];
    RigidBody &b = bodies[b_];
    // Orientation error as a rotation vector: 2 * vec(q_err) where
    // q_err = qB * (qA * q0)^-1.
    const Quat target = a.orient * relOrient0_;
    Quat err = b.orient * target.conjugate();
    if (err.w < 0.0f)
        err = {-err.w, -err.x, -err.y, -err.z};
    const Vec3 ang_error =
        Vec3{err.x, err.y, err.z} * fmul(2.0f, fdiv(erp, dt));
    for (int k = 0; k < 3; ++k) {
        SolverRow row = bilateralRow(a_, b_, this);
        row.ja.ang = -kBasis[k]; // angular lock, unit entries
        row.jb.ang = kBasis[k];
        row.rhs = -ang_error.dot(kBasis[k]);
        finishRow(row, bodies);
        rows.push_back(row);
    }
}

// ------------------------------------------------------- DistanceJoint

DistanceJoint::DistanceJoint(std::vector<RigidBody> &bodies, BodyId a,
                             BodyId b)
    : Joint(Type::Distance, a, b),
      restLength_(distance(bodies[a].pos, bodies[b].pos))
{
}

DistanceJoint::DistanceJoint(BodyId a, BodyId b, float rest_length)
    : Joint(Type::Distance, a, b), restLength_(rest_length)
{
}

void
DistanceJoint::appendRows(std::vector<RigidBody> &bodies, float dt,
                          float erp, std::vector<SolverRow> &rows)
{
    resetImpulse();
    RigidBody &a = bodies[a_];
    RigidBody &b = bodies[b_];
    const Vec3 d = b.pos - a.pos;
    const float len = d.length();
    const Vec3 dir =
        len > 1e-9f ? d * fdiv(1.0f, len) : Vec3{0.0f, 1.0f, 0.0f};

    SolverRow row = bilateralRow(a_, b_, this);
    row.ja.lin = -dir; // angular blocks stay zero (point masses)
    row.jb.lin = dir;
    row.rhs = -fmul(fsub(len, restLength_), fdiv(erp, dt));
    finishRow(row, bodies);
    rows.push_back(row);
}

} // namespace phys
} // namespace hfpu
