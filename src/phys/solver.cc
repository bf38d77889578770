#include "phys/solver.h"

#include <algorithm>
#include <cmath>

#include <emmintrin.h>

#include "csim/metrics.h"
#include "fp/precision.h"

namespace hfpu {
namespace phys {

using fp::fadd;
using fp::fdiv;
using fp::fmul;
using fp::fsub;

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

} // namespace

size_t
rowBound(const Island &island,
         const std::vector<std::unique_ptr<Joint>> &joints)
{
    size_t rows = 3 * island.contactIndices.size();
    for (int ji : island.jointIndices)
        rows += joints[ji]->maxRows();
    return rows;
}

IslandSolver::IslandSolver(std::vector<RigidBody> &bodies,
                           const ContactList &contacts,
                           std::vector<std::unique_ptr<Joint>> &joints,
                           const Island &island,
                           const SolverConfig &config, float dt)
    : bodies_(bodies), joints_(joints), island_(island), config_(config),
      dt_(dt)
{
    rows_.reserve(rowBound(island, joints_));
    for (int ji : island.jointIndices)
        joints_[ji]->appendRows(bodies_, dt_, config_.erp, rows_);
    jointRows_ = rows_.size();
    for (int ci : island.contactIndices)
        appendContactRows(contacts[ci]);
}

void
IslandSolver::appendContactRows(const Contact &c)
{
    RigidBody &a = bodies_[c.a];
    RigidBody &b = bodies_[c.b];
    const Vec3 r_a = c.pos - a.pos;
    const Vec3 r_b = c.pos - b.pos;
    const Vec3 &n = c.normal;

    // Non-penetration row. Baumgarte bias pushes bodies apart;
    // restitution adds a bounce target above the approach threshold.
    SolverRow normal;
    normal.a = c.a;
    normal.b = c.b;
    normal.ja.lin = -n;
    normal.ja.ang = -(r_a.cross(n));
    normal.jb.lin = n;
    normal.jb.ang = r_b.cross(n);
    const float pen = std::max(fsub(c.depth, config_.slop), 0.0f);
    float bias = -fmul(fdiv(config_.erp, dt_), pen);
    const float vn =
        fadd(normal.ja.dot(a), normal.jb.dot(b));
    const float rest = fmul(0.5f, fadd(a.restitution, b.restitution));
    if (vn < -config_.restitutionThreshold)
        bias = std::min(bias, fmul(rest, vn));
    normal.rhs = -bias;
    normal.lo = 0.0f;
    normal.hi = kInf;
    finishRow(normal, bodies_);
    const int normal_index = static_cast<int>(rows_.size());
    rows_.push_back(normal);

    // Two friction rows, box-clamped by mu * lambda_normal.
    const Vec3 ref = std::fabs(n.x) < 0.9f ? Vec3{1.0f, 0.0f, 0.0f}
                                           : Vec3{0.0f, 1.0f, 0.0f};
    const Vec3 t1 = n.cross(ref).normalized();
    const Vec3 t2 = n.cross(t1);
    const float mu = fp::fsqrt(fmul(a.friction, b.friction));
    for (const Vec3 &t : {t1, t2}) {
        SolverRow row;
        row.a = c.a;
        row.b = c.b;
        row.ja.lin = -t;
        row.ja.ang = -(r_a.cross(t));
        row.jb.lin = t;
        row.jb.ang = r_b.cross(t);
        row.rhs = 0.0f;
        row.normalRow = normal_index;
        row.mu = mu;
        finishRow(row, bodies_);
        rows_.push_back(row);
    }
}

void
IslandSolver::relaxOnce()
{
    for (SolverRow &row : rows_) {
        RigidBody &a = bodies_[row.a];
        RigidBody &b = bodies_[row.b];
        // The padded 6-element dot products (Section 4.3.2's op mix).
        const float cdot = fadd(row.ja.dot(a), row.jb.dot(b));
        float d_lambda =
            fmul(row.invEffMass, fsub(row.rhs, cdot));
        float lo = row.lo, hi = row.hi;
        if (row.normalRow >= 0) {
            const float limit =
                fmul(row.mu, rows_[row.normalRow].lambda);
            lo = -limit;
            hi = limit;
        }
        const float new_lambda =
            std::clamp(fadd(row.lambda, d_lambda), lo, hi);
        d_lambda = fsub(new_lambda, row.lambda);
        row.lambda = new_lambda;
        // Static bodies are immovable (their B blocks are zero); skip
        // the write so islands sharing a static body stay independent
        // under parallel solving.
        if (!a.isStatic()) {
            a.linVel += row.ba.lin * d_lambda;
            a.angVel += row.ba.ang * d_lambda;
        }
        if (!b.isStatic()) {
            b.linVel += row.bb.lin * d_lambda;
            b.angVel += row.bb.ang * d_lambda;
        }
    }
}

void
IslandSolver::solve(int island_index, SolveObserver *observer)
{
    // Island solves run concurrently under the worker pool; the
    // registry serializes internally.
    auto &registry = metrics::Registry::global();
    metrics::ScopedTimer timer(registry, "phys/lcp/solve");
    registry.count("phys/lcp/rows", rows_.size());
    for (int it = 0; it < config_.iterations; ++it) {
        if (observer)
            observer->beginIteration(island_index, it);
        relaxOnce();
        if (observer)
            observer->endIteration();
    }
    // Feed breakage: a joint accumulates the |lambda| of its rows.
    for (const SolverRow &row : rows_) {
        if (row.owner)
            row.owner->noteImpulse(std::fabs(row.lambda));
    }
    for (int ji : island_.jointIndices)
        joints_[ji]->updateBreakage();
}

// ------------------------------------------------------ the lane kernel
//
// Island k of a group runs in lane k / H of half k % H. With two
// halves their rows interleave, so two dependency chains overlap.
// Bodies live in one compact velocity array per group, and each
// lane-row names the slots its two sides read and write.

namespace {

/** One body's velocity in a lane group: linVel, angVel, two pads. */
struct alignas(32) VelSlot {
    float v[8];
};

/** Padding rows read this all-zero slot. */
constexpr int32_t kZeroSlot = 0;
/** Static sides and padding rows write this slot; nothing reads it. */
constexpr int32_t kDumpSlot = 1;

/** One constraint row of each of W lanes, structure of arrays. */
template <int W>
struct alignas(16) LaneRow {
    float j[4][3][W]; //!< ja.lin, ja.ang, jb.lin, jb.ang
    float b[4][3][W]; //!< ba.lin, ba.ang, bb.lin, bb.ang
    float invEffMass[W];
    float rhs[W];
    float lo[W];
    float hi[W];
    float mu[W];
    float lambda[W];
    int32_t normalRow[W]; //!< SolverRow::normalRow (island-local)
    int32_t normal[W];    //!< lane-row of that normal row
    int32_t readA[W], writeA[W], readB[W], writeB[W];
};

/** Zero coefficients, reading the zero slot, writing the dump slot. */
template <int W>
LaneRow<W>
paddingRow()
{
    LaneRow<W> pad{};
    std::fill_n(pad.normalRow, W, -1);
    std::fill_n(pad.readA, W, kZeroSlot);
    std::fill_n(pad.readB, W, kZeroSlot);
    std::fill_n(pad.writeA, W, kDumpSlot);
    std::fill_n(pad.writeB, W, kDumpSlot);
    return pad;
}

/** Four SSE lanes. */
struct Sse4 {
    static constexpr int kWidth = 4;
    using V = __m128;

    static V load(const float *p) { return _mm_load_ps(p); }
    static void store(float *p, V v) { _mm_store_ps(p, v); }
    static V add(V a, V b) { return _mm_add_ps(a, b); }
    static V sub(V a, V b) { return _mm_sub_ps(a, b); }
    static V mul(V a, V b) { return _mm_mul_ps(a, b); }
    static V neg(V a) { return _mm_xor_ps(a, _mm_set1_ps(-0.0f)); }

    /** All ones in the lanes of friction rows. */
    static V
    friction(const int32_t *normalRow)
    {
        const __m128i n =
            _mm_load_si128(reinterpret_cast<const __m128i *>(normalRow));
        return _mm_castsi128_ps(_mm_cmpgt_epi32(n, _mm_set1_epi32(-1)));
    }

    static V
    select(V mask, V a, V b)
    {
        return _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b));
    }

    /**
     * std::clamp's order from compare masks; minps/maxps would return
     * a different operand for NaN.
     */
    static V
    clamp(V v, V lo, V hi)
    {
        const V upper = select(_mm_cmplt_ps(hi, v), hi, v);
        return select(_mm_cmplt_ps(v, lo), lo, upper);
    }

    /**
     * The lanes' limiting normal impulses, assembled in registers: four
     * scalar stores and a vector load would stall store forwarding.
     */
    static V
    gatherLambda(const LaneRow<4> *rows, const int32_t *n)
    {
        return _mm_set_ps(rows[n[3]].lambda[3], rows[n[2]].lambda[2],
                          rows[n[1]].lambda[1], rows[n[0]].lambda[0]);
    }

    /** Velocity components 0..5 of each lane's slot, one per vector. */
    static void
    gather(const VelSlot *vel, const int32_t *slot, V out[6])
    {
        V l0 = _mm_load_ps(vel[slot[0]].v);
        V l1 = _mm_load_ps(vel[slot[1]].v);
        V l2 = _mm_load_ps(vel[slot[2]].v);
        V l3 = _mm_load_ps(vel[slot[3]].v);
        _MM_TRANSPOSE4_PS(l0, l1, l2, l3);
        out[0] = l0;
        out[1] = l1;
        out[2] = l2;
        out[3] = l3;
        const V t0 = _mm_unpacklo_ps(_mm_load_ps(vel[slot[0]].v + 4),
                                     _mm_load_ps(vel[slot[1]].v + 4));
        const V t1 = _mm_unpacklo_ps(_mm_load_ps(vel[slot[2]].v + 4),
                                     _mm_load_ps(vel[slot[3]].v + 4));
        out[4] = _mm_movelh_ps(t0, t1);
        out[5] = _mm_movehl_ps(t1, t0);
    }

    /** gather()'s inverse; the pads receive junk. */
    static void
    scatter(VelSlot *vel, const int32_t *slot, const V in[6])
    {
        V l0 = in[0], l1 = in[1], l2 = in[2], l3 = in[3];
        _MM_TRANSPOSE4_PS(l0, l1, l2, l3);
        const V t0 = _mm_unpacklo_ps(in[4], in[5]);
        const V t1 = _mm_unpackhi_ps(in[4], in[5]);
        _mm_store_ps(vel[slot[0]].v, l0);
        _mm_store_ps(vel[slot[0]].v + 4, t0);
        _mm_store_ps(vel[slot[1]].v, l1);
        _mm_store_ps(vel[slot[1]].v + 4, _mm_movehl_ps(t0, t0));
        _mm_store_ps(vel[slot[2]].v, l2);
        _mm_store_ps(vel[slot[2]].v + 4, t1);
        _mm_store_ps(vel[slot[3]].v, l3);
        _mm_store_ps(vel[slot[3]].v + 4, _mm_movehl_ps(t1, t1));
    }
};

/** One scalar lane: one or two large islands need no shuffles. */
struct Scalar1 {
    static constexpr int kWidth = 1;
    using V = float;

    static V load(const float *p) { return *p; }
    static void store(float *p, V v) { *p = v; }
    static V add(V a, V b) { return a + b; }
    static V sub(V a, V b) { return a - b; }
    static V mul(V a, V b) { return a * b; }
    static V neg(V a) { return -a; }
    static bool friction(const int32_t *normalRow) { return *normalRow >= 0; }
    static V select(bool mask, V a, V b) { return mask ? a : b; }
    static V clamp(V v, V lo, V hi) { return std::clamp(v, lo, hi); }

    static V
    gatherLambda(const LaneRow<1> *rows, const int32_t *n)
    {
        return rows[*n].lambda[0];
    }

    static void
    gather(const VelSlot *vel, const int32_t *slot, V out[6])
    {
        std::copy_n(vel[*slot].v, 6, out);
    }

    static void
    scatter(VelSlot *vel, const int32_t *slot, const V in[6])
    {
        std::copy_n(in, 6, vel[*slot].v);
    }
};

/** J . v over one body, Jacobian6::dot's order. */
template <class L>
inline typename L::V
dot6(const float (*lin)[L::kWidth], const float (*ang)[L::kWidth],
     const typename L::V *v)
{
    const auto dot3 = [](const float (*j)[L::kWidth],
                         const typename L::V *w) {
        return L::add(L::add(L::mul(L::load(j[0]), w[0]),
                             L::mul(L::load(j[1]), w[1])),
                      L::mul(L::load(j[2]), w[2]));
    };
    return L::add(dot3(lin, v), dot3(ang, v + 3));
}

/** v += B * d over one body's six components, Vec3's order. */
template <class L>
inline void
applyImpulse(const float (*lin)[L::kWidth], const float (*ang)[L::kWidth],
             typename L::V d, typename L::V *v)
{
    for (int c = 0; c < 3; ++c) {
        v[c] = L::add(v[c], L::mul(L::load(lin[c]), d));
        v[3 + c] = L::add(v[3 + c], L::mul(L::load(ang[c]), d));
    }
}

/** relaxOnce()'s loop body for one row of every lane. */
template <class L>
inline void
relaxLaneRow(const LaneRow<L::kWidth> *rows, LaneRow<L::kWidth> &row,
             VelSlot *vel)
{
    using V = typename L::V;
    V va[6], vb[6];
    L::gather(vel, row.readA, va);
    L::gather(vel, row.readB, vb);
    const V cdot = L::add(dot6<L>(row.j[0], row.j[1], va),
                          dot6<L>(row.j[2], row.j[3], vb));
    V d_lambda = L::mul(L::load(row.invEffMass),
                        L::sub(L::load(row.rhs), cdot));
    const V limit =
        L::mul(L::load(row.mu), L::gatherLambda(rows, row.normal));
    const auto friction = L::friction(row.normalRow);
    const V lo = L::select(friction, L::neg(limit), L::load(row.lo));
    const V hi = L::select(friction, limit, L::load(row.hi));
    const V lambda = L::load(row.lambda);
    const V new_lambda = L::clamp(L::add(lambda, d_lambda), lo, hi);
    d_lambda = L::sub(new_lambda, lambda);
    L::store(row.lambda, new_lambda);
    applyImpulse<L>(row.b[0], row.b[1], d_lambda, va);
    L::scatter(vel, row.writeA, va);
    applyImpulse<L>(row.b[2], row.b[3], d_lambda, vb);
    L::scatter(vel, row.writeB, vb);
}

/**
 * Per-thread body bookkeeping of the group being solved; small (a few
 * words per body) and reused across groups, steps and worlds.
 */
struct LaneScratch {
    std::vector<int32_t> slotOf;  //!< BodyId -> slot, -1 = none
    std::vector<BodyId> slotBody; //!< slot -> BodyId (fixed slots: -1)
    std::vector<VelSlot> vel;
    std::vector<Joint *> owners;  //!< joint rows' owners, group order
};

thread_local LaneScratch t_lanes;

} // namespace

/** Every group's lane rows, by lane width. */
struct LaneSolver::Storage {
    std::unique_ptr<LaneRow<1>[]> rows1;
    std::unique_ptr<LaneRow<4>[]> rows4;
};

LaneSolver::LaneSolver(std::vector<RigidBody> &bodies,
                       const ContactList &contacts,
                       std::vector<std::unique_ptr<Joint>> &joints,
                       const std::vector<Island> &islands,
                       const std::vector<bool> &awake,
                       const SolverConfig &config, float dt)
    : bodies_(bodies), contacts_(contacts), joints_(joints),
      islands_(islands), config_(config), dt_(dt),
      storage_(std::make_unique<Storage>())
{
    std::vector<int> bound(islands.size(), 0);
    for (size_t i = 0; i < islands.size(); ++i) {
        if (!awake[i])
            continue;
        bound[i] = static_cast<int>(rowBound(islands[i], joints_));
    }
    std::vector<int> starts;
    groupIslands(bound, order_, starts);

    // One or two islands run in scalar lanes, three or four in one SSE
    // half, five to eight in two.
    size_t used[2] = {0, 0};
    for (size_t g = 0; g + 1 < starts.size(); ++g) {
        Group group;
        group.first = starts[g];
        group.count = starts[g + 1] - starts[g];
        group.width = group.count <= 2 ? 1 : 4;
        group.halves = group.count == 2 || group.count > 4 ? 2 : 1;
        for (int k = 0; k < group.count; ++k) {
            int &depth = group.depth[k % group.halves];
            depth = std::max(depth, bound[order_[group.first + k]]);
        }
        size_t &n = used[group.width == 1 ? 0 : 1];
        group.offset = n;
        n += group.depth[0] + (group.halves == 2 ? group.depth[1] : 0);
        groups_.push_back(group);
    }
    // Left uninitialized: each group pads its own rows when it runs.
    if (used[0] > 0)
        storage_->rows1.reset(new LaneRow<1>[used[0]]);
    if (used[1] > 0)
        storage_->rows4.reset(new LaneRow<4>[used[1]]);
}

LaneSolver::~LaneSolver() = default;

/**
 * Build a group's rows into its lanes, relax them, then write back the
 * dynamic bodies' velocities and each island's breakage and impulses.
 */
template <class L>
void
relaxGroup(LaneSolver &ls, const LaneSolver::Group &group,
           std::vector<std::vector<SolverImpulse>> *captured)
{
    constexpr int W = L::kWidth;
    LaneRow<W> *rows;
    if constexpr (W == 1)
        rows = ls.storage_->rows1.get() + group.offset;
    else
        rows = ls.storage_->rows4.get() + group.offset;
    const int H = group.halves;
    // Both halves interleave up to the shorter one's planned depth;
    // the longer half (0: it holds the largest island) continues alone.
    const int shared = group.depth[H - 1];
    const auto at = [&](int r, int h) {
        return r < shared ? r * H + h : shared * H + (r - shared);
    };
    std::fill_n(rows, group.depth[0] + (H == 2 ? group.depth[1] : 0),
                paddingRow<W>());

    LaneScratch &s = t_lanes;
    std::vector<RigidBody> &bodies = ls.bodies_;
    if (s.slotOf.size() < bodies.size())
        s.slotOf.resize(bodies.size(), -1);
    s.vel.assign(2, VelSlot{});
    s.slotBody.assign(2, -1);
    s.owners.clear();
    const auto slotFor = [&](BodyId id) {
        int32_t &slot = s.slotOf[id];
        if (slot < 0) {
            slot = static_cast<int32_t>(s.vel.size());
            const RigidBody &body = bodies[id];
            s.vel.push_back({{body.linVel.x, body.linVel.y, body.linVel.z,
                              body.angVel.x, body.angVel.y, body.angVel.z,
                              0.0f, 0.0f}});
            s.slotBody.push_back(id);
        }
        return slot;
    };

    // relaxOnce()'s op mix per row and pass: 12 add, 2 sub, 13 mul,
    // one more mul for a friction bound, and 6 add + 6 mul for each
    // side that moves.
    uint64_t adds = 0, subs = 0, muls = 0;
    int row_count[kLaneGroupIslands];
    int joint_rows[kLaneGroupIslands];
    int actual[2] = {0, 0};
    for (int k = 0; k < group.count; ++k) {
        const int h = k % H;
        const int lane = k / H;
        const IslandSolver built(bodies, ls.contacts_, ls.joints_,
                                 ls.islands_[ls.order_[group.first + k]],
                                 ls.config_, ls.dt_);
        const std::vector<SolverRow> &src = built.rows();
        row_count[k] = static_cast<int>(src.size());
        joint_rows[k] = static_cast<int>(built.jointRowCount());
        actual[h] = std::max(actual[h], row_count[k]);
        for (int r = 0; r < row_count[k]; ++r) {
            const SolverRow &row = src[r];
            if (r < joint_rows[k])
                s.owners.push_back(row.owner);
            LaneRow<W> &dst = rows[at(r, h)];
            const Jacobian6 *blocks[4] = {&row.ja, &row.jb, &row.ba,
                                          &row.bb};
            for (int blk = 0; blk < 4; ++blk) {
                float(*out)[3][W] = blk < 2 ? dst.j : dst.b;
                const int side = 2 * (blk % 2);
                const Vec3 &lin = blocks[blk]->lin;
                const Vec3 &ang = blocks[blk]->ang;
                out[side][0][lane] = lin.x;
                out[side][1][lane] = lin.y;
                out[side][2][lane] = lin.z;
                out[side + 1][0][lane] = ang.x;
                out[side + 1][1][lane] = ang.y;
                out[side + 1][2][lane] = ang.z;
            }
            dst.invEffMass[lane] = row.invEffMass;
            dst.rhs[lane] = row.rhs;
            dst.lo[lane] = row.lo;
            dst.hi[lane] = row.hi;
            dst.mu[lane] = row.mu;
            dst.lambda[lane] = row.lambda;
            dst.normalRow[lane] = row.normalRow;
            dst.normal[lane] = row.normalRow >= 0 ? at(row.normalRow, h) : 0;
            const bool static_a = bodies[row.a].isStatic();
            const bool static_b = bodies[row.b].isStatic();
            dst.readA[lane] = slotFor(row.a);
            dst.readB[lane] = slotFor(row.b);
            // Static bodies are never written (see relaxOnce()).
            dst.writeA[lane] = static_a ? kDumpSlot : dst.readA[lane];
            dst.writeB[lane] = static_b ? kDumpSlot : dst.readB[lane];
            const uint64_t moving = (static_a ? 0 : 1) + (static_b ? 0 : 1);
            adds += 12 + 6 * moving;
            subs += 2;
            muls += 13 + (row.normalRow >= 0 ? 1 : 0) + 6 * moving;
        }
    }
    auto &registry = metrics::Registry::global();
    uint64_t total_rows = 0;
    for (int k = 0; k < group.count; ++k)
        total_rows += row_count[k];
    registry.count("phys/lcp/rows", total_rows);
    const int iterations = ls.config_.iterations;
    const auto passes = static_cast<uint64_t>(std::max(iterations, 0));
    auto &ctx = fp::PrecisionContext::current();
    ctx.countOps(fp::Opcode::Add, adds * passes);
    ctx.countOps(fp::Opcode::Sub, subs * passes);
    ctx.countOps(fp::Opcode::Mul, muls * passes);

    const int both = std::min(actual[0], actual[H - 1]);
    const int deepest = std::max(actual[0], actual[H - 1]);
    const int longer = actual[0] >= actual[H - 1] ? 0 : H - 1;
    VelSlot *vel = s.vel.data();
    for (int it = 0; it < iterations; ++it) {
        int r = 0;
        for (; r < both; ++r) {
            for (int h = 0; h < H; ++h)
                relaxLaneRow<L>(rows, rows[r * H + h], vel);
        }
        for (; r < deepest; ++r)
            relaxLaneRow<L>(rows, rows[at(r, longer)], vel);
    }

    for (size_t slot = 2; slot < s.vel.size(); ++slot) {
        const BodyId id = s.slotBody[slot];
        s.slotOf[id] = -1;
        RigidBody &body = bodies[id];
        if (body.isStatic())
            continue;
        const float *v = s.vel[slot].v;
        body.linVel = {v[0], v[1], v[2]};
        body.angVel = {v[3], v[4], v[5]};
    }
    // IslandSolver::solve()'s tail, island by island.
    Joint *const *owner = s.owners.data();
    for (int k = 0; k < group.count; ++k) {
        const int h = k % H;
        const int lane = k / H;
        const int island = ls.order_[group.first + k];
        for (int r = 0; r < joint_rows[k]; ++r, ++owner) {
            if (*owner != nullptr)
                (*owner)->noteImpulse(std::fabs(rows[at(r, h)].lambda[lane]));
        }
        for (int ji : ls.islands_[island].jointIndices)
            ls.joints_[ji]->updateBreakage();
        if (captured == nullptr)
            continue;
        std::vector<SolverImpulse> &out = (*captured)[island];
        out.reserve(row_count[k]);
        for (int r = 0; r < row_count[k]; ++r) {
            const LaneRow<W> &row = rows[at(r, h)];
            SolverImpulse imp;
            imp.island = island;
            imp.row = r;
            imp.normalRow = row.normalRow[lane];
            imp.contact = r >= joint_rows[k];
            imp.lambda = row.lambda[lane];
            imp.mu = row.mu[lane];
            out.push_back(imp);
        }
    }
}

void
LaneSolver::solveGroup(int g,
                       std::vector<std::vector<SolverImpulse>> *captured)
{
    metrics::ScopedTimer timer(metrics::Registry::global(),
                               "phys/lcp/solve");
    const Group &group = groups_[g];
    if (group.width == 1)
        relaxGroup<Scalar1>(*this, group, captured);
    else
        relaxGroup<Sse4>(*this, group, captured);
}

void
groupIslands(const std::vector<int> &rows, std::vector<int> &order,
             std::vector<int> &starts)
{
    order.clear();
    starts.clear();
    for (int i = 0; i < static_cast<int>(rows.size()); ++i) {
        if (rows[i] > 0)
            order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&](int x, int y) {
        return rows[x] != rows[y] ? rows[x] > rows[y] : x < y;
    });
    for (size_t k = 0; k < order.size();) {
        starts.push_back(static_cast<int>(k));
        const int first = rows[order[k]];
        size_t end = k + 1;
        while (end < order.size() && end - k < kLaneGroupIslands &&
               2 * rows[order[end]] >= first)
            ++end;
        k = end;
    }
    starts.push_back(static_cast<int>(order.size()));
}

} // namespace phys
} // namespace hfpu
