#ifndef HFPU_PHYS_SOLVER_H
#define HFPU_PHYS_SOLVER_H

/**
 * @file
 * The LCP solver: projected Gauss-Seidel over an island's constraint
 * rows, the same algorithm (and the same padded 6-element Jacobian
 * data layout) as ODE's quickstep. Contacts contribute a
 * non-penetration row with Baumgarte stabilization and restitution
 * plus two friction rows box-clamped by mu times the accumulated
 * normal impulse; joints contribute their own rows (see joint.h).
 */

#include <memory>
#include <vector>

#include "phys/contact.h"
#include "phys/island.h"
#include "phys/joint.h"
#include "phys/row.h"

namespace hfpu {
namespace phys {

/** Tunables mirroring ODE's world parameters. */
struct SolverConfig {
    int iterations = 20;        //!< PGS relaxation passes (paper: 20)
    float erp = 0.2f;           //!< error reduction parameter
    float slop = 0.005f;        //!< allowed penetration before bias
    float restitutionThreshold = 1.0f; //!< m/s of approach to bounce
};

/**
 * Per-iteration callbacks so the caller can mark each relaxation pass
 * as a work unit for tracing (the paper's loosely coupled LCP
 * iterations).
 */
class SolveObserver
{
  public:
    virtual ~SolveObserver() = default;
    virtual void beginIteration(int island, int iteration) = 0;
    virtual void endIteration() = 0;
};

/**
 * One accumulated constraint impulse of the last step, in
 * deterministic (island index, row index) order. Friction rows point
 * at their limiting normal row via @p normalRow (an index into the
 * same island's records); contact-normal rows have normalRow == -1
 * and nonzero-area lambda >= 0 by LCP complementarity.
 */
struct SolverImpulse {
    int island = 0;     //!< island the row belonged to
    int row = 0;        //!< row index within the island
    int normalRow = -1; //!< island-local index of the limiting normal
    bool contact = false; //!< contact row (vs joint row)
    float lambda = 0.0f;  //!< accumulated impulse
    float mu = 0.0f;      //!< friction coefficient (friction rows)
};

/**
 * Most rows IslandSolver can build for @p island: 3 per contact (normal
 * and two friction rows) plus each joint's Joint::maxRows().
 */
size_t rowBound(const Island &island,
                const std::vector<std::unique_ptr<Joint>> &joints);

/**
 * Builds and relaxes the constraint rows of one island in place.
 */
class IslandSolver
{
  public:
    IslandSolver(std::vector<RigidBody> &bodies, const ContactList &contacts,
                 std::vector<std::unique_ptr<Joint>> &joints,
                 const Island &island, const SolverConfig &config,
                 float dt);

    /**
     * Run the configured number of PGS iterations and feed joint
     * breakage accumulators.
     *
     * @param island_index index reported to the observer
     * @param observer     optional per-iteration work-unit hooks
     */
    void solve(int island_index, SolveObserver *observer);


    /** Number of rows built for this island (tests/stats). */
    size_t rowCount() const { return rows_.size(); }

    /** The island's rows after solve() (impulse capture, tests). */
    const std::vector<SolverRow> &rows() const { return rows_; }

    /**
     * Rows contributed by joints; contact rows (normal followed by its
     * two friction rows, per contact) start at this index.
     */
    size_t jointRowCount() const { return jointRows_; }

  private:
    void appendContactRows(const Contact &contact);
    void relaxOnce();

    std::vector<RigidBody> &bodies_;
    std::vector<std::unique_ptr<Joint>> &joints_;
    const Island &island_;
    SolverConfig config_;
    float dt_;
    std::vector<SolverRow> rows_;
    size_t jointRows_ = 0;
};

/**
 * Most islands one lane group relaxes together, one island per lane:
 * two interleaved halves of four SSE lanes.
 */
constexpr int kLaneGroupIslands = 8;

/**
 * The lane kernel's fixed grouping rule. Islands with rows, sorted by
 * (row count descending, island index ascending), are cut into runs:
 * a group takes up to kLaneGroupIslands consecutive islands whose row
 * count is at least half that of its first island.
 *
 * @param rows   per-island row count (LaneSolver passes rowBound());
 *               0 = the island joins no group
 * @param order  out: island indices in group order
 * @param starts out: group g is order[starts[g] .. starts[g + 1])
 */
void groupIslands(const std::vector<int> &rows, std::vector<int> &order,
                  std::vector<int> &starts);

/**
 * The full-precision LCP path: one step's awake islands, grouped by
 * groupIslands() and relaxed a group at a time with similar-sized
 * islands side by side in lanes: one or two islands in scalar lanes,
 * three or four in one 4-lane SSE half, five to eight in two halves
 * whose rows interleave. Every lane runs relaxOnce()'s
 * expression order row by row, so body velocities, row impulses and
 * joint breakage are bit-identical to IslandSolver::solve() on each
 * island alone; op counts are added in bulk, so the caller must be in
 * plain mode (full precision on the host FPU, no recorder, no fault
 * hook), and no SolveObserver runs.
 *
 * The constructor plans every group and allocates all their lane rows
 * at once, sized by each island's rowBound(), so the groups can then
 * be solved on any threads in any order; the storage lives as long as
 * the LaneSolver.
 */
class LaneSolver
{
  public:
    /**
     * @param awake per-island flag; sleeping islands are skipped
     */
    LaneSolver(std::vector<RigidBody> &bodies, const ContactList &contacts,
               std::vector<std::unique_ptr<Joint>> &joints,
               const std::vector<Island> &islands,
               const std::vector<bool> &awake, const SolverConfig &config,
               float dt);
    ~LaneSolver();

    LaneSolver(const LaneSolver &) = delete;
    LaneSolver &operator=(const LaneSolver &) = delete;

    int groupCount() const { return static_cast<int>(groups_.size()); }

    /**
     * Build, relax and write back group @p g. Distinct groups touch
     * disjoint state and may run concurrently.
     *
     * @param captured when non-null, (*captured)[island] receives the
     *                 island's impulses as World::lastImpulses() lists
     *                 them
     */
    void solveGroup(int g,
                    std::vector<std::vector<SolverImpulse>> *captured);

  private:
    /** One group's place in the lane storage. */
    struct Group {
        int first = 0;     //!< first island in order_
        int count = 0;     //!< islands
        int width = 1;     //!< lanes per half: 1 or 4
        int halves = 1;    //!< 1 or 2
        int depth[2] = {}; //!< planned lane-rows per half (row bounds)
        size_t offset = 0; //!< first lane-row in its storage array
    };
    struct Storage;
    template <class L>
    friend void relaxGroup(LaneSolver &solver, const Group &group,
                           std::vector<std::vector<SolverImpulse>> *out);

    std::vector<RigidBody> &bodies_;
    const ContactList &contacts_;
    std::vector<std::unique_ptr<Joint>> &joints_;
    const std::vector<Island> &islands_;
    SolverConfig config_;
    float dt_;
    std::vector<int> order_;
    std::vector<Group> groups_;
    std::unique_ptr<Storage> storage_;
};

} // namespace phys
} // namespace hfpu

#endif // HFPU_PHYS_SOLVER_H
