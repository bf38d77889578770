/**
 * @file
 * Golden-trace determinism tests. For four canonical scenarios at two
 * precision configurations (full 23-bit, reduced 14-bit narrow/LCP)
 * the per-step FNV state hash — positions, orientations, velocities,
 * and accumulated solver impulses — is pinned in committed fixtures,
 * and three execution styles must reproduce it bitwise:
 *
 *  - a plain serial step loop,
 *  - the same loop with the out-of-line slow path forced (proving the
 *    inline fast path is bit-exact, not merely close), and
 *  - the batch scheduler, single- and multi-threaded.
 *
 * Unguarded worlds (JobSpec::useController = false: fixed widths at
 * the policy floors, energy guard only) are pinned the same way, and
 * so is the full recovery and degradation event stream of an
 * unguarded fault + virtual-clock deadline campaign.
 *
 * Any bit-level behavior change — intended or not — shows up here as
 * a hash mismatch at the first divergent step. Intended changes are
 * re-pinned by re-recording:
 *
 *     HFPU_GOLDEN_RECORD=1 ./tests/phys/phys_goldentrace_test
 *
 * which rewrites the goldentrace fixtures in the source tree.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "fp/precision.h"
#include "phys/clock.h"
#include "phys/controller.h"
#include "scen/scenario.h"
#include "srv/batch.h"
#include "srv/statehash.h"

using namespace hfpu;

namespace {

constexpr int kSteps = 60;

struct TraceCase {
    const char *scenario;
    int bits; // narrow + LCP minimum mantissa width
    bool guarded = true; // energy-guarded controller vs fixed widths
};

const TraceCase kCases[] = {
    {"Breakable", 23},  {"Breakable", 14},  {"Explosions", 23},
    {"Explosions", 14}, {"Periodic", 23},   {"Periodic", 14},
    {"Ragdoll", 23},    {"Ragdoll", 14},
};

const TraceCase kUnguardedCases[] = {
    {"Explosions", 14, false},
    {"Ragdoll", 14, false},
};

std::string
fixtureStem(const TraceCase &c)
{
    return std::string(c.scenario) + "_" + std::to_string(c.bits) +
           (c.guarded ? "" : "_unguarded");
}

std::string
fixturePath(const TraceCase &c)
{
    return std::string(HFPU_FIXTURE_DIR) + "/goldentrace/" + fixtureStem(c) +
           ".txt";
}

// gtest appends the printed parameter to each instance's ctest name.
// Print the fixture it checks: the default byte dump would carry the
// scenario pointer, which moves with ASLR and renames the test.
void
PrintTo(const TraceCase &c, std::ostream *os)
{
    *os << fixtureStem(c);
}

phys::PrecisionPolicy
policyFor(const TraceCase &c)
{
    phys::PrecisionPolicy policy;
    policy.minNarrowBits = c.bits;
    policy.minLcpBits = c.bits;
    return policy;
}

/**
 * The reference execution: a plain serial step loop with the same
 * per-world setup the batch scheduler performs (captured impulses,
 * context installed fresh, and either the energy-guarded controller or
 * the policy widths programmed once).
 */
std::vector<uint64_t>
runSerial(const TraceCase &c)
{
    auto &ctx = fp::PrecisionContext::current();
    ctx.setAllMantissaBits(fp::kFullMantissaBits);
    ctx.setRoundingMode(policyFor(c).roundingMode);
    ctx.setPhase(fp::Phase::Other);

    scen::Scenario scenario = scen::makeScenario(c.scenario);
    scenario.world->setCaptureImpulses(true);
    phys::PrecisionController controller(policyFor(c));
    if (c.guarded) {
        scenario.world->setController(&controller);
    } else {
        ctx.setMantissaBits(fp::Phase::Narrow, c.bits);
        ctx.setMantissaBits(fp::Phase::Lcp, c.bits);
    }

    std::vector<uint64_t> hashes;
    hashes.reserve(kSteps);
    for (int i = 0; i < kSteps; ++i) {
        scenario.step();
        hashes.push_back(srv::stateHash(*scenario.world));
    }
    scenario.world->setController(nullptr);
    ctx.setAllMantissaBits(fp::kFullMantissaBits);
    return hashes;
}

/** The same trace produced by the batch service. */
std::vector<uint64_t>
runBatched(const TraceCase &c, int threads)
{
    srv::BatchConfig config;
    config.threads = threads;
    srv::JobSpec spec;
    spec.scenario = c.scenario;
    spec.steps = kSteps;
    spec.policy = policyFor(c);
    spec.useController = c.guarded;
    spec.hashTrace = true;
    srv::BatchScheduler scheduler(config);
    auto results = scheduler.run({spec});
    EXPECT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, srv::WorldStatus::Completed);
    return results[0].stepHashes;
}

std::vector<uint64_t>
loadFixture(const std::string &path)
{
    std::ifstream in(path);
    std::vector<uint64_t> hashes;
    int step;
    std::string hex;
    while (in >> step >> hex)
        hashes.push_back(std::strtoull(hex.c_str(), nullptr, 16));
    return hashes;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << text;
}

void
saveFixture(const std::string &path, const std::vector<uint64_t> &hashes)
{
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (size_t i = 0; i < hashes.size(); ++i) {
        char line[48];
        std::snprintf(line, sizeof line, "%zu %016llx\n", i,
                      static_cast<unsigned long long>(hashes[i]));
        out << line;
    }
}

void
expectSameTrace(const std::vector<uint64_t> &expected,
                const std::vector<uint64_t> &actual, const char *what)
{
    ASSERT_EQ(expected.size(), actual.size()) << what;
    for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(expected[i], actual[i])
            << what << ": first divergence at step " << i;
    }
}

class GoldenTrace : public ::testing::TestWithParam<TraceCase>
{
};

} // namespace

TEST_P(GoldenTrace, SerialMatchesFixture)
{
    const TraceCase &c = GetParam();
    const std::vector<uint64_t> trace = runSerial(c);
    const std::string path = fixturePath(c);
    if (std::getenv("HFPU_GOLDEN_RECORD")) {
        saveFixture(path, trace);
        GTEST_SKIP() << "recorded " << path;
    }
    const std::vector<uint64_t> golden = loadFixture(path);
    ASSERT_FALSE(golden.empty())
        << "missing fixture " << path
        << " (record with HFPU_GOLDEN_RECORD=1)";
    expectSameTrace(golden, trace, "serial vs fixture");
}

TEST_P(GoldenTrace, ForcedSlowPathMatchesFixture)
{
    if (std::getenv("HFPU_GOLDEN_RECORD"))
        GTEST_SKIP() << "record mode";
    const TraceCase &c = GetParam();
    const std::vector<uint64_t> golden = loadFixture(fixturePath(c));
    ASSERT_FALSE(golden.empty()) << "missing fixture";

    auto &ctx = fp::PrecisionContext::current();
    ctx.setForceSlowPath(true);
    const std::vector<uint64_t> trace = runSerial(c);
    ctx.setForceSlowPath(false);
    expectSameTrace(golden, trace, "forced slow path vs fixture");
}

TEST_P(GoldenTrace, BatchedMatchesFixture)
{
    if (std::getenv("HFPU_GOLDEN_RECORD"))
        GTEST_SKIP() << "record mode";
    const TraceCase &c = GetParam();
    const std::vector<uint64_t> golden = loadFixture(fixturePath(c));
    ASSERT_FALSE(golden.empty()) << "missing fixture";

    expectSameTrace(golden, runBatched(c, 1), "batched x1 vs fixture");
    expectSameTrace(golden, runBatched(c, 4), "batched x4 vs fixture");
}

std::string
traceCaseName(const ::testing::TestParamInfo<TraceCase> &info)
{
    return std::string(info.param.scenario) + "_" +
           std::to_string(info.param.bits) + "bit";
}

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenTrace,
                         ::testing::ValuesIn(kCases), traceCaseName);
INSTANTIATE_TEST_SUITE_P(Unguarded, GoldenTrace,
                         ::testing::ValuesIn(kUnguardedCases),
                         traceCaseName);

namespace {

/**
 * An unguarded chaos + overload campaign: scalar NaNs and island
 * throws drive the recovery ladder (rollbacks, full-precision replay,
 * quarantine, rehabilitation), and a jittered virtual clock with step
 * deadlines and world budgets drives the degradation ladder. Returns
 * every world's outcome and event stream as text, one field per line.
 */
std::string
unguardedCampaign(int threads)
{
    phys::VirtualClock clock(900, /*seed=*/77, /*jitterFrac=*/0.6);
    srv::BatchConfig config;
    config.threads = threads;
    config.clock = &clock;
    config.stepDeadlineMicros = 1100;
    config.worldBudgetMicros = 50'000;
    config.degradeAfterMisses = 2;
    config.relaxAfterSteps = 3;
    srv::BatchScheduler scheduler(config);

    std::string error;
    srv::JobSpec explosions;
    explosions.scenario = "Explosions";
    explosions.replicas = 2;
    srv::JobSpec random;
    random.scenario = "Random";
    random.replicas = 6;
    random.seed = 21;
    std::vector<srv::JobSpec> jobs{explosions, random};
    for (srv::JobSpec &job : jobs) {
        job.steps = 60;
        job.useController = false;
        job.hashTrace = true;
        job.policy.minNarrowBits = 14;
        job.policy.minLcpBits = 12;
        job.faults = fault::FaultSpec::parse(
            "seed=9,nan=0.000001,throw=0.002", &error);
        EXPECT_TRUE(job.faults.anyEnabled()) << error;
    }

    std::ostringstream out;
    out.precision(17);
    const auto results = scheduler.run(jobs);
    for (size_t w = 0; w < results.size(); ++w) {
        const srv::WorldResult &r = results[w];
        uint64_t traceDigest = 1469598103934665603ull;
        for (uint64_t h : r.stepHashes)
            traceDigest = (traceDigest ^ h) * 1099511628211ull;
        out << "world " << w << " " << r.scenario << " status "
            << static_cast<int>(r.status) << " steps " << r.stepsDone
            << " final " << std::hex << r.finalHash << " trace "
            << traceDigest << std::dec << "\n";
        out << "  violations " << r.violations << " reexecutions "
            << r.reexecutions << " rollbacks " << r.rollbacks
            << " rehabilitated " << r.rehabilitated << " misses "
            << r.deadlineMisses << " budget " << r.budgetUsedMicros
            << " exceeded " << r.deadlineExceeded << "\n";
        out << "  reason " << r.quarantineReason << "\n";
        for (const srv::RecoveryEvent &ev : r.recoveryEvents)
            out << "  recovery step " << ev.step << " " << ev.action
                << " depth " << ev.rollbackSteps << " relDelta "
                << ev.relDelta << " budgetLeft " << ev.budgetLeft
                << " cause " << ev.cause << "\n";
        for (const srv::DegradationEvent &ev : r.degradationEvents)
            out << "  degradation step " << ev.step << " " << ev.action
                << " " << ev.cause << " level "
                << static_cast<int>(ev.level) << " bits "
                << ev.narrowBits << "/" << ev.lcpBits << " cap "
                << ev.iterationCap << " cost " << ev.stepCostMicros
                << " used " << ev.budgetUsedMicros << "\n";
    }
    return out.str();
}

std::string
campaignFixturePath()
{
    return std::string(HFPU_FIXTURE_DIR) +
           "/goldentrace/unguarded_campaign.txt";
}

} // namespace

TEST(GoldenCampaign, UnguardedEventStreamMatchesFixture)
{
    const std::string serial = unguardedCampaign(1);
    const std::string path = campaignFixturePath();
    if (std::getenv("HFPU_GOLDEN_RECORD")) {
        writeFile(path, serial);
        GTEST_SKIP() << "recorded " << path;
    }
    const std::string golden = readFile(path);
    ASSERT_FALSE(golden.empty())
        << "missing fixture " << path
        << " (record with HFPU_GOLDEN_RECORD=1)";
    EXPECT_EQ(golden, serial) << "serial campaign vs fixture";
    EXPECT_EQ(golden, unguardedCampaign(4)) << "4-thread campaign vs fixture";
}
