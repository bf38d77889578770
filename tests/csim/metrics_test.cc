/**
 * @file
 * Tests for the observability layer: JSON writer/parser round-trips, the
 * thread-safe metrics registry, a SweepResult round-tripped through the
 * bench artifact writer, and the regression comparison that
 * tools/bench_regress applies to those artifacts (an injected 10% IPC
 * regression must be flagged at the default 5% tolerance; an identical
 * baseline must pass).
 */

#include <gtest/gtest.h>

#include <thread>

#include "csim/metrics.h"
#include "harness.h"
#include "phys/world.h"

namespace {

using namespace hfpu;
using metrics::Json;

TEST(Json, BuildsAndDumpsStableObjects)
{
    Json obj = Json::object();
    obj.set("name", Json("bench"));
    obj.set("value", Json(1.5));
    obj.set("count", Json(uint64_t{42}));
    obj.set("on", Json(true));
    Json arr = Json::array();
    arr.push(Json(1));
    arr.push(Json(2));
    obj.set("list", arr);

    const std::string text = obj.dump(-1);
    EXPECT_EQ(text,
              "{\"name\":\"bench\",\"value\":1.5,\"count\":42,"
              "\"on\":true,\"list\":[1,2]}");
}

TEST(Json, ParseRoundTripsDump)
{
    Json obj = Json::object();
    obj.set("ipc", Json(0.36360288611689839));
    obj.set("neg", Json(-12.25));
    obj.set("exp", Json(3.5e-7));
    obj.set("text", Json("line\n\"quoted\"\ttab"));
    obj.set("null", Json());
    Json nested = Json::object();
    nested.set("k", Json(7));
    obj.set("nested", nested);

    std::string error;
    const Json parsed = Json::parse(obj.dump(), &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(parsed.dump(), obj.dump());
    EXPECT_DOUBLE_EQ(parsed.find("ipc")->asNumber(),
                     0.36360288611689839);
    EXPECT_EQ(parsed.find("text")->asString(), "line\n\"quoted\"\ttab");
    EXPECT_TRUE(parsed.find("null")->isNull());
}

TEST(Json, ParseRejectsMalformedInput)
{
    std::string error;
    EXPECT_TRUE(Json::parse("{\"a\": }", &error).isNull());
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(Json::parse("[1, 2", nullptr).isNull());
    EXPECT_TRUE(Json::parse("{\"a\":1} trailing", nullptr).isNull());
    EXPECT_TRUE(Json::parse("", nullptr).isNull());
}

void
expectRejected(const std::string &text)
{
    std::string error;
    EXPECT_TRUE(Json::parse(text, &error).isNull());
    EXPECT_FALSE(error.empty());
}

TEST(Json, ParseRejectsOverflowingNumber) { expectRejected("1e999"); }

TEST(Json, ParseRejectsNegativeOverflow) { expectRejected("-1e400"); }

TEST(Json, ParseRejectsDoubleMinus) { expectRejected("--5"); }

TEST(Json, ParseRejectsTwoDecimalPoints) { expectRejected("[1.2.3]"); }

TEST(Json, ParseRejectsEmptyExponent) { expectRejected("1e"); }

TEST(Json, ParseRejectsDeepNesting)
{
    expectRejected(std::string(200000, '['));
}

TEST(Json, ParseAcceptsNumberGrammar)
{
    std::string error;
    const Json v = Json::parse("[0, -1.5, 2e3, 4E-2, 1e+2, 1e-400]", &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(v.dump(), Json::parse(v.dump()).dump());
    EXPECT_DOUBLE_EQ(v.at(1).asNumber(), -1.5);
    EXPECT_DOUBLE_EQ(v.at(2).asNumber(), 2000.0);
    EXPECT_DOUBLE_EQ(v.at(3).asNumber(), 0.04);
    EXPECT_DOUBLE_EQ(v.at(4).asNumber(), 100.0);
}

TEST(Registry, CountersAndTimersAccumulate)
{
    metrics::Registry registry;
    registry.count("a/ops", 3);
    registry.count("a/ops", 2);
    registry.addTime("a/t", std::chrono::nanoseconds(500));
    registry.addTime("a/t", std::chrono::nanoseconds(250));
    EXPECT_EQ(registry.counter("a/ops"), 5u);
    EXPECT_EQ(registry.counter("missing"), 0u);
    EXPECT_EQ(registry.timerNs("a/t"), 750u);
    EXPECT_EQ(registry.timerCalls("a/t"), 2u);

    const Json snap = registry.toJson();
    EXPECT_EQ(snap.find("counters")->find("a/ops")->asNumber(), 5.0);
    EXPECT_EQ(snap.find("timers")->find("a/t")->find("ns")->asNumber(),
              750.0);

    registry.reset();
    EXPECT_EQ(registry.counter("a/ops"), 0u);
}

TEST(Registry, ScopedTimerMeasuresAndThreadsDoNotCorrupt)
{
    metrics::Registry registry;
    {
        metrics::ScopedTimer timer(registry, "scope");
    }
    EXPECT_EQ(registry.timerCalls("scope"), 1u);

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&registry] {
            for (int i = 0; i < 1000; ++i) {
                registry.count("shared");
                registry.addTime("shared/t",
                                 std::chrono::nanoseconds(1));
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(registry.counter("shared"), 4000u);
    EXPECT_EQ(registry.timerCalls("shared/t"), 4000u);
    EXPECT_EQ(registry.timerNs("shared/t"), 4000u);
}

TEST(Registry, PhysicsStepFeedsGlobalRegistry)
{
    auto &registry = metrics::Registry::global();
    registry.reset();
    phys::World world;
    world.addBody(phys::RigidBody::makeStatic(
        phys::Shape::plane({0.0f, 1.0f, 0.0f}, 0.0f), {}));
    world.addBody(phys::RigidBody(phys::Shape::sphere(0.3f), 1.0f,
                                  {0.0f, 0.29f, 0.0f}));
    for (int i = 0; i < 10; ++i)
        world.step();
    EXPECT_EQ(registry.counter("phys/steps"), 10u);
    EXPECT_EQ(registry.timerCalls("phys/broad"), 10u);
    EXPECT_EQ(registry.timerCalls("phys/narrow"), 10u);
    EXPECT_EQ(registry.timerCalls("phys/island"), 10u);
    EXPECT_EQ(registry.timerCalls("phys/lcp"), 10u);
    EXPECT_GT(registry.counter("phys/contacts"), 0u);
    // The touching sphere forms one island each step with solver rows.
    EXPECT_GT(registry.counter("phys/lcp/rows"), 0u);
    registry.reset();
}

/** Build a small deterministic SweepResult without running a sweep. */
bench::SweepResult
makeSweepResult()
{
    bench::SweepResult r;
    r.point = {fpu::L1Design::ReducedTrivLut, 4, 1, -1};
    r.ipcPerCore = 0.408712877;
    r.fpOps = 123456;
    for (int i = 0; i < 80; ++i)
        r.service.note(fp::Opcode::Add, fpu::ServiceLevel::Trivial);
    for (int i = 0; i < 20; ++i)
        r.service.note(fp::Opcode::Mul, fpu::ServiceLevel::Full);
    return r;
}

TEST(BenchArtifact, SweepResultRoundTripsThroughJsonWriter)
{
    bench::BenchReport report("roundtrip_test");
    bench::addSweep(report, "lcp", {makeSweepResult()});
    const std::string text = report.toJson(/*quick=*/false).dump();

    std::string error;
    const Json artifact = Json::parse(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    ASSERT_TRUE(artifact.isObject());
    EXPECT_EQ(artifact.find("bench")->asString(), "roundtrip_test");
    EXPECT_EQ(artifact.find("schema")->asNumber(), 1.0);

    const Json *m = artifact.find("metrics");
    ASSERT_NE(m, nullptr);
    const Json *ipc = m->find("lcp/reduced-triv+lut_s4/ipc");
    ASSERT_NE(ipc, nullptr);
    EXPECT_DOUBLE_EQ(ipc->asNumber(), 0.408712877);
    EXPECT_DOUBLE_EQ(
        m->find("lcp/reduced-triv+lut_s4/local_fraction")->asNumber(),
        0.8);

    const Json *service = artifact.find("service");
    ASSERT_NE(service, nullptr);
    const Json *dump = service->find("lcp/reduced-triv+lut_s4");
    ASSERT_NE(dump, nullptr);
    EXPECT_EQ(dump->find("total")->asNumber(), 100.0);
    EXPECT_EQ(dump->find("levels")
                  ->find("trivial")
                  ->find("count")
                  ->asNumber(),
              80.0);
}

TEST(BenchArtifact, IdenticalBaselinePassesComparison)
{
    bench::BenchReport report("identical");
    bench::addSweep(report, "lcp", {makeSweepResult()});
    const Json artifact =
        Json::parse(report.toJson(false).dump(), nullptr);
    const Json *m = artifact.find("metrics");
    ASSERT_NE(m, nullptr);

    std::vector<metrics::MetricDelta> deltas;
    EXPECT_TRUE(metrics::compareMetricMaps(*m, *m, 0.05, &deltas));
    EXPECT_TRUE(deltas.empty());
}

TEST(BenchArtifact, InjectedIpcRegressionIsFlagged)
{
    const bench::SweepResult good = makeSweepResult();
    bench::SweepResult bad = good;
    bad.ipcPerCore *= 0.9; // 10% IPC regression

    bench::BenchReport base_report("base"), cur_report("cur");
    bench::addSweep(base_report, "lcp", {good});
    bench::addSweep(cur_report, "lcp", {bad});
    const Json base =
        Json::parse(base_report.toJson(false).dump(), nullptr);
    const Json cur =
        Json::parse(cur_report.toJson(false).dump(), nullptr);

    std::vector<metrics::MetricDelta> deltas;
    EXPECT_FALSE(metrics::compareMetricMaps(
        *base.find("metrics"), *cur.find("metrics"), 0.05, &deltas));
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_EQ(deltas[0].key, "lcp/reduced-triv+lut_s4/ipc");
    EXPECT_NEAR(deltas[0].relDelta, 0.1, 1e-9);
    EXPECT_FALSE(deltas[0].missing);

    // The same 10% delta passes a looser 15% tolerance.
    EXPECT_TRUE(metrics::compareMetricMaps(*base.find("metrics"),
                                           *cur.find("metrics"), 0.15,
                                           nullptr));
}

TEST(Comparison, MissingAndNonNumericKeysAreViolations)
{
    Json base = Json::object();
    base.set("a", Json(1.0));
    base.set("b", Json(2.0));
    Json cur = Json::object();
    cur.set("a", Json(1.0));
    cur.set("b", Json("two"));

    std::vector<metrics::MetricDelta> deltas;
    EXPECT_FALSE(metrics::compareMetricMaps(base, cur, 0.05, &deltas));
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_EQ(deltas[0].key, "b");
    EXPECT_TRUE(deltas[0].missing);

    // Extra keys in the current run are not violations.
    cur.set("b", Json(2.0));
    cur.set("new_metric", Json(9.0));
    EXPECT_TRUE(metrics::compareMetricMaps(base, cur, 0.05, nullptr));

    // Exact zeros compare equal under the absolute floor.
    Json zeros = Json::object();
    zeros.set("z", Json(0.0));
    EXPECT_TRUE(metrics::compareMetricMaps(zeros, zeros, 0.05, nullptr));
}

TEST(Comparison, ServiceStatsJsonMatchesCounts)
{
    fpu::ServiceStats stats;
    for (int i = 0; i < 3; ++i)
        stats.note(fp::Opcode::Add, fpu::ServiceLevel::Lookup);
    stats.note(fp::Opcode::Div, fpu::ServiceLevel::Full);
    const Json dump = metrics::serviceStatsJson(stats);
    EXPECT_EQ(dump.find("total")->asNumber(), 4.0);
    EXPECT_DOUBLE_EQ(dump.find("local_one_cycle")->asNumber(), 0.75);
    EXPECT_EQ(
        dump.find("by_opcode")->find("add")->find("lookup")->asNumber(),
        3.0);
    EXPECT_EQ(dump.find("by_opcode")->find("div")->find("full-fpu")
                  ->asNumber(),
              1.0);
}

TEST(Registry, ScopedNamespacePrefixesWritesOnly)
{
    auto &reg = metrics::Registry::global();
    reg.reset();
    reg.count("plain");
    {
        metrics::ScopedNamespace ns("srv/World@3");
        reg.count("phys/steps");
        reg.count("phys/steps");
        // Reads are verbatim: the caller addresses the qualified key.
        EXPECT_EQ(reg.counter("srv/World@3/phys/steps"), 2u);
        EXPECT_EQ(reg.counter("phys/steps"), 0u);
    }
    reg.count("phys/steps"); // prefix gone after scope exit
    EXPECT_EQ(reg.counter("phys/steps"), 1u);
    EXPECT_EQ(reg.counter("plain"), 1u);
    reg.reset();
}

TEST(Registry, ScopedNamespacesNestAndAreThreadLocal)
{
    auto &reg = metrics::Registry::global();
    reg.reset();
    {
        metrics::ScopedNamespace outer("a");
        {
            metrics::ScopedNamespace inner("b");
            reg.count("x");
            EXPECT_EQ(metrics::ScopedNamespace::current(), "a/b/");
        }
        reg.count("x");
        // Another thread sees no namespace at all.
        std::thread([&reg] {
            EXPECT_TRUE(metrics::ScopedNamespace::current().empty());
            reg.count("x");
        }).join();
    }
    EXPECT_EQ(reg.counter("a/b/x"), 1u);
    EXPECT_EQ(reg.counter("a/x"), 1u);
    EXPECT_EQ(reg.counter("x"), 1u);
    reg.reset();
}

TEST(Registry, ExchangeRestoresNamespace)
{
    metrics::ScopedNamespace ns("base");
    const std::string prev = metrics::ScopedNamespace::exchange("other/");
    EXPECT_EQ(prev, "base/");
    EXPECT_EQ(metrics::ScopedNamespace::current(), "other/");
    metrics::ScopedNamespace::exchange(prev);
    EXPECT_EQ(metrics::ScopedNamespace::current(), "base/");
}

} // namespace
