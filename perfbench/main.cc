/**
 * @file
 * The repository benchmark. Two closed-loop workloads with one client
 * each drive the library through its public API only
 * (srv::BatchScheduler, scen::Scenario, phys::World, metrics::Registry);
 * every time is taken here, outside the library.
 *
 *   batch_full     one BatchScheduler::run of 16 worlds after another:
 *                  the eight paper scenarios plus eight Random debris
 *                  worlds seeded from the workload seed, kBatchSteps
 *                  steps each, 23/23 bits, controller on, BatchConfig
 *                  defaults on kTimedThreads scheduler threads.
 *   world_step     216-body debris fields (harness.h) stepped through
 *                  Scenario::step on WorldConfig::threads = kTimedThreads,
 *                  full precision, no controller, no scheduler: a cycle
 *                  of kCycleWorlds seeded worlds, kEpisodeSteps steps
 *                  each, over and over.
 *
 * Step latency: on world_step, the wall time of each Scenario::step call,
 * taken per cycle position as the median over the run's cycles;
 * step_ms_p50 and step_ms_p99 are over those positions, and steps_per_s
 * is the rate of a cycle made of them. On batch_full, a world's own
 * time per step, WorldResult::wallMs over its steps: step_ms_p50 is
 * the batch's mean over its worlds and step_ms_p99 its slowest world,
 * each the median over the run's batches. A batch has 16 worlds, so its
 * p99 is its slowest world; its median world would fall between the
 * cheap Random worlds and the costly paper ones and move with the seed,
 * so the centre is the mean, which the paper worlds dominate.
 *
 * Every run checks its results against a serial reference: each world's
 * final srv::stateHash (each world_step episode's hash where it stopped)
 * must match the same world run on one thread (DESIGN.md section 7b).
 * Besides the timed window, every run also steps one batch or cycle on a
 * kThreads-thread pool, untimed, against that reference; a traced run
 * times a window of them for pool.speedup.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file>]
 *
 * prints one JSON line, {"correct", "attempted", "failed", "metrics"}:
 * the end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. A traced run also writes its spans (each run(), each
 * world's progress slices, each world_step step) as Chrome trace events
 * to --trace-out. Exits 1 when a correctness check failed, 2 on bad
 * usage or an error.
 */

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "csim/metrics.h"
#include "fp/precision.h"
#include "harness.h"
#include "phys/parallel.h"
#include "scen/random.h"
#include "scen/scenario.h"
#include "srv/batch.h"
#include "srv/statehash.h"

namespace {

namespace fp = hfpu::fp;
namespace metrics = hfpu::metrics;
namespace phys = hfpu::phys;
namespace scen = hfpu::scen;
namespace srv = hfpu::srv;
using metrics::Json;
using perfbench::median;

/** Steps of every world in one batch. */
constexpr int kBatchSteps = 100;
/** Seeded Random debris worlds per batch, next to the paper's eight. */
constexpr int kRandomWorlds = 8;
/** world_step steps on one world before a fresh one is built. */
constexpr int kEpisodeSteps = 200;
/**
 * world_step cycles through this many worlds, each seeded from the
 * workload seed, one episode each; their mix moves less with the seed
 * than one world does. Every cycle replays the same steps, so a step's
 * latency is the median over the run's cycles of the steps at its
 * position: outside load, which strikes at random positions, must hit
 * half the cycles at one position to move it. The p99 over the 1000
 * positions of a cycle has ten beyond it.
 */
constexpr int kCycleWorlds = 5;
constexpr int kCycleSteps = kCycleWorlds * kEpisodeSteps;
/** Cycles an untraced world_step run measures at least. */
constexpr int kMinCycles = 3;
/**
 * Step samples (world_step) and batches a window keeps at most. Their
 * storage is allocated and touched before the window starts, and the
 * window ends when it is full, so the benchmark's own memory, and with
 * it peak_rss_mb, does not grow with throughput.
 */
constexpr size_t kMaxStepSamples = 1 << 16;
constexpr size_t kMaxBatches = 1 << 12;
/** Set-ups per run; setup_s is their median. */
constexpr int kBatchSetups = 9;
constexpr int kStepSetups = 5;
/** Warm-up steps of each world in one set-up. */
constexpr int kWarmSteps = 50;
constexpr int kWarmBatchSteps = 10;
/**
 * Pool size of the untimed check of every run, the traced pool window
 * and the registry and pool microbenchmarks, capped at the usable cores.
 */
constexpr int kThreads = 4;
/**
 * Worker threads of the timed windows: BatchScheduler threads and the
 * world_step world's WorldConfig::threads. On a shared host hypervisor
 * steal grows with the vCPUs a run keeps busy: at 4 threads the same
 * batch_full run swung 1.9x between runs and world_step, whose threaded
 * step waits for every worker at each phase, 1.5-3x; at 2 threads
 * batch_full still swung 1.3x. One thread reads steady to a few percent.
 */
constexpr int kTimedThreads = 1;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
benchThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int usable =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
    return std::clamp(usable, 1, kThreads);
}

/** An empty vector whose storage for @p n elements is already touched. */
template <class T>
std::vector<T>
preallocated(size_t n)
{
    std::vector<T> v(n);
    v.clear();
    return v;
}

/**
 * This process's peak resident set, VmHWM. Not getrusage's ru_maxrss:
 * Linux carries that across exec, so it would report the launcher's peak.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        throw std::runtime_error("cannot read /proc/self/status");
    char line[256];
    long kb = -1;
    while (kb < 0 && std::fgets(line, sizeof(line), f) != nullptr)
        std::sscanf(line, "VmHWM: %ld kB", &kb);
    std::fclose(f);
    if (kb < 0)
        throw std::runtime_error("no VmHWM in /proc/self/status");
    return static_cast<double>(kb) / 1024.0;
}

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

/** Worlds (batch) or steps (world_step) attempted, and how many failed. */
struct Outcome {
    int64_t attempted = 0;
    int64_t failed = 0;
};

/** The metrics of one run, in print order. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value))
            throw std::runtime_error("metric " + name + " is not finite");
        Json metric = Json::object();
        metric.set("value", Json(value));
        metric.set("unit", Json(unit));
        metrics_.set(name, std::move(metric));
    }

    void
    print(const Outcome &outcome) const
    {
        Json out = Json::object();
        out.set("correct", Json(outcome.failed == 0));
        out.set("attempted", Json(outcome.attempted));
        out.set("failed", Json(outcome.failed));
        out.set("metrics", metrics_);
        std::cout << out.dump(-1) << std::endl;
    }

  private:
    Json metrics_ = Json::object();
};

/**
 * Spans recorded from outside the library: kept in memory, written at
 * exit as Chrome trace events (Perfetto, chrome://tracing). A span's
 * parent is the index of the span that contains it (-1 = none).
 */
class SpanLog
{
  public:
    int64_t
    add(const char *name, int lane, int64_t begin, int64_t end,
        int64_t parent)
    {
        spans_.push_back({name, lane, begin, end, parent});
        return static_cast<int64_t>(spans_.size()) - 1;
    }

    void
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            throw std::runtime_error("cannot write trace " + path);
        int64_t origin = spans_.empty() ? 0 : spans_.front().begin;
        for (const Span &s : spans_)
            origin = std::min(origin, s.begin);
        std::fputs("{\"traceEvents\":[", f);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%zu,\"parent\":%lld}}",
                         i == 0 ? "" : ",", s.name, s.lane,
                         static_cast<double>(s.begin - origin) * 1e-3,
                         static_cast<double>(s.end - s.begin) * 1e-3, i,
                         static_cast<long long>(s.parent));
        }
        std::fputs("\n]}\n", f);
        if (std::fclose(f) != 0)
            throw std::runtime_error("cannot write trace " + path);
    }

  private:
    struct Span {
        const char *name;
        int lane;
        int64_t begin;
        int64_t end;
        int64_t parent;
    };
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Registry reads
// ---------------------------------------------------------------------

/** The phases World::step times as "phys/<phase>". */
constexpr const char *kPhases[] = {"broad", "narrow", "island", "lcp",
                                   "integrate"};
constexpr int kNumPhases = 5;
constexpr int kLcpPhase = 3;

/** True when @p key is @p leaf or ends in "/" followed by @p leaf. */
bool
keyIs(const std::string &key, std::string_view leaf)
{
    if (key.size() < leaf.size() ||
        key.compare(key.size() - leaf.size(), leaf.size(), leaf) != 0)
        return false;
    return key.size() == leaf.size() ||
        key[key.size() - leaf.size() - 1] == '/';
}

/**
 * Registry totals of the engine's phys timers and counters, summed
 * over every world namespace (a batch world writes
 * "srv/<scenario>@<index>/phys/..."), plus the calls of every timer.
 */
struct PhysTotals {
    double phaseNs[kNumPhases] = {};
    double pairs = 0.0;
    double contacts = 0.0;
    double islands = 0.0;
    double lcpRows = 0.0;
    double timerCalls = 0.0;

    void
    addDelta(const PhysTotals &after, const PhysTotals &before)
    {
        for (int p = 0; p < kNumPhases; ++p)
            phaseNs[p] += after.phaseNs[p] - before.phaseNs[p];
        pairs += after.pairs - before.pairs;
        contacts += after.contacts - before.contacts;
        islands += after.islands - before.islands;
        lcpRows += after.lcpRows - before.lcpRows;
        timerCalls += after.timerCalls - before.timerCalls;
    }
};

PhysTotals
physTotals()
{
    const Json snap = metrics::Registry::global().toJson();
    PhysTotals t;
    if (const Json *timers = snap.find("timers")) {
        for (const auto &[key, timer] : timers->members()) {
            const Json *calls = timer.find("calls");
            const Json *ns = timer.find("ns");
            t.timerCalls += calls != nullptr ? calls->asNumber() : 0.0;
            for (int p = 0; p < kNumPhases; ++p) {
                if (ns != nullptr &&
                    keyIs(key, std::string("phys/") + kPhases[p]))
                    t.phaseNs[p] += ns->asNumber();
            }
        }
    }
    if (const Json *counters = snap.find("counters")) {
        for (const auto &[key, value] : counters->members()) {
            if (keyIs(key, "phys/pairs"))
                t.pairs += value.asNumber();
            else if (keyIs(key, "phys/contacts"))
                t.contacts += value.asNumber();
            else if (keyIs(key, "phys/islands"))
                t.islands += value.asNumber();
            else if (keyIs(key, "phys/lcp/rows"))
                t.lcpRows += value.asNumber();
        }
    }
    return t;
}

// ---------------------------------------------------------------------
// Layer microbenchmarks (traced runs only)
// ---------------------------------------------------------------------

volatile float g_sink = 0.0f;

/** ns per Registry::count under a ScopedNamespace, @p threads at once. */
double
registryCountNs(int threads)
{
    constexpr int kCalls = 100000;
    constexpr int kReps = 3;
    std::vector<double> perCall;
    for (int rep = 0; rep < kReps; ++rep) {
        metrics::Registry registry;
        std::vector<double> ns(threads, 0.0);
        std::atomic<int> ready{0};
        auto body = [&](int t) {
            metrics::ScopedNamespace scope("bench/w" + std::to_string(t));
            ready.fetch_add(1);
            while (ready.load() < threads)
                std::this_thread::yield();
            const int64_t t0 = nowNs();
            for (int i = 0; i < kCalls; ++i)
                registry.count("phys/steps");
            ns[t] = static_cast<double>(nowNs() - t0) / kCalls;
        };
        std::vector<std::thread> others;
        for (int t = 1; t < threads; ++t)
            others.emplace_back(body, t);
        body(0);
        for (std::thread &th : others)
            th.join();
        perCall.insert(perCall.end(), ns.begin(), ns.end());
    }
    return median(perCall);
}

/** ns per fadd/fmul of a dependent chain at @p bits mantissa bits. */
double
fpOpNs(int bits, uint64_t seed)
{
    constexpr int kPairs = 1 << 19;
    constexpr int kReps = 5;
    scen::SplitMix64 rng(seed);
    const float a = rng.uniform(0.95f, 0.99f);
    const float b = rng.uniform(0.01f, 0.05f);
    fp::PrecisionContext &ctx = fp::PrecisionContext::current();
    ctx.setAllMantissaBits(bits);
    float x = 1.0f;
    std::vector<double> perOp;
    for (int rep = 0; rep < kReps; ++rep) {
        const int64_t t0 = nowNs();
        for (int i = 0; i < kPairs; ++i)
            x = fp::fadd(fp::fmul(x, a), b);
        perOp.push_back(static_cast<double>(nowNs() - t0) / (2.0 * kPairs));
    }
    ctx.setAllMantissaBits(fp::kFullMantissaBits);
    g_sink = x;
    return median(perOp);
}

/** Median µs of one WorkerPool::parallelFor over 64 empty tasks. */
double
parallelForUs(int threads)
{
    constexpr int kReps = 2000;
    phys::WorkerPool pool(threads);
    std::vector<double> us;
    us.reserve(kReps);
    for (int rep = 0; rep < kReps; ++rep) {
        const int64_t t0 = nowNs();
        pool.parallelFor(64, [](int) {});
        us.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
    }
    return median(us);
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

void
reportEndToEnd(double stepsPerS, double stepMsP50, double stepMsP99,
               const std::vector<double> &setupS, Report &out)
{
    out.add("steps_per_s", stepsPerS, "steps/s");
    out.add("step_ms_p50", stepMsP50, "ms");
    out.add("step_ms_p99", stepMsP99, "ms");
    out.add("setup_s", median(setupS), "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
}

/** What a traced run measured, before the microbenchmarks. */
struct LayerNumbers {
    PhysTotals phys;           //!< registry deltas, traced window
    double steps = 0.0;        //!< completed steps, traced window
    double stepNs = 0.0;       //!< mean time per step, traced window
    double opsPerStep = 0.0;   //!< FP ops per step, serial reference
    double speedup = 0.0;      //!< serial time / threaded time
    int speedupThreads = 1;    //!< threads of the threaded run
    double untracedRate = 0.0; //!< steps/s without tracing
    double tracedRate = 0.0;   //!< steps/s with tracing
    /** @name Scheduler; zero where the workload has no scheduler. */
    /** @{ */
    double runS = 0.0;
    double worldMsP50 = 0.0;
    double worldMsMax = 0.0;
    double occupancy = 0.0;
    double reexecutions = 0.0;
    double violations = 0.0;
    /** @} */
};

void
reportLayers(const LayerNumbers &n, int threads, uint64_t seed,
             Report &out)
{
    const double steps = std::max(1.0, n.steps);
    out.add("metrics.count_ns_1t", registryCountNs(1), "ns");
    out.add("metrics.count_ns_4t", registryCountNs(threads), "ns");
    out.add("metrics.timer_calls_per_step", n.phys.timerCalls / steps,
            "count");
    out.add("fp.op_ns_23", fpOpNs(fp::kFullMantissaBits, seed), "ns");
    out.add("fp.op_ns_12", fpOpNs(12, seed), "ns");
    out.add("fp.op_ns_8", fpOpNs(8, seed), "ns");
    out.add("fp.ops_per_step", n.opsPerStep, "count");
    out.add("fp.ns_per_op", n.stepNs / std::max(1.0, n.opsPerStep), "ns");
    double phasesUs = 0.0;
    for (int p = 0; p < kNumPhases; ++p) {
        const double us = n.phys.phaseNs[p] / steps * 1e-3;
        phasesUs += us;
        out.add(std::string("phys.") + kPhases[p] + "_us", us, "us");
    }
    out.add("phys.other_us", n.stepNs * 1e-3 - phasesUs, "us");
    out.add("phys.step_us", n.stepNs * 1e-3, "us");
    out.add("phys.pairs", n.phys.pairs / steps, "count");
    out.add("phys.contacts", n.phys.contacts / steps, "count");
    out.add("phys.islands", n.phys.islands / steps, "count");
    out.add("phys.lcp_rows", n.phys.lcpRows / steps, "count");
    out.add("phys.lcp_ns_per_row",
            n.phys.phaseNs[kLcpPhase] / std::max(1.0, n.phys.lcpRows), "ns");
    out.add("pool.speedup", n.speedup, "x");
    out.add("pool.efficiency", n.speedup / n.speedupThreads, "ratio");
    out.add("pool.parallel_for_us", parallelForUs(threads), "us");
    out.add("srv.run_s", n.runS, "s");
    out.add("srv.world_ms_p50", n.worldMsP50, "ms");
    out.add("srv.world_ms_max", n.worldMsMax, "ms");
    out.add("srv.occupancy", n.occupancy, "ratio");
    out.add("srv.reexecutions", n.reexecutions, "count");
    out.add("srv.violations", n.violations, "count");
    out.add("trace_overhead", n.untracedRate / n.tracedRate - 1.0, "ratio");
}

// ---------------------------------------------------------------------
// batch_full
// ---------------------------------------------------------------------

/**
 * The 16 worlds of a batch: the paper's eight, then kRandomWorlds
 * "Random#<n>" debris worlds with n drawn from @p seed. Random worlds
 * hold 6 to 15 debris bodies; taking one of each count in kRandomDebris
 * keeps the batch's body count, and so most of its cost, the same for
 * every seed.
 */
std::vector<srv::JobSpec>
batchJobs(uint64_t seed)
{
    constexpr size_t kRandomDebris[kRandomWorlds] = {6,  7,  9,  10,
                                                     11, 12, 14, 15};
    std::vector<std::string> names = scen::scenarioNames();
    uint64_t n = seed * 1000;
    for (size_t debris : kRandomDebris) {
        // The ground plane is the one body that is not debris.
        while (scen::makeRandomScenario(n).world->bodyCount() != debris + 1)
            ++n;
        names.push_back("Random#" + std::to_string(n++));
    }
    std::vector<srv::JobSpec> jobs;
    for (std::string &name : names) {
        srv::JobSpec spec;
        spec.scenario = std::move(name);
        spec.steps = kBatchSteps;
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

/** Worlds of @p got that fail their check against @p ref. */
int64_t
batchFailures(const std::vector<srv::WorldResult> &got,
              const std::vector<srv::WorldResult> &ref)
{
    int64_t failed = 0;
    for (size_t i = 0; i < got.size(); ++i) {
        const srv::WorldResult &r = got[i];
        if (r.status != srv::WorldStatus::Completed ||
            r.stepsDone != kBatchSteps || !std::isfinite(r.finalEnergy) ||
            i >= ref.size() || r.finalHash != ref[i].finalHash)
            ++failed;
    }
    return failed;
}

/** One BatchScheduler run on one thread: the reference of a run. */
struct SerialBatch {
    std::vector<srv::WorldResult> results;
    uint64_t ops = 0;
    int64_t steps = 0;
};

SerialBatch
serialBatch(const std::vector<srv::JobSpec> &jobs)
{
    srv::BatchConfig config;
    config.threads = 1;
    srv::BatchScheduler scheduler(config);
    fp::PrecisionContext &ctx = fp::PrecisionContext::current();
    SerialBatch ref;
    const uint64_t ops0 = ctx.totalOpCount();
    ref.results = scheduler.run(jobs);
    // A one-thread scheduler runs every world on this thread, so this
    // thread's counters saw every op of the batch.
    ref.ops = ctx.totalOpCount() - ops0;
    for (const srv::WorldResult &r : ref.results)
        ref.steps += r.stepsDone;
    return ref;
}

/** Progress stamps of the traced scheduler's onProgress. */
struct ProgressLog {
    struct Stamp {
        int world;
        int64_t ns;
    };
    /** Written under the scheduler's progress mutex. */
    std::vector<Stamp> stamps;
};

/** One BatchScheduler::run of a window. */
struct BatchRecord {
    double runS = 0.0;
    double rate = 0.0;       //!< world-steps/s
    double stepMsMean = 0.0; //!< summed wallMs / summed steps
    double worldMsP50 = 0.0; //!< median world's wallMs
    double worldMsMax = 0.0; //!< slowest world's wallMs
    double occupancy = 0.0;  //!< sum of wallMs / (run wall x threads)
};

/** What one window of back-to-back batches measured. */
struct BatchWindow {
    int64_t worlds = 0;
    int64_t failed = 0;
    int64_t steps = 0;
    double worldMsSum = 0.0;
    std::vector<BatchRecord> batches;
    double reexecutions = 0.0; //!< in the last batch
    double violations = 0.0;   //!< in the last batch
    std::vector<srv::WorldResult> last;
    PhysTotals phys;

    /** Median over batches: a burst of outside load spoils one batch. */
    double
    median(double BatchRecord::*field) const
    {
        std::vector<double> v;
        for (const BatchRecord &b : batches)
            v.push_back(b.*field);
        return perfbench::median(std::move(v));
    }
};

/**
 * Spans of each world of one traced run: the world, placed by its own
 * wall time to end at its last progress stamp, and its progress slices.
 */
void
traceWorlds(SpanLog &trace, int64_t runSpan,
            const std::vector<srv::WorldResult> &results,
            const ProgressLog &progress)
{
    for (size_t i = 0; i < results.size(); ++i) {
        const int world = static_cast<int>(i);
        std::vector<int64_t> stamps;
        for (const ProgressLog::Stamp &stamp : progress.stamps) {
            if (stamp.world == world)
                stamps.push_back(stamp.ns);
        }
        if (stamps.empty())
            continue;
        int64_t begin =
            stamps.back() - static_cast<int64_t>(results[i].wallMs * 1e6);
        const int64_t span =
            trace.add("world", world + 1, begin, stamps.back(), runSpan);
        for (int64_t end : stamps) {
            trace.add("slice", world + 1, begin, end, span);
            begin = end;
        }
    }
}

/**
 * Closed loop: run the batch, check it, run the next, until @p seconds
 * have passed. With @p trace set, also diff the registry around every
 * run() and record spans (needs the scheduler that feeds @p progress).
 */
BatchWindow
measureBatches(srv::BatchScheduler &scheduler,
               const std::vector<srv::JobSpec> &jobs,
               const std::vector<srv::WorldResult> &ref, double seconds,
               SpanLog *trace, ProgressLog *progress)
{
    BatchWindow w;
    w.batches = preallocated<BatchRecord>(kMaxBatches);
    std::vector<double> worldMs = preallocated<double>(jobs.size());
    const int64_t end = nowNs() + static_cast<int64_t>(seconds * 1e9);
    do {
        if (progress != nullptr)
            progress->stamps.clear();
        const PhysTotals before =
            trace != nullptr ? physTotals() : PhysTotals{};
        const int64_t t0 = nowNs();
        w.last = scheduler.run(jobs);
        const int64_t t1 = nowNs();
        if (trace != nullptr)
            w.phys.addDelta(physTotals(), before);

        w.failed += batchFailures(w.last, ref);
        int64_t steps = 0;
        worldMs.clear();
        w.reexecutions = 0.0;
        w.violations = 0.0;
        for (const srv::WorldResult &r : w.last) {
            ++w.worlds;
            steps += r.stepsDone;
            worldMs.push_back(r.wallMs);
            w.reexecutions += r.reexecutions;
            w.violations += r.violations;
        }
        const double sumMs =
            std::accumulate(worldMs.begin(), worldMs.end(), 0.0);
        w.steps += steps;
        w.worldMsSum += sumMs;

        BatchRecord b;
        b.runS = static_cast<double>(t1 - t0) * 1e-9;
        b.rate = static_cast<double>(steps) / b.runS;
        b.stepMsMean =
            sumMs / static_cast<double>(std::max<int64_t>(1, steps));
        b.worldMsP50 = median(worldMs);
        b.worldMsMax = *std::max_element(worldMs.begin(), worldMs.end());
        b.occupancy = sumMs / (b.runS * 1e3 * scheduler.threads());
        w.batches.push_back(b);

        if (trace != nullptr) {
            const int64_t runSpan = trace->add("run", 0, t0, t1, -1);
            traceWorlds(*trace, runSpan, w.last, *progress);
        }
    } while (nowNs() < end && w.batches.size() < kMaxBatches);
    return w;
}

Outcome
runBatch(const Options &opt, int threads, Report &out)
{
    const std::vector<srv::JobSpec> jobs = batchJobs(opt.seed);
    srv::BatchConfig config;
    config.threads = kTimedThreads;
    srv::BatchConfig pooledConfig;
    pooledConfig.threads = threads;

    // Set-up: scheduler construction, then a short batch that builds
    // every world and warms caches and the registry's keys.
    std::vector<srv::JobSpec> warmJobs = jobs;
    for (srv::JobSpec &spec : warmJobs)
        spec.steps = kWarmBatchSteps;
    std::vector<double> setupS;
    std::unique_ptr<srv::BatchScheduler> scheduler;
    for (int rep = 0; rep < kBatchSetups; ++rep) {
        scheduler.reset();
        const int64_t t0 = nowNs();
        scheduler = std::make_unique<srv::BatchScheduler>(config);
        scheduler->run(warmJobs);
        setupS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }

    const SerialBatch ref = serialBatch(jobs);
    Outcome outcome;
    outcome.attempted += static_cast<int64_t>(ref.results.size());
    outcome.failed += batchFailures(ref.results, ref.results);

    if (!opt.trace) {
        const BatchWindow w = measureBatches(*scheduler, jobs, ref.results,
                                             opt.seconds, nullptr, nullptr);
        // One untimed batch on the pool, checked against the same serial
        // reference.
        srv::BatchScheduler pooledScheduler(pooledConfig);
        const BatchWindow pooled = measureBatches(
            pooledScheduler, jobs, ref.results, 0.0, nullptr, nullptr);
        outcome.attempted += w.worlds + pooled.worlds;
        outcome.failed += w.failed + pooled.failed;
        reportEndToEnd(w.median(&BatchRecord::rate),
                       w.median(&BatchRecord::stepMsMean),
                       w.median(&BatchRecord::worldMsMax) / kBatchSteps,
                       setupS, out);
        return outcome;
    }

    const BatchWindow plain = measureBatches(
        *scheduler, jobs, ref.results, opt.seconds / 2, nullptr, nullptr);

    ProgressLog progress;
    srv::BatchConfig tracedConfig = config;
    tracedConfig.onProgress = [&progress](const srv::WorldProgress &p) {
        progress.stamps.push_back({p.world, nowNs()});
    };
    scheduler = std::make_unique<srv::BatchScheduler>(tracedConfig);
    scheduler->run(jobs); // warm the new scheduler; not measured
    SpanLog trace;
    const BatchWindow traced = measureBatches(
        *scheduler, jobs, ref.results, opt.seconds / 2, &trace, &progress);
    srv::BatchScheduler pooledScheduler(pooledConfig);
    const BatchWindow pooled = measureBatches(
        pooledScheduler, jobs, ref.results, opt.seconds / 4, nullptr, nullptr);
    outcome.attempted += plain.worlds + traced.worlds + pooled.worlds;
    outcome.failed += plain.failed + traced.failed + pooled.failed;

    LayerNumbers n;
    n.phys = traced.phys;
    n.steps = static_cast<double>(traced.steps);
    n.stepNs = traced.worldMsSum * 1e6 /
        static_cast<double>(std::max<int64_t>(1, traced.steps));
    n.opsPerStep = static_cast<double>(ref.ops) /
        static_cast<double>(std::max<int64_t>(1, ref.steps));
    n.speedup = plain.median(&BatchRecord::runS) /
        pooled.median(&BatchRecord::runS);
    n.speedupThreads = threads;
    n.untracedRate = plain.median(&BatchRecord::rate);
    n.tracedRate = traced.median(&BatchRecord::rate);
    n.runS = traced.median(&BatchRecord::runS);
    n.worldMsP50 = traced.median(&BatchRecord::worldMsP50);
    n.worldMsMax = traced.median(&BatchRecord::worldMsMax);
    n.occupancy = traced.median(&BatchRecord::occupancy);
    n.reexecutions = traced.reexecutions;
    n.violations = traced.violations;
    if (!opt.traceOut.empty())
        trace.write(opt.traceOut);
    reportLayers(n, threads, opt.seed, out);
    return outcome;
}

// ---------------------------------------------------------------------
// world_step
// ---------------------------------------------------------------------

/** The debris field of world @p world of a world_step cycle. */
scen::Scenario
cycleWorld(uint64_t seed, int world, int threads)
{
    return perfbench::makeDebrisField(seed * kCycleWorlds + world, threads);
}

/** One serial world_step cycle: the reference of a run. */
struct SerialCycle {
    std::vector<uint64_t> hash; //!< stateHash after each step
    uint64_t ops = 0;
};

SerialCycle
serialCycle(uint64_t seed)
{
    fp::PrecisionContext &ctx = fp::PrecisionContext::current();
    SerialCycle ref;
    for (int world = 0; world < kCycleWorlds; ++world) {
        scen::Scenario s = cycleWorld(seed, world, 1);
        for (int k = 0; k < kEpisodeSteps; ++k) {
            const uint64_t ops0 = ctx.totalOpCount();
            s.step();
            ref.ops += ctx.totalOpCount() - ops0;
            ref.hash.push_back(srv::stateHash(*s.world));
        }
    }
    return ref;
}

/** What one window of world_step episodes measured. */
struct StepWindow {
    int64_t steps = 0;
    int64_t failed = 0;
    int64_t stepNsSum = 0;      //!< summed Scenario::step wall time
    std::vector<double> stepNs; //!< per-step latency samples
    PhysTotals phys;

    /** Each cycle position's median step time over the cycles. */
    std::vector<double>
    positionNs() const
    {
        std::vector<double> out;
        for (int k = 0; k < kCycleSteps; ++k) {
            std::vector<double> at;
            for (size_t i = k; i < stepNs.size(); i += kCycleSteps)
                at.push_back(stepNs[i]);
            out.push_back(median(at));
        }
        return out;
    }

    /** Steps/s of a cycle made of the position medians. */
    double
    rate() const
    {
        const std::vector<double> ns = positionNs();
        return kCycleSteps /
            (std::accumulate(ns.begin(), ns.end(), 0.0) * 1e-9);
    }
};

/**
 * Closed loop of Scenario::step calls on debris fields with @p threads
 * workers, the next world of the cycle every kEpisodeSteps steps, until
 * @p seconds have passed and at least @p minSteps steps ran. Each
 * episode's final state must hash like the serial cycle at the same
 * step.
 */
StepWindow
measureSteps(uint64_t seed, int threads, const SerialCycle &ref,
             double seconds, size_t minSteps, SpanLog *trace)
{
    StepWindow w;
    w.stepNs = preallocated<double>(kMaxStepSamples);
    const int64_t end = nowNs() + static_cast<int64_t>(seconds * 1e9);
    auto more = [&] {
        return (nowNs() < end || w.stepNs.size() < minSteps) &&
            w.stepNs.size() < kMaxStepSamples;
    };
    int episodes = 0;
    do {
        const int world = episodes++ % kCycleWorlds;
        scen::Scenario s = cycleWorld(seed, world, threads);
        std::vector<std::pair<int64_t, int64_t>> spans;
        const int64_t episodeBegin = nowNs();
        int done = 0;
        bool ok = true;
        // A traced window finishes its cycles, so its per-step counts are
        // the same on every run.
        while (ok && done < kEpisodeSteps &&
               (done == 0 || trace != nullptr || more())) {
            const PhysTotals before =
                trace != nullptr ? physTotals() : PhysTotals{};
            const int64_t t0 = nowNs();
            try {
                s.step();
            } catch (const std::exception &e) {
                std::cerr << "perfbench: step threw: " << e.what() << "\n";
                ok = false;
            }
            const int64_t t1 = nowNs();
            if (trace != nullptr) {
                w.phys.addDelta(physTotals(), before);
                spans.emplace_back(t0, t1);
            }
            w.stepNs.push_back(static_cast<double>(t1 - t0));
            w.stepNsSum += t1 - t0;
            ++done;
            ok = ok && s.world->stateFinite();
        }
        w.steps += done;
        if (!ok ||
            srv::stateHash(*s.world) !=
                ref.hash[world * kEpisodeSteps + done - 1])
            w.failed += done;
        if (trace != nullptr) {
            const int64_t episode =
                trace->add("episode", 0, episodeBegin, nowNs(), -1);
            for (const auto &[b, e] : spans)
                trace->add("step", 1, b, e, episode);
        }
    } while (more() ||
             (trace != nullptr && episodes % kCycleWorlds != 0));
    return w;
}

Outcome
runWorldStep(const Options &opt, int threads, Report &out)
{
    // Set-up: build each world of the cycle, then warm it up.
    std::vector<double> setupS;
    for (int rep = 0; rep < kStepSetups; ++rep) {
        const int64_t t0 = nowNs();
        for (int world = 0; world < kCycleWorlds; ++world) {
            scen::Scenario s = cycleWorld(opt.seed, world, kTimedThreads);
            s.run(kWarmSteps);
        }
        setupS.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }

    const SerialCycle ref = serialCycle(opt.seed);
    Outcome outcome;
    if (!opt.trace) {
        const StepWindow w = measureSteps(opt.seed, kTimedThreads, ref,
                                          opt.seconds,
                                          kMinCycles * kCycleSteps,
                                          nullptr);
        // One untimed cycle on the pool, checked against the same serial
        // reference.
        const StepWindow pooled =
            measureSteps(opt.seed, threads, ref, 0.0, kCycleSteps, nullptr);
        outcome.attempted = w.steps + pooled.steps;
        outcome.failed = w.failed + pooled.failed;
        const std::vector<double> positionNs = w.positionNs();
        reportEndToEnd(w.rate(), median(positionNs) * 1e-6,
                       perfbench::tailPercentile(positionNs, 0.99).value() *
                           1e-6,
                       setupS, out);
        return outcome;
    }

    const StepWindow plain = measureSteps(opt.seed, kTimedThreads, ref,
                                          opt.seconds / 2, kCycleSteps,
                                          nullptr);
    SpanLog trace;
    const StepWindow traced = measureSteps(opt.seed, kTimedThreads, ref,
                                           opt.seconds / 2, 1, &trace);
    const StepWindow pooled = measureSteps(opt.seed, threads, ref,
                                           opt.seconds / 4, kCycleSteps,
                                           nullptr);
    outcome.attempted = plain.steps + traced.steps + pooled.steps;
    outcome.failed = plain.failed + traced.failed + pooled.failed;

    LayerNumbers n;
    n.phys = traced.phys;
    n.steps = static_cast<double>(traced.steps);
    n.stepNs = static_cast<double>(traced.stepNsSum) /
        static_cast<double>(std::max<int64_t>(1, traced.steps));
    n.opsPerStep = static_cast<double>(ref.ops) / kCycleSteps;
    n.speedup = pooled.rate() / plain.rate();
    n.speedupThreads = threads;
    n.untracedRate = plain.rate();
    n.tracedRate = traced.rate();
    if (!opt.traceOut.empty())
        trace.write(opt.traceOut);
    reportLayers(n, threads, opt.seed, out);
    return outcome;
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        errno = 0;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            if (value.empty() || value[0] < '0' || value[0] > '9')
                return false;
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || errno != 0)
                return false;
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || errno != 0 ||
                !(opt.seconds > 0.0 && opt.seconds <= 3600.0))
                return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return false;
            opt.trace = value == "1";
        } else if (flag == "--trace-out") {
            opt.traceOut = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 &&
        (opt.workload == "batch_full" || opt.workload == "world_step");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::cerr << "usage: perfbench --workload "
                     "batch_full|world_step --seed <n> "
                     "--seconds <s> --trace 0|1 [--trace-out <file>]\n";
        return 2;
    }
    try {
        const int threads = benchThreads();
        Report report;
        const Outcome outcome = opt.workload == "world_step"
            ? runWorldStep(opt, threads, report)
            : runBatch(opt, threads, report);
        report.print(outcome);
        return outcome.failed == 0 ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
