/**
 * @file
 * Batch simulation service CLI: run many scenario worlds concurrently
 * over one shared worker pool (src/srv), stream per-world progress,
 * and emit a machine-readable artifact in the bench_regress schema.
 *
 *   sim_server --scenario Explosions --scenario Ragdoll --replicas 4 \
 *              --steps 200 --threads 8 --lcp-bits 14 --json batch.json
 *
 * The determinism contract makes the batch layer a pure throughput
 * multiplier: the per-world state hashes written by --hashes are
 * bitwise identical for any --threads value, which the CI smoke job
 * checks by diffing a 2-thread run against a serial run.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "csim/metrics.h"
#include "fault/fault.h"
#include "fp/precision.h"
#include "phys/clock.h"
#include "scen/scenario.h"
#include "srv/batch.h"

using namespace hfpu;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --scenario NAME    scenario to run (repeatable; 'all' = the "
        "eight paper\n"
        "                     scenarios; 'Random' = seeded debris "
        "worlds). One of:", argv0);
    for (const auto &n : scen::scenarioNames())
        std::printf(" %s", n.c_str());
    std::printf(
        "\n"
        "  --steps N          steps per world (default 200)\n"
        "  --replicas K       worlds per scenario (default 1)\n"
        "  --threads T        shared pool size (default 1)\n"
        "  --slice N          steps per progress slice (default 25)\n"
        "  --seed S           base seed for Random scenarios "
        "(default 1)\n"
        "  --lcp-bits N       minimum LCP mantissa bits (default 23)\n"
        "  --narrow-bits N    minimum narrow-phase bits (default 23)\n"
        "  --mode M           rn | jamming | truncation (default "
        "jamming)\n"
        "  --no-controller    fixed widths; the energy guard only recovers\n"
        "  --no-inner         disable island-level parallelism inside "
        "worlds\n"
        "  --progress         stream per-world slice progress lines\n"
        "  --json PATH        write the aggregate artifact "
        "(bench_regress schema)\n"
        "  --hashes PATH      write one 'index scenario steps hash "
        "status' line\n"
        "                     per world (deterministic across thread "
        "counts)\n"
        "  --quick            shortened run (steps capped at 60)\n"
        "chaos campaign (deterministic fault injection, src/fault):\n"
        "  --fault-spec SPEC  arm the injector, e.g.\n"
        "                     "
        "'seed=7,bitflip=0.01,throw=0.005,steps=10..80'\n"
        "                     keys: seed, bitflip, nan, inf, throw,\n"
        "                     steps=a..b, max=N\n"
        "  --checkpoints N    per-world checkpoint ring size "
        "(default 4; 0 = off,\n"
        "                     which requires --rollback 0)\n"
        "  --rollback K       steps rolled back per recovery "
        "(default 3)\n"
        "  --recovery-budget N  recoveries per world before "
        "quarantine (default 3)\n"
        "  --rehab-attempts N full-precision reruns for quarantined "
        "worlds (default 1)\n"
        "overload resilience (deadlines, degradation, backpressure):\n"
        "  --step-deadline-us N   per-step deadline; miss streaks walk "
        "the\n"
        "                         degradation ladder (default 0 = off)\n"
        "  --world-budget-us N    per-world time budget; exhaustion "
        "quarantines\n"
        "                         as DeadlineExceeded (default 0 = "
        "off)\n"
        "  --degrade-after N      misses before escalating a rung "
        "(default 2)\n"
        "  --relax-after N        on-time steps before relaxing "
        "(default 8)\n"
        "  --max-pending N        worlds admitted per run; the rest "
        "are\n"
        "                         rejected with a retry hint (default 0)\n"
        "  --virtual-clock US     deterministic virtual clock, US "
        "microseconds\n"
        "                         base step cost (0 = real steady "
        "clock)\n"
        "  --virtual-jitter F     virtual clock jitter fraction in "
        "[0,1]\n"
        "                         (default 0.5; seeded from --seed)\n"
        "  --events PATH          write one line per degradation event "
        "(stable\n"
        "                         across thread counts under the "
        "virtual clock)\n");
}

const char *
statusName(srv::WorldStatus status)
{
    switch (status) {
      case srv::WorldStatus::Completed:   return "completed";
      case srv::WorldStatus::Quarantined: return "quarantined";
      case srv::WorldStatus::Rejected:    return "rejected";
    }
    return "?";
}

/**
 * Strict numeric parsing: a flag that looks numeric but is not (or
 * trails garbage, or overflows) is a misconfigured campaign, and a
 * silently-zero value would run the wrong experiment. Error + exit 2.
 */
long
parseIntArg(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0') {
        std::fprintf(stderr,
                     "sim_server: error: %s expects an integer, got "
                     "'%s'\n",
                     flag, text);
        std::exit(2);
    }
    return v;
}

double
parseFloatArg(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0') {
        std::fprintf(stderr,
                     "sim_server: error: %s expects a number, got "
                     "'%s'\n",
                     flag, text);
        std::exit(2);
    }
    return v;
}

uint64_t
parseU64Arg(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
        std::fprintf(stderr,
                     "sim_server: error: %s expects an unsigned "
                     "integer, got '%s'\n",
                     flag, text);
        std::exit(2);
    }
    return static_cast<uint64_t>(v);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> scenarios;
    int steps = 200;
    int replicas = 1;
    int threads = 1;
    int slice = 25;
    uint64_t seed = 1;
    int lcp_bits = 23;
    int narrow_bits = 23;
    bool use_controller = true;
    bool inner_parallel = true;
    bool stream_progress = false;
    bool quick = false;
    std::string json_path;
    std::string hashes_path;
    fp::RoundingMode mode = fp::RoundingMode::Jamming;
    fault::FaultSpec faults; // all rates zero = injection disabled
    bool fault_mode = false;
    int checkpoints = 4;
    int rollback = 3;
    int recovery_budget = 3;
    int rehab_attempts = 1;
    long step_deadline_us = 0;
    long world_budget_us = 0;
    int degrade_after = 2;
    int relax_after = 8;
    int max_pending = 0;
    long virtual_clock_us = 0;
    double virtual_jitter = 0.5;
    std::string events_path;

    for (int i = 1; i < argc; ++i) {
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "sim_server: error: %s expects a value\n",
                             argv[i]);
                std::exit(2);
            }
            return argv[++i];
        };
        auto nextInt = [&]() {
            const char *flag = argv[i];
            return static_cast<int>(parseIntArg(flag, next()));
        };
        if (!std::strcmp(argv[i], "--scenario")) {
            scenarios.push_back(next());
        } else if (!std::strcmp(argv[i], "--steps")) {
            steps = nextInt();
        } else if (!std::strcmp(argv[i], "--replicas")) {
            replicas = nextInt();
        } else if (!std::strcmp(argv[i], "--threads")) {
            threads = nextInt();
        } else if (!std::strcmp(argv[i], "--slice")) {
            slice = nextInt();
        } else if (!std::strcmp(argv[i], "--seed")) {
            seed = parseU64Arg("--seed", next());
        } else if (!std::strcmp(argv[i], "--lcp-bits")) {
            lcp_bits = nextInt();
        } else if (!std::strcmp(argv[i], "--narrow-bits")) {
            narrow_bits = nextInt();
        } else if (!std::strcmp(argv[i], "--fault-spec")) {
            const char *text = next();
            std::string error;
            faults = fault::FaultSpec::parse(text, &error);
            if (!error.empty()) {
                std::fprintf(stderr,
                             "sim_server: error: bad --fault-spec "
                             "'%s': %s\n",
                             text, error.c_str());
                return 2;
            }
            fault_mode = true;
        } else if (!std::strcmp(argv[i], "--checkpoints")) {
            checkpoints = nextInt();
        } else if (!std::strcmp(argv[i], "--rollback")) {
            rollback = nextInt();
        } else if (!std::strcmp(argv[i], "--recovery-budget")) {
            recovery_budget = nextInt();
        } else if (!std::strcmp(argv[i], "--rehab-attempts")) {
            rehab_attempts = nextInt();
        } else if (!std::strcmp(argv[i], "--step-deadline-us")) {
            step_deadline_us = parseIntArg("--step-deadline-us", next());
        } else if (!std::strcmp(argv[i], "--world-budget-us")) {
            world_budget_us = parseIntArg("--world-budget-us", next());
        } else if (!std::strcmp(argv[i], "--degrade-after")) {
            degrade_after = nextInt();
        } else if (!std::strcmp(argv[i], "--relax-after")) {
            relax_after = nextInt();
        } else if (!std::strcmp(argv[i], "--max-pending")) {
            max_pending = nextInt();
        } else if (!std::strcmp(argv[i], "--virtual-clock")) {
            virtual_clock_us = parseIntArg("--virtual-clock", next());
        } else if (!std::strcmp(argv[i], "--virtual-jitter")) {
            virtual_jitter = parseFloatArg("--virtual-jitter", next());
        } else if (!std::strcmp(argv[i], "--events")) {
            events_path = next();
        } else if (!std::strcmp(argv[i], "--no-controller")) {
            use_controller = false;
        } else if (!std::strcmp(argv[i], "--no-inner")) {
            inner_parallel = false;
        } else if (!std::strcmp(argv[i], "--progress")) {
            stream_progress = true;
        } else if (!std::strcmp(argv[i], "--quick")) {
            quick = true;
        } else if (!std::strcmp(argv[i], "--json")) {
            json_path = next();
        } else if (!std::strcmp(argv[i], "--hashes")) {
            hashes_path = next();
        } else if (!std::strcmp(argv[i], "--mode")) {
            const std::string m = next();
            if (m == "rn")
                mode = fp::RoundingMode::RoundToNearest;
            else if (m == "jamming")
                mode = fp::RoundingMode::Jamming;
            else if (m == "truncation")
                mode = fp::RoundingMode::Truncation;
            else {
                std::fprintf(stderr,
                             "sim_server: error: --mode expects rn | "
                             "jamming | truncation, got '%s'\n",
                             m.c_str());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--help")) {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr,
                         "sim_server: error: unknown option '%s'\n",
                         argv[i]);
            usage(argv[0]);
            return 2;
        }
    }

    // Cross-flag validation: an inconsistent campaign configuration is
    // a misconfiguration, not a degenerate run — diagnose and exit 2
    // before simulating anything.
    auto configError = [](const char *message) {
        std::fprintf(stderr, "sim_server: error: %s\n", message);
        std::exit(2);
    };
    if (threads < 1)
        configError("--threads must be >= 1");
    if (steps < 0)
        configError("--steps must be >= 0");
    if (replicas < 1)
        configError("--replicas must be >= 1");
    if (lcp_bits < 0 || lcp_bits > 23)
        configError("--lcp-bits must be in [0, 23]");
    if (narrow_bits < 0 || narrow_bits > 23)
        configError("--narrow-bits must be in [0, 23]");
    if (checkpoints < 0 || rollback < 0 || recovery_budget < 0 ||
        rehab_attempts < 0)
        configError("recovery flags (--checkpoints, --rollback, "
                    "--recovery-budget, --rehab-attempts) must be >= 0");
    if (rollback > 0 && checkpoints < rollback)
        configError("--rollback R needs --checkpoints >= R: the ring "
                    "must hold a checkpoint that far back for the "
                    "recovery ladder to roll to (use --rollback 0 to "
                    "disable recovery)");
    if (step_deadline_us < 0 || world_budget_us < 0)
        configError("deadline flags (--step-deadline-us, "
                    "--world-budget-us) must be >= 0");
    if (degrade_after < 1 || relax_after < 1)
        configError("--degrade-after and --relax-after must be >= 1");
    if (max_pending < 0)
        configError("--max-pending must be >= 0");
    if (virtual_clock_us < 0)
        configError("--virtual-clock must be >= 0");
    if (virtual_jitter < 0.0 || virtual_jitter > 1.0)
        configError("--virtual-jitter must be in [0, 1]");
    const bool overload_mode =
        step_deadline_us > 0 || world_budget_us > 0 || max_pending > 0;

    if (scenarios.empty())
        scenarios.push_back("Everything");
    // Expand "all" in place, wherever it appears in the list.
    for (size_t i = 0; i < scenarios.size();) {
        if (scenarios[i] == "all") {
            const auto &names = scen::scenarioNames();
            scenarios.erase(scenarios.begin() + i);
            scenarios.insert(scenarios.begin() + i, names.begin(),
                             names.end());
            i += names.size();
        } else {
            ++i;
        }
    }
    if (quick)
        steps = std::min(steps, 60);

    phys::PrecisionPolicy policy;
    policy.minLcpBits = lcp_bits;
    policy.minNarrowBits = narrow_bits;
    policy.roundingMode = mode;

    std::vector<srv::JobSpec> jobs;
    for (const std::string &name : scenarios) {
        srv::JobSpec spec;
        spec.scenario = name;
        spec.steps = steps;
        spec.replicas = replicas;
        spec.seed = seed;
        spec.policy = policy;
        spec.useController = use_controller;
        spec.faults = faults;
        jobs.push_back(std::move(spec));
    }

    srv::BatchConfig config;
    config.threads = threads;
    config.sliceSteps = slice;
    config.innerParallel = inner_parallel;
    config.checkpointCapacity = checkpoints;
    config.rollbackSteps = rollback;
    config.recoveryBudget = recovery_budget;
    config.rehabAttempts = rehab_attempts;
    config.stepDeadlineMicros = step_deadline_us;
    config.worldBudgetMicros = world_budget_us;
    config.degradeAfterMisses = degrade_after;
    config.relaxAfterSteps = relax_after;
    config.maxPendingWorlds = max_pending;
    // The virtual clock makes the whole overload campaign a pure
    // function of the seed: identical event streams on any --threads.
    std::optional<phys::VirtualClock> virtualClock;
    if (virtual_clock_us > 0) {
        virtualClock.emplace(virtual_clock_us, seed, virtual_jitter);
        config.clock = &*virtualClock;
    }
    if (stream_progress) {
        config.onProgress = [](const srv::WorldProgress &p) {
            std::printf("[w%03d %s#%d] step %d/%d energy=%.3f%s\n",
                        p.world, p.scenario.c_str(), p.replica,
                        p.stepsDone, p.stepsTotal, p.energy,
                        p.quarantined ? " QUARANTINED" : "");
            std::fflush(stdout);
        };
    }

    std::printf("sim_server: %zu scenario(s) x %d replica(s) x %d "
                "steps on %d thread(s), lcp>=%d narrow>=%d bits, %s, "
                "controller %s\n",
                scenarios.size(), replicas, steps, threads, lcp_bits,
                narrow_bits, fp::roundingModeName(mode),
                use_controller ? "on" : "off");
    if (fault_mode)
        std::printf("chaos campaign: %s (checkpoints=%d rollback=%d "
                    "budget=%d rehab=%d)\n",
                    faults.describe().c_str(), checkpoints, rollback,
                    recovery_budget, rehab_attempts);
    if (overload_mode)
        std::printf("overload campaign: step-deadline=%ldus "
                    "world-budget=%ldus degrade-after=%d relax-after=%d "
                    "max-pending=%d clock=%s\n",
                    step_deadline_us, world_budget_us, degrade_after,
                    relax_after, max_pending,
                    virtual_clock_us > 0
                        ? ("virtual(" + std::to_string(virtual_clock_us) +
                           "us)")
                              .c_str()
                        : "steady");

    metrics::Registry::global().reset();
    srv::BatchScheduler scheduler(config);
    const auto start = std::chrono::steady_clock::now();
    const std::vector<srv::WorldResult> results = scheduler.run(jobs);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();

    int completed = 0, quarantined = 0, rehabilitated = 0;
    int rejected = 0, deadline_exceeded = 0;
    long total_steps = 0, total_rollbacks = 0, total_injected = 0;
    long total_misses = 0, total_degradations = 0;
    double busy_ms = 0.0;
    for (const auto &r : results) {
        switch (r.status) {
          case srv::WorldStatus::Completed:   ++completed; break;
          case srv::WorldStatus::Quarantined: ++quarantined; break;
          case srv::WorldStatus::Rejected:    ++rejected; break;
        }
        rehabilitated += r.rehabilitated ? 1 : 0;
        deadline_exceeded += r.deadlineExceeded ? 1 : 0;
        total_steps += r.stepsDone;
        total_rollbacks += r.rollbacks;
        total_injected += static_cast<long>(r.faultStats.total());
        total_misses += r.deadlineMisses;
        total_degradations += static_cast<long>(r.degradationEvents.size());
        busy_ms += r.wallMs;
    }

    std::printf("\n%5s %-24s %6s %6s %6s %18s %12s  %s\n", "world",
                "scenario", "steps", "viol", "rollbk", "hash",
                "energy(J)", "status");
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        std::printf("%5zu %-24s %6d %6d %6d  %016llx %12.3f  %s%s%s%s\n",
                    i,
                    (r.scenario + "#" + std::to_string(r.replica)).c_str(),
                    r.stepsDone, r.violations, r.rollbacks,
                    static_cast<unsigned long long>(r.finalHash),
                    r.finalEnergy, statusName(r.status),
                    r.rehabilitated ? " (rehabilitated)" : "",
                    r.quarantineReason.empty() ? "" : ": ",
                    r.quarantineReason.c_str());
    }
    std::printf("\n%d world(s): %d completed (%d rehabilitated), %d "
                "quarantined, %d rejected; %ld rollback(s), %ld "
                "injected fault(s); %ld steps in %.1f ms wall (%.0f "
                "steps/s, speedup est. %.2fx)\n",
                static_cast<int>(results.size()), completed,
                rehabilitated, quarantined, rejected, total_rollbacks,
                total_injected, total_steps, wall_ms,
                wall_ms > 0.0 ? 1000.0 * total_steps / wall_ms : 0.0,
                wall_ms > 0.0 ? busy_ms / wall_ms : 0.0);
    if (overload_mode)
        std::printf("overload: %ld deadline miss(es), %ld degradation "
                    "event(s), %d DeadlineExceeded\n",
                    total_misses, total_degradations, deadline_exceeded);

    if (!hashes_path.empty()) {
        std::FILE *f = std::fopen(hashes_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         hashes_path.c_str());
            return 1;
        }
        for (size_t i = 0; i < results.size(); ++i) {
            const auto &r = results[i];
            std::fprintf(f, "w%03zu %s#%d %d %016llx %s\n", i,
                         r.scenario.c_str(), r.replica, r.stepsDone,
                         static_cast<unsigned long long>(r.finalHash),
                         statusName(r.status));
        }
        std::fclose(f);
        std::printf("wrote %s\n", hashes_path.c_str());
    }

    if (!events_path.empty()) {
        // One line per ladder transition, in (world, event) order —
        // under the virtual clock this file is bitwise identical for
        // any --threads value, which the CI overload job diffs.
        std::FILE *f = std::fopen(events_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         events_path.c_str());
            return 1;
        }
        for (size_t i = 0; i < results.size(); ++i) {
            const auto &r = results[i];
            for (const auto &ev : r.degradationEvents)
                std::fprintf(
                    f,
                    "w%03zu %s#%d step=%d %s cause=%s level=%s "
                    "narrow=%d lcp=%d cap=%d cost=%lld used=%lld\n",
                    i, r.scenario.c_str(), r.replica, ev.step,
                    ev.action.c_str(), ev.cause.c_str(),
                    phys::degradationLevelName(ev.level), ev.narrowBits,
                    ev.lcpBits, ev.iterationCap,
                    static_cast<long long>(ev.stepCostMicros),
                    static_cast<long long>(ev.budgetUsedMicros));
            if (r.status == srv::WorldStatus::Rejected)
                std::fprintf(
                    f, "w%03zu %s#%d rejected retry-after=%lld\n", i,
                    r.scenario.c_str(), r.replica,
                    static_cast<long long>(r.retryAfterMicros));
        }
        std::fclose(f);
        std::printf("wrote %s\n", events_path.c_str());
    }

    if (!json_path.empty()) {
        metrics::Json out = metrics::Json::object();
        out.set("schema", metrics::Json(1));
        out.set("bench", metrics::Json("sim_server"));
        out.set("quick", metrics::Json(quick));
        metrics::Json m = metrics::Json::object();
        m.set("worlds", metrics::Json(static_cast<int>(results.size())));
        m.set("completed", metrics::Json(completed));
        m.set("quarantined", metrics::Json(quarantined));
        m.set("rehabilitated", metrics::Json(rehabilitated));
        m.set("rollbacks",
              metrics::Json(static_cast<int64_t>(total_rollbacks)));
        m.set("injected_faults",
              metrics::Json(static_cast<int64_t>(total_injected)));
        m.set("total_steps", metrics::Json(static_cast<int64_t>(total_steps)));
        m.set("rejected", metrics::Json(rejected));
        m.set("deadline_misses",
              metrics::Json(static_cast<int64_t>(total_misses)));
        m.set("degradation_events",
              metrics::Json(static_cast<int64_t>(total_degradations)));
        m.set("deadline_exceeded", metrics::Json(deadline_exceeded));
        out.set("metrics", m);
        metrics::Json info = metrics::Json::object();
        info.set("threads", metrics::Json(threads));
        info.set("seed", metrics::Json(static_cast<uint64_t>(seed)));
        info.set("wall_ms", metrics::Json(wall_ms));
        info.set("steps_per_sec", metrics::Json(
            wall_ms > 0.0 ? 1000.0 * total_steps / wall_ms : 0.0));
        if (fault_mode) {
            // The campaign is fully replayable from this block alone.
            metrics::Json fj = metrics::Json::object();
            fj.set("spec", metrics::Json(faults.describe()));
            fj.set("checkpoints", metrics::Json(checkpoints));
            fj.set("rollback_steps", metrics::Json(rollback));
            fj.set("recovery_budget", metrics::Json(recovery_budget));
            fj.set("rehab_attempts", metrics::Json(rehab_attempts));
            metrics::Json byKind = metrics::Json::object();
            for (int k = 0; k < fault::kNumFaultKinds; ++k) {
                uint64_t n = 0;
                for (const auto &r : results)
                    n += r.faultStats.injected[k];
                byKind.set(
                    fault::faultKindName(static_cast<fault::FaultKind>(k)),
                    metrics::Json(n));
            }
            fj.set("injected_by_kind", std::move(byKind));
            info.set("fault_campaign", std::move(fj));
        }
        if (overload_mode || virtual_clock_us > 0) {
            // The campaign is fully replayable from this block alone.
            metrics::Json oj = metrics::Json::object();
            oj.set("step_deadline_us",
                   metrics::Json(static_cast<int64_t>(step_deadline_us)));
            oj.set("world_budget_us",
                   metrics::Json(static_cast<int64_t>(world_budget_us)));
            oj.set("degrade_after", metrics::Json(degrade_after));
            oj.set("relax_after", metrics::Json(relax_after));
            oj.set("max_pending", metrics::Json(max_pending));
            oj.set("virtual_clock_us",
                   metrics::Json(static_cast<int64_t>(virtual_clock_us)));
            oj.set("virtual_jitter", metrics::Json(virtual_jitter));
            info.set("overload_campaign", std::move(oj));
        }
        metrics::Json worlds = metrics::Json::array();
        for (const auto &r : results) {
            metrics::Json w = metrics::Json::object();
            w.set("scenario", metrics::Json(r.scenario));
            w.set("replica", metrics::Json(r.replica));
            w.set("status", metrics::Json(statusName(r.status)));
            w.set("steps", metrics::Json(r.stepsDone));
            char hex[17];
            std::snprintf(hex, sizeof hex, "%016llx",
                          static_cast<unsigned long long>(r.finalHash));
            w.set("hash", metrics::Json(hex));
            w.set("energy", metrics::Json(r.finalEnergy));
            w.set("violations", metrics::Json(r.violations));
            w.set("reexecutions", metrics::Json(r.reexecutions));
            w.set("rollbacks", metrics::Json(r.rollbacks));
            if (r.rehabilitated)
                w.set("rehabilitated", metrics::Json(true));
            if (r.faultStats.total() > 0)
                w.set("injected_faults",
                      metrics::Json(r.faultStats.total()));
            if (r.deadlineMisses > 0)
                w.set("deadline_misses", metrics::Json(r.deadlineMisses));
            if (r.budgetUsedMicros > 0)
                w.set("budget_used_us",
                      metrics::Json(r.budgetUsedMicros));
            if (r.deadlineExceeded)
                w.set("deadline_exceeded", metrics::Json(true));
            if (r.retryAfterMicros > 0)
                w.set("retry_after_us",
                      metrics::Json(r.retryAfterMicros));
            if (!r.degradationEvents.empty()) {
                metrics::Json events = metrics::Json::array();
                for (const auto &ev : r.degradationEvents) {
                    metrics::Json e = metrics::Json::object();
                    e.set("step", metrics::Json(ev.step));
                    e.set("action", metrics::Json(ev.action));
                    e.set("cause", metrics::Json(ev.cause));
                    e.set("level", metrics::Json(std::string(
                              phys::degradationLevelName(ev.level))));
                    e.set("narrow_bits", metrics::Json(ev.narrowBits));
                    e.set("lcp_bits", metrics::Json(ev.lcpBits));
                    e.set("iteration_cap",
                          metrics::Json(ev.iterationCap));
                    e.set("step_cost_us",
                          metrics::Json(ev.stepCostMicros));
                    e.set("budget_used_us",
                          metrics::Json(ev.budgetUsedMicros));
                    events.push(std::move(e));
                }
                w.set("degradation_events", std::move(events));
            }
            if (!r.recoveryEvents.empty()) {
                metrics::Json events = metrics::Json::array();
                for (const auto &ev : r.recoveryEvents) {
                    metrics::Json e = metrics::Json::object();
                    e.set("step", metrics::Json(ev.step));
                    e.set("action", metrics::Json(ev.action));
                    e.set("cause", metrics::Json(ev.cause));
                    if (ev.action == "rollback")
                        e.set("rollback_steps",
                              metrics::Json(ev.rollbackSteps));
                    e.set("rel_delta", metrics::Json(ev.relDelta));
                    e.set("budget_left", metrics::Json(ev.budgetLeft));
                    events.push(std::move(e));
                }
                w.set("recovery_events", std::move(events));
            }
            if (!r.quarantineReason.empty())
                w.set("reason", metrics::Json(r.quarantineReason));
            worlds.push(std::move(w));
        }
        info.set("worlds", std::move(worlds));
        out.set("info", std::move(info));
        out.set("profile", metrics::Registry::global().toJson());

        const std::string text = out.dump();
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        const bool ok =
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
        std::fclose(f);
        if (!ok)
            return 1;
        std::printf("wrote %s\n", json_path.c_str());
    }

    // A chaos campaign *expects* casualties: a quarantined world with a
    // structured reason is the framework working, so only an unreadable
    // outcome (no reason recorded) fails the run. Without injection, a
    // quarantine is a real regression and keeps the nonzero exit.
    if (fault_mode) {
        for (const auto &r : results)
            if (r.status == srv::WorldStatus::Quarantined &&
                r.quarantineReason.empty())
                return 4;
        return 0;
    }
    // An overload campaign likewise expects shed load: rejected worlds
    // and DeadlineExceeded quarantines are the backpressure working.
    // A quarantine for any *other* cause is still a real failure.
    if (overload_mode) {
        for (const auto &r : results) {
            if (r.status != srv::WorldStatus::Quarantined)
                continue;
            if (r.quarantineReason.empty())
                return 4;
            if (!r.deadlineExceeded)
                return 3;
        }
        return 0;
    }
    return quarantined == 0 ? 0 : 3;
}
