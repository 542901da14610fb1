/**
 * @file
 * Declarative scenario runner: execute a scenario (.edm) file.
 *
 * The scenario file names the experiment kind (incast contention,
 * preemption interference, or the §4.3 flow-model load sweep), its
 * topology/workload parameters, the sweep points and the EdmConfig
 * flag set per mode; the experiment bodies are the shared
 * sim/scenario_exec.cpp functions the tests also call, so a scenario
 * run prints the values they pin.
 *
 * With --trace, every fabric decision (grants, ledger lifecycle,
 * trains, preemption, faults, id-wrap stalls) is recorded to a binary
 * event log (docs/EVENT_LOG.md) queryable offline with tools/edm_trace.
 * The event log is single-threaded, so --trace pins the scenario pool
 * to one worker; recording never perturbs schedules.
 *
 * Build & run:
 *   ./build/run_scenario scenarios/incast.edm
 *   ./build/run_scenario scenarios/incast.edm --quick
 *   ./build/run_scenario scenarios/incast.edm --trace incast.trace
 *   ./build/run_scenario scenarios/cluster_sweep.edm
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/scenario_config.hpp"
#include "sim/scenario_exec.hpp"
#include "sim/scenario_runner.hpp"
#include "trace/event_log.hpp"

namespace {

using namespace edm;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <scenario.edm> [--quick] [--trace FILE] "
                 "[--threads N]\n",
                 argv0);
    return 2;
}

int
runIncast(const ScenarioSpec &spec, bool quick,
          trace::EventLog *log, unsigned threads)
{
    std::printf("scenario %s (incast), %d rounds x %d chains/node, "
                "mixed %llu B reads / %llu B writes\n\n",
                spec.name.c_str(), incastRounds(spec, quick),
                spec.workload.chains_per_node,
                static_cast<unsigned long long>(spec.workload.read_bytes),
                static_cast<unsigned long long>(
                    spec.workload.write_bytes));

    const std::vector<IncastRow> rows =
        runIncastScenario(spec, quick, log, threads);

    const bool faults = spec.faults.active;
    const bool tenanted = spec.tenants.active();
    std::printf("  %-11s %6s %-9s %8s %9s %8s %8s %9s %9s %11s",
                "pattern", "nodes", "mode", "offered", "completed",
                "wasted", "parked", "stranded", "peakstage", "read p99ns");
    if (faults)
        std::printf(" %7s %8s %9s %9s %12s", "downed", "retried",
                    "recovered", "abandoned", "tt_repair ns");
    if (tenanted)
        for (const auto &pool : spec.tenants.pools)
            std::printf(" %11s %11s", (pool.name + " p50").c_str(),
                        (pool.name + " p99").c_str());
    std::printf("\n");
    for (const IncastRow &row : rows) {
        const ScenarioResult &r = row.result;
        std::printf("  %-11s %6zu %-9s %8.0f %9.0f %8.0f %8.0f %9.0f "
                    "%9.0f %11.1f",
                    row.point.pattern.c_str(), row.point.nodes,
                    row.mode.c_str(),
                    r.metricStat("offered").mean(),
                    r.metricStat("completed").mean(),
                    r.metricStat("wasted_slots").mean(),
                    r.metricStat("parked").mean(),
                    r.metricStat("stranded").mean(),
                    r.metricStat("peak_staging").mean(),
                    r.metricStat("read_p99").mean());
        if (faults)
            std::printf(" %7.0f %8.0f %9.0f %9.0f %12.1f",
                        r.metricStat("links_disabled").mean(),
                        r.metricStat("retried").mean(),
                        r.metricStat("recovered").mean(),
                        r.metricStat("abandoned").mean(),
                        r.metricStat("tt_repair_ns").mean());
        if (tenanted)
            for (const auto &pool : spec.tenants.pools)
                std::printf(" %11.1f %11.1f",
                            r.metricStat("pool_" + pool.name + "_p50_ns")
                                .mean(),
                            r.metricStat("pool_" + pool.name + "_p99_ns")
                                .mean());
        std::printf("\n");
    }
    return 0;
}

int
runInterference(const ScenarioSpec &spec, bool quick,
                trace::EventLog *log, unsigned threads)
{
    const int max_frames = quick ? std::min(spec.max_frames, 2)
                                 : spec.max_frames;
    // The loader reads one mode for this kind.
    core::EdmConfig cfg = spec.modes.front().cfg;
    cfg.event_log = log;

    std::printf("scenario %s (interference), %llu B reads vs 0..%d "
                "x %zu B jumbo frames at %.0f G\n\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(
                    spec.interference.read_bytes),
                max_frames, spec.interference.frame_payload,
                cfg.link_rate.value);

    ScenarioRunner runner(threads);
    for (int frames = 0; frames <= max_frames; ++frames)
        runner.add("jumbo x" + std::to_string(frames),
                   [frames, cfg, &spec](ScenarioContext &ctx) {
                       if (cfg.event_log)
                           cfg.event_log->pointStart(
                               static_cast<std::uint64_t>(frames));
                       runInterferencePoint(ctx, spec.interference,
                                            frames, cfg);
                   });
    const auto results = runner.runAll();

    const double clean = results[0].metricStat("read_ns").mean();
    std::printf("unloaded read: %8.2f ns\n\n", clean);
    std::printf("  %-10s %12s %12s %10s\n", "frames", "read ns",
                "+interf ns", "delivered");
    for (int frames = 1; frames <= max_frames; ++frames) {
        const auto &r = results[static_cast<std::size_t>(frames)];
        const double ns = r.metricStat("read_ns").mean();
        std::printf("  %-10d %12.2f %12.2f %10.0f\n", frames, ns,
                    ns - clean,
                    r.metricStat("frames_delivered").mean());
    }
    return 0;
}

int
runFlow(const ScenarioSpec &spec, bool quick, trace::EventLog *log,
        unsigned threads)
{
    // Read on this thread, before the pool starts: a malformed
    // EDM_BENCH_SCALE stops the run once.
    const double scale = quick ? benchScaleEnv(0.5) : 1.0;
    std::printf("scenario %s (flow), %llu 64 B writes per point, "
                "144 nodes at 100 G\n\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(
                    flowMessages(spec.messages, scale)));

    std::printf("  %-9s %5s %-9s %9s %9s %9s %9s\n", "fabric", "load",
                "mode", "completed", "norm mean", "norm p99", "mean ns");
    for (const FlowRow &row : runFlowScenario(spec, scale, log, threads))
        std::printf("  %-9s %5g %-9s %9llu %9.3f %9.3f %9.1f\n",
                    flowFabricName(row.point.fabric), row.point.load,
                    row.mode.c_str(),
                    static_cast<unsigned long long>(row.result.completed),
                    row.result.norm_mean, row.result.norm_p99,
                    row.result.mean_ns);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::string trace_path;
    bool quick = false;
    unsigned threads = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            // A whole decimal count only; 0 keeps the runner's default.
            const char *v = argv[++i];
            const char *end = v + std::strlen(v);
            const auto [ptr, ec] = std::from_chars(v, end, threads);
            if (ec != std::errc() || ptr != end)
                return usage(argv[0]);
        } else if (argv[i][0] == '-') {
            return usage(argv[0]);
        } else if (path.empty()) {
            path = argv[i];
        } else {
            return usage(argv[0]);
        }
    }
    if (path.empty())
        return usage(argv[0]);

    ScenarioSpec spec;
    std::string error;
    if (!loadScenarioSpec(path, spec, error)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
        return 1;
    }

    trace::EventLog log;
    trace::EventLog *log_ptr = nullptr;
    if (!trace_path.empty()) {
        if (!log.openFile(trace_path)) {
            std::fprintf(stderr, "cannot write trace file %s\n",
                         trace_path.c_str());
            return 1;
        }
        log_ptr = &log;
        // The event log is not thread-safe; tracing serializes the pool.
        threads = 1;
    }

    const int rc = spec.kind == "incast"
        ? runIncast(spec, quick, log_ptr, threads)
        : spec.kind == "flow"
        ? runFlow(spec, quick, log_ptr, threads)
        : runInterference(spec, quick, log_ptr, threads);

    if (log_ptr) {
        log.close();
        std::printf("\nwrote %llu trace records to %s "
                    "(query with tools/edm_trace)\n",
                    static_cast<unsigned long long>(log.totalRecorded()),
                    trace_path.c_str());
    }
    return rc;
}
