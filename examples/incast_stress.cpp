/**
 * @file
 * Domain example: incast contention stress on the cycle-level fabric —
 * the regime where grants outrun the requests they pay for.
 *
 * Two sweeps, each run under both port charges:
 *
 *   N-to-1      fan-in senders hammer one memory node with closed-loop
 *               mixed 900 B reads / 700 B writes. Read-request forwards
 *               (multi-block, stream-owned) queue behind write data on
 *               the memory node's downlink while single-block /G/
 *               grants interleave past them — grants reach the memory
 *               node before the requests they pay for.
 *   all-to-all  every node serves memory and requests from every other
 *               node, so hosts hold writer and responder roles at once
 *               (the grant-direction ambiguity regime on top of the
 *               contention).
 *
 * Both rows run the demand-lifecycle ledger: early grants park, and
 * demands retire on the observed final /MT/. The rows differ only in
 * the port charge:
 *
 *   base  the payload-byte port charge (l/B). Nothing is wasted, but
 *         the under-charged port timers let egress staging pile up and
 *         grants outrun their forwarded requests, so many park.
 *   wire  wire-charged occupancy (EdmConfig::wire_charged_occupancy):
 *         port timers charge the chunk's exact 66-bit block line-time
 *         (docs/WIRE_FORMAT.md), pacing grants at the true wire drain
 *         rate. The staging that let grants outrun their forwards never
 *         builds — in the N-to-1 incast regime peak egress staging
 *         drops well below base, and almost nothing needs parking.
 *
 * The table quantifies both per point: completions, wasted granted
 * slots, parked grants, stranded flows, peak egress staging depth
 * (CycleFabric::peakEgressStaging) and read p99.
 *
 * The experiment body is the shared sim/scenario_exec.cpp
 * runIncastPoint — the same code scenarios/incast.edm runs through
 * examples/run_scenario.cpp, so the two tables are bit-identical.
 *
 * Every (point, mode) pair runs as an independent scenario on the
 * ScenarioRunner pool; EDM_SWEEP_THREADS pins the worker count.
 *
 * Build & run:   ./build/incast_stress [rounds] [--quick] [--storm]
 * (--quick: one point per pattern at EDM_BENCH_SCALE-scaled rounds —
 * the CI artifact. Unset, the scale defaults to 0.5.)
 *
 * --storm overlays the scenarios/failure_storm.edm fault campaign on
 * every N-to-1 point: an all-reads workload (so every stranded op is
 * retryable), a correlated corruption storm over the memory node and
 * two senders with auto-repair, host retry/backoff enabled, and the
 * recovery columns (downed / retried / recovered / abandoned /
 * tt_repair) appended to the table. docs/FAULTS.md documents the
 * model and the metric definitions.
 *
 * --tenants replaces the sweep with the noisy-neighbor isolation
 * table over the scenarios/tenant_isolation.edm pool layout: a solo
 * latency-sensitive baseline, the legacy free-for-all, and the
 * hierarchical fair-share row (EdmConfig::fair_share), with per-pool
 * read-tail columns. docs/FAIR_SHARE.md documents the pool tree.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/fabric.hpp"
#include "core/occupancy.hpp"
#include "sim/scenario_config.hpp"
#include "sim/scenario_exec.hpp"
#include "sim/scenario_runner.hpp"

namespace {

using namespace edm;
using namespace edm::core;

constexpr int kChainsPerNode = 6;

struct Point
{
    const char *pattern; ///< "N-to-1" or "all-to-all"
    std::size_t nodes;
    bool wire; ///< wire-charged occupancy ("wire" row), else "base"
};

const char *
modeName(const Point &pt)
{
    return pt.wire ? "wire" : "base";
}

/**
 * --tenants: the noisy-neighbor isolation sweep over the
 * scenarios/tenant_isolation.edm pool layout (docs/FAIR_SHARE.md).
 *
 * Three rows on the same 17-node fan-in:
 *
 *   solo       only the latency-sensitive pool's four hosts issue —
 *              the uncontended baseline for the ls read tail.
 *   legacy     all sixteen clients issue, fair_share off: the ls reads
 *              queue behind both bulk tenants' traffic.
 *   fairshare  the hierarchical pool tree arbitrates — ls grants
 *              bypass, bulk1 hits its rate limit, bulk0 takes the
 *              weighted remainder.
 *
 * Isolation holds when the fairshare ls p99 stays within 2x of solo
 * while the bulk pools keep the fabric saturated
 * (tests/test_fair_share.cpp pins the same ratio).
 */
int
runTenantSweep(int rounds)
{
    // The scenarios/tenant_isolation.edm pool layout, inline.
    TenantSpec tenants;
    tenants.pools.push_back({"bulk0", 1, 6, 3.0, 0.0, 1.0, false});
    tenants.pools.push_back({"bulk1", 7, 12, 1.0, 0.0, 0.4, false});
    tenants.pools.push_back({"ls", 13, 16, 1.0, 0.2, 1.0, true});
    constexpr std::size_t kNodes = 17;

    IncastWorkload wl;
    wl.chains_per_node = 3;

    std::printf("tenant isolation sweep, %d rounds x %d chains/node, "
                "mixed %llu B reads / %llu B writes, pools "
                "bulk0(1-6,w3) bulk1(7-12,limit .4) "
                "ls(13-16,min .2,bypass)\n\n",
                rounds, wl.chains_per_node,
                static_cast<unsigned long long>(wl.read_bytes),
                static_cast<unsigned long long>(wl.write_bytes));

    ScenarioRunner::Options opts;
    opts.base_seed = 7;
    ScenarioRunner runner(opts);

    // solo: only the ls hosts issue — same closed-loop chain shape as
    // runIncastPoint, restricted to hosts 13..16.
    runner.add("solo", [rounds, wl, tenants](ScenarioContext &ctx) {
        EdmConfig cfg;
        cfg.tenants = tenants;
        cfg.num_nodes = kNodes;
        core::CycleFabric fab(cfg, ctx.sim());
        long completed = 0;
        long offered = 0;
        Samples ls_reads;
        std::function<void(NodeId, int)> issue = [&](NodeId from,
                                                     int left) {
            if (left <= 0)
                return;
            if (left % 3 == 0 && wl.write_bytes > 0) {
                fab.write(from, 0, 0x1000u * from,
                          std::vector<std::uint8_t>(wl.write_bytes, 1),
                          [&issue, &completed, from, left](Picoseconds) {
                              ++completed;
                              issue(from, left - 1);
                          });
            } else {
                fab.read(from, 0, 0x1000u * from, wl.read_bytes,
                         [&issue, &completed, &ls_reads, from, left](
                             std::vector<std::uint8_t>, Picoseconds lat,
                             bool) {
                             ++completed;
                             ls_reads.add(toNs(lat));
                             issue(from, left - 1);
                         });
            }
        };
        for (NodeId i = 13; i <= 16; ++i)
            for (int k = 0; k < wl.chains_per_node; ++k) {
                issue(i, rounds);
                offered += rounds;
            }
        fab.run();
        ctx.record("offered", static_cast<double>(offered));
        ctx.record("completed", static_cast<double>(completed));
        ctx.record("pool_ls_p50_ns",
                   ls_reads.count() ? ls_reads.percentile(50) : 0.0);
        ctx.record("pool_ls_p99_ns",
                   ls_reads.count() ? ls_reads.percentile(99) : 0.0);
    });
    for (const bool fair : {false, true})
        runner.add(fair ? "fairshare" : "legacy",
                   [rounds, wl, tenants, fair](ScenarioContext &ctx) {
                       EdmConfig cfg;
                       cfg.fair_share = fair;
                       cfg.tenants = tenants;
                       runIncastPoint(ctx, IncastPoint{"N-to-1", kNodes},
                                      wl, rounds, cfg, nullptr);
                   });
    const auto results = runner.runAll();

    std::printf("  %-10s %8s %9s", "row", "offered", "completed");
    for (const char *pool : {"bulk0", "bulk1", "ls"})
        std::printf(" %11s %11s", (std::string(pool) + " p50").c_str(),
                    (std::string(pool) + " p99").c_str());
    std::printf("\n");
    const char *names[] = {"solo", "legacy", "fairshare"};
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        std::printf("  %-10s %8.0f %9.0f", names[i],
                    r.metricStat("offered").mean(),
                    r.metricStat("completed").mean());
        for (const char *pool : {"bulk0", "bulk1", "ls"})
            std::printf(" %11.1f %11.1f",
                        r.metricStat("pool_" + std::string(pool) +
                                     "_p50_ns").mean(),
                        r.metricStat("pool_" + std::string(pool) +
                                     "_p99_ns").mean());
        std::printf("\n");
    }

    const double solo_p99 = results[0].metricStat("pool_ls_p99_ns").mean();
    const double legacy_p99 =
        results[1].metricStat("pool_ls_p99_ns").mean();
    const double fair_p99 = results[2].metricStat("pool_ls_p99_ns").mean();
    std::printf("\nls p99 vs solo baseline: legacy %.1fx, fairshare "
                "%.1fx — the pool tree holds the latency-sensitive "
                "tail near its uncontended floor while both bulk "
                "tenants keep the fan-in saturated.\n",
                solo_p99 > 0 ? legacy_p99 / solo_p99 : 0.0,
                solo_p99 > 0 ? fair_p99 / solo_p99 : 0.0);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    int rounds = 20;
    bool quick = false;
    bool storm = false;
    bool tenants = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
            continue;
        }
        if (std::strcmp(argv[i], "--storm") == 0) {
            storm = true;
            continue;
        }
        if (std::strcmp(argv[i], "--tenants") == 0) {
            tenants = true;
            continue;
        }
        rounds = std::atoi(argv[i]);
        if (rounds <= 0) {
            std::fprintf(stderr,
                         "usage: %s [rounds>0] [--quick] [--storm] "
                         "[--tenants]\n",
                         argv[0]);
            return 2;
        }
    }
    // --quick samples at the one scale every CI/rebaseline artifact
    // uses: EDM_BENCH_SCALE, defaulting to 0.5 (the historical
    // 10-of-20 rounds) when unset.
    if (quick)
        rounds = std::max(
            1L, std::lround(rounds * benchScaleEnv(0.5)));

    // --tenants runs its own fixed-shape table (the
    // scenarios/tenant_isolation.edm workload: 8 rounds, 4 when quick).
    if (tenants)
        return runTenantSweep(quick ? 4 : 8);

    if (storm)
        std::printf("incast contention stress under a failure storm, "
                    "%d rounds x 4 chains/node, all-reads 900 B\n",
                    rounds);
    else
        std::printf("incast contention stress, %d rounds x %d "
                    "chains/node, mixed 900 B reads / 700 B writes\n",
                    rounds, kChainsPerNode);

    // The occupancy model's prediction for the peakstage column: every
    // full chunk the payload charge paces through a saturated egress
    // leaves this many unpaid framing blocks behind in staging; the
    // wire charge leaves none.
    {
        EdmConfig cfg;
        std::printf("staging-growth model (core::"
                    "stagingGrowthBlocksPerChunk, %llu B chunks): "
                    "payload %.1f blocks/write chunk, %.1f blocks/read "
                    "chunk; wire-charged %.1f\n\n",
                    static_cast<unsigned long long>(cfg.chunk_bytes),
                    stagingGrowthBlocksPerChunk(cfg, false,
                                                cfg.chunk_bytes),
                    stagingGrowthBlocksPerChunk(cfg, true,
                                                cfg.chunk_bytes),
                    [&] {
                        EdmConfig wire = cfg;
                        wire.wire_charged_occupancy = true;
                        return stagingGrowthBlocksPerChunk(
                            wire, false, wire.chunk_bytes);
                    }());
    }

    std::vector<Point> points;
    const std::vector<std::size_t> n_to_1 =
        quick ? std::vector<std::size_t>{9}
              : std::vector<std::size_t>{5, 9, 13};
    const std::vector<std::size_t> all_to_all =
        quick ? std::vector<std::size_t>{4}
              : std::vector<std::size_t>{4, 8};
    for (const std::size_t n : n_to_1)
        for (const bool wire : {false, true})
            points.push_back(Point{"N-to-1", n, wire});
    if (!storm) // the storm campaign targets the N-to-1 fan-in only
        for (const std::size_t n : all_to_all)
            for (const bool wire : {false, true})
                points.push_back(Point{"all-to-all", n, wire});

    IncastWorkload workload;
    workload.chains_per_node = kChainsPerNode;

    // --storm: the scenarios/failure_storm.edm campaign, inline.
    FaultCampaignSpec faults;
    if (storm) {
        workload.chains_per_node = 4;
        workload.write_bytes = 0; // all-reads: every stranded op retries
        faults.active = true;
        faults.storm_at = 4000 * kNanosecond;
        faults.storm_nodes = {0, 2, 3};
        faults.storm_blocks = 8;
        faults.storm_jitter = 500 * kNanosecond;
        faults.storm_seed = 42;
        faults.repair_after = 6000 * kNanosecond;
    }

    ScenarioRunner::Options opts;
    opts.base_seed = 7;
    ScenarioRunner runner(opts);
    for (const Point &pt : points) {
        runner.add(std::string(pt.pattern) + "/" +
                       std::to_string(pt.nodes) + "/" + modeName(pt),
                   [pt, workload, rounds, storm,
                    &faults](ScenarioContext &ctx) {
                       EdmConfig cfg;
                       cfg.wire_charged_occupancy = pt.wire;
                       if (storm) {
                           cfg.read_timeout = 150000 * kNanosecond;
                           cfg.read_retry_limit = 5;
                           cfg.read_retry_base = 5000 * kNanosecond;
                           cfg.link_error_threshold = 8;
                       }
                       runIncastPoint(ctx,
                                      IncastPoint{pt.pattern, pt.nodes},
                                      workload, rounds, cfg, &faults);
                   });
    }
    const auto results = runner.runAll();

    std::printf("  %-11s %6s %-7s %8s %9s %8s %8s %9s %9s %11s",
                "pattern", "nodes", "mode", "offered", "completed",
                "wasted", "parked", "stranded", "peakstage", "read p99ns");
    if (storm)
        std::printf(" %7s %8s %9s %9s %12s", "downed", "retried",
                    "recovered", "abandoned", "tt_repair ns");
    std::printf("\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        const Point &pt = points[i];
        std::printf("  %-11s %6zu %-7s %8.0f %9.0f %8.0f %8.0f %9.0f "
                    "%9.0f %11.1f",
                    pt.pattern, pt.nodes, modeName(pt),
                    r.metricStat("offered").mean(),
                    r.metricStat("completed").mean(),
                    r.metricStat("wasted_slots").mean(),
                    r.metricStat("parked").mean(),
                    r.metricStat("stranded").mean(),
                    r.metricStat("peak_staging").mean(),
                    r.metricStat("read_p99").mean());
        if (storm)
            std::printf(" %7.0f %8.0f %9.0f %9.0f %12.1f",
                        r.metricStat("links_disabled").mean(),
                        r.metricStat("retried").mean(),
                        r.metricStat("recovered").mean(),
                        r.metricStat("abandoned").mean(),
                        r.metricStat("tt_repair_ns").mean());
        std::printf("\n");
    }

    std::printf(
        "\nboth rows park early grants and retire demands on the "
        "observed final /MT/ (the demand-lifecycle ledger);\n"
        "wire rows charge port timers the exact 66-bit block line-time "
        "(EdmConfig::wire_charged_occupancy) so grants\npace at the "
        "true drain rate — in the N-to-1 incast regime peak egress "
        "staging and parked grants drop well\nbelow base "
        "(docs/WIRE_FORMAT.md has the arithmetic).\n");
    return 0;
}
