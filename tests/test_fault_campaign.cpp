/**
 * @file
 * Fault-campaign engine tests: link repair and scheduler re-admission,
 * correlated failure storms with host retry/backoff recovery, storm
 * determinism (bit-identical FaultStats, metrics and event streams for
 * any seed-equal rerun or ScenarioRunner thread count), train/wire
 * parity mid-storm, and replicated switch failover + failback resync
 * under incast.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/fabric.hpp"
#include "core/replicated.hpp"
#include "sim/fault_campaign.hpp"
#include "sim/scenario_config.hpp"
#include "sim/scenario_exec.hpp"
#include "sim/scenario_runner.hpp"
#include "trace/event_log.hpp"

namespace edm {
namespace {

using core::CycleFabric;
using core::EdmConfig;
using core::NodeId;

constexpr std::size_t kNodes = 5;
constexpr int kChains = 4;
constexpr int kRounds = 12;

/** The scenarios/failure_storm.edm recovery knobs, hand-built. */
EdmConfig
stormConfig()
{
    EdmConfig cfg;
    cfg.num_nodes = kNodes;
    cfg.read_timeout = 150 * kMicrosecond;
    cfg.read_retry_limit = 5;
    cfg.read_retry_base = 5 * kMicrosecond;
    cfg.link_error_threshold = 8;
    return cfg;
}

struct StormResult
{
    long completed = 0;
    long offered = 0;
    int null_reads = 0; ///< reads answered with the NULL response
    Picoseconds end_time = 0;
    FaultStats stats;
    std::vector<double> read_lat;
};

/**
 * Closed-loop all-reads incast (nodes 1..4 -> 0) under the
 * failure_storm campaign: the memory node's uplink and two senders
 * flap at 4 us, auto-repaired 6 us after each disable.
 */
StormResult
runStorm(EdmConfig cfg, trace::EventLog *log = nullptr)
{
    cfg.event_log = log;
    Simulation sim(7);
    CycleFabric fab(cfg, sim);
    FaultCampaign campaign(sim, fab);
    campaign.stormAt(4 * kMicrosecond, {0, 2, 3}, 8, 500 * kNanosecond,
                     42);
    campaign.autoRepairAfter(6 * kMicrosecond);

    StormResult r;
    std::function<void(NodeId, int)> issue = [&](NodeId from, int left) {
        if (left <= 0)
            return;
        fab.read(from, 0, 0x1000u * from, 900,
                 [&, from, left](std::vector<std::uint8_t> d, Picoseconds,
                                 bool timed_out) {
                     ++r.completed;
                     if (timed_out || d.empty())
                         ++r.null_reads;
                     issue(from, left - 1);
                 });
    };
    for (NodeId i = 1; i < kNodes; ++i)
        for (int k = 0; k < kChains; ++k)
            issue(i, kRounds);
    r.offered = static_cast<long>(kNodes - 1) * kChains * kRounds;
    sim.run();

    r.end_time = sim.now();
    r.stats = campaign.stats();
    r.read_lat = fab.readLatency().raw();
    return r;
}

TEST(FaultCampaign, StormRecoversEveryReadWithZeroAbandoned)
{
    // The PR's acceptance bar: with retries enabled, a flapped-link
    // incast completes with zero permanently-stranded reads, and the
    // campaign reports nonzero time-to-repair.
    const StormResult r = runStorm(stormConfig());
    EXPECT_EQ(r.completed, r.offered);
    EXPECT_EQ(r.null_reads, 0);

    EXPECT_EQ(r.stats.injections, 3u);
    EXPECT_EQ(r.stats.links_disabled, 3u);
    EXPECT_EQ(r.stats.links_repaired, 3u);
    ASSERT_EQ(r.stats.repair_ns.count(), 3u);
    EXPECT_GT(r.stats.repair_ns.mean(), 0.0);
    // Auto-repair fires exactly repair_after past each disable.
    EXPECT_DOUBLE_EQ(r.stats.repair_ns.mean(),
                     toNs(6 * kMicrosecond));
    ASSERT_EQ(r.stats.disable_ns.count(), 3u);
    EXPECT_GT(r.stats.disable_ns.mean(), 0.0);
    ASSERT_GE(r.stats.detect_ns.count(), 1u);

    EXPECT_GT(r.stats.ops_timed_out, 0u);
    EXPECT_GT(r.stats.ops_retried, 0u);
    EXPECT_GT(r.stats.ops_recovered, 0u);
    EXPECT_EQ(r.stats.ops_abandoned, 0u);
}

TEST(FaultCampaign, RetriesOffStrandsReadsUnderTheSameStorm)
{
    // The default-off gate: identical storm, read_retry_limit = 0 —
    // stranded reads fall back to the legacy NULL-response guard.
    EdmConfig cfg = stormConfig();
    cfg.read_retry_limit = 0;
    const StormResult r = runStorm(cfg);
    EXPECT_EQ(r.completed, r.offered); // the guard still answers
    EXPECT_GT(r.null_reads, 0);
    EXPECT_EQ(r.stats.ops_retried, 0u);
    EXPECT_EQ(r.stats.ops_recovered, 0u);
    // The campaign's link lifecycle is workload-independent.
    EXPECT_EQ(r.stats.links_disabled, 3u);
    EXPECT_EQ(r.stats.links_repaired, 3u);
}

TEST(FaultCampaign, StormIsBitExactAcrossReruns)
{
    // Same spec + same seeds -> bit-identical FaultStats, completion
    // stream and fabric event-log sequence.
    trace::EventLog log_a(1 << 18), log_b(1 << 18);
    const StormResult a = runStorm(stormConfig(), &log_a);
    const StormResult b = runStorm(stormConfig(), &log_b);

    EXPECT_EQ(a.end_time, b.end_time);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.read_lat, b.read_lat);
    EXPECT_EQ(a.stats.ops_retried, b.stats.ops_retried);
    EXPECT_EQ(a.stats.ops_recovered, b.stats.ops_recovered);
    EXPECT_EQ(a.stats.detect_ns.raw(), b.stats.detect_ns.raw());
    EXPECT_EQ(a.stats.disable_ns.raw(), b.stats.disable_ns.raw());
    EXPECT_EQ(a.stats.repair_ns.raw(), b.stats.repair_ns.raw());

    ASSERT_EQ(log_a.dropped(), 0u);
    ASSERT_EQ(log_a.size(), log_b.size());
    const auto recs_a = log_a.snapshot();
    const auto recs_b = log_b.snapshot();
    for (std::size_t i = 0; i < recs_a.size(); ++i)
        ASSERT_EQ(std::memcmp(&recs_a[i], &recs_b[i],
                              sizeof(trace::Record)),
                  0)
            << "record " << i << " diverged";
}

TEST(FaultCampaign, StormMetricsIdenticalForAnyRunnerThreadCount)
{
    // The declarative path: failure_storm points run through the
    // ScenarioRunner pool must produce bit-identical metrics whether
    // the pool has 1 worker or several (per-scenario seed streams, no
    // shared mutable state).
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadScenarioSpec(
        EDM_SOURCE_DIR "/scenarios/failure_storm.edm", spec, error))
        << error;

    auto run_all = [&](unsigned threads) {
        ScenarioRunner::Options opts;
        opts.base_seed = spec.base_seed;
        opts.threads = threads;
        ScenarioRunner runner(opts);
        for (const std::size_t n : spec.n_to_1)
            for (const ScenarioModeSpec &mode : spec.modes) {
                const core::EdmConfig cfg = spec.configFor(mode);
                runner.add("N-to-1/" + std::to_string(n) + "/" +
                               mode.name,
                           [n, cfg, &spec](ScenarioContext &ctx) {
                               runIncastPoint(ctx,
                                              IncastPoint{"N-to-1", n},
                                              spec.workload, spec.rounds,
                                              cfg, &spec.faults);
                           });
            }
        return runner.runAll();
    };

    const auto serial = run_all(1);
    const auto pooled = run_all(3);
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].metrics.size(), pooled[i].metrics.size());
        for (const auto &kv : serial[i].metrics) {
            const auto it = pooled[i].metrics.find(kv.first);
            ASSERT_NE(it, pooled[i].metrics.end()) << kv.first;
            EXPECT_EQ(kv.second.raw(), it->second.raw())
                << "point " << i << " metric " << kv.first;
        }
        // The acceptance bar holds at every point: nothing abandoned.
        const auto ab = serial[i].metrics.find("abandoned");
        ASSERT_NE(ab, serial[i].metrics.end());
        for (const double v : ab->second.raw())
            EXPECT_EQ(v, 0.0);
    }
}

TEST(FaultCampaign, TrainEnginesMatchPerBlockMidStorm)
{
    // Fault abort and train trim must compose: a storm that disables
    // links mid-train leaves per-block (cap 1) and train (cap 64)
    // engines bit-exact, in both occupancy charges.
    for (const bool wire : {false, true}) {
        EdmConfig per_block = stormConfig();
        per_block.wire_charged_occupancy = wire;
        per_block.max_train_blocks = 1;
        per_block.max_frame_train_blocks = 1;
        EdmConfig trains = per_block;
        trains.max_train_blocks = 64;
        trains.max_frame_train_blocks = 64;

        const StormResult a = runStorm(per_block);
        const StormResult b = runStorm(trains);
        EXPECT_EQ(a.end_time, b.end_time) << "wire=" << wire;
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(a.null_reads, 0);
        EXPECT_EQ(b.null_reads, 0);
        EXPECT_EQ(a.read_lat, b.read_lat);
        EXPECT_EQ(a.stats.ops_retried, b.stats.ops_retried);
        EXPECT_EQ(a.stats.ops_abandoned, 0u);
        EXPECT_EQ(b.stats.ops_abandoned, 0u);
    }
}

TEST(FaultCampaign, ReplicatedFailoverDuringIncastStrict)
{
    // Mid-incast switch power-loss with the demand ledger: mirrored
    // reads survive on the living network, every op completes exactly
    // once, and failback resyncs the dead network's stores.
    EdmConfig cfg;
    cfg.num_nodes = 3;
    Simulation sim;
    core::ReplicatedFabric rep(cfg, sim, {2});
    FaultCampaign campaign(sim, rep.primary());
    campaign.attachReplicated(rep);
    for (int i = 0; i < 8; ++i) {
        rep.primary().host(2).store()->write64(
            0x100 + static_cast<std::uint64_t>(i) * 8, 70 + i);
        rep.backup().host(2).store()->write64(
            0x100 + static_cast<std::uint64_t>(i) * 8, 70 + i);
    }

    campaign.failSwitchAt(2 * kMicrosecond, /*backup_network=*/false);
    campaign.failbackSwitchAt(40 * kMicrosecond, false);

    int completions = 0;
    std::function<void(NodeId, int, int)> issue = [&](NodeId from,
                                                      int slot, int left) {
        if (left <= 0)
            return;
        rep.read(from, 2, 0x100 + static_cast<std::uint64_t>(slot) * 8, 8,
                 [&, from, slot, left](std::vector<std::uint8_t> d,
                                       Picoseconds, bool to) {
                     EXPECT_FALSE(to);
                     ASSERT_EQ(d.size(), 8u);
                     EXPECT_EQ(d[0],
                               static_cast<std::uint8_t>(70 + slot));
                     ++completions;
                     issue(from, slot, left - 1);
                 });
    };
    for (NodeId from = 0; from < 2; ++from)
        for (int k = 0; k < 4; ++k)
            issue(from, static_cast<int>(from) * 4 + k, 6);
    // A write mid-outage lands only on the living network; failback
    // must copy it across.
    sim.events().schedule(10 * kMicrosecond, [&] {
        rep.write(0, 2, 0x800, std::vector<std::uint8_t>(8, 0xAB),
                  [](Picoseconds) {});
    });
    sim.run();

    EXPECT_EQ(completions, 2 * 4 * 6);
    const FaultStats fs = campaign.stats();
    EXPECT_EQ(fs.switch_failures, 1u);
    EXPECT_EQ(fs.switch_failbacks, 1u);
    // Failback resynced the primary's image from the backup's.
    EXPECT_EQ(rep.primary().host(2).store()->read64(0x800),
              0xABABABABABABABABULL);
    EXPECT_EQ(rep.backup().host(2).store()->read64(0x800),
              0xABABABABABABABABULL);
    // And reopened the primary's uplinks.
    for (NodeId n = 0; n < 3; ++n)
        EXPECT_FALSE(rep.primary().linkDisabled(n)) << n;
}

TEST(FaultCampaign, MirroredRmwFirstResponseWins)
{
    EdmConfig cfg;
    cfg.num_nodes = 2;
    Simulation sim;
    core::ReplicatedFabric rep(cfg, sim, {1});
    rep.primary().host(1).store()->write64(0x40, 5);
    rep.backup().host(1).store()->write64(0x40, 5);

    int completions = 0;
    mem::RmwResult got{};
    rep.rmw(0, 1, 0x40, mem::RmwOp::CompareAndSwap, 5, 99,
            [&](mem::RmwResult r, Picoseconds) {
                ++completions;
                got = r;
            });
    sim.run();
    EXPECT_EQ(completions, 1);
    EXPECT_TRUE(got.swapped);
    EXPECT_EQ(got.old_value, 5u);
    // Both images applied the op; the duplicate response was dropped.
    EXPECT_EQ(rep.primary().host(1).store()->read64(0x40), 99u);
    EXPECT_EQ(rep.backup().host(1).store()->read64(0x40), 99u);
    EXPECT_EQ(rep.duplicatesDropped(), 1u);

    // One network down: the survivor still answers, exactly once.
    rep.failNetwork(/*backup_network=*/true);
    completions = 0;
    rep.rmw(0, 1, 0x40, mem::RmwOp::FetchAndAdd, 1, 0,
            [&](mem::RmwResult r, Picoseconds) {
                ++completions;
                got = r;
            });
    sim.run();
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(got.old_value, 99u);
    EXPECT_EQ(rep.primary().host(1).store()->read64(0x40), 100u);
}

} // namespace
} // namespace edm
