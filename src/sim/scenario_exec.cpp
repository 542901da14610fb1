#include "sim/scenario_exec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/logging.hpp"
#include "core/fabric.hpp"
#include "mac/frame.hpp"
#include "proto/cxl.hpp"
#include "proto/fastpass.hpp"
#include "proto/ird.hpp"
#include "proto/window_model.hpp"
#include "sim/fault_campaign.hpp"
#include "sim/scenario_config.hpp"
#include "trace/event_log.hpp"
#include "workload/synthetic.hpp"

namespace edm {

double
benchScaleEnv(double fallback)
{
    const char *s = std::getenv("EDM_BENCH_SCALE");
    if (!s)
        return fallback;
    const char *end = s + std::strlen(s);
    double v = 0;
    const auto [ptr, ec] = std::from_chars(s, end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) || v <= 0)
        EDM_FATAL("EDM_BENCH_SCALE='%s' is not a positive number", s);
    return v;
}

void
runIncastPoint(ScenarioContext &ctx, const IncastPoint &pt,
               const IncastWorkload &wl, int rounds, core::EdmConfig cfg,
               const FaultCampaignSpec *faults)
{
    using core::NodeId;
    cfg.num_nodes = pt.nodes;
    Simulation &sim = ctx.sim();
    const bool all_to_all = pt.pattern == "all-to-all";
    core::CycleFabric fab(cfg, sim);

    std::unique_ptr<FaultCampaign> campaign;
    if (faults && faults->active) {
        campaign = std::make_unique<FaultCampaign>(sim, fab);
        std::vector<NodeId> storm = faults->storm_nodes;
        if (storm.empty())
            for (NodeId n = 1; n < pt.nodes; ++n)
                storm.push_back(n);
        campaign->stormAt(faults->storm_at, storm, faults->storm_blocks,
                          faults->storm_jitter, faults->storm_seed);
        if (faults->repair_after > 0)
            campaign->autoRepairAfter(faults->repair_after);
    }

    long completed = 0;
    long offered = 0;
    // Per-pool client-side read latency, attributed to the issuing host
    // (the ledger's client-of-flow rule). Index pools.size() collects the
    // implicit default pool for unmapped hosts.
    const bool tenanted = cfg.tenants.active();
    std::vector<Samples> pool_reads(
        tenanted ? cfg.tenants.pools.size() + 1 : 0);
    std::function<void(NodeId, NodeId, int)> issue =
        [&](NodeId from, NodeId to, int left) {
            if (left <= 0)
                return;
            if (left % 3 == 0 && wl.write_bytes > 0) {
                fab.write(from, to, 0x1000u * from,
                          std::vector<std::uint8_t>(wl.write_bytes, 1),
                          [&issue, &completed, from, to,
                           left](Picoseconds) {
                              ++completed;
                              issue(from, to, left - 1);
                          });
            } else {
                fab.read(from, to, 0x1000u * from, wl.read_bytes,
                         [&issue, &completed, &cfg, &pool_reads, tenanted,
                          from, to, left](std::vector<std::uint8_t>,
                                          Picoseconds lat, bool) {
                             ++completed;
                             if (tenanted) {
                                 const int p = cfg.tenants.poolOf(
                                     static_cast<std::uint16_t>(from));
                                 const std::size_t idx = p < 0
                                     ? cfg.tenants.pools.size()
                                     : static_cast<std::size_t>(p);
                                 pool_reads[idx].add(toNs(lat));
                             }
                             issue(from, to, left - 1);
                         });
            }
        };
    for (NodeId i = 0; i < pt.nodes; ++i) {
        for (int k = 0; k < wl.chains_per_node; ++k) {
            if (all_to_all) {
                // Deterministic spread: chain k of node i targets the
                // k-th next node, so every pair stays loaded.
                const auto to = static_cast<NodeId>(
                    (i + 1 + k % (pt.nodes - 1)) % pt.nodes);
                issue(i, to, rounds);
                offered += rounds;
            } else if (i != 0) {
                issue(i, 0, rounds);
                offered += rounds;
            }
        }
    }
    fab.run();

    const auto acc = fab.grantAccounting();
    ctx.record("offered", static_cast<double>(offered));
    ctx.record("completed", static_cast<double>(completed));
    ctx.record("grants",
               static_cast<double>(fab.totalGrantsIssued()));
    ctx.record("wasted_slots",
               static_cast<double>(acc.wasted_grant_slots));
    ctx.record("parked", static_cast<double>(acc.grants_parked));
    ctx.record("stranded",
               static_cast<double>(fab.totalPendingLedgerEntries()));
    ctx.record("peak_staging",
               static_cast<double>(fab.peakEgressStaging()));
    Samples reads = fab.readLatency();
    ctx.record("read_p99",
               reads.count() ? reads.percentile(99) : 0.0);
    if (tenanted)
        for (std::size_t p = 0; p < pool_reads.size(); ++p) {
            const std::string tag = p < cfg.tenants.pools.size()
                ? cfg.tenants.pools[p].name
                : std::string("default");
            const Samples &s = pool_reads[p];
            ctx.record("pool_" + tag + "_reads",
                       static_cast<double>(s.count()));
            ctx.record("pool_" + tag + "_p50_ns",
                       s.count() ? s.percentile(50) : 0.0);
            ctx.record("pool_" + tag + "_p99_ns",
                       s.count() ? s.percentile(99) : 0.0);
        }

    if (campaign) {
        const FaultStats fs = campaign->stats();
        ctx.record("links_disabled",
                   static_cast<double>(fs.links_disabled));
        ctx.record("links_repaired",
                   static_cast<double>(fs.links_repaired));
        ctx.record("retried", static_cast<double>(fs.ops_retried));
        ctx.record("recovered", static_cast<double>(fs.ops_recovered));
        ctx.record("abandoned", static_cast<double>(fs.ops_abandoned));
        ctx.record("tt_detect_ns",
                   fs.detect_ns.count() ? fs.detect_ns.mean() : 0.0);
        ctx.record("tt_disable_ns",
                   fs.disable_ns.count() ? fs.disable_ns.mean() : 0.0);
        ctx.record("tt_repair_ns",
                   fs.repair_ns.count() ? fs.repair_ns.mean() : 0.0);
    }
}

int
incastRounds(const ScenarioSpec &spec, bool quick)
{
    if (!quick)
        return spec.rounds;
    return static_cast<int>(
        std::max(1L, std::lround(spec.rounds * benchScaleEnv(0.5))));
}

std::vector<IncastRow>
runIncastScenario(const ScenarioSpec &spec, bool quick,
                  trace::EventLog *log, unsigned threads)
{
    const int rounds = incastRounds(spec, quick);
    const std::vector<std::size_t> &n_to_1 =
        quick && !spec.quick_n_to_1.empty() ? spec.quick_n_to_1
                                            : spec.n_to_1;
    const std::vector<std::size_t> &all_to_all =
        quick && !spec.quick_all_to_all.empty() ? spec.quick_all_to_all
                                                : spec.all_to_all;

    std::vector<IncastRow> rows;
    ScenarioRunner runner(threads);
    const auto add_points = [&](const char *pattern,
                                const std::vector<std::size_t> &points) {
        for (const std::size_t nodes : points)
            for (const ScenarioModeSpec &mode : spec.modes) {
                const IncastPoint pt{pattern, nodes};
                core::EdmConfig cfg = mode.cfg;
                cfg.event_log = log;
                const std::size_t index = rows.size();
                rows.push_back(IncastRow{pt, mode.name, {}});
                runner.add(std::string(pattern) + "/" +
                               std::to_string(nodes) + "/" + mode.name,
                           [pt, cfg, &spec, rounds,
                            index](ScenarioContext &ctx) {
                               if (cfg.event_log)
                                   cfg.event_log->pointStart(index);
                               runIncastPoint(ctx, pt, spec.workload,
                                              rounds, cfg, &spec.faults);
                           });
            }
    };
    add_points("N-to-1", n_to_1);
    add_points("all-to-all", all_to_all);

    std::vector<ScenarioResult> results = runner.runAll();
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i].result = std::move(results[i]);
    return rows;
}

void
runInterferencePoint(ScenarioContext &ctx, const InterferenceSetup &setup,
                     int frames, core::EdmConfig cfg)
{
    Simulation &sim = ctx.sim();
    cfg.num_nodes = setup.nodes;
    core::CycleFabric fabric(cfg, sim, {setup.memory_node});
    fabric.host(setup.memory_node)
        .store()
        ->write(0x1000, std::vector<std::uint8_t>(setup.read_bytes, 0x77));

    auto measure_read = [&]() {
        Picoseconds lat = 0;
        fabric.read(0, setup.memory_node, 0x1000, setup.read_bytes,
                    [&](std::vector<std::uint8_t>, Picoseconds l, bool) {
                        lat = l;
                    });
        fabric.run();
        return lat;
    };

    // Warm-up (opens the DRAM row), then load the uplink and read
    // through the queued frames.
    measure_read();
    mac::Frame jumbo;
    jumbo.payload.assign(setup.frame_payload, 0xEE);
    const auto bytes = mac::serialize(jumbo);
    for (int i = 0; i < frames; ++i)
        fabric.injectFrame(0, bytes);

    ctx.record("read_ns", toNs(measure_read()));
    ctx.record("frames_delivered",
               static_cast<double>(
                   fabric.host(setup.memory_node).stats().frames_received));
}

const char *
flowFabricName(FlowFabric f)
{
    switch (f) {
      case FlowFabric::Edm: return "EDM";
      case FlowFabric::Ird: return "IRD";
      case FlowFabric::Pfabric: return "pFabric";
      case FlowFabric::Pfc: return "PFC";
      case FlowFabric::Dctcp: return "DCTCP";
      case FlowFabric::Cxl: return "CXL";
      case FlowFabric::Fastpass: return "Fastpass";
    }
    return "?";
}

namespace {

std::unique_ptr<proto::FabricModel>
makeFlowModel(const FlowPoint &p, Simulation &sim,
              const proto::ClusterConfig &cluster)
{
    switch (p.fabric) {
      case FlowFabric::Edm:
        return std::make_unique<proto::EdmFlowModel>(sim, cluster, p.edm);
      case FlowFabric::Ird:
        return std::make_unique<proto::IrdModel>(sim, cluster);
      case FlowFabric::Pfabric:
        return std::make_unique<proto::PfabricModel>(sim, cluster);
      case FlowFabric::Pfc:
        return std::make_unique<proto::PfcDcqcnModel>(sim, cluster);
      case FlowFabric::Dctcp:
        return std::make_unique<proto::DctcpModel>(sim, cluster);
      case FlowFabric::Cxl:
        return std::make_unique<proto::CxlModel>(sim, cluster);
      case FlowFabric::Fastpass:
        return std::make_unique<proto::FastpassModel>(sim, cluster);
    }
    return nullptr;
}

/** Load-calibration wire function for each fabric's own framing. */
workload::WireFn
flowWireFn(FlowFabric f)
{
    switch (f) {
      case FlowFabric::Edm: return workload::wire::edm;
      case FlowFabric::Ird: return workload::wire::ethernet;
      case FlowFabric::Pfabric: return workload::wire::tcp;
      case FlowFabric::Pfc: return workload::wire::rdma;
      case FlowFabric::Dctcp: return workload::wire::tcp;
      case FlowFabric::Cxl: return workload::wire::cxl;
      case FlowFabric::Fastpass: return workload::wire::ethernet;
    }
    return workload::wire::ethernet;
}

/** The §4.3 job-list seed every flow point draws from. */
constexpr std::uint64_t kFlowSeed = 42;

FlowResult
runFlowPoint(const FlowPoint &p, double scale)
{
    Simulation sim(kFlowSeed);
    const proto::ClusterConfig cluster;
    const auto model = makeFlowModel(p, sim, cluster);

    workload::SyntheticConfig cfg;
    cfg.num_nodes = cluster.num_nodes;
    cfg.load = p.load;
    cfg.write_fraction = p.write_fraction;
    cfg.messages = flowMessages(p.messages, scale);
    cfg.size_cdf = p.size_cdf;

    Rng rng(kFlowSeed * 77 + 1);
    for (const auto &j :
         workload::generateSynthetic(rng, cfg, flowWireFn(p.fabric)))
        model->offer(j);
    sim.run();

    FlowResult r;
    r.norm_mean = model->normalized().mean();
    r.norm_p99 = model->normalized().percentile(99);
    r.mean_ns = model->latency().mean();
    r.completed = model->completed();
    return r;
}

} // namespace

std::uint64_t
flowMessages(std::uint64_t messages, double scale)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(messages * scale));
}

std::vector<FlowResult>
runFlowPoints(const std::vector<FlowPoint> &points, double scale,
              unsigned threads)
{
    // Each worker writes only its own point's slot.
    std::vector<FlowResult> out(points.size());
    ScenarioRunner runner(threads);
    for (std::size_t i = 0; i < points.size(); ++i)
        runner.add(flowFabricName(points[i].fabric),
                   [&out, &points, i, scale](ScenarioContext &) {
                       if (auto *log = points[i].edm.event_log)
                           log->pointStart(i);
                       out[i] = runFlowPoint(points[i], scale);
                   });
    runner.runAll();
    return out;
}

bool
isFlowConfigKey(const std::string &key)
{
    return key == "wire_charged_occupancy";
}

std::vector<FlowRow>
runFlowScenario(const ScenarioSpec &spec, double scale,
                trace::EventLog *log, unsigned threads)
{
    std::vector<FlowRow> rows;
    std::vector<FlowPoint> points;
    for (const FlowFabric fabric : spec.fabrics)
        for (const double load : spec.loads)
            for (const ScenarioModeSpec &mode : spec.modes) {
                FlowPoint p;
                p.fabric = fabric;
                p.load = load;
                p.messages = spec.messages;
                // Every isFlowConfigKey key, and nothing else.
                p.edm.wire_charged_occupancy =
                    mode.cfg.wire_charged_occupancy;
                p.edm.event_log = log;
                points.push_back(p);
                rows.push_back(FlowRow{p, mode.name, {}});
            }
    const std::vector<FlowResult> results =
        runFlowPoints(points, scale, threads);
    for (std::size_t i = 0; i < rows.size(); ++i)
        rows[i].result = results[i];
    return rows;
}

} // namespace edm
