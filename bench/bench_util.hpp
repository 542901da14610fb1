/**
 * @file
 * Shared helpers for the experiment-reproduction benchmarks: model
 * factories, wire-cost mapping, and one-line experiment runs.
 *
 * Scale note: set EDM_BENCH_SCALE (e.g. 0.2) to shrink message counts
 * for quick runs; results are noisier but the shapes survive.
 */

#ifndef EDM_BENCH_BENCH_UTIL_HPP
#define EDM_BENCH_BENCH_UTIL_HPP

#include <memory>
#include <string>
#include <vector>

#include "proto/cxl.hpp"
#include "proto/edm_model.hpp"
#include "proto/fastpass.hpp"
#include "proto/ird.hpp"
#include "proto/window_model.hpp"
#include "sim/scenario_exec.hpp"
#include "sim/scenario_runner.hpp"
#include "workload/synthetic.hpp"

namespace edm {
namespace bench {

/** The seven fabrics of §4.3, in the paper's presentation order. */
enum class Fabric
{
    Edm,
    Ird,
    Pfabric,
    Pfc,
    Dctcp,
    Cxl,
    Fastpass,
};

inline std::vector<Fabric>
allFabrics()
{
    return {Fabric::Edm, Fabric::Ird, Fabric::Pfabric, Fabric::Pfc,
            Fabric::Dctcp, Fabric::Cxl, Fabric::Fastpass};
}

inline const char *
fabricName(Fabric f)
{
    switch (f) {
      case Fabric::Edm: return "EDM";
      case Fabric::Ird: return "IRD";
      case Fabric::Pfabric: return "pFabric";
      case Fabric::Pfc: return "PFC";
      case Fabric::Dctcp: return "DCTCP";
      case Fabric::Cxl: return "CXL";
      case Fabric::Fastpass: return "Fastpass";
    }
    return "?";
}

inline std::unique_ptr<proto::FabricModel>
makeModel(Fabric f, Simulation &sim, const proto::ClusterConfig &cluster,
          core::Priority edm_priority = core::Priority::Srpt,
          Bytes edm_chunk = 256, int edm_x = 3,
          bool edm_wire_charged = false)
{
    switch (f) {
      case Fabric::Edm: {
        proto::EdmModelConfig cfg;
        cfg.priority = edm_priority;
        cfg.chunk_bytes = edm_chunk;
        cfg.max_notifications = edm_x;
        cfg.wire_charged_occupancy = edm_wire_charged;
        return std::make_unique<proto::EdmFlowModel>(sim, cluster, cfg);
      }
      case Fabric::Ird:
        return std::make_unique<proto::IrdModel>(sim, cluster);
      case Fabric::Pfabric:
        return std::make_unique<proto::PfabricModel>(sim, cluster);
      case Fabric::Pfc:
        return std::make_unique<proto::PfcDcqcnModel>(sim, cluster);
      case Fabric::Dctcp:
        return std::make_unique<proto::DctcpModel>(sim, cluster);
      case Fabric::Cxl:
        return std::make_unique<proto::CxlModel>(sim, cluster);
      case Fabric::Fastpass:
        return std::make_unique<proto::FastpassModel>(sim, cluster);
    }
    return nullptr;
}

/** Load-calibration wire function for each fabric's own framing. */
inline workload::WireFn
wireFn(Fabric f)
{
    switch (f) {
      case Fabric::Edm: return workload::wire::edm;
      case Fabric::Ird: return workload::wire::ethernet;
      case Fabric::Pfabric: return workload::wire::tcp;
      case Fabric::Pfc: return workload::wire::rdma;
      case Fabric::Dctcp: return workload::wire::tcp;
      case Fabric::Cxl: return workload::wire::cxl;
      case Fabric::Fastpass: return workload::wire::ethernet;
    }
    return workload::wire::ethernet;
}

/** Result of one simulated experiment point. */
struct RunResult
{
    double norm_mean = 0;  ///< mean latency / own unloaded latency
    double norm_p99 = 0;
    double mean_ns = 0;
    std::uint64_t completed = 0;
};

/** Fully-specified experiment point of the §4.3 simulations. */
struct PointSpec
{
    Fabric fabric = Fabric::Edm;
    double load = 0.5;
    double write_fraction = 1.0;
    std::uint64_t messages = 50000;
    Cdf size_cdf = {};
    std::uint64_t seed = 42;
    core::Priority edm_priority = core::Priority::Srpt;
    Bytes edm_chunk = 256;
    int edm_x = 3;

    /** EDM only: wire-charged port occupancy (core/occupancy.hpp). */
    bool edm_wire_charged = false;
};

/**
 * Run one experiment point, its message count scaled by @p scale. A new
 * knob only touches PointSpec here.
 */
inline RunResult
runPoint(const PointSpec &p, double scale)
{
    Simulation sim(p.seed);
    proto::ClusterConfig cluster;
    cluster.num_nodes = 144; // §4.3 setup
    auto model = makeModel(p.fabric, sim, cluster, p.edm_priority,
                           p.edm_chunk, p.edm_x, p.edm_wire_charged);

    workload::SyntheticConfig cfg;
    cfg.num_nodes = cluster.num_nodes;
    cfg.load = p.load;
    cfg.write_fraction = p.write_fraction;
    cfg.messages = static_cast<std::uint64_t>(p.messages * scale);
    cfg.size_cdf = p.size_cdf;

    Rng rng(p.seed * 77 + 1);
    const auto jobs = workload::generateSynthetic(rng, cfg,
                                                  wireFn(p.fabric));
    for (const auto &j : jobs)
        model->offer(j);
    sim.run();

    RunResult r;
    r.norm_mean = model->normalized().mean();
    r.norm_p99 = model->normalized().percentile(99);
    r.mean_ns = model->latency().mean();
    r.completed = model->completed();
    return r;
}

/**
 * Run many experiment points concurrently on a ScenarioRunner pool.
 *
 * Each point carries its own explicit seed (runPoint ignores the
 * runner's derived seed streams), so the returned RunResults are
 * *identical* to calling runPoint() serially in a loop — only the
 * wall-clock changes. Results are returned in input order. Set
 * EDM_SWEEP_THREADS to pin the pool size (handled by ScenarioRunner).
 */
inline std::vector<RunResult>
runPointsParallel(const std::vector<PointSpec> &points)
{
    // Read here, not on the workers: a malformed EDM_BENCH_SCALE must
    // stop the run once, from this thread.
    const double scale = benchScaleEnv(1.0);
    ScenarioRunner runner;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointSpec &p = points[i];
        runner.add(std::string(fabricName(p.fabric)) + "#" +
                       std::to_string(i),
                   [p, scale](ScenarioContext &ctx) {
                       const RunResult r = runPoint(p, scale);
                       ctx.record("norm_mean", r.norm_mean);
                       ctx.record("norm_p99", r.norm_p99);
                       ctx.record("mean_ns", r.mean_ns);
                       ctx.record("completed",
                                  static_cast<double>(r.completed));
                   });
    }
    std::vector<RunResult> out;
    out.reserve(points.size());
    for (const ScenarioResult &sr : runner.runAll()) {
        RunResult r;
        r.norm_mean = sr.metricStat("norm_mean").mean();
        r.norm_p99 = sr.metricStat("norm_p99").mean();
        r.mean_ns = sr.metricStat("mean_ns").mean();
        r.completed = static_cast<std::uint64_t>(
            sr.metricStat("completed").mean());
        out.push_back(r);
    }
    return out;
}

} // namespace bench
} // namespace edm

#endif // EDM_BENCH_BENCH_UTIL_HPP
