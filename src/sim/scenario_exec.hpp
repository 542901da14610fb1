/**
 * @file
 * Execution bodies for the incast-contention, preemption-interference
 * and flow-model experiments: examples/run_scenario.cpp runs every
 * scenario file under scenarios/ through them, and the paper-figure
 * benches and the tests that pin results call the same functions, so
 * there is one implementation of each experiment.
 */

#ifndef EDM_SIM_SCENARIO_EXEC_HPP
#define EDM_SIM_SCENARIO_EXEC_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/cdf.hpp"
#include "core/config.hpp"
#include "core/message.hpp"
#include "proto/edm_model.hpp"
#include "sim/scenario_runner.hpp"

namespace edm {

struct FaultCampaignSpec;
struct ScenarioSpec;

/**
 * EDM_BENCH_SCALE as a factor, or @p fallback when the variable is
 * unset. Any value but a positive finite decimal number stops the run
 * with an error naming it. run_scenario --quick and the paper-figure
 * benches sample at this one consistent scale.
 */
double benchScaleEnv(double fallback);

/**
 * Closed-loop mixed read/write incast workload parameters.
 * write_bytes = 0 makes the chains all-reads (fault campaigns use this
 * so every stranded op is retryable).
 */
struct IncastWorkload
{
    int chains_per_node = 6;
    Bytes read_bytes = 900;
    Bytes write_bytes = 700;
};

/** One incast sweep point (the scheduler mode lives in the EdmConfig). */
struct IncastPoint
{
    std::string pattern; ///< "N-to-1" or "all-to-all"
    std::size_t nodes = 0;
};

/**
 * Run one incast point on @p ctx's simulation: chains_per_node
 * closed-loop chains per sender, each `rounds` long, mixing reads and
 * writes 2:1 (all-reads when wl.write_bytes is 0). Records
 * offered/completed/grants/wasted_slots/parked/stranded/peak_staging/
 * read_p99. @p cfg carries the scheduler mode flags; num_nodes comes
 * from the point. An active @p faults spec runs a
 * FaultCampaign against the point's fabric and additionally records
 * the recovery metrics (links_disabled/links_repaired/retried/
 * recovered/abandoned/tt_detect_ns/tt_disable_ns/tt_repair_ns).
 */
void runIncastPoint(ScenarioContext &ctx, const IncastPoint &pt,
                    const IncastWorkload &wl, int rounds,
                    core::EdmConfig cfg,
                    const FaultCampaignSpec *faults = nullptr);

/** One incast table row: a sweep point under one mode. */
struct IncastRow
{
    IncastPoint point;
    std::string mode;
    ScenarioResult result;
};

/**
 * Chain length of @p spec's incast rows: its `rounds`, or under
 * @p quick that many scaled by benchScaleEnv(0.5), at least 1.
 */
int incastRounds(const ScenarioSpec &spec, bool quick);

/**
 * Run every row of the incast @p spec: the n_to_1 then the all_to_all
 * sweep points (the quick_* lists under @p quick, when given), each
 * under every mode in file order, modes innermost, with
 * incastRounds() rounds. Each mode's config records to @p log when it
 * is set; the event log is not thread-safe, so pass @p threads = 1
 * with it. @p threads sizes the pool as ScenarioRunner's constructor
 * takes it.
 */
std::vector<IncastRow> runIncastScenario(const ScenarioSpec &spec,
                                         bool quick, trace::EventLog *log,
                                         unsigned threads);

/** Preemption-interference topology/workload parameters (§3.2.3). */
struct InterferenceSetup
{
    std::size_t nodes = 2;
    core::NodeId memory_node = 1;
    Bytes read_bytes = 64;
    std::size_t frame_payload = 8900;
};

/**
 * Measure one read preempting @p frames queued jumbo frames at
 * @p cfg's link rate. Records read_ns and frames_delivered. num_nodes
 * comes from the setup.
 */
void runInterferencePoint(ScenarioContext &ctx,
                          const InterferenceSetup &setup, int frames,
                          core::EdmConfig cfg);

/** The seven fabrics of §4.3. */
enum class FlowFabric
{
    Edm,
    Ird,
    Pfabric,
    Pfc,
    Dctcp,
    Cxl,
    Fastpass,
};

/** Every FlowFabric, in the paper's presentation order. */
inline constexpr FlowFabric kFlowFabrics[] = {
    FlowFabric::Edm,   FlowFabric::Ird, FlowFabric::Pfabric, FlowFabric::Pfc,
    FlowFabric::Dctcp, FlowFabric::Cxl, FlowFabric::Fastpass};

/** The fabric's name as the paper and scenario files spell it. */
const char *flowFabricName(FlowFabric f);

/**
 * One point of the §4.3 flow-model simulations: a synthetic job list on
 * 144 nodes at 100 G (the proto::ClusterConfig defaults), drawn from
 * the fixed seed 42 and calibrated to the fabric's own framing.
 */
struct FlowPoint
{
    FlowFabric fabric = FlowFabric::Edm;
    double load = 0.5;
    double write_fraction = 1.0;
    std::uint64_t messages = 50000;
    Cdf size_cdf = {}; ///< empty: fixed 64 B messages
    proto::EdmModelConfig edm; ///< read by the EDM fabric only
};

/** Result of one flow point. */
struct FlowResult
{
    double norm_mean = 0; ///< mean latency / own unloaded latency
    double norm_p99 = 0;
    double mean_ns = 0;
    std::uint64_t completed = 0;
};

/** The messages a point of @p messages runs at @p scale: at least 1. */
std::uint64_t flowMessages(std::uint64_t messages, double scale);

/**
 * Run @p points, each with flowMessages() of its count, on a
 * ScenarioRunner pool of @p threads (as ScenarioRunner's constructor
 * takes them), results in input order. Every point draws from the same
 * fixed seed, so the results equal a serial loop's for any thread
 * count.
 */
std::vector<FlowResult> runFlowPoints(const std::vector<FlowPoint> &points,
                                      double scale, unsigned threads = 0);

/** One flow table row: a (fabric, load) point under one mode. */
struct FlowRow
{
    FlowPoint point;
    std::string mode;
    FlowResult result;
};

/**
 * Whether a flow scenario's `[config]` and `[mode]` sections accept
 * the EdmConfig @p key. runFlowScenario copies each accepted key into
 * its EDM points' proto::EdmModelConfig; the loader rejects the rest.
 */
bool isFlowConfigKey(const std::string &key);

/**
 * Run every row of the flow @p spec: its fabrics, then its loads, each
 * under every mode in file order, modes innermost, with the messages
 * scaled by @p scale. The EDM points record to @p log when it is set;
 * the event log is not thread-safe, so pass @p threads = 1 with it.
 */
std::vector<FlowRow> runFlowScenario(const ScenarioSpec &spec, double scale,
                                     trace::EventLog *log,
                                     unsigned threads);

} // namespace edm

#endif // EDM_SIM_SCENARIO_EXEC_HPP
