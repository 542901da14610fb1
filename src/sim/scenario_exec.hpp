/**
 * @file
 * Execution bodies for the incast-contention and
 * preemption-interference experiments: examples/run_scenario.cpp runs
 * every scenario file under scenarios/ through them, and the tests
 * that pin scenario results call the same functions, so there is one
 * implementation of each experiment.
 */

#ifndef EDM_SIM_SCENARIO_EXEC_HPP
#define EDM_SIM_SCENARIO_EXEC_HPP

#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/message.hpp"
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
 * with it. @p threads sizes the pool as ScenarioRunner::Options does.
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

} // namespace edm

#endif // EDM_SIM_SCENARIO_EXEC_HPP
