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

#include "core/config.hpp"
#include "core/message.hpp"
#include "sim/scenario_runner.hpp"

namespace edm {

struct FaultCampaignSpec;

/**
 * EDM_BENCH_SCALE as a factor, or @p fallback when the variable is
 * unset or not a positive number. run_scenario --quick and the
 * paper-figure benches sample at this one consistent scale.
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
 * read_p99. @p cfg carries the scheduler mode flags; num_nodes is
 * overwritten from the point. An active @p faults spec runs a
 * FaultCampaign against the point's fabric and additionally records
 * the recovery metrics (links_disabled/links_repaired/retried/
 * recovered/abandoned/tt_detect_ns/tt_disable_ns/tt_repair_ns).
 */
void runIncastPoint(ScenarioContext &ctx, const IncastPoint &pt,
                    const IncastWorkload &wl, int rounds,
                    core::EdmConfig cfg,
                    const FaultCampaignSpec *faults = nullptr);

/** Preemption-interference topology/workload parameters (§3.2.3). */
struct InterferenceSetup
{
    std::size_t nodes = 2;
    core::NodeId memory_node = 1;
    double link_gbps = 25.0;
    Bytes read_bytes = 64;
    std::size_t frame_payload = 8900;
};

/**
 * Measure one read preempting @p frames queued jumbo frames. Records
 * read_ns and frames_delivered. num_nodes/link_rate in @p cfg are
 * overwritten from the setup.
 */
void runInterferencePoint(ScenarioContext &ctx,
                          const InterferenceSetup &setup, int frames,
                          core::EdmConfig cfg);

} // namespace edm

#endif // EDM_SIM_SCENARIO_EXEC_HPP
