/**
 * @file
 * Parallel scenario execution: run many independent simulations (sweep
 * points, YCSB mixes, preemption-interference frame counts)
 * concurrently on a thread pool.
 *
 * Determinism contract: every scenario gets its own default-seeded
 * Simulation, scenarios share no mutable state, and results are
 * reported in registration order. A scenario whose body depends only on
 * its own inputs (any seed it needs is one of them) therefore produces
 * bit-identical metric samples regardless of the number of worker
 * threads or their interleaving.
 */

#ifndef EDM_SIM_SCENARIO_RUNNER_HPP
#define EDM_SIM_SCENARIO_RUNNER_HPP

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/simulation.hpp"

namespace edm {

/**
 * Per-scenario execution context handed to the scenario body.
 *
 * The Simulation is created lazily so scenarios that run no event loop
 * pay nothing for it.
 */
class ScenarioContext
{
  public:
    ScenarioContext() = default;

    ScenarioContext(const ScenarioContext &) = delete;
    ScenarioContext &operator=(const ScenarioContext &) = delete;

    /** The scenario's private simulation (created on first use). */
    Simulation &sim();

    /** Append one sample to the named metric series. */
    void record(const std::string &metric, double value);

  private:
    friend class ScenarioRunner;

    std::unique_ptr<Simulation> sim_;
    // std::map keeps metric iteration order deterministic.
    std::map<std::string, Samples> metrics_;
};

/** Outcome of one scenario. */
struct ScenarioResult
{
    std::string name;
    /** Metric series recorded via ScenarioContext::record. */
    std::map<std::string, Samples> metrics;

    /** Convenience: summary stat over one metric (empty stat if absent). */
    RunningStat metricStat(const std::string &metric) const;
};

/**
 * Runs registered scenarios on a pool of worker threads.
 */
class ScenarioRunner
{
  public:
    using ScenarioFn = std::function<void(ScenarioContext &)>;

    /**
     * @p threads worker threads; 0 takes EDM_SWEEP_THREADS (a whole
     * decimal count, anything else is fatal), or when that is unset or
     * 0, std::thread::hardware_concurrency().
     */
    explicit ScenarioRunner(unsigned threads = 0) : threads_(threads) {}

    /** Register a scenario; returns its index in registration order. */
    std::size_t add(std::string name, ScenarioFn fn);

    std::size_t size() const { return scenarios_.size(); }

    /**
     * Execute every registered scenario and return results in
     * registration order. Scenarios added so far are consumed; the
     * runner is empty afterwards and can be reused.
     */
    std::vector<ScenarioResult> runAll();

  private:
    struct Pending
    {
        std::string name;
        ScenarioFn fn;
    };

    unsigned threads_;
    std::vector<Pending> scenarios_;
};

} // namespace edm

#endif // EDM_SIM_SCENARIO_RUNNER_HPP
