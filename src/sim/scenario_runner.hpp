/**
 * @file
 * Parallel scenario execution: run many independent simulations (load
 * sweeps, YCSB mixes, preemption-interference scenarios) concurrently
 * on a thread pool and merge their statistics.
 *
 * Determinism contract: every scenario gets its own Simulation and its
 * own counter-derived RNG stream, both seeded from (base_seed, scenario
 * index) only. Scenarios share no mutable state, and results are
 * reported in registration order. A run with the same scenarios and the
 * same base seed therefore produces bit-identical metric samples
 * regardless of the number of worker threads or their interleaving.
 */

#ifndef EDM_SIM_SCENARIO_RUNNER_HPP
#define EDM_SIM_SCENARIO_RUNNER_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "sim/simulation.hpp"

namespace edm {

/**
 * Per-scenario execution context handed to the scenario body.
 *
 * The Simulation is created lazily so purely analytic scenarios (closed
 * form models, no event loop) pay nothing for it.
 */
class ScenarioContext
{
  public:
    ScenarioContext(std::string name, std::size_t index,
                    std::uint64_t run_seed);

    ScenarioContext(const ScenarioContext &) = delete;
    ScenarioContext &operator=(const ScenarioContext &) = delete;

    const std::string &name() const { return name_; }

    /** Position of this scenario in registration order. */
    std::size_t index() const { return index_; }

    /** Seed for this run, derived from (base_seed, index). */
    std::uint64_t runSeed() const { return run_seed_; }

    /** The scenario's private simulation (created on first use). */
    Simulation &sim();

    /**
     * The scenario's private workload RNG stream (independent of the
     * Simulation's RNG, created on first use).
     */
    Rng &rng();

    /** Append one sample to the named metric series. */
    void record(const std::string &metric, double value);

    /** Append many samples to the named metric series. */
    void recordAll(const std::string &metric,
                   const std::vector<double> &values);

  private:
    friend class ScenarioRunner;

    std::string name_;
    std::size_t index_;
    std::uint64_t run_seed_;
    std::unique_ptr<Simulation> sim_;
    std::unique_ptr<Rng> rng_;
    // std::map keeps metric iteration order deterministic.
    std::map<std::string, Samples> metrics_;
};

/** Outcome of one scenario. */
struct ScenarioResult
{
    std::string name;
    std::uint64_t seed = 0;
    /** Events executed by the scenario's simulation (0 if none used). */
    std::uint64_t events = 0;
    /** Wall-clock cost of the scenario body, for speedup reporting. */
    double wall_ms = 0.0;
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
     * Invoked as each scenario completes, before runAll() returns —
     * long sweeps can stream results instead of reporting only at the
     * end. Calls are serialized (one at a time) but arrive in
     * *completion* order, which depends on thread scheduling; the
     * vector runAll() returns stays in registration order and is
     * bit-identical with or without a callback installed.
     */
    using ResultCallback = std::function<void(const ScenarioResult &)>;

    struct Options
    {
        /**
         * Worker threads; 0 takes EDM_SWEEP_THREADS (a whole decimal
         * count, anything else is fatal), or when that is unset or 0,
         * std::thread::hardware_concurrency().
         */
        unsigned threads = 0;
        /** Root of every per-scenario seed derivation. */
        std::uint64_t base_seed = 1;
        /** Streaming completion callback (may be empty). */
        ResultCallback on_result;
    };

    ScenarioRunner() : ScenarioRunner(Options{}) {}
    explicit ScenarioRunner(Options opts);

    /** Register a scenario; returns its index in registration order. */
    std::size_t add(std::string name, ScenarioFn fn);

    std::size_t size() const { return scenarios_.size(); }

    /**
     * Execute every registered scenario and return results in
     * registration order. Scenarios added so far are consumed; the
     * runner is empty afterwards and can be reused.
     */
    std::vector<ScenarioResult> runAll();

    /** The per-scenario seed runAll() will use for index @p i. */
    std::uint64_t seedFor(std::size_t i) const;

    /**
     * Merge the named metric across results (in result order) into one
     * sample set. Deterministic given deterministic inputs.
     */
    static Samples mergedMetric(const std::vector<ScenarioResult> &results,
                                const std::string &metric);

    /** Total events executed across results. */
    static std::uint64_t totalEvents(
        const std::vector<ScenarioResult> &results);

    /**
     * One-line-per-scenario text table of a metric's mean/p99, plus a
     * merged summary row — the standard sweep report.
     */
    static std::string summaryTable(
        const std::vector<ScenarioResult> &results,
        const std::string &metric);

  private:
    struct Pending
    {
        std::string name;
        ScenarioFn fn;
    };

    Options opts_;
    std::vector<Pending> scenarios_;
};

} // namespace edm

#endif // EDM_SIM_SCENARIO_RUNNER_HPP
