/**
 * @file
 * ScenarioRunner tests: result ordering, reuse, exception propagation,
 * and the determinism regression — scenarios with explicit seeds must
 * produce bit-identical statistics regardless of worker-thread count
 * or scheduling.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "proto/edm_model.hpp"
#include "sim/scenario_runner.hpp"
#include "workload/synthetic.hpp"

namespace edm {
namespace {

/**
 * A small but non-trivial simulation: EDM fabric under synthetic load,
 * its job list drawn from @p seed.
 */
void
smallClusterScenario(ScenarioContext &ctx, double load, std::uint64_t seed)
{
    Simulation &sim = ctx.sim();
    proto::ClusterConfig cluster;
    cluster.num_nodes = 16;
    proto::EdmFlowModel model(sim, cluster);

    workload::SyntheticConfig cfg;
    cfg.num_nodes = cluster.num_nodes;
    cfg.load = load;
    cfg.messages = 800;
    Rng rng(seed);
    for (const auto &j :
         workload::generateSynthetic(rng, cfg, workload::wire::edm))
        model.offer(j);
    sim.run();

    ctx.record("norm_mean", model.normalized().mean());
    for (const double ns : model.latency().raw())
        ctx.record("latency_ns", ns);
}

/** Eight load points; point i draws its jobs from base_seed * 100 + i. */
std::vector<ScenarioResult>
runSweep(unsigned threads, std::uint64_t base_seed)
{
    ScenarioRunner runner(threads);
    for (int i = 0; i < 8; ++i) {
        const double load = 0.2 + 0.1 * i;
        const std::uint64_t seed = base_seed * 100 + i;
        runner.add("load" + std::to_string(i),
                   [load, seed](ScenarioContext &ctx) {
                       smallClusterScenario(ctx, load, seed);
                   });
    }
    return runner.runAll();
}

/** Bitwise comparison of every deterministic field of two result sets. */
void
expectIdentical(const std::vector<ScenarioResult> &a,
                const std::vector<ScenarioResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        ASSERT_EQ(a[i].metrics.size(), b[i].metrics.size());
        auto it_b = b[i].metrics.begin();
        for (const auto &[metric, samples] : a[i].metrics) {
            EXPECT_EQ(metric, it_b->first);
            const auto &raw_a = samples.raw();
            const auto &raw_b = it_b->second.raw();
            ASSERT_EQ(raw_a.size(), raw_b.size()) << metric;
            for (std::size_t k = 0; k < raw_a.size(); ++k)
                // Bit-identical, not approximately equal.
                ASSERT_EQ(raw_a[k], raw_b[k])
                    << metric << " sample " << k << " of " << a[i].name;
            ++it_b;
        }
    }
}

TEST(ScenarioRunner, ResultsInRegistrationOrder)
{
    ScenarioRunner runner;
    for (int i = 0; i < 6; ++i) {
        std::string name = "s";
        name += std::to_string(i);
        runner.add(std::move(name), [i](ScenarioContext &ctx) {
            ctx.record("idx", static_cast<double>(i));
        });
    }
    const auto results = runner.runAll();
    ASSERT_EQ(results.size(), 6u);
    for (int i = 0; i < 6; ++i) {
        const auto &r = results[static_cast<std::size_t>(i)];
        std::string expect = "s";
        expect += std::to_string(i);
        EXPECT_EQ(r.name, expect);
        EXPECT_EQ(r.metricStat("idx").mean(), static_cast<double>(i));
    }
}

TEST(ScenarioRunner, RunnerIsReusableAfterRunAll)
{
    ScenarioRunner runner;
    runner.add("first", [](ScenarioContext &ctx) {
        ctx.record("m", 1.0);
    });
    EXPECT_EQ(runner.runAll().size(), 1u);
    EXPECT_EQ(runner.size(), 0u);
    runner.add("second", [](ScenarioContext &ctx) {
        ctx.record("m", 2.0);
    });
    const auto again = runner.runAll();
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].name, "second");
}

TEST(SmallFunctionSemantics, NullFunctionPointerIsEmpty)
{
    using Fn = void (*)();
    const Fn null_fp = nullptr;
    EventQueue::Callback cb(null_fp);
    EXPECT_FALSE(static_cast<bool>(cb));
    EventQueue::Callback cb2([] {});
    EXPECT_TRUE(static_cast<bool>(cb2));
}

TEST(ScenarioRunner, ScenarioExceptionPropagatesFromPool)
{
    // A throwing scenario must reach the caller as an exception (not
    // std::terminate on a pool thread), matching single-thread runs.
    for (unsigned threads : {1u, 4u}) {
        ScenarioRunner runner(threads);
        for (int i = 0; i < 8; ++i) {
            std::string name = "ok";
            name += std::to_string(i);
            runner.add(std::move(name), [](ScenarioContext &) {});
        }
        runner.add("boom", [](ScenarioContext &) {
            throw std::runtime_error("scenario failure");
        });
        EXPECT_THROW(runner.runAll(), std::runtime_error)
            << "threads=" << threads;
    }
}

TEST(ScenarioRunnerDeterminism, SameSeedBitIdenticalSingleThread)
{
    const auto a = runSweep(1, 42);
    const auto b = runSweep(1, 42);
    expectIdentical(a, b);
}

TEST(ScenarioRunnerDeterminism, ThreadCountDoesNotChangeResults)
{
    // The core regression: a multi-threaded run must be bit-identical
    // to the single-threaded run with the same seeds. Repeat the MT run
    // to give nondeterministic scheduling a chance to show up.
    const auto serial = runSweep(1, 42);
    const auto mt1 = runSweep(4, 42);
    const auto mt2 = runSweep(4, 42);
    expectIdentical(serial, mt1);
    expectIdentical(serial, mt2);
}

TEST(ScenarioRunnerDeterminism, DifferentSeedsDiffer)
{
    const auto a = runSweep(2, 42);
    const auto b = runSweep(2, 43);
    ASSERT_EQ(a.size(), b.size());
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size() && !any_diff; ++i)
        any_diff = a[i].metricStat("latency_ns").mean() !=
            b[i].metricStat("latency_ns").mean();
    EXPECT_TRUE(any_diff);
}

} // namespace
} // namespace edm
