/**
 * @file
 * Exact cost counts of the flow model: heap allocations and events per
 * message on a flow_fig8a-shaped plan.
 *
 * This binary replaces the global operator new with a counting one, so
 * the counts are exact and repeat on every machine and every run, unlike
 * a wall-clock rate. The plan is bench_edm's flow_fig8a at a tenth of
 * its size: 144 nodes at 100 Gbps, load 0.7, half writes, 64 B / 1 KiB /
 * 64 KiB messages. The ceilings are the counts measured when they were
 * committed; a change that raises one must say why, and one that lowers
 * one lowers its ceiling.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/cdf.hpp"
#include "common/random.hpp"
#include "proto/edm_model.hpp"
#include "sim/simulation.hpp"
#include "workload/synthetic.hpp"

namespace {

/** operator new calls since the program started. */
std::uint64_t g_allocations = 0;

void *
countedAlloc(std::size_t n)
{
    ++g_allocations;
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace edm {
namespace {

constexpr std::uint64_t kMessages = 7500;

/** Allocations per message in the first run (measured 0.1423). */
constexpr double kRunAllocationCeiling = 0.15;

/** Allocations per message once warm (measured 0.0029). */
constexpr double kSteadyAllocationCeiling = 0.01;

/** Events per message in the first run (measured 35.0044). */
constexpr double kEventCeiling = 35.01;

std::vector<proto::Job>
fig8aShapedJobs()
{
    workload::SyntheticConfig cfg;
    cfg.num_nodes = 144;
    cfg.link_rate = Gbps{100.0};
    cfg.load = 0.7;
    cfg.write_fraction = 0.5;
    cfg.messages = kMessages;
    cfg.size_cdf = Cdf{{64, 0.5}, {1024, 0.8}, {65536, 1.0}};
    Rng rng(1);
    return workload::generateSynthetic(rng, cfg, workload::wire::edm);
}

TEST(AllocCounts, FlowModelRunsWithoutAllocatingPerMessage)
{
    const std::vector<proto::Job> jobs = fig8aShapedJobs();
    ASSERT_EQ(jobs.size(), kMessages);
    Simulation sim(1);
    proto::ClusterConfig cluster;
    proto::EdmFlowModel model(sim, cluster);

    // The plan runs twice on one model, the second time shifted past the
    // first's end. The first run grows every table to its high-water
    // mark; the second then measures the steady state.
    auto runPlan = [&](Picoseconds shift) {
        for (proto::Job j : jobs) {
            j.arrival += shift;
            model.offer(j);
        }
        const std::uint64_t before = g_allocations;
        sim.run();
        return static_cast<double>(g_allocations - before) / kMessages;
    };
    const double first_per_msg = runPlan(0);
    const double events_per_msg =
        static_cast<double>(sim.events().executed()) / kMessages;
    ASSERT_EQ(model.completed(), kMessages);
    const double steady_per_msg = runPlan(sim.now());
    ASSERT_EQ(model.completed(), 2 * kMessages);

    std::printf("allocations per message: %.4f in the first run's "
                "sim.run(), %.4f in the second's; events per message: "
                "%.4f\n",
                first_per_msg, steady_per_msg, events_per_msg);
    EXPECT_LE(first_per_msg, kRunAllocationCeiling);
    EXPECT_LE(steady_per_msg, kSteadyAllocationCeiling);
    EXPECT_LE(events_per_msg, kEventCeiling);
}

} // namespace
} // namespace edm
