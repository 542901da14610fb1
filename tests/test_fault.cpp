/**
 * @file
 * Failure-injection tests (paper §3.3): data corruption on a link,
 * threshold-based link disable, and the read-timeout deadlock guard —
 * plus conservation properties under load for every flow model.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/fabric.hpp"
#include "proto/cxl.hpp"
#include "proto/edm_model.hpp"
#include "proto/fastpass.hpp"
#include "proto/ird.hpp"
#include "proto/window_model.hpp"
#include "workload/synthetic.hpp"

namespace edm {
namespace {

core::EdmConfig
faultConfig()
{
    core::EdmConfig cfg;
    cfg.num_nodes = 2;
    cfg.link_rate = Gbps{25.0};
    cfg.read_timeout = 2 * kMicrosecond;
    return cfg;
}

TEST(Fault, CorruptedRequestYieldsNullResponse)
{
    // A corrupted RREQ never reaches the switch; the deadlock guard
    // answers the application with a NULL response (§3.3).
    Simulation sim;
    core::CycleFabric fab(faultConfig(), sim, {1});
    fab.host(1).store()->write64(0x100, 42);

    fab.corruptUplink(0, 3); // the whole 3-block RREQ
    bool timed_out = false;
    std::size_t got = 99;
    fab.host(0).postRead(1, 0x100, 8,
                         [&](std::vector<std::uint8_t> d, Picoseconds,
                             bool to) {
                             timed_out = to;
                             got = d.size();
                         });
    sim.run();
    EXPECT_TRUE(timed_out);
    EXPECT_EQ(got, 0u);
    EXPECT_EQ(fab.linkErrors(0), 3u);
    EXPECT_FALSE(fab.linkDisabled(0));
}

TEST(Fault, LinkRecoversBelowThreshold)
{
    // Errors below the damage threshold: later traffic flows normally.
    Simulation sim;
    core::CycleFabric fab(faultConfig(), sim, {1});
    fab.host(1).store()->write64(0x100, 42);

    fab.corruptUplink(0, 3);
    fab.host(0).postRead(1, 0x100, 8,
                         [](std::vector<std::uint8_t>, Picoseconds,
                            bool) {});
    sim.run();

    bool ok = false;
    fab.host(0).postRead(1, 0x100, 8,
                         [&](std::vector<std::uint8_t> d, Picoseconds,
                             bool to) {
                             ok = !to && d.size() == 8 && d[0] == 42;
                         });
    sim.run();
    EXPECT_TRUE(ok);
}

TEST(Fault, PersistentDamageDisablesLink)
{
    // Sustained corruption crosses the threshold; EDM disables the link
    // (the only sustainable remedy for physical damage, §3.3) and every
    // read thereafter resolves via the timeout guard.
    Simulation sim;
    core::CycleFabric fab(faultConfig(), sim, {1});
    fab.host(1).store()->write64(0x100, 42);

    fab.corruptUplink(0, 1000);
    int timeouts = 0;
    for (int i = 0; i < 8; ++i) {
        fab.host(0).postRead(1, 0x100, 8,
                             [&](std::vector<std::uint8_t>, Picoseconds,
                                 bool to) { timeouts += to; });
        sim.run();
    }
    EXPECT_EQ(timeouts, 8);
    EXPECT_TRUE(fab.linkDisabled(0));
    EXPECT_GE(fab.linkErrors(0), core::EdmConfig{}.link_error_threshold);
}

TEST(Fault, OtherLinksUnaffectedByDisable)
{
    core::EdmConfig cfg = faultConfig();
    cfg.num_nodes = 3;
    Simulation sim;
    core::CycleFabric fab(cfg, sim, {2});
    fab.host(2).store()->write64(0x100, 7);

    fab.corruptUplink(0, 1000);
    // Drive node 0's link into the disabled state.
    for (int i = 0; i < 6; ++i) {
        fab.host(0).postRead(2, 0x100, 8,
                             [](std::vector<std::uint8_t>, Picoseconds,
                                bool) {});
        sim.run();
    }
    EXPECT_TRUE(fab.linkDisabled(0));

    // Node 1 still reads fine through the same switch.
    bool ok = false;
    fab.host(1).postRead(2, 0x100, 8,
                         [&](std::vector<std::uint8_t> d, Picoseconds,
                             bool to) { ok = !to && d[0] == 7; });
    sim.run();
    EXPECT_TRUE(ok);
}

TEST(FaultDeathTest, IdsPastTheFabricPanic)
{
    // Uplink state lives beside the downlinks' (a 2-node fabric keeps
    // four links), so an unchecked id past the host count would read a
    // downlink's health or write past the hosts' frame backlogs; a leaf
    // past the switch count would read past the switch table.
    Simulation sim;
    core::CycleFabric fab(faultConfig(), sim, {1});
    const std::vector<std::uint8_t> frame(64, 0x5A);
    EXPECT_DEATH(fab.injectFrame(5, frame), "out of range");
    EXPECT_DEATH(fab.linkErrors(2), "out of range");
    EXPECT_DEATH(fab.linkDisabled(3), "out of range");
    EXPECT_DEATH(fab.switchAt(1), "out of range");
    EXPECT_EQ(fab.linkErrors(1), 0u);
    EXPECT_FALSE(fab.linkDisabled(1));
}

// ---- conservation properties for every flow model ----

using ModelFactory = std::function<std::unique_ptr<proto::FabricModel>(
    Simulation &, const proto::ClusterConfig &)>;

struct NamedFactory
{
    const char *name;
    ModelFactory make;
    workload::WireFn wire;
};

class ModelConservation : public ::testing::TestWithParam<int>
{
  public:
    static std::vector<NamedFactory> factories();
};

std::vector<NamedFactory>
ModelConservation::factories()
{
    using namespace proto;
    return {
        {"EDM",
         [](Simulation &s, const ClusterConfig &c) {
             return std::make_unique<EdmFlowModel>(s, c);
         },
         workload::wire::edm},
        {"IRD",
         [](Simulation &s, const ClusterConfig &c) {
             return std::make_unique<IrdModel>(s, c);
         },
         workload::wire::ethernet},
        {"pFabric",
         [](Simulation &s, const ClusterConfig &c) {
             return std::make_unique<PfabricModel>(s, c);
         },
         workload::wire::tcp},
        {"PFC",
         [](Simulation &s, const ClusterConfig &c) {
             return std::make_unique<PfcDcqcnModel>(s, c);
         },
         workload::wire::rdma},
        {"DCTCP",
         [](Simulation &s, const ClusterConfig &c) {
             return std::make_unique<DctcpModel>(s, c);
         },
         workload::wire::tcp},
        {"CXL",
         [](Simulation &s, const ClusterConfig &c) {
             return std::make_unique<CxlModel>(s, c);
         },
         workload::wire::cxl},
        {"Fastpass",
         [](Simulation &s, const ClusterConfig &c) {
             return std::make_unique<FastpassModel>(s, c);
         },
         workload::wire::ethernet},
    };
}

TEST_P(ModelConservation, EveryJobCompletesExactlyOnce)
{
    const std::vector<NamedFactory> all = factories();
    const NamedFactory &nf = all[static_cast<std::size_t>(GetParam())];
    Simulation sim(99);
    proto::ClusterConfig cluster;
    cluster.num_nodes = 32;
    auto model = nf.make(sim, cluster);

    workload::SyntheticConfig cfg;
    cfg.num_nodes = 32;
    cfg.load = 0.85; // heavy but sustainable
    cfg.messages = 4000;
    cfg.size_cdf = Cdf{{64, 0.7}, {1024, 0.95}, {16384, 1.0}};
    Rng rng(4);
    const auto jobs = workload::generateSynthetic(rng, cfg, nf.wire);
    for (const auto &j : jobs)
        model->offer(j);
    sim.run();

    EXPECT_EQ(model->completed(), jobs.size()) << nf.name;
    // Sanity on normalization: no job can beat its own ideal by much.
    EXPECT_GT(model->normalized().min(), 0.6) << nf.name;
}

INSTANTIATE_TEST_SUITE_P(AllFabrics, ModelConservation,
                         ::testing::Range(0, 7));

} // namespace
} // namespace edm
