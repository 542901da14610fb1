/**
 * @file
 * Domain example: a remote key-value store served from a disaggregated
 * memory node, driven by YCSB workloads A, B and F (the paper's §4.2.2
 * application scenario). Reports average/percentile GET and PUT
 * latencies over the EDM fabric.
 *
 * The three YCSB mixes are independent simulations, so they run as
 * ScenarioRunner scenarios on the thread pool (one per workload).
 *
 * Build & run:   ./build/kv_store_ycsb
 */

#include <cstdio>
#include <vector>

#include "kv/kv_store.hpp"
#include "sim/scenario_runner.hpp"
#include "workload/ycsb.hpp"

namespace {

using namespace edm;
using workload::YcsbWorkload;

void
runYcsb(ScenarioContext &ctx, YcsbWorkload w)
{
    Simulation &sim = ctx.sim();
    core::EdmConfig cfg;
    cfg.num_nodes = 2;
    cfg.link_rate = Gbps{25.0};
    core::CycleFabric fabric(cfg, sim, {1});

    constexpr std::uint64_t kKeys = 2048;
    kv::KvStore store(fabric, /*client=*/0, /*server=*/1, kKeys,
                      /*slot_bytes=*/1024);
    workload::YcsbGenerator gen(w, kKeys, 13);

    // Load phase: populate every key with a 1 KB object.
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        store.put(k, std::vector<std::uint8_t>(1024, 0xAB));
        sim.run();
    }

    // Run phase.
    std::uint64_t misses = 0;
    for (int i = 0; i < 2000; ++i) {
        const auto op = gen.next();
        if (op.is_write) {
            store.put(op.key, std::vector<std::uint8_t>(op.size, 0x11),
                      [&](Picoseconds l) {
                          ctx.record("put_ns", toNs(l));
                      });
        } else {
            store.get(op.key, [&](auto value, Picoseconds l) {
                ctx.record("get_ns", toNs(l));
                misses += !value.has_value();
            });
        }
        sim.run();
    }
    ctx.record("misses", static_cast<double>(misses));
}

} // namespace

int
main()
{
    const std::vector<YcsbWorkload> workloads = {
        YcsbWorkload::A, YcsbWorkload::B, YcsbWorkload::F};

    ScenarioRunner runner;
    for (auto w : workloads)
        runner.add("YCSB-" + workload::ycsbName(w),
                   [w](ScenarioContext &ctx) { runYcsb(ctx, w); });
    const auto results = runner.runAll();

    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        const auto &get_lat = r.metrics.at("get_ns");
        const auto &put_lat = r.metrics.at("put_ns");
        std::printf("YCSB-%s: GET avg %7.1f ns (p99 %7.1f), "
                    "PUT avg %7.1f ns (p99 %7.1f), misses %llu\n",
                    workload::ycsbName(workloads[i]).c_str(),
                    get_lat.mean(), get_lat.percentile(99),
                    put_lat.mean(), put_lat.percentile(99),
                    static_cast<unsigned long long>(
                        r.metricStat("misses").sum()));
    }
    std::printf("\n(every operation crosses the real block-level fabric:"
                " ~300 ns EDM floor + DRAM + serialization)\n");
    return 0;
}
