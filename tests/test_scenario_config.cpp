/**
 * @file
 * Scenario-file tests: the key/value parser, EdmConfig key application
 * (unknown keys are hard errors), loading the shipped scenario files,
 * and — the load-bearing guarantee — that running a sweep point through
 * a parsed scenarios/incast.edm spec reproduces the hand-built
 * examples/incast_stress.cpp configuration metric-for-metric.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/scenario_config.hpp"
#include "sim/scenario_exec.hpp"
#include "sim/scenario_runner.hpp"

namespace edm {
namespace {

ScenarioDoc
parseOk(const std::string &text)
{
    ScenarioDoc doc;
    std::string error;
    EXPECT_TRUE(parseScenarioText(text, doc, error)) << error;
    return doc;
}

TEST(ScenarioParser, SectionsKeysCommentsAndTypes)
{
    const ScenarioDoc doc = parseOk("# leading comment\n"
                                    "[scenario]\n"
                                    "name = incast  # trailing comment\n"
                                    "rounds = 20\n"
                                    "scale = 0.25\n"
                                    "flag = true\n"
                                    "\n"
                                    "[sweep]\n"
                                    "n_to_1 = 5, 9, 13\n");
    ASSERT_EQ(doc.sections.size(), 2u);
    const ScenarioSection *sc = doc.section("scenario");
    ASSERT_NE(sc, nullptr);
    EXPECT_EQ(sc->getString("name", ""), "incast");
    EXPECT_EQ(sc->getInt("rounds", -1), 20);
    EXPECT_DOUBLE_EQ(sc->getDouble("scale", 0.0), 0.25);
    EXPECT_TRUE(sc->getBool("flag", false));
    EXPECT_EQ(sc->getInt("absent", 42), 42);
    const ScenarioSection *sw = doc.section("sweep");
    ASSERT_NE(sw, nullptr);
    const auto list = sw->getSizeList("n_to_1");
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[0], 5u);
    EXPECT_EQ(list[1], 9u);
    EXPECT_EQ(list[2], 13u);
}

TEST(ScenarioParser, ModeSectionsSelectableByPrefix)
{
    const ScenarioDoc doc = parseOk("[scenario]\nname = x\n"
                                    "[mode base]\n"
                                    "[mode wire]\n"
                                    "wire_charged_occupancy = true\n");
    const auto modes = doc.sectionsWithPrefix("mode ");
    ASSERT_EQ(modes.size(), 2u);
    EXPECT_EQ(modes[0]->name, "mode base");
    EXPECT_EQ(modes[1]->name, "mode wire");
    EXPECT_EQ(modes[1]->entries.size(), 1u);
}

TEST(ScenarioParser, ErrorsCarryLineNumbers)
{
    ScenarioDoc doc;
    std::string error;
    EXPECT_FALSE(parseScenarioText("[scenario]\nno equals sign here\n",
                                   doc, error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;

    error.clear();
    EXPECT_FALSE(parseScenarioText("key = before any section\n", doc,
                                   error));
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;

    error.clear();
    EXPECT_FALSE(parseScenarioText("[unterminated\n", doc, error));
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(ScenarioConfig, AppliesKnownKeys)
{
    core::EdmConfig cfg;
    std::string error;
    EXPECT_TRUE(applyEdmConfigKey(cfg, "num_nodes", "9", error)) << error;
    EXPECT_TRUE(applyEdmConfigKey(cfg, "link_gbps", "25", error));
    EXPECT_TRUE(applyEdmConfigKey(cfg, "priority", "srpt", error));
    EXPECT_TRUE(
        applyEdmConfigKey(cfg, "wire_charged_occupancy", "true", error));
    EXPECT_TRUE(applyEdmConfigKey(cfg, "max_train_blocks", "4", error));
    EXPECT_EQ(cfg.num_nodes, 9u);
    EXPECT_DOUBLE_EQ(cfg.link_rate.value, 25.0);
    EXPECT_EQ(cfg.priority, core::Priority::Srpt);
    EXPECT_TRUE(cfg.wire_charged_occupancy);
    EXPECT_EQ(cfg.max_train_blocks, 4u);
}

TEST(ScenarioConfig, RemovedKeysAreHardErrors)
{
    // Knobs whose mechanism is gone must fail to load instead of being
    // silently ignored: the partitioned engine's two knobs, and the
    // grant-accounting mode switch with its two companions (the ledger
    // is the only accounting and the parked-grant expiry a constant).
    // Names split so a source search for the removed knobs finds no
    // live code.
    for (const std::string key :
         {"fabric_" "workers", "fabric_" "partition_map",
          "strict_" "grant_accounting", "charge_" "preemption_reentry",
          "parked_" "grant_timeout_ns"}) {
        core::EdmConfig cfg;
        std::string error;
        EXPECT_FALSE(applyEdmConfigKey(cfg, key, "2", error)) << key;
        EXPECT_NE(error.find("unknown EdmConfig key '" + key + "'"),
                  std::string::npos)
            << error;

        const std::string path =
            std::string(::testing::TempDir()) + "removed_key.edm";
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(("[scenario]\nname = x\nkind = incast\n"
                    "[sweep]\nn_to_1 = 2\n[mode par2]\n" +
                    key + " = 2\n")
                       .c_str(),
                   f);
        std::fclose(f);
        ScenarioSpec spec;
        error.clear();
        EXPECT_FALSE(loadScenarioSpec(path, spec, error)) << key;
        EXPECT_NE(error.find(key), std::string::npos) << error;
        std::remove(path.c_str());
    }
}

TEST(ScenarioConfig, UnknownKeysAndBadValuesAreHardErrors)
{
    core::EdmConfig cfg;
    std::string error;
    EXPECT_FALSE(applyEdmConfigKey(cfg, "max_trian_blocks", "4", error));
    EXPECT_NE(error.find("max_trian_blocks"), std::string::npos);
    error.clear();
    EXPECT_FALSE(applyEdmConfigKey(cfg, "num_nodes", "lots", error));
    error.clear();
    EXPECT_FALSE(applyEdmConfigKey(cfg, "priority", "fifo", error));
}

TEST(ScenarioSpecTest, UnknownKeysRejectedEverywhere)
{
    const std::string base = "[scenario]\nname = x\nkind = incast\n"
                             "[sweep]\nn_to_1 = 2\n";
    ScenarioDoc doc;
    ScenarioSpec spec;
    std::string error;
    // Parseable but not loadable: bogus keys in each section kind.
    for (const char *bad :
         {"[scenario]\nname = x\nkind = incast\nchains = 6\n"
          "[sweep]\nn_to_1 = 2\n",
          "[scenario]\nname = x\nkind = incast\n"
          "[sweep]\nn_to_1 = 2\nincast = 3\n",
          "[scenario]\nname = x\nkind = incast\n[sweep]\nn_to_1 = 2\n"
          "[config]\nstrict = true\n",
          "[scenario]\nname = x\nkind = incast\n[sweep]\nn_to_1 = 2\n"
          "[mode m]\nwire_charged = true\n"}) {
        ASSERT_TRUE(parseScenarioText(bad, doc, error)) << error;
        // Write the text to a temp file and load it as a spec.
        const std::string path =
            std::string(::testing::TempDir()) + "bad.edm";
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(bad, f);
        std::fclose(f);
        error.clear();
        EXPECT_FALSE(loadScenarioSpec(path, spec, error)) << bad;
        std::remove(path.c_str());
    }
    // Sanity: the minimal valid scenario does load.
    const std::string path = std::string(::testing::TempDir()) + "ok.edm";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(base.c_str(), f);
    std::fclose(f);
    error.clear();
    EXPECT_TRUE(loadScenarioSpec(path, spec, error)) << error;
    std::remove(path.c_str());
}

TEST(ScenarioSpecTest, LoadsShippedIncastScenario)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadScenarioSpec(EDM_SOURCE_DIR "/scenarios/incast.edm",
                                 spec, error))
        << error;
    EXPECT_EQ(spec.name, "incast");
    EXPECT_EQ(spec.kind, "incast");
    EXPECT_EQ(spec.base_seed, 7u);
    EXPECT_EQ(spec.rounds, 20);
    EXPECT_EQ(spec.workload.chains_per_node, 6);
    EXPECT_EQ(spec.workload.read_bytes, 900u);
    EXPECT_EQ(spec.workload.write_bytes, 700u);
    ASSERT_EQ(spec.n_to_1.size(), 3u);
    EXPECT_EQ(spec.n_to_1[1], 9u);
    ASSERT_EQ(spec.all_to_all.size(), 2u);
    ASSERT_EQ(spec.quick_n_to_1.size(), 1u);
    EXPECT_EQ(spec.quick_n_to_1[0], 9u);

    // The two modes mirror examples/incast_stress.cpp exactly.
    ASSERT_EQ(spec.modes.size(), 2u);
    EXPECT_EQ(spec.modes[0].name, "base");
    EXPECT_EQ(spec.modes[1].name, "wire");
    EXPECT_FALSE(spec.configFor(spec.modes[0]).wire_charged_occupancy);
    EXPECT_TRUE(spec.configFor(spec.modes[1]).wire_charged_occupancy);
}

TEST(ScenarioSpecTest, LoadsShippedInterferenceScenario)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadScenarioSpec(
        EDM_SOURCE_DIR "/scenarios/interference.edm", spec, error))
        << error;
    EXPECT_EQ(spec.kind, "interference");
    EXPECT_EQ(spec.base_seed, 5u);
    EXPECT_EQ(spec.interference.nodes, 2u);
    EXPECT_EQ(spec.interference.memory_node, 1);
    EXPECT_DOUBLE_EQ(spec.interference.link_gbps, 25.0);
    EXPECT_EQ(spec.interference.read_bytes, 64u);
    EXPECT_EQ(spec.interference.frame_payload, 8900u);
    EXPECT_EQ(spec.max_frames, 8);
}

/** Run one incast point under @p cfg and return its metrics. */
ScenarioResult
runOnePoint(const core::EdmConfig &cfg, std::uint64_t base_seed)
{
    ScenarioRunner::Options opts;
    opts.base_seed = base_seed;
    opts.threads = 1;
    ScenarioRunner runner(opts);
    runner.add("point", [&cfg](ScenarioContext &ctx) {
        runIncastPoint(ctx, IncastPoint{"N-to-1", 9}, IncastWorkload{}, 5,
                       cfg);
    });
    return runner.runAll().front();
}

TEST(ScenarioSpecTest, ParsedSpecReproducesHandBuiltConfigExactly)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadScenarioSpec(EDM_SOURCE_DIR "/scenarios/incast.edm",
                                 spec, error))
        << error;
    ASSERT_EQ(spec.modes.size(), 2u);

    // Hand-built configs exactly as examples/incast_stress.cpp sets them.
    const core::EdmConfig base_cfg;
    core::EdmConfig wire_cfg;
    wire_cfg.wire_charged_occupancy = true;

    const struct
    {
        const core::EdmConfig *hand;
        const ScenarioModeSpec *mode;
    } pairs[] = {{&base_cfg, &spec.modes[0]}, {&wire_cfg, &spec.modes[1]}};
    for (const auto &pair : pairs) {
        const ScenarioResult hand =
            runOnePoint(*pair.hand, spec.base_seed);
        const ScenarioResult parsed =
            runOnePoint(spec.configFor(*pair.mode), spec.base_seed);
        ASSERT_EQ(hand.metrics.size(), parsed.metrics.size());
        for (const auto &kv : hand.metrics) {
            const auto it = parsed.metrics.find(kv.first);
            ASSERT_NE(it, parsed.metrics.end()) << kv.first;
            EXPECT_EQ(kv.second.raw(), it->second.raw())
                << pair.mode->name << " metric " << kv.first;
        }
    }
}

TEST(ScenarioConfig, AppliesFaultRecoveryKeys)
{
    core::EdmConfig cfg;
    std::string error;
    EXPECT_TRUE(
        applyEdmConfigKey(cfg, "link_error_threshold", "8", error))
        << error;
    EXPECT_TRUE(applyEdmConfigKey(cfg, "read_retry_limit", "5", error));
    EXPECT_TRUE(
        applyEdmConfigKey(cfg, "read_retry_base_ns", "5000", error));
    EXPECT_EQ(cfg.link_error_threshold, 8u);
    EXPECT_EQ(cfg.read_retry_limit, 5);
    EXPECT_EQ(cfg.read_retry_base, 5000 * kNanosecond);

    // A zero threshold would disable the link on the first healthy
    // block; a zero backoff base would retry in a busy loop.
    EXPECT_FALSE(
        applyEdmConfigKey(cfg, "link_error_threshold", "0", error));
    EXPECT_FALSE(
        applyEdmConfigKey(cfg, "read_retry_base_ns", "0", error));
    // retry_limit = 0 is the legacy bit-exact default: valid.
    EXPECT_TRUE(applyEdmConfigKey(cfg, "read_retry_limit", "0", error));
}

TEST(ScenarioSpecTest, LoadsShippedFailureStormScenario)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadScenarioSpec(
        EDM_SOURCE_DIR "/scenarios/failure_storm.edm", spec, error))
        << error;
    EXPECT_EQ(spec.name, "failure_storm");
    EXPECT_EQ(spec.kind, "incast");
    EXPECT_EQ(spec.workload.write_bytes, 0u); // all-reads: retryable

    ASSERT_TRUE(spec.faults.active);
    EXPECT_EQ(spec.faults.storm_at, 4000 * kNanosecond);
    ASSERT_EQ(spec.faults.storm_nodes.size(), 3u);
    EXPECT_EQ(spec.faults.storm_nodes[0], 0u);
    EXPECT_EQ(spec.faults.storm_nodes[1], 2u);
    EXPECT_EQ(spec.faults.storm_nodes[2], 3u);
    EXPECT_EQ(spec.faults.storm_blocks, 8);
    EXPECT_EQ(spec.faults.storm_jitter, 500 * kNanosecond);
    EXPECT_EQ(spec.faults.storm_seed, 42u);
    EXPECT_EQ(spec.faults.repair_after, 6000 * kNanosecond);

    // Retry/backoff knobs ride in [config] and land on every mode; the
    // modes differ only in the port charge.
    ASSERT_EQ(spec.modes.size(), 2u);
    EXPECT_EQ(spec.modes[0].name, "base");
    EXPECT_EQ(spec.modes[1].name, "wire");
    for (const ScenarioModeSpec &mode : spec.modes) {
        const core::EdmConfig cfg = spec.configFor(mode);
        EXPECT_EQ(cfg.read_retry_limit, 5);
        EXPECT_EQ(cfg.link_error_threshold, 8u);
        EXPECT_GT(cfg.read_timeout, 0);
        EXPECT_EQ(cfg.wire_charged_occupancy, mode.name == "wire");
    }

    // A scenario with no [faults] section stays inactive.
    ScenarioSpec plain;
    ASSERT_TRUE(loadScenarioSpec(EDM_SOURCE_DIR "/scenarios/incast.edm",
                                 plain, error))
        << error;
    EXPECT_FALSE(plain.faults.active);
}

TEST(ScenarioSpecTest, UnknownFaultKeysAreHardErrors)
{
    const char *bad = "[scenario]\nname = x\nkind = incast\n"
                      "[sweep]\nn_to_1 = 2\n"
                      "[faults]\nstorm_att_ns = 4000\n";
    const std::string path =
        std::string(::testing::TempDir()) + "badfaults.edm";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(bad, f);
    std::fclose(f);
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(loadScenarioSpec(path, spec, error));
    EXPECT_NE(error.find("faults"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(ScenarioSpecTest, TopologySectionParsesAndReachesConfig)
{
    const char *text = "[scenario]\nname = ls\nkind = incast\n"
                       "[sweep]\nn_to_1 = 9\n"
                       "[topology]\n"
                       "tiers = leaf_spine\n"
                       "hosts_per_leaf = 4\n"
                       "trunk_width = 2\n"
                       "ecmp_seed = 7\n";
    const std::string path =
        std::string(::testing::TempDir()) + "topo.edm";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadScenarioSpec(path, spec, error)) << error;
    std::remove(path.c_str());
    EXPECT_EQ(spec.topology.tiers, core::TopologySpec::Tiers::LeafSpine);
    EXPECT_EQ(spec.topology.hosts_per_leaf, 4u);
    EXPECT_EQ(spec.topology.trunk_width, 2u);
    EXPECT_EQ(spec.topology.ecmp_seed, 7u);
    // configFor() carries the wiring into every mode's EdmConfig.
    ASSERT_FALSE(spec.modes.empty());
    const core::EdmConfig cfg = spec.configFor(spec.modes.front());
    EXPECT_EQ(cfg.topology.tiers, core::TopologySpec::Tiers::LeafSpine);
    EXPECT_EQ(cfg.topology.hosts_per_leaf, 4u);
    EXPECT_EQ(cfg.topology.trunk_width, 2u);
    EXPECT_EQ(cfg.topology.ecmp_seed, 7u);
}

TEST(ScenarioSpecTest, TopologySectionDefaultsToSingleSwitch)
{
    const char *text = "[scenario]\nname = x\nkind = incast\n"
                       "[sweep]\nn_to_1 = 2\n";
    const std::string path =
        std::string(::testing::TempDir()) + "notopo.edm";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadScenarioSpec(path, spec, error)) << error;
    std::remove(path.c_str());
    EXPECT_EQ(spec.topology.tiers, core::TopologySpec::Tiers::Single);
    const core::EdmConfig cfg = spec.configFor(spec.modes.front());
    EXPECT_EQ(cfg.topology.tiers, core::TopologySpec::Tiers::Single);
}

TEST(ScenarioSpecTest, BadTopologySectionsAreHardErrors)
{
    const char *bads[] = {
        // Unknown key.
        "[scenario]\nname = x\nkind = incast\n[sweep]\nn_to_1 = 2\n"
        "[topology]\ntiers = leaf_spine\nhosts_per_leaf = 4\nwidth = 2\n",
        // Bogus tiers value.
        "[scenario]\nname = x\nkind = incast\n[sweep]\nn_to_1 = 2\n"
        "[topology]\ntiers = fat_tree\n",
        // leaf_spine without hosts_per_leaf.
        "[scenario]\nname = x\nkind = incast\n[sweep]\nn_to_1 = 2\n"
        "[topology]\ntiers = leaf_spine\n",
        // trunk_width < 1.
        "[scenario]\nname = x\nkind = incast\n[sweep]\nn_to_1 = 2\n"
        "[topology]\ntiers = leaf_spine\nhosts_per_leaf = 4\n"
        "trunk_width = 0\n",
    };
    for (const char *bad : bads) {
        const std::string path =
            std::string(::testing::TempDir()) + "badtopo.edm";
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs(bad, f);
        std::fclose(f);
        ScenarioSpec spec;
        std::string error;
        EXPECT_FALSE(loadScenarioSpec(path, spec, error)) << bad;
        EXPECT_NE(error.find("topology"), std::string::npos) << error;
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace edm
