/**
 * @file
 * Scenario-file tests: the key/value parser, EdmConfig key application
 * (unknown keys, repeated keys, and keys or sections the loader never
 * reads are hard errors), loading the shipped scenario files, and that
 * rows run from scenarios/incast.edm and scenarios/cluster_sweep.edm
 * match the same configs and points built by hand, bit for bit.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

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

/** loadScenarioSpec on @p text, through a temporary file. */
bool
loadSpecText(const std::string &text, ScenarioSpec &spec,
             std::string &error)
{
    const std::string path =
        std::string(::testing::TempDir()) + "spec_text.edm";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        ADD_FAILURE() << "cannot write " << path;
        return false;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
    const bool ok = loadScenarioSpec(path, spec, error);
    std::remove(path.c_str());
    return ok;
}

TEST(ScenarioParser, SectionsKeysCommentsAndTypes)
{
    const ScenarioDoc doc = parseOk("# leading comment\n"
                                    "[scenario]\n"
                                    "name = incast  # trailing comment\n"
                                    "rounds = 20\n"
                                    "flag = true\n"
                                    "\n"
                                    "[sweep]\n"
                                    "n_to_1 = 5, 9, 13\n");
    ASSERT_EQ(doc.sections.size(), 2u);
    const ScenarioSection *sc = doc.section("scenario");
    ASSERT_NE(sc, nullptr);
    std::string error;
    EXPECT_EQ(sc->getString("name", ""), "incast");
    EXPECT_EQ(sc->getString("flag", ""), "true");
    long rounds = -1;
    EXPECT_TRUE(sc->getInt("rounds", rounds, error)) << error;
    EXPECT_EQ(rounds, 20);
    long absent = 42;
    EXPECT_TRUE(sc->getInt("absent", absent, error)) << error;
    EXPECT_EQ(absent, 42);
    const ScenarioSection *sw = doc.section("sweep");
    ASSERT_NE(sw, nullptr);
    std::vector<std::size_t> list;
    EXPECT_TRUE(sw->getSizeList("n_to_1", list, error)) << error;
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[0], 5u);
    EXPECT_EQ(list[1], 9u);
    EXPECT_EQ(list[2], 13u);

    // A value that does not parse or is out of range fails, naming the
    // section, the key and the value.
    EXPECT_FALSE(sc->getInt("name", rounds, error));
    EXPECT_EQ(error, "bad value 'incast' for [scenario] key 'name' (want "
                     "an integer)");
    EXPECT_FALSE(sc->getInt("rounds", rounds, error, 1, 10));
    EXPECT_EQ(error, "bad value '20' for [scenario] key 'rounds' (want "
                     "an integer in [1, 10])");
    EXPECT_EQ(rounds, 20);
    EXPECT_FALSE(sw->getSizeList("n_to_1", list, error, 6));
    EXPECT_EQ(error, "bad value '5, 9, 13' for [sweep] key 'n_to_1' "
                     "(want integers >= 6)");
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
    EXPECT_TRUE(applyEdmConfigKey(cfg, "link_gbps", "25", error)) << error;
    EXPECT_TRUE(applyEdmConfigKey(cfg, "priority", "srpt", error));
    EXPECT_TRUE(
        applyEdmConfigKey(cfg, "wire_charged_occupancy", "true", error));
    EXPECT_TRUE(applyEdmConfigKey(cfg, "max_train_blocks", "4", error));
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

        ScenarioSpec spec;
        error.clear();
        EXPECT_FALSE(loadSpecText("[scenario]\nname = x\nkind = incast\n"
                                  "[sweep]\nn_to_1 = 2\n[mode par2]\n" +
                                      key + " = 2\n",
                                  spec, error))
            << key;
        EXPECT_NE(error.find(key), std::string::npos) << error;
    }
}

TEST(ScenarioConfig, UnknownKeysAndBadValuesAreHardErrors)
{
    core::EdmConfig cfg;
    std::string error;
    EXPECT_FALSE(applyEdmConfigKey(cfg, "max_trian_blocks", "4", error));
    EXPECT_NE(error.find("max_trian_blocks"), std::string::npos);
    error.clear();
    EXPECT_FALSE(applyEdmConfigKey(cfg, "chunk_bytes", "lots", error));
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
    // Parseable but not loadable: bogus keys in each section kind, and
    // malformed or out-of-range numbers, which must never fall back to
    // a default or reach the fabric. The error names the key and value.
    const char *interference = "[scenario]\nname = x\nkind = interference\n";
    // An incast [scenario] section ending in @p line, then a sweep.
    const auto incast = [](const char *line) {
        return std::string("[scenario]\nname = x\nkind = incast\n") +
            line + "[sweep]\nn_to_1 = 2\n";
    };
    // A flow [scenario] section ending in @p line, then a [sweep] of
    // @p sweep.
    const auto flow = [](const char *line,
                         const char *sweep = "fabrics = EDM\nloads = 0.5\n") {
        return std::string("[scenario]\nname = x\nkind = flow\n") + line +
            "[sweep]\n" + sweep;
    };
    const struct
    {
        std::string text;
        const char *key;
        const char *value;
    } bads[] = {
        {"[scenario]\nname = x\nkind = incast\nchains = 6\n"
         "[sweep]\nn_to_1 = 2\n",
         "chains", ""},
        {"[scenario]\nname = x\nkind = incast\n"
         "[sweep]\nn_to_1 = 2\nincast = 3\n",
         "incast", ""},
        {base + "[config]\nstrict = true\n", "strict", ""},
        {base + "[mode m]\nwire_charged = true\n", "wire_charged", ""},
        {"[scenario]\nname = x\nkind = incast\nrounds = 2O\n"
         "[sweep]\nn_to_1 = 2\n",
         "rounds", "2O"},
        {"[scenario]\nname = x\nkind = incast\n"
         "[sweep]\nn_to_1 = 3, x, -4\n",
         "n_to_1", "3, x, -4"},
        {"[scenario]\nname = x\nkind = incast\nrounds = 6\n"
         "write_bytes = -1\n[sweep]\nn_to_1 = 2\n",
         "write_bytes", "-1"},
        {"[scenario]\nname = x\nkind = incast\nread_bytes = 0\n"
         "[sweep]\nn_to_1 = 2\n",
         "read_bytes", "0"},
        {"[scenario]\nname = x\nkind = incast\n[sweep]\nn_to_1 = 1\n",
         "n_to_1", "1"},
        {"[scenario]\nname = x\nkind = incast\n"
         "[sweep]\nn_to_1 = 9\nquick_all_to_all = 1\n",
         "quick_all_to_all", "1"},
        {base + "[faults]\nstorm_blocks = lots\n", "storm_blocks", "lots"},
        {"[scenario]\nname = x\nkind = incast\n"
         "[sweep]\nn_to_1 = 9\nquick_n_to_1 = 3\n"
         "[faults]\nstorm_nodes = 1, 5\n",
         "storm_nodes", "1, 5"},
        {std::string(interference) + "nodes = 1\n", "nodes", "1"},
        {std::string(interference) + "nodes = 2\nmemory_node = 7\n",
         "memory_node", "7"},
        {std::string(interference) + "[config]\nlink_gbps = fast\n",
         "link_gbps", "fast"},
        // Decimal only: a hex spelling is not a number.
        {incast("rounds = 0x14\n"), "rounds", "0x14"},
        {std::string(interference) + "max_frames = -1\n", "max_frames",
         "-1"},
        {std::string(interference) + "frame_payload = -8900\n",
         "frame_payload", "-8900"},
        // Keys only the other kind reads, with values that kind takes:
        // they would be dropped unread.
        {std::string(interference) + "rounds = 3\n", "rounds", ""},
        {std::string(interference) + "chains_per_node = 2\n",
         "chains_per_node", ""},
        {std::string(interference) + "write_bytes = 100\n", "write_bytes",
         ""},
        {incast("nodes = 5\n"), "nodes", ""},
        {incast("memory_node = 1\n"), "memory_node", ""},
        {incast("link_gbps = 100\n"), "link_gbps", ""},
        {incast("frame_payload = 100\n"), "frame_payload", ""},
        {incast("max_frames = 3\n"), "max_frames", ""},
        // Keys nothing reads: the sweep point or `nodes` sizes the
        // fabric, the cycle fabric draws no random numbers, and the
        // interference link rate lives in [config].
        {base + "[config]\nnum_nodes = 7\n", "num_nodes", ""},
        {base + "[mode m]\nnum_nodes = 3\n", "num_nodes", ""},
        {incast("base_seed = 7\n"), "base_seed", ""},
        {std::string(interference) + "link_gbps = 100\n", "link_gbps", ""},
        // Fractions are decimal too: no sign, hex float or infinity.
        {std::string(interference) + "[config]\nlink_gbps = +25\n",
         "link_gbps", "+25"},
        {std::string(interference) + "[config]\nlink_gbps = 0x19\n",
         "link_gbps", "0x19"},
        {base + "[config]\nscheduler_ghz = 0x1p-1\n", "scheduler_ghz",
         "0x1p-1"},
        {base + "[tenants]\npools = a\na.hosts = 0\na.weight = 0x1p1\n",
         "a.weight", "0x1p1"},
        // A list holds no empty value and no empty item: an empty
        // storm_nodes would storm every sender, and a trailing comma
        // would drop nothing silently.
        {base + "[faults]\nstorm_nodes =\n", "storm_nodes", ""},
        {base + "[tenants]\npools = bulk, ls,\nbulk.hosts = 0\n"
                "ls.hosts = 1\n",
         "pools", "bulk, ls,"},
        {"[scenario]\nname = x\nkind = incast\n[sweep]\nn_to_1 = 3,\n",
         "n_to_1", "3,"},
        {"[scenario]\nname = x\nkind = incast\n"
         "[sweep]\nn_to_1 = 2\nall_to_all =\n",
         "all_to_all", ""},
        // kind = flow reads wire_charged_occupancy in [config] and
        // [mode], `messages` and its two lists, nothing else: no other
        // key has a value in use, and the §4.3.1 sweep is writes only.
        {flow("") + "[config]\nmax_train_blocks = 4\n", "max_train_blocks",
         ""},
        {flow("") + "[config]\nchunk_bytes = 128\n", "chunk_bytes", ""},
        {flow("") + "[mode m]\nlink_gbps = 25\n", "link_gbps", ""},
        {flow("") + "[mode m]\npriority = fcfs\n", "priority", ""},
        {flow("") + "[mode m]\nscheduler_ghz = 1\n", "scheduler_ghz", ""},
        {flow("rounds = 3\n"), "rounds", ""},
        {flow("", "fabrics = EDM\nloads = 0.5\nn_to_1 = 2\n"), "n_to_1",
         ""},
        {flow("", "fabrics = EDM, RoCE\nloads = 0.5\n"), "fabrics",
         "EDM, RoCE"},
        {flow("", "fabrics = EDM,\nloads = 0.5\n"), "fabrics", "EDM,"},
        {flow("", "fabrics = EDM\nloads = 0\n"), "loads", "0"},
        {flow("", "fabrics = EDM\nloads = 0.5, 1.5\n"), "loads",
         "0.5, 1.5"},
        {flow("", "fabrics = EDM\nloads = 0x0.8p0\n"), "loads",
         "0x0.8p0"},
        {flow("write_fraction = 1\n"), "write_fraction", ""},
        {flow("messages = 0\n"), "messages", "0"},
        {flow("", "fabrics = EDM\n"), "loads", ""},
        {flow("", "loads = 0.5\n"), "fabrics", ""},
    };
    for (const auto &bad : bads) {
        ASSERT_TRUE(parseScenarioText(bad.text, doc, error)) << error;
        error.clear();
        EXPECT_FALSE(loadSpecText(bad.text, spec, error)) << bad.text;
        EXPECT_NE(error.find(std::string("'") + bad.key + "'"),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find(std::string("'") + bad.value), std::string::npos)
            << error;
    }
    // Sanity: the minimal valid scenario does load, and a leading zero
    // does not make a number octal.
    error.clear();
    EXPECT_TRUE(loadSpecText(base, spec, error)) << error;
    ASSERT_TRUE(loadSpecText(incast("rounds = 010\n"), spec, error))
        << error;
    EXPECT_EQ(spec.rounds, 10);
    ASSERT_TRUE(loadSpecText(flow("messages = 7\n"), spec, error))
        << error;
    EXPECT_EQ(spec.messages, 7u);
}

TEST(ScenarioSpecTest, ValuesTheSimulatorCannotHoldAreRejected)
{
    // Each of these once loaded and then overflowed the picosecond
    // clock, shifted past 63 bits, tripped an assertion, or ran with
    // another value than the file's. Durations stay within 2^50 ps,
    // counts within int, and rates keep every delay finite. The error
    // names the key and the value.
    const std::string base = "[scenario]\nname = x\nkind = incast\n"
                             "[sweep]\nn_to_1 = 3\n";
    const std::string big = "9223372036854775807";
    const struct
    {
        std::string text;
        const char *key;
        std::string value;
    } bads[] = {
        {base + "[config]\nread_timeout_ns = " + big + "\n",
         "read_timeout_ns", big},
        {base + "[config]\nread_retry_base_ns = " + big + "\n",
         "read_retry_base_ns", big},
        {base + "[config]\nl2_pipeline_ns = " + big + "\n",
         "l2_pipeline_ns", big},
        {base + "[config]\nfair_share = true\nfair_share_window_ns = " +
             big + "\n",
         "fair_share_window_ns", big},
        // Each within the old nanosecond bound, their sum not.
        {base + "[faults]\nstorm_at_ns = 9223372036854775\n"
                "storm_jitter_ns = 9223372036854775\nstorm_nodes = 0\n"
                "storm_blocks = 4\n",
         "storm_at_ns", "9223372036854775"},
        // 1 ns doubled 79 times.
        {base + "[config]\nread_timeout_ns = 1000\nread_retry_limit = 80\n"
                "read_retry_base_ns = 1\n",
         "read_retry_limit", "80"},
        {base + "[config]\nmax_notifications = " + big + "\n",
         "max_notifications", big},
        {base + "[config]\nmax_notifications = 4294967297\n",
         "max_notifications", "4294967297"},
        {base + "[config]\nread_retry_limit = 4294967295\n",
         "read_retry_limit", "4294967295"},
        {base + "[config]\nlink_gbps = 1e-300\n", "link_gbps", "1e-300"},
        {base + "[config]\nscheduler_ghz = 1e-300\n", "scheduler_ghz",
         "1e-300"},
    };
    ScenarioSpec spec;
    std::string error;
    for (const auto &bad : bads) {
        error.clear();
        EXPECT_FALSE(loadSpecText(bad.text, spec, error)) << bad.text;
        EXPECT_NE(error.find(std::string("'") + bad.key + "'"),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find("'" + bad.value + "'"), std::string::npos)
            << error;
    }
    // The bounds themselves load.
    error.clear();
    EXPECT_TRUE(loadSpecText(base + "[config]\nread_timeout_ns = 1000\n"
                                    "read_retry_limit = 41\n"
                                    "read_retry_base_ns = 1\n"
                                    "max_notifications = 2147483647\n"
                                    "l2_pipeline_ns = 1125899906842\n"
                                    "link_gbps = 0.001\n",
                             spec, error))
        << error;
}

TEST(ScenarioSpecTest, SectionsTheLoaderNeverReadsAreRejected)
{
    // A section the loader never reads would be dropped: an unknown or
    // misspelt one, a repeat (only the first is read), and for an
    // interference scenario, which runs one fabric per frame count
    // under a single mode, a sweep, a fault campaign or a second mode.
    // The error names the section's header line. A key repeated in one
    // section fails to parse, naming its line and the key.
    const std::string incast =
        "[scenario]\nname = x\nkind = incast\n[sweep]\nn_to_1 = 2\n";
    const std::string interference =
        "[scenario]\nname = x\nkind = interference\n";
    const std::string flow = "[scenario]\nname = x\nkind = flow\n"
                             "[sweep]\nfabrics = EDM\nloads = 0.5\n";
    const struct
    {
        std::string text;
        const char *needle;
    } bads[] = {
        {incast + "[bogus]\nfoo = 1\n", "line 6: section [bogus]"},
        {incast + "[sweep]\nn_to_1 = 99\n", "line 6: section [sweep]"},
        {incast + "[scenario]\nrounds = 99\n", "line 6: section [scenario]"},
        {incast + "[modes]\nwire_charged_occupancy = true\n",
         "line 6: section [modes]"},
        {incast + "[model]\nwire_charged_occupancy = true\n",
         "line 6: section [model]"},
        {"[scenario]\nname = x\nkind = incast\nrounds = 3\nrounds = 4\n"
         "[sweep]\nn_to_1 = 2\n",
         "line 5: key 'rounds' repeated in [scenario]"},
        {interference + "[sweep]\nn_to_1 = 99\n", "line 4: section [sweep]"},
        {interference + "[faults]\nstorm_at_ns = 0\nstorm_nodes = 0, 1\n",
         "line 4: section [faults]"},
        {interference + "[mode a]\n[mode b]\nwire_charged_occupancy = true\n",
         "line 5: section [mode b]"},
        // A flow scenario builds no cycle fabric.
        {flow + "[topology]\ntiers = single\n", "line 7: section [topology]"},
        {flow + "[tenants]\npools = a\na.hosts = 0\n",
         "line 7: section [tenants]"},
        {flow + "[faults]\nstorm_at_ns = 0\n", "line 7: section [faults]"},
        // Two modes with one name would print two rows with one label.
        {incast + "[mode a]\n[mode a]\nwire_charged_occupancy = true\n",
         "line 7: [mode a] repeats the mode name 'a'"},
        {flow + "[mode a]\nwire_charged_occupancy = true\n[mode  a]\n",
         "line 9: [mode  a] repeats the mode name 'a'"},
    };
    ScenarioSpec spec;
    std::string error;
    for (const auto &bad : bads) {
        error.clear();
        EXPECT_FALSE(loadSpecText(bad.text, spec, error)) << bad.text;
        EXPECT_NE(error.find(bad.needle), std::string::npos) << error;
    }
    // One mode is read: it overlays every frame count's config.
    ASSERT_TRUE(loadSpecText(
        interference + "[mode a]\nwire_charged_occupancy = true\n", spec,
        error))
        << error;
    ASSERT_EQ(spec.modes.size(), 1u);
    EXPECT_TRUE(spec.modes.front().cfg.wire_charged_occupancy);
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
    EXPECT_EQ(spec.rounds, 20);
    EXPECT_EQ(spec.workload.chains_per_node, 6);
    EXPECT_EQ(spec.workload.read_bytes, 900u);
    EXPECT_EQ(spec.workload.write_bytes, 700u);
    ASSERT_EQ(spec.n_to_1.size(), 3u);
    EXPECT_EQ(spec.n_to_1[1], 9u);
    ASSERT_EQ(spec.all_to_all.size(), 2u);
    ASSERT_EQ(spec.quick_n_to_1.size(), 1u);
    EXPECT_EQ(spec.quick_n_to_1[0], 9u);

    // Two modes that differ only in the port charge.
    ASSERT_EQ(spec.modes.size(), 2u);
    EXPECT_EQ(spec.modes[0].name, "base");
    EXPECT_EQ(spec.modes[1].name, "wire");
    EXPECT_FALSE(spec.modes[0].cfg.wire_charged_occupancy);
    EXPECT_TRUE(spec.modes[1].cfg.wire_charged_occupancy);
}

TEST(ScenarioSpecTest, LoadsShippedFlowScenario)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadScenarioSpec(
        EDM_SOURCE_DIR "/scenarios/cluster_sweep.edm", spec, error))
        << error;
    EXPECT_EQ(spec.kind, "flow");
    const std::vector<FlowFabric> fabrics = {
        FlowFabric::Edm, FlowFabric::Dctcp, FlowFabric::Cxl};
    const std::vector<double> loads = {0.05, 0.11, 0.17, 0.23, 0.29, 0.35,
                                       0.41, 0.47, 0.53, 0.59, 0.65, 0.71,
                                       0.77, 0.83, 0.89, 0.95};
    EXPECT_EQ(spec.fabrics, fabrics);
    EXPECT_EQ(spec.loads, loads);
    EXPECT_EQ(spec.messages, 20000u);
    ASSERT_EQ(spec.modes.size(), 1u);
    EXPECT_EQ(spec.modes[0].name, "base");

    // The file's rows equal runFlowPoints on the same points built by
    // hand, fabric-major, bit for bit (scale 0.01: 200 messages each).
    std::vector<FlowPoint> hand;
    for (const FlowFabric f : fabrics)
        for (const double load : loads) {
            FlowPoint p;
            p.fabric = f;
            p.load = load;
            p.messages = 20000;
            hand.push_back(p);
        }
    const std::vector<FlowResult> want = runFlowPoints(hand, 0.01);
    const std::vector<FlowRow> rows = runFlowScenario(spec, 0.01, nullptr, 0);
    ASSERT_EQ(rows.size(), want.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].point.fabric, hand[i].fabric) << i;
        EXPECT_EQ(rows[i].point.load, hand[i].load) << i;
        EXPECT_EQ(rows[i].point.write_fraction, 1.0) << i;
        EXPECT_EQ(rows[i].mode, "base") << i;
        EXPECT_EQ(rows[i].result.completed, 200u) << i;
        EXPECT_EQ(rows[i].result.completed, want[i].completed) << i;
        EXPECT_EQ(rows[i].result.norm_mean, want[i].norm_mean) << i;
        EXPECT_EQ(rows[i].result.norm_p99, want[i].norm_p99) << i;
        EXPECT_EQ(rows[i].result.mean_ns, want[i].mean_ns) << i;
    }
}

TEST(ScenarioSpecTest, FlowModesSetTheEdmModelConfig)
{
    // [config] and each mode's wire_charged_occupancy reach every
    // point's proto::EdmModelConfig, modes innermost.
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadSpecText("[scenario]\nname = x\nkind = flow\n"
                             "messages = 100\n"
                             "[sweep]\nfabrics = EDM, CXL\nloads = 0.3\n"
                             "[config]\nwire_charged_occupancy = true\n"
                             "[mode wire]\n"
                             "[mode base]\nwire_charged_occupancy = false\n",
                             spec, error))
        << error;
    const std::vector<FlowRow> rows = runFlowScenario(spec, 1.0, nullptr, 1);
    ASSERT_EQ(rows.size(), 4u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const FlowPoint &p = rows[i].point;
        EXPECT_EQ(p.fabric, i < 2 ? FlowFabric::Edm : FlowFabric::Cxl);
        EXPECT_EQ(p.messages, 100u);
        const bool wire = i % 2 == 0;
        EXPECT_EQ(rows[i].mode, wire ? "wire" : "base");
        EXPECT_EQ(p.edm.wire_charged_occupancy, wire);
        EXPECT_EQ(rows[i].result.completed, 100u);
    }
}

TEST(ScenarioSpecTest, FlowPointsRunAtLeastOneMessage)
{
    // A scale that rounds a point's count down to 0 still runs one
    // message, as incastRounds keeps one round: an empty point would
    // print a row of zeros.
    EXPECT_EQ(flowMessages(20000, 1e-9), 1u);
    EXPECT_EQ(flowMessages(20000, 0.2), 4000u);
    FlowPoint p;
    p.messages = 20000;
    const std::vector<FlowResult> r = runFlowPoints({p}, 1e-9, 1);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].completed, 1u);
    EXPECT_GT(r[0].norm_mean, 0.0);
}

TEST(ScenarioSpecTest, LoadsShippedInterferenceScenario)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadScenarioSpec(
        EDM_SOURCE_DIR "/scenarios/interference.edm", spec, error))
        << error;
    EXPECT_EQ(spec.kind, "interference");
    EXPECT_EQ(spec.interference.nodes, 2u);
    EXPECT_EQ(spec.interference.memory_node, 1);
    ASSERT_EQ(spec.modes.size(), 1u);
    EXPECT_DOUBLE_EQ(spec.modes.front().cfg.link_rate.value, 25.0);
    EXPECT_EQ(spec.interference.read_bytes, 64u);
    EXPECT_EQ(spec.interference.frame_payload, 8900u);
    EXPECT_EQ(spec.max_frames, 8);
}

/** Run one incast point under @p cfg and return its metrics. */
ScenarioResult
runOnePoint(const core::EdmConfig &cfg)
{
    ScenarioRunner runner(1);
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

    // Hand-built configs: the default EdmConfig and its wire-charged
    // twin.
    const core::EdmConfig base_cfg;
    core::EdmConfig wire_cfg;
    wire_cfg.wire_charged_occupancy = true;

    const struct
    {
        const core::EdmConfig *hand;
        const ScenarioModeSpec *mode;
    } pairs[] = {{&base_cfg, &spec.modes[0]}, {&wire_cfg, &spec.modes[1]}};
    for (const auto &pair : pairs) {
        const ScenarioResult hand = runOnePoint(*pair.hand);
        const ScenarioResult parsed = runOnePoint(pair.mode->cfg);
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
        const core::EdmConfig &cfg = mode.cfg;
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
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(loadSpecText(bad, spec, error));
    EXPECT_NE(error.find("faults"), std::string::npos) << error;
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
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadSpecText(text, spec, error)) << error;
    EXPECT_EQ(spec.topology.tiers, core::TopologySpec::Tiers::LeafSpine);
    EXPECT_EQ(spec.topology.hosts_per_leaf, 4u);
    EXPECT_EQ(spec.topology.trunk_width, 2u);
    EXPECT_EQ(spec.topology.ecmp_seed, 7u);
    // Every mode's EdmConfig carries the wiring.
    ASSERT_FALSE(spec.modes.empty());
    const core::EdmConfig &cfg = spec.modes.front().cfg;
    EXPECT_EQ(cfg.topology.tiers, core::TopologySpec::Tiers::LeafSpine);
    EXPECT_EQ(cfg.topology.hosts_per_leaf, 4u);
    EXPECT_EQ(cfg.topology.trunk_width, 2u);
    EXPECT_EQ(cfg.topology.ecmp_seed, 7u);
}

TEST(ScenarioSpecTest, TopologySectionDefaultsToSingleSwitch)
{
    const char *text = "[scenario]\nname = x\nkind = incast\n"
                       "[sweep]\nn_to_1 = 2\n";
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(loadSpecText(text, spec, error)) << error;
    EXPECT_EQ(spec.topology.tiers, core::TopologySpec::Tiers::Single);
    EXPECT_EQ(spec.modes.front().cfg.topology.tiers, core::TopologySpec::Tiers::Single);
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
        // Malformed trunk_width.
        "[scenario]\nname = x\nkind = incast\n[sweep]\nn_to_1 = 9\n"
        "[topology]\ntiers = leaf_spine\nhosts_per_leaf = 4\n"
        "trunk_width = 2O\n",
        // A sweep point that fits on one leaf.
        "[scenario]\nname = x\nkind = incast\n[sweep]\nn_to_1 = 9, 3\n"
        "[topology]\ntiers = leaf_spine\nhosts_per_leaf = 4\n",
        // The same for an interference fabric.
        "[scenario]\nname = x\nkind = interference\nnodes = 4\n"
        "[topology]\ntiers = leaf_spine\nhosts_per_leaf = 4\n",
    };
    for (const char *bad : bads) {
        ScenarioSpec spec;
        std::string error;
        EXPECT_FALSE(loadSpecText(bad, spec, error)) << bad;
        EXPECT_NE(error.find("topology"), std::string::npos) << error;
    }
}

} // namespace
} // namespace edm
