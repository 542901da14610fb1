/**
 * @file
 * Declarative scenario files (.edm under scenarios/): a small key/value +
 * `[section]` format describing a topology, EdmConfig flag set and
 * workload, so experiments live as data instead of bespoke main()s.
 *
 * Format (see docs/SCENARIOS.md):
 *
 *   # comment
 *   [scenario]
 *   name = incast
 *   kind = incast            # or "interference"
 *   base_seed = 7
 *   rounds = 20
 *
 *   [sweep]
 *   n_to_1 = 5, 9, 13
 *
 *   [config]                 # base EdmConfig keys, applied to every mode
 *   max_train_blocks = 64
 *
 *   [topology]               # fabric wiring (default: single switch)
 *   tiers = leaf_spine       # or "single"
 *   hosts_per_leaf = 16
 *   trunk_width = 4
 *   ecmp_seed = 7
 *
 *   [tenants]                # fair-share pools (docs/FAIR_SHARE.md)
 *   pools = bulk, ls         # pool names; then dotted per-pool keys
 *   bulk.hosts = 1-12        # client-host range, inclusive
 *   bulk.weight = 3
 *   bulk.limit = 0.6
 *   ls.hosts = 13-16
 *   ls.min_share = 0.2
 *   ls.latency_sensitive = true
 *
 *   [mode wire]              # EdmConfig overlay, one table row per mode
 *   wire_charged_occupancy = true
 *
 * Unknown keys are hard errors: a typo must fail loudly, never
 * silently fall back to a default schedule.
 */

#ifndef EDM_SIM_SCENARIO_CONFIG_HPP
#define EDM_SIM_SCENARIO_CONFIG_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "sim/scenario_exec.hpp"

namespace edm {

/** One `[section]`: its header text and key/value pairs in file order. */
struct ScenarioSection
{
    std::string name; ///< full header, e.g. "scenario" or "mode wire"
    std::vector<std::pair<std::string, std::string>> entries;

    /** Value of @p key, or nullptr when absent (last wins on repeats). */
    const std::string *find(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def) const;
    long getInt(const std::string &key, long def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /** Comma-separated list of non-negative integers. */
    std::vector<std::size_t> getSizeList(const std::string &key) const;
};

/** A parsed scenario file: sections in file order. */
struct ScenarioDoc
{
    std::vector<ScenarioSection> sections;

    const ScenarioSection *section(const std::string &name) const;
    std::vector<const ScenarioSection *>
    sectionsWithPrefix(const std::string &prefix) const;
};

/** Parse scenario text. False + @p error on malformed input. */
bool parseScenarioText(const std::string &text, ScenarioDoc &doc,
                       std::string &error);

/** Read and parse a scenario file. */
bool loadScenarioDoc(const std::string &path, ScenarioDoc &doc,
                     std::string &error);

/**
 * Apply one `key = value` pair onto an EdmConfig. Unknown keys and
 * unparseable values fail (false + @p error). Durations are in
 * nanoseconds (`*_ns`), rates in Gb/s (`link_gbps`).
 */
bool applyEdmConfigKey(core::EdmConfig &cfg, const std::string &key,
                       const std::string &value, std::string &error);

/** One `[mode <name>]` overlay: EdmConfig keys for one table row. */
struct ScenarioModeSpec
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> overrides;
};

/**
 * Declarative `[faults]` campaign: a correlated link-failure storm with
 * optional auto-repair, executed by scenario_exec through a
 * FaultCampaign on each sweep point's fabric. Times are nanoseconds in
 * the file (`*_ns` keys); retry/threshold knobs live in `[config]`
 * (`read_retry_limit`, `read_retry_base_ns`, `link_error_threshold`).
 */
struct FaultCampaignSpec
{
    bool active = false; ///< a [faults] section was present

    Picoseconds storm_at = 0; ///< when the storm begins
    /** Uplinks the storm hits; empty = every sender (nodes 1..N-1). */
    std::vector<core::NodeId> storm_nodes;
    int storm_blocks = 32; ///< corrupt blocks per hit uplink
    Picoseconds storm_jitter = 0; ///< per-node start spread [0, jitter]
    std::uint64_t storm_seed = 1; ///< jitter RNG seed

    /** Repair each disabled link this long after its disable; 0=never. */
    Picoseconds repair_after = 0;
};

/** A fully validated scenario ready to run. */
struct ScenarioSpec
{
    std::string name;
    std::string kind; ///< "incast" or "interference"
    std::uint64_t base_seed = 1;
    int rounds = 20; ///< closed-loop chain length (incast)

    // ---- incast workload + sweep ----
    IncastWorkload workload;
    std::vector<std::size_t> n_to_1;
    std::vector<std::size_t> all_to_all;
    std::vector<std::size_t> quick_n_to_1;
    std::vector<std::size_t> quick_all_to_all;

    // ---- interference setup ----
    InterferenceSetup interference;
    int max_frames = 8;

    /** Fabric wiring from [topology] (single switch when absent). */
    core::TopologySpec topology;

    /** Fair-share pools from [tenants] (empty when absent). */
    core::TenantSpec tenants;

    /** Base EdmConfig keys (validated, applied before each mode). */
    std::vector<std::pair<std::string, std::string>> config;
    /** Mode overlays in file order; empty means one unnamed base mode. */
    std::vector<ScenarioModeSpec> modes;

    /** Declarative fault campaign (inactive unless [faults] present). */
    FaultCampaignSpec faults;

    /** Base config + one mode's overlay, validated at load time. */
    core::EdmConfig configFor(const ScenarioModeSpec &mode) const;
};

/** Load + validate a scenario file into a runnable spec. */
bool loadScenarioSpec(const std::string &path, ScenarioSpec &spec,
                      std::string &error);

} // namespace edm

#endif // EDM_SIM_SCENARIO_CONFIG_HPP
