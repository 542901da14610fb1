/**
 * @file
 * Declarative scenario files (.edm under scenarios/): a small key/value +
 * `[section]` format describing a topology, EdmConfig flag set and
 * workload, so experiments live as data instead of bespoke main()s.
 * docs/SCENARIOS.md describes the sections and keys.
 *
 * loadScenarioSpec is the one place that knows the format: every
 * section and key it reads is legal, and a section or key it never
 * read (unknown, repeated, or unused by the file's kind) fails the
 * load, naming it. So do a key given twice in one section, numbers
 * that do not parse or fall outside their range, and node counts or
 * node ids that name no node of the fabric the scenario builds: a typo
 * must fail loudly, never silently fall back to a default schedule.
 */

#ifndef EDM_SIM_SCENARIO_CONFIG_HPP
#define EDM_SIM_SCENARIO_CONFIG_HPP

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "sim/scenario_exec.hpp"

namespace edm {

/** One `key = value` line of a section. */
struct ScenarioEntry
{
    std::string key;
    std::string value;
    mutable bool read = false; ///< looked up by the loader
};

/** One `[section]`: its header text and key/value pairs in file order. */
struct ScenarioSection
{
    std::string name; ///< full header, e.g. "scenario" or "mode wire"
    int line = 0;     ///< line number of the header
    std::vector<ScenarioEntry> entries;
    mutable bool read = false; ///< looked up by the loader

    /** Value of @p key, or nullptr when absent; marks the key read. */
    const std::string *find(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def) const;

    /**
     * Integer value of @p key, within [@p lo, @p hi], into @p out; an
     * absent key leaves @p out as it was. A value that does not parse
     * or is out of range fails: false, with @p error naming the
     * section, the key and the value.
     */
    bool getInt(const std::string &key, long &out, std::string &error,
                long lo = std::numeric_limits<long>::min(),
                long hi = std::numeric_limits<long>::max()) const;

    /**
     * The comma-separated items of @p key, trimmed (empty when the key
     * is absent). An empty value or an empty item fails: false, with
     * @p error naming the section, the key and the value.
     */
    bool getList(const std::string &key, std::vector<std::string> &out,
                 std::string &error) const;

    /**
     * Comma-separated integers of @p key, each within [@p lo, @p hi];
     * otherwise as getList and getInt.
     */
    bool getSizeList(const std::string &key, std::vector<std::size_t> &out,
                     std::string &error, long lo = 0,
                     long hi = std::numeric_limits<long>::max()) const;

    /**
     * Reject @p key's value: false, with @p error naming the section,
     * the key, the value and what was wanted.
     */
    bool reject(const std::string &key, const std::string &want,
                std::string &error) const;
};

/** A parsed scenario file: sections in file order. */
struct ScenarioDoc
{
    std::vector<ScenarioSection> sections;

    /** The first section named @p name, or nullptr; marks it read. */
    const ScenarioSection *section(const std::string &name) const;
};

/**
 * Parse scenario text. False + @p error, naming the line, on malformed
 * input, including a key given twice in one section.
 */
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

/**
 * One table row's configuration: `[config]`, the topology and tenants,
 * then the `[mode <name>]` section's own keys on top.
 */
struct ScenarioModeSpec
{
    std::string name;
    core::EdmConfig cfg;
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
    std::string kind; ///< "incast", "interference" or "flow"
    int rounds = 20;  ///< closed-loop chain length (incast)

    // ---- incast workload + sweep ----
    IncastWorkload workload;
    std::vector<std::size_t> n_to_1;
    std::vector<std::size_t> all_to_all;
    std::vector<std::size_t> quick_n_to_1;
    std::vector<std::size_t> quick_all_to_all;

    // ---- interference setup ----
    InterferenceSetup interference;
    int max_frames = 8;

    // ---- flow workload + sweep ----
    std::uint64_t messages = FlowPoint{}.messages; ///< writes per point
    std::vector<FlowFabric> fabrics;
    std::vector<double> loads;

    /** Fabric wiring from [topology] (single switch when absent). */
    core::TopologySpec topology;

    /** Fair-share pools from [tenants] (empty when absent). */
    core::TenantSpec tenants;

    /**
     * Modes in file order, each name once; a file without `[mode]`
     * sections has one, named "base". An interference scenario has
     * exactly one. A flow scenario's modes set only the keys
     * isFlowConfigKey accepts.
     */
    std::vector<ScenarioModeSpec> modes;

    /** Declarative fault campaign (inactive unless [faults] present). */
    FaultCampaignSpec faults;
};

/** Load + validate a scenario file into a runnable spec. */
bool loadScenarioSpec(const std::string &path, ScenarioSpec &spec,
                      std::string &error);

} // namespace edm

#endif // EDM_SIM_SCENARIO_CONFIG_HPP
