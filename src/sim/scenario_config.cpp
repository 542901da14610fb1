#include "sim/scenario_config.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "mac/frame.hpp"

namespace edm {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** A whole decimal integer: `010` is ten, and `0x14` does not parse. */
bool
parseLong(const std::string &v, long &out)
{
    const char *end = v.data() + v.size();
    long r = 0;
    const auto [ptr, ec] = std::from_chars(v.data(), end, r);
    if (ec != std::errc() || ptr != end)
        return false;
    out = r;
    return true;
}

/** A finite decimal number: `+25`, `0x19`, `inf` and `nan` do not parse. */
bool
parseDouble(const std::string &v, double &out)
{
    const char *end = v.data() + v.size();
    double r = 0;
    const auto [ptr, ec] = std::from_chars(v.data(), end, r);
    if (ec != std::errc() || ptr != end || !std::isfinite(r))
        return false;
    out = r;
    return true;
}

/** " in [lo, hi]", " >= lo" or nothing, as far as the range is bounded. */
std::string
rangeText(long lo, long hi)
{
    if (hi != std::numeric_limits<long>::max())
        return " in [" + std::to_string(lo) + ", " + std::to_string(hi) +
            "]";
    if (lo != std::numeric_limits<long>::min())
        return " >= " + std::to_string(lo);
    return "";
}

/** getInt into a narrower field, which keeps its value when absent. */
template <typename T>
bool
readInt(const ScenarioSection &s, const std::string &key, T &field,
        std::string &error, long lo,
        long hi = std::numeric_limits<long>::max())
{
    long v = static_cast<long>(field);
    if (!s.getInt(key, v, error, lo, hi))
        return false;
    field = static_cast<T>(v);
    return true;
}

/** Node ids are 16-bit (core::NodeId). */
constexpr long kMaxNodes = 65536;
/** Memory message lengths ride a 16-bit wire field. */
constexpr long kMaxMessageBytes = 0xFFFF;
/** Largest payload of a 9 KB jumbo frame. */
constexpr long kMaxFramePayload = static_cast<long>(
    mac::kJumboFrame - mac::kHeaderBytes - mac::kFcsBytes);
constexpr long kIntMax = std::numeric_limits<int>::max();
/**
 * Longest duration a nanosecond key may set: 2^50 ps, about 19 minutes
 * of simulated time. The few durations one chain of events adds up
 * (a storm's start and jitter, a timeout and a backoff, a repair) then
 * stay far inside the 63-bit picosecond clock.
 */
constexpr Picoseconds kMaxDuration = Picoseconds{1} << 50;
constexpr long kMaxNs = kMaxDuration / kNanosecond;
/** Slowest link a scenario may set: 64 KiB then takes 0.5 s. */
constexpr double kMinLinkGbps = 1e-3;
/** Scheduler clock range: cycles from 1 ps to 1 ms. */
constexpr double kMinSchedulerGhz = 1e-6;
constexpr double kMaxSchedulerGhz = 1e3;

bool
parseBool(const std::string &v, bool &out)
{
    if (v == "true" || v == "on" || v == "yes" || v == "1") {
        out = true;
        return true;
    }
    if (v == "false" || v == "off" || v == "no" || v == "0") {
        out = false;
        return true;
    }
    return false;
}

/**
 * Apply the keys of @p s onto @p cfg, marking each read; under
 * @p flow_only just those isFlowConfigKey accepts, so any other stays
 * unread and fails the final check.
 */
bool
applySection(const ScenarioSection &s, core::EdmConfig &cfg,
             bool flow_only, std::string &error)
{
    for (const ScenarioEntry &e : s.entries) {
        if (flow_only && !isFlowConfigKey(e.key))
            continue;
        e.read = true;
        if (!applyEdmConfigKey(cfg, e.key, e.value, error)) {
            error = "[" + s.name + "] " + error;
            return false;
        }
    }
    // Retry n waits read_retry_base << n: the last wait must still be a
    // duration the clock can hold.
    const int max_retries = std::bit_width(
        static_cast<std::uint64_t>(kMaxDuration / cfg.read_retry_base));
    if (cfg.read_retry_limit > max_retries) {
        error = "[" + s.name + "] bad value '" +
            std::to_string(cfg.read_retry_limit) +
            "' for config key 'read_retry_limit' (want at most " +
            std::to_string(max_retries) + " with read_retry_base_ns = " +
            std::to_string(cfg.read_retry_base / kNanosecond) +
            ", or the backoff outgrows " + std::to_string(kMaxNs) + " ns)";
        return false;
    }
    return true;
}

/**
 * The flow kind's `[sweep]` lists into @p spec: `fabrics` by name and
 * `loads` in (0, 1], both required.
 */
bool
readFlowSweep(const ScenarioSection *sw, ScenarioSpec &spec,
              std::string &error)
{
    std::vector<std::string> fabrics;
    std::vector<std::string> loads;
    if (sw && (!sw->getList("fabrics", fabrics, error) ||
               !sw->getList("loads", loads, error)))
        return false;
    if (fabrics.empty() || loads.empty()) {
        error = std::string("flow scenario needs a [sweep] '") +
            (fabrics.empty() ? "fabrics" : "loads") + "' list";
        return false;
    }
    for (const std::string &name : fabrics) {
        const FlowFabric *it = std::find_if(
            std::begin(kFlowFabrics), std::end(kFlowFabrics),
            [&name](FlowFabric f) { return name == flowFabricName(f); });
        if (it == std::end(kFlowFabrics)) {
            std::string names;
            for (const FlowFabric f : kFlowFabrics)
                names += (names.empty() ? "" : ", ") +
                    std::string(flowFabricName(f));
            return sw->reject("fabrics", "names among " + names, error);
        }
        spec.fabrics.push_back(*it);
    }
    for (const std::string &item : loads) {
        double load = 0;
        if (!parseDouble(item, load) || load <= 0 || load > 1)
            return sw->reject("loads", "decimal numbers in (0, 1]", error);
        spec.loads.push_back(load);
    }
    return true;
}

/** Fail on the first section or key of @p doc the loader never read. */
bool
checkAllRead(const ScenarioDoc &doc, const std::string &kind,
             std::string &error)
{
    for (const ScenarioSection &s : doc.sections) {
        if (!s.read) {
            error = "line " + std::to_string(s.line) + ": section [" +
                s.name + "] is never read (unknown, repeated, or unused "
                "by kind = " + kind + ")";
            return false;
        }
        for (const ScenarioEntry &e : s.entries)
            if (!e.read) {
                error = "[" + s.name + "] key '" + e.key + "' is never "
                        "read (unknown, or unused by kind = " + kind + ")";
                return false;
            }
    }
    return true;
}

} // namespace

const std::string *
ScenarioSection::find(const std::string &key) const
{
    for (const ScenarioEntry &e : entries)
        if (e.key == key) {
            e.read = true;
            return &e.value;
        }
    return nullptr;
}

std::string
ScenarioSection::getString(const std::string &key,
                           const std::string &def) const
{
    const std::string *v = find(key);
    return v ? *v : def;
}

bool
ScenarioSection::getInt(const std::string &key, long &out,
                        std::string &error, long lo, long hi) const
{
    const std::string *v = find(key);
    long n = 0;
    if (!v)
        return true;
    if (!parseLong(*v, n) || n < lo || n > hi)
        return reject(key, "an integer" + rangeText(lo, hi), error);
    out = n;
    return true;
}

bool
ScenarioSection::getList(const std::string &key,
                         std::vector<std::string> &out,
                         std::string &error) const
{
    out.clear();
    const std::string *v = find(key);
    if (!v)
        return true;
    for (std::size_t begin = 0;;) {
        const std::size_t comma = v->find(',', begin);
        const std::string item = trim(v->substr(
            begin, comma == std::string::npos ? comma : comma - begin));
        if (item.empty())
            return reject(key, "a comma-separated list with no empty item",
                          error);
        out.push_back(item);
        if (comma == std::string::npos)
            return true;
        begin = comma + 1;
    }
}

bool
ScenarioSection::getSizeList(const std::string &key,
                             std::vector<std::size_t> &out,
                             std::string &error, long lo, long hi) const
{
    std::vector<std::string> items;
    if (!getList(key, items, error))
        return false;
    out.clear();
    for (const std::string &item : items) {
        long n = 0;
        if (!parseLong(item, n) || n < lo || n > hi)
            return reject(key, "integers" + rangeText(lo, hi), error);
        out.push_back(static_cast<std::size_t>(n));
    }
    return true;
}

bool
ScenarioSection::reject(const std::string &key, const std::string &want,
                        std::string &error) const
{
    const std::string *v = find(key);
    error = "bad value '" + (v ? *v : std::string()) + "' for [" + name +
        "] key '" + key + "' (want " + want + ")";
    return false;
}

const ScenarioSection *
ScenarioDoc::section(const std::string &name) const
{
    for (const auto &s : sections)
        if (s.name == name) {
            s.read = true;
            return &s;
        }
    return nullptr;
}

bool
parseScenarioText(const std::string &text, ScenarioDoc &doc,
                  std::string &error)
{
    doc.sections.clear();
    std::stringstream ss(text);
    std::string raw;
    int lineno = 0;
    ScenarioSection *cur = nullptr;
    while (std::getline(ss, raw)) {
        ++lineno;
        const std::size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.erase(hash);
        const std::string line = trim(raw);
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']') {
                error = "line " + std::to_string(lineno) +
                    ": unterminated section header";
                return false;
            }
            const std::string name = trim(line.substr(1, line.size() - 2));
            if (name.empty()) {
                error = "line " + std::to_string(lineno) +
                    ": empty section name";
                return false;
            }
            doc.sections.push_back(ScenarioSection{name, lineno, {}});
            cur = &doc.sections.back();
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos) {
            error = "line " + std::to_string(lineno) +
                ": expected 'key = value' or '[section]'";
            return false;
        }
        if (!cur) {
            error = "line " + std::to_string(lineno) +
                ": key/value before any [section]";
            return false;
        }
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty()) {
            error = "line " + std::to_string(lineno) + ": empty key";
            return false;
        }
        if (std::any_of(cur->entries.begin(), cur->entries.end(),
                        [&key](const ScenarioEntry &e) {
                            return e.key == key;
                        })) {
            error = "line " + std::to_string(lineno) + ": key '" + key +
                "' repeated in [" + cur->name + "]";
            return false;
        }
        cur->entries.push_back(ScenarioEntry{key, value});
    }
    return true;
}

bool
loadScenarioDoc(const std::string &path, ScenarioDoc &doc,
                std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    return parseScenarioText(buf.str(), doc, error);
}

bool
applyEdmConfigKey(core::EdmConfig &cfg, const std::string &key,
                  const std::string &value, std::string &error)
{
    auto bad_value = [&] {
        error = "bad value '" + value + "' for config key '" + key + "'";
        return false;
    };
    auto out_of_range = [&](const std::string &want) {
        bad_value();
        error += " (want " + want + ")";
        return false;
    };
    long n = 0;
    double d = 0;
    bool b = false;
    // A nanosecond count the picosecond clock can hold, from @p lo.
    auto duration = [&](long lo) {
        if (parseLong(value, n) && n >= lo && n <= kMaxNs)
            return true;
        return out_of_range("an integer in [" + std::to_string(lo) + ", " +
                            std::to_string(kMaxNs) + "]");
    };
    auto count = [&](long lo) {
        if (parseLong(value, n) && n >= lo && n <= kIntMax)
            return true;
        return out_of_range("an integer in [" + std::to_string(lo) + ", " +
                            std::to_string(kIntMax) + "]");
    };
    if (key == "link_gbps") {
        if (!parseDouble(value, d) || d < kMinLinkGbps)
            return out_of_range("at least 0.001");
        cfg.link_rate = Gbps{d};
    } else if (key == "scheduler_ghz") {
        if (!parseDouble(value, d) || d < kMinSchedulerGhz ||
            d > kMaxSchedulerGhz)
            return out_of_range("from 0.000001 to 1000");
        cfg.scheduler_ghz = d;
    } else if (key == "chunk_bytes") {
        if (!parseLong(value, n) || n <= 0)
            return bad_value();
        cfg.chunk_bytes = static_cast<Bytes>(n);
    } else if (key == "max_notifications") {
        if (!count(1))
            return false;
        cfg.max_notifications = static_cast<int>(n);
    } else if (key == "priority") {
        if (value == "fcfs")
            cfg.priority = core::Priority::Fcfs;
        else if (value == "srpt")
            cfg.priority = core::Priority::Srpt;
        else
            return bad_value();
    } else if (key == "read_timeout_ns") {
        if (!duration(0))
            return false;
        cfg.read_timeout = n * kNanosecond;
    } else if (key == "link_error_threshold") {
        if (!parseLong(value, n) || n < 1)
            return bad_value();
        cfg.link_error_threshold = static_cast<std::uint64_t>(n);
    } else if (key == "read_retry_limit") {
        if (!count(0))
            return false;
        cfg.read_retry_limit = static_cast<int>(n);
    } else if (key == "read_retry_base_ns") {
        if (!duration(1))
            return false;
        cfg.read_retry_base = n * kNanosecond;
    } else if (key == "wire_charged_occupancy") {
        if (!parseBool(value, b))
            return bad_value();
        cfg.wire_charged_occupancy = b;
    } else if (key == "max_train_blocks") {
        if (!parseLong(value, n) || n < 1)
            return bad_value();
        cfg.max_train_blocks = static_cast<std::size_t>(n);
    } else if (key == "max_frame_train_blocks") {
        if (!parseLong(value, n) || n < 1)
            return bad_value();
        cfg.max_frame_train_blocks = static_cast<std::size_t>(n);
    } else if (key == "l2_pipeline_ns") {
        if (!duration(0))
            return false;
        cfg.l2_pipeline = n * kNanosecond;
    } else if (key == "fair_share") {
        if (!parseBool(value, b))
            return bad_value();
        cfg.fair_share = b;
    } else if (key == "fair_share_window_ns") {
        if (!duration(1))
            return false;
        cfg.fair_share_window_ns = n;
    } else {
        error = "unknown EdmConfig key '" + key + "'";
        return false;
    }
    return true;
}

bool
loadScenarioSpec(const std::string &path, ScenarioSpec &spec,
                 std::string &error)
{
    ScenarioDoc doc;
    if (!loadScenarioDoc(path, doc, error))
        return false;
    spec = ScenarioSpec{};

    const ScenarioSection *sc = doc.section("scenario");
    if (!sc) {
        error = "missing [scenario] section";
        return false;
    }
    spec.name = sc->getString("name", "unnamed");
    spec.kind = sc->getString("kind", "");
    if (spec.kind != "incast" && spec.kind != "interference" &&
        spec.kind != "flow") {
        error = "kind must be 'incast', 'interference' or 'flow', got '" +
            spec.kind + "'";
        return false;
    }
    // Each kind reads only its own keys and sections; whatever it does
    // not read fails the final check. Absent keys keep the defaults of
    // ScenarioSpec and its members.
    const bool incast_kind = spec.kind == "incast";
    const bool interference_kind = spec.kind == "interference";
    const bool flow_kind = spec.kind == "flow";
    IncastWorkload &wl = spec.workload;
    InterferenceSetup &inter = spec.interference;
    if (flow_kind) {
        if (!readInt(*sc, "messages", spec.messages, error, 1))
            return false;
    } else if (interference_kind) {
        if (!readInt(*sc, "nodes", inter.nodes, error, 2, kMaxNodes) ||
            !readInt(*sc, "memory_node", inter.memory_node, error, 1,
                     kMaxNodes - 1) ||
            !readInt(*sc, "read_bytes", inter.read_bytes, error, 1,
                     kMaxMessageBytes) ||
            !readInt(*sc, "frame_payload", inter.frame_payload, error, 0,
                     kMaxFramePayload) ||
            !readInt(*sc, "max_frames", spec.max_frames, error, 0, kIntMax))
            return false;
    } else if (!readInt(*sc, "rounds", spec.rounds, error, 1, kIntMax) ||
               !readInt(*sc, "chains_per_node", wl.chains_per_node, error,
                        1, kIntMax) ||
               !readInt(*sc, "read_bytes", wl.read_bytes, error, 1,
                        kMaxMessageBytes) ||
               !readInt(*sc, "write_bytes", wl.write_bytes, error, 0,
                        kMaxMessageBytes)) {
        return false;
    }

    const ScenarioSection *sw =
        interference_kind ? nullptr : doc.section("sweep");
    if (incast_kind && sw &&
        (!sw->getSizeList("n_to_1", spec.n_to_1, error, 2, kMaxNodes) ||
         !sw->getSizeList("all_to_all", spec.all_to_all, error, 2,
                          kMaxNodes) ||
         !sw->getSizeList("quick_n_to_1", spec.quick_n_to_1, error, 2,
                          kMaxNodes) ||
         !sw->getSizeList("quick_all_to_all", spec.quick_all_to_all, error,
                          2, kMaxNodes)))
        return false;
    if (incast_kind && spec.n_to_1.empty() && spec.all_to_all.empty()) {
        error = "incast scenario needs a [sweep] with n_to_1 and/or "
                "all_to_all";
        return false;
    }
    if (flow_kind && !readFlowSweep(sw, spec, error))
        return false;

    // [config] onto a default EdmConfig, once; each mode copies it.
    core::EdmConfig base;
    if (const ScenarioSection *cs = doc.section("config"))
        if (!applySection(*cs, base, flow_kind, error))
            return false;
    const ScenarioSection *ts = flow_kind ? nullptr : doc.section("topology");
    if (ts) {
        const std::string tiers = ts->getString("tiers", "single");
        if (tiers == "single") {
            spec.topology.tiers = core::TopologySpec::Tiers::Single;
        } else if (tiers == "leaf_spine") {
            spec.topology.tiers = core::TopologySpec::Tiers::LeafSpine;
        } else {
            error = "[topology] tiers must be 'single' or 'leaf_spine', "
                    "got '" + tiers + "'";
            return false;
        }
        core::TopologySpec &topo = spec.topology;
        if (!readInt(*ts, "hosts_per_leaf", topo.hosts_per_leaf, error, 0,
                     kMaxNodes - 1) ||
            !readInt(*ts, "trunk_width", topo.trunk_width, error, 1,
                     kMaxNodes - 1) ||
            !readInt(*ts, "ecmp_seed", topo.ecmp_seed, error, 0))
            return false;
        if (topo.tiers == core::TopologySpec::Tiers::LeafSpine &&
            topo.hosts_per_leaf < 1) {
            error = "[topology] leaf_spine needs hosts_per_leaf >= 1";
            return false;
        }
    }

    const ScenarioSection *tn = flow_kind ? nullptr : doc.section("tenants");
    if (tn) {
        std::vector<std::string> names;
        if (!tn->getList("pools", names, error))
            return false;
        if (names.empty()) {
            error = "[tenants] needs a 'pools' name list";
            return false;
        }
        for (const std::string &name : names) {
            if (name == "default") {
                error = "[tenants] pool name 'default' is reserved";
                return false;
            }
            for (const auto &p : spec.tenants.pools)
                if (p.name == name) {
                    error = "[tenants] duplicate pool '" + name + "'";
                    return false;
                }
            core::TenantPoolSpec pool;
            pool.name = name;
            spec.tenants.pools.push_back(std::move(pool));
        }
        // Host 0 is a valid range end, so a set 'hosts' key is recorded
        // rather than inferred from a zero range.
        std::vector<bool> has_hosts(spec.tenants.pools.size(), false);
        for (const ScenarioEntry &e : tn->entries) {
            e.read = true;
            const std::string &k = e.key;
            if (k == "pools")
                continue;
            const std::size_t dot = k.find('.');
            if (dot == std::string::npos) {
                error = "unknown [tenants] key '" + k + "'";
                return false;
            }
            const std::string pname = k.substr(0, dot);
            const std::string attr = k.substr(dot + 1);
            std::size_t pool_idx = 0;
            while (pool_idx < spec.tenants.pools.size() &&
                   spec.tenants.pools[pool_idx].name != pname)
                ++pool_idx;
            if (pool_idx == spec.tenants.pools.size()) {
                error = "[tenants] key '" + k + "' names a pool not in "
                        "'pools'";
                return false;
            }
            core::TenantPoolSpec *pool = &spec.tenants.pools[pool_idx];
            const std::string &v = e.value;
            const auto bad = [&]() {
                error = "bad value for [tenants] key '" + k + "': '" + v +
                    "'";
                return false;
            };
            if (attr == "hosts") {
                const std::size_t dash = v.find('-');
                long lo = 0;
                long hi = 0;
                if (dash == std::string::npos) {
                    if (!parseLong(trim(v), lo))
                        return bad();
                    hi = lo;
                } else {
                    if (!parseLong(trim(v.substr(0, dash)), lo) ||
                        !parseLong(trim(v.substr(dash + 1)), hi))
                        return bad();
                }
                if (lo < 0 || hi < lo || hi > 0xffff) {
                    error = "[tenants] " + k + " range must satisfy "
                            "0 <= lo <= hi <= 65535";
                    return false;
                }
                pool->host_lo = static_cast<std::uint16_t>(lo);
                pool->host_hi = static_cast<std::uint16_t>(hi);
                has_hosts[pool_idx] = true;
            } else if (attr == "weight") {
                double d = 0.0;
                if (!parseDouble(v, d) || d <= 0.0)
                    return bad();
                pool->weight = d;
            } else if (attr == "min_share") {
                double d = 0.0;
                if (!parseDouble(v, d) || d < 0.0 || d > 1.0)
                    return bad();
                pool->min_share = d;
            } else if (attr == "limit") {
                double d = 0.0;
                if (!parseDouble(v, d) || d <= 0.0 || d > 1.0)
                    return bad();
                pool->limit = d;
            } else if (attr == "latency_sensitive") {
                bool b = false;
                if (!parseBool(v, b))
                    return bad();
                pool->latency_sensitive = b;
            } else {
                error = "unknown [tenants] pool attribute '" + attr +
                    "' in '" + k + "'";
                return false;
            }
        }
        // A host belongs to at most one pool: poolOf() would silently
        // hand a shared host to the first pool declared.
        const auto &pools = spec.tenants.pools;
        for (std::size_t i = 0; i < pools.size(); ++i) {
            if (!has_hosts[i]) {
                error = "[tenants] pool '" + pools[i].name +
                    "' needs a 'hosts' range";
                return false;
            }
            for (std::size_t j = 0; j < i; ++j)
                if (pools[j].host_lo <= pools[i].host_hi &&
                    pools[i].host_lo <= pools[j].host_hi) {
                    error = "[tenants] pools '" + pools[j].name +
                        "' and '" + pools[i].name + "' overlap in 'hosts'";
                    return false;
                }
        }
    }

    const ScenarioSection *fs = incast_kind ? doc.section("faults") : nullptr;
    if (fs) {
        FaultCampaignSpec &f = spec.faults;
        f.active = true;
        long at = 0;
        long jitter = 0;
        long repair = 0;
        std::vector<std::size_t> nodes;
        if (!fs->getInt("storm_at_ns", at, error, 0, kMaxNs) ||
            !readInt(*fs, "storm_blocks", f.storm_blocks, error, 1,
                     kIntMax) ||
            !fs->getInt("storm_jitter_ns", jitter, error, 0, kMaxNs) ||
            !readInt(*fs, "storm_seed", f.storm_seed, error, 0) ||
            !fs->getInt("repair_after_ns", repair, error, 0, kMaxNs) ||
            !fs->getSizeList("storm_nodes", nodes, error, 0,
                             kMaxNodes - 1))
            return false;
        f.storm_at = at * kNanosecond;
        f.storm_jitter = jitter * kNanosecond;
        f.repair_after = repair * kNanosecond;
        f.storm_nodes.assign(nodes.begin(), nodes.end());
    }

    // Every fabric the scenario builds must exist: a leaf-spine needs
    // two leaves, and every named node must be one of the fabric's.
    const bool leaf_spine =
        spec.topology.tiers == core::TopologySpec::Tiers::LeafSpine;
    const std::string two_leaves = "more nodes than [topology] "
        "hosts_per_leaf = " +
        std::to_string(spec.topology.hosts_per_leaf);
    // Node count of the smallest fabric, and how the errors name it.
    std::size_t fewest = inter.nodes;
    std::string below = "nodes = " + std::to_string(inter.nodes);
    if (interference_kind) {
        if (leaf_spine && inter.nodes <= spec.topology.hosts_per_leaf)
            return sc->reject("nodes", two_leaves, error);
        if (inter.memory_node >= inter.nodes)
            return sc->reject("memory_node", "a node below " + below,
                              error);
    } else if (incast_kind) {
        const std::pair<const char *, const std::vector<std::size_t> *>
            sweeps[] = {{"n_to_1", &spec.n_to_1},
                        {"all_to_all", &spec.all_to_all},
                        {"quick_n_to_1", &spec.quick_n_to_1},
                        {"quick_all_to_all", &spec.quick_all_to_all}};
        fewest = static_cast<std::size_t>(kMaxNodes);
        for (const auto &[key, points] : sweeps)
            for (const std::size_t n : *points) {
                if (leaf_spine && n <= spec.topology.hosts_per_leaf)
                    return sw->reject(key, two_leaves, error);
                fewest = std::min(fewest, n);
            }
        below = "the smallest sweep point, " + std::to_string(fewest);
        for (const core::NodeId n : spec.faults.storm_nodes)
            if (n >= fewest)
                return fs->reject("storm_nodes", "nodes below " + below,
                                  error);
    }
    // A pool reaching past the fabric would arbitrate for hosts that
    // do not exist.
    for (const core::TenantPoolSpec &pool : spec.tenants.pools)
        if (pool.host_hi >= fewest)
            return doc.section("tenants")->reject(
                pool.name + ".hosts", "hosts below " + below, error);

    // Each mode copies the base config and applies its own keys on top.
    // A mode header is exactly `mode` or `mode <name>`, and each name is
    // taken once; an interference scenario reads only its first mode, so
    // a second fails the final check.
    base.topology = spec.topology;
    base.tenants = spec.tenants;
    for (const ScenarioSection &ms : doc.sections) {
        if (ms.name != "mode" && ms.name.compare(0, 5, "mode ") != 0)
            continue;
        if (interference_kind && !spec.modes.empty())
            break;
        ms.read = true;
        ScenarioModeSpec mode{trim(ms.name.substr(4)), base};
        if (mode.name.empty()) {
            error = "[mode] section needs a name: [mode <name>]";
            return false;
        }
        for (const ScenarioModeSpec &taken : spec.modes)
            if (taken.name == mode.name) {
                error = "line " + std::to_string(ms.line) + ": [" +
                    ms.name + "] repeats the mode name '" + mode.name + "'";
                return false;
            }
        if (!applySection(ms, mode.cfg, flow_kind, error))
            return false;
        spec.modes.push_back(std::move(mode));
    }
    if (spec.modes.empty())
        spec.modes.push_back(ScenarioModeSpec{"base", base});
    return checkAllRead(doc, spec.kind, error);
}

} // namespace edm
