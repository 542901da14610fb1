#include "sim/scenario_config.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

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

bool
parseLong(const std::string &v, long &out)
{
    char *end = nullptr;
    const long r = std::strtol(v.c_str(), &end, 0);
    if (end == v.c_str() || *end != '\0')
        return false;
    out = r;
    return true;
}

bool
parseDouble(const std::string &v, double &out)
{
    char *end = nullptr;
    const double r = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
        return false;
    out = r;
    return true;
}

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

} // namespace

const std::string *
ScenarioSection::find(const std::string &key) const
{
    const std::string *hit = nullptr;
    for (const auto &kv : entries)
        if (kv.first == key)
            hit = &kv.second;
    return hit;
}

std::string
ScenarioSection::getString(const std::string &key,
                           const std::string &def) const
{
    const std::string *v = find(key);
    return v ? *v : def;
}

long
ScenarioSection::getInt(const std::string &key, long def) const
{
    const std::string *v = find(key);
    long out = def;
    if (v && !parseLong(*v, out))
        return def;
    return out;
}

double
ScenarioSection::getDouble(const std::string &key, double def) const
{
    const std::string *v = find(key);
    double out = def;
    if (v && !parseDouble(*v, out))
        return def;
    return out;
}

bool
ScenarioSection::getBool(const std::string &key, bool def) const
{
    const std::string *v = find(key);
    bool out = def;
    if (v && !parseBool(*v, out))
        return def;
    return out;
}

std::vector<std::size_t>
ScenarioSection::getSizeList(const std::string &key) const
{
    std::vector<std::size_t> out;
    const std::string *v = find(key);
    if (!v)
        return out;
    std::stringstream ss(*v);
    std::string item;
    while (std::getline(ss, item, ',')) {
        long n = 0;
        if (parseLong(trim(item), n) && n >= 0)
            out.push_back(static_cast<std::size_t>(n));
    }
    return out;
}

const ScenarioSection *
ScenarioDoc::section(const std::string &name) const
{
    for (const auto &s : sections)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::vector<const ScenarioSection *>
ScenarioDoc::sectionsWithPrefix(const std::string &prefix) const
{
    std::vector<const ScenarioSection *> out;
    for (const auto &s : sections)
        if (s.name.compare(0, prefix.size(), prefix) == 0)
            out.push_back(&s);
    return out;
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
            doc.sections.push_back(ScenarioSection{name, {}});
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
        cur->entries.emplace_back(key, value);
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
    long n = 0;
    double d = 0;
    bool b = false;
    if (key == "num_nodes") {
        if (!parseLong(value, n) || n < 2)
            return bad_value();
        cfg.num_nodes = static_cast<std::size_t>(n);
    } else if (key == "link_gbps") {
        if (!parseDouble(value, d) || d <= 0)
            return bad_value();
        cfg.link_rate = Gbps{d};
    } else if (key == "scheduler_ghz") {
        if (!parseDouble(value, d) || d <= 0)
            return bad_value();
        cfg.scheduler_ghz = d;
    } else if (key == "chunk_bytes") {
        if (!parseLong(value, n) || n <= 0)
            return bad_value();
        cfg.chunk_bytes = static_cast<Bytes>(n);
    } else if (key == "max_notifications") {
        if (!parseLong(value, n) || n <= 0)
            return bad_value();
        cfg.max_notifications = static_cast<int>(n);
    } else if (key == "priority") {
        if (value == "fcfs")
            cfg.priority = core::Priority::Fcfs;
        else if (value == "srpt")
            cfg.priority = core::Priority::Srpt;
        else
            return bad_value();
    } else if (key == "read_timeout_ns") {
        if (!parseLong(value, n) || n < 0)
            return bad_value();
        cfg.read_timeout = n * kNanosecond;
    } else if (key == "link_error_threshold") {
        if (!parseLong(value, n) || n < 1)
            return bad_value();
        cfg.link_error_threshold = static_cast<std::uint64_t>(n);
    } else if (key == "read_retry_limit") {
        if (!parseLong(value, n) || n < 0)
            return bad_value();
        cfg.read_retry_limit = static_cast<int>(n);
    } else if (key == "read_retry_base_ns") {
        if (!parseLong(value, n) || n < 1)
            return bad_value();
        cfg.read_retry_base = n * kNanosecond;
    } else if (key == "strict_grant_accounting") {
        if (!parseBool(value, b))
            return bad_value();
        cfg.strict_grant_accounting = b;
    } else if (key == "wire_charged_occupancy") {
        if (!parseBool(value, b))
            return bad_value();
        cfg.wire_charged_occupancy = b;
    } else if (key == "charge_preemption_reentry") {
        if (!parseBool(value, b))
            return bad_value();
        cfg.charge_preemption_reentry = b;
    } else if (key == "parked_grant_timeout_ns") {
        if (!parseLong(value, n) || n < 0)
            return bad_value();
        cfg.parked_grant_timeout = n * kNanosecond;
    } else if (key == "max_train_blocks") {
        if (!parseLong(value, n) || n < 1)
            return bad_value();
        cfg.max_train_blocks = static_cast<std::size_t>(n);
    } else if (key == "max_frame_train_blocks") {
        if (!parseLong(value, n) || n < 1)
            return bad_value();
        cfg.max_frame_train_blocks = static_cast<std::size_t>(n);
    } else if (key == "l2_pipeline_ns") {
        if (!parseLong(value, n) || n < 0)
            return bad_value();
        cfg.l2_pipeline = n * kNanosecond;
    } else if (key == "fair_share") {
        if (!parseBool(value, b))
            return bad_value();
        cfg.fair_share = b;
    } else if (key == "fair_share_window_ns") {
        if (!parseLong(value, n) || n < 1)
            return bad_value();
        cfg.fair_share_window_ns = n;
    } else {
        error = "unknown EdmConfig key '" + key + "'";
        return false;
    }
    return true;
}

core::EdmConfig
ScenarioSpec::configFor(const ScenarioModeSpec &mode) const
{
    core::EdmConfig cfg;
    std::string error;
    for (const auto &kv : config)
        applyEdmConfigKey(cfg, kv.first, kv.second, error);
    for (const auto &kv : mode.overrides)
        applyEdmConfigKey(cfg, kv.first, kv.second, error);
    // Keys were validated by loadScenarioSpec; errors cannot occur here.
    cfg.topology = topology;
    cfg.tenants = tenants;
    return cfg;
}

bool
loadScenarioSpec(const std::string &path, ScenarioSpec &spec,
                 std::string &error)
{
    ScenarioDoc doc;
    if (!loadScenarioDoc(path, doc, error))
        return false;

    const ScenarioSection *sc = doc.section("scenario");
    if (!sc) {
        error = "missing [scenario] section";
        return false;
    }
    for (const auto &kv : sc->entries) {
        const std::string &k = kv.first;
        if (k != "name" && k != "kind" && k != "base_seed" &&
            k != "rounds" && k != "chains_per_node" && k != "read_bytes" &&
            k != "write_bytes" && k != "nodes" && k != "memory_node" &&
            k != "link_gbps" && k != "frame_payload" && k != "max_frames") {
            error = "unknown [scenario] key '" + k + "'";
            return false;
        }
    }
    spec.name = sc->getString("name", "unnamed");
    spec.kind = sc->getString("kind", "");
    if (spec.kind != "incast" && spec.kind != "interference") {
        error = "kind must be 'incast' or 'interference', got '" +
            spec.kind + "'";
        return false;
    }
    spec.base_seed = static_cast<std::uint64_t>(sc->getInt("base_seed", 1));
    spec.rounds = static_cast<int>(sc->getInt("rounds", 20));
    if (spec.rounds <= 0) {
        error = "rounds must be positive";
        return false;
    }
    spec.workload.chains_per_node =
        static_cast<int>(sc->getInt("chains_per_node", 6));
    spec.workload.read_bytes =
        static_cast<Bytes>(sc->getInt("read_bytes", 900));
    spec.workload.write_bytes =
        static_cast<Bytes>(sc->getInt("write_bytes", 700));
    spec.interference.nodes =
        static_cast<std::size_t>(sc->getInt("nodes", 2));
    spec.interference.memory_node =
        static_cast<core::NodeId>(sc->getInt("memory_node", 1));
    spec.interference.link_gbps = sc->getDouble("link_gbps", 25.0);
    spec.interference.read_bytes =
        static_cast<Bytes>(sc->getInt("read_bytes", 64));
    spec.interference.frame_payload =
        static_cast<std::size_t>(sc->getInt("frame_payload", 8900));
    spec.max_frames = static_cast<int>(sc->getInt("max_frames", 8));

    spec.n_to_1.clear();
    spec.all_to_all.clear();
    spec.quick_n_to_1.clear();
    spec.quick_all_to_all.clear();
    if (const ScenarioSection *sw = doc.section("sweep")) {
        for (const auto &kv : sw->entries) {
            const std::string &k = kv.first;
            if (k != "n_to_1" && k != "all_to_all" && k != "quick_n_to_1" &&
                k != "quick_all_to_all") {
                error = "unknown [sweep] key '" + k + "'";
                return false;
            }
        }
        spec.n_to_1 = sw->getSizeList("n_to_1");
        spec.all_to_all = sw->getSizeList("all_to_all");
        spec.quick_n_to_1 = sw->getSizeList("quick_n_to_1");
        spec.quick_all_to_all = sw->getSizeList("quick_all_to_all");
    }
    if (spec.kind == "incast" && spec.n_to_1.empty() &&
        spec.all_to_all.empty()) {
        error = "incast scenario needs a [sweep] with n_to_1 and/or "
                "all_to_all";
        return false;
    }

    // Validate every EdmConfig key now so configFor() cannot fail later.
    spec.config.clear();
    if (const ScenarioSection *cs = doc.section("config")) {
        core::EdmConfig probe;
        for (const auto &kv : cs->entries) {
            if (!applyEdmConfigKey(probe, kv.first, kv.second, error))
                return false;
            spec.config.push_back(kv);
        }
    }
    spec.topology = core::TopologySpec{};
    if (const ScenarioSection *ts = doc.section("topology")) {
        for (const auto &kv : ts->entries) {
            const std::string &k = kv.first;
            if (k != "tiers" && k != "hosts_per_leaf" &&
                k != "trunk_width" && k != "ecmp_seed") {
                error = "unknown [topology] key '" + k + "'";
                return false;
            }
        }
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
        const long hpl = ts->getInt("hosts_per_leaf", 0);
        const long width = ts->getInt("trunk_width", 1);
        const long seed = ts->getInt("ecmp_seed", 1);
        if (spec.topology.tiers == core::TopologySpec::Tiers::LeafSpine &&
            hpl < 1) {
            error = "[topology] leaf_spine needs hosts_per_leaf >= 1";
            return false;
        }
        if (hpl < 0 || width < 1 || seed < 0) {
            error = "[topology] values must be non-negative "
                    "(trunk_width >= 1)";
            return false;
        }
        spec.topology.hosts_per_leaf = static_cast<std::size_t>(hpl);
        spec.topology.trunk_width = static_cast<std::size_t>(width);
        spec.topology.ecmp_seed = static_cast<std::uint64_t>(seed);
    }

    spec.tenants = core::TenantSpec{};
    if (const ScenarioSection *tn = doc.section("tenants")) {
        const std::string *names = tn->find("pools");
        if (!names) {
            error = "[tenants] needs a 'pools' name list";
            return false;
        }
        std::stringstream ss(*names);
        std::string item;
        while (std::getline(ss, item, ',')) {
            const std::string name = trim(item);
            if (name.empty()) {
                error = "[tenants] pools has an empty name";
                return false;
            }
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
        if (spec.tenants.pools.empty()) {
            error = "[tenants] pools list is empty";
            return false;
        }
        for (const auto &kv : tn->entries) {
            const std::string &k = kv.first;
            if (k == "pools")
                continue;
            const std::size_t dot = k.find('.');
            if (dot == std::string::npos) {
                error = "unknown [tenants] key '" + k + "'";
                return false;
            }
            const std::string pname = k.substr(0, dot);
            const std::string attr = k.substr(dot + 1);
            core::TenantPoolSpec *pool = nullptr;
            for (auto &p : spec.tenants.pools)
                if (p.name == pname)
                    pool = &p;
            if (!pool) {
                error = "[tenants] key '" + k + "' names a pool not in "
                        "'pools'";
                return false;
            }
            const std::string &v = kv.second;
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
        for (const auto &p : spec.tenants.pools)
            if (p.host_lo == 0 && p.host_hi == 0) {
                error = "[tenants] pool '" + p.name +
                    "' needs a 'hosts' range";
                return false;
            }
    }

    spec.faults = FaultCampaignSpec{};
    if (const ScenarioSection *fs = doc.section("faults")) {
        for (const auto &kv : fs->entries) {
            const std::string &k = kv.first;
            if (k != "storm_at_ns" && k != "storm_nodes" &&
                k != "storm_blocks" && k != "storm_jitter_ns" &&
                k != "storm_seed" && k != "repair_after_ns") {
                error = "unknown [faults] key '" + k + "'";
                return false;
            }
        }
        spec.faults.active = true;
        const long at = fs->getInt("storm_at_ns", 0);
        const long blocks = fs->getInt("storm_blocks", 32);
        const long jitter = fs->getInt("storm_jitter_ns", 0);
        const long repair = fs->getInt("repair_after_ns", 0);
        if (at < 0 || blocks < 1 || jitter < 0 || repair < 0) {
            error = "[faults] values must be non-negative (storm_blocks "
                    ">= 1)";
            return false;
        }
        spec.faults.storm_at = at * kNanosecond;
        spec.faults.storm_blocks = static_cast<int>(blocks);
        spec.faults.storm_jitter = jitter * kNanosecond;
        spec.faults.storm_seed =
            static_cast<std::uint64_t>(fs->getInt("storm_seed", 1));
        spec.faults.repair_after = repair * kNanosecond;
        spec.faults.storm_nodes.clear();
        for (const std::size_t n : fs->getSizeList("storm_nodes"))
            spec.faults.storm_nodes.push_back(
                static_cast<core::NodeId>(n));
    }

    spec.modes.clear();
    for (const ScenarioSection *ms : doc.sectionsWithPrefix("mode")) {
        ScenarioModeSpec mode;
        mode.name = trim(ms->name.substr(4));
        if (mode.name.empty()) {
            error = "[mode] section needs a name: [mode <name>]";
            return false;
        }
        core::EdmConfig probe;
        for (const auto &kv : ms->entries) {
            if (!applyEdmConfigKey(probe, kv.first, kv.second, error))
                return false;
            mode.overrides.push_back(kv);
        }
        spec.modes.push_back(std::move(mode));
    }
    if (spec.modes.empty())
        spec.modes.push_back(ScenarioModeSpec{"base", {}});
    return true;
}

} // namespace edm
