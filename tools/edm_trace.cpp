/**
 * @file
 * Offline query tool for fabric event logs (docs/EVENT_LOG.md).
 *
 * The log answers scheduling forensics without rerunning the sim:
 *
 *   edm_trace dump    <file> [filters]   every record, one line each
 *   edm_trace summary <file> [filters]   per-flow lifecycle summaries
 *   edm_trace parked  <file> [--min-ns N] [filters]
 *                                        park->drain/drop pairs with
 *                                        latency and outcome — "which
 *                                        flows had grants parked longer
 *                                        than N ns, and why"
 *   edm_trace histo   <file> [filters]   wasted-grant reasons and
 *                                        park-latency histogram
 *   edm_trace faults  <file> [filters]   per-link fault episodes —
 *                                        inject -> disable -> repair
 *                                        pairing with phase latencies,
 *                                        plus retry/abandon and switch
 *                                        fail/failback counts
 *   edm_trace digest  <file> [filters]   record count and a 64-bit
 *                                        digest of the records, the
 *                                        trace line of a scenario
 *                                        snapshot (tests/snapshots)
 *
 * Filters: --type <name> --port N --src N --dst N --id N --response
 *          --switch N          (leaf switch id; multi-tier topologies)
 *          --pool N            (fair-share pool id; tenanted runs)
 *          --from NS --to NS   (times in simulation nanoseconds)
 *
 * Leaf-spine logs (docs/TOPOLOGY.md) stamp each record with its switch
 * id and carry per-tier occupancy charges as tier-charge records;
 * `summary` rolls those up into a per-switch, per-tier table.
 *
 * Fair-share logs (docs/FAIR_SHARE.md) stamp grant/ledger records with
 * the owning pool (`aux` = pool id + 1); `summary` rolls those up into
 * a per-pool table: grants, bytes, achieved Gbps, limit deferrals,
 * priority bypasses and LedgerOpen->LedgerRetire completion p50/p99.
 *
 * A scenario sweep writes every point's simulation into one log, each
 * opened by a point-start record. Point N is the records after the N-th
 * point-start (0: before any), and every rollup (per flow, switch, pool
 * or faulty link) is keyed by point, since each point's clock and
 * message ids start over.
 */

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "core/occupancy.hpp"
#include "trace/event_log.hpp"

namespace {

using namespace edm;
using trace::Detail;
using trace::EventType;
using trace::Record;

struct Filter
{
    int type = -1; ///< EventType value, -1 = any
    long port = -1;
    long src = -1;
    long dst = -1;
    long id = -1;
    long sw = -1; ///< leaf switch id (record field `sw`)
    long pool = -1; ///< fair-share pool id (record field `aux` - 1)
    bool response_only = false;
    double from_ns = -1;
    double to_ns = -1;

    bool
    pass(const Record &r) const
    {
        if (type >= 0 && r.type != type)
            return false;
        if (sw >= 0 && r.sw != sw)
            return false;
        if (port >= 0 && r.port != port)
            return false;
        if (src >= 0 && r.src != src)
            return false;
        if (dst >= 0 && r.dst != dst)
            return false;
        if (id >= 0 && r.id != id)
            return false;
        if (pool >= 0 &&
            r.aux != static_cast<std::uint32_t>(pool) + 1)
            return false;
        if (response_only && !r.response())
            return false;
        const double ns = toNs(r.at);
        if (from_ns >= 0 && ns < from_ns)
            return false;
        if (to_ns >= 0 && ns > to_ns)
            return false;
        return true;
    }
};

/** A record and the sweep point it belongs to. */
struct Traced
{
    Record rec;
    std::uint32_t point = 0; ///< point-start records before it
};

int
typeFromName(const std::string &name)
{
    for (int t = 0; t <= trace::kMaxEventType; ++t)
        if (name == trace::toString(static_cast<EventType>(t)))
            return t;
    return -1;
}

/** (point, src, dst, id, response): a flow within one sweep point. */
using FlowKey = std::tuple<std::uint32_t, std::uint16_t, std::uint16_t,
                           std::uint8_t, bool>;

std::string
flowName(const FlowKey &k)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%u->%u id %u %s",
                  static_cast<unsigned>(std::get<1>(k)),
                  static_cast<unsigned>(std::get<2>(k)),
                  static_cast<unsigned>(std::get<3>(k)),
                  std::get<4>(k) ? "rsp" : "req");
    return buf;
}

FlowKey
flowOf(const Traced &t)
{
    const Record &r = t.rec;
    return FlowKey{t.point, r.src, r.dst, r.id, r.response()};
}

void
dumpRecord(const Record &r)
{
    // tier-charge records name their link tier; everything else shows
    // the owning switch id (0 on single-switch fabrics). Tenanted runs
    // stamp grant/ledger records with their fair-share pool.
    char extra[32] = "";
    if (r.eventType() == EventType::TierCharge)
        std::snprintf(extra, sizeof(extra), " %s",
                      core::toString(
                          static_cast<core::LinkTier>(r.tier)));
    else if (r.aux > 0)
        std::snprintf(extra, sizeof(extra), " pool %u",
                      static_cast<unsigned>(r.aux - 1));
    std::printf("%14.3f ns  sw %-3u port %-4u %-16s %-20s %u->%u id %-3u "
                "%s arg %" PRIu64 "%s\n",
                toNs(r.at), static_cast<unsigned>(r.sw),
                static_cast<unsigned>(r.port),
                trace::toString(r.eventType()),
                trace::toString(r.detailCode()),
                static_cast<unsigned>(r.src),
                static_cast<unsigned>(r.dst),
                static_cast<unsigned>(r.id),
                r.response() ? "rsp" : "req", r.arg, extra);
}

int
cmdDump(const std::vector<Traced> &recs)
{
    for (const Traced &t : recs)
        dumpRecord(t.rec);
    std::printf("%zu records\n", recs.size());
    return 0;
}

/** Per-flow lifecycle rollup. */
struct FlowSummary
{
    std::uint64_t issued = 0, issued_bytes = 0;
    std::uint64_t parked = 0, drained = 0, dropped = 0;
    std::uint64_t ledger_open = 0, ledger_retire = 0, ledger_abort = 0;
    std::uint64_t stalls = 0;
    Picoseconds first = 0, last = 0;
    bool seen = false;

    void
    touch(Picoseconds at)
    {
        if (!seen) {
            first = at;
            seen = true;
        }
        last = at;
    }
};

int
cmdSummary(const std::vector<Traced> &recs)
{
    std::map<FlowKey, FlowSummary> flows;
    for (const Traced &tr : recs) {
        const Record &r = tr.rec;
        const EventType t = r.eventType();
        switch (t) {
        case EventType::GrantIssued:
        case EventType::GrantParked:
        case EventType::GrantDrained:
        case EventType::GrantDropped:
        case EventType::LedgerOpen:
        case EventType::LedgerRetire:
        case EventType::LedgerAbort:
        case EventType::IdWrapStall:
            break;
        default:
            continue; // port-scoped events have no flow key
        }
        FlowSummary &f = flows[flowOf(tr)];
        f.touch(r.at);
        switch (t) {
        case EventType::GrantIssued:
            ++f.issued;
            f.issued_bytes += r.arg;
            break;
        case EventType::GrantParked: ++f.parked; break;
        case EventType::GrantDrained: ++f.drained; break;
        case EventType::GrantDropped: ++f.dropped; break;
        case EventType::LedgerOpen: ++f.ledger_open; break;
        case EventType::LedgerRetire: ++f.ledger_retire; break;
        case EventType::LedgerAbort: ++f.ledger_abort; break;
        case EventType::IdWrapStall: ++f.stalls; break;
        default: break;
        }
    }
    std::printf("%5s %-22s %7s %10s %7s %7s %7s %6s %6s %6s %6s %12s\n",
                "point", "flow", "grants", "bytes", "parked", "drained",
                "dropped", "open", "retire", "abort", "stall", "span ns");
    for (const auto &kv : flows) {
        const FlowSummary &f = kv.second;
        std::printf("%5u %-22s %7" PRIu64 " %10" PRIu64 " %7" PRIu64
                    " %7" PRIu64 " %7" PRIu64 " %6" PRIu64 " %6" PRIu64
                    " %6" PRIu64 " %6" PRIu64 " %12.1f\n",
                    static_cast<unsigned>(std::get<0>(kv.first)),
                    flowName(kv.first).c_str(), f.issued, f.issued_bytes,
                    f.parked, f.drained, f.dropped, f.ledger_open,
                    f.ledger_retire, f.ledger_abort, f.stalls,
                    toNs(f.last - f.first));
    }
    std::printf("%zu flows\n", flows.size());

    // Per-switch, per-tier occupancy rollup (leaf-spine logs only:
    // single-switch fabrics emit no tier-charge records).
    // Key: (point, switch).
    std::map<std::pair<std::uint32_t, std::uint8_t>,
             std::array<std::uint64_t, core::kNumLinkTiers>> tiers;
    for (const Traced &t : recs)
        if (t.rec.eventType() == EventType::TierCharge &&
            t.rec.tier < core::kNumLinkTiers)
            tiers[{t.point, t.rec.sw}][t.rec.tier] += t.rec.arg;
    if (!tiers.empty()) {
        std::printf("\nper-tier occupancy charged (ns):\n");
        std::printf("%5s %-8s %14s %14s %14s %14s\n", "point", "switch",
                    "leaf-ingress", "trunk", "spine", "leaf-egress");
        for (const auto &kv : tiers) {
            auto ns = [&kv](core::LinkTier t) {
                return toNs(static_cast<Picoseconds>(
                    kv.second[static_cast<std::size_t>(t)]));
            };
            std::printf("%5u %-8u %14.1f %14.1f %14.1f %14.1f\n",
                        static_cast<unsigned>(kv.first.first),
                        static_cast<unsigned>(kv.first.second),
                        ns(core::LinkTier::LeafIngress),
                        ns(core::LinkTier::Trunk),
                        ns(core::LinkTier::Spine),
                        ns(core::LinkTier::LeafEgress));
        }
    }

    // Per-pool fair-share rollup (tenanted runs only: untenanted logs
    // leave `aux` zero on every record).
    struct PoolSummary
    {
        std::uint64_t grants = 0, bytes = 0;
        std::uint64_t deferred = 0, bypasses = 0;
        Picoseconds first = -1, last = 0;
        Samples complete_ns; ///< LedgerOpen -> LedgerRetire per flow
    };
    // Key: (point, aux = pool + 1).
    std::map<std::pair<std::uint32_t, std::uint32_t>, PoolSummary> pools;
    std::map<FlowKey, Picoseconds> open_at;
    for (const Traced &t : recs) {
        const Record &r = t.rec;
        if (r.aux == 0)
            continue;
        PoolSummary &p = pools[{t.point, r.aux}];
        switch (r.eventType()) {
        case EventType::GrantIssued:
            ++p.grants;
            p.bytes += r.arg;
            if (p.first < 0)
                p.first = r.at;
            p.last = r.at;
            break;
        case EventType::GrantDeferredByLimit: ++p.deferred; break;
        case EventType::PriorityBypass: ++p.bypasses; break;
        case EventType::LedgerOpen: open_at[flowOf(t)] = r.at; break;
        case EventType::LedgerRetire: {
            const auto it = open_at.find(flowOf(t));
            if (it != open_at.end()) {
                p.complete_ns.add(toNs(r.at - it->second));
                open_at.erase(it);
            }
            break;
        }
        case EventType::LedgerAbort: open_at.erase(flowOf(t)); break;
        default: break;
        }
    }
    if (!pools.empty()) {
        std::printf("\nper-pool fair-share rollup:\n");
        std::printf("%5s %-6s %7s %10s %8s %9s %8s %12s %12s\n", "point",
                    "pool", "grants", "bytes", "Gbps", "deferred", "bypass",
                    "complete p50", "complete p99");
        for (const auto &kv : pools) {
            const PoolSummary &p = kv.second;
            const double span_ns =
                p.first >= 0 ? toNs(p.last - p.first) : 0.0;
            // bits per ns == Gbps, over the pool's active grant span.
            const double gbps = span_ns > 0
                ? static_cast<double>(p.bytes) * 8.0 / span_ns
                : 0.0;
            std::printf("%5u %-6u %7" PRIu64 " %10" PRIu64 " %8.2f %9" PRIu64
                        " %8" PRIu64 " %12.1f %12.1f\n",
                        static_cast<unsigned>(kv.first.first),
                        static_cast<unsigned>(kv.first.second - 1), p.grants,
                        p.bytes, gbps, p.deferred, p.bypasses,
                        p.complete_ns.count()
                            ? p.complete_ns.percentile(50) : 0.0,
                        p.complete_ns.count()
                            ? p.complete_ns.percentile(99) : 0.0);
        }
    }
    return 0;
}

/** One parked grant resolved (or not) by a later drain/drop. */
struct ParkSpan
{
    FlowKey flow;
    Picoseconds parked_at = 0;
    Picoseconds resolved_at = 0;
    bool resolved = false;
    bool drained = false;
    Detail reason = Detail::None;
};

std::vector<ParkSpan>
parkSpans(const std::vector<Traced> &recs)
{
    // Parked grants drain FIFO per flow (HostStack keeps them in a
    // deque), so matching park->resolution in order is exact.
    std::map<FlowKey, std::deque<std::size_t>> open;
    std::vector<ParkSpan> spans;
    for (const Traced &tr : recs) {
        const Record &r = tr.rec;
        const EventType t = r.eventType();
        if (t == EventType::GrantParked) {
            ParkSpan s;
            s.flow = flowOf(tr);
            s.parked_at = r.at;
            open[s.flow].push_back(spans.size());
            spans.push_back(s);
            continue;
        }
        if (t != EventType::GrantDrained && t != EventType::GrantDropped)
            continue;
        auto it = open.find(flowOf(tr));
        if (it == open.end() || it->second.empty())
            continue; // drop of a never-parked grant (unknown, stale...)
        ParkSpan &s = spans[it->second.front()];
        it->second.pop_front();
        s.resolved = true;
        s.resolved_at = r.at;
        s.drained = t == EventType::GrantDrained;
        s.reason = r.detailCode();
    }
    return spans;
}

int
cmdParked(const std::vector<Traced> &recs, double min_ns)
{
    const auto spans = parkSpans(recs);
    std::size_t shown = 0;
    std::printf("%5s %-22s %14s %12s %-10s %s\n", "point", "flow",
                "parked at ns", "parked ns", "outcome", "why");
    for (const ParkSpan &s : spans) {
        const double ns =
            s.resolved ? toNs(s.resolved_at - s.parked_at) : -1;
        if (s.resolved && ns < min_ns)
            continue;
        ++shown;
        const auto point = static_cast<unsigned>(std::get<0>(s.flow));
        if (s.resolved)
            std::printf("%5u %-22s %14.3f %12.1f %-10s %s\n", point,
                        flowName(s.flow).c_str(), toNs(s.parked_at), ns,
                        s.drained ? "drained" : "dropped",
                        s.drained ? "-" : trace::toString(s.reason));
        else
            std::printf("%5u %-22s %14.3f %12s %-10s %s\n", point,
                        flowName(s.flow).c_str(), toNs(s.parked_at),
                        "never", "unresolved",
                        "still parked at end of log");
    }
    std::printf("%zu of %zu parked grants shown (min %.0f ns)\n", shown,
                spans.size(), min_ns);
    return 0;
}

int
cmdHisto(const std::vector<Traced> &recs)
{
    // Wasted grants by reason.
    std::map<std::uint8_t, std::uint64_t> drops;
    for (const Traced &t : recs)
        if (t.rec.eventType() == EventType::GrantDropped)
            ++drops[t.rec.detail];
    std::printf("wasted grants by reason:\n");
    if (drops.empty())
        std::printf("  (none)\n");
    for (const auto &kv : drops)
        std::printf("  %-20s %8" PRIu64 "\n",
                    trace::toString(static_cast<Detail>(kv.first)),
                    kv.second);

    // Park latency histogram.
    static const double kEdges[] = {100, 1e3, 1e4, 1e5, 1e6};
    static const char *kNames[] = {"< 100 ns",  "< 1 us",   "< 10 us",
                                   "< 100 us",  "< 1 ms",   ">= 1 ms"};
    std::uint64_t buckets[7] = {0};
    std::uint64_t unresolved = 0;
    for (const ParkSpan &s : parkSpans(recs)) {
        if (!s.resolved) {
            ++unresolved;
            continue;
        }
        const double ns = toNs(s.resolved_at - s.parked_at);
        std::size_t b = 0;
        while (b < 5 && ns >= kEdges[b])
            ++b;
        ++buckets[b];
    }
    std::printf("\npark latency:\n");
    for (std::size_t b = 0; b < 6; ++b)
        std::printf("  %-10s %8" PRIu64 "\n", kNames[b], buckets[b]);
    std::printf("  %-10s %8" PRIu64 "\n", "unresolved", unresolved);
    return 0;
}

/**
 * One link's inject -> disable -> repair lifecycle. A repair closes the
 * episode; corruption landing while the link is already down folds into
 * the open episode (its blocks are dropped before the corruption
 * check, so it cannot advance the phases).
 */
struct FaultEpisode
{
    std::uint32_t point = 0;
    std::uint16_t port = 0;
    Picoseconds injected_at = -1;
    Picoseconds disabled_at = -1;
    Picoseconds repaired_at = -1;
};

void
printEpisode(const FaultEpisode &e)
{
    char disable[24] = "-", repair[24] = "-";
    if (e.injected_at >= 0 && e.disabled_at >= 0)
        std::snprintf(disable, sizeof(disable), "%.1f",
                      toNs(e.disabled_at - e.injected_at));
    if (e.disabled_at >= 0 && e.repaired_at >= 0)
        std::snprintf(repair, sizeof(repair), "%.1f",
                      toNs(e.repaired_at - e.disabled_at));
    auto stamp = [](char *buf, std::size_t n, Picoseconds t) {
        if (t >= 0)
            std::snprintf(buf, n, "%.3f", toNs(t));
        else
            std::snprintf(buf, n, "-");
    };
    char inj[24], dis[24], rep[24];
    stamp(inj, sizeof(inj), e.injected_at);
    stamp(dis, sizeof(dis), e.disabled_at);
    stamp(rep, sizeof(rep), e.repaired_at);
    std::printf("%5u %-6u %14s %14s %14s %14s %14s\n",
                static_cast<unsigned>(e.point),
                static_cast<unsigned>(e.port), inj, dis, rep, disable,
                repair);
}

int
cmdFaults(const std::vector<Traced> &recs)
{
    // Key: (point, port).
    std::map<std::pair<std::uint32_t, std::uint16_t>, FaultEpisode> open;
    std::vector<FaultEpisode> episodes;
    std::uint64_t injections = 0, retries = 0, abandoned = 0;
    std::uint64_t switch_fails = 0, switch_failbacks = 0;
    for (const Traced &tr : recs) {
        const Record &r = tr.rec;
        const EventType t = r.eventType();
        const Detail d = r.detailCode();
        const std::pair<std::uint32_t, std::uint16_t> link{tr.point,
                                                           r.port};
        if (t == EventType::FaultInject) {
            if (d == Detail::SwitchFail) {
                ++switch_fails;
                continue;
            }
            ++injections;
            FaultEpisode &e = open[link];
            e.point = tr.point;
            e.port = r.port;
            if (e.injected_at < 0)
                e.injected_at = r.at;
            continue;
        }
        if (t != EventType::FaultRecover)
            continue;
        switch (d) {
        case Detail::LinkDisabled: {
            FaultEpisode &e = open[link];
            e.point = tr.point;
            e.port = r.port;
            if (e.disabled_at < 0)
                e.disabled_at = r.at;
            break;
        }
        case Detail::LinkRepaired: {
            FaultEpisode &e = open[link];
            e.point = tr.point;
            e.port = r.port;
            e.repaired_at = r.at;
            episodes.push_back(e);
            open.erase(link);
            break;
        }
        case Detail::ReadRetry: ++retries; break;
        case Detail::ReadAbandoned: ++abandoned; break;
        case Detail::SwitchFailback: ++switch_failbacks; break;
        default: break;
        }
    }

    std::printf("%5s %-6s %14s %14s %14s %14s %14s\n", "point", "port",
                "injected ns", "disabled ns", "repaired ns",
                "tt_disable ns", "tt_repair ns");
    for (const FaultEpisode &e : episodes)
        printEpisode(e);
    for (const auto &kv : open)
        printEpisode(kv.second); // unresolved at end of log
    std::printf("%zu fault episodes (%zu unresolved), %" PRIu64
                " corruption bursts\n",
                episodes.size() + open.size(), open.size(), injections);
    std::printf("host recovery: %" PRIu64 " read retries, %" PRIu64
                " reads abandoned\n",
                retries, abandoned);
    std::printf("replicated: %" PRIu64 " switch failures, %" PRIu64
                " failbacks\n",
                switch_fails, switch_failbacks);
    return 0;
}

/**
 * Fold every record into one 64-bit value: each of a record's four
 * 8-byte words is mixed into the running state by a splitmix64 step,
 * so any changed, added, dropped or reordered record moves the digest.
 */
int
cmdDigest(const std::vector<Traced> &recs)
{
    static_assert(sizeof(Record) == 4 * sizeof(std::uint64_t),
                  "a record digests as four words");
    std::uint64_t digest = 0;
    for (const Traced &t : recs) {
        std::uint64_t words[4];
        std::memcpy(words, &t.rec, sizeof(words));
        for (const std::uint64_t w : words) {
            std::uint64_t state = digest ^ w;
            digest = splitmix64(state);
        }
    }
    std::printf("trace: %zu records, digest %016" PRIx64 "\n", recs.size(),
                digest);
    return 0;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: edm_trace <dump|summary|parked|histo|faults|digest> <file> "
        "[--type NAME] [--port N]\n"
        "                 [--src N] [--dst N] [--id N] [--switch N] "
        "[--pool N] [--response]\n"
        "                 [--from NS] [--to NS] [--min-ns N]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string cmd = argv[1];
    const std::string path = argv[2];
    Filter filter;
    double min_ns = 0;
    for (int i = 3; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--response") {
            filter.response_only = true;
            continue;
        }
        const char *v = next();
        if (!v)
            return usage();
        if (a == "--type") {
            filter.type = typeFromName(v);
            if (filter.type < 0) {
                std::fprintf(stderr, "unknown event type '%s'\n", v);
                return 2;
            }
        } else if (a == "--port") {
            filter.port = std::atol(v);
        } else if (a == "--src") {
            filter.src = std::atol(v);
        } else if (a == "--dst") {
            filter.dst = std::atol(v);
        } else if (a == "--id") {
            filter.id = std::atol(v);
        } else if (a == "--switch") {
            filter.sw = std::atol(v);
        } else if (a == "--pool") {
            filter.pool = std::atol(v);
        } else if (a == "--from") {
            filter.from_ns = std::atof(v);
        } else if (a == "--to") {
            filter.to_ns = std::atof(v);
        } else if (a == "--min-ns") {
            min_ns = std::atof(v);
        } else {
            return usage();
        }
    }

    trace::LogReader reader;
    if (!reader.open(path)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     reader.error().c_str());
        return 1;
    }
    // Points are counted before filtering, so a filtered view keeps
    // each record's point.
    std::vector<Traced> recs;
    std::uint32_t point = 0;
    Record r;
    while (reader.next(r)) {
        if (r.eventType() == EventType::PointStart)
            ++point;
        if (filter.pass(r))
            recs.push_back({r, point});
    }
    if (!reader.error().empty()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     reader.error().c_str());
        return 1;
    }

    if (cmd == "dump")
        return cmdDump(recs);
    if (cmd == "summary")
        return cmdSummary(recs);
    if (cmd == "parked")
        return cmdParked(recs, min_ns);
    if (cmd == "histo")
        return cmdHisto(recs);
    if (cmd == "faults")
        return cmdFaults(recs);
    if (cmd == "digest")
        return cmdDigest(recs);
    return usage();
}
