/**
 * @file
 * Hierarchical fair-share pool tree (PR 10, docs/FAIR_SHARE.md).
 *
 * The scheduler's demand-lifecycle ledger (PR 4) and wire-charged
 * occupancy (PR 5) give honest per-flow byte and line-time accounting;
 * this module builds tenancy on top: a pool tree
 * (root → pools → tenant hosts → flows) that arbitrates grant
 * issuance between pools instead of treating all demand as one
 * anonymous queue. The design model is YTsaurus's hierarchical
 * fair-share tree — per-pool weights, guaranteed floors and hard caps
 * turned into a recursive (water-filling) share computation over
 * exactly the demand ledger this scheduler already maintains.
 *
 * One tree per scheduler shard. All state is shard-local and advanced
 * only from that shard's scheduler code; the only
 * cross-shard traffic is the fixed-latency trunk coordination note,
 * which now carries the granting pool's id and line-time charge so a
 * client's home shard sees its tenants' cross-leaf consumption too.
 *
 * Determinism rules (pinned by tests/test_fair_share.cpp):
 *  - shares are recomputed from pool demand only, in pool-index order;
 *  - virtual time advances by charged line-time / effective share, in
 *    grant-issue order — a pure function of the event sequence;
 *  - the limit window lives on an absolute simulation-time grid, so a
 *    pool's deferral instant is a pure function of simulated time;
 *  - a pool waking from idle is capped to the minimum active virtual
 *    time (no credit hoarding, no dependence on idle wall-time).
 */

#ifndef EDM_CORE_FAIR_SHARE_HPP
#define EDM_CORE_FAIR_SHARE_HPP

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"
#include "core/config.hpp"

namespace edm {
namespace core {

/**
 * The per-shard pool tree. Pool indices are positions in
 * `EdmConfig::tenants.pools`, identical on every shard; one implicit
 * `default` pool for unmapped hosts is appended last.
 */
class FairShareTree
{
  public:
    explicit FairShareTree(const EdmConfig &cfg);

    /** Number of pools, implicit default pool included. */
    std::size_t poolCount() const { return pools_.size(); }

    /** Pool owning client host @p host (the implicit pool if unmapped). */
    int poolOf(std::uint16_t host) const;

    const TenantPoolSpec &spec(int pool) const
    {
        return pools_[static_cast<std::size_t>(pool)].spec;
    }

    bool latencySensitive(int pool) const
    {
        return spec(pool).latency_sensitive;
    }

    // ---- demand ledger hooks -------------------------------------

    /** Ledger demanded bytes grew (notification / buffered request). */
    void addDemand(int pool, Bytes bytes);

    /**
     * Ledger entry left without being fully granted (fault abort, or a
     * retirement that observed fewer bytes than demanded): the
     * never-granted remainder returns to the pool's backlog accounting.
     */
    void releaseDemand(int pool, Bytes bytes);

    /**
     * A grant was issued against this pool: @p granted ledger bytes,
     * charged @p line_time of port occupancy at matching time @p now.
     * Advances the pool's virtual time and the limit window.
     */
    void chargeGrant(int pool, Bytes granted, Picoseconds line_time,
                     Picoseconds now);

    /**
     * A remote shard issued a cross-leaf grant on behalf of one of our
     * client hosts (delivered via the trunk coordination note): charge
     * the usage without touching local demand.
     */
    void chargeRemote(int pool, Picoseconds line_time, Picoseconds now);

    // ---- arbitration ---------------------------------------------

    /**
     * True when the pool's charged line-time inside the current limit
     * window already meets limit x window — its demands must not be
     * granted until the window rolls.
     */
    bool overLimit(int pool, Picoseconds now) const;

    /** First instant the current limit window has rolled over. */
    Picoseconds windowEnd(Picoseconds now) const;

    /**
     * Virtual time: cumulative charged line-time divided by the pool's
     * effective share. Lower = more deserving of the next grant.
     */
    double vtime(int pool) const
    {
        return pools_[static_cast<std::size_t>(pool)].vtime;
    }

    /**
     * Recompute every active pool's effective share by water-filling
     * (min_share floors first, then limit caps, weight-proportional
     * remainder). Appends a {pool, share_ppm} entry to @p changed for
     * each pool whose quantized share differs from the last reported
     * value — the caller logs exactly those, keeping the decision
     * sequence in the event log stable and bounded.
     */
    struct ShareChange
    {
        int pool;
        std::uint32_t share_ppm;
    };
    void recomputeShares(std::vector<ShareChange> &changed);

    /**
     * True the first time a pool is deferred by its limit inside one
     * window (the caller logs that one deferral, not every matching
     * pass that re-observes it).
     */
    bool noteDeferred(int pool, Picoseconds now);

    // ---- introspection (tests, trace rollups) --------------------

    Bytes demandedBacklog(int pool) const
    {
        return pools_[static_cast<std::size_t>(pool)].backlog;
    }

    Bytes grantedBytes(int pool) const
    {
        return pools_[static_cast<std::size_t>(pool)].granted_bytes;
    }

    std::uint64_t grantsIssued(int pool) const
    {
        return pools_[static_cast<std::size_t>(pool)].grants;
    }

    Picoseconds chargedLineTime(int pool) const
    {
        return pools_[static_cast<std::size_t>(pool)].used_ps;
    }

    double effectiveShare(int pool) const
    {
        return pools_[static_cast<std::size_t>(pool)].share;
    }

  private:
    struct Pool
    {
        TenantPoolSpec spec;
        Bytes backlog = 0;          ///< demanded - granted (live entries)
        Bytes granted_bytes = 0;    ///< cumulative granted
        std::uint64_t grants = 0;   ///< cumulative grants issued
        Picoseconds used_ps = 0;    ///< cumulative charged line-time
        double vtime = 0.0;         ///< used / effective share
        double share = 0.0;         ///< effective share, last recompute
        std::uint32_t last_ppm = 0xffffffffu; ///< last logged share
        std::int64_t window = -1;   ///< current limit-window index
        Picoseconds window_used = 0;///< charge inside current window
        std::int64_t deferred_window = -1; ///< last window logged deferred
    };

    void rollWindow(Pool &p, Picoseconds now);
    double minActiveVtime() const;

    std::vector<Pool> pools_;
    Picoseconds window_ps_;
};

} // namespace core
} // namespace edm

#endif // EDM_CORE_FAIR_SHARE_HPP
