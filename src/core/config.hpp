/**
 * @file
 * EDM fabric configuration and the cycle-cost constants of the paper.
 *
 * Cycle counts come from §3.2.1 (host), §3.2.2 (switch) and Figure 5;
 * they are shared between the cycle-level simulator and the analytic
 * Table-1 model so the two cannot drift apart.
 */

#ifndef EDM_CORE_CONFIG_HPP
#define EDM_CORE_CONFIG_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"

namespace edm {

namespace trace {
class EventLog;
} // namespace trace

namespace core {

/** Scheduling policy for the central scheduler's priorities (§3.1.1). */
enum class Priority
{
    Fcfs, ///< notification time — optimal for light-tailed workloads
    Srpt, ///< remaining bytes — optimal for heavy-tailed workloads
};

/**
 * Fabric wiring description (PR 9). `Single` is the historical
 * one-switch fabric and the default: the fabric constructs exactly the
 * legacy datapath and every schedule is reproduced bit-exactly.
 * `LeafSpine` splits the hosts across ceil(num_nodes / hosts_per_leaf)
 * leaf switches joined by a contention-free spine through trunk_width
 * ECMP lanes per direction; see src/net/topology.hpp and
 * docs/TOPOLOGY.md for the wiring model, per-tier occupancy charging
 * and the sharded-scheduler ownership rules.
 */
struct TopologySpec
{
    enum class Tiers
    {
        Single,   ///< one switch, all hosts attached (legacy)
        LeafSpine ///< leaf switches + spine trunks
    };

    Tiers tiers = Tiers::Single;

    /** Hosts per leaf switch (LeafSpine; last leaf may be partial). */
    std::size_t hosts_per_leaf = 0;

    /** ECMP trunk lanes per direction between a leaf and the spine. */
    std::size_t trunk_width = 1;

    /** Seed mixed into the deterministic ECMP lane hash. */
    std::uint64_t ecmp_seed = 1;
};

/**
 * One pool of the hierarchical fair-share tree (PR 10): a named group
 * of client hosts arbitrated as a unit when `EdmConfig::fair_share` is
 * on. Shares are fractions of one saturated link's line-time — the
 * natural unit for the single-bottleneck incasts the isolation suite
 * exercises; see docs/FAIR_SHARE.md for the share math.
 */
struct TenantPoolSpec
{
    std::string name;

    /** Client-host range [host_lo, host_hi], inclusive both ends. */
    std::uint16_t host_lo = 0;
    std::uint16_t host_hi = 0;

    /** Relative weight for the proportional split among active pools. */
    double weight = 1.0;

    /** Guaranteed floor (fraction of link line-time), 0 = none. */
    double min_share = 0.0;

    /** Hard cap (fraction of link line-time), 1 = unlimited. */
    double limit = 1.0;

    /**
     * Strict-priority bypass: demands of this pool win arbitration
     * before any fair-share ranking of the other pools. For small
     * latency-sensitive tenants whose tail matters more than their
     * (negligible) bandwidth share.
     */
    bool latency_sensitive = false;
};

/**
 * The tenant → pool mapping loaded from a scenario's `[tenants]`
 * section. Hosts not covered by any pool fall into an implicit
 * `default` pool the FairShareTree appends. Empty (default) means
 * untenanted: with `fair_share` on the whole fabric is one pool and
 * arbitration is a no-op.
 */
struct TenantSpec
{
    std::vector<TenantPoolSpec> pools;

    bool active() const { return !pools.empty(); }

    /** Pool index owning @p host, or -1 (implicit default pool). */
    int
    poolOf(std::uint16_t host) const
    {
        for (std::size_t i = 0; i < pools.size(); ++i) {
            if (host >= pools[i].host_lo && host <= pools[i].host_hi)
                return static_cast<int>(i);
        }
        return -1;
    }
};

/** Host and switch datapath cycle costs (1 cycle = one PCS block slot). */
struct CycleCosts
{
    // ---- host TX (§3.2.1) ----
    int host_gen_request = 2;   ///< read msg queue + create /N/ or RREQ
    int host_read_grant = 4;    ///< grant queue crosses RX→TX domains
    int host_gen_data = 3;      ///< state table + data buffer + block

    // ---- host RX (§3.2.1) ----
    int host_proc_grant = 2;    ///< parse + add to grant queue
    int host_proc_rreq_extra = 1; ///< forward RREQ to memory controller
    int host_proc_data = 3;     ///< parse + extract address + deliver

    // ---- switch (§3.2.2) ----
    int sw_classify = 1;        ///< block type check on every RX block
    int sw_insert_notif = 2;    ///< ordered-list insert
    int sw_gen_grant = 1;       ///< create a /G/ block
    int sw_forward = 4;         ///< RX→TX clock-domain crossing
    int sw_pim_iteration = 3;   ///< one priority-PIM iteration (§3.1.2)

    // ---- standard PCS pipeline, charged per crossing ----
    int pcs_tx = 2;             ///< encoder + scrambler latency
    int pcs_rx = 2;             ///< descrambler + decoder latency
};

/** Full fabric configuration. */
struct EdmConfig
{
    std::size_t num_nodes = 2;      ///< hosts attached to the switch
    Gbps link_rate{25.0};           ///< per-port line rate (testbed: 25G)
    Picoseconds cycle = kPcsBlockSlot; ///< host/switch PHY clock period

    /**
     * Scheduler clock. The FPGA prototype clocks the scheduler with the
     * PHY (390.625 MHz); the ASIC synthesis runs it at 3 GHz (§4.1).
     */
    double scheduler_ghz = 1.0 / (toNs(kPcsBlockSlot));

    Bytes chunk_bytes = 256;        ///< max bytes granted at once (§4.3)
    int max_notifications = 3;      ///< X, per source–destination (§3.1.2)
    Priority priority = Priority::Srpt;

    /** Read-timeout guard against memory-node failure (§3.3). 0 = off. */
    Picoseconds read_timeout = 0;

    /**
     * Errors tolerated on an uplink before the PHY monitor declares the
     * link damaged and disables it (§3.3). Fault campaigns lower it to
     * tune detection sensitivity (time-to-disable) without needing
     * longer corruption bursts.
     */
    std::uint64_t link_error_threshold = 16;

    /**
     * Bounded host-side read retry (§3.3 availability). When > 0, a
     * read that hits the read_timeout guard — or whose flow the
     * scheduler retired through a fault abort — is re-issued as a fresh
     * RREQ up to this many times, with exponential backoff
     * (read_retry_base << attempt) before each re-issue. The reported
     * completion latency spans the whole recovery (measured from the
     * original post). 0 (default) keeps the legacy semantics bit-exact:
     * a timed-out read dies as a NULL response. Only reads retry — RMW
     * is not idempotent, and writes have no timeout guard.
     */
    int read_retry_limit = 0;

    /** Backoff base for read retries (attempt n waits base << n). */
    Picoseconds read_retry_base = 2 * kMicrosecond;

    /**
     * Inert: nothing reads this member. The demand-lifecycle ledger
     * (core::Scheduler) is the only grant accounting, and the legacy
     * mode this flag used to select is gone. It survives only because
     * bench/edm/workloads.hpp still assigns it; the "Next benchmark
     * change" list in ROADMAP.md deletes both.
     */
    bool strict_grant_accounting = false;

    /**
     * Charge port-occupancy timers the chunk's exact wire line-time
     * instead of the raw payload serialization `l/B`. A granted chunk
     * travels as 66-bit blocks — /MS/, an address block for writes, one
     * data block per 8 payload bytes, /MT/ — so a 256 B write chunk
     * occupies 35 block slots = 89.6 ns at 25G, ~9% more than the
     * 81.92 ns the legacy charge reserves. That systematic under-charge
     * is what backs up egress staging under incast and lets /G/ grants
     * outrun their flow's forwarded request. On, the scheduler (and the
     * flow-level model's chunk serialization) charge the exact block
     * count from core/occupancy.hpp, pacing grants at the true wire
     * rate. Off by default: the payload charge reproduces the historical
     * schedules bit-exactly. Turning it on changes every schedule — see
     * docs/REBASELINE.md for the golden-rebaseline procedure and
     * docs/WIRE_FORMAT.md for the arithmetic.
     */
    bool wire_charged_occupancy = false;

    /**
     * Simulator (not hardware) knob: upper bound on the block-train
     * length — the number of back-to-back mid-message data blocks a TX
     * pump may emit and deliver through a single event. 1 restores the
     * one-event-per-block hot path (the timing-equivalence baseline);
     * the fabric additionally caps trains at hop-latency/cycle + 2 so a
     * train's delivery event never fires before its last block left the
     * transmitter (keeping mid-train fault injection exact). Observable
     * timing is identical for every value, with either
     * max_frame_train_blocks (tests/test_block_train.cpp,
     * tests/test_train_equivalence.cpp).
     */
    std::size_t max_train_blocks = 64;

    /**
     * Simulator knob: upper bound on the *frame* block-train length —
     * back-to-back L2 frame blocks (between frame start and the /Tn/
     * boundary) emitted and delivered through a single event while the
     * memory stream cannot claim their slots. 1 restores per-block
     * frame emission (the timing-equivalence baseline); the same
     * hop-latency safety cap as max_train_blocks applies. Observable
     * timing is identical for every value, with either max_train_blocks
     * (tests/test_frame_train.cpp, tests/test_train_equivalence.cpp).
     */
    std::size_t max_frame_train_blocks = 64;

    /**
     * Fabric wiring (PR 9). Defaults to the single-switch fabric, which
     * constructs today's datapath byte-for-byte; every multi-tier
     * behavior is gated behind this spec. LeafSpine shards the
     * scheduler per leaf and routes cross-leaf traffic over the spine
     * trunks — see docs/TOPOLOGY.md and tools/rebaseline.sh for the
     * cluster-scale golden tier.
     */
    TopologySpec topology;

    /**
     * Hierarchical fair-share grant arbitration (PR 10,
     * docs/FAIR_SHARE.md). On, each scheduler shard builds a
     * core::FairShareTree over `tenants` and arbitrates matching by
     * pool: latency-sensitive pools bypass with strict priority, the
     * rest are served in virtual-time order with water-filled
     * weight/min_share/limit shares over ledger-demanded bytes. Off
     * (default) constructs no tree and reproduces every historical
     * schedule bit-exactly.
     */
    bool fair_share = false;

    /**
     * Epoch window for per-pool `limit` enforcement, in nanoseconds:
     * a pool whose charged line-time inside the current window exceeds
     * limit x window is deferred until the window rolls (the grid is
     * absolute simulation time, so enforcement is deterministic).
     * Only consulted when fair_share is on.
     */
    std::int64_t fair_share_window_ns = 20000;

    /**
     * Tenant pools for fair_share (loaded from a scenario's [tenants]
     * section). Empty: one implicit pool, arbitration is a no-op.
     */
    TenantSpec tenants;

    /**
     * Layer-2 forwarding pipeline latency for coexisting non-memory
     * frames (parser + match-action + packet manager + crossbar;
     * Table 1 caption). Memory traffic never pays this.
     */
    Picoseconds l2_pipeline = 400 * kNanosecond;

    /**
     * Structured event log of fabric decisions (grants, ledger
     * lifecycle, trains, preemption, faults, id-wrap stalls). Not
     * owned; null disables logging — every emit site guards on this
     * pointer, and the log never schedules events or touches
     * simulation state, so attaching one cannot perturb a schedule.
     * See docs/EVENT_LOG.md.
     */
    trace::EventLog *event_log = nullptr;

    CycleCosts costs{};

    /** Scheduler clock period in picoseconds. */
    Picoseconds
    schedulerCycle() const
    {
        return static_cast<Picoseconds>(1000.0 / scheduler_ghz);
    }
};

} // namespace core
} // namespace edm

#endif // EDM_CORE_CONFIG_HPP
