/**
 * @file
 * EDM's centralized in-network memory traffic scheduler (paper §3.1).
 *
 * The scheduler lives in the switch PHY. It keeps one demand notification
 * queue per destination port (bounded hardware ordered lists), learns
 * demands implicitly from RREQ/RMWREQ messages (which it buffers — the
 * buffered request later doubles as the first grant for the response) and
 * explicitly from /N/ blocks for WREQ, and issues chunk grants via a
 * priority-augmented Parallel Iterative Matching over free ports.
 *
 * Timing model: each PIM iteration costs 3 scheduler clock cycles
 * (§3.1.2); a maximal matching takes ~log2(N) iterations. A grant for l
 * bytes marks both ports busy and releases them l/B later (§3.1.1 step 7)
 * so consecutive chunks arrive back-to-back at the switch.
 *
 * Leaf-spine sharding (PR 9, docs/TOPOLOGY.md): under a multi-tier
 * topology each leaf switch owns one Scheduler *shard*. A shard runs
 * the full matching machinery but proposes only for its own hosts'
 * downlinks ([dst_lo_, dst_hi_)); remote ports it has granted are
 * tracked in its local busy vectors as before, while reservations made
 * by *other* shards arrive as coordination notes one trunk traversal
 * later and land in busy-until tables (remote_src/dst_busy_until_,
 * trunk lane timers) that phase 1 additionally consults. With a null
 * topology every new table is empty and every new check short-circuits,
 * reproducing single-switch schedules bit-exactly.
 *
 * Simulation cost: a matching pass costs what changed, not N. The
 * scheduler keeps a *rescan set*, a bitset of local destination ports
 * that may hold an eligible demand, and phase 1 walks only its marked
 * ports in ascending order, so it builds the candidate list a scan of
 * every port would. Invariant: at the end of a pass no unmarked free
 * port holds an eligible demand, and every event that can make a demand
 * eligible (a new demand, a retired pair head, a port release, a remote
 * reservation or limit window expiring) marks the queues it affects.
 * The rescan set is a simulator device with no timing meaning: the
 * §3.1.2 per-iteration charges are unchanged.
 */

#ifndef EDM_CORE_SCHEDULER_HPP
#define EDM_CORE_SCHEDULER_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/fair_share.hpp"
#include "core/message.hpp"
#include "core/occupancy.hpp"
#include "core/wire.hpp"
#include "hw/ordered_list.hpp"
#include "sim/event_queue.hpp"

namespace edm {
namespace net {
class Topology;
} // namespace net

namespace core {

/** A grant decision handed to the switch datapath for delivery. */
struct GrantAction
{
    /** Port the grant must be delivered to (the granted sender). */
    NodeId target = 0;

    /** Chunk bytes granted. */
    Bytes chunk = 0;

    /** Grant block to transmit (for WREQ and non-first RRES chunks). */
    std::optional<ControlInfo> grant_block;

    /**
     * Buffered RREQ/RMWREQ to forward instead of a /G/ block — the
     * implicit first grant of an RRES demand (§3.1.1 step 4).
     */
    std::optional<MemMessage> forward_request;
};

/**
 * Identity of a grant-addressable flow: the data sender, the receiver,
 * the message id and the direction. Hosts number requests per
 * destination, so host A writing to B while serving B's read can put a
 * WREQ and an RRES in flight under the same (src, dst, id) — only the
 * direction bit (which every /G/ and /MS/ carries, as the response
 * flag resp. the WREQ-vs-RRES message type) tells them apart.
 */
struct FlowKey
{
    NodeId src = 0; ///< data sender (memory node for RRES)
    NodeId dst = 0; ///< data receiver
    MsgId id = 0;
    bool response = false; ///< RRES flow (read/RMW response data)
};

/** Demand-lifecycle accounting statistics. */
struct LedgerStats
{
    /** Chunk completions (/MT/, /MST/) the datapath reported. */
    std::uint64_t chunks_observed = 0;

    /** Demands retired by an observed final chunk. */
    std::uint64_t retired_by_completion = 0;

    /** Demands retired by a fault abort (disabled sender link). */
    std::uint64_t retired_by_abort = 0;

    /** Grants withheld because the demand was retired. */
    std::uint64_t grants_suppressed = 0;

    /** Queued bytes reclaimed from retired demands. */
    std::uint64_t stale_bytes_reclaimed = 0;

    /** Ledger entries evicted by message-id reuse before retirement. */
    std::uint64_t entries_evicted = 0;
};

/**
 * The central scheduler. Owned by the switch; driven by the shared event
 * queue for busy-timer releases and matching latency.
 *
 * Demand bookkeeping is an explicit lifecycle ledger: every demand
 * creates an entry keyed by its FlowKey, grants debit the entry, and
 * the entry *retires* when the switch datapath reports the message's
 * final chunk (/MT/ with the last-chunk flag, or a fault abort) — not
 * when byte arithmetic happens to reach zero. Retirement is
 * authoritative: a retired demand is dropped from the queues, its
 * ports are never reserved for a grant nobody will answer, and the
 * matching loop moves on within the same pass.
 */
class Scheduler
{
  public:
    using GrantSink = std::function<void(const GrantAction &)>;

    /**
     * Observer of fault-aborted flows: called once per ledger entry
     * abortPort() retires, *after* the ledger sweep completes (so the
     * sink may re-enter the scheduler — e.g. a host re-issuing the read
     * opens a fresh demand). Installed by the fabric to fail-fast host
     * retries (EdmConfig::read_retry_limit) instead of waiting out the
     * read timeout; never installed (and free) otherwise.
     */
    using AbortSink = std::function<void(const FlowKey &)>;

    /**
     * Cross-shard coordination note (leaf-spine only): this shard just
     * reserved @p port's uplink for granted data (@p dst_side false) or
     * its downlink for a request forward (@p dst_side true) until
     * @p release, over trunk lane @p lane. The fabric delivers the note
     * to shard @p leaf one trunk traversal later, where it lands as
     * noteRemoteGrant() resp. noteRemoteForward(). @p pool and
     * @p charge carry the fair-share tenancy of the decision (pool id
     * of the granted flow and the line-time charged): the remote shard
     * books them via noteRemotePoolCharge() so each shard's tree sees
     * its tenants' cross-leaf consumption too. pool is -1 (and charge
     * ignored) when fair_share is off.
     */
    using RemoteNoteSink =
        std::function<void(std::uint16_t leaf, NodeId port,
                           std::size_t lane, Picoseconds release,
                           bool dst_side, int pool, Picoseconds charge)>;

    /**
     * @p topo / @p leaf make this instance one leaf's scheduler shard:
     * it proposes only for that leaf's hosts and coordinates cross-leaf
     * reservations via the note sink. Defaults construct the classic
     * whole-fabric scheduler (and edm_model's flow-level clone).
     */
    Scheduler(const EdmConfig &cfg, EventQueue &events, GrantSink sink,
              const net::Topology *topo = nullptr,
              std::uint16_t leaf = 0);

    /** Install the fault-abort observer (see AbortSink). */
    void
    setAbortSink(AbortSink sink)
    {
        abort_sink_ = std::move(sink);
    }

    /** Install the cross-shard note sink (see RemoteNoteSink). */
    void
    setRemoteNoteSink(RemoteNoteSink sink)
    {
        note_sink_ = std::move(sink);
    }

    /**
     * A remote shard granted local host @p src's uplink until
     * @p release (data heading up trunk lane @p lane). Arrives one
     * trunk traversal after the grant was issued.
     */
    void noteRemoteGrant(NodeId src, std::size_t lane,
                         Picoseconds release);

    /**
     * A remote shard forwarded a buffered RREQ/RMWREQ to local host
     * @p dst, reserving its downlink until @p release (the request
     * arrives down trunk lane @p lane).
     */
    void noteRemoteForward(NodeId dst, std::size_t lane,
                           Picoseconds release);

    /**
     * A remote shard charged @p charge of line-time to fair-share pool
     * @p pool on behalf of a cross-leaf grant (carried on the same
     * coordination note as the busy reservation). No-op when this
     * shard runs without a fair-share tree or @p pool is -1.
     */
    void noteRemotePoolCharge(int pool, Picoseconds charge);

    /**
     * Register an explicit WREQ demand (arrival of an /N/ block).
     * Returns false if the per-port notification queue is full — with
     * hosts honouring the X cap this cannot happen (asserted in tests).
     */
    bool addWriteDemand(const ControlInfo &notify);

    /**
     * Register an implicit RRES demand from a received RREQ/RMWREQ.
     * The request is buffered and forwarded to the memory node as the
     * first grant. @p response_bytes is the RRES size implied by the
     * request (read length, or opcode-derived for RMW).
     */
    bool addReadDemand(const MemMessage &request, Bytes response_bytes);

    /**
     * Datapath report: a granted chunk of flow (src→dst, id) carrying
     * @p bytes passed the switch; @p response is the direction bit
     * (true for RRES data, false for WREQ data — the /MS/ header's
     * message type) and @p last_chunk marks the message's final chunk.
     * Retires the ledger entry on the final chunk and reclaims any
     * residual queued demand for the flow, so it can never be granted
     * again. Pure bookkeeping — schedules no events.
     */
    void onChunkForwarded(NodeId src, NodeId dst, MsgId id, bool response,
                          Bytes bytes, bool last_chunk);

    /**
     * Fault report: @p port's uplink was disabled. Every demand whose
     * data sender is @p port can no longer be answered; retire its
     * ledger entries, drop the queued demands and stop granting them.
     */
    void abortPort(NodeId port);

    /** Total demands currently queued (all ports). */
    std::size_t pendingDemands() const;

    /** Live (unretired) ledger entries. */
    std::size_t pendingLedgerEntries() const { return ledger_.size(); }

    /** A live flow's byte lifecycle, for diagnostics and tests. */
    struct FlowBytes
    {
        Bytes demanded = 0; ///< bytes the demand advertised
        Bytes granted = 0;  ///< bytes debited by issued grants
        Bytes observed = 0; ///< chunk bytes seen through the datapath
    };

    /** Byte lifecycle of flow @p key; nullopt once retired/untracked. */
    std::optional<FlowBytes> flowBytes(const FlowKey &key) const;

    /** Demand-lifecycle accounting counters. */
    const LedgerStats &ledgerStats() const { return ledger_stats_; }

    /** True if port @p p's uplink (TX side) is reserved by a grant. */
    bool srcBusy(NodeId p) const { return src_busy_.at(p); }

    /** True if port @p p's downlink (RX side) is reserved by a grant. */
    bool dstBusy(NodeId p) const { return dst_busy_.at(p); }

    /** Grants issued so far (statistics). */
    std::uint64_t grantsIssued() const { return grants_issued_; }

    /** Average PIM iterations per matching pass (statistics). */
    double avgIterations() const;

    /**
     * Picoseconds of occupancy this shard charged per link tier
     * (LinkTier codes index the array; all zero outside leaf-spine).
     */
    const std::array<std::uint64_t, kNumLinkTiers> &
    tierChargedPs() const
    {
        return tier_charged_ps_;
    }

    /**
     * This shard's fair-share pool tree, or null when
     * `EdmConfig::fair_share` is off (tests, trace rollups).
     */
    const FairShareTree *fairShareTree() const { return fair_tree_.get(); }

  private:
    struct Demand
    {
        NodeId src; ///< sender of the granted data (memory node for RRES)
        NodeId dst; ///< receiver
        MsgId id;
        Bytes remaining;
        Picoseconds notified;
        std::uint64_t seq; ///< per-pair FIFO ordering
        bool response = false; ///< RRES demand (grants carry the flag)
        std::optional<MemMessage> buffered_request; ///< RREQ awaiting fwd
        int pool = -1; ///< fair-share pool of the client host (-1 = off)
    };

    using Queue = hw::OrderedList<std::int64_t, Demand>;

    /** Ledger entry: a demand's byte lifecycle. */
    using LedgerEntry = FlowBytes;

    /** A destination port's phase-1 proposal. */
    struct Candidate
    {
        NodeId dst;
        NodeId src;
        std::uint64_t seq;
        std::int64_t prio;
        int pool = -1;
        bool bypass = false;
        double vt = 0.0;
        /** Bypass out-ranked a competing non-bypass demand. */
        bool bypass_decided = false;
    };

    EdmConfig cfg_;
    EventQueue &events_;
    GrantSink sink_;
    AbortSink abort_sink_;
    RemoteNoteSink note_sink_;

    /** Null = whole-fabric scheduler; set = one leaf's shard. */
    const net::Topology *topo_ = nullptr;
    std::uint16_t leaf_ = 0;

    /** Destination ports this shard proposes for: [dst_lo_, dst_hi_). */
    NodeId dst_lo_ = 0;
    NodeId dst_hi_ = 0;

    std::vector<std::unique_ptr<Queue>> queues_; ///< one per dst port
    // Uplink (source) and downlink (destination) reservations are
    // independent resources: a node may send and receive concurrently
    // (full duplex); PIM matches switch ingresses to egresses.
    std::vector<bool> src_busy_;
    std::vector<bool> dst_busy_;

    // Leaf-spine remote views (empty / never consulted when topo_ is
    // null). Busy-until timestamps rather than bools: notes arrive one
    // trunk traversal after the remote decision, so a stale release
    // must be recognizable (entry > now means busy, no unset needed).
    std::vector<Picoseconds> remote_src_busy_until_;
    std::vector<Picoseconds> remote_dst_busy_until_;

    /** Trunk lane busy timers: [0]=up (leaf->spine), [1]=down. */
    std::array<std::vector<Picoseconds>, 2> lane_busy_until_;

    std::array<std::uint64_t, kNumLinkTiers> tier_charged_ps_{};

    /**
     * Live seqs per (src,dst) pair in notification order, for in-order
     * service; indexed src * N + dst.
     */
    std::vector<std::vector<std::uint64_t>> pairs_;

    /** 64-bit words per port bitset. */
    std::size_t words_ = 0;

    /**
     * Per source port: bitset of destination ports holding a live pair
     * from it (words_ words at src * words_).
     */
    std::vector<std::uint64_t> pair_dsts_;

    /** Rescan set: ports that may hold an eligible demand. */
    std::vector<std::uint64_t> rescan_;

    /** Per-pass scratch: phase-1 proposals and phase-2 winners. */
    std::vector<Candidate> candidates_;
    std::vector<Candidate> winners_;

    /** Index into winners_ per source port (-1 = none this iteration). */
    std::vector<std::int32_t> winner_of_src_;

    /**
     * Live demand lifecycles, keyed by packKey(). An entry exists from
     * demand registration until retirement (observed final chunk or
     * fault abort) — a flow whose completion the datapath never reports
     * stays resident, which is exactly the stranded-flow diagnostic
     * pendingLedgerEntries() and the incast stress report as "stranded".
     */
    std::unordered_map<std::uint64_t, LedgerEntry> ledger_;
    LedgerStats ledger_stats_;

    std::uint64_t next_seq_ = 0;
    std::uint64_t grants_issued_ = 0;
    std::uint64_t matching_passes_ = 0;
    std::uint64_t matching_iterations_ = 0;
    bool matching_scheduled_ = false;

    /** Fair-share pool tree (null unless EdmConfig::fair_share). */
    std::unique_ptr<FairShareTree> fair_tree_;

    /** Pending limit-window wake-up instant (-1 = none scheduled). */
    Picoseconds limit_wake_at_ = -1;

    /** Scratch for FairShareTree::recomputeShares (avoids churn). */
    std::vector<FairShareTree::ShareChange> share_changes_;

    std::int64_t priorityOf(const Demand &d) const;
    bool insertDemand(Demand d);
    bool isPairHead(const Demand &d) const;
    void retirePairEntry(const Demand &d);

    /** True when demand @p dem may be granted now (free ports, head). */
    bool eligible(const Demand &dem) const;

    /**
     * Phase 1 for destination port @p d: push its proposal, if any, onto
     * candidates_ (setting @p limit_deferred when a fair-share limit held
     * a demand back). Returns false when @p d may leave the rescan set:
     * it is not local, it is busy, or it holds no eligible demand.
     */
    bool propose(NodeId d, bool &limit_deferred);

    void scheduleMatching();
    void runMatching();
    void issueGrant(NodeId dst_port, Demand &d, Picoseconds when);

    static FlowKey
    keyOf(const Demand &d)
    {
        return FlowKey{d.src, d.dst, d.id, d.response};
    }

    /**
     * FlowKey packed as src 16 | dst 16 | id 8 | dir 1: ascending packed
     * keys order flows by (src, dst, id, direction).
     */
    static std::uint64_t
    packKey(const FlowKey &k)
    {
        return static_cast<std::uint64_t>(k.src) << 25 |
            static_cast<std::uint64_t>(k.dst) << 9 |
            static_cast<std::uint64_t>(k.id) << 1 |
            static_cast<std::uint64_t>(k.response);
    }

    static FlowKey
    unpackKey(std::uint64_t p)
    {
        return FlowKey{static_cast<NodeId>(p >> 25),
                       static_cast<NodeId>(p >> 9),
                       static_cast<MsgId>(p >> 1), (p & 1) != 0};
    }

    /** Index of the (src, dst) pair in pairs_. */
    std::size_t
    pairIndex(NodeId src, NodeId dst) const
    {
        return static_cast<std::size_t>(src) * cfg_.num_nodes + dst;
    }

    /** Port @p p's bit within its 64-bit bitset word. */
    static std::uint64_t
    portBit(NodeId p)
    {
        return std::uint64_t{1} << (p & 63);
    }

    /** The pair_dsts_ word holding @p dst's bit for source @p src. */
    std::uint64_t &
    pairDstsWord(NodeId src, NodeId dst)
    {
        return pair_dsts_[src * words_ + (dst >> 6)];
    }

    /** Add port @p p to the rescan set. */
    void
    markPort(NodeId p)
    {
        rescan_[p >> 6] |= portBit(p);
    }

    /** Mark every destination queue holding a live pair from @p src. */
    void markPairDsts(NodeId src);

    /** Mark every port (a time-based reservation expired). */
    void markAllPorts();

    void openLedgerEntry(const Demand &d);
    /** Drop a retired flow's queued demand. */
    void reclaimQueuedDemand(const FlowKey &key);

    /** Fair-share pool of the flow's client host (-1 without a tree). */
    int poolOfKey(const FlowKey &key) const;

    /** Pool id encoded for Record::aux (pool + 1; 0 = no pool). */
    static std::uint32_t
    auxOf(int pool)
    {
        return static_cast<std::uint32_t>(pool + 1);
    }

    /**
     * Return a retiring ledger entry's never-granted remainder to its
     * pool's backlog accounting (no-op without a tree).
     */
    void releaseLedgerBacklog(const FlowKey &key, const LedgerEntry &e);

    /**
     * Recompute pool shares and log the changed ones, then emit any
     * first-in-window limit-deferral records observed by the previous
     * phase-1 scan. Called at each matching iteration's start.
     */
    void refreshPoolShares();

    /** True when demand @p d's data sender sits on another leaf. */
    bool isCrossLeaf(const Demand &d) const;

    /**
     * Raise a busy-until entry to @p release and schedule a matching
     * wake-up at the release time (stale wake-ups — a later note raised
     * the entry further — fire as no-ops).
     */
    void raiseBusyUntil(std::vector<Picoseconds> &table, std::size_t idx,
                        Picoseconds release);

    /**
     * Charge @p charge of occupancy to one tier: stats + TierCharge log
     * record. Every tier a chunk traverses carries the chunk's full
     * grant occupancy (it is cut-through: its blocks occupy each tier
     * back-to-back for one chunk serialization). The spine tier is
     * charged for accounting visibility only (the spine is
     * contention-free transport, docs/TOPOLOGY.md); trunk-lane busy
     * timers are the tier charge that actually gates grants.
     */
    void chargeTier(LinkTier tier, const Demand &d, Picoseconds charge,
                    Picoseconds when);
};

} // namespace core
} // namespace edm

#endif // EDM_CORE_SCHEDULER_HPP
