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
 *
 * A granted chunk costs one event, its ports' release, where a filed
 * pass and a delivery event would add two more at the same instant.
 * Both are skipped only when the event they would be is provably the
 * next to fire, so every schedule is the one they would give:
 * - a release (of a grant's ports, of a request forward's downlink, or
 *   a remote-reservation or limit-window wake-up) ends by running the
 *   pass in place when no pass is filed and no other rank-0 event is
 *   pending at now (EventQueue::rankZeroPendingNow), for the pass it
 *   would file, at (now, rank 0, newest sequence), would run next.
 *   Otherwise, and after a new demand, whose caller goes on running,
 *   the pass is filed;
 * - the grants of a pass's first iteration are due at now. The pass
 *   collects them and, once it has filed everything else, hands them
 *   to the sink in grant order when no rank-0 event is pending at now,
 *   since their delivery events would run next and in that order
 *   (nothing else a pass files lands at now). Otherwise it files those
 *   delivery events. Later iterations' grants keep theirs.
 * A grant reads flat per-port and per-pair state (busy bytes, pair
 * heads) and its ledger entry by the index its demand carries.
 */

#ifndef EDM_CORE_SCHEDULER_HPP
#define EDM_CORE_SCHEDULER_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/index_map.hpp"
#include "common/index_pool.hpp"
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
    /**
     * Receiver of grant decisions, in grant order, at the grant's time.
     * A sink may run at the end of a matching pass, inside whichever
     * event ran the pass (a port release, say), rather than in an event
     * of its own. It may file events, but it must not re-enter the
     * scheduler: SwitchStack::onGrantAction and EdmFlowModel::onGrant
     * only file the grant's next hop.
     */
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
     * @p topo / @p leaf make this instance one leaf's scheduler shard:
     * it proposes only for that leaf's hosts and coordinates cross-leaf
     * reservations with the other shards (connectShards()). Defaults
     * construct the classic whole-fabric scheduler (and edm_model's
     * flow-level clone).
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

    /**
     * Give this shard every leaf's shard (@p shards, indexed by leaf,
     * itself included). A reservation for a port on another leaf
     * reaches that leaf's shard as a coordination note @p trunk (the
     * leaf-to-leaf traversal latency) after the decision.
     */
    void
    connectShards(std::vector<Scheduler *> shards, Picoseconds trunk)
    {
        shards_ = std::move(shards);
        trunk_ = trunk;
    }

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
     * again. Pure bookkeeping — schedules no events. The flow-level
     * model has no per-chunk datapath: it reports each flow once, as
     * its final chunk, when the whole message has landed.
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
    std::size_t
    pendingLedgerEntries() const
    {
        return ledger_index_.size();
    }

    /**
     * RREQ/RMWREQs held for forwarding: those of queued demands not yet
     * granted, and those whose forwarding grant is still on its way to
     * the sink. Zero once every read has been forwarded or reclaimed.
     */
    std::size_t bufferedRequests() const { return requests_.size(); }

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
    bool srcBusy(NodeId p) const { return src_busy_.at(p) != 0; }

    /** True if port @p p's downlink (RX side) is reserved by a grant. */
    bool dstBusy(NodeId p) const { return dst_busy_.at(p) != 0; }

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
        /** requests_ index of the RREQ awaiting forwarding, or kNone. */
        std::uint32_t request = kNone;
        /**
         * ledger_ index of the entry opened for this demand. A grant
         * uses it while that slot still holds this flow's key, and
         * looks the key up otherwise (the entry retired, or a reused
         * message id opened another).
         */
        std::uint32_t ledger = kNone;
        int pool = -1; ///< fair-share pool of the client host (-1 = off)
    };

    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    using Queue = hw::OrderedList<std::int64_t, Demand>;

    /** Ledger entry: a demand's byte lifecycle. */
    using LedgerEntry = FlowBytes;

    /** A ledger_ slot: the flow's packed key (kNoKey once freed). */
    struct LedgerSlot
    {
        std::uint64_t key = kNoKey;
        LedgerEntry entry;
    };

    static constexpr std::uint64_t kNoKey = common::IndexMap::kEmptyKey;

    /** pair_head_ value of a pair with no live demand. */
    static constexpr std::uint64_t kNoHead = ~std::uint64_t{0};

    /** A first-iteration grant, due at the pass's instant. */
    struct DueGrant
    {
        ControlInfo grant;
        std::uint32_t request; ///< buffered request to forward, or kNone
    };

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

    /** Every leaf's shard and the trunk latency (connectShards()). */
    std::vector<Scheduler *> shards_;
    Picoseconds trunk_ = 0;

    /** Null = whole-fabric scheduler; set = one leaf's shard. */
    const net::Topology *topo_ = nullptr;
    std::uint16_t leaf_ = 0;

    /** Destination ports this shard proposes for: [dst_lo_, dst_hi_). */
    NodeId dst_lo_ = 0;
    NodeId dst_hi_ = 0;

    std::vector<std::unique_ptr<Queue>> queues_; ///< one per dst port
    // Uplink (source) and downlink (destination) reservations are
    // independent resources: a node may send and receive concurrently
    // (full duplex); PIM matches switch ingresses to egresses. One byte
    // per port, 1 = reserved.
    std::vector<std::uint8_t> src_busy_;
    std::vector<std::uint8_t> dst_busy_;

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
     * Per (src, dst) pair, indexed src * N + dst: the seq of the pair's
     * head, the one demand of the pair that may be granted (in-order
     * service), or kNoHead. Seqs grow with notification order and the
     * pair's other demands wait in queue dst, so a retiring head's
     * successor is the pair's lowest seq still queued there.
     */
    std::vector<std::uint64_t> pair_head_;

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

    /** The running pass's first-iteration grants, in grant order. */
    std::vector<DueGrant> due_;

    /**
     * Live demand lifecycles, by index, and their indices by packKey().
     * An entry exists from demand registration until retirement
     * (observed final chunk or fault abort) — a flow whose completion
     * the datapath never reports stays resident, which is exactly the
     * stranded-flow diagnostic pendingLedgerEntries() and the incast
     * table report as "stranded".
     */
    common::IndexPool<LedgerSlot> ledger_;
    common::IndexMap ledger_index_;
    LedgerStats ledger_stats_;

    /**
     * Buffered RREQ/RMWREQs, by index. A read demand holds its request's
     * index until its first grant, whose delivery event then holds it
     * until the sink has the request; freed indices are reused. Keeping
     * the message here keeps Demand small and lets a grant's event fit
     * the queue's inline callback buffer.
     */
    common::IndexPool<MemMessage> requests_;

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
    /** Queue @p d, buffering @p request for it if given. */
    bool insertDemand(Demand d, const MemMessage *request = nullptr);
    void releaseRequest(std::uint32_t index);
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

    /**
     * The last act of a port-release event: run the matching pass in
     * place when it would be the next event to fire, else file it.
     */
    void matchAfterRelease();

    void runMatching();
    void issueGrant(NodeId dst_port, Demand &d, Picoseconds when);

    /**
     * End of a pass: hand due_ to the sink now when their delivery
     * events would run next, else file those events.
     */
    void deliverDueGrants();

    /** File the event that hands @p grant to the sink at @p when. */
    void fileDelivery(const ControlInfo &grant, std::uint32_t request,
                      Picoseconds when);

    /**
     * Hand a grant to the sink: @p grant's block, or the buffered
     * request at @p request (its index is freed) when it is not kNone.
     */
    void deliverGrant(const ControlInfo &grant, std::uint32_t request);

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

    /** Index of the (src, dst) pair in pair_head_. */
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

    /** Open @p d's ledger entry and record its slot in @p d. */
    void openLedgerEntry(Demand &d);

    /** The live ledger entry of @p d's flow, or null once retired. */
    LedgerEntry *ledgerEntryOf(const Demand &d);

    /** Free the ledger entry at @p slot, keyed @p packed. */
    void eraseLedgerEntry(std::uint64_t packed, std::uint32_t slot);
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
     * Coordination note from a remote shard, one trunk traversal after
     * its grant: it reserved local host @p src's uplink until
     * @p release (data heading up trunk lane @p lane) and charged
     * @p charge of line-time to fair-share pool @p pool, which this
     * shard's tree books too so it sees its tenants' cross-leaf
     * consumption (no-op without a tree or when @p pool is -1).
     */
    void noteRemoteGrant(NodeId src, std::size_t lane, Picoseconds release,
                         int pool, Picoseconds charge);

    /**
     * Coordination note from a remote shard: it forwarded a buffered
     * RREQ/RMWREQ to local host @p dst, reserving its downlink until
     * @p release (the request arrives down trunk lane @p lane).
     */
    void noteRemoteForward(NodeId dst, std::size_t lane,
                           Picoseconds release);

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
