/**
 * @file
 * EDM switch network stack (paper §3.2.2).
 *
 * Per ingress port, received blocks are classified in one cycle:
 *  - /N/ blocks feed the scheduler's demand queues;
 *  - RREQ/RMWREQ messages are absorbed and buffered as implicit demand
 *    notifications for their responses;
 *  - WREQ/RRES blocks stream through a pre-established virtual circuit
 *    to the egress port with zero processing, paying only the 4-cycle
 *    RX→TX clock-domain crossing.
 * Grants from the scheduler leave as /G/ blocks (or as the buffered
 * request forwarded to the memory node, for a response's first grant).
 *
 * Blocks arrive one per event (rxBlock) or as a *block train*: a run of
 * contiguous blocks delivered by a single event. Memory trains
 * (rxBlockTrain) carry mid-message data with explicit per-block
 * timestamps so cut-through blocks enter the egress mux exactly when
 * their own accept event would have; frame trains (rxFrameTrain) carry
 * L2 /S/ + data runs, which only buffer port-locally — the /Tn/
 * boundary that triggers flooding always travels per-block, so every
 * downstream event keeps its exact per-block schedule.
 *
 * Hot-path state (egress mux entries, frame backlogs, staged circuit
 * blocks) lives in contiguous rings (common::Ring) with dense per-port
 * indexing — the steady-state dataplane never touches the heap.
 */

#ifndef EDM_CORE_SWITCH_STACK_HPP
#define EDM_CORE_SWITCH_STACK_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/ring.hpp"
#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "core/wire.hpp"
#include "phy/preemption.hpp"
#include "sim/event_queue.hpp"

namespace edm {
namespace core {

/** Switch-side statistics. */
struct SwitchStats
{
    std::uint64_t notify_blocks = 0;
    std::uint64_t requests_buffered = 0;
    std::uint64_t blocks_forwarded = 0;
    std::uint64_t grants_sent = 0;
    std::uint64_t requests_forwarded = 0;
    std::uint64_t frames_flooded = 0;
};

/**
 * The EDM switch: N ports, each with an egress preemption mux the fabric
 * drains, plus the central scheduler.
 */
class SwitchStack
{
  public:
    /** Invoked with an egress port number whenever its mux gains work. */
    using TxWork = std::function<void(NodeId port)>;

    /**
     * Cross-leaf routing hooks (leaf-spine only, docs/TOPOLOGY.md).
     * When a port's counterpart lives on another leaf, the stack hands
     * the block/decision to the fabric instead of acting locally; the
     * fabric adds the trunk traversal latency and invokes the matching
     * trunk-side accept method on the destination leaf's stack.
     * @p local_delay is the switch-internal processing the stack would
     * have charged before acting (classify, forward crossing, grant
     * generation) — the fabric schedules at now + local_delay + trunk.
     */
    struct TrunkHooks
    {
        /** /G/ for a host on another leaf -> deliverGrant there. */
        std::function<void(NodeId target, const phy::PhyBlock &grant,
                           Picoseconds local_delay)>
            route_grant;

        /** Buffered RREQ/RMWREQ forward -> acceptForwardedRequest. */
        std::function<void(NodeId target, const MemMessage &request,
                           Picoseconds local_delay)>
            route_request;

        /** One cut-through stream block -> acceptTrunkBlock. */
        std::function<void(NodeId egress, NodeId ingress,
                           std::uint64_t seq, const phy::PhyBlock &block,
                           Picoseconds local_delay)>
            route_block;

        /** A mid-stream data train -> acceptTrunkRun. */
        std::function<void(NodeId egress, NodeId ingress,
                           std::uint64_t seq,
                           std::vector<phy::PhyBlock> blocks,
                           Picoseconds first_avail, Picoseconds stride)>
            route_run;

        /** /N/ owned by another leaf's shard -> addWriteDemand there. */
        std::function<void(const ControlInfo &notify,
                           Picoseconds local_delay)>
            route_notify;

        /** Chunk-lifecycle report owned by another leaf's shard. */
        std::function<void(NodeId src, NodeId dst, MsgId id,
                           bool response, Bytes bytes, bool last_chunk)>
            route_chunk_note;

        /** L2 flood replica for every other leaf -> acceptTrunkFlood. */
        std::function<void(std::vector<phy::PhyBlock> frame,
                           Picoseconds local_delay)>
            route_flood;
    };

    /**
     * @p topo / @p leaf make this stack one leaf switch of a multi-tier
     * fabric: its scheduler becomes that leaf's shard and every
     * cross-leaf action detours through the trunk hooks. Defaults
     * construct the classic whole-fabric switch.
     */
    SwitchStack(const EdmConfig &cfg, EventQueue &events, TxWork on_tx_work,
                const net::Topology *topo = nullptr,
                std::uint16_t leaf = 0);

    /** Install trunk routing (fabric, leaf-spine only). */
    void
    setTrunkHooks(TrunkHooks hooks)
    {
        hooks_ = std::move(hooks);
    }

    /** Deliver one received block on @p ingress (post PCS-RX). */
    void rxBlock(NodeId ingress, const phy::PhyBlock &block);

    /**
     * Deliver a memory block train: @p count contiguous memory *data*
     * blocks received on @p ingress, block i at time @p first_at + i *
     * @p stride. Equivalent to @p count rxBlock() events at those
     * instants: data blocks only buffer into the ingress assembler or
     * cut through to the egress mux with an explicit availability
     * timestamp, so batching them into one event is invisible to the
     * simulation. Message boundaries (/MS/ /MT/), notifications and all
     * other control blocks must keep using per-block rxBlock() — their
     * processing takes and releases shared state (scheduler queues,
     * egress stream ownership) whose update order matters.
     */
    void rxBlockTrain(NodeId ingress, const phy::PhyBlock *blocks,
                      std::size_t count, Picoseconds first_at,
                      Picoseconds stride);

    /**
     * Deliver a frame block train: @p count contiguous L2 frame blocks
     * (an /S/ and/or data — never a terminate) received on @p ingress.
     * Frame blocks only accumulate in the port-local reassembly buffer;
     * the flood fires from the per-block /Tn/ that follows the train,
     * so no per-block timestamps are needed.
     */
    void rxFrameTrain(NodeId ingress, const phy::PhyBlock *blocks,
                      std::size_t count);

    // Trunk-side accept entry points (leaf-spine only): each runs at
    // the arrival event the fabric scheduled one trunk traversal after
    // the remote leaf's decision, and performs exactly the local action
    // the remote stack would have taken on a single switch.

    /** A remote shard's /G/ arrives for local host @p port. */
    void deliverGrant(NodeId port, const phy::PhyBlock &grant);

    /**
     * A remote shard's buffered RREQ/RMWREQ arrives for local memory
     * node @p target. Claims the egress stream under this leaf's own
     * scheduler pseudo-ingress epoch (remote epochs would collide).
     */
    void acceptForwardedRequest(NodeId target, const MemMessage &request);

    /** One stream block from remote @p ingress cuts through here. */
    void acceptTrunkBlock(NodeId egress, NodeId ingress,
                          std::uint64_t seq, const phy::PhyBlock &block);

    /** A mid-stream data train from remote @p ingress arrives. */
    void acceptTrunkRun(NodeId egress, NodeId ingress, std::uint64_t seq,
                        const std::vector<phy::PhyBlock> &blocks,
                        Picoseconds first_avail, Picoseconds stride);

    /** A flooded L2 frame replica arrives from another leaf. */
    void acceptTrunkFlood(const std::vector<phy::PhyBlock> &frame);

    /** Egress mux for @p port (drained by the fabric, one block/slot). */
    phy::PreemptionMux &egressMux(NodeId port);

    /**
     * Non-memory frame blocks waiting behind the egress mux's bounded
     * staging buffer. The fabric's TX pump tops the mux up from here,
     * modelling the MAC reacting to freed buffer space.
     */
    common::Ring<phy::PhyBlock> &egressFrameBacklog(NodeId port);

    Scheduler &scheduler() { return *scheduler_; }
    const SwitchStats &stats() const { return stats_; }

    /**
     * Deepest combined egress staging observed on any port: circuit
     * staging (blocks parked awaiting stream ownership) plus the
     * egress mux's memory backlog, sampled at every push so the value
     * is a depth that really occurred. The mux backlog includes blocks
     * a train handed over early with future availability stamps, so
     * compare runs at the same max_train_blocks. This is the quantity
     * the wire-occupancy model's per-chunk growth estimate
     * (core::stagingGrowthBlocksPerChunk) predicts — the payload
     * charge under-reserves every chunk and the peak climbs with the
     * grant count; wire-charged occupancy keeps it near one chunk per
     * contending flow.
     */
    std::size_t peakEgressStaging() const;

  private:
    /** A staged block awaiting egress stream ownership. */
    struct StagedBlock
    {
        phy::PhyBlock block;
        Picoseconds at = 0;
        std::uint64_t seq = 0;
    };

    using StagedQueue = common::Ring<StagedBlock>;

    /** Per-ingress streaming state. */
    struct Port
    {
        phy::PreemptionMux egress;
        MessageAssembler assembler; ///< for absorbed RREQ/RMWREQ
        bool absorbing = false;     ///< mid-RREQ/RMWREQ assembly
        bool forwarding = false;    ///< mid-WREQ/RRES stream
        NodeId egress_port = 0;     ///< circuit target while forwarding

        /**
         * Packed /MS/ header of the stream being forwarded. At the
         * /MT/, its (src, dst, id, len, last-chunk) identify the chunk
         * for the scheduler's demand-lifecycle ledger.
         */
        std::uint64_t fwd_hdr56 = 0;

        /**
         * Forwarded-stream sequence number, bumped at each stream head
         * (/MS/ or /MST/). A train delivered at its first block's
         * arrival can precede the egress-side accept of its own /MS/ —
         * or trail the /MT/ of this ingress's *previous* stream — so
         * "same ingress" alone cannot prove a block belongs to the
         * stream that currently owns an egress; (ingress, seq) can.
         */
        std::uint64_t fwd_seq = 0;

        // Conventional (non-memory) Ethernet traffic takes the layer-2
        // path: frames reassemble at ingress, pay the forwarding
        // pipeline latency, and flood to the other ports (a ToR with an
        // empty FDB — enough to model coexistence; MAC learning lives in
        // net::L2Switch).
        bool in_l2_frame = false;
        std::vector<phy::PhyBlock> l2_buf;
        common::Ring<phy::PhyBlock> frame_backlog;

        // Egress stream ownership: virtual circuits are cut-through
        // while one (ingress, stream) owns the egress; a competing
        // stream that arrives early (pipeline jitter between chunks of
        // different flows, or a train outrunning its own /MS/) stages
        // here until the /MT/ boundary or its /MS/ accept, keeping
        // /MS/../MT/ sequences atomic on the wire. Staged blocks keep
        // their arrival timestamp: when released they become available
        // at max(arrival, release), matching per-block delivery.
        static constexpr NodeId kNoOwner = 0xFFFF;
        NodeId stream_owner = kNoOwner;
        std::uint64_t owner_seq = 0;

        /**
         * Staging queues, densely indexed by ingress: [0, N) the ports,
         * [N] the scheduler pseudo-ingress (kSchedulerIngress sorts
         * after every real port, as it did under the old map's key
         * order).
         */
        std::vector<StagedQueue> staged;

        /** Live staged blocks across every ingress queue. */
        std::size_t staged_count = 0;

        /**
         * High-water mark of the *combined* egress staging depth —
         * circuit-staged blocks plus the egress mux's memory backlog,
         * sampled at every push — so it is a depth that actually
         * existed at one instant (a block moving staging → mux is
         * never double-counted: the pop decrements staged_count before
         * the enqueue samples).
         */
        std::size_t staging_peak = 0;

        void
        noteDepth()
        {
            const std::size_t d = staged_count + egress.memoryBacklog();
            if (d > staging_peak)
                staging_peak = d;
        }
    };

    EdmConfig cfg_;
    EventQueue &events_;
    TxWork on_tx_work_;
    TrunkHooks hooks_;

    /** Null = whole-fabric switch; set = leaf @p leaf_ of a topology. */
    const net::Topology *topo_ = nullptr;
    std::uint16_t leaf_ = 0;

    std::vector<std::unique_ptr<Port>> ports_;
    std::unique_ptr<Scheduler> scheduler_;
    SwitchStats stats_;
    std::uint64_t sched_fwd_seq_ = 0; ///< stream seq for request forwards

    /** Scratch for adoption drains (reused, never shrunk). */
    std::vector<phy::PhyBlock> scratch_blocks_;
    std::vector<Picoseconds> scratch_avails_;

    Picoseconds cycles(int n) const
    {
        return static_cast<Picoseconds>(n) * cfg_.cycle;
    }

    /** Pseudo-ingress id for scheduler-originated request forwards. */
    static constexpr NodeId kSchedulerIngress = 0xFFFE;

    /** Dense staging index of @p ingress (scheduler last). */
    std::size_t
    stagedIndex(NodeId ingress) const
    {
        return ingress == kSchedulerIngress ? cfg_.num_nodes : ingress;
    }

    /** True when @p port terminates on another leaf switch. */
    bool remoteLeaf(NodeId port) const;

    void onGrantAction(const GrantAction &action);
    void forwardBlock(NodeId ingress, Port &port,
                      const phy::PhyBlock &block);
    /** Chunk-lifecycle report, routed to the owning shard if remote. */
    void noteChunkForwarded(NodeId src, NodeId dst, MsgId id,
                            bool response, Bytes bytes, bool last_chunk);
    void egressAccept(NodeId egress, NodeId ingress, std::uint64_t seq,
                      const phy::PhyBlock &block);
    void stagePush(Port &ep, NodeId ingress, std::uint64_t seq,
                   const phy::PhyBlock &block, Picoseconds at);
    /** Stage a train: block i arrives at @p first_avail + i * @p stride. */
    void stageRun(Port &ep, NodeId ingress, std::uint64_t seq,
                  const phy::PhyBlock *blocks, std::size_t count,
                  Picoseconds first_avail, Picoseconds stride);
    void adoptStaged(NodeId egress, NodeId ingress, std::uint64_t seq);
    void drainStaged(NodeId egress);
    void floodFrame(NodeId ingress, std::vector<phy::PhyBlock> frame);
    void emitToEgress(NodeId port, std::vector<phy::PhyBlock> blocks,
                      Picoseconds delay);
};

} // namespace core
} // namespace edm

#endif // EDM_CORE_SWITCH_STACK_HPP
