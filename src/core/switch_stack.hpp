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

#include "common/index_pool.hpp"
#include "common/ring.hpp"
#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "core/wire.hpp"
#include "net/topology.hpp"
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

    /** The fabric's leaf switches, indexed by leaf. */
    using Leaves = std::vector<std::unique_ptr<SwitchStack>>;

    /**
     * The stack is leaf @p leaf of @p topo (the single switch is the
     * one-leaf topology) and its scheduler is that leaf's shard. A
     * cross-leaf action is the local action scheduled on the peer leaf
     * in @p leaves, @p trunk (the leaf-to-leaf traversal latency) later
     * than it would run here. @p leaves is read only at event time
     * (never during construction), so it may fill up after
     * construction.
     */
    SwitchStack(const EdmConfig &cfg, EventQueue &events, TxWork on_tx_work,
                const net::Topology &topo, std::uint16_t leaf,
                const Leaves &leaves, Picoseconds trunk);

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
     * (an /S/ and/or data — never a terminate) received on @p ingress,
     * block i at time @p first_at + i * @p stride. Frame blocks only
     * accumulate in the port-local reassembly buffer; the flood fires
     * from the per-block /Tn/ that follows the train. A port a lost /MT/
     * left inside a memory stream takes the frame's data down the memory
     * path instead, as rxBlock() would one block at a time.
     */
    void rxFrameTrain(NodeId ingress, const phy::PhyBlock *blocks,
                      std::size_t count, Picoseconds first_at,
                      Picoseconds stride);

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
     * compare runs at the same max_train_blocks. The payload charge
     * under-reserves every chunk by its unpaid framing blocks
     * (docs/WIRE_FORMAT.md), so the peak climbs with the grant count;
     * wire-charged occupancy keeps it near one chunk per contending
     * flow.
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
        // pipeline latency (EdmConfig::l2_pipeline), and flood to the
        // other ports (a ToR with an empty FDB: enough to model
        // coexistence; no MAC learning is modelled).
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
    const net::Topology &topo_;
    std::uint16_t leaf_ = 0;
    const Leaves &leaves_;
    Picoseconds trunk_ = 0;

    std::vector<std::unique_ptr<Port>> ports_;
    std::unique_ptr<Scheduler> scheduler_;
    SwitchStats stats_;
    std::uint64_t sched_fwd_seq_ = 0; ///< stream seq for request forwards
    /** Granted requests crossing the forwarding pipeline. */
    common::IndexPool<MemMessage> forwarded_;

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

    /** The leaf switch that owns @p port (this one when local). */
    SwitchStack &
    leafFor(NodeId port) const
    {
        return *leaves_[topo_.leafOf(port)];
    }

    /** Trunk traversal to reach @p port: 0 when it is on this leaf. */
    Picoseconds
    trunkTo(NodeId port) const
    {
        return topo_.leafOf(port) == leaf_ ? 0 : trunk_;
    }

    void onGrantAction(const GrantAction &action);
    /** A /G/ reaches local host @p port's egress mux. */
    void deliverGrant(NodeId port, const phy::PhyBlock &grant);
    /**
     * A buffered RREQ/RMWREQ reaches local memory node @p target. It
     * claims the egress stream under this leaf's own scheduler
     * pseudo-ingress epoch, drawn on arrival (two leaves' epochs would
     * collide).
     */
    void acceptForwardedRequest(NodeId target, const MemMessage &request);
    void forwardBlock(NodeId ingress, Port &port,
                      const phy::PhyBlock &block);
    /** Chunk-lifecycle report, routed to the receiver's shard. */
    void noteChunkForwarded(NodeId src, NodeId dst, MsgId id,
                            bool response, Bytes bytes, bool last_chunk);
    void egressAccept(NodeId egress, NodeId ingress, std::uint64_t seq,
                      const phy::PhyBlock &block);
    /**
     * A mid-stream data run reaches local @p egress: block i becomes
     * available at @p first_avail + i * @p stride.
     */
    void acceptRun(NodeId egress, NodeId ingress, std::uint64_t seq,
                   const phy::PhyBlock *blocks, std::size_t count,
                   Picoseconds first_avail, Picoseconds stride);
    void stagePush(Port &ep, NodeId ingress, std::uint64_t seq,
                   const phy::PhyBlock &block, Picoseconds at);
    /** Stage a train: block i arrives at @p first_avail + i * @p stride. */
    void stageRun(Port &ep, NodeId ingress, std::uint64_t seq,
                  const phy::PhyBlock *blocks, std::size_t count,
                  Picoseconds first_avail, Picoseconds stride);
    void adoptStaged(NodeId egress, NodeId ingress, std::uint64_t seq);
    void drainStaged(NodeId egress);
    void floodFrame(NodeId ingress, std::vector<phy::PhyBlock> frame);
    /** Append @p frame to every local host's backlog but @p ingress's. */
    void floodLocal(NodeId ingress, const std::vector<phy::PhyBlock> &frame);
};

} // namespace core
} // namespace edm

#endif // EDM_CORE_SWITCH_STACK_HPP
