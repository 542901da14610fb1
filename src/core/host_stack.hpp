/**
 * @file
 * EDM host network stack (paper §3.2.1).
 *
 * One instance per node. The TX side turns application requests into
 * memory-path PHY blocks fed to the intra-frame preemption mux; the RX
 * side classifies received memory-path blocks into grants, requests and
 * response data, driving the message state table. A node with an attached
 * memory controller (Dram + BackingStore) also serves remote requests —
 * the NIC executes RMWREQ atomically (§3.2.1).
 */

#ifndef EDM_CORE_HOST_STACK_HPP
#define EDM_CORE_HOST_STACK_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/index_pool.hpp"
#include "core/config.hpp"
#include "core/message.hpp"
#include "core/wire.hpp"
#include "mem/backing_store.hpp"
#include "mem/dram.hpp"
#include "phy/preemption.hpp"
#include "sim/event_queue.hpp"

namespace edm {
namespace core {

/** Completion of a remote read. @p timed_out marks a NULL response. */
using ReadCallback = std::function<void(std::vector<std::uint8_t> data,
                                        Picoseconds latency,
                                        bool timed_out)>;

/** Completion of a remote write (fully delivered at the memory node). */
using WriteCallback = std::function<void(Picoseconds latency)>;

/** Completion of an atomic RMW. */
using RmwCallback = std::function<void(mem::RmwResult result,
                                       Picoseconds latency)>;

/** Host-side statistics. */
struct HostStats
{
    std::uint64_t reads_completed = 0;
    std::uint64_t writes_completed = 0;
    std::uint64_t rmws_completed = 0;
    std::uint64_t read_timeouts = 0;
    std::uint64_t notify_blocks_sent = 0;
    std::uint64_t grant_blocks_received = 0;
    std::uint64_t mem_blocks_sent = 0;
    std::uint64_t mem_blocks_received = 0;
    std::uint64_t frames_received = 0;

    /**
     * Grants that matched no message state and could not be parked (a
     * write grant, or a response grant on a node without memory). Each
     * one is a granted line slot wasted: the grant is dropped and its
     * chunk never sent. Response grants that outran their request
     * park instead (grants_parked).
     */
    std::uint64_t unknown_grants = 0;

    /**
     * Grants that arrived before their request did (the /G/ overtook
     * the forwarded RREQ through a backlogged egress) and were parked
     * until the request showed up.
     */
    std::uint64_t grants_parked = 0;

    /** Grants for an RRES whose final chunk had already been sent. */
    std::uint64_t stale_response_grants = 0;

    /**
     * Parked grants dropped as orphaned — their request never arrived
     * within kParkedGrantTimeout, or this node's uplink was disabled so
     * it could never answer them. Keeps a stale parked size from
     * draining into a later message that reuses the same 8-bit
     * (dst, id).
     */
    std::uint64_t parked_grants_dropped = 0;

    /**
     * Sends stalled because the next 8-bit message id toward their
     * destination was still live (a wrapped id whose original message
     * has not completed — e.g. a read stranded by a fault). The
     * send parks until the id frees instead of wrapping onto the live
     * id, which would make two distinct messages indistinguishable on
     * the wire (and used to panic the host).
     */
    std::uint64_t id_stalls = 0;

    /**
     * Reads re-issued after a timeout or a fault-aborted flow
     * (EdmConfig::read_retry_limit). Each re-issue counts once; a read
     * that retries three times before completing contributes three.
     */
    std::uint64_t read_retries = 0;

    /** Reads that completed after at least one retry. */
    std::uint64_t reads_recovered = 0;

    /**
     * Reads abandoned with a NULL response after exhausting the retry
     * budget. Zero when retries are disabled (the legacy NULL path
     * counts only read_timeouts).
     */
    std::uint64_t reads_abandoned = 0;
};

/**
 * How long a parked grant may wait for the request it outran before it
 * is dropped as orphaned (its forwarded RREQ was lost to a fault, or the
 * grant was issued against an evicted ledger id). A legitimately parked
 * /G/ waits only for the egress backlog ahead of the forwarded request —
 * nanoseconds to a few microseconds — so this never fires for a live
 * flow but bounds the parked store well below the ~256-message horizon
 * at which a reused 8-bit (dst, id) would otherwise drain another flow's
 * grants.
 */
inline constexpr Picoseconds kParkedGrantTimeout = 25 * kMicrosecond;

/**
 * Per-node EDM stack. The owning fabric pumps TX blocks from mux() onto
 * the link and delivers RX blocks to rxBlock().
 */
class HostStack
{
  public:
    /**
     * @param id this node's port number
     * @param cfg fabric configuration
     * @param events shared event queue
     * @param has_memory attach a DRAM + backing store (memory node role)
     * @param on_tx_work invoked whenever the TX mux gains work
     */
    HostStack(NodeId id, const EdmConfig &cfg, EventQueue &events,
              bool has_memory, std::function<void()> on_tx_work);

    NodeId id() const { return id_; }

    // ---- application API (paper §2.3 message types) ----

    /** Issue a remote read of @p len bytes at @p addr on node @p dst. */
    void postRead(NodeId dst, std::uint64_t addr, Bytes len,
                  ReadCallback cb);

    /** Issue a remote write of @p data to @p addr on node @p dst. */
    void postWrite(NodeId dst, std::uint64_t addr,
                   std::vector<std::uint8_t> data, WriteCallback cb);

    /** Issue an atomic RMW on node @p dst. */
    void postRmw(NodeId dst, std::uint64_t addr, mem::RmwOp op,
                 std::uint64_t arg0, std::uint64_t arg1, RmwCallback cb);

    // ---- fabric-facing interface ----

    /**
     * Hook invoked by the memory-node role when a write's final chunk
     * has been applied; the fabric routes it back to the writer so its
     * WriteCallback can fire with the true delivery latency.
     */
    using WriteDeliveredHook =
        std::function<void(const MemMessage &final_chunk,
                           Picoseconds delivered_at)>;

    /** Install the fabric's write-delivery hook (memory-node side). */
    void setWriteDeliveredHook(WriteDeliveredHook hook);

    /** Handler for reassembled non-memory Ethernet frames (optional). */
    using FrameHandler = std::function<void(std::vector<phy::PhyBlock>)>;

    /** Install a non-memory frame handler (e.g. an IP stack model). */
    void setFrameHandler(FrameHandler handler);

    /** Fabric reports that our write (to @p mem_node, @p id) landed. */
    void notifyWriteDelivered(NodeId mem_node, MsgId id,
                              Picoseconds delivered_at);

    /**
     * Fabric reports that this node's uplink was disabled (§3.3). The
     * node can never answer a grant again, so every parked grant is
     * dropped — otherwise the parked sizes would sit forever and drain
     * into a later message reusing their (dst, id).
     */
    void onUplinkDisabled();

    /**
     * Fabric reports that this node's uplink was repaired
     * (CycleFabric::repairUplink). Reopens the grant gate; in-flight
     * requests and retries flow again.
     */
    void onUplinkRepaired();

    /**
     * Scheduler reports (via the fabric) that the response flow we are
     * waiting on — data sender @p mem_node, message @p id — was retired
     * by a fault abort: its sender's uplink died and the data will
     * never arrive. With retries enabled this fail-fasts the read onto
     * the backoff path instead of waiting out the full read_timeout;
     * without them it is a no-op (the legacy timeout guard keeps sole
     * authority over the NULL response).
     */
    void onFlowAborted(NodeId mem_node, MsgId id);

    /** TX preemption mux the fabric drains (one block per slot). */
    phy::PreemptionMux &mux() { return mux_; }

    /** Deliver one received line block (post PCS-RX). */
    void rxBlock(const phy::PhyBlock &block);

    /**
     * Deliver a train of @p count contiguous memory *data* blocks in one
     * call. Mid-message data blocks only accumulate in the RX assembler
     * (completion rides the per-block /MT/ that follows the train), so
     * no per-block timestamps are needed: processing them early is
     * invisible to the simulation.
     */
    void rxBlockTrain(const phy::PhyBlock *blocks, std::size_t count);

    /**
     * Deliver a train of @p count contiguous L2 frame blocks (an /S/
     * and/or data — never a terminate) in one call. Frame blocks only
     * accumulate in the demux reassembly buffer; the frame handler
     * fires from the per-block /Tn/ that follows the train, at its
     * exact per-block instant.
     */
    void rxFrameTrain(const phy::PhyBlock *blocks, std::size_t count);

    /** Local memory (memory-node role); null on pure compute nodes. */
    mem::BackingStore *store() { return store_.get(); }

    const HostStats &stats() const { return stats_; }

    /** Service latency of the most recent local DRAM access. */
    Picoseconds lastDramLatency() const { return last_dram_latency_; }

  private:
    struct PendingRequest
    {
        MemMessage msg;
        ReadCallback read_cb;
        WriteCallback write_cb;
        RmwCallback rmw_cb;
        Picoseconds posted = 0;
        int retries = 0; ///< re-issues consumed (read retry path)
    };

    /** Compute-side state of an outstanding request, keyed (dst, id). */
    struct RequestState
    {
        MemMsgType type;
        std::uint64_t remote_addr = 0;
        Bytes total = 0;   ///< expected RRES bytes / WREQ data bytes
        Bytes done = 0;    ///< RRES bytes received / WREQ bytes sent
        std::vector<std::uint8_t> data; ///< RX buffer or WREQ TX data
        Picoseconds posted = 0;
        ReadCallback read_cb;
        WriteCallback write_cb;
        RmwCallback rmw_cb;
        EventId timeout = kInvalidEvent;
        int retries = 0; ///< re-issues consumed (read retry path)
    };

    /** Memory-side state of an in-progress RRES, keyed (dst, id). */
    struct ResponseState
    {
        std::vector<std::uint8_t> data;
        Bytes sent = 0;
        std::uint64_t result_flag = 0; ///< RMW swapped flag
    };

    NodeId id_;
    EdmConfig cfg_;
    EventQueue &events_;
    std::function<void()> on_tx_work_;

    phy::PreemptionMux mux_;
    phy::PreemptionDemux demux_;
    MessageAssembler assembler_;
    /** Received messages waiting out their processing delay. */
    common::IndexPool<MemMessage> messages_;

    std::map<std::pair<NodeId, MsgId>, RequestState> requests_;
    std::map<std::pair<NodeId, MsgId>, ResponseState> responses_;

    /** A grant waiting for the request it outran. */
    struct ParkedGrant
    {
        Bytes size = 0;
        Picoseconds parked_at = 0;
    };

    /**
     * Grants that outran their request sit here (in arrival order,
     * keyed like responses_) until serveRead / serveRmw creates the
     * response state they were issued against — the hardware analogue
     * of leaving them in the grant queue instead of popping and
     * dropping them. Entries older than kParkedGrantTimeout are swept
     * by a scheduled expiry so an orphaned grant can never outlive its
     * flow and leak into a reused (dst, id).
     */
    std::map<std::pair<NodeId, MsgId>, std::vector<ParkedGrant>>
        parked_grants_;

    /**
     * One pending expiry sweep per parked key (not per grant): armed on
     * the empty→non-empty transition, re-armed by the sweep for the
     * oldest survivor, cancelled when the drain consumes the key.
     */
    std::map<std::pair<NodeId, MsgId>, EventId> parked_sweeps_;

    /** Uplink dead (§3.3): grants can never be answered again. */
    bool uplink_disabled_ = false;

    std::map<NodeId, int> outstanding_;          ///< active per dst (≤ X)
    std::map<NodeId, std::deque<PendingRequest>> parked_;
    std::map<NodeId, std::uint8_t> next_id_;

    std::unique_ptr<mem::Dram> dram_;
    std::unique_ptr<mem::BackingStore> store_;
    Picoseconds last_dram_latency_ = 0;
    WriteDeliveredHook write_delivered_;
    FrameHandler on_frame_;

    HostStats stats_;

    Picoseconds cycles(int n) const
    {
        return static_cast<Picoseconds>(n) * cfg_.cycle;
    }

    void admit(NodeId dst, PendingRequest req);
    void launch(PendingRequest req);
    void release(NodeId dst);
    bool nextIdLive(NodeId dst);
    void enqueueMemBlocks(std::vector<phy::PhyBlock> blocks,
                          Picoseconds delay);
    void onMemoryBlock(const phy::PhyBlock &block);
    void onGrant(const ControlInfo &g);
    void onMessage(MemMessage msg);
    void serveRead(const MemMessage &req);
    void serveWrite(const MemMessage &chunk);
    void serveRmw(const MemMessage &req);
    void drainParkedGrants(NodeId dst, MsgId id, Picoseconds delay);
    void expireParkedGrants(std::pair<NodeId, MsgId> key);
    void sendResponseChunk(NodeId dst, MsgId id, Bytes chunk);
    void sendWriteChunk(NodeId dst, MsgId id, Bytes chunk);
    void completeRead(const MemMessage &chunk);
    void onReadTimeout(NodeId dst, MsgId id);
    /** Retry-or-abandon a lost read; @p it must point into requests_. */
    void recoverLostRead(std::map<std::pair<NodeId, MsgId>,
                                  RequestState>::iterator it);
};

} // namespace core
} // namespace edm

#endif // EDM_CORE_HOST_STACK_HPP
