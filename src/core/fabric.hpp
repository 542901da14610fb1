/**
 * @file
 * Cycle-level EDM fabric: hosts + switch + links, runnable end to end.
 *
 * This is the software equivalent of the paper's three-FPGA testbed
 * (Figure 4): every 66-bit block is individually transmitted, delayed by
 * PCS pipeline cycles, SerDes crossings and propagation, and delivered to
 * the peer's demux. Latency constants are shared with the analytic
 * Table-1 model through EdmConfig::costs.
 *
 * Transmission is payload-agnostic: memory-stream data and L2 frame
 * bursts both travel as pooled, kind-tagged block trains (one emit +
 * one delivery event per train) whenever the mux's scheduling decisions
 * cannot change mid-run, with per-block emission as the exact fallback
 * and the timing-equivalence baseline.
 */

#ifndef EDM_CORE_FABRIC_HPP
#define EDM_CORE_FABRIC_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "core/config.hpp"
#include "core/host_stack.hpp"
#include "core/switch_stack.hpp"
#include "net/topology.hpp"
#include "phy/block_fifo.hpp"
#include "sim/simulation.hpp"

namespace edm {

namespace trace {
enum class EventType : std::uint8_t;
}

namespace core {

/**
 * An EDM cluster at block granularity: single-switch by default, or a
 * leaf–spine multi-tier fabric under EdmConfig::topology (PR 9,
 * docs/TOPOLOGY.md) — one SwitchStack per leaf wired by the Topology,
 * with per-leaf scheduler shards and fixed-latency spine trunks.
 */
class CycleFabric
{
  public:
    /**
     * @param cfg fabric configuration (num_nodes ports)
     * @param sim owning simulation (event queue + rng)
     * @param memory_nodes which node ids have DRAM attached; empty means
     *        every node can serve memory
     */
    CycleFabric(const EdmConfig &cfg, Simulation &sim,
                std::vector<NodeId> memory_nodes = {});

    HostStack &host(NodeId id);

    /**
     * The first (single mode: only) switch. Leaf-spine callers wanting
     * a specific leaf go through topology() + switchAt().
     */
    SwitchStack &switchStack() { return *switches_[0]; }

    /** Leaf switch @p leaf (0 <= leaf < topology().numLeaves()). */
    SwitchStack &switchAt(std::uint16_t leaf) { return *switches_[leaf]; }

    /** The fabric's wiring (single-switch unless configured otherwise). */
    const net::Topology &topology() const { return topo_; }

    const EdmConfig &config() const { return cfg_; }

    // ---- convenience application API (records latency samples) ----

    /** Remote read; latency recorded in readLatency(). */
    void read(NodeId from, NodeId to, std::uint64_t addr, Bytes len,
              ReadCallback cb = {});

    /** Remote write; latency recorded in writeLatency(). */
    void write(NodeId from, NodeId to, std::uint64_t addr,
               std::vector<std::uint8_t> data, WriteCallback cb = {});

    /** Remote atomic RMW; latency recorded in rmwLatency(). */
    void rmw(NodeId from, NodeId to, std::uint64_t addr, mem::RmwOp op,
             std::uint64_t arg0, std::uint64_t arg1, RmwCallback cb = {});

    /**
     * Inject a non-memory Ethernet frame on @p src's uplink (interference
     * workload for the intra-frame preemption experiments, §3.2.3).
     */
    void injectFrame(NodeId src, const std::vector<std::uint8_t> &frame);

    // ---- fault injection and link health (§3.3) ----

    /**
     * Corrupt the payload of the next @p blocks blocks on node @p src's
     * uplink (simulating transceiver contamination / physical damage —
     * the persistent error class §3.3 describes).
     */
    void corruptUplink(NodeId src, int blocks);

    /**
     * Errors detected on @p src's uplink. In the PHY, corruption is
     * detected via sync-header/block-type violations and scrambler
     * statistics; here every corrupted block is detectable by
     * construction (a flipped bit in a control block yields an invalid
     * type; in a data block, the descrambler's 3-bit error
     * multiplication trips the monitor).
     */
    std::uint64_t linkErrors(NodeId src) const;

    /**
     * True once @p src's uplink was administratively disabled after
     * crossing the error threshold. Blocks sent on a disabled link are
     * dropped (the host's read-timeout guard then converts lost reads
     * into NULL responses, §3.3).
     */
    bool linkDisabled(NodeId src) const;

    /**
     * Repair node @p src's uplink: clear the disabled latch, zero the
     * error counter and drop any still-pending corruption budget (the
     * physical fault is fixed — a repaired transceiver does not owe the
     * wire leftover corrupt blocks). The host's uplink gate reopens
     * (HostStack::onUplinkRepaired) and the pump restarts, so queued
     * and new demands flow again; the scheduler needs no explicit
     * re-admit — fresh demands reopen ledger entries naturally. A no-op
     * on a healthy link with no injected corruption.
     */
    void repairUplink(NodeId src);

    /**
     * Default errors tolerated before a link is declared damaged and
     * disabled (EdmConfig::link_error_threshold overrides per fabric).
     */
    static constexpr std::uint64_t kLinkErrorThreshold = 16;

    /** Uplink health transitions, observable without polling. */
    enum class LinkEvent
    {
        ErrorDetected, ///< a corrupted block was caught (arg = errors)
        Disabled,      ///< the threshold latched the link off
        Repaired,      ///< repairUplink() brought the link back
    };

    using LinkHealthHook =
        std::function<void(NodeId, LinkEvent, std::uint64_t errors)>;

    /**
     * Observe uplink health transitions (FaultCampaign's recovery-time
     * probes). Purely observational: the hook must not re-enter the
     * fabric's fault API synchronously.
     */
    void setLinkHealthHook(LinkHealthHook hook)
    {
        link_health_hook_ = std::move(hook);
    }

    /**
     * Fabric-wide grant-accounting metrics: the hosts' grant outcomes
     * summed over every node plus the scheduler's demand-lifecycle
     * counters. `wasted_grant_slots` are grants that bought line slots
     * no host ever filled.
     */
    struct GrantAccounting
    {
        std::uint64_t unknown_grants = 0;        ///< dropped, no state
        std::uint64_t grants_parked = 0;         ///< held early
        std::uint64_t stale_response_grants = 0; ///< RRES already done
        std::uint64_t parked_grants_dropped = 0; ///< orphaned parked
        std::uint64_t wasted_grant_slots = 0;    ///< unknown + stale
        LedgerStats ledger;                      ///< scheduler counters
    };

    GrantAccounting grantAccounting() const;

    /** Grants issued by every scheduler shard (one shard when single). */
    std::uint64_t totalGrantsIssued() const;

    /** Live (unretired) ledger entries across every shard. */
    std::size_t totalPendingLedgerEntries() const;

    /**
     * Deepest combined egress staging seen on any switch port
     * (blocks): circuit-staged blocks plus the egress mux's memory
     * backlog, sampled at every push (SwitchStack::peakEgressStaging).
     * Grows with the payload charge's per-chunk under-charge
     * (core::stagingGrowthBlocksPerChunk); wire-charged occupancy
     * (EdmConfig::wire_charged_occupancy) keeps it shallow.
     */
    std::size_t peakEgressStaging() const;

    /**
     * End-to-end latencies in nanoseconds (completion-measured), in
     * completion order.
     */
    const Samples &readLatency() const { return read_lat_; }
    const Samples &writeLatency() const { return write_lat_; }
    const Samples &rmwLatency() const { return rmw_lat_; }

    /**
     * Drain the fabric up to and including @p horizon (Simulation::run).
     * Returns events executed by this call.
     */
    std::uint64_t run(Picoseconds horizon = INT64_MAX)
    {
        return sim_.run(horizon);
    }

    /** Time of the last executed event. */
    Picoseconds endTime() const { return sim_.now(); }

    /** Events executed over the simulation's lifetime. */
    std::uint64_t eventsExecuted() const
    {
        return sim_.events().executed();
    }

    /**
     * One-way block delivery latency excluding the serialization slot:
     * PCS TX + SerDes + propagation + SerDes + PCS RX. Useful for tests
     * validating against Table 1.
     */
    Picoseconds hopLatency() const;

    /**
     * Leaf-to-leaf traversal latency across the spine: one trunk
     * serialization slot, two hop latencies (leaf->spine, spine->leaf)
     * and the spine's classify + forward pipeline. Every cross-leaf
     * event (stream blocks, grants, notifications, coordination notes)
     * pays exactly this on top of its local switch processing — a fixed
     * latency because the spine is contention-free transport; trunk
     * *contention* lives in the scheduler shards' lane busy timers.
     */
    Picoseconds trunkLatency() const;

  private:
    /**
     * A burst of cycle-spaced blocks committed to the wire as one unit
     * (the transmission unit of the payload-agnostic pipeline): emitted
     * by a single pump event and delivered by a single rx event (block
     * i leaves at start + i·cycle). Queued FIFO per pump because
     * several trains can be in flight across the hop latency at once:
     * one delivery per (cycle + hop) with at least two cycles between
     * train starts keeps the count under ~13 at the 25G defaults, and
     * commitTrain asserts it never reaches kMaxTrainsInFlight.
     * Memory trains carry mid-message /MD/ data; frame trains carry L2
     * /S/ + data runs (the /Tn/ boundary always travels per-block).
     */
    struct Train
    {
        enum class Kind
        {
            Memory,
            Frame,
        };

        std::vector<phy::PhyBlock> blocks;
        std::vector<Picoseconds> avails; ///< per-block availability (memory)
        Kind kind = Kind::Memory;
        Picoseconds start = 0;        ///< first block's emission slot
    };

    static constexpr std::size_t kMaxTrainsInFlight = 32;

    struct TxPump
    {
        bool active = false;
        Picoseconds next_slot = 0;
        /** Pending emit event while active (cadence or parked-waiting). */
        EventId emit_ev = kInvalidEvent;
        Picoseconds emit_at = 0;
        /** In-flight trains, oldest first; the newest may be trimmed. */
        std::deque<Train> trains;
    };

    EdmConfig cfg_;
    Simulation &sim_;

    /** Wiring derived from cfg_.topology (single-switch by default). */
    net::Topology topo_;

    std::vector<std::unique_ptr<HostStack>> hosts_;

    /** One switch per leaf; exactly one element in single mode. */
    std::vector<std::unique_ptr<SwitchStack>> switches_;

    struct LinkHealth
    {
        int corrupt_next = 0;       ///< pending injected corruptions
        std::uint64_t errors = 0;   ///< detected corrupt blocks
        bool disabled = false;      ///< tripped the damage threshold
    };

    std::vector<TxPump> host_pumps_;
    std::vector<TxPump> switch_pumps_;
    std::vector<phy::BlockFifo> frame_backlog_;
    std::vector<LinkHealth> uplink_health_;
    LinkHealthHook link_health_hook_;

    Samples read_lat_;
    Samples write_lat_;
    Samples rmw_lat_;

    /** Effective train caps: min(cfg knob, hop/cycle + 2). See trainCap(). */
    std::size_t train_cap_ = 1;
    std::size_t frame_train_cap_ = 1;

    /** Recycled train vectors. */
    std::vector<Train> train_pool_;

    /** The switch serving node @p port (the only one in single mode). */
    SwitchStack &leafSw(NodeId port) { return *switches_[topo_.leafOf(port)]; }
    /** Wire cross-leaf routing (leaf-spine only; no-op wiring cost). */
    void installTrunkHooks();
    std::size_t trainCap(std::size_t knob) const;
    static void topUpFrames(phy::PreemptionMux &mux,
                            phy::BlockFifo &backlog);
    Train acquireTrain();
    void releaseTrain(Train t);
    void pumpWake(TxPump &p, Picoseconds ready, EventQueue::Callback emit);
    void commitTrain(TxPump &p, Train t, std::size_t run, Picoseconds now,
                     EventQueue::Callback deliver, EventQueue::Callback emit);
    std::size_t takeFrameTrain(phy::PreemptionMux &mux,
                               phy::BlockFifo &backlog, Picoseconds now,
                               Train &t);
    void trimFrameTrain(NodeId port, TxPump &p, Train &t,
                        phy::PreemptionMux &mux);
    /** Emit a TrainEmit/TrainTrim record when the event log is attached. */
    void noteTrainEvent(trace::EventType type, NodeId port, Train::Kind kind,
                        std::size_t blocks);
    void pumpHost(NodeId id);
    void emitHost(NodeId id);
    void deliverHostTrain(NodeId id);
    void abortUplinkTrain(NodeId id);
    void trimUplinkTrain(NodeId id);
    void pumpSwitchPort(NodeId port);
    void trimEgressTrain(NodeId port);
    void emitSwitchPort(NodeId port);
    void deliverSwitchTrain(NodeId port);
};

} // namespace core
} // namespace edm

#endif // EDM_CORE_FABRIC_HPP
