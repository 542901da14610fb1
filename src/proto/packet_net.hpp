/**
 * @file
 * Packet-level single-switch network engine for the baseline fabrics.
 *
 * Models the substrate the reactive baselines (DCTCP, pFabric, PFC/DCQCN,
 * CXL) run over: per-node uplinks, an output-queued switch with bounded
 * per-egress buffers, per-node downlinks. Features are toggled per model:
 *   - ECN marking above a queue threshold (DCTCP, pFabric, DCQCN);
 *   - drops at buffer overflow (DCTCP, pFabric);
 *   - PFC pause/resume with head-of-line blocking at the uplinks;
 *   - CXL-style per-egress credit pools with head-of-line blocking.
 * Queue discipline per egress: FIFO or SRPT priority (pFabric).
 */

#ifndef EDM_PROTO_PACKET_NET_HPP
#define EDM_PROTO_PACKET_NET_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/units.hpp"
#include "proto/job.hpp"

namespace edm {
namespace proto {

/** One packet (data segment, ACK, or control message). */
struct Packet
{
    std::uint64_t job_id = 0;
    NodeId src = 0;
    NodeId dst = 0;
    Bytes wire_bytes = 0;   ///< bytes charged on every link
    std::uint64_t seq = 0;  ///< segment index within the job
    std::int64_t prio = 0;  ///< lower = served first under SRPT
    bool is_ack = false;
    bool ecn = false;       ///< marked by the switch
};

/** Switch scheduling discipline. */
enum class Discipline
{
    Fifo,
    Srpt,
};

/** Engine feature configuration. */
struct PacketNetConfig
{
    Discipline discipline = Discipline::Fifo;

    Bytes ecn_threshold = 0;   ///< 0 = no marking
    Bytes buffer_bytes = 0;    ///< 0 = unbounded (lossless fabrics)

    // PFC (paper §2.4 limitation 6): pause everything feeding a hot
    // egress; resume below the low-water mark.
    bool pfc = false;
    Bytes pfc_xoff = 40 * kKiB;
    Bytes pfc_xon = 20 * kKiB;

    // CXL-style link-level credits (paper §4.3): an uplink may transmit
    // toward an egress only while that egress has credit.
    bool credits = false;
    Bytes credit_bytes = 8 * kKiB;
};

/**
 * The engine. Owners push packets with send(); completed deliveries and
 * drops come back through callbacks.
 */
class PacketNet
{
  public:
    using DeliverFn = std::function<void(const Packet &, Picoseconds)>;
    using DropFn = std::function<void(const Packet &, Picoseconds)>;

    PacketNet(Simulation &sim, const ClusterConfig &cluster,
              const PacketNetConfig &cfg, DeliverFn on_deliver,
              DropFn on_drop = {});

    /** Enqueue @p p on its source uplink at the current time. */
    void send(const Packet &p);

    // ---- statistics ----
    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t dropped() const { return dropped_; }
    std::uint64_t ecnMarked() const { return ecn_marked_; }
    std::uint64_t pauseEvents() const { return pause_events_; }

  private:
    struct Egress
    {
        std::deque<Packet> q; ///< FIFO order; SRPT selects by prio
        Bytes bytes = 0;
        bool busy = false;
        bool paused_upstream = false; ///< PFC state
        Bytes credit_avail = 0;       ///< CXL credit pool
    };

    struct Uplink
    {
        std::deque<Packet> q;
        bool busy = false;
        bool waiting = false; ///< head blocked on pause/credit
    };

    Simulation &sim_;
    ClusterConfig cluster_;
    PacketNetConfig cfg_;
    DeliverFn on_deliver_;
    DropFn on_drop_;

    std::vector<Uplink> uplinks_;
    std::vector<Egress> egresses_;

    std::uint64_t delivered_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t ecn_marked_ = 0;
    std::uint64_t pause_events_ = 0;

    void serviceUplink(NodeId node);
    void arriveAtSwitch(Packet p);
    void serviceEgress(NodeId port);
    void wakeBlockedUplinks();
};

} // namespace proto
} // namespace edm

#endif // EDM_PROTO_PACKET_NET_HPP
