/**
 * @file
 * Window-based reactive transports over the packet engine: DCTCP,
 * pFabric (SRPT switch scheduling on top of DCTCP, as in §4.3), and
 * PFC+DCQCN (lossless pause + rate-decrease congestion control).
 *
 * Mechanics shared by all three: messages are segmented at the MTU,
 * per-connection windows gate the inflight bytes, every delivered data
 * segment triggers an ACK on the reverse path (consuming reverse
 * bandwidth — a real cost for tiny memory messages), ECN feedback shrinks
 * the window DCTCP-style, and — for the lossy variants — drops retransmit
 * after a multi-microsecond timeout, the paper's Limitation 6.
 */

#ifndef EDM_PROTO_WINDOW_MODEL_HPP
#define EDM_PROTO_WINDOW_MODEL_HPP

#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "proto/job.hpp"
#include "proto/packet_net.hpp"

namespace edm {
namespace proto {

/** Tunables for the window-transport family. */
struct WindowConfig
{
    Bytes mss = 1460;              ///< payload bytes per segment
    Bytes header_bytes = 78;       ///< L2–L4 headers + preamble + IFG
    Bytes min_wire = 84;           ///< minimum frame + preamble + IFG
    Bytes ack_wire = 84;
    Bytes init_cwnd = 16 * kKiB;
    Bytes min_cwnd = 1460;
    double dctcp_g = 1.0 / 16.0;   ///< DCTCP alpha gain
    Picoseconds rtt_est = 500 * kNanosecond; ///< window-update epoch
    Picoseconds rto = 10 * kMicrosecond;     ///< retransmission timeout

    PacketNetConfig net{};
};

/** DCTCP and friends. Subclasses adjust config and packet priority. */
class WindowModel : public FabricModel
{
  public:
    WindowModel(Simulation &sim, const ClusterConfig &cluster,
                const WindowConfig &cfg, std::string name);

    std::string name() const override { return name_; }

    const PacketNet &net() const { return *net_; }
    std::uint64_t retransmissions() const { return retx_; }

  protected:
    void arrive(const Job &job) override;

    /** Segment priority under SRPT disciplines (default: none). */
    virtual std::int64_t segmentPriority(const Job &job, Bytes remaining);

  private:
    struct JobState
    {
        Job job;
        Bytes sent = 0;      ///< payload handed to the connection
        Bytes delivered = 0; ///< payload ACKed at the receiver
    };

    struct Connection
    {
        double cwnd = 0;
        Bytes inflight = 0;
        double alpha = 0;
        Picoseconds last_cut = 0;
        std::deque<std::uint64_t> fifo; ///< job ids with unsent payload
    };

    WindowConfig wcfg_;
    std::string name_;
    std::unique_ptr<PacketNet> net_;

    std::map<std::uint64_t, JobState> jobs_;
    std::map<std::pair<NodeId, NodeId>, Connection> conns_;
    std::uint64_t retx_ = 0;

    Connection &conn(NodeId s, NodeId d);
    void pump(NodeId s, NodeId d);
    void onDeliver(const Packet &p, Picoseconds now);
    void onDrop(const Packet &p, Picoseconds now);
    void onAck(const Packet &ack, Picoseconds now);
};

/** Plain DCTCP (FIFO switch queues, ECN, drops + timeouts). */
class DctcpModel : public WindowModel
{
  public:
    DctcpModel(Simulation &sim, const ClusterConfig &cluster);
    std::string name() const override { return "DCTCP"; }
};

/** pFabric: DCTCP transport + SRPT switch scheduling. */
class PfabricModel : public WindowModel
{
  public:
    PfabricModel(Simulation &sim, const ClusterConfig &cluster);
    std::string name() const override { return "pFabric"; }

  protected:
    std::int64_t segmentPriority(const Job &job, Bytes remaining) override;
};

/** PFC + DCQCN: lossless pause with ECN-driven rate decrease. */
class PfcDcqcnModel : public WindowModel
{
  public:
    PfcDcqcnModel(Simulation &sim, const ClusterConfig &cluster);
    std::string name() const override { return "PFC"; }
};

} // namespace proto
} // namespace edm

#endif // EDM_PROTO_WINDOW_MODEL_HPP
