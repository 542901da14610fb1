/**
 * @file
 * IRD — idealized receiver-driven proactive transport (paper §4.3).
 *
 * Combines the best features of Homa/pHost/NDP/ExpressPass as the paper's
 * baseline does: every receiver learns of new inbound messages in zero
 * time, schedules senders one at a time with SRPT priority, and paces
 * grants so its downlink never queues. The decentralized weakness remains:
 * a granted sender may be busy serving a different receiver, in which case
 * the grant waits at the sender and the receiver's downlink idles — the
 * scheduling-conflict bandwidth loss §2.4 describes.
 */

#ifndef EDM_PROTO_IRD_HPP
#define EDM_PROTO_IRD_HPP

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "hw/ordered_list.hpp"
#include "proto/job.hpp"

namespace edm {
namespace proto {

/** Idealized receiver-driven fabric model. */
class IrdModel : public FabricModel
{
  public:
    IrdModel(Simulation &sim, const ClusterConfig &cluster);

    std::string name() const override { return "IRD"; }

    /** Grants that found the sender busy (conflict accounting). */
    std::uint64_t conflicts() const { return conflicts_; }

  protected:
    void arrive(const Job &job) override;

  private:
    /** A job with grant progress, as the receiver tracks it. */
    struct Pending
    {
        std::uint64_t job_id;
        Bytes remaining;
    };

    struct Receiver
    {
        /** Pending inbound jobs, SRPT-ordered (smaller = first). */
        hw::OrderedList<std::int64_t, Pending> demands{1 << 16};
        Picoseconds next_grant = 0;   ///< token pacing edge
        Picoseconds downlink_free = 0;
        bool wakeup_pending = false;
    };

    struct Grant
    {
        std::uint64_t job_id;
        Bytes chunk;
        bool conflicted = false; ///< sender was busy when it arrived
    };

    struct Sender
    {
        std::deque<Grant> grant_q; ///< accepted grants, FCFS
        bool busy = false;
    };

    struct JobState
    {
        Job job;
        Bytes delivered = 0;
    };

    std::vector<Receiver> receivers_;
    std::vector<Sender> senders_;
    std::map<std::uint64_t, JobState> jobs_;
    std::uint64_t conflicts_ = 0;

    /** Grant unit: roughly a BDP, as receiver-driven transports use. */
    static constexpr Bytes kGrantChunk = 4096;

    void scheduleReceiver(NodeId r);
    void senderService(NodeId s);
    void finishJob(const Grant &grant, Picoseconds tx_done);
};

} // namespace proto
} // namespace edm

#endif // EDM_PROTO_IRD_HPP
