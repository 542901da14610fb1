/**
 * @file
 * Flow-level simulation jobs and the common fabric-model interface.
 *
 * The large-scale network simulator (paper §4.3) evaluates EDM's
 * scheduler against six congestion/flow-control baselines on a 144-node
 * single-switch cluster at 100 Gbps. A Job is one memory message: for
 * writes the data flows requester→memory, for reads memory→requester
 * (the 8 B request travels first and is part of each model's fixed
 * overhead accounting).
 */

#ifndef EDM_PROTO_JOB_HPP
#define EDM_PROTO_JOB_HPP

#include <cstdint>
#include <deque>
#include <string>

#include "common/stats.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "sim/simulation.hpp"

namespace edm {
namespace proto {

/** Node index within the cluster. */
using NodeId = std::uint16_t;

/** One memory message to be carried by a fabric model. */
struct Job
{
    std::uint64_t id = 0;
    NodeId src = 0;          ///< data sender
    NodeId dst = 0;          ///< data receiver
    Bytes size = 0;          ///< data bytes
    bool is_write = false;   ///< write (explicit notify) vs read response
    Picoseconds arrival = 0; ///< when the requester issues the operation
};

/** Cluster parameters shared by every model. */
struct ClusterConfig
{
    std::size_t num_nodes = 144;
    Gbps link_rate{100.0};
    Picoseconds propagation = 10 * kNanosecond; ///< one hop

    /** Per-message fixed fabric latency (stack + switch, unloaded). */
    Picoseconds fixed_overhead = 300 * kNanosecond;
};

/**
 * Base class for the seven fabric models.
 *
 * Usage: construct with a Simulation, offer() jobs, run the simulation,
 * then read completion statistics. Normalization against the model's own
 * unloaded latency is the caller's job via idealLatency().
 *
 * offer() is the one arrival path. It accepts jobs in any order, before
 * or between runs, as long as no arrival lies before now(), and each job
 * reaches the model's arrive() hook at its arrival time. Jobs tied at
 * one arrival time arrive in offer order, and each arrival sorts among
 * the simulation's other events at that instant as an event scheduled
 * at its offer would. The jobs wait in an arrival stream ordered by
 * (arrival, offer); only the stream's head is in the event queue, so a
 * model holds at most one pending arrival event however many jobs it
 * has been offered.
 */
class FabricModel
{
  public:
    FabricModel(Simulation &sim, const ClusterConfig &cfg)
        : sim_(sim), cfg_(cfg)
    {
    }

    virtual ~FabricModel() = default;

    FabricModel(const FabricModel &) = delete;
    FabricModel &operator=(const FabricModel &) = delete;

    /** Model name for reports. */
    virtual std::string name() const = 0;

    /**
     * Hand one job to the fabric: it arrives at job.arrival.
     * @pre job.arrival >= now(): offering a job in the past is a logic
     *      error, reported here rather than when it reaches the head.
     */
    void offer(const Job &job);

    /**
     * Unloaded (contention-free) completion latency of a job of @p size
     * bytes under this model — the normalization denominator ("ideal
     * MCT") used throughout Figure 8.
     */
    virtual Picoseconds idealLatency(Bytes size, bool is_write) const;

    /** Completed-job latency samples, in nanoseconds. */
    const Samples &latency() const { return latency_; }

    /** Completed-job latency normalized by idealLatency(). */
    const Samples &normalized() const { return normalized_; }

    std::uint64_t completed() const { return completed_; }

  protected:
    Simulation &sim_;
    ClusterConfig cfg_;

    /** A job reaches the fabric; now() is its arrival time. */
    virtual void arrive(const Job &job) = 0;

    /** Record a job completion at time @p finish. */
    void
    complete(const Job &job, Picoseconds finish)
    {
        ++completed_;
        const Picoseconds lat = finish - job.arrival;
        latency_.add(toNs(lat));
        const Picoseconds ideal = idealLatency(job.size, job.is_write);
        normalized_.add(static_cast<double>(lat) /
                        static_cast<double>(ideal));
    }

    /** Serialization delay of @p bytes at the cluster line rate. */
    Picoseconds
    txDelay(Bytes bytes) const
    {
        return transmissionDelay(bytes, cfg_.link_rate);
    }

  private:
    /** An offered job and the event-queue ticket it took at its offer. */
    struct Arrival
    {
        Job job;
        std::uint64_t ticket;
    };

    Samples latency_;
    Samples normalized_;
    std::uint64_t completed_ = 0;

    /** Offered jobs not yet arrived, by (arrival, ticket); chunked. */
    std::deque<Arrival> arrivals_;
    /** The pending event for arrivals_.front(), if any. */
    EventId head_event_ = kInvalidEvent;

    /** Schedule the event for the stream's head under its ticket. */
    void fileHead();
    /** The head's event: file the next head, then hand the job over. */
    void arriveHead();
};

} // namespace proto
} // namespace edm

#endif // EDM_PROTO_JOB_HPP
