/**
 * @file
 * Fastpass: centralized server-based flow scheduler (paper §4.3
 * baseline (vi)).
 *
 * Idealized as in the paper: the arbiter solves the global timeslot
 * allocation *infinitely fast* (a per-timeslot bipartite matching with
 * backfill, so data ports never conflict and capacity is not wasted).
 * What remains is the physical bottleneck the paper highlights: demands
 * and allocations cross the arbiter's single 100 Gbps link, which is
 * >100× less than the aggregate cluster bandwidth — with memory-sized
 * messages the control channel saturates and queueing delay at the
 * arbiter dominates.
 */

#ifndef EDM_PROTO_FASTPASS_HPP
#define EDM_PROTO_FASTPASS_HPP

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "proto/job.hpp"

namespace edm {
namespace proto {

/** Fastpass model parameters. */
struct FastpassConfig
{
    Bytes control_wire = 84;        ///< request / allocation frame bytes
    Gbps server_rate{100.0};        ///< arbiter NIC rate (§4.3 setup)
    Bytes data_overhead = 46;       ///< Ethernet framing on data packets
    Bytes alloc_record_bytes = 8;   ///< per-demand allocation record
    Picoseconds batch_interval = 1 * kMicrosecond; ///< per-host batching
    Bytes slot_payload = 110;       ///< timeslot quantum (64 B + framing)
};

/** Centralized-arbiter fabric model. */
class FastpassModel : public FabricModel
{
  public:
    FastpassModel(Simulation &sim, const ClusterConfig &cluster,
                  const FastpassConfig &cfg = {});

    std::string name() const override { return "Fastpass"; }

    Picoseconds idealLatency(Bytes size, bool is_write) const override;

  protected:
    void arrive(const Job &job) override;

  private:
    struct Host
    {
        std::vector<Job> pending; ///< demands awaiting the next batch
    };

    /** Per-port timeslot occupancy (quantized, with backfill). */
    struct PortSlots
    {
        std::set<std::int64_t> used;
    };

    FastpassConfig fcfg_;

    Picoseconds server_in_free_ = 0;  ///< request-link timeline
    Picoseconds server_out_free_ = 0; ///< response-link timeline
    std::vector<PortSlots> src_slots_;
    std::vector<PortSlots> dst_slots_;
    std::vector<Picoseconds> next_batch_;
    std::map<NodeId, Host> hosts_;

    Picoseconds slotQuantum() const;

    /**
     * Earliest run of @p count consecutive timeslots at or after
     * @p min_slot that is free on both @p src and @p dst; marks it used.
     */
    std::int64_t allocateSlots(NodeId src, NodeId dst,
                               std::int64_t min_slot, int count);

    void flushBatch(NodeId hid);
};

} // namespace proto
} // namespace edm

#endif // EDM_PROTO_FASTPASS_HPP
