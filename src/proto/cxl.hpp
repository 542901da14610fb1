/**
 * @file
 * CXL fabric model: PCIe-style link-level credit flow control (paper
 * §4.3 baseline (v)).
 *
 * No end-to-end transport: senders inject flits immediately and the only
 * backpressure is the per-egress credit pool. Under incast the victim
 * egress's credits are exhausted quickly; senders whose uplink head waits
 * for those credits block *all* traffic queued behind it — the
 * head-of-line blocking that makes CXL's loaded latency and MCT collapse
 * (Aurelia [92], §2.4(iv)).
 */

#ifndef EDM_PROTO_CXL_HPP
#define EDM_PROTO_CXL_HPP

#include <map>
#include <memory>

#include "proto/job.hpp"
#include "proto/packet_net.hpp"

namespace edm {
namespace proto {

/** CXL model parameters. */
struct CxlConfig
{
    Bytes flit_payload = 256;  ///< payload bytes per flit-group
    Bytes flit_overhead = 24;  ///< framing/CRC per flit-group
    Bytes credit_bytes = 64 * kKiB;

    /** Unloaded fabric latency: CXL with one switch is ~100 ns cheaper
     * than EDM's Ethernet path (Table 1 discussion, Pond [41]). */
    Picoseconds fixed_overhead = 180 * kNanosecond;
};

/** Credit-flow-controlled CXL-like fabric. */
class CxlModel : public FabricModel
{
  public:
    CxlModel(Simulation &sim, const ClusterConfig &cluster,
             const CxlConfig &cfg = {});

    std::string name() const override { return "CXL"; }

    const PacketNet &net() const { return *net_; }

  protected:
    void arrive(const Job &job) override;

  private:
    struct JobState
    {
        Job job;
        Bytes delivered = 0;
    };

    CxlConfig ccfg_;
    std::unique_ptr<PacketNet> net_;
    std::map<std::uint64_t, JobState> jobs_;

    void onDeliver(const Packet &p, Picoseconds now);
};

} // namespace proto
} // namespace edm

#endif // EDM_PROTO_CXL_HPP
