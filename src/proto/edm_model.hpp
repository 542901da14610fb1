/**
 * @file
 * Flow-level EDM fabric model for the scale experiments (paper §4.3).
 *
 * Reuses the exact core::Scheduler (priority-PIM, chunk grants, busy
 * timers) that drives the cycle-level fabric, with hosts modelled as
 * grant-obeying chunk transmitters. Reads register implicit demands when
 * the RREQ reaches the switch; writes pay the explicit notify→grant half
 * round trip. Hosts rate-limit active requests to X per destination pair.
 * A flow's entry in the scheduler's demand ledger retires when its data
 * lands, so the ledger holds live flows only, as the cycle fabric's does.
 */

#ifndef EDM_PROTO_EDM_MODEL_HPP
#define EDM_PROTO_EDM_MODEL_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "common/index_map.hpp"
#include "common/index_pool.hpp"
#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "proto/job.hpp"

namespace edm {
namespace proto {

/** EDM scheduler parameters for the flow model. */
struct EdmModelConfig
{
    Bytes chunk_bytes = 256;            ///< grant chunk (§4.3 setup)
    int max_notifications = 3;          ///< X (§3.1.2)
    core::Priority priority = core::Priority::Srpt;
    double scheduler_ghz = 3.0;         ///< ASIC synthesis rate (§4.1)

    /**
     * Charge exact 66-bit block line-time per chunk (EdmConfig
     * equivalent): the shared core::Scheduler's port-occupancy timers
     * and this model's chunk serialization both switch from the raw
     * payload `l/B` to the wire-charged occupancy of
     * core/occupancy.hpp. Changes every schedule — rebaseline golden
     * values per docs/REBASELINE.md.
     */
    bool wire_charged_occupancy = false;

    /**
     * Optional fabric event log (not owned; forwarded into the shared
     * scheduler's EdmConfig). Null disables recording.
     */
    trace::EventLog *event_log = nullptr;
};

/** The EDM fabric at flow granularity. */
class EdmFlowModel : public FabricModel
{
  public:
    EdmFlowModel(Simulation &sim, const ClusterConfig &cluster,
                 const EdmModelConfig &cfg = {});

    std::string name() const override { return "EDM"; }

    /** Scheduler statistics (matching iterations, grants). */
    const core::Scheduler &scheduler() const { return *sched_; }

    /** Mutable scheduler access (fault hooks, e.g. abortPort in tests). */
    core::Scheduler &scheduler() { return *sched_; }

    /**
     * Launches deferred because the pair's next 8-bit message id was
     * still live (the flow-model mirror of HostStack's id-wrap stall):
     * reusing a live id would silently merge two jobs' delivery
     * accounting. Stalled jobs park until the conflicting id retires.
     */
    std::uint64_t idStalls() const { return id_stalls_; }

    /**
     * Grants that arrived for a job already delivered (or whose 8-bit
     * message id was reclaimed): the flow-level analogue of a grant for
     * a retired demand, tolerated and counted instead of asserted. The
     * ledger retires a flow only once its data lands, after its demand
     * left the queue at its final grant, so none occur without a fault
     * abort.
     */
    std::uint64_t staleGrants() const { return stale_grants_; }

  protected:
    /** Admit under the per-pair X budget and id-wrap guard, or park. */
    void arrive(const Job &job) override;

  private:
    static constexpr std::uint32_t kNone = common::IndexMap::kNone;

    struct Active
    {
        Job job;
        Bytes delivered = 0;
    };

    /** A parked job and the next one parked on its pair (or kNone). */
    struct Parked
    {
        Job job;
        std::uint32_t next = kNone;
    };

    /** A pair's parked jobs, oldest first: parked_ indices (or kNone). */
    struct ParkedFifo
    {
        std::uint32_t head = kNone;
        std::uint32_t tail = kNone;
    };

    /** Index of the (src, dst) pair in the per-pair vectors. */
    std::size_t
    pairIndex(core::NodeId src, core::NodeId dst) const
    {
        return static_cast<std::size_t>(src) * cfg_.num_nodes + dst;
    }

    /** Message identity packed as src 16 | dst 16 | id 8. */
    static std::uint64_t
    msgKey(core::NodeId src, core::NodeId dst, core::MsgId id)
    {
        return static_cast<std::uint64_t>(src) << 24 |
            static_cast<std::uint64_t>(dst) << 8 | id;
    }

    EdmModelConfig mcfg_;
    core::EdmConfig ecfg_;
    std::unique_ptr<core::Scheduler> sched_;

    /** Live messages by index, and their indices by msgKey(). */
    common::IndexPool<Active> active_;
    common::IndexMap active_index_;

    /** Parked jobs of every pair, each linked to the next of its pair. */
    common::IndexPool<Parked> parked_;

    // Per (src, dst) pair, indexed by pairIndex().
    std::vector<int> outstanding_;
    std::vector<ParkedFifo> parked_fifo_;
    std::vector<core::MsgId> next_id_;
    std::uint64_t stale_grants_ = 0;
    std::uint64_t id_stalls_ = 0;

    bool nextIdLive(core::NodeId src, core::NodeId dst) const;
    void launch(const Job &job);
    void onGrant(const core::GrantAction &action);
    void deliverChunk(std::uint64_t key, Bytes chunk, Picoseconds at);

    /** Append @p job to pair @p pair's parked FIFO. */
    void park(std::size_t pair, const Job &job);

    /** Jobs parked on pair @p pair (walks its FIFO). */
    std::size_t parkedCount(std::size_t pair) const;
};

} // namespace proto
} // namespace edm

#endif // EDM_PROTO_EDM_MODEL_HPP
