/**
 * @file
 * Flow-level EDM fabric model for the scale experiments (paper §4.3).
 *
 * Reuses the exact core::Scheduler (priority-PIM, chunk grants, busy
 * timers) that drives the cycle-level fabric, with hosts modelled as
 * grant-obeying chunk transmitters. Reads register implicit demands when
 * the RREQ reaches the switch; writes pay the explicit notify→grant half
 * round trip. Hosts rate-limit active requests to X per destination pair.
 */

#ifndef EDM_PROTO_EDM_MODEL_HPP
#define EDM_PROTO_EDM_MODEL_HPP

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

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
    void offer(const Job &job) override;

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
     * message id was reclaimed). The cycle-level scheduler retires such
     * demands through its ledger; the flow model tolerates and counts
     * them instead of asserting, keeping the accounting stories aligned.
     */
    std::uint64_t staleGrants() const { return stale_grants_; }

  private:
    struct Active
    {
        Job job;
        Bytes delivered = 0;
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

    /** Live messages, keyed by msgKey(). */
    std::unordered_map<std::uint64_t, Active> active_;

    // Per (src, dst) pair, indexed by pairIndex(). Parked jobs sit in a
    // list so the many never-parking pairs own no allocation.
    std::vector<int> outstanding_;
    std::vector<std::list<Job>> parked_;
    std::vector<core::MsgId> next_id_;
    std::uint64_t stale_grants_ = 0;
    std::uint64_t id_stalls_ = 0;

    void admit(const Job &job);
    bool nextIdLive(core::NodeId src, core::NodeId dst) const;
    void launch(const Job &job);
    void onGrant(const core::GrantAction &action);
    void deliverChunk(std::uint64_t key, Bytes chunk, Picoseconds at);
};

} // namespace proto
} // namespace edm

#endif // EDM_PROTO_EDM_MODEL_HPP
