/**
 * @file
 * Deterministic fault-campaign engine (paper §3.3 availability story,
 * exercised end to end).
 *
 * A FaultCampaign schedules timed fault actions against a running
 * CycleFabric on the simulation clock: single-link corruption bursts,
 * correlated multi-link storms (every chosen uplink flaps within a
 * seeded jitter window), link repair, and — through a ReplicatedFabric —
 * switch power-loss plus failback with state resync-by-observation.
 * It observes the fabric's link-health transitions through
 * CycleFabric::setLinkHealthHook and turns them into first-class
 * recovery metrics (FaultStats): time-to-detect, time-to-disable,
 * time-to-repair, and the host-side retried / recovered / abandoned
 * operation counters.
 *
 * Determinism: every action is scheduled from spec values only (times,
 * node lists, a seeded Rng for storm jitter), and the campaign never
 * consults wall-clock or the simulation's shared RNG — so the same spec
 * and seed reproduce a bit-identical fault sequence, FaultStats and
 * event-log decision stream for any ScenarioRunner thread count.
 */

#ifndef EDM_SIM_FAULT_CAMPAIGN_HPP
#define EDM_SIM_FAULT_CAMPAIGN_HPP

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "core/fabric.hpp"
#include "core/replicated.hpp"
#include "sim/simulation.hpp"

namespace edm {

/** Recovery metrics of one fault campaign (latencies in nanoseconds). */
struct FaultStats
{
    std::uint64_t injections = 0;       ///< corruption bursts landed
    std::uint64_t links_disabled = 0;   ///< threshold latched a link off
    std::uint64_t links_repaired = 0;   ///< repairs applied
    std::uint64_t switch_failures = 0;  ///< replicated network power-loss
    std::uint64_t switch_failbacks = 0; ///< replicated network resyncs

    // ---- host-side op recovery (summed over every node at stats()) ----
    std::uint64_t ops_timed_out = 0; ///< read-timeout guard firings
    std::uint64_t ops_retried = 0;   ///< read re-issues (backoff path)
    std::uint64_t ops_recovered = 0; ///< reads completed after a retry
    std::uint64_t ops_abandoned = 0; ///< retry budget exhausted → NULL

    Samples detect_ns;  ///< injection → first detected error, per link
    Samples disable_ns; ///< injection → link disabled, per link
    Samples repair_ns;  ///< link disabled → repaired, per link
};

/**
 * Schedules fault actions on a fabric and measures its recovery.
 *
 * Construction installs the fabric's link-health hook (replacing any
 * previous observer). Schedule actions before or during sim.run();
 * read stats() after.
 */
class FaultCampaign
{
  public:
    FaultCampaign(Simulation &sim, core::CycleFabric &fabric);

    FaultCampaign(const FaultCampaign &) = delete;
    FaultCampaign &operator=(const FaultCampaign &) = delete;

    /**
     * Enable switch-level actions (failSwitchAt / failbackSwitchAt)
     * against @p rep. The campaign's link-level hook stays on the
     * fabric given at construction (conventionally rep.primary()).
     */
    void attachReplicated(core::ReplicatedFabric &rep) { rep_ = &rep; }

    /** Corrupt @p blocks blocks on @p node's uplink at time @p at. */
    void corruptAt(Picoseconds at, core::NodeId node, int blocks);

    /**
     * Correlated failure storm: corrupt every uplink in @p nodes with
     * @p blocks blocks, each at @p at plus a per-node jitter drawn
     * uniformly from [0, jitter] (node-list order, private Rng seeded
     * with @p seed — deterministic and independent of everything else).
     */
    void stormAt(Picoseconds at, const std::vector<core::NodeId> &nodes,
                 int blocks, Picoseconds jitter, std::uint64_t seed);

    /**
     * Auto-repair policy: whenever a link trips the damage threshold,
     * schedule its repair @p delay after the disable (0 = off). Models
     * a technician/optics swap with a fixed turnaround.
     */
    void autoRepairAfter(Picoseconds delay) { auto_repair_delay_ = delay; }

    /** Replicated only: power-loss the primary/backup network at @p at. */
    void failSwitchAt(Picoseconds at, bool backup_network);

    /** Replicated only: failback (repair + store resync) at @p at. */
    void failbackSwitchAt(Picoseconds at, bool backup_network);

    /**
     * Snapshot the campaign's recovery metrics. Phase samples and fault
     * counters accumulate as transitions happen; the host-side op
     * counters are collected from the fabric at call time.
     */
    FaultStats stats() const;

  private:
    struct NodeState
    {
        Picoseconds injected_at = -1; ///< last burst; -1 = none pending
        bool detect_seen = false;     ///< detect sample taken for burst
        Picoseconds disabled_at = -1; ///< -1 = link currently enabled
    };

    Simulation &sim_;
    core::CycleFabric &fabric_;
    core::ReplicatedFabric *rep_ = nullptr;
    Picoseconds auto_repair_delay_ = 0;

    FaultStats stats_; ///< counters + phase samples (ops_* filled later)
    std::vector<NodeState> nodes_;

    void onLinkEvent(core::NodeId node, core::CycleFabric::LinkEvent ev,
                     std::uint64_t errors);
};

} // namespace edm

#endif // EDM_SIM_FAULT_CAMPAIGN_HPP
