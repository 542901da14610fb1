/**
 * @file
 * Wire-occupancy model: the single source of truth converting a chunk's
 * payload size into exact line-time.
 *
 * A granted chunk does not occupy the line for `payload_bytes / B`: it
 * travels as 66-bit PCS blocks — an /MS/ header block, an address block
 * (WREQ), one data block per 8 payload bytes, and a trailing /MT/ — and
 * every one of those blocks takes a full block slot (64 payload bits of
 * line budget; 2.56 ns at 25G). A 256 B write chunk is therefore
 * 35 blocks = 89.6 ns of wire, not the 81.92 ns the raw-payload charge
 * `l/B` accounts for — a ~9% systematic under-charge that lets the
 * scheduler release ports faster than the egress can drain, backing up
 * egress staging and letting /G/ grants outrun their flow's forwarded
 * request (the over-grant regime of the demand-lifecycle ledger work).
 *
 * Everything that reasons about per-chunk line occupancy goes through
 * this header: the scheduler's port-occupancy timers
 * (`grantOccupancy`, `requestForwardOccupancy`), the flow-level EDM
 * latency model's chunk serialization, the analytic bandwidth model's
 * per-message byte budgets (`wireOccupancyBytes`, `kBlockWireBytes`),
 * and the egress staging-depth estimates
 * (`stagingGrowthBlocksPerChunk`). The charging policy is selected by
 * `EdmConfig::wire_charged_occupancy`:
 *
 *   off (default)  bit-exact legacy schedules: ports are charged the
 *                  raw payload serialization `transmissionDelay(l, B)`
 *                  (and request forwards the historical
 *                  `wireBytes + 1` byte rounding);
 *   on             ports are charged the exact block-count line-time,
 *                  so consecutive chunks are paced at the true wire
 *                  rate and egress staging cannot accumulate the
 *                  per-chunk under-charge.
 *
 * The arithmetic is documented with worked examples in
 * docs/WIRE_FORMAT.md; the golden-rebaseline procedure for adopting a
 * schedule-changing charge (like turning this knob on) is
 * docs/REBASELINE.md.
 */

#ifndef EDM_CORE_OCCUPANCY_HPP
#define EDM_CORE_OCCUPANCY_HPP

#include <cstddef>

#include "common/time.hpp"
#include "common/units.hpp"
#include "core/config.hpp"
#include "core/message.hpp"
#include "phy/block.hpp"

namespace edm {
namespace core {

/**
 * Line-time of one 66-bit block at @p rate.
 *
 * Rates follow the payload-bit convention used throughout the repo
 * (64b/66b coding efficiency folded into the block clock): a block slot
 * carries kBlockDataBytes of line budget, so at 25G one slot is
 * 64 bit / 25 Gb/s = 2.56 ns — exactly kPcsBlockSlot.
 */
constexpr Picoseconds
wireBlockTime(Gbps rate)
{
    return transmissionDelay(static_cast<Bytes>(phy::kBlockDataBytes),
                             rate);
}

/** Line-time of @p blocks back-to-back 66-bit blocks at @p rate. */
constexpr Picoseconds
lineTime(std::size_t blocks, Gbps rate)
{
    return static_cast<Picoseconds>(blocks) * wireBlockTime(rate);
}

/**
 * Exact line-time of one message (or chunk) of @p type carrying
 * @p payload bytes: /MS/ + address/argument blocks + one data block per
 * 8 payload bytes + /MT/ (or a single /MST/ for a header-only RRES),
 * each a full block slot. The block count is core::wireBlocks — the
 * same count serialize() produces, so the charge can never drift from
 * the wire format.
 */
inline Picoseconds
chunkLineTime(MemMsgType type, Bytes payload, Gbps rate)
{
    return lineTime(wireBlocks(type, payload), rate);
}

/**
 * Preemption re-entry overhead, in block slots: under the fair TX
 * policy one staged frame block may claim the slot between two memory
 * messages (the mux re-alternates at every /MT/ boundary), so on a port
 * that also carries L2 frames a chunk's first block can slip one slot.
 * It is a staging estimate, not a port charge: grantOccupancy never
 * adds it, and staging-depth estimates for mixed traffic add it per
 * chunk (stagingGrowthBlocksPerChunk's @p with_frames).
 */
inline constexpr std::size_t kPreemptionReentryBlocks = 1;

/**
 * Wire bytes of one message of @p type with @p payload bytes — the
 * byte-denominated view of the same block count, used by link byte
 * budgets (analytic bandwidth model, workload load calibration).
 */
inline double
wireOccupancyBytes(MemMsgType type, Bytes payload)
{
    return wireBytes(type, payload);
}

/** Wire bytes of one control block (/N/, /G/): 66 bits. */
inline constexpr double kBlockWireBytes =
    static_cast<double>(phy::kBlockWireBits) / 8.0;

/**
 * Port-occupancy charge for a granted chunk of @p chunk bytes
 * (§3.1.1 step 7: both ports stay reserved this long after the grant).
 * @p response selects the chunk framing: RRES chunks have no address
 * block, WREQ chunks do.
 *
 * The payload charge returns the historical raw-payload serialization
 * delay bit-exactly; wire-charged mode returns the exact block
 * line-time.
 */
inline Picoseconds
grantOccupancy(const EdmConfig &cfg, bool response, Bytes chunk)
{
    if (!cfg.wire_charged_occupancy)
        return transmissionDelay(chunk, cfg.link_rate);
    return chunkLineTime(response ? MemMsgType::RRES : MemMsgType::WREQ,
                         chunk, cfg.link_rate);
}

/**
 * Port-occupancy charge for forwarding a buffered RREQ/RMWREQ to the
 * memory node (the implicit first grant of a response demand).
 *
 * Legacy mode reproduces the historical `wireBytes + 1` byte rounding
 * bit-exactly; wire-charged mode charges the request's exact block
 * count (3 slots for an RREQ, 5 for an RMWREQ).
 */
inline Picoseconds
requestForwardOccupancy(const EdmConfig &cfg, const MemMessage &req)
{
    if (!cfg.wire_charged_occupancy) {
        const auto req_bytes = static_cast<Bytes>(
            wireBytes(req.type, req.payload.size()) + 1.0);
        return transmissionDelay(req_bytes, cfg.link_rate);
    }
    return chunkLineTime(req.type, req.payload.size(), cfg.link_rate);
}

/**
 * Link tiers a granted chunk traverses in a multi-tier topology
 * (PR 9, docs/TOPOLOGY.md). An intra-leaf chunk crosses LeafIngress
 * and LeafEgress (the host uplink into its leaf and the receiver's
 * downlink out of it — the single-switch fabric's two hops); a
 * cross-leaf chunk additionally crosses a Trunk lane and the Spine.
 * Values are stable wire-format codes: trace::Record::tier carries
 * them in TierCharge event-log records.
 */
enum class LinkTier : std::uint8_t
{
    None = 0,
    LeafIngress = 1, ///< sender uplink -> leaf switch
    Trunk = 2,       ///< leaf -> spine ECMP lane (and back down)
    Spine = 3,       ///< contention-free spine crossing
    LeafEgress = 4,  ///< leaf switch -> receiver downlink
};

inline constexpr std::size_t kNumLinkTiers = 5;

inline const char *
toString(LinkTier tier)
{
    switch (tier) {
    case LinkTier::None: return "none";
    case LinkTier::LeafIngress: return "leaf-ingress";
    case LinkTier::Trunk: return "trunk";
    case LinkTier::Spine: return "spine";
    case LinkTier::LeafEgress: return "leaf-egress";
    }
    return "unknown";
}

/**
 * Estimated egress-staging growth, in blocks, contributed by one
 * granted chunk: the gap between the chunk's true line-time and the
 * occupancy the scheduler charged for it, expressed in block slots
 * (plus the preemption re-entry slot when the port also carries frame
 * traffic). Under legacy charging this is positive — every chunk
 * through a saturated egress leaves this many blocks behind in the
 * staging queues, which is why incast staging depth grows with the
 * grant count — and exactly zero under wire-charged occupancy on a
 * frame-free port.
 */
inline double
stagingGrowthBlocksPerChunk(const EdmConfig &cfg, bool response,
                            Bytes chunk, bool with_frames = false)
{
    const Picoseconds true_time = chunkLineTime(
        response ? MemMsgType::RRES : MemMsgType::WREQ, chunk,
        cfg.link_rate);
    const Picoseconds charged = grantOccupancy(cfg, response, chunk);
    double growth = static_cast<double>(true_time - charged) /
        static_cast<double>(wireBlockTime(cfg.link_rate));
    if (with_frames)
        growth += static_cast<double>(kPreemptionReentryBlocks);
    return growth;
}

} // namespace core
} // namespace edm

#endif // EDM_CORE_OCCUPANCY_HPP
