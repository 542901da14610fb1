#include "bandwidth_model.hpp"

#include <algorithm>

#include "core/occupancy.hpp"
#include "mac/frame.hpp"

namespace edm {
namespace analytic {

namespace {

/** RoCEv2 wire bytes for a payload: headers + MAC minimum + IFG. */
double
roceWire(Bytes payload)
{
    // Eth(14) + IP(20) + UDP(8) + BTH(12) + RETH(16) + ICRC(4) = 74 of
    // framing, padded to the 64 B minimum, plus preamble + IFG.
    const double frame = std::max<double>(
        64.0, static_cast<double>(payload) + 74.0 + 4.0);
    return frame + 8.0 + 12.0;
}

constexpr double kRoceAck = 84.0; ///< ACK frame incl. preamble + IFG

/** Measured RoCEv2 per-message stack latency (Table 1). */
constexpr Picoseconds kRoceProcessing = fromNs(230.2);

/** EDM per-message host processing (a few PHY cycles, §3.2.1). */
constexpr Picoseconds kEdmProcessing = 7 * kPcsBlockSlot;

} // namespace

RequestCost
requestCost(Framing framing, workload::YcsbWorkload w)
{
    using workload::YcsbGenerator;
    const double wf = workload::ycsbWriteFraction(w);
    const double rf = 1.0 - wf;
    const Bytes read_bytes = YcsbGenerator::kReadBytes;
    const Bytes write_bytes = YcsbGenerator::kWriteBytes;

    RequestCost c;
    if (framing == Framing::Edm) {
        // Per-message wire budgets are the block counts of the wire
        // format (core::wireBytes): 66-bit blocks including /MS/,
        // address and /MT/ framing — the same block counts the
        // scheduler's wire-charged port timers reserve.
        const double rreq = core::wireBytes(core::MemMsgType::RREQ, 0);
        const double rres =
            core::wireBytes(core::MemMsgType::RRES, read_bytes);
        const double wreq =
            core::wireBytes(core::MemMsgType::WREQ, write_bytes);
        const double notify = core::kBlockWireBytes;
        const double grant = core::kBlockWireBytes;
        // Uplink: read requests + write notifications + write data.
        c.uplink_bytes = rf * rreq + wf * (notify + wreq);
        // Downlink: read responses + write grants.
        c.downlink_bytes = rf * rres + wf * grant;
        c.processing = kEdmProcessing;
    } else {
        // RoCEv2: every message is a full frame; responses and writes are
        // ACKed on the opposite direction (reliable connection).
        c.uplink_bytes = rf * (roceWire(8) + kRoceAck) +
            wf * roceWire(write_bytes);
        c.downlink_bytes = rf * roceWire(read_bytes) + wf * kRoceAck;
        c.processing = kRoceProcessing;
    }
    return c;
}

double
throughputMrps(Framing framing, workload::YcsbWorkload w, Gbps rate)
{
    const RequestCost c = requestCost(framing, w);
    const double bytes_per_sec = rate.value * 1e9 / 8.0;
    const double up = bytes_per_sec / c.uplink_bytes;
    const double down = bytes_per_sec / c.downlink_bytes;
    const double proc = 1e12 / static_cast<double>(c.processing);
    return std::min({up, down, proc}) / 1e6;
}

double
minFrameWaste(Bytes payload)
{
    const Bytes capacity = mac::kMinFrame - mac::kHeaderBytes -
        mac::kFcsBytes;
    if (payload >= capacity)
        return 0.0;
    return 1.0 - static_cast<double>(payload) /
        static_cast<double>(mac::kMinFrame);
}

double
ifgOverhead(Bytes frame_bytes)
{
    return static_cast<double>(mac::kIfgBytes + mac::kPreambleBytes) /
        static_cast<double>(frame_bytes + mac::kIfgBytes +
                            mac::kPreambleBytes);
}

} // namespace analytic
} // namespace edm
