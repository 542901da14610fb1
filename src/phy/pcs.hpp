/**
 * @file
 * PCS framing: MAC frame bytes ↔ 66-bit block sequences.
 *
 * The encoder turns an Ethernet frame (including preamble semantics) into
 * the standard /S/, /D/ (repeated), /Tn/ block sequence; the decoder
 * reverses it. A
 * minimum Ethernet frame (64 B) plus the start block occupies 9 blocks,
 * matching the paper's description (§3.2). Idle (/E/) blocks form the
 * inter-frame gap; EDM repurposes those slots for memory blocks.
 */

#ifndef EDM_PHY_PCS_HPP
#define EDM_PHY_PCS_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "phy/block.hpp"

namespace edm {
namespace phy {

/**
 * Encode a frame's bytes into PCS blocks.
 *
 * The /S/ block absorbs the 8-byte preamble position and carries the
 * first data bytes per 802.3 (we model it carrying the first 7 bytes
 * after the type code); the /Tn/ block carries the final n bytes.
 *
 * @param frame_bytes full MAC frame (dst..fcs), at least 64 bytes
 * @return block sequence: /S/, /D/ (repeated), /Tn/
 */
std::vector<PhyBlock> encodeFrame(const std::vector<std::uint8_t> &frame);

/**
 * Incremental frame decoder: feed blocks in order, frames pop out.
 *
 * Blocks belonging to one frame are expected contiguously (that is the
 * very constraint EDM's RX reassembly buffer restores after preemption —
 * see preemption.hpp). Idle and EDM blocks between frames are ignored.
 */
class FrameDecoder
{
  public:
    /**
     * Consume one block. Returns a completed frame's bytes when @p b is
     * the terminate block of a frame, otherwise nullopt.
     */
    std::optional<std::vector<std::uint8_t>> feed(const PhyBlock &b);

    /** Count of protocol violations observed (e.g. /D/ outside a frame). */
    std::uint64_t violations() const { return violations_; }

  private:
    bool in_frame_ = false;
    std::vector<std::uint8_t> bytes_;
    std::uint64_t violations_ = 0;
};

/** Number of PCS blocks needed to carry a frame of @p frame_bytes. */
std::size_t frameBlockCount(std::size_t frame_bytes);

} // namespace phy
} // namespace edm

#endif // EDM_PHY_PCS_HPP
