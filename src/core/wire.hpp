/**
 * @file
 * Bit-level wire format: messages ↔ 66-bit PHY block sequences.
 *
 * Header layout in the 56-bit control payload of /MS/ (and /MST/):
 *
 *   bits  0–3   message type
 *   bits  4–12  destination node (9 b, ≤ 512 nodes per paper §3.1.4)
 *   bits 13–21  source node (9 b)
 *   bits 22–29  message id (8 b)
 *   bits 30–45  length field (16 b): chunk payload bytes, or bytes to
 *               read for RREQ
 *   bits 46–50  RMW opcode (5 b)
 *   bit  51     last-chunk flag
 *
 * Notification /N/ and grant /G/ blocks use the same 9+9+8+16 bit
 * dst/src/id/size layout (paper §3.1.4 sizes the fields identically);
 * bit 42 of a /G/ flags a response (RRES) grant, disambiguating it
 * from a write grant when a host holds both roles under one (dst, id).
 *
 * Body blocks (/MD/, sync=10): RREQ/WREQ/RMWREQ carry the 64-bit target
 * address first; RMWREQ then carries arg0, arg1; WREQ/RRES then carry
 * payload bytes 8 per block.
 */

#ifndef EDM_CORE_WIRE_HPP
#define EDM_CORE_WIRE_HPP

#include <optional>
#include <vector>

#include "core/message.hpp"
#include "phy/block.hpp"

namespace edm {
namespace core {

/** Decoded /N/ or /G/ block contents. */
struct ControlInfo
{
    NodeId dst = 0;
    NodeId src = 0;
    MsgId id = 0;
    Bytes size = 0; ///< message size (/N/) or granted chunk bytes (/G/)

    /**
     * Grant direction: true when the grant pays an RRES demand (the
     * receiver of the /G/ is the *memory node* of the flow), false for
     * a WREQ demand (the receiver is the writer). Message ids are
     * assigned per requester, so a host that is both writing to a peer
     * and serving that peer's read can hold both roles under one
     * (dst, id) pair — without this bit the /G/ is ambiguous and a
     * response grant can be mis-spent on the write (or vice versa).
     * Travels in an otherwise unused payload bit (42).
     */
    bool response = false;
};

/** Pack a message header into a 56-bit /MS/ control payload. */
std::uint64_t packHeader(const MemMessage &m);

/** Unpack an /MS/ control payload into header fields of @p m. */
void unpackHeader(std::uint64_t payload56, MemMessage &m);

/** Pack an /N/ or /G/ payload. */
std::uint64_t packControl(const ControlInfo &info);

/** Unpack an /N/ or /G/ payload. */
ControlInfo unpackControl(std::uint64_t payload56);

/** Build a /N/ (demand notification) block. */
phy::PhyBlock makeNotify(const ControlInfo &info);

/** Build a /G/ (grant) block. */
phy::PhyBlock makeGrant(const ControlInfo &info);

/**
 * Serialize a message (or chunk) to its /MS/ … /MT/ block sequence.
 */
std::vector<phy::PhyBlock> serialize(const MemMessage &m);

/**
 * Incremental message reassembler for one receive direction.
 * Feed memory-path blocks in order; completed messages pop out.
 */
class MessageAssembler
{
  public:
    /**
     * Consume one memory-path block (from the preemption demux).
     * @return a complete message when @p b terminates one.
     */
    std::optional<MemMessage> feed(const phy::PhyBlock &b);

    /**
     * Consume a run of @p count memory *data* blocks (a received
     * train); equivalent to feed() on each. None of them can complete
     * a message, and outside a message each counts as a violation.
     */
    void feedData(const phy::PhyBlock *blocks, std::size_t count);

    /** True while a message is partially assembled. */
    bool inMessage() const { return in_message_; }

    /** Protocol violations seen (e.g. /MD/ without /MS/). */
    std::uint64_t violations() const { return violations_; }

  private:
    bool in_message_ = false;
    MemMessage cur_;
    std::size_t body_blocks_ = 0;
    std::uint64_t violations_ = 0;

    /** Decode request body word @p idx (address, RMW operands). */
    void finishBody(std::uint64_t payload, std::size_t idx);

    /** Append @p count data blocks' bytes, up to the header's length. */
    void appendBody(const phy::PhyBlock *blocks, std::size_t count);
};

} // namespace core
} // namespace edm

#endif // EDM_CORE_WIRE_HPP
