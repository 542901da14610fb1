#include "wire.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hpp"

namespace edm {
namespace core {

namespace {

// Body blocks carry payload bytes little-endian (byte i in bits 8i..8i+7),
// so on a little-endian host a block's word *is* its byte image and the
// pack/unpack paths copy whole words.
static_assert(std::endian::native == std::endian::little,
              "wire body packing assumes a little-endian host");

constexpr std::uint64_t kMask4 = 0xF;
constexpr std::uint64_t kMask5 = 0x1F;
constexpr std::uint64_t kMask8 = 0xFF;
constexpr std::uint64_t kMask9 = 0x1FF;
constexpr std::uint64_t kMask16 = 0xFFFF;

std::uint64_t
packLeBytes(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t v = 0;
    std::memcpy(&v, p, n);
    return v;
}

} // namespace

std::uint64_t
packHeader(const MemMessage &m)
{
    EDM_ASSERT(m.dst <= kMask9 && m.src <= kMask9,
               "node id out of 9-bit range: %u/%u", m.src, m.dst);
    EDM_ASSERT(m.len <= kMask16, "length %llu exceeds 16-bit field",
               static_cast<unsigned long long>(m.len));
    std::uint64_t v = 0;
    v |= static_cast<std::uint64_t>(m.type) & kMask4;
    v |= (static_cast<std::uint64_t>(m.dst) & kMask9) << 4;
    v |= (static_cast<std::uint64_t>(m.src) & kMask9) << 13;
    v |= (static_cast<std::uint64_t>(m.id) & kMask8) << 22;
    v |= (static_cast<std::uint64_t>(m.len) & kMask16) << 30;
    v |= (static_cast<std::uint64_t>(m.opcode) & kMask5) << 46;
    v |= (m.last_chunk ? 1ULL : 0ULL) << 51;
    return v;
}

void
unpackHeader(std::uint64_t payload56, MemMessage &m)
{
    m.type = static_cast<MemMsgType>(payload56 & kMask4);
    m.dst = static_cast<NodeId>((payload56 >> 4) & kMask9);
    m.src = static_cast<NodeId>((payload56 >> 13) & kMask9);
    m.id = static_cast<MsgId>((payload56 >> 22) & kMask8);
    m.len = static_cast<Bytes>((payload56 >> 30) & kMask16);
    m.opcode = static_cast<mem::RmwOp>((payload56 >> 46) & kMask5);
    m.last_chunk = ((payload56 >> 51) & 1) != 0;
}

std::uint64_t
packControl(const ControlInfo &info)
{
    EDM_ASSERT(info.dst <= kMask9 && info.src <= kMask9,
               "node id out of 9-bit range: %u/%u", info.src, info.dst);
    EDM_ASSERT(info.size <= kMask16, "size %llu exceeds 16-bit field",
               static_cast<unsigned long long>(info.size));
    std::uint64_t v = 0;
    v |= static_cast<std::uint64_t>(info.dst) & kMask9;
    v |= (static_cast<std::uint64_t>(info.src) & kMask9) << 9;
    v |= (static_cast<std::uint64_t>(info.id) & kMask8) << 18;
    v |= (static_cast<std::uint64_t>(info.size) & kMask16) << 26;
    v |= (info.response ? 1ULL : 0ULL) << 42;
    return v;
}

ControlInfo
unpackControl(std::uint64_t payload56)
{
    ControlInfo info;
    info.dst = static_cast<NodeId>(payload56 & kMask9);
    info.src = static_cast<NodeId>((payload56 >> 9) & kMask9);
    info.id = static_cast<MsgId>((payload56 >> 18) & kMask8);
    info.size = static_cast<Bytes>((payload56 >> 26) & kMask16);
    info.response = ((payload56 >> 42) & 1) != 0;
    return info;
}

phy::PhyBlock
makeNotify(const ControlInfo &info)
{
    return phy::PhyBlock::control(phy::BlockType::Notify, packControl(info));
}

phy::PhyBlock
makeGrant(const ControlInfo &info)
{
    return phy::PhyBlock::control(phy::BlockType::Grant, packControl(info));
}

std::vector<phy::PhyBlock>
serialize(const MemMessage &m)
{
    std::vector<phy::PhyBlock> blocks;

    // Header-only messages fit a single /MST/ block (e.g. the zero-length
    // NULL read response generated on memory-node failure, §3.3).
    if (m.type == MemMsgType::RRES && m.payload.empty()) {
        blocks.push_back(phy::PhyBlock::control(phy::BlockType::MemSingle,
                                                packHeader(m)));
        return blocks;
    }

    blocks.reserve(wireBlocks(m.type, m.payload.size()));
    blocks.push_back(
        phy::PhyBlock::control(phy::BlockType::MemStart, packHeader(m)));

    switch (m.type) {
      case MemMsgType::RREQ:
        blocks.push_back(phy::PhyBlock::data(m.addr));
        break;
      case MemMsgType::RMWREQ:
        blocks.push_back(phy::PhyBlock::data(m.addr));
        blocks.push_back(phy::PhyBlock::data(m.arg0));
        blocks.push_back(phy::PhyBlock::data(m.arg1));
        break;
      case MemMsgType::WREQ:
        blocks.push_back(phy::PhyBlock::data(m.addr));
        [[fallthrough]];
      case MemMsgType::RRES:
        for (std::size_t i = 0; i < m.payload.size(); i += 8) {
            const std::size_t n = std::min<std::size_t>(
                8, m.payload.size() - i);
            blocks.push_back(
                phy::PhyBlock::data(packLeBytes(m.payload.data() + i, n)));
        }
        break;
    }

    blocks.push_back(phy::PhyBlock::control(phy::BlockType::MemTerm, 0));
    return blocks;
}

void
MessageAssembler::finishBody(std::uint64_t payload, std::size_t idx)
{
    // Request words: the target address, then an RMW's two operands.
    if (cur_.type == MemMsgType::RMWREQ && idx == 1)
        cur_.arg0 = payload;
    else if (cur_.type == MemMsgType::RMWREQ && idx > 1)
        cur_.arg1 = payload;
    else
        cur_.addr = payload;
}

void
MessageAssembler::appendBody(const phy::PhyBlock *blocks, std::size_t count)
{
    // Bytes past the header's length (the last block's padding) drop.
    const std::size_t have = cur_.payload.size();
    const std::size_t room = cur_.len > have ? cur_.len - have : 0;
    const std::size_t n = std::min<std::size_t>(8 * count, room);
    cur_.payload.resize(have + n);
    std::uint8_t *dst = cur_.payload.data() + have;
    for (std::size_t off = 0; off < n; off += 8, ++blocks)
        std::memcpy(dst + off, &blocks->payload,
                    std::min<std::size_t>(8, n - off));
}

std::optional<MemMessage>
MessageAssembler::feed(const phy::PhyBlock &b)
{
    if (!in_message_) {
        if (b.isControl() && b.type() == phy::BlockType::MemStart) {
            in_message_ = true;
            cur_ = MemMessage{};
            unpackHeader(b.controlPayload(), cur_);
            // The header announces the body size: reserving here keeps
            // the per-data-block append from reallocating mid-message
            // (WREQ/RRES bodies arrive one 8-byte block per line slot).
            if (cur_.type == MemMsgType::WREQ ||
                cur_.type == MemMsgType::RRES)
                cur_.payload.reserve(cur_.len);
            body_blocks_ = 0;
            return std::nullopt;
        }
        if (b.isControl() && b.type() == phy::BlockType::MemSingle) {
            MemMessage m;
            unpackHeader(b.controlPayload(), m);
            return m;
        }
        ++violations_;
        return std::nullopt;
    }

    if (b.isData()) {
        feedData(&b, 1);
        return std::nullopt;
    }

    if (b.isControl() && b.type() == phy::BlockType::MemTerm) {
        in_message_ = false;
        return std::move(cur_);
    }

    ++violations_;
    return std::nullopt;
}

void
MessageAssembler::feedData(const phy::PhyBlock *blocks, std::size_t count)
{
    if (!in_message_) {
        violations_ += count;
        return;
    }
    switch (cur_.type) {
      case MemMsgType::RREQ:
      case MemMsgType::RMWREQ:
        // Address and RMW operands: a few words, decoded one at a time.
        for (std::size_t i = 0; i < count; ++i)
            finishBody(blocks[i].payload, body_blocks_++);
        return;
      case MemMsgType::WREQ:
        // The first body block is the target address.
        if (body_blocks_ == 0 && count > 0) {
            finishBody(blocks->payload, body_blocks_++);
            ++blocks;
            --count;
        }
        [[fallthrough]];
      case MemMsgType::RRES:
        appendBody(blocks, count);
        body_blocks_ += count;
        return;
    }
}

} // namespace core
} // namespace edm
