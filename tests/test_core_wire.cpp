/**
 * @file
 * Unit tests for EDM message types and their 66-bit wire format.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.hpp"
#include "core/message.hpp"
#include "core/wire.hpp"

namespace edm {
namespace core {
namespace {

TEST(Wire, HeaderRoundTrip)
{
    MemMessage m;
    m.type = MemMsgType::WREQ;
    m.src = 511;
    m.dst = 300;
    m.id = 255;
    m.len = 0xFFFF;
    m.opcode = mem::RmwOp::Swap;
    m.last_chunk = false;

    MemMessage out;
    unpackHeader(packHeader(m), out);
    EXPECT_EQ(out.type, m.type);
    EXPECT_EQ(out.src, m.src);
    EXPECT_EQ(out.dst, m.dst);
    EXPECT_EQ(out.id, m.id);
    EXPECT_EQ(out.len, m.len);
    EXPECT_EQ(out.opcode, m.opcode);
    EXPECT_EQ(out.last_chunk, m.last_chunk);
}

TEST(Wire, HeaderFitsControlPayload)
{
    MemMessage m;
    m.src = 511;
    m.dst = 511;
    m.id = 255;
    m.len = 0xFFFF;
    m.opcode = mem::RmwOp::Swap;
    m.last_chunk = true;
    // 56-bit control payload: the packed header must not overflow it.
    EXPECT_EQ(packHeader(m) >> 56, 0u);
}

TEST(Wire, ControlInfoRoundTrip)
{
    ControlInfo info;
    info.dst = 144;
    info.src = 37;
    info.id = 200;
    info.size = 4096;
    const ControlInfo out = unpackControl(packControl(info));
    EXPECT_EQ(out.dst, info.dst);
    EXPECT_EQ(out.src, info.src);
    EXPECT_EQ(out.id, info.id);
    EXPECT_EQ(out.size, info.size);
}

TEST(Wire, NotifyAndGrantBlockTypes)
{
    ControlInfo info;
    info.dst = 1;
    EXPECT_EQ(makeNotify(info).type(), phy::BlockType::Notify);
    EXPECT_EQ(makeGrant(info).type(), phy::BlockType::Grant);
}

TEST(Wire, WireBlockCounts)
{
    // RREQ: /MS/ + addr + /MT/.
    EXPECT_EQ(wireBlocks(MemMsgType::RREQ, 0), 3u);
    // RMWREQ: /MS/ + addr + 2 args + /MT/.
    EXPECT_EQ(wireBlocks(MemMsgType::RMWREQ, 0), 5u);
    // 64 B write: /MS/ + addr + 8 data + /MT/.
    EXPECT_EQ(wireBlocks(MemMsgType::WREQ, 64), 11u);
    // 64 B response: /MS/ + 8 data + /MT/.
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 64), 10u);
    // Zero-size response: a single /MST/.
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 0), 1u);
    // A memory message can be far below the 9-block Ethernet minimum.
    EXPECT_LT(wireBlocks(MemMsgType::RREQ, 0), 9u);
}

TEST(Wire, WireBytesScale)
{
    EXPECT_NEAR(wireBytes(MemMsgType::RREQ, 0), 3 * 66 / 8.0, 1e-9);
    EXPECT_GT(wireBytes(MemMsgType::RRES, 1024),
              wireBytes(MemMsgType::RRES, 64));
}

class SerializeRoundTrip
    : public ::testing::TestWithParam<std::tuple<MemMsgType, int>>
{
};

TEST_P(SerializeRoundTrip, BlocksReassemble)
{
    const auto [type, payload_len] = GetParam();
    MemMessage m;
    m.type = type;
    m.src = 3;
    m.dst = 7;
    m.id = 42;
    m.addr = 0xABCDEF0123456789ULL & ((1ULL << 63) - 1);
    m.opcode = mem::RmwOp::FetchAndAdd;
    m.arg0 = 111;
    m.arg1 = 222;
    m.last_chunk = true;

    Rng rng(99);
    if (type == MemMsgType::WREQ || type == MemMsgType::RRES) {
        m.payload.resize(static_cast<std::size_t>(payload_len));
        for (auto &b : m.payload)
            b = static_cast<std::uint8_t>(rng.next());
        m.len = m.payload.size();
    } else {
        m.len = type == MemMsgType::RREQ ? 64 : 16;
    }

    const auto blocks = serialize(m);
    EXPECT_EQ(blocks.size(), wireBlocks(type, m.payload.size()));

    MessageAssembler assembler;
    std::optional<MemMessage> out;
    for (const auto &b : blocks) {
        auto r = assembler.feed(b);
        if (r)
            out = std::move(r);
    }
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->type, m.type);
    EXPECT_EQ(out->src, m.src);
    EXPECT_EQ(out->dst, m.dst);
    EXPECT_EQ(out->id, m.id);
    EXPECT_EQ(out->len, m.len);
    if (type != MemMsgType::RRES) {
        EXPECT_EQ(out->addr, m.addr);
    }
    if (type == MemMsgType::RMWREQ) {
        EXPECT_EQ(out->opcode, m.opcode);
        EXPECT_EQ(out->arg0, m.arg0);
        EXPECT_EQ(out->arg1, m.arg1);
    }
    if (type == MemMsgType::WREQ || type == MemMsgType::RRES) {
        EXPECT_EQ(out->payload, m.payload);
    }
    EXPECT_EQ(assembler.violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndSizes, SerializeRoundTrip,
    ::testing::Values(
        std::make_tuple(MemMsgType::RREQ, 0),
        std::make_tuple(MemMsgType::RMWREQ, 0),
        std::make_tuple(MemMsgType::WREQ, 1),
        std::make_tuple(MemMsgType::WREQ, 8),
        std::make_tuple(MemMsgType::WREQ, 64),
        std::make_tuple(MemMsgType::WREQ, 100),
        std::make_tuple(MemMsgType::WREQ, 1024),
        std::make_tuple(MemMsgType::RRES, 1),
        std::make_tuple(MemMsgType::RRES, 7),
        std::make_tuple(MemMsgType::RRES, 64),
        std::make_tuple(MemMsgType::RRES, 255),
        std::make_tuple(MemMsgType::RRES, 1024)));

TEST(Assembler, ZeroLengthResponseIsSingleBlock)
{
    MemMessage m;
    m.type = MemMsgType::RRES;
    m.src = 1;
    m.dst = 2;
    m.id = 3;
    m.len = 0;
    const auto blocks = serialize(m);
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].type(), phy::BlockType::MemSingle);

    MessageAssembler assembler;
    const auto out = assembler.feed(blocks[0]);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->len, 0u);
    EXPECT_EQ(out->id, 3);
}

TEST(Assembler, ViolationOnOrphanData)
{
    MessageAssembler assembler;
    EXPECT_FALSE(assembler.feed(phy::PhyBlock::data(0x1)).has_value());
    EXPECT_EQ(assembler.violations(), 1u);
}

// feedData over a message body must assemble exactly what per-block
// feed() does, however the body is split into runs.
class FeedDataMatchesFeed
    : public ::testing::TestWithParam<std::tuple<MemMsgType, int>>
{
};

TEST_P(FeedDataMatchesFeed, ForEverySplitOfTheBody)
{
    const auto [type, payload_len] = GetParam();
    MemMessage m;
    m.type = type;
    m.src = 5;
    m.dst = 9;
    m.id = 17;
    m.addr = 0x0123456789ABCDEFULL;
    m.opcode = mem::RmwOp::CompareAndSwap;
    m.arg0 = 0xAAAA;
    m.arg1 = 0xBBBB;
    Rng rng(7);
    if (type == MemMsgType::WREQ || type == MemMsgType::RRES) {
        m.payload.resize(static_cast<std::size_t>(payload_len));
        for (auto &b : m.payload)
            b = static_cast<std::uint8_t>(rng.next());
        m.len = m.payload.size();
    } else {
        m.len = 64;
    }
    const auto blocks = serialize(m);
    ASSERT_GE(blocks.size(), 3u);
    const std::size_t body = blocks.size() - 2; // between /MS/ and /MT/

    MessageAssembler per_block;
    std::optional<MemMessage> want;
    for (const auto &b : blocks) {
        if (auto r = per_block.feed(b))
            want = std::move(r);
    }
    ASSERT_TRUE(want.has_value());

    // Runs of every length from 1 to the whole body.
    for (std::size_t run = 1; run <= body; ++run) {
        MessageAssembler trains;
        EXPECT_FALSE(trains.feed(blocks.front()).has_value());
        for (std::size_t i = 0; i < body; i += run)
            trains.feedData(blocks.data() + 1 + i, std::min(run, body - i));
        const auto got = trains.feed(blocks.back());
        ASSERT_TRUE(got.has_value()) << "run " << run;
        EXPECT_EQ(got->type, want->type);
        EXPECT_EQ(got->src, want->src);
        EXPECT_EQ(got->dst, want->dst);
        EXPECT_EQ(got->id, want->id);
        EXPECT_EQ(got->len, want->len);
        EXPECT_EQ(got->addr, want->addr) << "run " << run;
        EXPECT_EQ(got->opcode, want->opcode);
        EXPECT_EQ(got->arg0, want->arg0) << "run " << run;
        EXPECT_EQ(got->arg1, want->arg1) << "run " << run;
        EXPECT_EQ(got->last_chunk, want->last_chunk);
        EXPECT_EQ(got->payload, want->payload) << "run " << run;
        EXPECT_EQ(trains.violations(), 0u);
    }
    if (type == MemMsgType::WREQ || type == MemMsgType::RRES) {
        EXPECT_EQ(want->payload, m.payload);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Types, FeedDataMatchesFeed,
    ::testing::Values(std::make_tuple(MemMsgType::WREQ, 100),
                      std::make_tuple(MemMsgType::RRES, 61),
                      std::make_tuple(MemMsgType::RREQ, 0),
                      std::make_tuple(MemMsgType::RMWREQ, 0)));

TEST(Assembler, FeedDataOutsideAMessageCountsViolations)
{
    const phy::PhyBlock data[3] = {phy::PhyBlock::data(1),
                                   phy::PhyBlock::data(2),
                                   phy::PhyBlock::data(3)};
    MessageAssembler assembler;
    assembler.feedData(data, 3);
    EXPECT_EQ(assembler.violations(), 3u);
    EXPECT_FALSE(assembler.inMessage());

    // After a message completes the assembler is outside one again.
    MemMessage m;
    m.type = MemMsgType::RREQ;
    m.len = 8;
    for (const auto &b : serialize(m))
        assembler.feed(b);
    assembler.feedData(data, 2);
    EXPECT_EQ(assembler.violations(), 5u);
}

TEST(Message, ToStringContainsType)
{
    MemMessage m;
    m.type = MemMsgType::RMWREQ;
    EXPECT_NE(m.toString().find("RMWREQ"), std::string::npos);
    EXPECT_STREQ(toString(MemMsgType::RREQ), "RREQ");
}

} // namespace
} // namespace core
} // namespace edm
