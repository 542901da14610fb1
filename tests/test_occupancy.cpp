/**
 * @file
 * Unit tests for the wire-occupancy model (src/core/occupancy.hpp):
 * block counts and line-times pinned against hand-computed wire math
 * for boundary payload sizes, in both charging modes.
 *
 * The hand arithmetic (also worked in docs/WIRE_FORMAT.md): a 66-bit
 * block slot at 25G is 64 payload bits / 25 Gb/s = 2.56 ns. A WREQ
 * chunk is /MS/ + addr + ceil(p / 8) data blocks + /MT/; an RRES chunk
 * is /MS/ + ceil(p / 8) + /MT/ (or a single /MST/ when header-only).
 */

#include <gtest/gtest.h>

#include "core/occupancy.hpp"

namespace edm {
namespace core {
namespace {

constexpr Gbps k25{25.0};
constexpr Gbps k100{100.0};

TEST(Occupancy, BlockSlotMatchesPcsClock)
{
    // 64 payload bits per 66-bit block: 2.56 ns at 25G — the PCS block
    // clock the whole simulator runs on — and 0.64 ns at 100G.
    EXPECT_EQ(wireBlockTime(k25), kPcsBlockSlot);
    EXPECT_EQ(wireBlockTime(k25), 2560);
    EXPECT_EQ(wireBlockTime(k100), 640);
    EXPECT_EQ(lineTime(35, k25), 35 * 2560);
}

TEST(Occupancy, BlockCountsAtBoundaryPayloads)
{
    // WREQ: /MS/ + addr + ceil(p/8) + /MT/.
    EXPECT_EQ(wireBlocks(MemMsgType::WREQ, 0), 3u);
    EXPECT_EQ(wireBlocks(MemMsgType::WREQ, 1), 4u);
    EXPECT_EQ(wireBlocks(MemMsgType::WREQ, 255), 35u); // ceil(255/8)=32
    EXPECT_EQ(wireBlocks(MemMsgType::WREQ, 256), 35u);
    EXPECT_EQ(wireBlocks(MemMsgType::WREQ, 257), 36u);
    // Max 16-bit wire length: ceil(65535/8) = 8192 data blocks.
    EXPECT_EQ(wireBlocks(MemMsgType::WREQ, 0xFFFF), 8195u);

    // RRES: /MS/ + ceil(p/8) + /MT/; header-only is one /MST/.
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 0), 1u);
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 1), 3u);
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 255), 34u);
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 256), 34u);
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 257), 35u);
    EXPECT_EQ(wireBlocks(MemMsgType::RRES, 0xFFFF), 8194u);

    // Requests: RREQ = /MS/ + addr + /MT/; RMWREQ adds two args.
    EXPECT_EQ(wireBlocks(MemMsgType::RREQ, 0), 3u);
    EXPECT_EQ(wireBlocks(MemMsgType::RMWREQ, 0), 5u);
}

TEST(Occupancy, ChunkLineTimesAtBoundaryPayloads)
{
    // The worked example of ROADMAP/docs: a 256 B write chunk is
    // 35 blocks = 89.6 ns at 25G, vs the 81.92 ns the raw payload
    // charge l/B accounts for.
    EXPECT_EQ(chunkLineTime(MemMsgType::WREQ, 256, k25), 89600);
    EXPECT_EQ(transmissionDelay(256, k25), 81920);
    EXPECT_EQ(chunkLineTime(MemMsgType::RRES, 256, k25), 87040);

    EXPECT_EQ(chunkLineTime(MemMsgType::WREQ, 0, k25), 3 * 2560);
    EXPECT_EQ(chunkLineTime(MemMsgType::WREQ, 1, k25), 4 * 2560);
    EXPECT_EQ(chunkLineTime(MemMsgType::WREQ, 255, k25), 35 * 2560);
    EXPECT_EQ(chunkLineTime(MemMsgType::WREQ, 257, k25), 36 * 2560);
    EXPECT_EQ(chunkLineTime(MemMsgType::RRES, 0, k25), 2560);
    EXPECT_EQ(chunkLineTime(MemMsgType::RRES, 0xFFFF, k25),
              8194 * 2560);
    // Rate scales per block: the same chunk at 100G.
    EXPECT_EQ(chunkLineTime(MemMsgType::RRES, 256, k100), 34 * 640);
}

TEST(Occupancy, GrantOccupancyLegacyModeIsRawPayloadDelay)
{
    EdmConfig cfg; // wire_charged_occupancy off by default
    ASSERT_FALSE(cfg.wire_charged_occupancy);
    for (const Bytes chunk : {1ull, 255ull, 256ull, 257ull, 700ull}) {
        EXPECT_EQ(grantOccupancy(cfg, /*response=*/false, chunk),
                  transmissionDelay(chunk, cfg.link_rate));
        EXPECT_EQ(grantOccupancy(cfg, /*response=*/true, chunk),
                  transmissionDelay(chunk, cfg.link_rate));
    }
}

TEST(Occupancy, GrantOccupancyWireModeChargesExactBlocks)
{
    EdmConfig cfg;
    cfg.wire_charged_occupancy = true;
    // Write chunks pay the address block; response chunks do not.
    EXPECT_EQ(grantOccupancy(cfg, false, 256), 35 * 2560);
    EXPECT_EQ(grantOccupancy(cfg, true, 256), 34 * 2560);
    EXPECT_EQ(grantOccupancy(cfg, false, 1), 4 * 2560);
    EXPECT_EQ(grantOccupancy(cfg, true, 1), 3 * 2560);
    EXPECT_EQ(grantOccupancy(cfg, false, 257), 36 * 2560);
}

TEST(Occupancy, RequestForwardOccupancyBothModes)
{
    MemMessage rreq;
    rreq.type = MemMsgType::RREQ;

    EdmConfig cfg;
    // Legacy reproduces the historical byte rounding bit-exactly:
    // wireBytes(RREQ) = 3 * 8.25 = 24.75, + 1.0 truncated to 25 B.
    EXPECT_EQ(requestForwardOccupancy(cfg, rreq),
              transmissionDelay(25, cfg.link_rate));
    EXPECT_EQ(requestForwardOccupancy(cfg, rreq), 8000);

    // Wire-charged: exactly the 3 block slots the forward occupies.
    cfg.wire_charged_occupancy = true;
    EXPECT_EQ(requestForwardOccupancy(cfg, rreq), 3 * 2560);

    MemMessage rmw;
    rmw.type = MemMsgType::RMWREQ;
    EXPECT_EQ(requestForwardOccupancy(cfg, rmw), 5 * 2560);
}

TEST(Occupancy, WireByteBudgetsMatchBlockCounts)
{
    // The analytic bandwidth model's byte budgets are the same block
    // counts denominated in 66-bit bytes.
    EXPECT_DOUBLE_EQ(wireBytes(MemMsgType::RREQ, 0), 3 * 66.0 / 8.0);
    EXPECT_DOUBLE_EQ(wireBytes(MemMsgType::WREQ, 256), 35 * 66.0 / 8.0);
    EXPECT_DOUBLE_EQ(kBlockWireBytes, 8.25);
}

} // namespace
} // namespace core
} // namespace edm
