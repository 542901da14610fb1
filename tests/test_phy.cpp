/**
 * @file
 * Unit tests for the PHY layer: blocks, PCS framing,
 * intra-frame preemption.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "phy/block.hpp"
#include "phy/pcs.hpp"
#include "phy/preemption.hpp"
#include "phy/serdes.hpp"

namespace edm {
namespace phy {
namespace {

TEST(Block, ControlRoundTrip)
{
    const PhyBlock b = PhyBlock::control(BlockType::MemStart, 0xABCDEF);
    EXPECT_TRUE(b.isControl());
    EXPECT_EQ(b.type(), BlockType::MemStart);
    EXPECT_EQ(b.controlPayload(), 0xABCDEFu);
}

TEST(Block, DataBlock)
{
    const PhyBlock b = PhyBlock::data(0x1122334455667788ULL);
    EXPECT_TRUE(b.isData());
    EXPECT_EQ(b.payload, 0x1122334455667788ULL);
}

TEST(Block, TerminateCodes)
{
    for (int n = 0; n <= 7; ++n) {
        const BlockType t = terminateCode(n);
        EXPECT_TRUE(isTerminate(t));
        EXPECT_EQ(terminateDataBytes(t), n);
    }
    EXPECT_FALSE(isTerminate(BlockType::Start));
    EXPECT_FALSE(isTerminate(BlockType::MemTerm));
}

TEST(Block, EdmTypesAreRecognized)
{
    EXPECT_TRUE(isEdmControl(BlockType::MemStart));
    EXPECT_TRUE(isEdmControl(BlockType::MemTerm));
    EXPECT_TRUE(isEdmControl(BlockType::MemSingle));
    EXPECT_TRUE(isEdmControl(BlockType::Notify));
    EXPECT_TRUE(isEdmControl(BlockType::Grant));
    EXPECT_FALSE(isEdmControl(BlockType::Idle));
    EXPECT_FALSE(isEdmControl(BlockType::Start));
}

TEST(Block, EdmTypeCodesAvoidStandardCodes)
{
    // EDM block-type values must not collide with standard 802.3 codes.
    const BlockType standard[] = {
        BlockType::Idle, BlockType::Start, BlockType::Ordered,
        BlockType::Term0, BlockType::Term1, BlockType::Term2,
        BlockType::Term3, BlockType::Term4, BlockType::Term5,
        BlockType::Term6, BlockType::Term7,
    };
    const BlockType custom[] = {
        BlockType::MemStart, BlockType::MemTerm, BlockType::MemSingle,
        BlockType::Notify, BlockType::Grant,
    };
    for (auto c : custom) {
        for (auto s : standard)
            EXPECT_NE(c, s);
    }
}

TEST(Pcs, MinFrameIsNineBlocks)
{
    // §3.2: at least 9 PHY blocks per minimum 64 B Ethernet frame.
    EXPECT_EQ(frameBlockCount(64), 9u);
    const std::vector<std::uint8_t> frame(64, 0xAA);
    EXPECT_EQ(encodeFrame(frame).size(), 9u);
}

class PcsRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(PcsRoundTrip, EncodeDecodeIdentity)
{
    const auto size = static_cast<std::size_t>(GetParam());
    std::vector<std::uint8_t> frame(size);
    Rng rng(size);
    for (auto &b : frame)
        b = static_cast<std::uint8_t>(rng.next());

    const auto blocks = encodeFrame(frame);
    EXPECT_EQ(blocks.size(), frameBlockCount(size));
    EXPECT_EQ(blocks.front().type(), BlockType::Start);
    EXPECT_TRUE(isTerminate(blocks.back().type()));

    FrameDecoder dec;
    std::vector<std::uint8_t> out;
    for (const auto &b : blocks) {
        if (auto f = dec.feed(b))
            out = std::move(*f);
    }
    EXPECT_EQ(out, frame);
    EXPECT_EQ(dec.violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(FrameSizes, PcsRoundTrip,
                         ::testing::Values(64, 65, 70, 71, 72, 100, 128,
                                           512, 1024, 1518, 9018));

TEST(Pcs, DecoderIgnoresIdleBetweenFrames)
{
    const std::vector<std::uint8_t> frame(64, 0x42);
    const auto blocks = encodeFrame(frame);
    FrameDecoder dec;
    dec.feed(PhyBlock::idle());
    int frames = 0;
    for (const auto &b : blocks) {
        if (dec.feed(b))
            ++frames;
    }
    dec.feed(PhyBlock::idle());
    EXPECT_EQ(frames, 1);
}

TEST(Pcs, DataOutsideFrameCountsViolation)
{
    FrameDecoder dec;
    dec.feed(PhyBlock::data(0x1234));
    EXPECT_EQ(dec.violations(), 1u);
}

TEST(Serdes, PaperConstants)
{
    EXPECT_EQ(kSerdesCrossing, 19 * kNanosecond);
    EXPECT_EQ(kHopPropagation, 10 * kNanosecond);
    EXPECT_EQ(kCrossingsPerTraversal, 2);
}

// ---- preemption ----

std::vector<PhyBlock>
memoryMessage(int data_blocks)
{
    std::vector<PhyBlock> blocks;
    blocks.push_back(PhyBlock::control(BlockType::MemStart, 0x1));
    for (int i = 0; i < data_blocks; ++i)
        blocks.push_back(PhyBlock::data(static_cast<std::uint64_t>(i)));
    blocks.push_back(PhyBlock::control(BlockType::MemTerm, 0));
    return blocks;
}

TEST(PreemptionMux, IdleWhenEmpty)
{
    PreemptionMux mux;
    EXPECT_FALSE(mux.hasWork());
    EXPECT_EQ(mux.next(), PhyBlock::idle());
    EXPECT_EQ(mux.idleSlots(), 1u);
}

TEST(PreemptionMux, MemoryOnlyStreams)
{
    PreemptionMux mux;
    mux.enqueueMemory(memoryMessage(2));
    EXPECT_EQ(mux.memoryBacklog(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(mux.next() != PhyBlock::idle());
    EXPECT_FALSE(mux.hasWork());
    EXPECT_EQ(mux.memorySlots(), 4u);
}

TEST(PreemptionMux, FrameBufferBackpressure)
{
    PreemptionMux mux;
    for (std::size_t i = 0; i < PreemptionMux::kFrameBufferBlocks; ++i)
        EXPECT_TRUE(mux.offerFrameBlock(PhyBlock::data(i)));
    EXPECT_FALSE(mux.frameSpace());
    EXPECT_FALSE(mux.offerFrameBlock(PhyBlock::data(99)));
    (void)mux.next();
    EXPECT_TRUE(mux.frameSpace());
}

TEST(PreemptionMux, FairPolicyAlternates)
{
    PreemptionMux mux;
    mux.enqueueMemory(PhyBlock::control(BlockType::Notify, 1));
    mux.enqueueMemory(PhyBlock::control(BlockType::Notify, 2));
    mux.offerFrameBlock(PhyBlock::data(0xF0));
    mux.offerFrameBlock(PhyBlock::data(0xF1));
    // memory, frame, memory, frame
    EXPECT_EQ(mux.next().type(), BlockType::Notify);
    EXPECT_TRUE(mux.next().isData());
    EXPECT_EQ(mux.next().type(), BlockType::Notify);
    EXPECT_TRUE(mux.next().isData());
}

TEST(PreemptionMux, MemoryMessageNotInterleaved)
{
    // Once an /MS/ goes out, the whole message streams contiguously even
    // though the two streams otherwise alternate slots.
    PreemptionMux mux;
    mux.enqueueMemory(memoryMessage(3)); // MS D D D MT
    for (int i = 0; i < 5; ++i)
        mux.offerFrameBlock(PhyBlock::data(0xF0 + static_cast<unsigned>(i)));
    std::vector<PhyBlock> out;
    for (int i = 0; i < 8; ++i)
        out.push_back(mux.next());
    // Find MS; everything until MT must be memory blocks.
    std::size_t ms = 0;
    while (out[ms].isData() || out[ms].type() != BlockType::MemStart)
        ++ms;
    for (std::size_t i = ms + 1; out[i].isControl() == false ||
             out[i].type() != BlockType::MemTerm; ++i) {
        EXPECT_TRUE(out[i].isData()) << "interleaved at " << i;
    }
}

// Memory-queue contract: the order blocks leave in, each with the
// availability stamp it was queued under.
struct Queued
{
    std::uint64_t payload;
    Picoseconds ready;
    bool operator==(const Queued &) const = default;
};

std::vector<Queued>
drainMemory(PreemptionMux &mux)
{
    std::vector<Queued> out;
    while (mux.memoryBacklog() > 0) {
        const Picoseconds ready = mux.headAvail();
        out.push_back({mux.next().payload, ready});
    }
    return out;
}

PhyBlock
notify(std::uint64_t tag)
{
    return PhyBlock::control(BlockType::Notify, tag);
}

TEST(PreemptionMux, EnqueueMemoryOrdersByStampWithStableTies)
{
    PreemptionMux mux;
    mux.enqueueMemory(notify(1), 10);
    mux.enqueueMemory(notify(2), 30);
    mux.enqueueMemory(notify(3), 20); // ahead of the later stamp
    mux.enqueueMemory(notify(4), 20); // behind the equal stamp
    mux.enqueueMemory(notify(5), 5);  // to the head
    // A message sorting mid-queue keeps its blocks together, in order.
    mux.enqueueMemory({notify(6), notify(7)}, 20);
    // One sorting at the tail appends.
    mux.enqueueMemory({notify(8), notify(9)}, 30);
    EXPECT_EQ(mux.headAvail(), 5);
    EXPECT_EQ(drainMemory(mux),
              (std::vector<Queued>{{notify(5).payload, 5},
                                   {notify(1).payload, 10},
                                   {notify(3).payload, 20},
                                   {notify(4).payload, 20},
                                   {notify(6).payload, 20},
                                   {notify(7).payload, 20},
                                   {notify(2).payload, 30},
                                   {notify(8).payload, 30},
                                   {notify(9).payload, 30}}));
    EXPECT_EQ(mux.headAvail(), PreemptionMux::kNever);
}

TEST(PreemptionMux, RunAndListFallBackToOrderedInsert)
{
    PreemptionMux mux;
    // An empty queue takes a run by plain append.
    const PhyBlock run[3] = {PhyBlock::data(10), PhyBlock::data(11),
                             PhyBlock::data(12)};
    mux.enqueueMemoryRun(run, 3, 0, 10);
    EXPECT_EQ(drainMemory(mux),
              (std::vector<Queued>{{10, 0}, {11, 10}, {12, 20}}));

    // The tail (100) is later than the run's first stamp (90): each
    // block sorts in on its own, behind equal stamps.
    mux.enqueueMemory(notify(1), 100);
    mux.enqueueMemoryRun(run, 3, 90, 10); // stamps 90, 100, 110
    const PhyBlock list[2] = {PhyBlock::data(20), PhyBlock::data(21)};
    const Picoseconds avails[2] = {95, 120};
    mux.enqueueMemoryList(list, avails, 2); // tail 110 > 95
    EXPECT_EQ(drainMemory(mux),
              (std::vector<Queued>{{10, 90},
                                   {20, 95},
                                   {notify(1).payload, 100},
                                   {11, 100},
                                   {12, 110},
                                   {21, 120}}));
}

TEST(PreemptionMux, TakeTrainRunStopsAtItsLimits)
{
    constexpr Picoseconds kCycle = 10;
    PreemptionMux mux;
    std::vector<PhyBlock> blocks;
    std::vector<Picoseconds> avails;

    // Outside a message nothing is taken, however ready the data.
    for (std::uint64_t i = 0; i < 3; ++i)
        mux.enqueueMemory(PhyBlock::data(i), 0);
    EXPECT_EQ(mux.takeTrainRun(0, kCycle, 8, 2, blocks, avails), 0u);
    EXPECT_TRUE(blocks.empty());
    EXPECT_EQ(mux.memoryBacklog(), 3u);
    drainMemory(mux);

    // Inside a message: a control block ends the run.
    mux.enqueueMemory(PhyBlock::control(BlockType::MemStart, 1), 0);
    ASSERT_EQ(mux.next(0).type(), BlockType::MemStart);
    ASSERT_TRUE(mux.midMemoryMessage());
    mux.enqueueMemory(PhyBlock::data(1), 0);
    mux.enqueueMemory(PhyBlock::data(2), 0);
    mux.enqueueMemory(notify(3), 0);
    const std::uint64_t slots = mux.memorySlots();
    EXPECT_EQ(mux.takeTrainRun(10, kCycle, 8, 2, blocks, avails), 2u);
    EXPECT_EQ(blocks, (std::vector<PhyBlock>{PhyBlock::data(1),
                                             PhyBlock::data(2)}));
    EXPECT_EQ(avails, (std::vector<Picoseconds>{0, 0}));
    EXPECT_EQ(mux.memorySlots(), slots + 2);
    EXPECT_EQ(mux.next(30).type(), BlockType::Notify);

    // A block not ready by its slot ends the run: slots 40, 50, 60
    // against stamps 0, 50, 65.
    blocks.clear();
    avails.clear();
    mux.enqueueMemory(PhyBlock::data(4), 0);
    mux.enqueueMemory(PhyBlock::data(5), 50);
    mux.enqueueMemory(PhyBlock::data(6), 65);
    EXPECT_EQ(mux.takeTrainRun(40, kCycle, 8, 2, blocks, avails), 2u);
    EXPECT_EQ(avails, (std::vector<Picoseconds>{0, 50}));
    EXPECT_EQ(mux.headAvail(), 65);

    // max caps the run.
    blocks.clear();
    avails.clear();
    for (std::uint64_t i = 7; i < 12; ++i)
        mux.enqueueMemory(PhyBlock::data(i), 65);
    EXPECT_EQ(mux.takeTrainRun(70, kCycle, 3, 2, blocks, avails), 3u);
    EXPECT_EQ(blocks.front(), PhyBlock::data(6));
    EXPECT_EQ(mux.memoryBacklog(), 3u);

    // A run shorter than min_run pops nothing and leaves the outputs
    // alone: one ready block, then one in flight past its slot.
    drainMemory(mux);
    mux.enqueueMemory(PhyBlock::control(BlockType::MemStart, 2), 0);
    mux.next(100);
    mux.enqueueMemory(PhyBlock::data(20), 100);
    mux.enqueueMemory(PhyBlock::data(21), 500);
    const auto blocks_before = blocks;
    const auto avails_before = avails;
    const std::uint64_t slots_before = mux.memorySlots();
    EXPECT_EQ(mux.takeTrainRun(110, kCycle, 8, 2, blocks, avails), 0u);
    EXPECT_EQ(blocks, blocks_before);
    EXPECT_EQ(avails, avails_before);
    EXPECT_EQ(mux.memoryBacklog(), 2u);
    EXPECT_EQ(mux.memorySlots(), slots_before);
}

TEST(PreemptionMux, RestoreMemoryRunGoesAheadOfEqualStamps)
{
    constexpr Picoseconds kCycle = 10;
    PreemptionMux mux;
    mux.enqueueMemory(PhyBlock::control(BlockType::MemStart, 1), 0);
    mux.next(0);
    const PhyBlock run[4] = {PhyBlock::data(0), PhyBlock::data(1),
                             PhyBlock::data(2), PhyBlock::data(3)};
    mux.enqueueMemoryRun(run, 4, 0, kCycle); // stamps 0, 10, 20, 30
    std::vector<PhyBlock> blocks;
    std::vector<Picoseconds> avails;
    ASSERT_EQ(mux.takeTrainRun(0, kCycle, 8, 2, blocks, avails), 4u);
    EXPECT_EQ(mux.memorySlots(), 5u);

    // Work queued after the take: an earlier-stamped grant and an
    // entry sharing a restored block's stamp.
    mux.enqueueMemory(PhyBlock::control(BlockType::Grant, 7), 5);
    mux.enqueueMemory(notify(8), 20);
    mux.restoreMemoryRun(blocks.data() + 1, avails.data() + 1, 3);
    EXPECT_EQ(mux.memorySlots(), 2u);
    EXPECT_EQ(drainMemory(mux),
              (std::vector<Queued>{
                  {PhyBlock::control(BlockType::Grant, 7).payload, 5},
                  {1, 10},
                  {2, 20},
                  {notify(8).payload, 20},
                  {3, 30}}));
}

TEST(PreemptionMux, RestoreFrameRunMayOverfillTheStagingBuffer)
{
    PreemptionMux mux;
    for (std::uint64_t i = 0; i < PreemptionMux::kFrameBufferBlocks; ++i)
        ASSERT_TRUE(mux.offerFrameBlock(PhyBlock::data(i)));
    std::vector<PhyBlock> blocks;
    ASSERT_EQ(mux.takeFrameTrainRun(0, 10, 8, 2, [] {}, blocks),
              PreemptionMux::kFrameBufferBlocks);
    EXPECT_EQ(mux.frameSlots(), PreemptionMux::kFrameBufferBlocks);
    for (std::uint64_t i = 10; i < 14; ++i)
        ASSERT_TRUE(mux.offerFrameBlock(PhyBlock::data(i)));

    // Pulled-back blocks re-enter at the head past the 4-block bound.
    mux.restoreFrameRun(blocks.data() + 1, 3);
    EXPECT_EQ(mux.frameBacklog(), 7u);
    EXPECT_EQ(mux.frameSlots(), 1u);
    const std::uint64_t expect[] = {1, 2, 3, 10};
    for (std::uint64_t e : expect) {
        EXPECT_FALSE(mux.frameSpace());
        EXPECT_FALSE(mux.offerFrameBlock(PhyBlock::data(99)));
        EXPECT_EQ(mux.next().payload, e);
    }
    // Backpressure holds until the buffer drains below its bound.
    EXPECT_EQ(mux.frameBacklog(), 3u);
    EXPECT_TRUE(mux.frameSpace());
}

TEST(PreemptionDemux, ExtractsMemoryAndReassemblesFrame)
{
    std::vector<PhyBlock> mem_blocks;
    std::vector<std::vector<PhyBlock>> frames;
    PreemptionDemux demux(
        [&](const PhyBlock &b) { mem_blocks.push_back(b); },
        [&](std::vector<PhyBlock> f) { frames.push_back(std::move(f)); });

    // A frame preempted mid-way by a memory message.
    const std::vector<std::uint8_t> payload(64, 0x5A);
    const auto frame_blocks = encodeFrame(payload);
    const auto msg = memoryMessage(2);

    std::size_t fi = 0;
    // First three frame blocks...
    for (; fi < 3; ++fi)
        demux.feed(frame_blocks[fi]);
    // ...the memory message preempts...
    for (const auto &b : msg)
        demux.feed(b);
    EXPECT_EQ(mem_blocks.size(), msg.size());
    EXPECT_TRUE(frames.empty()); // frame still buffered
    // ...and the frame resumes.
    for (; fi < frame_blocks.size(); ++fi)
        demux.feed(frame_blocks[fi]);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].size(), frame_blocks.size());

    // The released frame decodes to the original bytes.
    FrameDecoder dec;
    std::vector<std::uint8_t> out;
    for (const auto &b : frames[0]) {
        if (auto f = dec.feed(b))
            out = *f;
    }
    EXPECT_EQ(out, payload);
}

TEST(PreemptionDemux, FrameHeldUntilTerminate)
{
    // §3.2.3: the RX buffers a frame until its /T/ arrives, bounding the
    // buffer by the maximum frame size.
    int frames = 0;
    PreemptionDemux demux([](const PhyBlock &) {},
                          [&](std::vector<PhyBlock>) { ++frames; });
    const auto blocks = encodeFrame(std::vector<std::uint8_t>(1518, 1));
    for (std::size_t i = 0; i + 1 < blocks.size(); ++i)
        demux.feed(blocks[i]);
    EXPECT_EQ(frames, 0);
    EXPECT_EQ(demux.frameBuffered(), blocks.size() - 1);
    demux.feed(blocks.back());
    EXPECT_EQ(frames, 1);
    EXPECT_EQ(demux.frameBuffered(), 0u);
}

TEST(PreemptionDemux, SingleBlockMessagePassesThrough)
{
    std::vector<PhyBlock> mem_blocks;
    PreemptionDemux demux(
        [&](const PhyBlock &b) { mem_blocks.push_back(b); },
        [](std::vector<PhyBlock>) {});
    demux.feed(PhyBlock::control(BlockType::MemSingle, 0x77));
    demux.feed(PhyBlock::control(BlockType::Notify, 0x88));
    demux.feed(PhyBlock::control(BlockType::Grant, 0x99));
    EXPECT_EQ(mem_blocks.size(), 3u);
}

} // namespace
} // namespace phy
} // namespace edm
