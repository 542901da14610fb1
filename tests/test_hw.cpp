/**
 * @file
 * Unit tests for the hardware-structure models.
 */

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "hw/cdc_fifo.hpp"
#include "hw/ordered_list.hpp"
#include "hw/priority_encoder.hpp"

namespace edm {
namespace hw {
namespace {

TEST(OrderedList, HighestPriorityFirst)
{
    OrderedList<int, char> list(8);
    list.insert(1, 'c');
    list.insert(5, 'a');
    list.insert(3, 'b');
    EXPECT_EQ(list.peek()->value, 'a');
    EXPECT_EQ(list.popFront()->value, 'a');
    EXPECT_EQ(list.popFront()->value, 'b');
    EXPECT_EQ(list.popFront()->value, 'c');
    EXPECT_FALSE(list.popFront().has_value());
}

TEST(OrderedList, TiesAreFifo)
{
    OrderedList<int, int> list(8);
    for (int i = 0; i < 5; ++i)
        list.insert(7, i);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(list.popFront()->value, i);
}

TEST(OrderedList, CapacityBound)
{
    OrderedList<int, int> list(2);
    EXPECT_TRUE(list.insert(1, 1));
    EXPECT_TRUE(list.insert(2, 2));
    EXPECT_FALSE(list.insert(3, 3));
    EXPECT_TRUE(list.full());
    EXPECT_EQ(list.size(), 2u);
}

TEST(OrderedList, PeekIfSkipsIneligible)
{
    OrderedList<int, int> list(8);
    list.insert(9, 100); // highest priority but ineligible
    list.insert(5, 200);
    const auto *e = list.peekIf([](int v) { return v != 100; });
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->value, 200);
}

TEST(OrderedList, EraseIf)
{
    OrderedList<int, int> list(8);
    list.insert(1, 10);
    list.insert(2, 20);
    EXPECT_TRUE(list.eraseIf([](int v) { return v == 20; }));
    EXPECT_FALSE(list.eraseIf([](int v) { return v == 20; }));
    EXPECT_EQ(list.size(), 1u);
}

TEST(OrderedList, ReprioritizeMovesEntry)
{
    OrderedList<int, char> list(8);
    list.insert(5, 'a');
    list.insert(3, 'b');
    EXPECT_TRUE(list.reprioritizeIf([](char v) { return v == 'b'; }, 9));
    EXPECT_EQ(list.peek()->value, 'b');
    EXPECT_EQ(list.peek()->priority, 9);
}

TEST(OrderedList, TimingConstantsMatchPaper)
{
    // §3.1.2: inserts/deletes 2 cycles, head read 1 cycle.
    EXPECT_EQ(OrderedListTiming::kInsertCycles, 2);
    EXPECT_EQ(OrderedListTiming::kDeleteCycles, 2);
    EXPECT_EQ(OrderedListTiming::kPeekCycles, 1);
}

class OrderedListProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(OrderedListProperty, PopsAreSortedDescending)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    OrderedList<std::int64_t, int> list(512);
    for (int i = 0; i < 400; ++i)
        list.insert(static_cast<std::int64_t>(rng.uniformInt(
                        std::uint64_t{100})), i);
    std::int64_t prev = INT64_MAX;
    while (auto e = list.popFront()) {
        EXPECT_LE(e->priority, prev);
        prev = e->priority;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderedListProperty,
                         ::testing::Range(1, 9));

TEST(PriorityEncoder, MostSignificantBit)
{
    PriorityEncoder enc(144);
    EXPECT_FALSE(enc.encode().has_value());
    enc.set(3);
    enc.set(77);
    enc.set(140);
    EXPECT_EQ(enc.encode().value(), 140u);
    enc.clear(140);
    EXPECT_EQ(enc.encode().value(), 77u);
    EXPECT_TRUE(enc.test(3));
    enc.reset();
    EXPECT_TRUE(enc.none());
}

class EncoderWidths : public ::testing::TestWithParam<int>
{
};

TEST_P(EncoderWidths, BoundaryBits)
{
    const auto width = static_cast<std::size_t>(GetParam());
    PriorityEncoder enc(width);
    enc.set(0);
    EXPECT_EQ(enc.encode().value(), 0u);
    enc.set(width - 1);
    EXPECT_EQ(enc.encode().value(), width - 1);
    enc.clear(width - 1);
    if (width == 1) {
        // Clearing bit width-1 cleared the only bit.
        EXPECT_FALSE(enc.encode().has_value());
    } else {
        EXPECT_EQ(enc.encode().value(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, EncoderWidths,
                         ::testing::Values(1, 2, 63, 64, 65, 128, 144,
                                           512));

TEST(CdcFifo, FifoOrderAndBound)
{
    CdcFifo<int> f(3);
    EXPECT_TRUE(f.push(1));
    EXPECT_TRUE(f.push(2));
    EXPECT_TRUE(f.push(3));
    EXPECT_FALSE(f.push(4));
    EXPECT_TRUE(f.full());
    EXPECT_EQ(*f.front(), 1);
    EXPECT_EQ(f.pop().value(), 1);
    EXPECT_EQ(f.pop().value(), 2);
    EXPECT_EQ(f.pop().value(), 3);
    EXPECT_FALSE(f.pop().has_value());
}

TEST(CdcFifo, UnboundedMode)
{
    CdcFifo<int> f;
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(f.push(i));
    EXPECT_EQ(f.size(), 1000u);
    EXPECT_EQ(CdcFifo<int>::kCrossingCycles, 4);
}

} // namespace
} // namespace hw
} // namespace edm
