/**
 * @file
 * Unit tests for the ordered-list hardware model.
 */

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "hw/ordered_list.hpp"

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

} // namespace
} // namespace hw
} // namespace edm
