/** @file Unit and property tests for util/circular_queue.h. */

#include "util/circular_queue.h"

#include <algorithm>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace fdip
{
namespace
{

TEST(CircularQueue, StartsEmpty)
{
    CircularQueue<int> q(4);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.capacity(), 4u);
}

TEST(CircularQueue, FifoOrder)
{
    CircularQueue<int> q(4);
    q.pushBack(1);
    q.pushBack(2);
    q.pushBack(3);
    EXPECT_EQ(q.front(), 1);
    q.popFront();
    EXPECT_EQ(q.front(), 2);
    q.pushBack(4);
    q.pushBack(5);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.back(), 5);
}

TEST(CircularQueue, WrapsAround)
{
    CircularQueue<int> q(3);
    for (int round = 0; round < 10; ++round) {
        q.pushBack(round);
        EXPECT_EQ(q.front(), round);
        q.popFront();
    }
    EXPECT_TRUE(q.empty());
}

TEST(CircularQueue, RandomAccessFromHead)
{
    CircularQueue<int> q(5);
    q.pushBack(10);
    q.pushBack(20);
    q.popFront();
    q.pushBack(30);
    q.pushBack(40);
    EXPECT_EQ(q.at(0), 20);
    EXPECT_EQ(q.at(1), 30);
    EXPECT_EQ(q.at(2), 40);
}

TEST(CircularQueue, TruncateDropsTail)
{
    CircularQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.pushBack(i);
    q.truncate(2);
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(q.back(), 3);
    EXPECT_EQ(q.front(), 0);
}

TEST(CircularQueue, ResizeToKeepsOldest)
{
    CircularQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.pushBack(i);
    q.resizeTo(2);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.at(0), 0);
    EXPECT_EQ(q.at(1), 1);
}

TEST(CircularQueue, ClearResets)
{
    CircularQueue<int> q(4);
    q.pushBack(1);
    q.pushBack(2);
    q.clear();
    EXPECT_TRUE(q.empty());
    q.pushBack(9);
    EXPECT_EQ(q.front(), 9);
}

/** Property: behaves exactly like std::deque under random ops. */
class QueueModelCheck : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(QueueModelCheck, MatchesDeque)
{
    const unsigned cap = GetParam();
    CircularQueue<int> q(cap);
    std::deque<int> model;
    Rng rng(cap * 7919);
    int next = 0;

    for (int step = 0; step < 20000; ++step) {
        const unsigned op = static_cast<unsigned>(rng.below(7));
        if (op == 0 && !q.full()) {
            // Alternate the two ways to append.
            if (next % 2 == 0)
                q.pushBack(next);
            else
                q.pushSlot() = next;
            model.push_back(next);
            ++next;
        } else if (op == 1 && !q.empty()) {
            EXPECT_EQ(q.front(), model.front());
            q.popFront();
            model.pop_front();
        } else if (op == 2 && !q.empty()) {
            const std::size_t keep = rng.below(q.size() + 1);
            q.resizeTo(keep);
            model.resize(keep);
        } else if (op == 3 && !q.empty()) {
            const std::size_t i = rng.below(q.size());
            EXPECT_EQ(q.at(i), model[i]);
        } else if (op == 4 && !q.empty()) {
            const std::size_t n = rng.below(q.size() + 1);
            q.truncate(n);
            model.resize(model.size() - n);
        } else if (op == 5 && !q.empty()) {
            EXPECT_EQ(q.front(), model.front());
        } else if (op == 6 && !q.empty()) {
            EXPECT_EQ(q.back(), model.back());
        }
        ASSERT_EQ(q.size(), model.size());
        std::vector<int> walked;
        q.forEach([&](int v) { walked.push_back(v); });
        ASSERT_TRUE(std::equal(walked.begin(), walked.end(), model.begin(),
                               model.end()))
            << "forEach at step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, QueueModelCheck,
                         ::testing::Values(1, 2, 3, 8, 24, 64));

} // namespace
} // namespace fdip
