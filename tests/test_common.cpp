/**
 * @file
 * Unit tests for src/common: time, units, stats, RNG, CDF.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/cdf.hpp"
#include "common/random.hpp"
#include "common/ring.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace edm {
namespace {

TEST(Time, Conversions)
{
    EXPECT_EQ(fromNs(1.0), 1000);
    EXPECT_EQ(fromNs(2.56), 2560);
    EXPECT_DOUBLE_EQ(toNs(2560), 2.56);
    EXPECT_DOUBLE_EQ(toUs(1000000), 1.0);
    EXPECT_EQ(kPcsBlockSlot, 2560);
}

TEST(Time, BlockSlotMatchesLineRate)
{
    // 25 Gb/s line rate, 64 payload bits per block: 390.625 MHz.
    EXPECT_NEAR(64.0 / 25e9 * 1e12, static_cast<double>(kPcsBlockSlot),
                1e-9);
}

TEST(Units, TransmissionDelayBasics)
{
    // 64 B at 25 Gbps = 20.48 ns.
    EXPECT_EQ(transmissionDelay(64, Gbps{25.0}), 20480);
    // 1 B at 100 Gbps = 0.08 ns -> rounds up to 80 ps.
    EXPECT_EQ(transmissionDelay(1, Gbps{100.0}), 80);
    EXPECT_EQ(transmissionDelay(0, Gbps{100.0}), 0);
}

TEST(Units, TransmissionDelayRoundsUp)
{
    // 3 B at 7 Gbps is not an integral number of picoseconds.
    const Picoseconds d = transmissionDelay(3, Gbps{7.0});
    EXPECT_GE(static_cast<double>(d), 3.0 * 8.0 / (7.0 / 1000.0));
    EXPECT_LT(static_cast<double>(d), 3.0 * 8.0 / (7.0 / 1000.0) + 1.0);
}

class TransmissionMonotonic : public ::testing::TestWithParam<int>
{
};

TEST_P(TransmissionMonotonic, MoreBytesNeverFaster)
{
    const Bytes b = static_cast<Bytes>(GetParam());
    EXPECT_LE(transmissionDelay(b, Gbps{100.0}),
              transmissionDelay(b + 1, Gbps{100.0}));
    EXPECT_LE(transmissionDelay(b, Gbps{25.0}),
              transmissionDelay(b, Gbps{10.0}));
}

INSTANTIATE_TEST_SUITE_P(Sweep, TransmissionMonotonic,
                         ::testing::Values(0, 1, 7, 8, 63, 64, 65, 255,
                                           1459, 1460, 8999, 65535));

TEST(RunningStat, Moments)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesSequential)
{
    RunningStat a, b, all;
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(0, 100);
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Samples, Percentiles)
{
    Samples s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(99), 99.01, 1e-9);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Samples, SingleValue)
{
    Samples s;
    s.add(42.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 42.0);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(rng.uniformInt(std::uint64_t{10}), 10u);
        const auto v = rng.uniformInt(std::int64_t{-5}, std::int64_t{5});
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, ExponentialMean)
{
    Rng rng(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, ZipfSkewAndRange)
{
    Rng rng(13);
    std::uint64_t head = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const auto k = rng.zipf(1000, 0.99);
        EXPECT_LT(k, 1000u);
        head += k < 10;
    }
    // With theta 0.99, the ten hottest keys draw a large share.
    EXPECT_GT(static_cast<double>(head) / n, 0.3);
}

TEST(Cdf, QuantileInterpolation)
{
    Cdf cdf{{10.0, 0.5}, {20.0, 1.0}};
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.75), 15.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 20.0);
    EXPECT_DOUBLE_EQ(cdf.maxValue(), 20.0);
}

TEST(Cdf, MeanMatchesSampling)
{
    Cdf cdf{{64.0, 0.4}, {1024.0, 0.8}, {65536.0, 1.0}};
    Rng rng(17);
    double sum = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i)
        sum += cdf.sample(rng);
    EXPECT_NEAR(sum / n, cdf.mean(), cdf.mean() * 0.02);
}

TEST(Cdf, SamplesWithinSupport)
{
    Cdf cdf{{64.0, 0.4}, {1024.0, 0.8}, {65536.0, 1.0}};
    Rng rng(19);
    for (int i = 0; i < 10000; ++i) {
        const double v = cdf.sample(rng);
        EXPECT_GE(v, 64.0);
        EXPECT_LE(v, 65536.0);
    }
}

// ---- edge cases ----

TEST(SamplesEdge, EmptyQuantilesAreZero)
{
    Samples s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(SamplesEdge, SingleSampleIsEveryQuantile)
{
    Samples s;
    s.add(7.25);
    for (double p : {0.0, 1.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(s.percentile(p), 7.25);
    EXPECT_DOUBLE_EQ(s.min(), 7.25);
    EXPECT_DOUBLE_EQ(s.max(), 7.25);
}

TEST(RunningStatEdge, EmptyAndMergeWithEmpty)
{
    RunningStat empty;
    EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
    EXPECT_DOUBLE_EQ(empty.variance(), 0.0);
    EXPECT_DOUBLE_EQ(empty.min(), 0.0);
    EXPECT_DOUBLE_EQ(empty.max(), 0.0);

    RunningStat some;
    some.add(2.0);
    some.add(4.0);
    some.merge(empty); // no-op
    EXPECT_EQ(some.count(), 2u);
    EXPECT_DOUBLE_EQ(some.mean(), 3.0);

    RunningStat target;
    target.merge(some); // adopt
    EXPECT_EQ(target.count(), 2u);
    EXPECT_DOUBLE_EQ(target.mean(), 3.0);
    EXPECT_DOUBLE_EQ(target.min(), 2.0);
    EXPECT_DOUBLE_EQ(target.max(), 4.0);
}

TEST(CdfEdge, SinglePointIsDegenerate)
{
    const Cdf cdf{{512.0, 1.0}};
    EXPECT_FALSE(cdf.empty());
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 512.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 512.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 512.0);
    EXPECT_DOUBLE_EQ(cdf.mean(), 512.0);
    EXPECT_DOUBLE_EQ(cdf.maxValue(), 512.0);
    Rng rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(cdf.sample(rng), 512.0);
}

TEST(UnitsEdge, TransmissionDelaySubPicosecondRoundsUp)
{
    // 300 Gbps = 0.3 bits/ps: one byte takes 26.66.. ps and must round
    // up to 27 so that back-to-back sends never overlap.
    EXPECT_EQ(transmissionDelay(1, Gbps{300.0}), 27);
    // Exact multiples must NOT round up: 64 Gbps = 0.064 bits/ps, and
    // 8 bytes = 64 bits take exactly 1000 ps.
    EXPECT_EQ(transmissionDelay(8, Gbps{64.0}), 1000);
    // Zero bytes cost zero time.
    EXPECT_EQ(transmissionDelay(0, Gbps{100.0}), 0);
    // 1 byte at 1 Tbps: 8 bits / 1 bit-per-ps = exactly 8 ps.
    EXPECT_EQ(transmissionDelay(1, Gbps{1000.0}), 8);
    // 1 byte at 2 Tbps: 4 ps exactly; at 3 Tbps: 2.66.. -> 3 ps.
    EXPECT_EQ(transmissionDelay(1, Gbps{2000.0}), 4);
    EXPECT_EQ(transmissionDelay(1, Gbps{3000.0}), 3);
}

TEST(UnitsEdge, TransmissionDelaySuperadditive)
{
    // Ceil rounding means splitting a transfer can only add time:
    // delay(a) + delay(b) >= delay(a + b).
    const Gbps rate{25.0};
    Rng rng(77);
    for (int i = 0; i < 1000; ++i) {
        const Bytes a = rng.uniformInt(std::uint64_t{4096}) + 1;
        const Bytes b = rng.uniformInt(std::uint64_t{4096}) + 1;
        EXPECT_GE(transmissionDelay(a, rate) + transmissionDelay(b, rate),
                  transmissionDelay(a + b, rate));
    }
}

TEST(Ring, PushPopBothEndsAndIndex)
{
    common::Ring<int> r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.capacity(), 0u);
    r.push_back(2);
    r.push_front(1);
    r.push_back(3);
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r.front(), 1);
    EXPECT_EQ(r.back(), 3);
    EXPECT_EQ(r[1], 2);
    r.pop_front();
    r.pop_back();
    EXPECT_EQ(r.front(), 2);
    EXPECT_EQ(r.back(), 2);
    r.pop_front();
    EXPECT_TRUE(r.empty());
}

TEST(Ring, CapacityFollowsHighWaterMark)
{
    common::Ring<std::uint64_t> r;
    for (std::uint64_t i = 0; i < 9; ++i)
        r.push_back(i);
    EXPECT_EQ(r.capacity(), 16u); // powers of two, starting at 8
    // Churn at the high-water mark (wrapping the head around the
    // buffer many times) never grows the ring again.
    for (std::uint64_t round = 0; round < 100; ++round) {
        r.pop_front(3);
        const std::uint64_t more[3] = {round, round + 1, round + 2};
        r.append(more, 3);
        EXPECT_EQ(r.size(), 9u);
    }
    EXPECT_EQ(r.capacity(), 16u);
    EXPECT_EQ(r.back(), 101u);
}

TEST(Ring, MoveTransfersElements)
{
    common::Ring<int> r;
    r.push_back(1);
    r.push_back(2);
    common::Ring<int> other = std::move(r);
    EXPECT_TRUE(r.empty());
    ASSERT_EQ(other.size(), 2u);
    EXPECT_EQ(other[0], 1);
    EXPECT_EQ(other[1], 2);
    r = std::move(other);
    EXPECT_TRUE(other.empty());
    EXPECT_EQ(r.size(), 2u);
}

TEST(RingDeathTest, PopOnEmptyRingPanics)
{
    common::Ring<int> r;
    EXPECT_DEATH(r.pop_front(), "empty ring");
    EXPECT_DEATH(r.pop_back(), "empty ring");
    r.push_back(1);
    EXPECT_DEATH(r.pop_front(2), "pop_front");
}

TEST(Ring, RandomizedAgainstDeque)
{
    // Alternating grow and shrink phases: the head wraps the buffer
    // constantly, bulk appends force growth mid-wrap, and inserts land
    // in both halves so both shift directions run.
    common::Ring<std::uint32_t> r;
    std::deque<std::uint32_t> model;
    Rng rng(123);
    std::uint32_t next = 0;
    std::size_t max_size = 0;
    for (int step = 0; step < 20000; ++step) {
        const bool growing = (step / 2000) % 2 == 0;
        const std::uint64_t op = rng.uniformInt(std::uint64_t{10});
        if (op == 0) {
            r.push_front(next);
            model.push_front(next++);
        } else if (op == 1 || (op >= 7 && growing)) {
            r.push_back(next);
            model.push_back(next++);
        } else if (op == 2) {
            std::uint32_t burst[13];
            const std::size_t n = rng.uniformInt(std::uint64_t{14});
            for (std::size_t i = 0; i < n; ++i)
                burst[i] = next++;
            r.append(burst, n);
            model.insert(model.end(), burst, burst + n);
        } else if (op == 3) {
            const std::size_t i = rng.uniformInt(model.size() + 1);
            r.insert(i, next);
            model.insert(model.begin() + static_cast<std::ptrdiff_t>(i),
                         next++);
        } else if (model.empty()) {
            continue;
        } else if (op == 4) {
            r.pop_front();
            model.pop_front();
        } else if (op == 5) {
            r.pop_back();
            model.pop_back();
        } else {
            const std::size_t bound =
                op == 6 ? std::min<std::size_t>(model.size(), 12)
                        : model.size();
            const std::size_t n = rng.uniformInt(bound + 1);
            r.pop_front(n);
            model.erase(model.begin(),
                        model.begin() + static_cast<std::ptrdiff_t>(n));
        }
        max_size = std::max(max_size, model.size());
        ASSERT_EQ(r.size(), model.size());
        if (model.empty())
            continue;
        ASSERT_EQ(r.front(), model.front()) << "step " << step;
        ASSERT_EQ(r.back(), model.back()) << "step " << step;
        if (step % 64 == 0) {
            for (std::size_t i = 0; i < model.size(); ++i)
                ASSERT_EQ(r[i], model[i])
                    << "step " << step << " index " << i;
        }
    }
    // The walk grew the ring well past its first allocation.
    EXPECT_GE(max_size, 256u);
    EXPECT_GE(r.capacity(), max_size);
}

} // namespace
} // namespace edm
