/**
 * @file
 * Deep tests for the event queue (hierarchical timing wheel over an
 * indexed 4-ary overflow heap): FIFO tie-breaking, cancellation life
 * cycle, rescheduling, wheel-specific behaviour (level wrap-around,
 * far-future heap overflow, wheel-to-heap migration, same-tick FIFO),
 * SBO callback semantics, a randomized run against an independent
 * ordered-set model, and a 1M-event randomized stress that checks the
 * ordering invariants end to end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "sim/event_queue.hpp"

namespace edm {
namespace {

TEST(EventQueueOrder, SameTimestampFifoAcrossInterleavedTimes)
{
    EventQueue q;
    std::vector<int> order;
    // Interleave registrations across two timestamps; each timestamp
    // must preserve its own registration order.
    for (int i = 0; i < 8; ++i) {
        q.schedule(200, [&, i] { order.push_back(100 + i); });
        q.schedule(100, [&, i] { order.push_back(i); });
    }
    q.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
        EXPECT_EQ(order[static_cast<std::size_t>(8 + i)], 100 + i);
    }
}

TEST(EventQueueOrder, FifoSurvivesHeavyCancellation)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.push_back(q.schedule(50, [&, i] { order.push_back(i); }));
    // Cancel every odd registration; even ones must still fire in order.
    for (int i = 1; i < 100; i += 2)
        EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
    q.run();
    ASSERT_EQ(order.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], 2 * i);
}

TEST(EventQueueCancel, CancelAfterFireReturnsFalse)
{
    EventQueue q;
    bool ran = false;
    const EventId id = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.isPending(id));
    q.run();
    EXPECT_TRUE(ran);
    EXPECT_FALSE(q.isPending(id));
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueCancel, DoubleCancelReturnsFalse)
{
    EventQueue q;
    const EventId id = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueueCancel, StaleIdAfterSlotReuseReturnsFalse)
{
    EventQueue q;
    const EventId first = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(first));
    // The freed slot is reused; the old handle must not cancel the
    // new occupant.
    bool ran = false;
    const EventId second = q.schedule(20, [&] { ran = true; });
    EXPECT_FALSE(q.cancel(first));
    EXPECT_TRUE(q.isPending(second));
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueueCancel, CancelFromWithinCallback)
{
    EventQueue q;
    bool victim_ran = false;
    const EventId victim = q.schedule(20, [&] { victim_ran = true; });
    q.schedule(10, [&] { EXPECT_TRUE(q.cancel(victim)); });
    q.run();
    EXPECT_FALSE(victim_ran);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueReschedule, MovesEventEarlierAndLater)
{
    EventQueue q;
    std::vector<int> order;
    const EventId a = q.schedule(300, [&] { order.push_back(1); });
    q.schedule(200, [&] { order.push_back(2); });
    const EventId c = q.schedule(100, [&] { order.push_back(3); });
    EXPECT_TRUE(q.reschedule(a, 50));  // move earlier
    EXPECT_TRUE(q.reschedule(c, 400)); // move later
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 400);
}

TEST(EventQueueReschedule, ResequencesBehindExistingTies)
{
    EventQueue q;
    std::vector<int> order;
    const EventId moved = q.schedule(10, [&] { order.push_back(0); });
    q.schedule(100, [&] { order.push_back(1); });
    q.schedule(100, [&] { order.push_back(2); });
    // After rescheduling onto an occupied timestamp the event fires
    // after the events already there.
    EXPECT_TRUE(q.reschedule(moved, 100));
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(EventQueueReschedule, FiredOrCancelledEventRejects)
{
    EventQueue q;
    const EventId fired = q.schedule(10, [] {});
    q.run();
    EXPECT_FALSE(q.reschedule(fired, 20));

    const EventId cancelled = q.schedule(30, [] {});
    EXPECT_TRUE(q.cancel(cancelled));
    EXPECT_FALSE(q.reschedule(cancelled, 40));
}

TEST(EventQueueReschedule, RescheduleWhilePendingKeepsSingleFire)
{
    EventQueue q;
    int fires = 0;
    EventId id = q.schedule(100, [&] { ++fires; });
    // A retry-timer pattern: push the deadline out several times.
    for (Picoseconds t = 200; t <= 1000; t += 200)
        EXPECT_TRUE(q.reschedule(id, t));
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fires, 1);
    EXPECT_EQ(q.now(), 1000);
}

TEST(EventQueueCallbackDeathTest, SchedulingEmptyCallbackPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.schedule(10, EventQueue::Callback{}),
                 "empty callback");
    // A null function pointer converts to the empty state and must be
    // rejected the same way, not crash when the event fires.
    void (*null_fp)() = nullptr;
    EXPECT_DEATH(q.schedule(10, null_fp), "empty callback");
}

TEST(EventQueueCallback, MoveOnlyCaptureIsSupported)
{
    EventQueue q;
    auto payload = std::make_unique<int>(99);
    int seen = 0;
    q.schedule(10, [p = std::move(payload), &seen] { seen = *p; });
    q.run();
    EXPECT_EQ(seen, 99);
}

TEST(EventQueueCallback, LargeCaptureFallsBackToHeap)
{
    EventQueue q;
    // 256 bytes of captured state: far beyond the inline buffer.
    std::vector<double> big(32, 1.5);
    double sum = 0;
    q.schedule(10, [big, &sum] {
        for (double v : big)
            sum += v;
    });
    q.run();
    EXPECT_DOUBLE_EQ(sum, 48.0);
}

TEST(EventQueueCallback, CountedInlineCaptureIsDestroyedOnce)
{
    // Counts destructions of the live object only: moved-from shells
    // left behind by relocation do not count.
    struct Counted
    {
        int *destroyed;
        bool live = true;
        explicit Counted(int *d) : destroyed(d) {}
        Counted(Counted &&o) noexcept
            : destroyed(o.destroyed), live(std::exchange(o.live, false))
        {
        }
        Counted(const Counted &) = delete;
        ~Counted()
        {
            if (live)
                ++*destroyed;
        }
    };

    EventQueue q;
    int fired = 0;
    int fired_destroyed = 0;
    q.schedule(10, [c = Counted(&fired_destroyed), &fired] { ++fired; });
    // Growing the slot table relocates the pending callback.
    for (int i = 0; i < 100; ++i)
        q.schedule(20 + i, [] {});
    EXPECT_EQ(fired_destroyed, 0);
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(fired_destroyed, 1);

    int cancelled_destroyed = 0;
    const EventId id = q.schedule(
        q.now() + 10, [c = Counted(&cancelled_destroyed)] { ADD_FAILURE(); });
    EXPECT_EQ(cancelled_destroyed, 0);
    EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(cancelled_destroyed, 1);
    q.run();
    EXPECT_EQ(cancelled_destroyed, 1);
}

TEST(EventQueueCallback, TriviallyCopyableCaptureSurvivesSlotReuse)
{
    struct Word
    {
        std::uint64_t value;
        std::uint64_t check;
    };
    EventQueue q;
    std::vector<std::uint64_t> seen;
    std::vector<std::uint64_t> want;
    // Each round schedules enough events to grow the slot table while
    // they are pending, then fires them all, freeing the slots the next
    // round reuses with different values.
    for (std::uint64_t round = 0; round < 3; ++round) {
        for (std::uint64_t i = 0; i < 200; ++i) {
            const Word w{round * 1000 + i, ~(round * 1000 + i)};
            const std::uint32_t tag = static_cast<std::uint32_t>(i * 7);
            auto fn = [&seen, w, tag, i] {
                EXPECT_EQ(w.check, ~w.value);
                EXPECT_EQ(tag, i * 7);
                seen.push_back(w.value);
            };
            static_assert(std::is_trivially_copyable_v<decltype(fn)>);
            q.schedule(q.now() + 1 + static_cast<Picoseconds>(i), fn);
            want.push_back(w.value);
        }
        q.run();
    }
    EXPECT_EQ(seen, want);
}

TEST(EventQueueCounters, ExecutedAccumulatesAcrossRuns)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(i * 10, [] {});
    EXPECT_EQ(q.run(20), 3u);
    EXPECT_EQ(q.executed(), 3u);
    EXPECT_EQ(q.run(), 2u);
    EXPECT_EQ(q.executed(), 5u);
}

// ---------------------------------------------------------------------------
// Timing-wheel specifics. The wheel files events below ~2^32 ps of the
// current time across four 256-slot levels; everything farther overflows
// to the heap. None of this is observable except through timing, which
// is exactly what these tests pin.
// ---------------------------------------------------------------------------

TEST(EventQueueWheel, FiresAcrossEveryLevelBoundary)
{
    // Delays that land on each wheel level and straddle level windows
    // (256, 65536, 2^24 ps), including exact powers where the window
    // wrap-around happens.
    EventQueue q;
    std::vector<Picoseconds> fired;
    const Picoseconds delays[] = {0,       1,       255,      256,
                                  257,     65535,   65536,    65537,
                                  1 << 20, 1 << 24, (1 << 24) + 1,
                                  Picoseconds{1} << 31};
    for (Picoseconds d : delays)
        q.scheduleAfter(d, [&fired, &q] { fired.push_back(q.now()); });
    q.run();
    std::vector<Picoseconds> expected(std::begin(delays),
                                      std::end(delays));
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(fired, expected);
}

TEST(EventQueueWheel, WrapAroundReusesSlots)
{
    // March time far enough that every level-0 slot index is reused
    // many times, with events scheduled relative to a moving now.
    EventQueue q;
    std::uint64_t fired = 0;
    Picoseconds expect = 0;
    bool ok = true;
    std::function<void()> tick = [&] {
        ok = ok && q.now() == expect;
        ++fired;
        if (fired < 3000) {
            // 97 is coprime with 256, so slot indices cycle through
            // every position at every level-0 window phase.
            expect += 97;
            q.scheduleAfter(97, tick);
        }
    };
    q.scheduleAfter(0, tick);
    q.run();
    EXPECT_EQ(fired, 3000u);
    EXPECT_TRUE(ok);
}

TEST(EventQueueWheel, FarFutureOverflowsToHeapAndStillFires)
{
    EventQueue q;
    std::vector<int> order;
    // Beyond the 2^32 ps wheel span: heap-resident from the start.
    const Picoseconds far = (Picoseconds{1} << 33) + 12345;
    q.schedule(far, [&] { order.push_back(2); });
    q.schedule(100, [&] { order.push_back(0); });
    q.schedule(far - 1, [&] { order.push_back(1); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.now(), far);
}

TEST(EventQueueWheel, HeapAndWheelTieBreakBySequence)
{
    // An event scheduled far ahead (heap) and one scheduled later at
    // the same timestamp once it is near (wheel) must fire in schedule
    // order.
    EventQueue q;
    std::vector<int> order;
    const Picoseconds when = (Picoseconds{1} << 32) + (1 << 21) + 500;
    q.schedule(when, [&] { order.push_back(0); }); // heap resident
    q.schedule(when - (1 << 20), [&, when] {
        // now shares `when`'s top-level wheel window.
        q.schedule(when, [&] { order.push_back(1); }); // wheel resident
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueueWheel, CancelAndRescheduleMigrateBetweenWheelAndHeap)
{
    EventQueue q;
    int fired = -1;
    // Starts on the wheel...
    const EventId id = q.schedule(1000, [&] { fired = 0; });
    // ...migrates to the heap (far future)...
    ASSERT_TRUE(q.reschedule(id, Picoseconds{1} << 40));
    ASSERT_TRUE(q.isPending(id));
    // ...and back to the wheel.
    ASSERT_TRUE(q.reschedule(id, 2000));
    q.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.now(), 2000);
    EXPECT_FALSE(q.isPending(id));

    // Cancel works in both residencies.
    const EventId w = q.schedule(q.now() + 10, [&] { fired = 1; });
    const EventId h =
        q.schedule(q.now() + (Picoseconds{1} << 40), [&] { fired = 2; });
    EXPECT_TRUE(q.cancel(w));
    EXPECT_TRUE(q.cancel(h));
    q.run();
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueWheel, FifoWithinOneTickAcrossCascades)
{
    // Events at one exact timestamp, scheduled at different distances
    // (so they enter at different wheel levels and cascade down), must
    // still fire in schedule order.
    EventQueue q;
    std::vector<int> order;
    const Picoseconds when = (1 << 20) + 777;
    q.schedule(when, [&] { order.push_back(0); });     // level 2 entry
    q.schedule(when - (1 << 18), [&, when] {
        q.schedule(when, [&] { order.push_back(1); }); // level 2, later
    });
    q.schedule(when - 100, [&, when] {
        q.schedule(when, [&] { order.push_back(2); }); // level 0 entry
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueWheel, MatchesOrderedSetModel)
{
    // An independent oracle: a std::set of (when, seq, tag) with its own
    // sequence counter, updated on every schedule, cancel and
    // reschedule. After each step() the fired (time, tag) must be the
    // model's minimum. About one target time in ten lies 2^32 ps or more
    // ahead, so those events live in the overflow heap and reschedules
    // migrate between wheel and heap both ways. Half land on the
    // 2560 ps block-slot grid, as fabric events do, so same-timestamp
    // ties are common: within a wheel bucket, across cascades, and
    // between a heap event and a later wheel event.
    using Key = std::tuple<Picoseconds, std::uint64_t, std::size_t>;
    constexpr Picoseconds kSlot = 2560;
    EventQueue q;
    Rng rng(77);
    std::set<Key> model;
    std::uint64_t model_seq = 0;
    std::vector<EventId> ids; // by tag
    std::vector<Key> keys;    // by tag: its entry, in the model if pending
    std::pair<Picoseconds, std::size_t> fired{-1, 0};
    std::uint64_t popped = 0;

    auto on_grid = [](Picoseconds t) {
        return (t + kSlot - 1) / kSlot * kSlot;
    };
    auto draw = [&]() -> Picoseconds {
        const Picoseconds now = q.now();
        const double roll = rng.uniform();
        if (roll < 0.1)
            return on_grid(now + (Picoseconds{1} << 32)) +
                kSlot * static_cast<Picoseconds>(rng.uniformInt(64));
        if (roll < 0.6)
            return on_grid(now) +
                kSlot * static_cast<Picoseconds>(rng.uniformInt(64));
        // Anywhere within one of the four wheel levels' spans.
        const auto bits = 8 * (1 + static_cast<int>(rng.uniformInt(4)));
        return now +
            static_cast<Picoseconds>(
                rng.uniformInt(std::uint64_t{1} << (bits - 1)));
    };
    auto file = [&](std::size_t tag, Picoseconds when) {
        keys[tag] = Key{when, model_seq++, tag};
        model.insert(keys[tag]);
    };
    // One step; false (after recording a failure) on any divergence.
    auto step = [&]() {
        const bool ran = q.step();
        if (ran != !model.empty()) {
            ADD_FAILURE() << "step() returned " << ran << " with "
                          << model.size() << " events in the model";
            return false;
        }
        if (!ran)
            return true;
        const auto [when, seq, tag] = *model.begin();
        model.erase(model.begin());
        ++popped;
        if (fired != std::make_pair(when, tag)) {
            ADD_FAILURE() << "fired tag " << fired.second << " at "
                          << fired.first << ", model expected tag " << tag
                          << " (seq " << seq << ") at " << when;
            return false;
        }
        return true;
    };

    bool ok = true;
    for (std::size_t i = 0; i < 20000 && ok; ++i) {
        const std::size_t tag = ids.size();
        const Picoseconds when = draw();
        ids.push_back(q.schedule(when, [&fired, &q, tag] {
            fired = {q.now(), tag};
        }));
        keys.emplace_back();
        file(tag, when);

        // Cancel or reschedule any tag, fired and cancelled ones
        // included: the queue must reject exactly the ones the model no
        // longer holds.
        const double roll = rng.uniform();
        const std::size_t pick = rng.uniformInt(ids.size());
        const bool pending = model.count(keys[pick]) != 0;
        if (roll < 0.15) {
            ASSERT_EQ(q.cancel(ids[pick]), pending) << "tag " << pick;
            model.erase(keys[pick]);
        } else if (roll < 0.35) {
            const Picoseconds to = draw();
            ASSERT_EQ(q.reschedule(ids[pick], to), pending)
                << "tag " << pick;
            if (pending) {
                model.erase(keys[pick]);
                file(pick, to);
            }
        }
        if (rng.uniform() < 0.35)
            for (std::uint64_t k = 1 + rng.uniformInt(8); k > 0 && ok; --k)
                ok = step();
    }
    while (ok && !model.empty())
        ok = step();
    EXPECT_TRUE(ok);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.executed(), popped);
}

/**
 * 1M-event randomized stress. Mixes schedule / cancel / reschedule and
 * verifies the two heap invariants observable from outside:
 *  - fire times are monotonically non-decreasing,
 *  - exactly the never-cancelled events fire, each exactly once.
 */
TEST(EventQueueStress, MillionRandomEventsFireInOrder)
{
    constexpr int kEvents = 1'000'000;
    EventQueue q;
    Rng rng(2024);

    std::vector<EventId> live;
    live.reserve(kEvents);
    std::uint64_t expected_fires = 0;
    std::uint64_t fired = 0;

    for (int i = 0; i < kEvents; ++i) {
        const auto when = static_cast<Picoseconds>(
            rng.uniformInt(std::uint64_t{1} << 40));
        const EventId id = q.schedule(when, [&] { ++fired; });
        ++expected_fires;

        const double roll = rng.uniform();
        if (roll < 0.15 && !live.empty()) {
            // Cancel a random live event (may already have been
            // cancelled via an earlier duplicate pick — both paths are
            // legal and must keep counts consistent).
            const std::size_t pick = rng.uniformInt(live.size());
            if (q.cancel(live[pick]))
                --expected_fires;
            live[pick] = live.back();
            live.pop_back();
        } else if (roll < 0.25 && !live.empty()) {
            const std::size_t pick = rng.uniformInt(live.size());
            const auto to = static_cast<Picoseconds>(
                rng.uniformInt(std::uint64_t{1} << 40));
            q.reschedule(live[pick], to); // false for fired ids is fine
        } else {
            live.push_back(id);
        }
    }

    // Drain one event at a time: now() must never move backwards.
    Picoseconds prev_now = 0;
    while (q.step()) {
        ASSERT_GE(q.now(), prev_now);
        prev_now = q.now();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(fired, expected_fires);
    EXPECT_EQ(q.executed(), expected_fires);
}

} // namespace
} // namespace edm
