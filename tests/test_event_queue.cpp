/**
 * @file
 * Deep tests for the event queue (a one-level calendar ring in front of
 * a lazily pruned binary heap, over a chunked slot table): FIFO
 * tie-breaking, ranked phases within one instant, cancellation life
 * cycle, rescheduling (which keeps an event's rank), calendar-specific
 * behaviour (bucket edges, the window's end, ring wrap-around,
 * calendar/heap ties, stale entries left by cancel and reschedule),
 * ticketed events filed after the events they tie with, callbacks that
 * run in place while they schedule, SBO callback semantics, a
 * randomized run against an independent ordered-set model, and a
 * 1M-event randomized stress that checks the ordering invariants end
 * to end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <iterator>
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

TEST(EventQueueReschedule, KeepsItsRank)
{
    // Within one instant ranks fire in order, FIFO within each. A
    // rank-1 event moved onto a busy instant stays behind every rank-0
    // event there, even one scheduled after the move, and ahead of the
    // rank-2 one.
    EventQueue q;
    std::vector<int> order;
    const EventId moved = q.scheduleRanked(50, 1, [&] { order.push_back(3); });
    q.scheduleRanked(100, 2, [&] { order.push_back(4); });
    q.schedule(100, [&] { order.push_back(1); });
    ASSERT_TRUE(q.reschedule(moved, 100));
    q.schedule(100, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
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

TEST(EventQueueAssertDeathTest, TimeTravelPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(99, [] {}), "scheduling event in the past");
    EXPECT_DEATH(q.scheduleAfter(-1, [] {}), "negative delay");
    const EventId id = q.schedule(200, [] {});
    EXPECT_DEATH(q.reschedule(id, 99), "rescheduling event into the past");
}

TEST(EventQueueAssertDeathTest, TicketBeforeTheRunningEventPanics)
{
    // A ticket taken before the event now running, filed at now, would
    // fire before an event that has already run.
    EventQueue q;
    const std::uint64_t early = q.ticket();
    q.schedule(100, [&q, early] { q.schedule(100, early, [] {}); });
    EXPECT_DEATH(q.run(), "sorts before the event run last");

    EventQueue r;
    const std::uint64_t old = r.ticket();
    r.schedule(100, [] {});
    r.run();
    EXPECT_DEATH(r.schedule(100, old, [] {}),
                 "sorts before the event run last");
    EXPECT_DEATH(r.schedule(99, r.ticket(), [] {}),
                 "scheduling event in the past");
    EXPECT_DEATH(r.schedule(200, r.ticket() + 1, [] {}), "never issued");
    // The same old ticket is fine at a later time, and a ticket newer
    // than the last event's is fine at now.
    int fired = 0;
    r.schedule(101, old, [&] { ++fired; });
    r.schedule(100, r.ticket(), [&] { ++fired; });
    r.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueAssertDeathTest, RankBelowTheRunningEventPanics)
{
    // An event filed at now with a rank below the running event's would
    // fire before an event that has already run: from a rank-2 event a
    // rank-1 one, and from a ranked event a plain (rank-0) one.
    EventQueue q;
    q.scheduleRanked(100, 2, [&q] { q.scheduleRanked(100, 1, [] {}); });
    EXPECT_DEATH(q.run(), "sorts before the event run last");

    EventQueue r;
    r.scheduleRanked(100, 1, [&r] { r.schedule(100, [] {}); });
    EXPECT_DEATH(r.run(), "sorts before the event run last");

    // Moving a ranked event onto now keeps its rank, so the same holds.
    EventQueue m;
    const EventId low = m.scheduleRanked(500, 1, [] {});
    m.scheduleRanked(100, 2, [&m, low] { m.reschedule(low, 100); });
    EXPECT_DEATH(m.run(), "sorts before the event run last");

    // The same rank or a higher one at now, and any rank later, file.
    EventQueue ok;
    std::vector<int> order;
    ok.scheduleRanked(100, 1, [&] {
        order.push_back(1);
        ok.scheduleRanked(100, 2, [&] { order.push_back(3); });
        ok.scheduleRanked(100, 1, [&] { order.push_back(2); });
        ok.schedule(101, [&] { order.push_back(4); });
    });
    ok.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
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
    // Growing the slot table must neither copy nor destroy the pending
    // callback.
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
// Calendar specifics. Events due within 64 buckets of 1024 ps from the
// current bucket are filed in the calendar ring; everything later waits
// in the heap. None of this is observable except through timing, which
// is exactly what these tests pin.
// ---------------------------------------------------------------------------

constexpr Picoseconds kBucket = 1024;
constexpr Picoseconds kWindow = 64 * kBucket;

/** Fire-time and tag log shared by the calendar tests. */
using FireLog = std::vector<std::pair<Picoseconds, int>>;

TEST(EventQueueCalendar, FiresAcrossBucketEdgesAndTheWindowEnd)
{
    // From a clock in the middle of bucket 5, the window ends at bucket
    // 68 inclusive: bucket 69 shares the ring index of the current
    // bucket, so its events wait in the heap and must not fire early.
    EventQueue q;
    std::vector<Picoseconds> fired;
    const Picoseconds start = 5 * kBucket + 700;
    const Picoseconds base = 5 * kBucket;
    const Picoseconds times[] = {start,
                                 start + 1,
                                 6 * kBucket - 1,
                                 6 * kBucket,
                                 6 * kBucket + 1,
                                 base + kWindow - kBucket - 1,
                                 base + kWindow - kBucket,
                                 base + kWindow - 1, // last in the window
                                 base + kWindow,     // first in the heap
                                 base + kWindow + 1,
                                 base + kWindow + kBucket - 1,
                                 base + kWindow + kBucket,
                                 base + 2 * kWindow,
                                 Picoseconds{1} << 40};
    // Filed in reverse from inside the window's first bucket, so each
    // bucket fills by insertion ahead of later entries.
    q.schedule(start, [&] {
        for (auto it = std::rbegin(times); it != std::rend(times); ++it)
            q.schedule(*it, [&fired, &q] { fired.push_back(q.now()); });
    });
    q.run();
    std::vector<Picoseconds> expected(std::begin(times), std::end(times));
    EXPECT_EQ(fired, expected);
}

TEST(EventQueueCalendar, WrapAroundReusesBuckets)
{
    // March time across the 64-bucket ring many times, with each event
    // scheduled relative to a moving now.
    EventQueue q;
    std::uint64_t fired = 0;
    Picoseconds expect = 0;
    bool ok = true;
    std::function<void()> tick = [&] {
        ok = ok && q.now() == expect;
        ++fired;
        if (fired < 3000) {
            // 1031 is coprime with 1024, so events land at every offset
            // within a bucket as the ring turns ~47 times.
            expect += 1031;
            q.scheduleAfter(1031, tick);
        }
    };
    q.scheduleAfter(0, tick);
    q.run();
    EXPECT_EQ(fired, 3000u);
    EXPECT_TRUE(ok);
}

TEST(EventQueueCalendar, FarFutureWaitsInHeapAndStillFires)
{
    EventQueue q;
    std::vector<int> order;
    const Picoseconds far = (Picoseconds{1} << 33) + 12345;
    q.schedule(far, [&] { order.push_back(2); });
    q.schedule(100, [&] { order.push_back(0); });
    q.schedule(far - 1, [&] { order.push_back(1); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.now(), far);
}

TEST(EventQueueCalendar, CalendarAndHeapTiesBreakBySequence)
{
    // H is filed at time T from a clock one window away (heap). Once T
    // is inside the window, C is filed at T (calendar), then R is moved
    // onto T from the calendar and M from the heap: both re-sequence
    // behind the ties already there.
    EventQueue q;
    FireLog log;
    auto tag = [&](int t) {
        return [&log, &q, t] { log.push_back({q.now(), t}); };
    };
    const Picoseconds T = kWindow + 300;
    q.schedule(T, tag(0)); // H: heap
    const EventId m = q.schedule(T + kWindow, tag(3)); // heap
    const EventId r = q.schedule(2 * kBucket, tag(2)); // calendar
    q.schedule(kWindow - kBucket, tag(-1));            // last bucket
    q.schedule(kBucket + 10, [&, T] {
        q.schedule(T, tag(1)); // C: calendar
        EXPECT_TRUE(q.reschedule(r, T));
        EXPECT_TRUE(q.reschedule(m, T));
    });
    q.run();
    EXPECT_EQ(log, (FireLog{{kWindow - kBucket, -1},
                            {T, 0},
                            {T, 1},
                            {T, 2},
                            {T, 3}}));
}

TEST(EventQueueCalendar, FifoWithinOneTimestampFromEveryDistance)
{
    // Events at one exact timestamp, scheduled from far away (heap), from
    // inside the window (calendar) and from its own bucket, fire in
    // schedule order.
    EventQueue q;
    std::vector<int> order;
    const Picoseconds when = 200 * kBucket + 777;
    q.schedule(when, [&] { order.push_back(0); });
    q.schedule(when - 100 * kBucket, [&, when] {
        q.schedule(when, [&] { order.push_back(1); }); // still the heap
    });
    q.schedule(when - 10 * kBucket, [&, when] {
        q.schedule(when, [&] { order.push_back(2); }); // calendar
    });
    q.schedule(when - 100, [&, when] {
        q.schedule(when, [&] { order.push_back(3); }); // same bucket
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueCalendar, CancelAndRescheduleMoveBetweenCalendarAndHeap)
{
    EventQueue q;
    int fired = -1;
    // Starts in the calendar...
    const EventId id = q.schedule(1000, [&] { fired = 0; });
    // ...moves to the heap (far future)...
    ASSERT_TRUE(q.reschedule(id, Picoseconds{1} << 40));
    ASSERT_TRUE(q.isPending(id));
    // ...back to the calendar, then earlier within one bucket, leaving
    // a stale entry behind it there.
    ASSERT_TRUE(q.reschedule(id, 2000));
    ASSERT_TRUE(q.reschedule(id, 1500));
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.now(), 1500);
    EXPECT_EQ(q.executed(), 1u);
    EXPECT_FALSE(q.isPending(id));

    // Later within one bucket: the stale entry now sits ahead.
    std::vector<int> order;
    const EventId a = q.schedule(1600, [&] { order.push_back(0); });
    q.schedule(1700, [&] { order.push_back(1); });
    ASSERT_TRUE(q.reschedule(a, 1800));
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 0}));

    // Cancel works in both structures.
    const EventId c = q.schedule(q.now() + 10, [&] { fired = 1; });
    const EventId h =
        q.schedule(q.now() + (Picoseconds{1} << 40), [&] { fired = 2; });
    EXPECT_TRUE(q.cancel(c));
    EXPECT_TRUE(q.cancel(h));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    const Picoseconds before = q.now();
    EXPECT_EQ(q.run(), 0u);
    EXPECT_EQ(q.now(), before);
    EXPECT_EQ(fired, 0);
}

TEST(EventQueueCalendar, StaleEntryInABucketALaterEpochReuses)
{
    // A is cancelled, leaving its entry in ring bucket 4, and B takes
    // A's freed slot: only the sequence tells the entry is stale. The
    // clock then reaches epoch 66 through the heap, and epoch 68 (ring
    // bucket 4 again) fills from there.
    EventQueue q;
    FireLog log;
    auto tag = [&](int t) {
        return [&log, &q, t] { log.push_back({q.now(), t}); };
    };
    const EventId a = q.schedule(4 * kBucket + 100, tag(-1));
    ASSERT_TRUE(q.cancel(a));
    const EventId b = q.schedule(30 * kBucket, tag(0));
    EXPECT_EQ(b & 0xFFFFFFFFu, a & 0xFFFFFFFFu) << "B reuses A's slot";
    q.schedule(66 * kBucket + 5, [&] {
        log.push_back({q.now(), 1});
        q.schedule(68 * kBucket + 900, tag(3));
        q.schedule(68 * kBucket + 10, tag(2));
    });
    q.run();
    EXPECT_EQ(log, (FireLog{{30 * kBucket, 0},
                            {66 * kBucket + 5, 1},
                            {68 * kBucket + 10, 2},
                            {68 * kBucket + 900, 3}}));
}

TEST(EventQueueCalendar, RepeatedFarReschedulesFireOnce)
{
    // A retry-timer pattern far beyond the window: every push-out leaves
    // a stale heap entry, enough to force the heap to be pruned.
    EventQueue q;
    FireLog log;
    std::vector<EventId> ids;
    for (int t = 0; t < 8; ++t)
        ids.push_back(q.schedule(kWindow * 2 + t, [&log, &q, t] {
            log.push_back({q.now(), t});
        }));
    for (Picoseconds round = 1; round <= 500; ++round)
        for (int t = 0; t < 8; ++t)
            ASSERT_TRUE(q.reschedule(ids[static_cast<std::size_t>(t)],
                                     kWindow * (2 + round) + 7 - t));
    for (int t = 0; t < 8; t += 2)
        ASSERT_TRUE(q.cancel(ids[static_cast<std::size_t>(t)]));
    EXPECT_EQ(q.pending(), 4u);
    q.run();
    const Picoseconds last = kWindow * 502 + 7;
    EXPECT_EQ(log, (FireLog{{last - 7, 7},
                            {last - 5, 5},
                            {last - 3, 3},
                            {last - 1, 1}}));
    EXPECT_EQ(q.executed(), 4u);
}

// ---------------------------------------------------------------------------
// Tickets: a sequence taken with ticket() and filed later under it with
// schedule(when, ticket, cb) orders as if scheduled at ticket time.
// ---------------------------------------------------------------------------

/** Tickets and fresh events tied at @p when, filed from @p from. */
FireLog
tiedTicketsAndFreshEvents(Picoseconds when, Picoseconds from)
{
    EventQueue q;
    FireLog log;
    auto tag = [&](int t) {
        return [&log, &q, t] { log.push_back({q.now(), t}); };
    };
    const std::uint64_t t0 = q.ticket();
    q.schedule(when, tag(1));
    const std::uint64_t t2 = q.ticket();
    q.schedule(when, tag(3));
    const std::uint64_t t4 = q.ticket();
    // Filed newest first, and behind the fresh events they tie with.
    q.schedule(from, [&, when, t0, t2, t4] {
        q.schedule(when, t4, tag(4));
        q.schedule(when, tag(5));
        q.schedule(when, t2, tag(2));
        q.schedule(when, t0, tag(0));
    });
    q.run();
    return log;
}

TEST(EventQueueTicket, TiesWithFreshEventsInTheCalendar)
{
    const Picoseconds when = 7 * kBucket + 3;
    EXPECT_EQ(tiedTicketsAndFreshEvents(when, when - 100),
              (FireLog{{when, 0},
                       {when, 1},
                       {when, 2},
                       {when, 3},
                       {when, 4},
                       {when, 5}}));
    // Filed from the same bucket, into the entries already there.
    EXPECT_EQ(tiedTicketsAndFreshEvents(when, when - 2),
              (FireLog{{when, 0},
                       {when, 1},
                       {when, 2},
                       {when, 3},
                       {when, 4},
                       {when, 5}}));
}

TEST(EventQueueTicket, TiesWithFreshEventsInTheHeap)
{
    const Picoseconds when = (Picoseconds{1} << 40) + 7;
    EXPECT_EQ(tiedTicketsAndFreshEvents(when, 100),
              (FireLog{{when, 0},
                       {when, 1},
                       {when, 2},
                       {when, 3},
                       {when, 4},
                       {when, 5}}));
}

TEST(EventQueueTicket, TiesAcrossCalendarAndHeap)
{
    // Tickets c and b are filed into the calendar once T is inside the
    // window; ticket a and fresh event F wait in the heap from the
    // start. Sequences alternate between the two structures: c (cal),
    // a (heap), F (heap), b (cal), then a fresh calendar event.
    EventQueue q;
    FireLog log;
    auto tag = [&](int t) {
        return [&log, &q, t] { log.push_back({q.now(), t}); };
    };
    const Picoseconds T = 3 * kWindow + 500;
    const std::uint64_t c = q.ticket();
    const std::uint64_t a = q.ticket();
    q.schedule(T, tag(2)); // F: heap
    const std::uint64_t b = q.ticket();
    q.schedule(T, a, tag(1)); // heap
    q.schedule(T - 10 * kBucket, [&, T, b, c] {
        q.schedule(T, b, tag(3)); // calendar
        q.schedule(T, tag(4));    // calendar, fresh
        q.schedule(T, c, tag(0)); // calendar
    });
    q.run();
    EXPECT_EQ(log, (FireLog{{T, 0}, {T, 1}, {T, 2}, {T, 3}, {T, 4}}));
}

TEST(EventQueueTicket, CancelAndRescheduleATicketedEvent)
{
    EventQueue q;
    FireLog log;
    auto tag = [&](int t) {
        return [&log, &q, t] { log.push_back({q.now(), t}); };
    };
    const std::uint64_t gone = q.ticket();
    q.schedule(100, tag(1));
    const EventId cancelled = q.schedule(100, gone, tag(-1));
    EXPECT_TRUE(q.isPending(cancelled));
    EXPECT_TRUE(q.cancel(cancelled));
    EXPECT_FALSE(q.cancel(cancelled));
    EXPECT_FALSE(q.reschedule(cancelled, 300));

    // A ticketed event moved by reschedule takes a new sequence: it
    // leaves its ticket's place and fires behind the ties at its new
    // time, from the calendar and from the heap alike.
    const std::uint64_t near = q.ticket();
    q.schedule(200, tag(3));
    const EventId moved = q.schedule(200, near, tag(2));
    const Picoseconds far = Picoseconds{1} << 40;
    const std::uint64_t away = q.ticket();
    q.schedule(far, tag(5));
    const EventId back = q.schedule(far, away, tag(4));
    EXPECT_TRUE(q.reschedule(moved, 200));
    EXPECT_TRUE(q.reschedule(back, far));
    EXPECT_EQ(q.pending(), 5u);
    q.run();
    EXPECT_EQ(log, (FireLog{{100, 1},
                            {200, 3},
                            {200, 2},
                            {far, 5},
                            {far, 4}}));
    EXPECT_FALSE(q.isPending(moved));
    EXPECT_EQ(q.executed(), 5u);
}

TEST(EventQueueCalendar, MatchesOrderedSetModel)
{
    // An independent oracle: a std::set of (when, rank, seq, tag) with
    // its own sequence counter, updated on every schedule, cancel and
    // reschedule. After each step() the fired (time, tag) must be the
    // model's minimum. Target times straddle the calendar's window: one
    // in ten lies 2^32 ps or more ahead (heap), and the rest fall within
    // two windows of now, a quarter of them within two buckets of the
    // window's end. Half land on the 2560 ps block-slot grid, as fabric
    // events do, so same-timestamp ties are common: within a bucket,
    // and between a heap event and a later calendar event. Half the
    // events are ranked 1-3, as the fabric's transmit events are, so
    // ties split into phases. Reschedules move events between the two
    // structures both ways and keep their rank, and cancelled tags free
    // slots for later schedules to reuse. One draw in five takes a
    // rank-0 ticket instead and files it later, at random or once it is
    // the model's next event, never after the queue has passed it.
    // Nothing is ever filed at now() ahead of the event run last.
    // After every step and every cancel or reschedule,
    // rankZeroPendingNow() must say whether the model holds an event at
    // (now, rank 0); after a step, a third of the time one such event is
    // cancelled and the question asked again. Due-now events filed from
    // beyond the window sit in the heap, and both kinds are counted, so
    // the test fails if either never occurs.
    using Key = std::tuple<Picoseconds, std::uint32_t, std::uint64_t,
                           std::size_t>;
    constexpr Picoseconds kSlot = 2560;
    EventQueue q;
    Rng rng(77);
    std::set<Key> model;
    std::uint64_t model_seq = 0;
    std::vector<EventId> ids; // by tag
    std::vector<Key> keys;    // by tag: its entry, in the model if pending
    std::vector<Picoseconds> filed_at; // by tag: now() when last filed
    std::pair<Picoseconds, std::size_t> fired{-1, 0};
    std::uint32_t last_rank = 0; // rank of the event run last
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
        if (roll < 0.5) // 0-161 ns ahead: across the 65.5 ns window
            return on_grid(now) +
                kSlot * static_cast<Picoseconds>(rng.uniformInt(64));
        if (roll < 0.75)
            return now +
                static_cast<Picoseconds>(
                    rng.uniformInt(std::uint64_t{2} * kWindow));
        // Within two buckets of the window's end, which moves with the
        // current bucket, not with now.
        return now / kBucket * kBucket + kWindow - 2 * kBucket +
            static_cast<Picoseconds>(
                rng.uniformInt(std::uint64_t{4} * kBucket));
    };
    // Keep (when, rank) from ordering before the event run last.
    auto after_last = [&](Picoseconds when, std::uint32_t rank) {
        return when == q.now() && rank < last_rank ? when + 1 : when;
    };
    auto file = [&](std::size_t tag, Picoseconds when, std::uint32_t rank) {
        keys[tag] = Key{when, rank, model_seq++, tag};
        filed_at[tag] = q.now();
        model.insert(keys[tag]);
    };
    auto record = [&fired, &q](std::size_t tag) {
        return [&fired, &q, tag] { fired = {q.now(), tag}; };
    };
    std::set<Key> deferred; // ticketed tags not filed yet
    auto file_ticketed = [&](std::set<Key>::iterator it) {
        const auto [when, rank, seq, tag] = *it;
        ids[tag] = q.schedule(when, seq, record(tag));
        filed_at[tag] = q.now();
        model.insert(*it);
        deferred.erase(it);
    };
    // The model's first event at (now, rank 0), or model.end().
    auto due_now = [&]() {
        const auto it = model.lower_bound(Key{q.now(), 0, 0, 0});
        return it != model.end() && std::get<0>(*it) == q.now() &&
                std::get<1>(*it) == 0
            ? it
            : model.end();
    };
    Rng due_rng(78);
    std::uint64_t due_answers = 0;   // checks where one was due now
    std::uint64_t due_from_heap = 0; // ... filed beyond the window
    std::uint64_t due_cancels = 0;
    auto check_due = [&]() {
        const auto it = due_now();
        const bool want = it != model.end();
        if (q.rankZeroPendingNow() != want) {
            ADD_FAILURE() << "rankZeroPendingNow() is " << !want
                          << " at now " << q.now();
            return false;
        }
        if (want) {
            ++due_answers;
            const Picoseconds when = std::get<0>(*it);
            if (when / kBucket - filed_at[std::get<3>(*it)] / kBucket >= 64)
                ++due_from_heap;
        }
        return true;
    };
    // One step; false (after recording a failure) on any divergence.
    auto step = [&]() {
        while (!deferred.empty() &&
               (model.empty() || *deferred.begin() < *model.begin()))
            file_ticketed(deferred.begin());
        const bool ran = q.step();
        if (ran != !model.empty()) {
            ADD_FAILURE() << "step() returned " << ran << " with "
                          << model.size() << " events in the model";
            return false;
        }
        if (!ran)
            return true;
        const auto [when, rank, seq, tag] = *model.begin();
        model.erase(model.begin());
        last_rank = rank;
        ++popped;
        if (fired != std::make_pair(when, tag)) {
            ADD_FAILURE() << "fired tag " << fired.second << " at "
                          << fired.first << ", model expected tag " << tag
                          << " (rank " << rank << ", seq " << seq
                          << ") at " << when;
            return false;
        }
        if (!check_due())
            return false;
        const auto due = due_now();
        if (due != model.end() && due_rng.uniform() < 0.33) {
            const std::size_t pick = std::get<3>(*due);
            if (!q.cancel(ids[pick])) {
                ADD_FAILURE() << "cancel of due tag " << pick << " failed";
                return false;
            }
            model.erase(due);
            ++due_cancels;
            return check_due();
        }
        return true;
    };

    bool ok = true;
    for (std::size_t i = 0; i < 20000 && ok; ++i) {
        const std::size_t tag = ids.size();
        keys.emplace_back();
        filed_at.emplace_back();
        if (rng.uniform() < 0.2) {
            // Until it is filed, the model and the queue hold neither
            // the tag nor an id for it.
            ids.push_back(kInvalidEvent);
            keys[tag] = Key{after_last(draw(), 0), 0, model_seq++, tag};
            ASSERT_EQ(q.ticket(), std::get<2>(keys[tag]));
            deferred.insert(keys[tag]);
        } else {
            const auto rank = rng.chance(0.5)
                ? 0
                : static_cast<std::uint32_t>(1 + rng.uniformInt(3));
            const Picoseconds when = after_last(draw(), rank);
            ids.push_back(rank == 0
                              ? q.schedule(when, record(tag))
                              : q.scheduleRanked(when, rank, record(tag)));
            file(tag, when, rank);
        }
        if (!deferred.empty() && rng.uniform() < 0.3)
            file_ticketed(std::next(
                deferred.begin(),
                static_cast<std::ptrdiff_t>(
                    rng.uniformInt(deferred.size()))));

        // Cancel or reschedule any tag, fired, cancelled and unfiled
        // ones included: the queue must reject exactly the ones the
        // model does not hold.
        const double roll = rng.uniform();
        const std::size_t pick = rng.uniformInt(ids.size());
        const bool pending = model.count(keys[pick]) != 0;
        if (roll < 0.15) {
            ASSERT_EQ(q.cancel(ids[pick]), pending) << "tag " << pick;
            model.erase(keys[pick]);
        } else if (roll < 0.35) {
            const std::uint32_t rank = std::get<1>(keys[pick]);
            const Picoseconds to = after_last(draw(), rank);
            ASSERT_EQ(q.reschedule(ids[pick], to), pending)
                << "tag " << pick;
            if (pending) {
                model.erase(keys[pick]);
                file(pick, to, rank);
            }
        }
        ASSERT_EQ(q.pending(), model.size());
        ASSERT_TRUE(check_due());
        // Step only past 32 pending events, so every instant on the
        // grid is likely to hold several of them.
        if (model.size() > 32 && rng.uniform() < 0.35)
            for (std::uint64_t k = 1 + rng.uniformInt(8); k > 0 && ok; --k)
                ok = step();
    }
    while (ok && !(model.empty() && deferred.empty()))
        ok = step();
    EXPECT_TRUE(ok);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.executed(), popped);
    EXPECT_GT(due_answers, 0u);
    EXPECT_GT(due_from_heap, 0u);
    EXPECT_GT(due_cancels, 0u);
    std::printf("rank-0 due now: %llu answers, %llu from the heap, %llu "
                "cancelled\n",
                static_cast<unsigned long long>(due_answers),
                static_cast<unsigned long long>(due_from_heap),
                static_cast<unsigned long long>(due_cancels));
}

// ---------------------------------------------------------------------------
// Slot chunks: a callback runs in place in its slot.
// ---------------------------------------------------------------------------

TEST(EventQueueSlots, CallbackReadsItsCapturesAfterSchedulingChunks)
{
    // Each callback schedules more than two 512-slot chunks of events
    // while it runs, then reads its own captures: the slot it runs in
    // must not have moved (run under ASan to see a move).
    EventQueue q;
    struct Seen
    {
        std::uint64_t fired = 0;
        int checks = 0;
    };
    Seen seen;
    auto flood = [&q, &seen] {
        for (Picoseconds i = 0; i < 3 * 512; ++i)
            q.scheduleAfter(i, [&seen] { ++seen.fired; });
    };
    const std::array<std::uint32_t, 6> words{3, 1, 4, 1, 5, 9};
    auto trivial = [flood, &seen, words] {
        flood();
        if (words == std::array<std::uint32_t, 6>{3, 1, 4, 1, 5, 9})
            ++seen.checks;
    };
    static_assert(std::is_trivially_copyable_v<decltype(trivial)>);
    static_assert(sizeof(trivial) <= 48, "must live inline in the slot");
    q.schedule(10, trivial);
    q.schedule(20, [flood, &seen, p = std::make_unique<int>(99)] {
        flood();
        if (*p == 99)
            ++seen.checks;
    });
    q.run();
    EXPECT_EQ(seen.checks, 2);
    EXPECT_EQ(seen.fired, 2u * 3 * 512);
}

TEST(EventQueueSlots, OwnIdReadsFiredWhileItsCallbackRuns)
{
    EventQueue q;
    EventId self = kInvalidEvent;
    bool ran = false;
    self = q.schedule(10, [&] {
        EXPECT_FALSE(q.isPending(self));
        EXPECT_FALSE(q.cancel(self));
        EXPECT_FALSE(q.reschedule(self, 20));
        // A slot scheduled now is not the running one.
        const EventId next = q.scheduleAfter(5, [] {});
        EXPECT_NE(next & 0xFFFFFFFFu, self & 0xFFFFFFFFu);
        ran = true;
    });
    q.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(q.executed(), 2u);
    EXPECT_TRUE(q.empty());
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
