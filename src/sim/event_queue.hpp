/**
 * @file
 * Discrete-event simulation engine.
 *
 * Near-future events (the "now + a cycle or a hop" class that dominates
 * the cycle-level fabric) are filed in a one-level calendar (Brown's
 * calendar queue, CACM 31(10), 1988): a ring of 64 buckets, each 1024 ps
 * wide, covering the 65.5 ns from the current bucket on. A bucket is a
 * run of entries sorted by (time, rank, sequence), read from a head
 * index, and one 64-bit occupancy word finds the next occupied bucket
 * with a rotate and a countr_zero. Every later event waits in a binary
 * heap. The next event is the calendar's head or the heap's top,
 * whichever is earlier; the heap top is examined only when its time
 * could win.
 *
 * Ordering contract: events fire in (time, rank, sequence) order,
 * whichever structure holds them. The rank splits one instant into
 * phases: every rank-0 event of an instant fires before any rank-1
 * event of it, and so on. schedule() and ticket() file at rank 0;
 * scheduleRanked() chooses the rank (the cycle fabric runs each link's
 * transmit decision after every arrival of its instant this way). Within
 * one rank, the sequence keeps FIFO order. An event's sequence comes
 * from schedule(), which takes the next one, or from ticket(), taken
 * earlier: schedule(when, ticket, cb) files the event as if schedule()
 * had been called when the ticket was taken, so a caller can hold work
 * outside the queue without moving it among same-timestamp events. A
 * rescheduled event keeps its rank and takes a new sequence, so it fires
 * behind the ties of its rank already at its new time. Filing an event
 * at now() that orders before the event running (or the last one run)
 * is a logic error, as scheduling in the past is.
 *
 * Cancellation and rescheduling are lazy. A pending event's slot holds
 * the sequence of its one live entry: cancel frees the slot, reschedule
 * files a new entry under a new sequence, and an entry whose sequence no
 * longer matches its slot's is skipped when it is reached. The heap is
 * pruned of such entries once they could outnumber the pending events.
 * An EventId encodes a slot index plus a generation counter, so stale
 * handles (fired or cancelled events) are rejected without any lookup.
 *
 * Slots live in fixed 512-slot chunks that never move, so step() runs
 * each callback in place. Callbacks are SmallFunction (small-buffer
 * optimized, move-only): typical capture sets live inline in the slot,
 * so scheduling does not allocate.
 */

#ifndef EDM_SIM_EVENT_QUEUE_HPP
#define EDM_SIM_EVENT_QUEUE_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/small_function.hpp"
#include "common/time.hpp"

namespace edm {

/** Opaque handle to a scheduled event, usable for cancellation. */
using EventId = std::uint64_t;

/** Sentinel returned for events that cannot be cancelled. */
inline constexpr EventId kInvalidEvent = 0;

/**
 * Priority queue of timestamped callbacks driving a simulation.
 */
class EventQueue
{
  public:
    using Callback = SmallFunction<void(), 48>;
    using EventId = ::edm::EventId; ///< for generic code over queue types

    /** Current simulation time. */
    Picoseconds now() const { return now_; }

    /**
     * Schedule @p cb at absolute time @p when.
     * @pre when >= now(): scheduling in the past is a logic error.
     */
    EventId schedule(Picoseconds when, Callback cb);

    /** Schedule @p cb at now() + @p delay. */
    EventId scheduleAfter(Picoseconds delay, Callback cb);

    /**
     * Schedule @p cb at absolute time @p when with rank @p rank: among
     * the events at @p when it fires after every lower-ranked one and,
     * within its rank, in scheduling order.
     * @pre (when, rank) orders after the event now running (or the last
     *      one to run).
     */
    EventId scheduleRanked(Picoseconds when, std::uint32_t rank,
                           Callback cb);

    /**
     * Take the next sequence without filing an event: the sequence a
     * schedule() call made now would get. Hand it to the three-argument
     * schedule() later.
     */
    std::uint64_t ticket() { return next_seq_++; }

    /**
     * Schedule @p cb at absolute time @p when under a sequence taken
     * earlier from ticket(): among events at @p when it fires where a
     * schedule() call made at ticket time would have.
     * @pre @p ticket was issued, and (when, ticket) orders after the
     *      event now running (or the last one to run): filing before it
     *      is a logic error, as scheduling in the past is.
     */
    EventId schedule(Picoseconds when, std::uint64_t ticket, Callback cb);

    /**
     * Cancel a pending event. Returns true if the event was pending and is
     * now cancelled; false if it already fired or was already cancelled.
     */
    bool cancel(EventId id);

    /**
     * Move a pending event to absolute time @p when (keeping its
     * callback and rank). The event is re-sequenced: among events of its
     * rank at the new timestamp it fires after those already scheduled
     * there. Returns false if the event already fired or was cancelled.
     * @pre when >= now(), and (when, rank) orders after the event now
     *      running (or the last one to run)
     */
    bool reschedule(EventId id, Picoseconds when);

    /**
     * True if @p id refers to an event that has not yet fired. An event
     * whose callback is running reads as fired.
     */
    bool isPending(EventId id) const;

    /**
     * True if a live rank-0 event is pending at now(). An event filed
     * by schedule(now(), cb) would then not be the next to fire, since
     * that event precedes it; with none pending and the running event
     * at rank 0, it would. It reads now's calendar bucket head and the
     * heap top (an event filed more than the calendar's 65.5 ns window
     * ahead waits in the heap even once it is due), dropping the stale
     * entries it meets there, and scans nothing else.
     */
    bool rankZeroPendingNow();

    /** True if no runnable events remain. */
    bool empty() const { return pending_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return pending_; }

    /** Total number of events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Run events until the queue drains or time would exceed @p horizon.
     * Returns the number of events executed.
     */
    std::uint64_t run(Picoseconds horizon = INT64_MAX);

    /**
     * Execute exactly one event if any remain at or before @p horizon.
     * Returns true if an event ran.
     */
    bool step(Picoseconds horizon = INT64_MAX);

    /** Request run() to return after the current event completes. */
    void stop() { stop_requested_ = true; }

  private:
    static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;
    /** Sequence of a slot with no pending event. */
    static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

    /** log2 of a calendar bucket's width in picoseconds. */
    static constexpr int kBucketBits = 10;
    /** Calendar buckets: one occupancy word. */
    static constexpr std::uint32_t kBuckets = 64;
    /** log2 of the slots per chunk. */
    static constexpr int kChunkBits = 9;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

    /** A filed event: its ordering key and its slot. */
    struct Entry
    {
        Picoseconds when;
        std::uint64_t seq; ///< FIFO tie-break; live while it is the slot's
        std::uint32_t slot;
        std::uint32_t rank; ///< phase within one instant

        bool
        before(const Entry &o) const
        {
            if (when != o.when)
                return when < o.when;
            return rank != o.rank ? rank < o.rank : seq < o.seq;
        }
    };
    // The rank fills what was padding: buckets and heap stay as dense.
    static_assert(sizeof(Entry) == 24, "Entry grew past 24 bytes");

    /** Callback storage; indexed by the low half of an EventId. */
    struct Slot
    {
        Callback cb;
        std::uint64_t seq = kNoSeq;   ///< live entry's sequence, if pending
        std::uint32_t generation = 1; ///< bumped when the slot is freed
        /** The pending event's rank; the next free slot once freed. */
        std::uint32_t rank_or_next_free = kNpos;
    };

    /** One calendar bucket: entries sorted by (when, rank, seq) from head. */
    struct Bucket
    {
        std::vector<Entry> entries;
        std::size_t head = 0;
    };

    static EventId
    makeId(std::uint32_t slot, std::uint32_t generation)
    {
        return (static_cast<EventId>(generation) << 32) | slot;
    }

    Slot &
    slotAt(std::uint32_t i)
    {
        return chunks_[i >> kChunkBits][i & (kChunkSlots - 1)];
    }

    const Slot &
    slotAt(std::uint32_t i) const
    {
        return chunks_[i >> kChunkBits][i & (kChunkSlots - 1)];
    }

    /** True if @p e was cancelled or superseded by a reschedule. */
    bool stale(const Entry &e) const { return slotAt(e.slot).seq != e.seq; }

    /** Decode an id; returns the slot index or kNpos unless pending. */
    std::uint32_t decode(EventId id) const;

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);

    /** Take a slot for @p cb and file it at (@p when, @p rank, @p seq). */
    EventId add(Picoseconds when, std::uint32_t rank, std::uint64_t seq,
                Callback cb);

    /** Assert that (@p when, @p rank, @p seq) orders after the last event. */
    void checkNotBehind(Picoseconds when, std::uint32_t rank,
                        std::uint64_t seq) const;

    /** File @p e in the calendar if it is due in its window, else the heap. */
    void file(const Entry &e);

    /**
     * Calendar bucket holding the earliest live entry at its head, or
     * kNpos; drops the stale and consumed entries met on the way.
     */
    std::uint32_t calendarHead();

    void popHeap();

    std::array<Bucket, kBuckets> buckets_;
    std::uint64_t occupied_ = 0; ///< bit b set: bucket b holds entries
    std::vector<Entry> heap_;    ///< min-heap on (when, rank, seq)
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t slot_count_ = 0; ///< slots handed out so far
    std::uint32_t free_head_ = kNpos;
    std::size_t pending_ = 0;
    Picoseconds now_ = 0;
    std::uint64_t next_seq_ = 0;
    /** The last event run's rank and sequence + 1: the floor at now(). */
    std::uint32_t rank_floor_ = 0;
    std::uint64_t seq_floor_ = 0;
    std::uint64_t executed_ = 0;
    bool stop_requested_ = false;
};

} // namespace edm

#endif // EDM_SIM_EVENT_QUEUE_HPP
