/**
 * @file
 * Discrete-event simulation engine.
 *
 * A hierarchical timing wheel fronts an indexed 4-ary heap. Near-future
 * events — the "now + a few cycles" timer class that dominates the
 * cycle-level fabric — are filed into one of four 256-slot wheel levels
 * (1 ps ticks at level 0, ×256 per level, ~4.3 ms total span) in O(1);
 * events beyond the wheel span overflow to the heap. Per-level occupancy
 * bitmaps make "find the next event" a handful of countr_zero scans, and
 * buckets cascade toward level 0 lazily as simulated time advances
 * (Varghese & Lauck's hashed hierarchical wheel, adapted to the exact
 * (time, sequence) ordering a deterministic simulator needs).
 *
 * Ordering contract: events fire in (time, schedule-sequence) order, so
 * same-timestamp events run in scheduling order regardless of which
 * structure held them — level-0 buckets are 1 ps wide, making every
 * bucket a single-timestamp FIFO list, and wheel/heap candidates are
 * tie-broken by sequence on pop.
 *
 * Events can be cancelled or rescheduled via the EventId handle: the
 * handle encodes a slot index plus a generation counter, so stale
 * handles (fired or already-cancelled events) are rejected without any
 * hash lookup. Cancellation unlinks wheel events in O(1) and removes
 * heap events in O(log n); rescheduling migrates freely between wheel
 * and heap. Callbacks are SmallFunction (small-buffer optimized,
 * move-only): typical capture sets live inline in the slot table, so
 * scheduling does not allocate.
 */

#ifndef EDM_SIM_EVENT_QUEUE_HPP
#define EDM_SIM_EVENT_QUEUE_HPP

#include <array>
#include <cstdint>
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
     * Cancel a pending event. Returns true if the event was pending and is
     * now cancelled; false if it already fired or was already cancelled.
     */
    bool cancel(EventId id);

    /**
     * Move a pending event to absolute time @p when (keeping its
     * callback). The event is re-sequenced: among events at the new
     * timestamp it fires after those already scheduled there. Returns
     * false if the event already fired or was cancelled.
     * @pre when >= now()
     */
    bool reschedule(EventId id, Picoseconds when);

    /** True if @p id refers to an event that has not yet fired. */
    bool isPending(EventId id) const;

    /** True if no runnable events remain. */
    bool empty() const { return heap_.empty() && wheel_count_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return heap_.size() + wheel_count_; }

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

    // ---- timing-wheel geometry ----
    static constexpr int kWheelLevels = 4;
    static constexpr int kLevelBits = 8;
    static constexpr std::uint32_t kLevelSlots = 1u << kLevelBits;
    static constexpr std::uint32_t kSlotMask = kLevelSlots - 1;
    /** Bits of `when` resolved by the wheel; beyond that, the heap. */
    static constexpr int kWheelBits = kWheelLevels * kLevelBits;

    /** Heap entry: ordering key plus the owning slot. */
    struct HeapEntry
    {
        Picoseconds when;
        std::uint64_t seq; ///< FIFO tie-break among equal timestamps
        std::uint32_t slot;

        bool
        before(const HeapEntry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** Callback storage; indexed by the low half of an EventId. */
    struct Slot
    {
        Callback cb;
        Picoseconds when = 0;
        std::uint64_t seq = 0;
        std::uint32_t generation = 1; ///< bumped when the slot is freed
        std::uint32_t heap_pos = kNpos;  ///< position if heap-resident
        std::uint32_t bucket = kNpos;    ///< bucket if wheel-resident
        std::uint32_t wheel_prev = kNpos;
        std::uint32_t wheel_next = kNpos;
        std::uint32_t next_free = kNpos;
    };

    /** Intrusive FIFO list of slots sharing a wheel bucket. */
    struct Bucket
    {
        std::uint32_t head = kNpos;
        std::uint32_t tail = kNpos;
    };

    static EventId
    makeId(std::uint32_t slot, std::uint32_t generation)
    {
        return (static_cast<EventId>(generation) << 32) | slot;
    }

    /** Decode an id; returns the slot index or kNpos for stale ids. */
    std::uint32_t decode(EventId id) const;

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);

    // ---- heap ----
    void siftUp(std::uint32_t pos);
    void siftDown(std::uint32_t pos);
    void removeAt(std::uint32_t pos);
    void placeHeap(std::uint32_t pos, HeapEntry entry);

    // ---- wheel ----
    /** File a detached slot into the wheel or the overflow heap. */
    void placeEvent(std::uint32_t slot);
    /** Unlink a wheel-resident slot from its bucket. */
    void wheelUnlink(std::uint32_t slot);
    void wheelAppend(int level, std::uint32_t index, std::uint32_t slot);
    /** Re-file every event of a bucket relative to the current time. */
    void cascade(int level, std::uint32_t index);
    /** Advance the wheel clock to @p t, cascading entered windows. */
    void advanceTo(Picoseconds t);
    /**
     * Earliest wheel event as (when, seq, found); O(bitmap scan) plus a
     * list walk when the candidate lives above level 0.
     */
    bool wheelPeek(Picoseconds &when, std::uint64_t &seq) const;

    /** Earliest pending (when, seq) and which structure holds it. */
    bool peekSelect(Picoseconds &when, std::uint64_t &seq,
                    bool &from_wheel) const;

    static std::uint32_t
    bucketIndex(int level, std::uint32_t index)
    {
        return static_cast<std::uint32_t>(level) * kLevelSlots + index;
    }

    void
    bitmapSet(int level, std::uint32_t index)
    {
        bitmap_[static_cast<std::size_t>(level)][index >> 6] |=
            std::uint64_t{1} << (index & 63);
    }

    void
    bitmapClear(int level, std::uint32_t index)
    {
        bitmap_[static_cast<std::size_t>(level)][index >> 6] &=
            ~(std::uint64_t{1} << (index & 63));
    }

    /** First set bitmap index >= @p from at @p level, or kNpos. */
    std::uint32_t bitmapScan(int level, std::uint32_t from) const;

    std::vector<HeapEntry> heap_;
    std::vector<Slot> slots_;
    std::array<Bucket, kWheelLevels * kLevelSlots> buckets_{};
    std::array<std::array<std::uint64_t, kLevelSlots / 64>, kWheelLevels>
        bitmap_{};
    /** Events resident per level: lets the peek skip empty levels. */
    std::array<std::uint32_t, kWheelLevels> level_count_{};
    std::size_t wheel_count_ = 0;
    std::uint32_t free_head_ = kNpos;
    Picoseconds now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    bool stop_requested_ = false;
};

} // namespace edm

#endif // EDM_SIM_EVENT_QUEUE_HPP
