#include "event_queue.hpp"

#include <bit>
#include <utility>

#include "common/logging.hpp"

namespace edm {

// ---------------------------------------------------------------------------
// Slot table
// ---------------------------------------------------------------------------

std::uint32_t
EventQueue::allocSlot()
{
    if (free_head_ != kNpos) {
        const std::uint32_t slot = free_head_;
        free_head_ = slots_[slot].next_free;
        slots_[slot].next_free = kNpos;
        return slot;
    }
    EDM_ASSERT(slots_.size() < kNpos, "event slot table overflow");
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.cb.reset();
    s.heap_pos = kNpos;
    s.bucket = kNpos;
    // Bumping the generation invalidates every outstanding EventId for
    // this slot; wrap-around after 2^32 reuses is accepted.
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = slot;
}

std::uint32_t
EventQueue::decode(EventId id) const
{
    const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size() || slots_[slot].generation != generation ||
        (slots_[slot].heap_pos == kNpos && slots_[slot].bucket == kNpos))
        return kNpos;
    return slot;
}

// ---------------------------------------------------------------------------
// 4-ary overflow heap
// ---------------------------------------------------------------------------

void
EventQueue::placeHeap(std::uint32_t pos, HeapEntry entry)
{
    slots_[entry.slot].heap_pos = pos;
    heap_[pos] = entry;
}

void
EventQueue::siftUp(std::uint32_t pos)
{
    HeapEntry entry = heap_[pos];
    while (pos > 0) {
        const std::uint32_t parent = (pos - 1) / 4;
        if (!entry.before(heap_[parent]))
            break;
        placeHeap(pos, heap_[parent]);
        pos = parent;
    }
    placeHeap(pos, entry);
}

void
EventQueue::siftDown(std::uint32_t pos)
{
    const auto size = static_cast<std::uint32_t>(heap_.size());
    HeapEntry entry = heap_[pos];
    for (;;) {
        const std::uint64_t first = std::uint64_t{pos} * 4 + 1;
        if (first >= size)
            break;
        std::uint32_t best = static_cast<std::uint32_t>(first);
        const std::uint32_t last =
            static_cast<std::uint32_t>(
                first + 4 < size ? first + 4 : size);
        for (std::uint32_t c = best + 1; c < last; ++c)
            if (heap_[c].before(heap_[best]))
                best = c;
        if (!heap_[best].before(entry))
            break;
        placeHeap(pos, heap_[best]);
        pos = best;
    }
    placeHeap(pos, entry);
}

void
EventQueue::removeAt(std::uint32_t pos)
{
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
        placeHeap(pos, last);
        siftDown(pos);
        siftUp(slots_[last.slot].heap_pos);
    }
}

// ---------------------------------------------------------------------------
// Timing wheel
// ---------------------------------------------------------------------------

void
EventQueue::wheelAppend(int level, std::uint32_t index, std::uint32_t slot)
{
    Bucket &b = buckets_[bucketIndex(level, index)];
    Slot &s = slots_[slot];
    s.bucket = bucketIndex(level, index);
    s.wheel_next = kNpos;
    s.wheel_prev = b.tail;
    if (b.tail != kNpos)
        slots_[b.tail].wheel_next = slot;
    else {
        b.head = slot;
        bitmapSet(level, index);
    }
    b.tail = slot;
    ++level_count_[static_cast<std::size_t>(level)];
    ++wheel_count_;
}

void
EventQueue::wheelUnlink(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    Bucket &b = buckets_[s.bucket];
    if (s.wheel_prev != kNpos)
        slots_[s.wheel_prev].wheel_next = s.wheel_next;
    else
        b.head = s.wheel_next;
    if (s.wheel_next != kNpos)
        slots_[s.wheel_next].wheel_prev = s.wheel_prev;
    else
        b.tail = s.wheel_prev;
    if (b.head == kNpos)
        bitmapClear(static_cast<int>(s.bucket / kLevelSlots),
                    s.bucket & kSlotMask);
    --level_count_[s.bucket / kLevelSlots];
    s.bucket = kNpos;
    --wheel_count_;
}

void
EventQueue::placeEvent(std::uint32_t slot)
{
    const Picoseconds when = slots_[slot].when;
    const std::uint64_t delta_bits =
        static_cast<std::uint64_t>(when) ^ static_cast<std::uint64_t>(now_);
    if (delta_bits >> kWheelBits) {
        // Beyond the wheel's current top-level window: overflow heap.
        heap_.push_back(HeapEntry{when, slots_[slot].seq, slot});
        siftUp(static_cast<std::uint32_t>(heap_.size() - 1));
        return;
    }
    // Deepest level whose window already matches the current time; the
    // event files at the first level where the two still differ.
    for (int level = 0; level < kWheelLevels; ++level) {
        if (!(delta_bits >> (kLevelBits * (level + 1)))) {
            wheelAppend(level,
                        static_cast<std::uint32_t>(
                            when >> (kLevelBits * level)) &
                            kSlotMask,
                        slot);
            return;
        }
    }
    EDM_PANIC("unreachable wheel placement");
}

void
EventQueue::cascade(int level, std::uint32_t index)
{
    Bucket &b = buckets_[bucketIndex(level, index)];
    std::uint32_t slot = b.head;
    if (slot == kNpos)
        return;
    b.head = kNpos;
    b.tail = kNpos;
    bitmapClear(level, index);
    // Re-file in list order: within a timestamp the list is in sequence
    // order, and placeEvent appends, so FIFO survives the cascade.
    while (slot != kNpos) {
        const std::uint32_t next = slots_[slot].wheel_next;
        slots_[slot].bucket = kNpos;
        --level_count_[static_cast<std::size_t>(level)];
        --wheel_count_;
        placeEvent(slot);
        slot = next;
    }
}

void
EventQueue::advanceTo(Picoseconds t)
{
    const Picoseconds old = now_;
    now_ = t;
    if (t == old)
        return;
    // Entering a new window at level L-1 exposes the level-L bucket that
    // covers it; cascade top-down so higher-level events settle through
    // intermediate levels. Skipped-over buckets are provably empty: t is
    // the earliest pending timestamp.
    for (int level = kWheelLevels - 1; level >= 1; --level) {
        if ((t >> (kLevelBits * level)) != (old >> (kLevelBits * level)))
            cascade(level,
                    static_cast<std::uint32_t>(
                        t >> (kLevelBits * level)) &
                        kSlotMask);
    }
}

std::uint32_t
EventQueue::bitmapScan(int level, std::uint32_t from) const
{
    if (from >= kLevelSlots)
        return kNpos;
    const auto &words = bitmap_[static_cast<std::size_t>(level)];
    std::uint32_t word = from >> 6;
    std::uint64_t bits = words[word] &
        (~std::uint64_t{0} << (from & 63));
    for (;;) {
        if (bits)
            return (word << 6) +
                static_cast<std::uint32_t>(std::countr_zero(bits));
        if (++word >= kLevelSlots / 64)
            return kNpos;
        bits = words[word];
    }
}

bool
EventQueue::wheelPeek(Picoseconds &when, std::uint64_t &seq) const
{
    if (wheel_count_ == 0)
        return false;
    // Level 0: 1 ps buckets — the hit is an exact timestamp and the list
    // head is the lowest sequence at it.
    if (level_count_[0] > 0) {
        const std::uint32_t cur =
            static_cast<std::uint32_t>(now_) & kSlotMask;
        const std::uint32_t idx = bitmapScan(0, cur);
        if (idx != kNpos) {
            const Bucket &b = buckets_[bucketIndex(0, idx)];
            when = (now_ & ~static_cast<Picoseconds>(kSlotMask)) + idx;
            seq = slots_[b.head].seq;
            return true;
        }
    }
    // Higher levels: remaining buckets of the current window are strictly
    // later than everything below; the first occupied one holds the
    // earliest events, found with a list walk (buckets span many ticks).
    for (int level = 1; level < kWheelLevels; ++level) {
        if (level_count_[static_cast<std::size_t>(level)] == 0)
            continue;
        const std::uint32_t cur =
            static_cast<std::uint32_t>(now_ >> (kLevelBits * level)) &
            kSlotMask;
        const std::uint32_t idx = bitmapScan(level, cur + 1);
        if (idx == kNpos)
            continue;
        const Bucket &b = buckets_[bucketIndex(level, idx)];
        Picoseconds best_when = 0;
        std::uint64_t best_seq = 0;
        bool found = false;
        for (std::uint32_t s = b.head; s != kNpos;
             s = slots_[s].wheel_next) {
            const Slot &sl = slots_[s];
            if (!found || sl.when < best_when ||
                (sl.when == best_when && sl.seq < best_seq)) {
                best_when = sl.when;
                best_seq = sl.seq;
                found = true;
            }
        }
        EDM_ASSERT(found, "occupied wheel bucket with no events");
        when = best_when;
        seq = best_seq;
        return true;
    }
    EDM_PANIC("wheel_count_ %zu but no occupied bucket", wheel_count_);
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

EventId
EventQueue::schedule(Picoseconds when, Callback cb)
{
    EDM_ASSERT(when >= now_,
               "scheduling event in the past: %lld < now %lld",
               static_cast<long long>(when), static_cast<long long>(now_));
    EDM_ASSERT(static_cast<bool>(cb), "scheduling an empty callback");
    const std::uint32_t slot = allocSlot();
    Slot &s = slots_[slot];
    s.cb = std::move(cb);
    s.when = when;
    s.seq = next_seq_++;
    placeEvent(slot);
    return makeId(slot, s.generation);
}

EventId
EventQueue::scheduleAfter(Picoseconds delay, Callback cb)
{
    EDM_ASSERT(delay >= 0, "negative delay %lld",
               static_cast<long long>(delay));
    return schedule(now_ + delay, std::move(cb));
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t slot = decode(id);
    if (slot == kNpos)
        return false;
    if (slots_[slot].bucket != kNpos)
        wheelUnlink(slot);
    else
        removeAt(slots_[slot].heap_pos);
    freeSlot(slot);
    return true;
}

bool
EventQueue::reschedule(EventId id, Picoseconds when)
{
    const std::uint32_t slot = decode(id);
    if (slot == kNpos)
        return false;
    EDM_ASSERT(when >= now_,
               "rescheduling event into the past: %lld < now %lld",
               static_cast<long long>(when), static_cast<long long>(now_));
    Slot &s = slots_[slot];
    // Detach wherever the event lives, re-sequence, re-file. The slot —
    // and therefore the caller's EventId — survives the migration.
    if (s.bucket != kNpos) {
        wheelUnlink(slot);
    } else {
        removeAt(s.heap_pos);
        s.heap_pos = kNpos;
    }
    s.when = when;
    s.seq = next_seq_++;
    placeEvent(slot);
    return true;
}

bool
EventQueue::isPending(EventId id) const
{
    return decode(id) != kNpos;
}

bool
EventQueue::peekSelect(Picoseconds &when, std::uint64_t &seq,
                       bool &from_wheel) const
{
    Picoseconds wheel_when = 0;
    std::uint64_t wheel_seq = 0;
    const bool have_wheel = wheelPeek(wheel_when, wheel_seq);
    const bool have_heap = !heap_.empty();
    if (!have_wheel && !have_heap)
        return false;

    // Wheel and heap can both hold events at one timestamp (an event
    // scheduled far ahead overflowed to the heap, a later one at the
    // same time landed in the wheel): tie-break by sequence.
    from_wheel = have_wheel;
    if (have_wheel && have_heap) {
        const HeapEntry &top = heap_[0];
        from_wheel = wheel_when != top.when ? wheel_when < top.when
                                            : wheel_seq < top.seq;
    }
    when = from_wheel ? wheel_when : heap_[0].when;
    seq = from_wheel ? wheel_seq : heap_[0].seq;
    return true;
}

bool
EventQueue::step(Picoseconds horizon)
{
    Picoseconds when = 0;
    std::uint64_t seq = 0;
    bool from_wheel = false;
    if (!peekSelect(when, seq, from_wheel))
        return false;
    if (when > horizon)
        return false;

    advanceTo(when);

    std::uint32_t slot;
    if (from_wheel) {
        // After advanceTo, the winner sits in the level-0 bucket of its
        // exact timestamp; pop the FIFO head.
        const std::uint32_t idx =
            static_cast<std::uint32_t>(when) & kSlotMask;
        const Bucket &b = buckets_[bucketIndex(0, idx)];
        slot = b.head;
        EDM_ASSERT(slot != kNpos && slots_[slot].when == when,
                   "wheel candidate lost during cascade");
        wheelUnlink(slot);
    } else {
        slot = heap_[0].slot;
        removeAt(0);
        slots_[slot].heap_pos = kNpos;
    }

    // Detach the callback and retire the entry before invoking: the
    // callback may schedule, cancel, or reschedule other events freely.
    Callback cb = std::move(slots_[slot].cb);
    freeSlot(slot);
    ++executed_;
    cb();
    return true;
}

std::uint64_t
EventQueue::run(Picoseconds horizon)
{
    stop_requested_ = false;
    std::uint64_t ran = 0;
    while (!stop_requested_ && step(horizon))
        ++ran;
    return ran;
}

} // namespace edm
