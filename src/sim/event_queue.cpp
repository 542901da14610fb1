#include "event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.hpp"

namespace edm {

namespace {

/** Heap order for the std heap algorithms: the top fires first. */
template <class Entry>
bool
firesLater(const Entry &a, const Entry &b)
{
    return b.before(a);
}

/** Stale heap entries allowed beyond the pending count before a prune. */
constexpr std::size_t kHeapSlack = 64;

} // namespace

// ---------------------------------------------------------------------------
// Slot table
// ---------------------------------------------------------------------------

std::uint32_t
EventQueue::allocSlot()
{
    if (free_head_ != kNpos) {
        const std::uint32_t slot = free_head_;
        free_head_ = slotAt(slot).rank_or_next_free;
        return slot;
    }
    EDM_ASSERT(slot_count_ < kNpos, "event slot table overflow");
    if (slot_count_ == chunks_.size() * kChunkSlots)
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    return slot_count_++;
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    Slot &s = slotAt(slot);
    s.cb.reset();
    s.seq = kNoSeq;
    // Bumping the generation invalidates every outstanding EventId for
    // this slot; wrap-around after 2^32 reuses is accepted.
    ++s.generation;
    s.rank_or_next_free = free_head_;
    free_head_ = slot;
}

std::uint32_t
EventQueue::decode(EventId id) const
{
    const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slot_count_)
        return kNpos;
    const Slot &s = slotAt(slot);
    if (s.generation != generation || s.seq == kNoSeq)
        return kNpos;
    return slot;
}

// ---------------------------------------------------------------------------
// Calendar and heap
// ---------------------------------------------------------------------------

void
EventQueue::file(const Entry &e)
{
    const auto epoch = static_cast<std::uint64_t>(e.when) >> kBucketBits;
    if (epoch - (static_cast<std::uint64_t>(now_) >> kBucketBits) >=
        kBuckets) {
        // Beyond the calendar's window. Cancelled and rescheduled
        // entries wait here until their time unless the heap is pruned;
        // pruning once they could outnumber the pending events keeps it
        // within a constant factor of them.
        if (heap_.size() >= 2 * pending_ + kHeapSlack) {
            std::erase_if(heap_, [this](const Entry &x) { return stale(x); });
            std::make_heap(heap_.begin(), heap_.end(), firesLater<Entry>);
        }
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), firesLater<Entry>);
        return;
    }
    const auto b = static_cast<std::uint32_t>(epoch & (kBuckets - 1));
    Bucket &bucket = buckets_[b];
    // A newly scheduled e carries the newest sequence, so it appends
    // unless a later time or rank is already filed; a ticketed e may
    // also sort before a tie. Entries before the head have fired or were
    // skipped as stale, so e never belongs among them.
    if (bucket.entries.empty() || bucket.entries.back().before(e)) {
        bucket.entries.push_back(e);
    } else {
        const auto at = std::upper_bound(
            bucket.entries.begin() +
                static_cast<std::ptrdiff_t>(bucket.head),
            bucket.entries.end(), e,
            [](const Entry &x, const Entry &y) { return x.before(y); });
        bucket.entries.insert(at, e);
    }
    occupied_ |= std::uint64_t{1} << b;
}

std::uint32_t
EventQueue::calendarHead()
{
    // Occupied buckets hold times from the current bucket's on, in ring
    // order: an entry is filed only within 64 buckets of now, and every
    // bucket the clock passes has been drained on the way. A bucket
    // whose entries are all consumed or stale is cleared here.
    const auto cur = static_cast<int>(
        (static_cast<std::uint64_t>(now_) >> kBucketBits) & (kBuckets - 1));
    while (occupied_ != 0) {
        const std::uint32_t b =
            static_cast<std::uint32_t>(
                cur + std::countr_zero(std::rotr(occupied_, cur))) &
            (kBuckets - 1);
        Bucket &bucket = buckets_[b];
        for (; bucket.head < bucket.entries.size(); ++bucket.head)
            if (!stale(bucket.entries[bucket.head]))
                return b;
        bucket.entries.clear();
        bucket.head = 0;
        occupied_ &= ~(std::uint64_t{1} << b);
    }
    return kNpos;
}

void
EventQueue::popHeap()
{
    std::pop_heap(heap_.begin(), heap_.end(), firesLater<Entry>);
    heap_.pop_back();
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

EventId
EventQueue::schedule(Picoseconds when, Callback cb)
{
    return add(when, 0, next_seq_++, std::move(cb));
}

EventId
EventQueue::scheduleRanked(Picoseconds when, std::uint32_t rank,
                           Callback cb)
{
    return add(when, rank, next_seq_++, std::move(cb));
}

EventId
EventQueue::schedule(Picoseconds when, std::uint64_t ticket, Callback cb)
{
    EDM_ASSERT(ticket < next_seq_, "ticket %llu was never issued",
               static_cast<unsigned long long>(ticket));
    return add(when, 0, ticket, std::move(cb));
}

void
EventQueue::checkNotBehind(Picoseconds when, std::uint32_t rank,
                           std::uint64_t seq) const
{
    EDM_ASSERT(when > now_ || rank > rank_floor_ ||
                   (rank == rank_floor_ && seq >= seq_floor_),
               "event of rank %u, sequence %llu at now %lld sorts before "
               "the event run last (rank %u)",
               rank, static_cast<unsigned long long>(seq),
               static_cast<long long>(now_), rank_floor_);
}

EventId
EventQueue::add(Picoseconds when, std::uint32_t rank, std::uint64_t seq,
                Callback cb)
{
    EDM_ASSERT(when >= now_,
               "scheduling event in the past: %lld < now %lld",
               static_cast<long long>(when), static_cast<long long>(now_));
    checkNotBehind(when, rank, seq);
    EDM_ASSERT(static_cast<bool>(cb), "scheduling an empty callback");
    const std::uint32_t slot = allocSlot();
    Slot &s = slotAt(slot);
    s.cb = std::move(cb);
    s.seq = seq;
    s.rank_or_next_free = rank;
    ++pending_;
    file(Entry{when, seq, slot, rank});
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
    // The filed entry stays behind, stale: it no longer matches the
    // slot's sequence, whoever holds the slot next.
    freeSlot(slot);
    --pending_;
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
    // A new sequence makes the old entry stale; the slot, and therefore
    // the caller's EventId, stays, and so does the rank.
    Slot &s = slotAt(slot);
    s.seq = next_seq_++;
    checkNotBehind(when, s.rank_or_next_free, s.seq);
    file(Entry{when, s.seq, slot, s.rank_or_next_free});
    return true;
}

bool
EventQueue::isPending(EventId id) const
{
    return decode(id) != kNpos;
}

bool
EventQueue::rankZeroPendingNow()
{
    // Now's bucket holds only unfired times of now's 1024 ps epoch from
    // its head on, sorted, so its first live entry is the earliest.
    Bucket &bucket = buckets_[(static_cast<std::uint64_t>(now_) >>
                               kBucketBits) & (kBuckets - 1)];
    while (bucket.head < bucket.entries.size() &&
           stale(bucket.entries[bucket.head]))
        ++bucket.head;
    if (bucket.head < bucket.entries.size()) {
        const Entry &e = bucket.entries[bucket.head];
        if (e.when == now_ && e.rank == 0)
            return true;
    }
    // Only an entry at (now, rank 0) on top can hide a live one below.
    while (!heap_.empty() && heap_[0].when == now_ && heap_[0].rank == 0) {
        if (!stale(heap_[0]))
            return true;
        popHeap();
    }
    return false;
}

bool
EventQueue::step(Picoseconds horizon)
{
    const std::uint32_t b = calendarHead();
    const Entry *next =
        b != kNpos ? &buckets_[b].entries[buckets_[b].head] : nullptr;
    // Look past the heap top's time only when it could win: checking
    // whether it is stale reads its slot, a likely cache miss when the
    // heap is large.
    bool from_heap = false;
    if (!heap_.empty() && (next == nullptr || heap_[0].when <= next->when)) {
        while (!heap_.empty() && stale(heap_[0]))
            popHeap();
        if (!heap_.empty() && (next == nullptr || heap_[0].before(*next))) {
            next = &heap_[0];
            from_heap = true;
        }
    }
    if (next == nullptr || next->when > horizon)
        return false;

    const Entry e = *next;
    // A drained bucket is cleared by the next calendarHead().
    if (from_heap)
        popHeap();
    else
        ++buckets_[b].head;
    now_ = e.when;
    rank_floor_ = e.rank;
    seq_floor_ = e.seq + 1;
    // Run the callback in place (chunks never move); the event reads as
    // fired meanwhile, and its slot is freed only once it returns.
    Slot &s = slotAt(e.slot);
    s.seq = kNoSeq;
    --pending_;
    ++executed_;
    s.cb();
    freeSlot(e.slot);
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
