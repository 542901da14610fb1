/**
 * @file
 * Constant-time ordered list — a functional model of the hardware
 * priority-queue data structures EDM builds its notification queues from
 * (PIFO-style ordered lists, Shrivastav SIGCOMM'19 et al., paper §3.1.2).
 *
 * The hardware performs inserts/deletes in 2 clock cycles (fully
 * pipelined, one new operation per cycle) and reads the head in 1 cycle.
 * The cycle fabric charges the insert as CycleCosts::sw_insert_notif
 * (core/config.hpp); this model provides functionally equivalent
 * ordered storage. Capacity is bounded, as in hardware.
 */

#ifndef EDM_HW_ORDERED_LIST_HPP
#define EDM_HW_ORDERED_LIST_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hpp"

namespace edm {
namespace hw {

/**
 * Bounded list of (priority, value) entries ordered by descending
 * priority. Ties preserve insertion order (FIFO among equal priorities),
 * matching a stable hardware shift-register implementation.
 *
 * @tparam Priority ordered priority type (higher = served first)
 * @tparam Value payload type
 */
template <typename Priority, typename Value>
class OrderedList
{
  public:
    struct Entry
    {
        Priority priority;
        Value value;
    };

    /** @param capacity maximum number of entries the hardware can hold. */
    explicit OrderedList(std::size_t capacity)
        : capacity_(capacity)
    {
        EDM_ASSERT(capacity > 0, "ordered list needs capacity > 0");
    }

    /** Number of stored entries. */
    std::size_t size() const { return entries_.size(); }

    bool empty() const { return entries_.empty(); }
    bool full() const { return entries_.size() >= capacity_; }
    std::size_t capacity() const { return capacity_; }

    /**
     * Insert an entry; returns false (and drops it) when full — hardware
     * has no backpressure here, callers bound occupancy externally
     * (EDM does so via the per-source notification cap X).
     */
    bool
    insert(Priority priority, Value value)
    {
        if (full())
            return false;
        // Stable descending order: place after all entries with
        // priority >= new priority.
        auto it = entries_.begin();
        while (it != entries_.end() && !(it->priority < priority))
            ++it;
        entries_.insert(it, Entry{priority, std::move(value)});
        return true;
    }

    /** Highest-priority entry, if any (1-cycle hardware read). */
    const Entry *
    peek() const
    {
        return entries_.empty() ? nullptr : &entries_.front();
    }

    /** Remove and return the highest-priority entry. */
    std::optional<Entry>
    popFront()
    {
        if (entries_.empty())
            return std::nullopt;
        Entry e = std::move(entries_.front());
        entries_.erase(entries_.begin());
        return e;
    }

    /**
     * Highest-priority entry satisfying @p pred, or nullptr. Hardware
     * realizes this with parallel comparators over all entries.
     */
    template <typename Pred>
    const Entry *
    peekIf(Pred pred) const
    {
        for (const auto &e : entries_) {
            if (pred(e.value))
                return &e;
        }
        return nullptr;
    }

    /** Remove the first entry satisfying @p pred; true if one existed. */
    template <typename Pred>
    bool
    eraseIf(Pred pred)
    {
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (pred(it->value)) {
                entries_.erase(it);
                return true;
            }
        }
        return false;
    }

    /** Mutable visit of every entry in priority order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const auto &e : entries_)
            fn(e);
    }

    void clear() { entries_.clear(); }

  private:
    std::size_t capacity_;
    std::vector<Entry> entries_; ///< kept sorted, highest priority first
};

} // namespace hw
} // namespace edm

#endif // EDM_HW_ORDERED_LIST_HPP
