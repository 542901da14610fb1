/**
 * @file
 * An open-addressing map from 64-bit keys to 32-bit indices.
 *
 * It pairs with IndexPool: records live under small indices there, and
 * this table finds a record's index from its key. Linear probing over a
 * power-of-two table kept at most half full, with erase shifting the
 * rest of the probe run back instead of leaving tombstones, keeps
 * probes short; the table allocates only while it grows to the
 * high-water mark of keys held, never per insert.
 */

#ifndef EDM_COMMON_INDEX_MAP_HPP
#define EDM_COMMON_INDEX_MAP_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hpp"

namespace edm {
namespace common {

class IndexMap
{
  public:
    /** find()'s answer for an absent key. */
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
    /** The one key that cannot be stored: it marks an empty cell. */
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    /** The index stored under @p key, or kNone. */
    std::uint32_t
    find(std::uint64_t key) const
    {
        if (cells_.empty())
            return kNone;
        for (std::size_t i = home(key);; i = next(i)) {
            if (cells_[i].key == key)
                return cells_[i].index;
            if (cells_[i].key == kEmptyKey)
                return kNone;
        }
    }

    /** Store @p index under @p key. @pre @p key is absent. */
    void
    insert(std::uint64_t key, std::uint32_t index)
    {
        EDM_ASSERT(key != kEmptyKey, "the empty-cell key cannot be stored");
        if (2 * (size_ + 1) > cells_.size())
            grow();
        place(key, index);
        ++size_;
    }

    /** Remove @p key; returns its index, or kNone if it was absent. */
    std::uint32_t
    erase(std::uint64_t key)
    {
        if (cells_.empty())
            return kNone;
        std::size_t hole = home(key);
        while (cells_[hole].key != key) {
            if (cells_[hole].key == kEmptyKey)
                return kNone;
            hole = next(hole);
        }
        const std::uint32_t index = cells_[hole].index;
        // Shift later cells of the probe run into the hole unless their
        // home lies cyclically in (hole, j]: a lookup for them must not
        // meet an empty cell before reaching them.
        for (std::size_t j = next(hole); cells_[j].key != kEmptyKey;
             j = next(j)) {
            const std::size_t h = home(cells_[j].key);
            const bool stays = hole < j ? hole < h && h <= j
                                        : hole < h || h <= j;
            if (!stays) {
                cells_[hole] = cells_[j];
                hole = j;
            }
        }
        cells_[hole] = Cell{};
        --size_;
        return index;
    }

    /** Keys held. */
    std::size_t size() const { return size_; }

    /** Visit every (key, index), in no particular order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Cell &c : cells_)
            if (c.key != kEmptyKey)
                fn(c.key, c.index);
    }

  private:
    struct Cell
    {
        std::uint64_t key = kEmptyKey;
        std::uint32_t index = kNone;
    };

    std::size_t
    home(std::uint64_t key) const
    {
        // Fibonacci hashing: the product's top bits pick the cell.
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ULL) >> shift_);
    }

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (cells_.size() - 1);
    }

    void
    place(std::uint64_t key, std::uint32_t index)
    {
        std::size_t i = home(key);
        while (cells_[i].key != kEmptyKey)
            i = next(i);
        cells_[i] = Cell{key, index};
    }

    void
    grow()
    {
        std::vector<Cell> old;
        old.swap(cells_);
        const std::size_t cap = old.empty() ? 16 : 2 * old.size();
        cells_.assign(cap, Cell{});
        shift_ = 64 - std::countr_zero(cap);
        for (const Cell &c : old)
            if (c.key != kEmptyKey)
                place(c.key, c.index);
    }

    std::vector<Cell> cells_; ///< power-of-two size, at most half full
    int shift_ = 64;
    std::size_t size_ = 0;
};

} // namespace common
} // namespace edm

#endif // EDM_COMMON_INDEX_MAP_HPP
