/**
 * @file
 * Values held under small integer indices, with freed indices reused.
 *
 * An event that has to carry a large value, such as an 80-byte memory
 * message, captures its 4-byte index instead: the callback then fits
 * the event queue's inline buffer, so scheduling it never allocates,
 * and the storage settles at the high-water mark of values in flight.
 */

#ifndef EDM_COMMON_INDEX_POOL_HPP
#define EDM_COMMON_INDEX_POOL_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace edm {
namespace common {

template <typename T>
class IndexPool
{
  public:
    /** Hold @p value; its index stays valid until take() or release(). */
    std::uint32_t
    put(T value)
    {
        if (free_.empty()) {
            items_.push_back(std::move(value));
            return static_cast<std::uint32_t>(items_.size() - 1);
        }
        const std::uint32_t i = free_.back();
        free_.pop_back();
        items_[i] = std::move(value);
        return i;
    }

    T &operator[](std::uint32_t i) { return items_[i]; }
    const T &operator[](std::uint32_t i) const { return items_[i]; }

    /** Move the value at @p i out and free the index. */
    T
    take(std::uint32_t i)
    {
        T value = std::move(items_[i]);
        free_.push_back(i);
        return value;
    }

    /** Free @p i without reading its value. */
    void release(std::uint32_t i) { free_.push_back(i); }

    /** Values held. */
    std::size_t size() const { return items_.size() - free_.size(); }

  private:
    std::vector<T> items_;
    std::vector<std::uint32_t> free_;
};

} // namespace common
} // namespace edm

#endif // EDM_COMMON_INDEX_POOL_HPP
