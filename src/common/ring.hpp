/**
 * @file
 * Contiguous double-ended ring buffer for trivially copyable elements.
 *
 * The transmission path queues 66-bit blocks at line rate: mux entries
 * with availability stamps, frame backlogs, blocks staged for an egress
 * stream. Those queues need push/pop at both ends, bulk pops of a
 * train's worth of blocks and, rarely, an ordered insert near the head
 * (a trimmed train's blocks going back in front of a long queue). A
 * power-of-two ring serves all of that from one contiguous buffer:
 * scanning a run is an indexed walk, popping it is one index bump, and
 * an insert shifts whichever side of the ring is shorter. Capacity
 * follows the high-water mark, like hardware buffer memory; nothing is
 * freed until the ring dies.
 */

#ifndef EDM_COMMON_RING_HPP
#define EDM_COMMON_RING_HPP

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/logging.hpp"

namespace edm {
namespace common {

/**
 * Growable ring of @p T. Elements are relocated by plain copies, so
 * @p T must be trivially copyable.
 */
template <typename T>
class Ring
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ring elements are relocated by copy");

  public:
    Ring() = default;

    Ring(const Ring &) = delete;
    Ring &operator=(const Ring &) = delete;

    Ring(Ring &&o) noexcept
        : buf_(std::move(o.buf_)), mask_(std::exchange(o.mask_, 0)),
          head_(std::exchange(o.head_, 0)), size_(std::exchange(o.size_, 0))
    {
    }

    Ring &
    operator=(Ring &&o) noexcept
    {
        buf_ = std::move(o.buf_);
        mask_ = std::exchange(o.mask_, 0);
        head_ = std::exchange(o.head_, 0);
        size_ = std::exchange(o.size_, 0);
        return *this;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Elements the ring holds before it next grows. */
    std::size_t capacity() const { return buf_ ? mask_ + 1 : 0; }

    /** Element @p i counted from the front (@p i < size()). */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    push_back(const T &x)
    {
        if (size_ == capacity())
            grow(size_ + 1);
        (*this)[size_] = x;
        ++size_;
    }

    void
    push_front(const T &x)
    {
        if (size_ == capacity())
            grow(size_ + 1);
        head_ = (head_ - 1) & mask_;
        buf_[head_] = x;
        ++size_;
    }

    /** Append @p count elements in order. */
    void
    append(const T *src, std::size_t count)
    {
        if (size_ + count > capacity())
            grow(size_ + count);
        // At most two contiguous destination segments: up to the end of
        // the buffer, then from its start.
        const std::size_t tail = (head_ + size_) & mask_;
        const std::size_t first = std::min(count, mask_ + 1 - tail);
        std::copy_n(src, first, buf_.get() + tail);
        std::copy_n(src + first, count - first, buf_.get());
        size_ += count;
    }

    /**
     * Insert @p x so it becomes element @p i (@p i <= size()), shifting
     * whichever side of the ring is shorter by one slot.
     */
    void
    insert(std::size_t i, const T &x)
    {
        EDM_ASSERT(i <= size_, "ring insert at %zu past size %zu", i,
                   size_);
        if (size_ == capacity())
            grow(size_ + 1);
        if (i < size_ - i) {
            head_ = (head_ - 1) & mask_;
            for (std::size_t k = 0; k < i; ++k)
                (*this)[k] = (*this)[k + 1];
        } else {
            for (std::size_t k = size_; k > i; --k)
                (*this)[k] = (*this)[k - 1];
        }
        (*this)[i] = x;
        ++size_;
    }

    void
    pop_front()
    {
        EDM_ASSERT(size_ > 0, "pop_front on an empty ring");
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Drop the first @p count elements (@p count <= size()). */
    void
    pop_front(std::size_t count)
    {
        EDM_ASSERT(count <= size_, "pop_front(%zu) on a ring of %zu",
                   count, size_);
        head_ = (head_ + count) & mask_;
        size_ -= count;
    }

    void
    pop_back()
    {
        EDM_ASSERT(size_ > 0, "pop_back on an empty ring");
        --size_;
    }

  private:
    /** Reallocate to the next power of two >= @p need, front at 0. */
    void
    grow(std::size_t need)
    {
        std::size_t cap = std::max<std::size_t>(capacity(), 8);
        while (cap < need)
            cap *= 2;
        auto next = std::make_unique_for_overwrite<T[]>(cap);
        const std::size_t first = std::min(size_, capacity() - head_);
        if (size_ > 0) {
            std::copy_n(buf_.get() + head_, first, next.get());
            std::copy_n(buf_.get(), size_ - first, next.get() + first);
        }
        buf_ = std::move(next);
        mask_ = cap - 1;
        head_ = 0;
    }

    std::unique_ptr<T[]> buf_;
    std::size_t mask_ = 0; ///< capacity - 1 once allocated
    std::size_t head_ = 0; ///< buffer index of element 0
    std::size_t size_ = 0;
};

} // namespace common
} // namespace edm

#endif // EDM_COMMON_RING_HPP
