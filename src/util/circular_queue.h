/**
 * @file
 * A fixed-capacity circular FIFO used for the FTQ, decode queue, and RAS.
 */

#ifndef FDIP_UTIL_CIRCULAR_QUEUE_H_
#define FDIP_UTIL_CIRCULAR_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/invariant.h"
#include "util/hotpath.h"

namespace fdip
{

/**
 * Fixed-capacity FIFO with random access by position from the head.
 *
 * Unlike std::deque, the capacity is fixed at construction, matching the
 * hardware structures being modelled, and push/pop never allocate.
 */
template <typename T>
class CircularQueue
{
  public:
    explicit CircularQueue(std::size_t capacity)
        : buf_(capacity), cap_(capacity), head_(0), size_(0)
    {
        FDIP_REQUIRE(capacity > 0,
                     "a zero-capacity queue models no hardware");
    }

    [[nodiscard]] FDIP_HOT_PATH std::size_t capacity() const noexcept { return cap_; }
    [[nodiscard]] FDIP_HOT_PATH std::size_t size() const noexcept { return size_; }
    [[nodiscard]] FDIP_HOT_PATH bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] FDIP_HOT_PATH bool full() const noexcept { return size_ == cap_; }

    /**
     * Appends the tail slot as it stands, still holding whatever was
     * last stored there, and returns it for the caller to overwrite in
     * place. The queue must not be full.
     */
    [[nodiscard]] FDIP_HOT_PATH T &
    pushSlot() FDIP_HOT_NOEXCEPT
    {
        FDIP_CHECK(!full(), "push onto a full queue (capacity %zu)",
                   capacity());
        T &slot = buf_[physIndex(size_)];
        ++size_;
        return slot;
    }

    /** Appends an element at the tail. The queue must not be full. */
    FDIP_HOT_PATH void
    pushBack(const T &v) FDIP_HOT_NOEXCEPT
    {
        pushSlot() = v;
    }

    /** Appends an element at the tail (move). The queue must not be full. */
    FDIP_HOT_PATH void
    pushBack(T &&v) FDIP_HOT_NOEXCEPT
    {
        pushSlot() = std::move(v);
    }

    /** Removes the head element. The queue must not be empty. */
    FDIP_HOT_PATH void
    popFront() FDIP_HOT_NOEXCEPT
    {
        FDIP_CHECK(!empty(), "pop from an empty queue");
        head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
        --size_;
    }

    /** Drops the newest @p n elements from the tail. */
    FDIP_HOT_PATH void
    truncate(std::size_t n) FDIP_HOT_NOEXCEPT
    {
        FDIP_CHECK(n <= size_, "truncating %zu of %zu elements", n, size_);
        size_ -= n;
    }

    /** Keeps the oldest @p n elements, discarding everything younger. */
    FDIP_HOT_PATH void
    resizeTo(std::size_t n) FDIP_HOT_NOEXCEPT
    {
        FDIP_CHECK(n <= size_, "resize to %zu of %zu elements", n, size_);
        size_ = n;
    }

    /** Removes all elements. */
    FDIP_HOT_PATH void
    clear() noexcept
    {
        head_ = 0;
        size_ = 0;
    }

    /** Element @p i positions from the head (0 = oldest). */
    [[nodiscard]] FDIP_HOT_PATH T &
    at(std::size_t i) FDIP_HOT_NOEXCEPT
    {
        FDIP_CHECK(i < size_, "index %zu out of bounds (size %zu)", i,
                   size_);
        return buf_[physIndex(i)];
    }

    [[nodiscard]] FDIP_HOT_PATH const T &
    at(std::size_t i) const FDIP_HOT_NOEXCEPT
    {
        FDIP_CHECK(i < size_, "index %zu out of bounds (size %zu)", i,
                   size_);
        return buf_[physIndex(i)];
    }

    [[nodiscard]] FDIP_HOT_PATH T &front() FDIP_HOT_NOEXCEPT { return at(0); }
    [[nodiscard]] FDIP_HOT_PATH const T &front() const FDIP_HOT_NOEXCEPT
    {
        return at(0);
    }
    [[nodiscard]] FDIP_HOT_PATH T &back() FDIP_HOT_NOEXCEPT { return at(size_ - 1); }
    [[nodiscard]] FDIP_HOT_PATH const T &back() const FDIP_HOT_NOEXCEPT
    {
        return at(size_ - 1);
    }

    /**
     * Calls @p f on every element, oldest first. It walks the buffer's
     * (at most two) contiguous spans: no per-element wrap or bounds
     * check.
     */
    template <typename F>
    FDIP_HOT_PATH void
    forEach(F &&f) const
    {
        const std::size_t first = std::min(size_, cap_ - head_);
        const T *span = buf_.data() + head_;
        for (std::size_t i = 0; i < first; ++i)
            f(span[i]);
        span = buf_.data();
        for (std::size_t i = 0; i < size_ - first; ++i)
            f(span[i]);
    }

  private:
    /** Slot of position @p logical. head_ and @p logical are both
     *  below the capacity, so one conditional subtract wraps it: no
     *  divide on the hot path. */
    [[nodiscard]] FDIP_HOT_PATH std::size_t
    physIndex(std::size_t logical) const noexcept
    {
        const std::size_t i = head_ + logical;
        return i >= cap_ ? i - cap_ : i;
    }

    std::vector<T> buf_;
    /** buf_.size(), kept so indexing never divides by sizeof(T). */
    std::size_t cap_;
    std::size_t head_;
    std::size_t size_;
};

} // namespace fdip

#endif // FDIP_UTIL_CIRCULAR_QUEUE_H_
