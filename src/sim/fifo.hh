/**
 * @file
 * Fifo: a ring-buffer queue that keeps its storage for life.
 *
 * The message path queues items in FIFOs that fill and drain around
 * a small working size: a channel's one pending value, a HUB port's
 * input queue, a fiber's in-flight items.  libstdc++'s std::deque
 * allocates a map and a 512-byte node when it is constructed, and
 * frees and re-allocates nodes as the queue slides along; a Fifo
 * allocates only when it outgrows its capacity, which never shrinks.
 *
 * The first InlineN elements live inside the object itself (a
 * Channel's single value, a mutex's single waiter), so a short-lived
 * Fifo that never holds more costs no allocation at all.  Beyond
 * them the ring moves to the heap, doubling on growth.  Nothing is
 * allocated before the first push that needs room.
 */

#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace nectar::sim {

template <typename T, std::size_t InlineN = 0>
class Fifo
{
    static_assert((InlineN & (InlineN - 1)) == 0,
                  "Fifo: inline room must be zero or a power of two");

  public:
    Fifo() noexcept = default;

    Fifo(const Fifo &) = delete;
    Fifo &operator=(const Fifo &) = delete;

    ~Fifo()
    {
        clear();
        if (data_ != room.get())
            std::allocator<T>().deallocate(data_, cap_);
    }

    bool empty() const noexcept { return count_ == 0; }
    std::size_t size() const noexcept { return count_; }

    /** The i-th element from the front. */
    T &operator[](std::size_t i) { return data_[(head_ + i) & (cap_ - 1)]; }

    T &front() { return (*this)[0]; }

    void
    push_back(T v)
    {
        if (count_ == cap_)
            grow();
        ::new (static_cast<void *>(&(*this)[count_])) T(std::move(v));
        ++count_;
    }

    void
    pop_front()
    {
        std::destroy_at(&front());
        head_ = (head_ + 1) & (cap_ - 1);
        --count_;
    }

    /** Destroy every element; the storage stays. */
    void
    clear() noexcept
    {
        while (count_ > 0)
            pop_front();
        head_ = 0;
    }

    /** Remove the elements @p pred accepts, keeping the others in
     *  order. */
    template <typename Pred>
    void
    eraseIf(Pred pred)
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < count_; ++i) {
            T &e = (*this)[i];
            if (pred(std::as_const(e)))
                continue;
            if (kept != i)
                (*this)[kept] = std::move(e);
            ++kept;
        }
        while (count_ > kept) {
            std::destroy_at(&(*this)[count_ - 1]);
            --count_;
        }
    }

  private:
    /** The in-object room for the first InlineN elements. */
    template <std::size_t N, typename = void>
    struct Room
    {
        alignas(T) unsigned char bytes[N * sizeof(T)];
        T *get() noexcept { return reinterpret_cast<T *>(bytes); }
    };
    template <typename Dummy>
    struct Room<0, Dummy>
    {
        T *get() noexcept { return nullptr; }
    };

    void
    grow()
    {
        const std::size_t cap = cap_ < 4 ? 4 : 2 * cap_;
        T *fresh = std::allocator<T>().allocate(cap);
        for (std::size_t i = 0; i < count_; ++i) {
            T &e = (*this)[i];
            ::new (static_cast<void *>(&fresh[i])) T(std::move(e));
            std::destroy_at(&e);
        }
        if (data_ != room.get())
            std::allocator<T>().deallocate(data_, cap_);
        data_ = fresh;
        cap_ = cap;
        head_ = 0;
    }

    [[no_unique_address]] Room<InlineN> room;
    T *data_ = room.get();
    std::size_t cap_ = InlineN;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace nectar::sim
