/**
 * @file
 * SmallVector: a vector whose first N elements live inside it.
 *
 * PacketView chains (buffer, offset, length) segments, and nearly
 * every view on the message path has one or two of them: a payload,
 * or a header followed by its payload.  Holding those inline means
 * slicing, chaining and copying a view allocate nothing; a longer
 * chain (multi-buffer reassembly) moves to the heap like a
 * std::vector, and keeps that capacity until the vector dies.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

namespace nectar::sim {

template <typename T, std::size_t N>
class SmallVector
{
    static_assert(N > 0, "SmallVector: use std::vector for no room");

  public:
    SmallVector() noexcept = default;

    SmallVector(const SmallVector &other) { append(other); }

    SmallVector(SmallVector &&other) noexcept { take(other); }

    SmallVector &
    operator=(const SmallVector &other)
    {
        if (this != &other) {
            clear();
            append(other);
        }
        return *this;
    }

    SmallVector &
    operator=(SmallVector &&other) noexcept
    {
        if (this != &other) {
            clear();
            release();
            take(other);
        }
        return *this;
    }

    ~SmallVector()
    {
        clear();
        release();
    }

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    T *begin() noexcept { return data_; }
    T *end() noexcept { return data_ + size_; }
    const T *begin() const noexcept { return data_; }
    const T *end() const noexcept { return data_ + size_; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    T &back() { return data_[size_ - 1]; }

    void
    push_back(T v)
    {
        if (size_ == cap_)
            grow(2 * cap_);
        ::new (static_cast<void *>(data_ + size_)) T(std::move(v));
        ++size_;
    }

    /** Destroy every element; heap storage, if any, stays. */
    void
    clear() noexcept
    {
        std::destroy(begin(), end());
        size_ = 0;
    }

  private:
    T *inlineData() noexcept { return reinterpret_cast<T *>(room); }
    bool onHeap() const noexcept
    {
        return data_ != reinterpret_cast<const T *>(room);
    }

    void
    append(const SmallVector &other)
    {
        if (other.size_ > cap_)
            grow(other.size_);
        for (const T &e : other)
            ::new (static_cast<void *>(data_ + size_++)) T(e);
    }

    /** Adopt @p other's elements (its heap block, or moved inline
     *  elements), leaving it empty; this must hold no heap block. */
    void
    take(SmallVector &other) noexcept
    {
        if (other.onHeap()) {
            data_ = other.data_;
            cap_ = other.cap_;
            size_ = other.size_;
            other.data_ = other.inlineData();
            other.cap_ = N;
            other.size_ = 0;
            return;
        }
        for (T &e : other)
            ::new (static_cast<void *>(data_ + size_++)) T(std::move(e));
        other.clear();
    }

    void
    release() noexcept
    {
        if (onHeap())
            std::allocator<T>().deallocate(data_, cap_);
        data_ = inlineData();
        cap_ = N;
    }

    void
    grow(std::size_t cap)
    {
        T *fresh = std::allocator<T>().allocate(cap);
        for (std::size_t i = 0; i < size_; ++i) {
            ::new (static_cast<void *>(fresh + i)) T(std::move(data_[i]));
            std::destroy_at(data_ + i);
        }
        if (onHeap())
            std::allocator<T>().deallocate(data_, cap_);
        data_ = fresh;
        cap_ = static_cast<std::uint32_t>(cap);
    }

    T *data_ = inlineData();
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = N;
    alignas(T) unsigned char room[N * sizeof(T)];
};

} // namespace nectar::sim
