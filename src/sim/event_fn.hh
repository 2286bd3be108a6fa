/**
 * @file
 * EventFn: the engine's small-buffer-optimized callback type.
 *
 * Every scheduled event stores one of these inside its pooled
 * EventNode.  Callables whose captures fit in sboBytes (and are
 * nothrow-move-constructible) live inline in the node — scheduling
 * them performs **zero** heap allocations.  Larger callables fall
 * back to a counted heap allocation (heapAllocCount()), which
 * bench_engine watches and the engine tests assert against.
 *
 * Contract with the linter: the SBO threshold shapes what a
 * schedule-site capture list should look like.  D4 already forbids
 * by-reference captures into schedule()/spawn(); keeping by-value
 * captures under sboBytes (a this-pointer plus a few ids — the
 * dominant pattern in phys/hub/datalink/transport) is what keeps the
 * hot path allocation-free.  D3's no-copy rule composes: captures
 * hold sim::Buffer/PacketView handles (16-24 bytes), never payload.
 *
 * Move-only: an EventFn is scheduled once and fired once; there is
 * no reason to copy a pending event's closure, and forbidding copies
 * keeps captured Buffer refcounts honest.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace nectar::sim {

/** Move-only `void()` callable with small-buffer optimization. */
class EventFn
{
  public:
    /**
     * Captures up to this many bytes are stored inline in the event
     * node; beyond it the callable is heap-allocated (and counted).
     * 48 bytes = a this-pointer plus five 64-bit words.  A site with
     * more state keeps it in its component and captures a handle
     * (FiberLink's in-flight FIFOs, Transport::rxWork), so no capture
     * on the message path outgrows it; test_footprint gates the
     * fallbacks per round trip at zero.
     */
    static constexpr std::size_t sboBytes = 48;

    EventFn() noexcept = default;

    EventFn(std::nullptr_t) noexcept {}

    /** Wrap any `void()` callable.  Bool-testable empties (a default
     *  std::function, a null function pointer) become a null EventFn
     *  so schedule() can reject them, matching the seed engine. */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventFn(F &&f)
    {
        using Stored = std::decay_t<F>;
        if constexpr (std::is_constructible_v<bool, const Stored &>) {
            if (!static_cast<bool>(f))
                return; // stay null
        }
        constexpr bool fitsInline =
            sizeof(Stored) <= sboBytes &&
            alignof(Stored) <= alignof(std::max_align_t) &&
            std::is_nothrow_move_constructible_v<Stored>;
        if constexpr (fitsInline) {
            ::new (static_cast<void *>(_buf))
                Stored(std::forward<F>(f));
            _ops = &inlineOps<Stored>;
        } else {
            _heap = new Stored(std::forward<F>(f));
            ++heapAllocs;
            _ops = &heapOps<Stored>;
        }
    }

    EventFn(EventFn &&other) noexcept { moveFrom(other); }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const noexcept { return _ops != nullptr; }

    void
    operator()()
    {
        _ops->invoke(target());
    }

    /** Drop the callable (releasing captured resources) early. */
    void
    reset() noexcept
    {
        if (_ops) {
            _ops->destroy(target());
            _ops = nullptr;
        }
    }

    /**
     * Callables constructed past the SBO threshold since process
     * start.  bench_engine samples this around its steady-state loop
     * to demonstrate the zero-allocation schedule/fire path.
     */
    static std::uint64_t
    heapAllocCount() noexcept
    {
        return heapAllocs;
    }

  private:
    struct Ops {
        void (*invoke)(void *);
        /** Move-construct into @p dst from @p src, destroying src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        bool onHeap;
    };

    void *
    target() noexcept
    {
        return _ops->onHeap ? _heap : static_cast<void *>(_buf);
    }

    void
    moveFrom(EventFn &other) noexcept
    {
        _ops = other._ops;
        if (_ops) {
            if (_ops->onHeap)
                _heap = other._heap;
            else
                _ops->relocate(_buf, other._buf);
            other._ops = nullptr;
        }
    }

    template <typename Stored>
    static constexpr Ops inlineOps = {
        [](void *p) { (*static_cast<Stored *>(p))(); },
        [](void *dst, void *src) noexcept {
            ::new (dst) Stored(std::move(*static_cast<Stored *>(src)));
            static_cast<Stored *>(src)->~Stored();
        },
        [](void *p) noexcept { static_cast<Stored *>(p)->~Stored(); },
        false,
    };

    template <typename Stored>
    static constexpr Ops heapOps = {
        [](void *p) { (*static_cast<Stored *>(p))(); },
        [](void *, void *) noexcept {}, // heap payload moves by pointer
        [](void *p) noexcept { delete static_cast<Stored *>(p); },
        true,
    };

    // nectar-lint: global-ok allocation diagnostics counter only
    static inline std::uint64_t heapAllocs = 0;

    union {
        alignas(std::max_align_t) unsigned char _buf[sboBytes];
        void *_heap;
    };
    const Ops *_ops = nullptr;
};

} // namespace nectar::sim
