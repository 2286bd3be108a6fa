/**
 * @file
 * Minimal C++20 coroutine support for simulated software.
 *
 * CAB kernel threads and protocol handlers are written as coroutines
 * that suspend on simulated time (Delay) and on inter-thread
 * communication (Channel).  The event queue drives all resumptions, so
 * coroutine execution is deterministic and interleaved with hardware
 * events.
 *
 * Task<T> is lazy: it starts when first awaited, or when handed to
 * spawn().  Coroutine frames own their children via continuation
 * chaining, so a detached top-level task cleans itself up on
 * completion.
 *
 * @warning Toolchain pitfall: GCC 12 double-destroys *aggregate*
 * temporaries appearing inside co_await expressions (their
 * non-trivial members are freed twice).  Structs passed as coroutine
 * arguments should therefore declare explicit constructors (see
 * cabos::Message), or call sites should materialize a named local and
 * std::move it in.
 */

#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "event_queue.hh"
#include "fifo.hh"
#include "logging.hh"
#include "types.hh"

namespace nectar::sim {

template <typename T>
class Task;

namespace detail {

/**
 * Size-class freelists for coroutine frames.
 *
 * Every protocol step on the message path is a coroutine call
 * (sendDatagram, transmitPacket, sendPacket, attemptSend, a mailbox
 * get, ...), and each call makes a frame.  A destroyed frame waits on
 * the freelist of its 64-byte size class and serves the next frame of
 * that class, so the steady state allocates none.  The lists start
 * empty and grow only to the most frames of a class ever alive at
 * once; frames above maxPooledBytes go straight to the heap.  This is
 * host memory only: no simulated behaviour depends on where a frame
 * lives.
 *
 * Under AddressSanitizer a pooled block stays poisoned until it is
 * handed out again, so touching a destroyed frame still reports a
 * use-after-free.  Only the block's last word, its freelist link,
 * stays readable: LeakSanitizer ignores pointers in poisoned memory
 * and would otherwise report every pooled block but the first.
 */
class FramePool
{
  public:
    static void *
    allocate(std::size_t n)
    {
        if (n > maxPooledBytes)
            return ::operator new(n);
        const std::size_t bytes = classBytes(n);
        void *&head = lists[classOf(n)];
        if (void *b = head) {
            head = next(b, bytes);
            unpoison(b, bytes - sizeof(void *));
            return b;
        }
        return ::operator new(bytes);
    }

    static void
    release(void *p, std::size_t n) noexcept
    {
        if (n > maxPooledBytes) {
            ::operator delete(p);
            return;
        }
        const std::size_t bytes = classBytes(n);
        void *&head = lists[classOf(n)];
        next(p, bytes) = head;
        head = p;
        poison(p, bytes - sizeof(void *));
    }

  private:
    static constexpr std::size_t granule = 64;
    static constexpr std::size_t maxPooledBytes = 2048;

    static std::size_t classOf(std::size_t n) { return (n - 1) / granule; }

    static std::size_t
    classBytes(std::size_t n)
    {
        return (classOf(n) + 1) * granule;
    }

    /** A pooled block's link to the next: its last word. */
    static void *&
    next(void *block, std::size_t bytes)
    {
        return *reinterpret_cast<void **>(static_cast<char *>(block) +
                                          bytes - sizeof(void *));
    }

    static void
    poison([[maybe_unused]] void *p, [[maybe_unused]] std::size_t n)
    {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_POISON_MEMORY_REGION(p, n);
#endif
    }

    static void
    unpoison([[maybe_unused]] void *p, [[maybe_unused]] std::size_t n)
    {
#if defined(__SANITIZE_ADDRESS__)
        ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
    }

    // nectar-lint: global-ok host-side frame freelists; no
    // simulated state reads them
    static inline void *lists[maxPooledBytes / granule] = {};
};

/** Coroutine frames of promise types deriving from this come from
 *  the FramePool. */
struct PooledFrame
{
    static void *operator new(std::size_t n)
    {
        return FramePool::allocate(n);
    }

    static void
    operator delete(void *p, std::size_t n) noexcept
    {
        FramePool::release(p, n);
    }
};

/** Resumes the awaiting coroutine when the awaited task finishes. */
struct FinalAwaiter
{
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<Promise> h) noexcept
    {
        auto cont = h.promise().continuation;
        return cont ? cont : std::noop_coroutine();
    }

    void await_resume() const noexcept {}
};

struct PromiseBase : PooledFrame
{
    std::coroutine_handle<> continuation;
    std::exception_ptr error;

    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { error = std::current_exception(); }
};

} // namespace detail

/**
 * A lazily started coroutine returning T.
 *
 * Ownership: the Task owns the coroutine frame; awaiting it transfers
 * execution into the frame and resumes the awaiter on completion.
 */
template <typename T = void>
class Task
{
  public:
    struct promise_type : detail::PromiseBase
    {
        std::optional<T> value;

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        void return_value(T v) { value = std::move(v); }
    };

    Task() = default;

    explicit Task(std::coroutine_handle<promise_type> h) : handle(h) {}

    Task(Task &&other) noexcept
        : handle(std::exchange(other.handle, nullptr))
    {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle = std::exchange(other.handle, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    bool valid() const { return handle != nullptr; }
    bool done() const { return handle && handle.done(); }

    // Awaiting a Task starts it and suspends until it completes.
    bool await_ready() const { return !handle || handle.done(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont)
    {
        handle.promise().continuation = cont;
        return handle;
    }

    T
    await_resume()
    {
        auto &p = handle.promise();
        if (p.error)
            std::rethrow_exception(p.error);
        return std::move(*p.value);
    }

  private:
    void
    destroy()
    {
        if (handle) {
            handle.destroy();
            handle = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle;
};

/** Specialization for void-returning tasks. */
template <>
class Task<void>
{
  public:
    struct promise_type : detail::PromiseBase
    {
        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        void return_void() {}
    };

    Task() = default;

    explicit Task(std::coroutine_handle<promise_type> h) : handle(h) {}

    Task(Task &&other) noexcept
        : handle(std::exchange(other.handle, nullptr))
    {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle = std::exchange(other.handle, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    bool valid() const { return handle != nullptr; }
    bool done() const { return handle && handle.done(); }

    bool await_ready() const { return !handle || handle.done(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont)
    {
        handle.promise().continuation = cont;
        return handle;
    }

    void
    await_resume()
    {
        auto &p = handle.promise();
        if (p.error)
            std::rethrow_exception(p.error);
    }

  private:
    void
    destroy()
    {
        if (handle) {
            handle.destroy();
            handle = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle;
};

namespace detail {

/** Self-destroying eager wrapper used by spawn(). */
struct Detached
{
    struct promise_type : PooledFrame
    {
        /** Position in the live-frame registry (swap-erased). */
        std::size_t regIndex = 0;

        promise_type();
        ~promise_type();

        Detached get_return_object() { return {}; }
        std::suspend_never initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            // A detached simulated thread must not throw; surface the
            // error loudly rather than swallowing it.
            try {
                std::rethrow_exception(std::current_exception());
            } catch (const std::exception &e) {
                panic(std::string("uncaught exception in detached "
                                  "coroutine: ") + e.what());
            }
        }
    };
};

/**
 * Registry of live detached (root) coroutine frames.  A frame removes
 * itself when it completes; frames still suspended when the
 * simulation ends — server loops parked on a Channel, senders blocked
 * on a mailbox that will never drain — used to leak.  They are now
 * destroyed by reapDetachedFrames(), triggered by the last
 * EventQueue's destructor (and again at exit as a backstop, when the
 * registry's own destructor runs).  Destroying a root Detached frame
 * destroys its whole awaited Task chain: each frame owns its children
 * through the Task objects held in its locals.
 */
struct DetachedFrameSet
{
    std::vector<std::coroutine_handle<Detached::promise_type>> frames;

    ~DetachedFrameSet() { reap(); }

    void
    reap()
    {
        // Each destroy() runs ~promise_type, which unregisters the
        // frame, so the loop always takes the current last one.
        while (!frames.empty())
            frames.back().destroy();
    }
};

inline DetachedFrameSet &
detachedFrames()
{
    // nectar-lint: global-ok detached-frame registry shared with the
    // reaper hook
    static DetachedFrameSet set;
    return set;
}

inline void
reapDetachedFrames()
{
    detachedFrames().reap();
}

inline Detached::promise_type::promise_type()
{
    detachedReaper = &reapDetachedFrames;
    auto &set = detachedFrames();
    regIndex = set.frames.size();
    set.frames.push_back(
        std::coroutine_handle<promise_type>::from_promise(*this));
}

inline Detached::promise_type::~promise_type()
{
    auto &v = detachedFrames().frames;
    v[regIndex] = v.back();
    v[regIndex].promise().regIndex = regIndex;
    v.pop_back();
}

inline Detached
runDetached(Task<void> t)
{
    co_await std::move(t);
}

} // namespace detail

/** Number of detached coroutine frames currently alive (tests). */
inline std::size_t
liveDetachedFrames()
{
    return detail::detachedFrames().frames.size();
}

/**
 * Start a task "in the background".  The coroutine frame frees itself
 * when the task completes.  Execution begins immediately (within the
 * caller's stack), up to the task's first suspension point.
 */
inline void
spawn(Task<void> t)
{
    detail::runDetached(std::move(t));
}

/**
 * Awaitable that suspends the coroutine for a simulated duration.
 *
 * @code
 * co_await Delay{eq, 5 * ticks::us};
 * @endcode
 */
struct Delay
{
    EventQueue &eq;
    Tick duration;
    EventPriority prio = EventPriority::software;

    bool await_ready() const { return false; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        eq.scheduleIn(duration, [h] { h.resume(); }, prio);
    }

    void await_resume() const {}
};

/**
 * An unbounded asynchronous channel of T.
 *
 * pop() suspends the consumer until a value is available; push() wakes
 * one waiting consumer via the event queue (never inline, avoiding
 * reentrancy).  This is the primitive beneath CAB mailboxes and the
 * scheduler's run queue.
 */
template <typename T>
class Channel
{
  public:
    explicit Channel(EventQueue &eq) : eq(eq) {}

    /** Number of queued values. */
    std::size_t size() const { return values.size(); }
    bool empty() const { return values.empty(); }
    /** Number of consumers blocked in pop(). */
    std::size_t waiters() const { return waiting.size(); }

    /** Enqueue a value, waking one waiting consumer. */
    void
    push(T v)
    {
        values.push_back(std::move(v));
        wakeOne();
    }

    /** Awaitable consumer interface. */
    auto
    pop()
    {
        struct Awaiter
        {
            Channel &ch;

            bool await_ready() const { return !ch.values.empty(); }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                ch.waiting.push_back(h);
            }

            T
            await_resume()
            {
                simAssert(!ch.values.empty(),
                          "Channel::pop resumed with no value");
                T v = std::move(ch.values.front());
                ch.values.pop_front();
                return v;
            }
        };
        return Awaiter{*this};
    }

    /** Non-blocking pop. */
    std::optional<T>
    tryPop()
    {
        if (values.empty())
            return std::nullopt;
        T v = std::move(values.front());
        values.pop_front();
        return v;
    }

  private:
    void
    wakeOne()
    {
        if (waiting.empty())
            return;
        auto h = waiting.front();
        waiting.pop_front();
        // Resume through the event queue at the current tick so the
        // producer's stack unwinds first.
        eq.scheduleIn(ticks::immediate, [h] { h.resume(); },
                      EventPriority::software);
    }

    EventQueue &eq;
    // Inline room for one of each: the common channel carries one
    // value to one waiter and then dies, allocating nothing.
    Fifo<T, 1> values;
    Fifo<std::coroutine_handle<>, 1> waiting;
};

/**
 * A FIFO mutex for coroutines.
 *
 * lock() suspends until the mutex is available; unlock() hands the
 * mutex to the next waiter (resumed through the event queue).  Used
 * e.g. to serialize packet transmissions on a CAB's single outgoing
 * fiber.
 */
class AsyncMutex
{
  public:
    explicit AsyncMutex(EventQueue &eq) : eq(eq) {}

    bool locked() const { return _locked; }
    std::size_t waiters() const { return waiting.size(); }

    /** Awaitable: acquire the mutex (FIFO order among waiters). */
    auto
    lock()
    {
        struct Awaiter
        {
            AsyncMutex &m;

            bool
            await_ready()
            {
                if (!m._locked) {
                    m._locked = true;
                    return true;
                }
                return false;
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                m.waiting.push_back(h);
            }

            void await_resume() const {}
        };
        return Awaiter{*this};
    }

    /** Release; the next waiter (if any) becomes the owner. */
    void
    unlock()
    {
        simAssert(_locked, "AsyncMutex::unlock while unlocked");
        if (waiting.empty()) {
            _locked = false;
            return;
        }
        // Ownership transfers directly to the next waiter, which
        // resumes via the event queue (still at the current tick).
        auto h = waiting.front();
        waiting.pop_front();
        eq.scheduleIn(ticks::immediate, [h] { h.resume(); },
                      EventPriority::software);
    }

  private:
    EventQueue &eq;
    bool _locked = false;
    Fifo<std::coroutine_handle<>, 1> waiting;
};

} // namespace nectar::sim
